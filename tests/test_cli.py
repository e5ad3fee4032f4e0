import json

import numpy as np

from hsmm_spectral.cli import main
from hsmm_spectral.hsmm import load_model, read_sequences


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_model_then_validate(tmp_path, capsys):
    model = tmp_path / "m.json"
    code, _, _ = run(
        ["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "1",
         "-o", str(model)], capsys
    )
    assert code == 0
    code, out, _ = run(["validate", str(model)], capsys)
    assert code == 0
    assert "pass" in out
    p = load_model(model)
    assert (p.n_o, p.n_x, p.n_d) == (3, 2, 2)


def test_usage_error_exits_one(capsys):
    code, _, err = run(["gen-model", "--no", "3"], capsys)
    assert code == 1
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1
    code, _, _ = run(["bench", "--bogus-flag"], capsys)
    assert code == 1
    # learn-spectral options that no longer exist
    learn = ["learn-spectral", "--data", "d.txt", "--nx", "2", "--nd", "2", "-o", "m.bin"]
    for removed in (["--seed", "0"], ["--save-moments", "moments.bin"]):
        code, _, err = run(learn + removed, capsys)
        assert code == 1 and f"unrecognized arguments: {' '.join(removed)}" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(["validate", "does-not-exist.json"], capsys)
    assert code == 2


def test_full_pipeline(tmp_path, capsys):
    model = tmp_path / "m.json"
    data = tmp_path / "train.txt"
    learned = tmp_path / "spec.bin"
    scores = tmp_path / "scores.csv"
    assert run(
        ["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "2",
         "-o", str(model)], capsys
    )[0] == 0
    assert run(
        ["gen-data", "--model", str(model), "-n", "400", "-T", "20",
         "--seed", "3", "-o", str(data)], capsys
    )[0] == 0
    assert len(read_sequences(data)) == 400
    assert run(
        ["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         "--rtol", "1e-6", "-o", str(learned)],
        capsys,
    )[0] == 0
    code, out, _ = run(
        ["infer", "--model", str(learned), "--sequence", "0 1 2 1 0"], capsys
    )
    assert code == 0
    assert "log_value=" in out and "sign=1" in out
    code, out, _ = run(
        ["score", "--model", str(learned), "--data", str(data),
         "-o", str(scores)], capsys
    )
    assert code == 0
    lines = scores.read_text().strip().split("\n")
    assert lines[0] == "id,log_value,sign,clamped,norm_loglik"
    assert len(lines) == 401
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(v) for v in values)


def test_infer_short_sequence_exits_two(tmp_path, capsys):
    model = tmp_path / "m.json"
    data = tmp_path / "d.txt"
    learned = tmp_path / "s.bin"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "4",
         "-o", str(model)], capsys)
    run(["gen-data", "--model", str(model), "-n", "300", "-T", "15",
         "--seed", "5", "-o", str(data)], capsys)
    run(["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         "-o", str(learned)], capsys)
    code, _, err = run(
        ["infer", "--model", str(learned), "--sequence", "0 1"], capsys
    )
    assert code == 2
    assert "SequenceTooShort" in err


def test_score_error_names_the_file_line(tmp_path, capsys):
    data = tmp_path / "d.txt"
    learned = tmp_path / "s.bin"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "4",
         "-o", str(tmp_path / "m.json")], capsys)
    run(["gen-data", "--model", str(tmp_path / "m.json"), "-n", "300", "-T", "15",
         "--seed", "5", "-o", str(data)], capsys)
    run(["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         "-o", str(learned)], capsys)
    scored = tmp_path / "scored.txt"
    scored.write_text("# scored set\n\n0 1 2 1 0\n0 1\n")
    out = tmp_path / "scores.csv"
    code, _, err = run(
        ["score", "--model", str(learned), "--data", str(scored), "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert err.startswith("line 4: SequenceTooShort"), err
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    assert rows[1].startswith("1,nan,")


def test_basic_variant_pipeline(tmp_path, capsys):
    model = tmp_path / "m.json"
    data = tmp_path / "d.txt"
    learned = tmp_path / "per_t.bin"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "6",
         "-o", str(model)], capsys)
    run(["gen-data", "--model", str(model), "-n", "500", "-T", "12",
         "--seed", "7", "-o", str(data)], capsys)
    code, _, err = run(
        ["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         "--basic", "-o", str(learned)], capsys
    )
    assert code == 0, err
    code, out, _ = run(
        ["infer", "--model", str(learned), "--sequence", "0 1 1 0 2 1"], capsys
    )
    assert code == 0
    assert "log_value=" in out


def test_learn_em_cli(tmp_path, capsys):
    model = tmp_path / "m.json"
    data = tmp_path / "d.txt"
    fitted = tmp_path / "em.json"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "1", "--seed", "8",
         "-o", str(model)], capsys)
    run(["gen-data", "--model", str(model), "-n", "50", "-T", "12",
         "--seed", "9", "-o", str(data)], capsys)
    code, out, err = run(
        ["learn-em", "--data", str(data), "--no", "3", "--nx", "2", "--nd", "1",
         "--max-iter", "5", "--restarts", "1", "--seed", "10",
         "-o", str(fitted)], capsys
    )
    assert code == 0, err
    assert "loglik=" in out
    q = load_model(fitted)
    assert (q.n_o, q.n_x, q.n_d) == (3, 2, 1)


def test_rank_check_cli(tmp_path, capsys):
    out = tmp_path / "ranks.csv"
    code, msg, _ = run(
        ["rank-check", "--nx", "2", "--nd", "2", "--seeds", "1",
         "-o", str(out)], capsys
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n_x,n_d,ell,algorithm,predicted,observed,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_bench_cli_smoke(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, msg, err = run(
        ["bench", "--sizes", "3,2,2", "--n-list", "200", "-T", "25",
         "--n-test", "20", "--seeds", "2", "--no-em", "-o", str(out)], capsys
    )
    assert code == 0, err
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    cfg = json.loads((tmp_path / "report.csv.config.json").read_text())
    assert cfg["seeds"] == [0, 1]
    assert (cfg["T"], cfg["n_test"]) == (25, 20)
    # a zero override is applied, and refused, not replaced by the default
    base = ["bench", "--sizes", "3,2,2", "--n-list", "200", "--no-em",
            "-o", str(tmp_path / "zero.csv")]
    for bad, field in ((["--rtol", "0"], "rtol"), (["-T", "0"], "T"),
                       (["--n-test", "0"], "n_test"), (["--seeds", "0"], "seeds")):
        code, _, err = run(base + bad, capsys)
        assert code == 2 and f"InvalidModel: {field} must" in err, (bad, err)
        assert not (tmp_path / "zero.csv.config.json").exists()


def _learn_bad_input(tmp_path, capsys, lines, extra):
    data = tmp_path / "bad.txt"
    data.write_text("\n".join(lines) + "\n")
    return run(
        ["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         *extra, "-o", str(tmp_path / "s.bin")], capsys
    )


GOOD = ["0 1 2 1 0 2 1 1 0 2 0 1"] * 30


def test_learn_rejects_negative_symbol(tmp_path, capsys):
    lines = ["# header", *GOOD[:4], "0 1 -1 2 0 1 2 0", *GOOD]
    for extra in ([], ["--no", "3"], ["--basic"], ["--basic", "--no", "3"]):
        code, _, err = _learn_bad_input(tmp_path, capsys, lines, extra)
        assert code == 2, (extra, err)
        assert "line 6" in err and "symbol -1" in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "s.bin").exists()


def test_learn_rejects_symbol_outside_alphabet(tmp_path, capsys):
    lines = [*GOOD[:2], "", "0 1 2 3 0 1 2 0", *GOOD]
    for extra in (["--no", "3"], ["--basic", "--no", "3"]):
        code, _, err = _learn_bad_input(tmp_path, capsys, lines, extra)
        assert code == 2, (extra, err)
        assert "line 4" in err and "symbol 3 outside alphabet of size 3" in err, err
    code, _, err = run(
        ["learn-em", "--data", str(tmp_path / "bad.txt"), "--no", "3", "--nx", "2",
         "--nd", "1", "-o", str(tmp_path / "em.json")], capsys
    )
    assert code == 2 and "line 4" in err and "symbol 3" in err, err


def test_infer_names_the_unknown_symbol(tmp_path, capsys):
    data = tmp_path / "d.txt"
    learned = tmp_path / "s.bin"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "4",
         "-o", str(tmp_path / "m.json")], capsys)
    run(["gen-data", "--model", str(tmp_path / "m.json"), "-n", "300", "-T", "15",
         "--seed", "5", "-o", str(data)], capsys)
    run(["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         "-o", str(learned)], capsys)
    code, _, err = run(
        ["infer", "--model", str(learned), "--sequence", "0 1 -1 2 0 1"], capsys
    )
    assert code == 2
    assert "UnknownSymbol: symbol -1 outside alphabet of size 3" in err


def test_model_file_without_variant_exits_two(tmp_path, capsys):
    from hsmm_spectral.container import write_container

    path = tmp_path / "m.bin"
    write_container(path, "observable-model", {"n_o": 3, "ell": 2, "rtol": 1e-6}, [])
    code, _, err = run(["infer", "--model", str(path), "--sequence", "0 1 2"], capsys)
    assert code == 2
    assert "SpectralError" in err and "variant" in err


def test_symbol_beyond_int64_exits_two(tmp_path, capsys):
    huge = "99999999999999999999"
    data = tmp_path / "d.txt"
    learned = tmp_path / "s.bin"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "4",
         "-o", str(tmp_path / "m.json")], capsys)
    run(["gen-data", "--model", str(tmp_path / "m.json"), "-n", "300", "-T", "15",
         "--seed", "5", "-o", str(data)], capsys)
    run(["learn-spectral", "--data", str(data), "--nx", "2", "--nd", "2",
         "-o", str(learned)], capsys)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([*GOOD[:3], f"0 1 {huge} 1", *GOOD]) + "\n")
    for argv in (
        ["learn-spectral", "--data", str(bad), "--nx", "2", "--nd", "2",
         "-o", str(tmp_path / "out.bin")],
        ["score", "--model", str(learned), "--data", str(bad),
         "-o", str(tmp_path / "scores.csv")],
        ["infer", "--model", str(learned), "--data", str(bad)],
        ["infer", "--model", str(learned), "--sequence", f"0 1 {huge} 1"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, (argv, err)
        assert f"symbol {huge} does not fit in int64" in err, err
        assert "Traceback" not in err
        if "--data" in argv:
            assert "line 4" in err, err


def test_model_json_that_is_not_a_model_exits_two(tmp_path, capsys):
    path = tmp_path / "m.json"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "-o", str(path)], capsys)
    doc = json.loads(path.read_text())
    cases = [
        ([doc["O"]], "model file holds a JSON list, need an object"),
        ({key: v for key, v in doc.items() if key != "O"}, "model file has no 'O'"),
        ({"n_o": 3, "X": doc["X"]}, "model file has no 'O', 'D', 'pi_x'"),
    ]
    for bad, message in cases:
        path.write_text(json.dumps(bad))
        for argv in (["validate", str(path)],
                     ["gen-data", "--model", str(path), "-n", "2", "-T", "5",
                      "-o", str(tmp_path / "d.txt")]):
            code, _, err = run(argv, capsys)
            assert code == 2 and err == f"InvalidModel: {message}\n"


def test_learn_em_refuses_empty_dimensions(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("0 1 2 1 0\n1 2 0 0 1\n")
    base = ["learn-em", "--data", str(data), "--no", "3", "-o", str(tmp_path / "em.json")]
    for dims, message in (
        (["--nx", "0", "--nd", "2"], "n_x=0 and n_d=2 must be at least 1"),
        (["--nx", "2", "--nd", "0"], "n_x=2 and n_d=0 must be at least 1"),
        (["--nx", "2", "--nd", "2", "--tol", "nan"], "tol must be positive, got nan"),
    ):
        code, _, err = run(base + dims, capsys)
        assert code == 2, (dims, err)
        assert f"InvalidModel: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "em.json").exists()


def test_gen_data_refuses_empty_length_and_negative_count(tmp_path, capsys):
    model = tmp_path / "m.json"
    out = tmp_path / "d.txt"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "-o", str(model)], capsys)
    for bad, message in ((["-n", "4", "-T", "0"], "T must be at least 1"),
                         (["-n", "-1", "-T", "5"], "n_sequences must be non-negative")):
        code, _, err = run(["gen-data", "--model", str(model), *bad, "-o", str(out)], capsys)
        assert code == 2 and f"InvalidModel: {message}" in err, (bad, err)
        assert not out.exists()


def test_learn_refuses_count_tables_over_the_cap(tmp_path, capsys):
    # n_o = 300 at ell = 2 asks for a 90000 x 90000 window table (60 GiB)
    for extra in (["--no", "300"], ["--basic", "--no", "300"]):
        code, _, err = _learn_bad_input(tmp_path, capsys, GOOD, extra)
        assert code == 2, (extra, err)
        assert "ValueError: count tables for n_o=300, ell=2 (k=90000" in err, err
        assert "over the cap of 1073741824" in err and "Traceback" not in err
    code, _, err = _learn_bad_input(tmp_path, capsys, [*GOOD, "0 1 999999999 1 0 2"], [])
    assert code == 2 and "count tables for n_o=1000000000, ell=2" in err, err
    assert not (tmp_path / "s.bin").exists()
