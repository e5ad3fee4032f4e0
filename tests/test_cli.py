import argparse
import hashlib
import json

import numpy as np
import pytest

from hsmm_spectral import cli
from hsmm_spectral.cli import main
from hsmm_spectral.hsmm import load_model, random_model, read_sequences, save_model
from hsmm_spectral.spectral import load_observable, score_file


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
    # text that is not a number stays argparse's usage error, named by option
    for flag, text, kind in (("--nx", "abc", "int"), ("--rtol", "tiny", "float")):
        code, _, err = run(["learn-spectral", "--data", "d.txt", "--nx", "2", "--nd", "2",
                            flag, text, "-o", "m.bin"], capsys)
        assert code == 1 and f"argument {flag}: invalid {kind} value: '{text}'" in err
    # learn-spectral options that no longer exist
    learn = ["learn-spectral", "--data", "d.txt", "--nx", "2", "--nd", "2", "-o", "m.bin"]
    for removed in (["--seed", "0"], ["--save-moments", "moments.bin"]):
        code, _, err = run(learn + removed, capsys)
        assert code == 1 and f"unrecognized arguments: {' '.join(removed)}" in err


def test_reused_parser_behaves_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    fresh = cli._build_parser.__wrapped__
    gen = ["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "-o", str(tmp_path / "m.json")]
    # a usage error after a success, and a success after a usage error
    assert run(gen, capsys)[0] == 0
    code, _, err = run(gen[:3], capsys)
    assert code == 1 and "the following arguments are required: --nx, --nd" in err
    assert run(gen, capsys)[0] == 0
    # and an out-of-range number between two successes
    assert run(gen + ["--nx", "0"], capsys)[:2] == (2, "")
    assert run(gen, capsys)[0] == 0
    # help prints what a freshly built parser prints
    for argv in (["--help"], ["score", "--help"]):
        code, out, _ = run(argv, capsys)
        with pytest.raises(SystemExit):
            fresh().parse_args(argv)
        assert code == 0 and out == capsys.readouterr().out and "usage:" in out
    # no option defaults leak from one subcommand into the next
    seen = {}

    def record(args):
        seen[args.command] = vars(args)
        return 0

    monkeypatch.setitem(cli._COMMANDS, "bench", record)
    monkeypatch.setitem(cli._COMMANDS, "learn-em", record)
    bench = ["bench", "--sizes", "3,2,2", "--seeds", "2", "--rtol", "1e-3", "-o", "r.csv"]
    learn = ["learn-em", "--data", "d.txt", "--no", "3", "--nx", "2", "--nd", "2",
             "-o", "e.json"]
    assert run(bench, capsys)[0] == run(learn, capsys)[0] == 0
    assert seen == {argv[0]: vars(fresh().parse_args(argv)) for argv in (bench, learn)}
    assert "rtol" not in seen["learn-em"] and seen["learn-em"]["seed"] == 0


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
    # the CLI scores straight from the file's stacks, as the loaded models score
    scores, want = tmp_path / "scores.csv", tmp_path / "want.csv"
    code, _, err = run(["score", "--model", str(learned), "--data", str(data),
                        "-o", str(scores)], capsys)
    assert code == 0, err
    assert score_file(load_observable(learned), read_sequences(data), want) == 500
    assert scores.read_bytes() == want.read_bytes()


def test_no_noise_floor_keeps_the_joint_rank(tmp_path, capsys):
    # on 4000 x 100 symbols the floor 2/sqrt(count) keeps only the first direction
    model, data = tmp_path / "m.json", tmp_path / "d.txt"
    assert run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "1",
                "-o", str(model)], capsys)[0] == 0
    assert run(["gen-data", "--model", str(model), "-n", "4000", "-T", "100",
                "--seed", "1", "-o", str(data)], capsys)[0] == 0
    for flag, rank in (([], 1), (["--no-noise-floor"], 4)):
        learned, scores = tmp_path / "spec.bin", tmp_path / "scores.csv"
        code, _, err = run(["learn-spectral", *flag, "--data", str(data), "--nx", "2",
                            "--nd", "2", "-o", str(learned)], capsys)
        assert code == 0, err
        assert load_observable(learned).rank == rank
        code, out, err = run(["score", "--model", str(learned), "--data", str(data),
                              "-o", str(scores)], capsys)
        assert code == 0 and out.startswith("scored 4000 sequences"), err
        rows = scores.read_text().splitlines()[1:]
        assert len(rows) == 4000 and "nan" not in "".join(rows)


def test_validate_reports_a_nan_entry(tmp_path, capsys):
    # the A3 check's SVD of O raised LinAlgError before the report was printed
    model = tmp_path / "m.json"
    model.write_text('{"n_o": 2, "n_x": 1, "n_d": 1, "O": [[NaN], [1.0]], "X": [[1.0]], '
                     '"D": [[1.0]], "pi_x": [1.0]}')
    code, out, err = run(["validate", str(model)], capsys)
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("FAIL  stochastic[O]")
    assert lines[-1].startswith("FAIL  A3[rank O]") and "nan" in lines[-1]
    code, _, err = run(["gen-data", "--model", str(model), "-n", "3", "-T", "4",
                        "-o", str(tmp_path / "d.txt")], capsys)
    assert (code, err) == (2, "InvalidModel: cannot sample from a model that fails stochastic[O]\n")


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
    assert lines[0] == "n_x,n_d,ell,algorithm,seed,predicted,observed,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_rank_check_single_state_and_seed_column(tmp_path, capsys):
    # with one hidden state every table has rank one, as predicted
    out = tmp_path / "ranks.csv"
    argv = ["rank-check", "--nx", "1", "2", "--nd", "2", "3", "--seeds", "2"]
    code, msg, err = run(argv + ["-o", str(out)], capsys)
    assert code == 0, (msg, err)
    rows = out.read_text().strip().split("\n")[1:]
    assert all(row.endswith(",true") for row in rows)
    assert {row.split(",")[4] for row in rows} == {"0", "1"}
    assert any(row.startswith("1,") for row in rows)


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_rank_check_refuses_no_seeds(tmp_path, capsys, seeds):
    out = tmp_path / "ranks.csv"
    code, _, err = run(["rank-check", "--seeds", seeds, "-o", str(out)], capsys)
    assert code == 2 and f"InvalidModel: --seeds must be at least 1, got {seeds}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-model", "--no", "3", "--nx", "2", "--nd", "2"],
    ["gen-data", "--model", "{in}/m.json", "-n", "3", "-T", "4"],
    ["learn-em", "--data", "{in}/d.txt", "--no", "3", "--nx", "2", "--nd", "2"],
    ["rank-check", "--nx", "2", "--nd", "2", "--seeds", "1"],
    ["bench", "--sizes", "3,2,2", "--n-list", "200", "-T", "20", "--n-test", "5"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_refused_before_any_work(tmp_path, capsys, argv):
    # each command failed inside numpy with "expected non-negative integer",
    # naming no option; bench first printed a progress line
    given = tmp_path / "in"
    given.mkdir()
    save_model(random_model(3, 2, 2, seed=0), given / "m.json")
    (given / "d.txt").write_text("0 1 2 1\n2 1 0 0\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.replace("{in}", str(given)) for a in argv]
    code, msg, err = run(argv + ["--seed", "-1", "-o", str(out / "result")], capsys)
    assert (code, msg, err) == (2, "", "InvalidModel: --seed must be non-negative, got -1\n")
    assert list(out.iterdir()) == []


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
    # a zero override is refused, not replaced by the default; a bad config
    # is refused before any cell runs
    base = ["bench", "--sizes", "3,2,2", "--n-list", "200", "--no-em",
            "-o", str(tmp_path / "zero.csv")]
    for bad, field in ((["--rtol", "0"], "--rtol"), (["-T", "0"], "-T/--length"),
                       (["--n-test", "0"], "--n-test"), (["--seeds", "0"], "--seeds"),
                       (["--rtol", "nan"], "--rtol"), (["--n-list", "300", "0"], "--n-list"),
                       (["--sizes", "3,2,2;3,2"], "sizes"), (["--sizes", "3,2,0"], "sizes"),
                       (["--sizes", "3,2,2;2,3,2"], "sizes")):
        for no_em in (True, False):
            argv = base + bad if no_em else [a for a in base if a != "--no-em"] + bad
            code, _, err = run(argv, capsys)
            assert code == 2 and f"InvalidModel: {field} must" in err, (argv, err)
            assert "seed=" not in err, (argv, err)
            assert not (tmp_path / "zero.csv").exists()
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


def test_a_file_that_is_not_a_model_is_not_echoed(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text(" ".join(["0 1 2"] * 1000) + "\n" + "\n".join(GOOD) + "\n")
    noise = np.random.default_rng(6).integers(0, 256, size=3_000_000, dtype=np.uint8)
    no_newline = tmp_path / "noise.bin"
    no_newline.write_bytes(noise[noise != ord("\n")].tobytes())
    for model in (data, no_newline):
        code, _, err = run(["score", "--model", str(model), "--data", str(data),
                            "-o", str(tmp_path / "s.csv")], capsys)
        assert code == 2 and err.startswith("ContainerError: bad magic line: ")
        assert len(err.encode()) < 200, len(err.encode())


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
        (["--nx", "0", "--nd", "2"], "--nx must be at least 1, got 0"),
        (["--nx", "2", "--nd", "0"], "--nd must be at least 1, got 0"),
        (["--nx", "2", "--nd", "2", "--tol", "nan"], "--tol must be positive, got nan"),
    ):
        code, _, err = run(base + dims, capsys)
        assert code == 2, (dims, err)
        assert f"InvalidModel: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "em.json").exists()


@pytest.mark.parametrize("given,message", [
    (["-n", "-1", "-T", "5"], "-n/--count must be non-negative, got -1"),
    (["--count", "-3", "-T", "5"], "-n/--count must be non-negative, got -3"),
    (["-n", "4", "-T", "0"], "-T/--length must be at least 1, got 0"),
    (["-n", "4", "--length", "-2"], "-T/--length must be at least 1, got -2"),
], ids=["n", "count", "T", "length"])
def test_gen_data_names_the_refused_option(tmp_path, capsys, given, message):
    # refused before the model is read: the model file does not exist
    out = tmp_path / "d.txt"
    code, _, err = run(["gen-data", "--model", str(tmp_path / "missing.json"), *given,
                        "-o", str(out)], capsys)
    assert (code, err) == (2, f"InvalidModel: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("given,message", [
    (["--max-iter", "0"], "--max-iter must be at least 1, got 0"),
    (["--tol", "0"], "--tol must be positive, got 0.0"),
    (["--tol", "-0.001"], "--tol must be positive, got -0.001"),
    (["--restarts", "0"], "--restarts must be at least 1, got 0"),
], ids=["max-iter", "tol", "negative-tol", "restarts"])
def test_learn_em_names_the_refused_option(tmp_path, capsys, given, message):
    # refused before the data is read: the data file does not exist
    out = tmp_path / "em.json"
    code, _, err = run(["learn-em", "--data", str(tmp_path / "missing.txt"), "--no", "3",
                        "--nx", "2", "--nd", "2", *given, "-o", str(out)], capsys)
    assert (code, err) == (2, f"InvalidModel: {message}\n")
    assert not out.exists()


def test_gen_data_refuses_a_model_that_is_not_stochastic(tmp_path, capsys):
    # O's column [0.9, 0.9] was sampled as all zeros and [-0.5, 1.5] as all ones
    model = tmp_path / "m.json"
    out = tmp_path / "d.txt"
    for column, code_want in (([0.9, 0.9], 2), ([-0.5, 1.5], 2), ([0.5, 0.5], 0)):
        doc = {"n_o": 2, "n_x": 1, "n_d": 1, "O": [[column[0]], [column[1]]],
               "X": [[1.0]], "D": [[1.0]], "pi_x": [1.0]}
        model.write_text(json.dumps(doc))
        code, _, err = run(["gen-data", "--model", str(model), "-n", "3", "-T", "4",
                            "-o", str(out)], capsys)
        assert code == code_want, (column, err)
        if code_want:
            assert err == "InvalidModel: cannot sample from a model that fails stochastic[O]\n"
            assert not out.exists()
    assert len(read_sequences(out)) == 3
    # A1 (rank-one X) and A3 (n_x > n_o) fail, and sampling needs neither
    doc = {"n_o": 1, "n_x": 2, "n_d": 1, "O": [[1.0, 1.0]], "X": [[0.5, 0.5], [0.5, 0.5]],
           "D": [[1.0, 1.0]], "pi_x": [0.5, 0.5]}
    model.write_text(json.dumps(doc))
    assert run(["gen-data", "--model", str(model), "-n", "3", "-T", "4",
                "-o", str(out)], capsys)[0] == 0


def test_gen_data_bytes_are_pinned(tmp_path, capsys):
    # digests of the files the per-step sampler and the per-row writer made;
    # (1, 200) and (3, 50) take the few-row loop, (500, 100) the per-step one;
    # (2, 50000) takes the few-row loop over several emission passes at the
    # default _DRAW_ENTRIES, and the (8, 3, 9) model's (40, 100) the per-step one
    model = tmp_path / "m.json"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "--seed", "1", "-o", str(model)],
        capsys)
    big = tmp_path / "m8.json"
    run(["gen-model", "--no", "8", "--nx", "3", "--nd", "9", "--seed", "1", "-o", str(big)],
        capsys)
    pinned = {
        (1, 200): "7d439d0198fcf992208041a7eb72640389270de5c7528da2982e16aef1a3d135",
        (3, 50): "e0f9544d77924a0bd7e2f833c7fd55cbb8015972b653045a1687ee2ce78ff519",
        (500, 100): "0fcd3c39a5739314d60019dab96eb71bcdc589b8f1fa7e33ebcfcbc5ced23549",
        (2, 50000): "9d89a6890fe09cf59854c6214a0d1d561fed6b7cdece8002d488ab6fd71c10c9",
    }
    pinned_big = {
        (40, 100): "b97edf543c1619a57558a3a5792f80a1c0eb1b3d966d83a1b374e61d17a6de4e",
    }
    for model, table in ((model, pinned), (big, pinned_big)):
        for (count, length), digest in table.items():
            out = tmp_path / f"d{count}.txt"
            assert run(["gen-data", "--model", str(model), "-n", str(count), "-T", str(length),
                        "--seed", "2", "-o", str(out)], capsys)[0] == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (count, length)


def test_gen_data_beyond_memory_exits_two(tmp_path, capsys):
    # 10**12 x 100 int64 symbols is 728 TiB, beyond the address space, so
    # the allocation is refused at once and nothing is allocated
    model = tmp_path / "m.json"
    out = tmp_path / "d.txt"
    run(["gen-model", "--no", "3", "--nx", "2", "--nd", "2", "-o", str(model)], capsys)
    code, _, err = run(["gen-data", "--model", str(model), "-n", "1000000000000",
                        "-T", "100", "-o", str(out)], capsys)
    assert code == 2
    assert err == ("InvalidModel: 1000000000000 sequences of length 100 "
                   "do not fit in memory\n")
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


def test_learn_spectral_refuses_a_file_with_no_sequences(tmp_path, capsys):
    for extra in ([], ["--basic"]):
        code, _, err = _learn_bad_input(tmp_path, capsys, ["# only a comment", ""], extra)
        assert (code, err) == (2, "InvalidModel: no sequences in input\n"), extra
        assert not (tmp_path / "s.bin").exists()


ONE_OF = "provide exactly one of --sequence or --data"


@pytest.mark.parametrize("model,given,message", [
    ("s.bin", ["--sequence", "0 1 2 1 0 2", "--data", "DATA"], ONE_OF),
    ("s.bin", [], ONE_OF),
    # the arguments are checked before the model file is read
    ("missing.bin", ["--sequence", "0 1 2 1 0 2", "--data", "DATA"], ONE_OF),
    ("missing.bin", [], ONE_OF),
    ("s.bin", ["--data", "DATA", "--index", "30"], "--index 30 out of range"),
    ("s.bin", ["--data", "DATA", "--index", "-1"], "--index must be non-negative, got -1"),
], ids=["both", "neither", "both-missing-model", "neither-missing-model",
        "index-past-end", "negative-index"])
def test_infer_refuses_what_it_cannot_score(tmp_path, capsys, model, given, message):
    assert _learn_bad_input(tmp_path, capsys, GOOD, [])[0] == 0
    argv = [str(tmp_path / "bad.txt") if arg == "DATA" else arg for arg in given]
    code, out, err = run(["infer", "--model", str(tmp_path / model), *argv], capsys)
    assert (code, out, err) == (2, "", f"InvalidModel: {message}\n")


# each numeric option with its rule, as the refusal names it
NUMERIC_OPTIONS = [
    ("gen-model", "--no", "at least 1"),
    ("gen-model", "--nx", "at least 1"),
    ("gen-model", "--nd", "at least 1"),
    ("gen-model", "--seed", "non-negative"),
    ("gen-model", "--min-sigma", "non-negative"),
    ("gen-data", "-n/--count", "non-negative"),
    ("gen-data", "-T/--length", "at least 1"),
    ("gen-data", "--seed", "non-negative"),
    ("validate", "--rtol", "positive"),
    ("learn-spectral", "--nx", "at least 1"),
    ("learn-spectral", "--nd", "at least 1"),
    ("learn-spectral", "--no", "at least 1"),
    ("learn-spectral", "--rtol", "positive"),
    ("learn-em", "--no", "at least 1"),
    ("learn-em", "--nx", "at least 1"),
    ("learn-em", "--nd", "at least 1"),
    ("learn-em", "--max-iter", "at least 1"),
    ("learn-em", "--tol", "positive"),
    ("learn-em", "--restarts", "at least 1"),
    ("learn-em", "--seed", "non-negative"),
    ("infer", "--index", "non-negative"),
    ("rank-check", "--nx", "at least 1"),
    ("rank-check", "--nd", "at least 1"),
    ("rank-check", "--seeds", "at least 1"),
    ("rank-check", "--seed", "non-negative"),
    ("bench", "--n-list", "at least 1"),
    ("bench", "-T/--length", "at least 1"),
    ("bench", "--n-test", "at least 1"),
    ("bench", "--seeds", "at least 1"),
    ("bench", "--seed", "non-negative"),
    ("bench", "--rtol", "positive"),
]
FLOAT_OPTIONS = ("--min-sigma", "--rtol", "--tol")
# options that take a list, each of whose values keeps the rule
LIST_OPTIONS = {("rank-check", "--nx"), ("rank-check", "--nd"), ("bench", "--n-list")}
# what each command needs besides the refused option; no file named exists
NEEDS = {
    "gen-model": ["--no", "3", "--nx", "2", "--nd", "2"],
    "gen-data": ["--model", "MISSING", "-n", "3", "-T", "4"],
    "validate": ["MISSING"],
    "learn-spectral": ["--data", "MISSING", "--nx", "2", "--nd", "2"],
    "learn-em": ["--data", "MISSING", "--no", "3", "--nx", "2", "--nd", "2"],
    "infer": ["--model", "MISSING", "--data", "MISSING"],
    "rank-check": [],
    "bench": ["--sizes", "3,2,2", "--n-list", "200", "-T", "20", "--n-test", "5"],
}
# values that break each rule, for int and float options
BELOW = {
    ("at least 1", int): ["0"],
    ("non-negative", int): ["-1"],
    ("non-negative", float): ["-0.5", "nan"],
    ("positive", float): ["0", "nan"],
}


def _refusals():
    for command, name, rule in NUMERIC_OPTIONS:
        cast = float if name in FLOAT_OPTIONS else int
        for given in BELOW[rule, cast]:
            yield pytest.param(command, name, given,
                               f"{name} must be {rule}, got {cast(given)}",
                               id=f"{command} {name} {given}")


@pytest.mark.parametrize("command,name,given,message", _refusals())
def test_every_numeric_option_is_refused_by_name_before_any_file_is_opened(
        tmp_path, capsys, command, name, given, message):
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, *[str(tmp_path / "missing") if a == "MISSING" else a
                       for a in NEEDS[command]]]
    # a list's good first value does not hide its bad second one
    values = ["2", given] if (command, name) in LIST_OPTIONS else [given]
    argv += [name.split("/")[0], *values]
    if command not in ("validate", "infer"):
        argv += ["-o", str(out / "result")]
    code, msg, err = run(argv, capsys)
    assert (code, msg, err) == (2, "", f"InvalidModel: {message}\n")
    assert list(out.iterdir()) == []


def test_no_numeric_option_skips_its_rule():
    # a bare int or float type would accept any number, and leave the refusal
    # to the library's parameter names, after the files are read
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    numeric = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            assert action.type not in (int, float), (command, action.option_strings)
            if getattr(action.type, "__name__", None) in ("int", "float"):
                numeric.add((command, "/".join(action.option_strings)))
    assert numeric == {(command, name) for command, name, _ in NUMERIC_OPTIONS}


@pytest.mark.parametrize("sizes", ["a,b,c", "3,,2", "3,2,2;x", ""])
def test_bench_names_sizes_that_are_not_integers(tmp_path, capsys, sizes):
    # int() refused them with "invalid literal for int() with base 10", naming
    # no option
    out = tmp_path / "r.csv"
    code, msg, err = run(["bench", "--sizes", sizes, "-o", str(out)], capsys)
    assert (code, msg) == (2, "")
    assert err == ("InvalidModel: --sizes must be ';'-separated comma lists of "
                   f"integers, got {sizes!r}\n")
    assert list(tmp_path.iterdir()) == []
