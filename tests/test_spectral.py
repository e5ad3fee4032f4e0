import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from hsmm_spectral.hsmm import (
    HsmmParams,
    SequenceFile,
    forward_likelihood,
    random_model,
    sample_many,
    write_sequences,
)
from hsmm_spectral.em import EmConfig, em_fit
from hsmm_spectral.moments import (
    MomentSet,
    analytic_moments,
    build_schedule,
    count_cooccurrences,
    estimate_moments,
)
from hsmm_spectral import spectral
from hsmm_spectral.cli import main
from hsmm_spectral.spectral import (
    DegenerateMoments,
    SequenceTooShort,
    UnknownSymbol,
    build_observable,
    build_observable_per_t,
    infer,
    infer_batch,
    infer_per_t,
    load_observable,
    save_observable,
    score_file,
    SpectralError,
)
from hsmm_spectral.container import ContainerError, read_container, write_container
from hsmm_spectral.tensors import (
    InvalidTolerance,
    NamedTensor,
    numerical_rank,
    spectrum_rank,
)
from oracles import (
    build_observable_per_t_reference,
    build_observable_reference,
    chain_reference,
    score_csv_reference,
    x_tilde,
)

RTOL = 1e-12


def transfer(model):
    """A model's window-space transfer, ``k x k``, from its stored coefficients."""
    return model.basis @ model.d_tilde.data


def analytic_model(p, T_extra=8, rtol=RTOL):
    sched = build_schedule(p.n_x, p.n_d)
    m, ctx = analytic_moments(p, sched, 2 * p.n_d + T_extra)
    return build_observable(m, rtol), m, ctx


def relative_chain_error(p, model, rng, trials=20):
    worst = 0.0
    for _ in range(trials):
        T = int(rng.integers(3, 11))
        obs = rng.integers(0, p.n_o, size=T)
        res = infer(model, obs)
        ref, _ = forward_likelihood(p, obs)
        worst = max(worst, abs(res.sign * math.exp(res.log_value - ref) - 1.0))
    return worst


def test_population_consistency_small_model():
    p = random_model(3, 2, 2, seed=0)
    model, _, _ = analytic_model(p)
    assert relative_chain_error(p, model, np.random.default_rng(0)) < 1e-9


def test_population_consistency_degenerate_chain():
    p = HsmmParams(
        O=np.array([[1.0]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    model, _, _ = analytic_model(p)
    res = infer(model, [0, 0, 0, 0, 0])
    assert res.sign == 1
    assert abs(res.log_value) < 1e-12  # probability exactly 1


def test_population_consistency_single_state_two_symbols():
    p = HsmmParams(
        O=np.array([[0.25], [0.75]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    model, _, _ = analytic_model(p)
    obs = [0, 1, 1, 0, 1]
    res = infer(model, obs)
    expect = 0.25 * 0.75 * 0.75 * 0.25 * 0.75
    assert np.isclose(res.value, expect, rtol=1e-10)


def test_population_consistency_single_state_fallback_schedule():
    # n_x = 1 uses the consecutive-window fallback; durations still matter
    p = random_model(2, 1, 3, seed=21)
    model, _, _ = analytic_model(p)
    assert relative_chain_error(p, model, np.random.default_rng(21)) < 1e-9


def test_o_tilde_is_projector_onto_pair_column_space():
    p = random_model(3, 2, 2, seed=1)
    model, m, _ = analytic_model(p)
    proj = model.o_tilde
    # idempotent, symmetric, rank n_x, and fixes the pair table
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    assert np.allclose(proj, proj.T, atol=1e-10)
    assert numerical_rank(proj, 1e-8) == p.n_x
    assert np.allclose(proj.T @ m.m_oo, m.m_oo, atol=1e-12)


def test_o_tilde_identity_when_square_full_rank():
    p = random_model(2, 2, 2, seed=3)  # n_o == n_x: pair table invertible
    model, _, _ = analytic_model(p)
    assert np.allclose(model.o_tilde, np.eye(2), atol=1e-8)


def test_zero_moments_raise_degenerate():
    sched = build_schedule(2, 2)
    k = 2**sched.ell
    zero = MomentSet(
        m_lr=np.zeros((k, k)),
        m_lr_shift=np.zeros((k, k)),
        m_lro=np.zeros((k, k, 2)),
        m_oo=np.zeros((2, 2)),
        m_start=np.zeros((2, 2, k)),
        schedule=sched,
        window_count=1,
        pair_count=1,
        start_count=1,
    )
    with pytest.raises(DegenerateMoments):
        build_observable(zero, 1e-10)


def test_per_anchor_error_names_tensor_and_anchor():
    p = random_model(3, 2, 2, seed=6)
    sched = build_schedule(2, 2)
    obs = list(sample_many(p, 300, 12, np.random.default_rng(6)))
    with pytest.raises(DegenerateMoments) as err:
        build_observable_per_t(obs, 3, sched, 0.9)
    assert err.value.tensor == "m_lr"
    assert err.value.anchor == sched.anchor_range(12)[0]
    assert f"m_lr at anchor {err.value.anchor}: rank" in str(err.value)


def test_identical_sequences_degenerate_per_anchor():
    sched = build_schedule(2, 2)
    seqs = [np.array([0, 1, 0, 1, 0, 1, 0, 1])] * 50
    with pytest.raises(DegenerateMoments) as err:
        build_observable_per_t(seqs, 2, sched, 1e-8)
    assert err.value.anchor is not None


@pytest.mark.parametrize("seqs,detail", [
    ([], "no sequences"),
    ([[0, 1, 2, 0, 1, 2, 0, 1], [0, 1, 2, 0, 1, 2, 0]],
     "per-anchor estimation needs equal-length sequences"),
    ([[0, 1, 2, 0, 1]] * 4, "length 5 hosts no anchor (need 6)"),
], ids=["none", "unequal", "short"])
def test_per_anchor_build_refuses_sequences_it_cannot_count(seqs, detail):
    with pytest.raises(DegenerateMoments) as exc:
        build_observable_per_t(seqs, 3, build_schedule(2, 2), RTOL)
    assert str(exc.value) == f"degenerate moment tensor m_lr: {detail}"


def test_per_anchor_analytic_tensors_are_anchor_invariant():
    p = random_model(3, 2, 2, seed=4)
    sched = build_schedule(2, 2)
    T = 2 * sched.n_d + 8
    anchors = list(sched.anchor_range(T))
    models = []
    for a in anchors:
        m, _ = analytic_moments(p, sched, T, anchors=[a])
        models.append(build_observable(m, RTOL))
    for other in models[1:]:
        assert np.allclose(transfer(models[0]), transfer(other), atol=1e-10)
        assert np.allclose(x_tilde(models[0]), x_tilde(other), atol=1e-10)
        assert np.allclose(models[0].o_tilde, other.o_tilde, atol=1e-10)


def test_batched_beats_per_anchor_on_sampled_data():
    p = random_model(3, 2, 2, seed=5)
    sched = build_schedule(2, 2)
    T = 20
    truth, _ = analytic_moments(p, sched, T)
    ref = build_observable(truth, RTOL)
    obs = sample_many(p, 500, T, np.random.default_rng(5))
    batched = build_observable(estimate_moments(list(obs), 3, sched), 1e-6)
    per_t = build_observable_per_t(list(obs), 3, sched, 1e-6)

    def dist(m):
        return (
            np.linalg.norm(transfer(m) - transfer(ref))
            + np.linalg.norm(x_tilde(m) - x_tilde(ref))
            + np.linalg.norm(m.o_tilde - ref.o_tilde)
        )

    per_t_dist = float(np.mean([dist(m) for m in per_t]))
    assert dist(batched) < per_t_dist


def test_per_anchor_inference_close_to_truth_on_analytic_moments():
    import dataclasses

    p = random_model(3, 2, 2, seed=6)
    sched = build_schedule(2, 2)
    T = 2 * sched.n_d + 6
    models = []
    for a in sched.anchor_range(T):
        m, _ = analytic_moments(p, sched, T, anchors=[a])
        built = build_observable(m, RTOL)
        models.append(dataclasses.replace(built, anchor=a))
    rng = np.random.default_rng(6)
    for _ in range(10):
        L = int(rng.integers(3, 9))
        obs = rng.integers(0, 3, size=L)
        res = infer_per_t(models, obs)
        ref, _ = forward_likelihood(p, obs)
        assert abs(res.sign * math.exp(res.log_value - ref) - 1.0) < 1e-8


def test_chain_direction_is_irrelevant():
    # the estimate is one long tensor contraction; accumulating it from the
    # right end gives the same scalar as the left-to-right message pass
    p = random_model(3, 2, 2, seed=20)
    model, _, _ = analytic_model(p)
    d_mat = transfer(model)
    x_cube = x_tilde(model)
    o_mat = model.o_tilde
    rng = np.random.default_rng(20)
    for _ in range(8):
        obs = rng.integers(0, 3, size=int(rng.integers(3, 9)))
        w = x_cube.sum(axis=1) @ o_mat[:, obs[-1]]
        w = d_mat @ w
        for t in range(len(obs) - 2, 1, -1):
            w = d_mat @ ((x_cube @ o_mat[:, obs[t]]) @ w)
        scalar = float(model.start_factor[obs[0], obs[1], :] @ w)
        res = infer(model, obs)
        assert np.isclose(scalar, res.value, rtol=1e-12)


def test_infer_batch_matches_scalar_path():
    p = random_model(3, 2, 2, seed=8)
    sched = build_schedule(2, 2)
    obs = sample_many(p, 300, 12, np.random.default_rng(8))
    pooled = build_observable(estimate_moments(list(obs), 3, sched), 1e-6)
    per_anchor = build_observable_per_t(list(obs), 3, sched, 1e-6)
    tests = sample_many(p, 12, 9, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    ragged = [rng.integers(0, 3, size=int(n)) for n in rng.integers(3, 30, size=9)]
    # either form of model, equal-length rows or a ragged stream, and no rows
    for model in (pooled, per_anchor, per_anchor[3:4]):
        for rows in (tests, SequenceFile.of(ragged)):
            batch = infer_batch(model, rows)
            for res, row in zip(batch, rows, strict=True):
                single = infer(model, row)
                assert np.isclose(res.log_value, single.log_value, rtol=1e-12, atol=0)
                assert res.sign == single.sign
        assert infer_batch(model, np.zeros((0, 7), dtype=np.int64)) == []
        assert infer_batch(model, SequenceFile.of([])) == []


def test_infer_guards():
    p = random_model(3, 2, 2, seed=9)
    model, _, _ = analytic_model(p)
    with pytest.raises(SequenceTooShort):
        infer(model, [0, 1])
    with pytest.raises(UnknownSymbol):
        infer(model, [0, 1, 3])
    with pytest.raises(UnknownSymbol, match="symbol -1 outside"):
        infer(model, [0, 1, -1, 2, 0, 1])
    with pytest.raises(UnknownSymbol, match="symbol 5 outside"):
        infer_batch(model, np.array([[0, 1, 2], [0, 5, 1]]))


def score_rows(path):
    """The data rows of a score CSV, each as its list of fields."""
    return [line.split(",") for line in path.read_bytes().decode().split("\r\n")[1:-1]]


def test_every_entry_point_refuses_a_bad_row_alike(tmp_path):
    p = random_model(3, 2, 2, seed=9)
    pooled, _, _ = analytic_model(p)
    obs = list(sample_many(p, 300, 12, np.random.default_rng(9)))
    per_anchor = build_observable_per_t(obs, 3, build_schedule(2, 2), 1e-6)
    bad_rows = [
        (SequenceTooShort, "need at least 3 symbols, got 2", [0, 1]),
        (SequenceTooShort, "need at least 3 symbols, got 0", []),
        # too short wins over an unknown symbol
        (SequenceTooShort, "need at least 3 symbols, got 2", [0, 7]),
        (UnknownSymbol, "symbol -1 outside alphabet of size 3", [0, 1, -1, 2, -4]),
        (UnknownSymbol, "symbol 3 outside alphabet of size 3", [0, 1, 2, 3, 1]),
    ]
    good = [2, 1, 0, 0, 1]
    for model in (pooled, per_anchor):
        for cls, message, row in bad_rows:
            row = np.array(row, dtype=np.int64)
            calls = [lambda: infer(model, row), lambda: infer_per_t(model, row),
                     lambda: infer_batch(model, SequenceFile.of([good, row, row]))]
            if row.size:  # 2-D arrays, which a fast check passes when every row is valid
                calls.append(lambda: infer_batch(model, np.stack([good[:row.size], row])))
                calls.append(lambda: infer_batch(model, row[None]))
            for call in calls:
                with pytest.raises(SpectralError) as err:
                    call()
                assert (type(err.value), str(err.value)) == (cls, message)
            sink, out = io.StringIO(), tmp_path / "scores.csv"
            score_file(model, [good, row, good, row], out, error_sink=sink)
            assert [r[1] == "nan" for r in score_rows(out)] == [False, True, False, True]
            assert sink.getvalue().splitlines() == [
                f"line {i}: {cls.__name__}: {message}" for i in (2, 4)
            ]


def test_kept_rank_is_the_joint_rank_on_population_moments():
    p = random_model(3, 2, 2, seed=10)
    sched = build_schedule(2, 2)
    for T in (12, 24, 48):
        m, _ = analytic_moments(p, sched, T)
        model = build_observable(m, RTOL)
        assert model.rank == sched.joint_rank
        assert np.allclose(model.basis.T @ model.basis, np.eye(model.rank), atol=1e-12)
    obs = list(sample_many(p, 300, 20, np.random.default_rng(10)))
    pooled = build_observable(estimate_moments(obs, 3, sched), 1e-6, noise_floor=True)
    per_t = build_observable_per_t(obs, 3, sched, 1e-6, noise_floor=True)
    for model in [pooled, *per_t]:
        assert 1 <= model.rank <= sched.joint_rank


def test_score_file_rows_and_errors(tmp_path):
    p = random_model(3, 2, 2, seed=11)
    model, _, _ = analytic_model(p)
    seqs = [np.array([0, 1, 2, 1]), np.array([0, 1]), np.array([2, 2, 0, 1, 1])]
    out = tmp_path / "scores.csv"
    sink = io.StringIO()
    n = score_file(model, seqs, out, error_sink=sink)
    assert n == 3
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "id,log_value,sign,clamped,norm_loglik"
    assert len(lines) == 4
    assert "nan" in lines[2]
    assert "SequenceTooShort" in sink.getvalue()
    # well-formed rows carry the normalized log likelihood
    first = lines[1].split(",")
    assert np.isclose(float(first[4]), float(first[1]) / 4, rtol=1e-12)


def test_score_empty_input(tmp_path):
    p = random_model(3, 2, 2, seed=12)
    model, _, _ = analytic_model(p)
    out = tmp_path / "scores.csv"
    n = score_file(model, [], out)
    assert n == 0
    assert out.read_text().strip() == "id,log_value,sign,clamped,norm_loglik"


def test_failed_score_file_leaves_previous_output(tmp_path):
    out = tmp_path / "scores.csv"
    out.write_bytes(b"previous scores\n")
    with pytest.raises(DegenerateMoments, match="empty per-anchor model list"):
        score_file([], [np.array([0, 1, 2, 1])], out)
    assert out.read_bytes() == b"previous scores\n"


def test_score_csv_bytes_match_the_reference_writer(tmp_path, chain_models):
    sampled, per_anchor = chain_models["sampled"], chain_models["per-anchor"]
    # symbol 1 zeroes every operator and closing vector it enters
    o_tilde = sampled.o_tilde.copy()
    o_tilde[:, 1] = 0.0
    dead = dataclasses.replace(sampled, o_tilde=o_tilde)
    rng = np.random.default_rng(50)
    seqs = [rng.integers(0, 3, size=int(n)) for n in rng.integers(3, 40, size=60)]
    seqs[3:9] = [np.array([0, 1]), np.array([], dtype=np.int64), np.array([0, 3, 1, 2]),
                 np.array([2, 0, -1]), np.array([0, 2, 1, 2, 0]), np.array([2, 0, 2, 1])]
    out = tmp_path / "scores.csv"
    for model in (sampled, per_anchor, dead):
        for form in (seqs, []):
            sink, ref_sink = io.StringIO(), io.StringIO()
            ref_rows, ref_text = score_csv_reference(model, form, ref_sink)
            assert score_file(model, form, out, error_sink=sink) == len(form)
            assert out.read_bytes() == ref_text.encode()
            assert sink.getvalue() == ref_sink.getvalue()
            assert score_rows(out) == [[str(field) for field in row] for row in ref_rows]
    # the rows cover unknown symbols, short rows, negative estimates and dead rows
    assert ref_text == "id,log_value,sign,clamped,norm_loglik\r\n"
    _, text = score_csv_reference(dead, seqs, io.StringIO())
    rows = [line.split(",") for line in text.split("\r\n")[1:-1]]
    assert [rows[i][1:] for i in range(3, 7)] == [["nan", "0", "true", "nan"]] * 4
    assert rows[7][1:] == rows[8][1:] == ["-inf", "0", "true", "-inf"]
    _, text = score_csv_reference(sampled, seqs, io.StringIO())
    assert any(line.split(",")[2:4] == ["-1", "true"] for line in text.split("\r\n")[1:-1])


def test_operators_come_from_one_stacked_layout(tmp_path, chain_models):
    # anchor 3 of the per-anchor list keeps two directions, so the file pads its ranks
    pooled, per_anchor = chain_models["analytic"], chain_models["unequal-ranks"]
    path = tmp_path / "model.bin"
    for model in (pooled, per_anchor):
        save_observable(path, model)
        stack = spectral._read_stack(path)
        from_file = spectral._operators(stack)
        for ops in (spectral._prepared(load_observable(path))[0],
                    spectral._prepared(model)[0]):
            for got, want in zip(ops, from_file):
                assert np.array_equal(got, want)
        # entries past an anchor's rank read as zero, whatever the file holds
        kind, meta, tensors = read_container(path)
        assert np.array_equal(tensors["y_x"], stack.y_x)
        for name in ("y_x", "basis"):
            assert not getattr(stack, name).flags.writeable
    tensors["y_x"][3, 2:] = 7.0
    tensors["basis"][3, :, 2:] = 7.0
    write_container(path, kind, meta, list(tensors.items()))
    stack = spectral._read_stack(path)
    assert not stack.y_x[3, 2:].any() and not stack.basis[3, :, 2:].any()
    for got, want in zip(spectral._operators(stack), from_file):
        assert np.array_equal(got, want)
    # one model's stack is views of its tables, never copies
    stack = spectral._stack(pooled)
    assert np.shares_memory(stack.y_d, pooled.d_tilde.data)
    for name in ("y_x", "o_tilde", "basis"):
        assert np.shares_memory(getattr(stack, name), getattr(pooled, name))


def test_observable_roundtrip_bit_exact(tmp_path):
    p = random_model(3, 2, 2, seed=13)
    model, _, _ = analytic_model(p)
    path = tmp_path / "model.bin"
    save_observable(path, model)
    back = load_observable(path)
    assert np.array_equal(back.d_tilde.data, model.d_tilde.data)
    for field in ("y_x", "o_tilde", "start_factor", "basis"):
        assert np.array_equal(getattr(back, field), getattr(model, field))
    assert back.pinv_rtol == model.pinv_rtol
    # the rank-r form: no k x k x n_o tensor is stored
    k = model.basis.shape[0]
    _, _, stored = read_container(path)
    assert sorted(stored) == ["basis", "o_tilde", "start_factor", "y_d", "y_x"]
    assert all(arr.size != k * k * 3 for arr in stored.values())
    assert stored["y_d"].shape == (1, model.rank, k)


def test_moment_and_model_tables_are_read_only(tmp_path, monkeypatch):
    p = random_model(3, 2, 2, seed=15)
    sched = build_schedule(2, 2)
    obs = sample_many(p, 300, 12, np.random.default_rng(15))
    seen = []
    build = spectral._build

    def capture(tables, *args, **kwargs):
        seen.append(tables)
        return build(tables, *args, **kwargs)

    monkeypatch.setattr(spectral, "_build", capture)
    per_anchor = build_observable_per_t(obs, 3, sched, 1e-6)
    monkeypatch.undo()
    analytic, _ = analytic_moments(p, sched, 12)
    pooled = estimate_moments(obs, 3, sched)
    fields = ("m_lr", "m_lr_shift", "m_lro", "m_oo", "m_start")
    # the per-anchor tables are one stack per table, divided once, built at once
    [stacked] = seen
    assert len(per_anchor) > 1 and all(t.shape[0] == len(per_anchor) for t in stacked[:4])
    for tables in [[getattr(m, f) for f in fields] for m in (pooled, analytic)] + [stacked]:
        for field, table in zip(fields, tables):
            assert type(table) is np.ndarray and table.dtype == np.float64, field
            assert not table.flags.writeable, field

    models = [build_observable(pooled, 1e-6), *per_anchor]
    save_observable(tmp_path / "pooled.bin", models[0])
    save_observable(tmp_path / "per_t.bin", per_anchor)
    models += [load_observable(tmp_path / "pooled.bin"), *load_observable(tmp_path / "per_t.bin")]
    for model in models:
        assert not model.d_tilde.data.flags.writeable
        for field in ("y_x", "o_tilde", "start_factor", "basis"):
            arr = getattr(model, field)
            assert type(arr) is np.ndarray and not arr.flags.writeable, field
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0


def test_container_payloads_roundtrip_and_reject_bad_lengths(tmp_path, capsys):
    rng = np.random.default_rng(0)
    tensors = [("scalar", np.array(2.5)), ("empty", np.zeros((0, 3))),
               ("cube", rng.standard_normal((2, 3, 4)))]
    path = tmp_path / "t.bin"
    write_container(path, "test", {"note": 1}, tensors)
    kind, meta, back = read_container(path)
    assert (kind, meta) == ("test", {"note": 1})
    for name, arr in tensors:
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)
        assert back[name].flags.writeable and back[name].flags.c_contiguous
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(ContainerError, match="truncated payload for tensor cube"):
        read_container(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(ContainerError, match="trailing bytes"):
        read_container(path)
    # malformed headers and directories, refused before any payload is read
    data = tmp_path / "d.txt"
    data.write_text("0 1 2 1 0\n")
    for header, match in (
        ([1, 2], "header is a JSON list, need an object"),
        ("model", "header is a JSON str, need an object"),
        ({"tensors": {"name": "x"}}, "header field 'tensors' is not a list"),
        ({"tensors": [{"shape": [2]}]}, r"entry \{'shape': \[2\]\} has no name"),
        ({"tensors": [[2]]}, r"entry \[2\] has no name"),
        ({"tensors": [{"name": 7, "shape": [2]}]}, "has no name"),
        *[({"tensors": [{"name": "x", "shape": bad}]},
           rf"tensor 'x' has shape {re.escape(repr(bad))}, need a list of non-negative")
          for bad in ("3", None, [-1], [2.0], [True], [[2]])],
        # a shape the file cannot hold is refused before it is allocated
        ({"tensors": [{"name": "x", "shape": [2**40, 2**40]}]},
         "truncated payload for tensor x"),
    ):
        path.write_bytes(b"HSPECBIN 1 observable-model\n"
                         + json.dumps(header).encode() + b"\n" + bytes(16))
        with pytest.raises(ContainerError, match=match):
            read_container(path)
        code = main(["score", "--model", str(path), "--data", str(data),
                     "-o", str(tmp_path / "s.csv")])
        assert code == 2 and capsys.readouterr().err.startswith("ContainerError:")


@pytest.mark.parametrize("head,message", [
    (b"HSPECBIN 2 observable-model\n{}\n", "unsupported version 2"),
    (b"HSPECBIN 1 observable-model\n{not json\n", "bad header: Expecting property name"),
    (b"HSPECBIN 1 observable-model\n\xff\n", "bad header: 'ascii' codec can't decode byte 0xff"),
], ids=["version", "not-json", "not-ascii"])
def test_container_refuses_another_version_and_a_bad_header(tmp_path, head, message):
    path = tmp_path / "t.bin"
    path.write_bytes(head)
    with pytest.raises(ContainerError) as exc:
        read_container(path)
    assert str(exc.value).startswith(message), str(exc.value)


@pytest.mark.parametrize("kind,variant,message", [
    ("moment-set", "batched", "not an observable-model file (kind=moment-set)"),
    ("observable-model", "pooled", "unknown model variant 'pooled'"),
], ids=["kind", "variant"])
def test_read_stack_refuses_another_kind_and_an_unknown_variant(tmp_path, kind, variant, message):
    model, _, _ = analytic_model(random_model(3, 2, 2, seed=39))
    path = tmp_path / "model.bin"
    save_observable(path, model)
    _, meta, tensors = read_container(path)
    write_container(path, kind, {**meta, "variant": variant}, list(tensors.items()))
    with pytest.raises(SpectralError) as exc:
        spectral._read_stack(path)
    assert str(exc.value) == message


def test_per_t_roundtrip(tmp_path):
    p = random_model(3, 2, 2, seed=14)
    sched = build_schedule(2, 2)
    obs = sample_many(p, 200, 14, np.random.default_rng(14))
    models = build_observable_per_t(list(obs), 3, sched, 1e-6)
    path = tmp_path / "per_t.bin"
    save_observable(path, models)
    back = load_observable(path)
    assert isinstance(back, list)
    assert [m.anchor for m in back] == [m.anchor for m in models]
    assert np.array_equal(back[0].d_tilde.data, models[0].d_tilde.data)
    assert all(np.array_equal(b.y_x, m.y_x) for b, m in zip(back, models))
    k = models[0].basis.shape[0]
    _, _, stored = read_container(path)
    assert all(arr.size != k * k * 3 for arr in stored.values())
    # one stack per tensor, and the shared start table once
    assert sorted(stored) == ["basis", "o_tilde", "start_factor", "y_d", "y_x"]
    assert stored["start_factor"].shape == models[0].start_factor.shape
    assert stored["y_d"].shape == (len(models), max(m.rank for m in models), k)
    # sequences beyond the trained anchor range clamp to the nearest anchor
    long_obs = sample_many(p, 1, 30, np.random.default_rng(15))[0]
    res = infer_per_t(back, long_obs)
    assert np.isfinite(res.log_value) or res.sign == 0


# ---------------------------------------------------------------------------
# the batched rank-r kernel against the k-space chain it replaces


def kspace_chain(obs, at_d, at_x, start):
    """The chain in window space: ``at_d(t)`` / ``at_x(t)`` give the transfer
    matrix and the per-symbol operator (k x k) used at position ``t``."""
    v = start[obs[0], obs[1], :]
    log_scale = 0.0
    for t in range(2, len(obs) - 1):
        v = (v @ at_d(t - 1)) @ at_x(t, obs[t])
        norm = np.abs(v).sum()
        v = v / norm
        log_scale += math.log(norm)
    T = len(obs)
    scalar = float((v @ at_d(T - 2)) @ at_x(T - 1, obs[-1], close=True))
    return math.log(abs(scalar)) + log_scale, 1 if scalar > 0 else -1


def pooled_kspace(model, obs):
    def at_x(t, sym, close=False):
        o = model.o_tilde[:, sym]
        x_cube = x_tilde(model)
        return x_cube.sum(axis=1) @ o if close else x_cube @ o

    return kspace_chain(
        obs, lambda t: transfer(model), at_x, model.start_factor
    )


def per_anchor_kspace(models, obs):
    anchors = [m.anchor for m in models]

    def at(t):
        return models[int(np.argmin([abs(a - t) for a in anchors]))]

    def at_x(t, sym, close=False):
        m = at(t)
        o = m.o_tilde[:, sym]
        x_cube = x_tilde(m)
        return x_cube.sum(axis=1) @ o if close else x_cube @ o

    return kspace_chain(
        obs, lambda t: transfer(at(t)), at_x, models[0].start_factor
    )


def sampled_model(seed, noise_floor=False):
    p = random_model(3, 2, 2, seed=seed)
    sched = build_schedule(2, 2)
    obs = list(sample_many(p, 400, 30, np.random.default_rng(seed)))
    m = estimate_moments(obs, 3, sched)
    return p, build_observable(m, 1e-6, noise_floor=noise_floor)


def test_ragged_batch_matches_single_and_kspace_chains():
    from hsmm_spectral.spectral import _chain

    rng = np.random.default_rng(30)
    models = [analytic_model(random_model(3, 2, 2, seed=30))[0],
              sampled_model(31)[1], sampled_model(32, noise_floor=True)[1]]
    for model in models:
        seqs = [rng.integers(0, 3, size=int(n)) for n in rng.integers(3, 41, size=25)]
        log, sign = _chain(model.operators, SequenceFile.of(seqs))
        for i, obs in enumerate(seqs):
            single = infer(model, obs)
            ref_log, ref_sign = pooled_kspace(model, obs)
            assert sign[i] == single.sign == ref_sign
            assert np.isclose(log[i], single.log_value, rtol=1e-12, atol=0)
            assert np.isclose(log[i], ref_log, rtol=1e-12, atol=0)


def test_per_anchor_kernel_matches_kspace_chain_beyond_anchor_range():
    p = random_model(3, 2, 2, seed=33)
    sched = build_schedule(2, 2)
    obs = list(sample_many(p, 400, 14, np.random.default_rng(33)))
    models = build_observable_per_t(obs, 3, sched, 1e-6)
    assert max(m.anchor for m in models) == 10  # longer sequences run past it
    # one table per anchor plus one, whatever the anchors' values
    far = [dataclasses.replace(m, anchor=m.anchor + 10**12) for m in models]
    ops = spectral._operators(spectral._stack(far))
    assert ops.step.shape[0] == ops.end.shape[0] == len(models) + 1
    assert ops.first == models[0].anchor + 10**12
    before = [0, 1, 2, 2, 1, 0, 1, 2, 0]  # every position falls before the first anchor
    res = infer_per_t(far, before)
    ref_log, ref_sign = per_anchor_kspace(far, before)
    assert res.sign == ref_sign
    assert np.isclose(res.log_value, ref_log, rtol=1e-12, atol=0)
    with pytest.raises(SpectralError, match="consecutive anchors"):
        infer_per_t(models[::2], [0, 1, 2, 1])
    rng = np.random.default_rng(34)
    for T in (3, 4, 7, 13, 14, 20, 35):
        seq = rng.integers(0, 3, size=T)
        res = infer_per_t(models, seq)
        ref_log, ref_sign = per_anchor_kspace(models, seq)
        assert res.sign == ref_sign
        assert np.isclose(res.log_value, ref_log, rtol=1e-12, atol=0)


def test_per_anchor_kernel_pads_unequal_ranks():
    p = random_model(3, 2, 2, seed=35)
    sched = build_schedule(2, 2)
    obs = list(sample_many(p, 300, 12, np.random.default_rng(35)))
    models = build_observable_per_t(obs, 3, sched, 1e-6)
    # keep two directions of one anchor's model, so the ranks differ
    m = models[1]
    v = m.basis[:, :2]
    models[1] = dataclasses.replace(
        m, basis=v, y_x=m.y_x[:2],
        d_tilde=NamedTensor(v.T @ transfer(m), m.d_tilde.labels),
    )
    assert sorted({mm.rank for mm in models}) == [2, sched.joint_rank]
    rng = np.random.default_rng(36)
    for T in (3, 5, 9, 16):
        seq = rng.integers(0, 3, size=T)
        res = infer_per_t(models, seq)
        ref_log, ref_sign = per_anchor_kspace(models, seq)
        assert res.sign == ref_sign
        assert np.isclose(res.log_value, ref_log, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the chain's blocks against the per-step loop they replace


CHAIN_MODELS = ["analytic", "sampled", "noise-floor", "per-anchor", "past-the-row",
                "unequal-ranks"]


@pytest.fixture(scope="module")
def chain_models():
    """Pooled models and per-anchor lists the block tests chain."""
    p = random_model(3, 2, 2, seed=33)
    sched = build_schedule(2, 2)
    obs = list(sample_many(p, 400, 14, np.random.default_rng(33)))
    per_anchor = build_observable_per_t(obs, 3, sched, 1e-6)
    # one anchor kept at two directions, so the ranks differ
    m = per_anchor[3]
    v = m.basis[:, :2]
    unequal = list(per_anchor)
    unequal[3] = dataclasses.replace(
        m, basis=v, y_x=m.y_x[:2],
        d_tilde=NamedTensor(v.T @ transfer(m), m.d_tilde.labels),
    )
    return {
        "analytic": analytic_model(random_model(3, 2, 2, seed=30))[0],
        "sampled": sampled_model(31)[1],
        "noise-floor": sampled_model(32, noise_floor=True)[1],
        "per-anchor": per_anchor,
        "past-the-row": [dataclasses.replace(m, anchor=m.anchor + 10**12) for m in per_anchor],
        "unequal-ranks": unequal,
    }


def chain_batches(seed):
    """Ragged rows (lengths 3 and 4, none a power of two past 4), equal rows, single rows.

    Then 1, 2 and 3 equal rows at lengths whose ``T - 3`` interior positions
    sit on each side of a power of two, so the tree runs at every block width.
    """
    rng = np.random.default_rng(seed)
    lengths = [35, 3, 4, 14, 5, 33, 9, 20, 4, 17, 6, 13, 3]
    return [
        [rng.integers(0, 3, size=n) for n in lengths],
        rng.integers(0, 3, size=(6, 21)),
        rng.integers(0, 3, size=(1, 4)),
        rng.integers(0, 3, size=(1, 3)),
        rng.integers(0, 3, size=(1, 100)),
        *[rng.integers(0, 3, size=(n, T))
          for T in (4, 5, 6, 7, 11, 12, 67, 68, 131) for n in (1, 2, 3)],
    ]


def kspace(model, obs):
    return (pooled_kspace if isinstance(model, spectral.ObservableModel)
            else per_anchor_kspace)(model, obs)


@pytest.mark.parametrize("name", CHAIN_MODELS)
def test_chain_at_width_one_is_the_per_step_loop(chain_models, name, monkeypatch):
    monkeypatch.setattr(spectral, "_TREE_WORK", 0)
    ops, _ = spectral._prepared(chain_models[name])
    for seqs in chain_batches(40):
        log, sign = spectral._chain(ops, SequenceFile.of(seqs))
        ref_log, ref_sign = chain_reference(ops, seqs)
        assert np.array_equal(log, ref_log) and np.array_equal(sign, ref_sign)


@pytest.mark.parametrize("name", CHAIN_MODELS)
@pytest.mark.parametrize("blocks", ["whole rows", "tail after the loop", "capped blocks"])
def test_chain_tree_matches_the_loop_and_kspace(chain_models, name, blocks, monkeypatch):
    model = chain_models[name]
    ops, _ = spectral._prepared(model)
    r = ops.step.shape[-1]
    if blocks == "tail after the loop":  # the loop until three rows are left
        monkeypatch.setattr(spectral, "_TREE_WORK", 3 * (r * r + 4))
    else:
        monkeypatch.setattr(spectral, "_TREE_WORK", 10**9)
    if blocks == "capped blocks":  # two positions per block for the ragged rows
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 2 * 13 * r * r)
    for seqs in chain_batches(41):
        log, sign = spectral._chain(ops, SequenceFile.of(seqs))
        ref_log, ref_sign = chain_reference(ops, seqs)
        assert np.array_equal(sign, ref_sign)
        assert np.allclose(log, ref_log, rtol=1e-12, atol=0)
        for i, obs in enumerate(seqs):
            k_log, k_sign = kspace(model, obs)
            assert sign[i] == k_sign
            assert np.isclose(log[i], k_log, rtol=1e-12, atol=0)


def test_chain_tree_keeps_scale_and_dead_rows_without_warnings(monkeypatch):
    model = sampled_model(31)[1]
    ops = model.operators
    zero = ops._replace(step=ops.step.copy())
    zero.step[:, 1] = 0.0  # symbol 1 inside a row zeroes its product
    rng = np.random.default_rng(42)
    long = rng.integers(0, 3, size=20_000)
    seqs = [np.where(long == 1, 2, long), [0, 2, 1, 2, 0, 2, 2], [1, 1, 0, 2, 0, 1]]
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for work in (0, 10**9):
            monkeypatch.setattr(spectral, "_TREE_WORK", work)
            results[work] = (spectral._chain(ops, SequenceFile.of([long])),
                             spectral._chain(zero, SequenceFile.of(seqs)))
    (loop_long, loop_zero), (tree_long, tree_zero) = results[0], results[10**9]
    # exp(log) is far below the smallest float64
    assert tree_long[0][0] < math.log(np.finfo(float).smallest_subnormal) * 10
    assert np.isfinite(tree_long[0][0]) and tree_long[1][0] == loop_long[1][0] == 1
    assert np.isclose(tree_long[0][0], loop_long[0][0], rtol=1e-12, atol=0)
    for log, sign in (loop_zero, tree_zero):
        assert log[1] == -np.inf and sign[1] == 0
        assert np.isfinite(log[[0, 2]]).all() and (sign[[0, 2]] != 0).all()
    assert np.allclose(tree_zero[0], loop_zero[0], rtol=1e-12, atol=0)
    assert np.array_equal(tree_zero[1], loop_zero[1])


def test_replaced_transfer_changes_the_result():
    p = random_model(3, 2, 2, seed=37)
    model, _, _ = analytic_model(p)
    obs = [0, 1, 2, 2, 1, 0, 1]
    before = infer(model, obs)
    d = model.d_tilde
    scaled = dataclasses.replace(model, d_tilde=NamedTensor(d.data * 2.0, d.labels))
    after = infer(scaled, obs)
    # one transfer per interior symbol plus one at the close
    assert np.isclose(after.log_value - before.log_value, (len(obs) - 2) * math.log(2.0),
                      rtol=1e-12)
    assert infer(model, obs).log_value == before.log_value


def test_score_file_keeps_row_order_with_interleaved_errors(tmp_path):
    p = random_model(3, 2, 2, seed=38)
    model, _, _ = analytic_model(p)
    rng = np.random.default_rng(38)
    seqs = []
    for i in range(30):
        if i % 7 == 3:
            seqs.append(np.array([0, 2]))
        elif i % 7 == 5:
            seqs.append(np.array([0, 1, 2, -1, 1]))
        else:
            seqs.append(rng.integers(0, 3, size=int(rng.integers(3, 25))))
    out = tmp_path / "scores.csv"
    written = set()
    for form in (seqs, SequenceFile.of(seqs)):
        sink = io.StringIO()
        assert score_file(model, form, out, error_sink=sink) == 30
        written.add(out.read_text())
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        for i, (row, obs) in enumerate(zip(rows, seqs)):
            assert int(row[0]) == i
            if i % 7 in (3, 5):
                assert row[1] == "nan"
            else:
                res = infer(model, obs)
                assert int(row[2]) == res.sign
                assert np.isclose(float(row[1]), res.log_value, rtol=1e-12, atol=0)
        errors = sink.getvalue().splitlines()
        assert errors[0].startswith("line 4: SequenceTooShort")
        assert errors[1].startswith("line 6: UnknownSymbol") and "symbol -1" in errors[1]
    assert len(written) == 1


def test_model_file_without_variant_or_tensor_is_rejected(tmp_path, capsys):
    model, _, _ = analytic_model(random_model(3, 2, 2, seed=39))
    path = tmp_path / "model.bin"
    save_observable(path, model)
    kind, meta, tensors = read_container(path)
    no_variant = {k: v for k, v in meta.items() if k != "variant"}
    write_container(path, kind, no_variant, list(tensors.items()))
    with pytest.raises(SpectralError, match="variant"):
        load_observable(path)
    # a file from before the basis was stored
    old = [(k, v) for k, v in tensors.items() if k != "basis"]
    write_container(path, kind, meta, old)
    with pytest.raises(SpectralError, match="basis"):
        load_observable(path)
    # a file holding the k-space x_tilde and its marginal instead of y_x
    x_cube = x_tilde(model)
    k_space = [(k, v) for k, v in tensors.items() if k != "y_x"]
    k_space += [("x_tilde", x_cube), ("end_factor", x_cube.sum(axis=1))]
    write_container(path, kind, meta, k_space)
    with pytest.raises(SpectralError, match="model file has no tensor 'y_x'"):
        load_observable(path)
    # files from before the anchor axis: a pooled one with unstacked tensors,
    # and a per-anchor one with an `a<anchor>.` prefix on every tensor
    flat = [(name, arr if name == "start_factor" else arr[0]) for name, arr in tensors.items()]
    old_meta = {key: v for key, v in meta.items() if key not in ("ranks", "first_anchor")}
    prefixed = [(f"a{a}.{name}", arr) for a in (2, 3) for name, arr in flat]
    data = tmp_path / "d.txt"
    data.write_text("0 1 2 1 0\n")
    for old in (
        (old_meta, flat),
        ({**old_meta, "variant": "per_t", "anchors": [2, 3]}, prefixed),
    ):
        write_container(path, kind, *old)
        with pytest.raises(SpectralError, match="model file has no field 'ranks'"):
            load_observable(path)
        code = main(["score", "--model", str(path), "--data", str(data),
                     "-o", str(tmp_path / "s.csv")])
        assert code == 2 and "'ranks'" in capsys.readouterr().err


def test_old_layout_file_is_refused_for_its_missing_y_d(tmp_path, capsys):
    # at (2,2,2) a population build keeps r = k = 4, so an old (A, k, k)
    # d_tilde has the shape a (A, r, k) y_d would have: only its name tells
    p = random_model(2, 2, 2, seed=3)
    model, _, _ = analytic_model(p)
    assert model.basis.shape == (4, 4)
    path = tmp_path / "old.bin"
    save_observable(path, model)
    kind, meta, tensors = read_container(path)
    y_d = tensors.pop("y_d")
    old = [("d_tilde", tensors["basis"] @ y_d), *tensors.items()]
    assert old[0][1].shape == y_d.shape == (1, 4, 4)
    write_container(path, kind, meta, old)
    with pytest.raises(SpectralError, match="model file has no tensor 'y_d'"):
        load_observable(path)
    data = tmp_path / "d.txt"
    data.write_text("0 1 1 0 1\n")
    for argv in (["score", "--data", str(data), "-o", str(tmp_path / "s.csv")],
                 ["infer", "--sequence", "0 1 1 0 1"]):
        assert main(argv + ["--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("SpectralError:") and "'y_d'" in err


def test_stored_tables_have_at_most_one_window_axis(tmp_path, capsys):
    """No stored table of a pooled k=512 or a per-anchor model is k x k."""
    for dims, n, T, extra in (((8, 3, 9), 1000, 100, []), ((3, 2, 2), 300, 12, ["--basic"])):
        n_o, n_x, n_d = dims
        data, path = tmp_path / "d.txt", tmp_path / "m.bin"
        obs = sample_many(random_model(n_o, n_x, n_d, seed=1), n, T, np.random.default_rng(71))
        write_sequences(obs, data)
        assert main(["learn-spectral", "--data", str(data), "--no", str(n_o), "--nx",
                     str(n_x), "--nd", str(n_d), "-o", str(path), *extra]) == 0
        capsys.readouterr()
        k = n_o ** build_schedule(n_x, n_d).ell
        _, meta, stored = read_container(path)
        assert (meta["variant"] == "per_t") == bool(extra)
        assert len(meta["ranks"]) != k  # so an anchor axis is not mistaken for a window axis
        assert sorted(stored) == ["basis", "o_tilde", "start_factor", "y_d", "y_x"]
        for name, arr in stored.items():
            assert arr.shape.count(k) <= 1, (name, arr.shape)


def _entry_points(tmp_path):
    """Each library entry that reads symbols, as a call on a list of sequences."""
    model = analytic_model(random_model(3, 2, 2, seed=70))[0]
    sched = build_schedule(2, 2)
    return {
        "infer": lambda seqs: [infer(model, s) for s in seqs],
        "infer_batch": lambda seqs: infer_batch(model, seqs),
        "score_file": lambda seqs: score_file(model, seqs, tmp_path / "s.csv", io.StringIO()),
        "count_cooccurrences": lambda seqs: count_cooccurrences(seqs, 3, sched),
        "estimate_moments": lambda seqs: estimate_moments(seqs, 3, sched),
        "build_observable_per_t": lambda seqs: build_observable_per_t(seqs, 3, sched, 1e-6),
        "em_fit": lambda seqs: em_fit(seqs, 3, 2, 2, EmConfig(max_iter=2, restarts=1)),
    }


@pytest.mark.parametrize("entry", ["infer", "infer_batch", "score_file",
                                   "count_cooccurrences", "estimate_moments",
                                   "build_observable_per_t", "em_fit"])
def test_symbols_that_are_not_integers_are_refused(tmp_path, entry):
    call = _entry_points(tmp_path)[entry]
    good = sample_many(random_model(3, 2, 2, seed=72), 300, 12, np.random.default_rng(72))
    call(good.astype(float))  # integral floats are symbols
    # `infer` sees one sequence per call; the others see the second of many
    row = 0 if entry == "infer" else 1
    for bad in (1.5, -0.5, math.nan, math.inf, -math.inf, 2.0**70):
        seqs = good.tolist()
        seqs[1][5] = bad
        with pytest.raises(ValueError, match=rf"^sequence {row}: symbol \S+ is not an integer"):
            call(seqs)
        array = good.astype(float)
        array[1, 5] = bad
        with pytest.raises(ValueError, match=rf"^sequence {row}: symbol \S+ is not an integer"):
            call(array if entry != "infer" else list(array))
    # a flat sequence where a list of sequences belongs, or a 2-D one where one sequence belongs
    flat = [good.tolist()] if entry == "infer" else good[0].tolist()
    with pytest.raises(ValueError, match=r"^sequence 0 has shape \(\d*,? ?\d*\), need one axis"):
        call(flat)


def test_model_file_with_bad_basis_is_rejected(tmp_path, capsys):
    model, _, _ = analytic_model(random_model(3, 2, 2, seed=40))
    path = tmp_path / "model.bin"
    save_observable(path, model)
    kind, meta, tensors = read_container(path)
    k, r = model.basis.shape
    nan = tensors["basis"].copy()
    nan[0, 0, 0] = np.nan
    need = rf"need \(1, {k}, {r}\)"
    bad = {
        "non-finite": nan,
        rf"shape \({k},\), {need}": np.ones(k),
        rf"shape \(1, {k + 1}, {r}\), {need}": np.ones((1, k + 1, r)),
        rf"shape \(1, {k}, 0\), {need}": np.ones((1, k, 0)),
        rf"shape \(1, {k}, {k + 1}\), {need}": np.ones((1, k, k + 1)),
    }
    data = tmp_path / "d.txt"
    data.write_text("0 1 2 1 0\n")
    for match, basis in bad.items():
        write_container(path, kind, meta, list({**tensors, "basis": basis}.items()))
        with pytest.raises(SpectralError, match=f"tensor 'basis'.*{match}"):
            load_observable(path)
        code = main(["score", "--model", str(path), "--data", str(data),
                     "-o", str(tmp_path / "s.csv")])
        assert code == 2 and "basis" in capsys.readouterr().err


@pytest.mark.parametrize("per_anchor", [False, True])
def test_model_file_with_inconsistent_tensors_is_rejected(tmp_path, capsys, per_anchor):
    p = random_model(3, 2, 2, seed=6)
    if per_anchor:
        obs = list(sample_many(p, 300, 12, np.random.default_rng(6)))
        model = build_observable_per_t(obs, 3, build_schedule(2, 2), 1e-6)
    else:
        model, _, _ = analytic_model(p)
    path = tmp_path / "model.bin"
    save_observable(path, model)
    kind, meta, tensors = read_container(path)
    y_x = tensors["y_x"]
    a, r = y_x.shape[:2]
    y_nan = y_x.copy()
    y_nan[0, 0, 0, 0] = np.nan
    cases = [
        # the fields say 4 symbols over 3-symbol tensors
        ({**meta, "n_o": 4}, {}, "tensor 'y_d'",
         rf"shape \({a}, {r}, 9\), need \({a}, {r}, 16\)"),
        (meta, {"y_x": y_nan}, "tensor 'y_x'", "non-finite entries"),
        # one row more than the largest rank
        (meta, {"y_x": np.concatenate([y_x, y_x[:, :1]], axis=1)}, "tensor 'y_x'",
         rf"shape \({a}, {r + 1}, 9, 3\), need \({a}, {r}, 9, 3\)"),
        (meta, {"start_factor": tensors["start_factor"][..., :5]},
         "tensor 'start_factor'", r"shape \(3, 3, 5\), need \(3, 3, 9\)"),
        # anchors count from 1; each rank is an integer in [1, k]
        *[({**meta, "first_anchor": bad}, {}, "field 'first_anchor'",
           rf"{re.escape(repr(bad))}, need an integer in \[1, ")
          for bad in (0, -7, 1.5, "5", True, None)],
        *[({**meta, "ranks": [bad] * a}, {}, "field 'ranks'",
           rf"{re.escape(repr(bad))}, need an integer in \[1, 9\]")
          for bad in (0, 10, "2", 2.0)],
        ({**meta, "ranks": []}, {}, "field 'ranks'", r"\[\], need one rank per anchor"),
        # n_o and ell are integers, rtol a positive finite number
        *[({**meta, field: bad}, {}, f"field '{field}'",
           rf"{re.escape(repr(bad))}, need an integer in \[1, ")
          for field in ("n_o", "ell") for bad in (None, [3], 3.7, "3", True, 0)],
        *[({**meta, "rtol": bad}, {}, "field 'rtol'",
           rf"{re.escape(repr(bad))}, need a positive finite number")
          for bad in (None, 0, -1e-6, "1e-06", math.inf, math.nan, True, 10**400)],
        # a pooled model has one rank
        ({**meta, "variant": "batched", "ranks": [r, r]}, {}, "field 'ranks'",
         rf"\[{r}, {r}\], need one rank per anchor \(one if batched\)"),
    ]
    data = tmp_path / "d.txt"
    data.write_text("0 1 2 3 1 0\n")
    for case_meta, replaced, name, match in cases:
        write_container(path, kind, case_meta, list({**tensors, **replaced}.items()))
        with pytest.raises(SpectralError, match=f"{name} has {match}"):
            load_observable(path)
        for argv in (["score", "--data", str(data), "-o", str(tmp_path / "s.csv")],
                     ["infer", "--sequence", "0 1 2 3 1 0"]):
            assert main(argv + ["--model", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("SpectralError:") and name in err
    # refused before n_o**ell is computed
    write_container(path, kind, {**meta, "ell": 10**9}, list(tensors.items()))
    with pytest.raises(SpectralError, match="fields n_o=3, ell=1000000000 are out of range"):
        load_observable(path)


def test_stacked_solve_is_each_anchors_truncated_pseudo_inverse():
    # two 9 x 7 matrices with known, different spectra
    rng = np.random.default_rng(41)
    a = []
    for spectrum in ([1.0, 0.3, 1e-2, 1e-4, 1e-10, 1e-14], [2.0, 1.5, 1e-9, 1e-11, 1e-15, 0.0]):
        q1, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        a.append((q1[:, :6] * spectrum) @ q2[:, :6].T)
    a = np.stack(a)
    rhs = rng.standard_normal((2, 9, 5))
    svd = np.linalg.svd(a, full_matrices=False)
    for rtol, max_rank, ranks, rcond in (
        (1e-8, 6, [4, 2], 1e-8),
        (1e-3, 6, [3, 2], 1e-3),
        (1e-8, 2, [2, 2], 0.1),  # the cap keeps what rcond 0.1 keeps
    ):
        keep = np.minimum(spectrum_rank(svd[1], rtol), max_rank)
        assert keep.tolist() == ranks
        v, (y,) = spectral._solve(svd, [rhs], keep)
        assert v.shape == (2, 7, max(ranks)) and y.shape == (2, max(ranks), 5)
        for i, rank in enumerate(ranks):
            # zeros past the anchor's rank
            assert not v[i, :, rank:].any() and not y[i, rank:].any()
            vi, got = v[i, :, :rank], v[i] @ y[i]
            assert np.allclose(vi.T @ vi, np.eye(rank), rtol=0, atol=1e-14)
            assert np.allclose(vi @ (vi.T @ got), got, rtol=0, atol=1e-10)
            want = np.linalg.pinv(a[i], rcond=rcond) @ rhs[i]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_build_rejects_nonpositive_tolerance():
    p = random_model(3, 2, 2, seed=43)
    sched = build_schedule(2, 2)
    m, _ = analytic_moments(p, sched, 2 * p.n_d + 8)
    obs = list(sample_many(p, 50, 12, np.random.default_rng(43)))
    for rtol in (0.0, -1e-8):
        with pytest.raises(InvalidTolerance):
            build_observable(m, rtol=rtol)
        with pytest.raises(InvalidTolerance):
            build_observable_per_t(obs, 3, sched, rtol)


def test_build_decomposes_each_moment_matrix_once(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    p = random_model(3, 2, 2, seed=44)
    sched = build_schedule(2, 2)
    k = 3**sched.ell
    m, _ = analytic_moments(p, sched, 2 * p.n_d + 8)
    obs = list(sample_many(p, 400, 12, np.random.default_rng(44)))
    sampled = estimate_moments(obs, 3, sched)
    calls.clear()
    build_observable(m, 1e-12)
    build_observable(sampled, 1e-6, noise_floor=True)
    assert sorted(calls) == [(1, 3, 3), (1, 3, 3), (1, k, k), (1, k, k)]
    # one call per stacked table, whatever the number of anchors
    calls.clear()
    models = build_observable_per_t(obs, 3, sched, 1e-6, noise_floor=True)
    assert len(models) > 1 and sorted(calls) == [(len(models), 3, 3), (len(models), k, k)]


# ---------------------------------------------------------------------------
# the stacked build against the per-matrix build and per-anchor loop it replaces


def build_outcome(build):
    """A build's model or model list, or its refusal as (type, tensor, anchor, message)."""
    try:
        return build()
    except DegenerateMoments as exc:
        return type(exc), exc.tensor, exc.anchor, str(exc)


def assert_same_build(got, want):
    """Equal refusals, or models of equal ranks whose tables agree to 1e-12 relative."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) == isinstance(want, list)
    got, want = spectral._models(got), spectral._models(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.rank, g.anchor, g.pinv_rtol, g.n_o, g.ell) == (
            w.rank, w.anchor, w.pinv_rtol, w.n_o, w.ell)
        for name in ("d_tilde", "y_x", "o_tilde", "start_factor", "basis"):
            a, b = getattr(g, name), getattr(w, name)
            if name == "d_tilde":
                a, b = transfer(g), transfer(w)
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def moments_of(p, n, T, seed):
    sched = build_schedule(p.n_x, p.n_d)
    obs = sample_many(p, n, T, np.random.default_rng(seed))
    return estimate_moments(obs, p.n_o, sched), obs


@pytest.mark.parametrize("noise_floor", [False, True])
def test_pooled_build_matches_the_per_matrix_build(noise_floor):
    models = []
    for p, n, T, seed in ((random_model(3, 2, 2, seed=60), 4000, 40, 60),
                          (random_model(8, 3, 9, seed=1), 1000, 100, 61)):
        m, _ = moments_of(p, n, T, seed)
        got = build_outcome(lambda: build_observable(m, 1e-6, noise_floor=noise_floor))
        assert_same_build(got, build_outcome(
            lambda: build_observable_reference(m, 1e-6, noise_floor)))
        models.append(got)
    # the floor keeps fewer directions than the schedule needs
    assert [m.rank for m in models] == ([2, 1] if noise_floor else [4, 27])


def test_population_build_matches_the_per_matrix_build():
    sched = build_schedule(4, 6)
    kept = []
    for seed in range(4):
        m, _ = analytic_moments(random_model(5, 4, 6, seed=seed), sched, 20)
        got = build_outcome(lambda: build_observable(m, 1e-12))
        assert_same_build(got, build_outcome(lambda: build_observable_reference(m, 1e-12)))
        kept.append(got.rank if isinstance(got, spectral.ObservableModel) else got[3])
    # two full-rank builds at r = 24, and two refused for a short rank
    assert kept[:2] == [24, 24] and all("< 24 at rtol 1e-12" in k for k in kept[2:])


@pytest.mark.parametrize("noise_floor", [False, True])
def test_per_anchor_build_matches_the_loop_of_pooled_builds(noise_floor):
    p = random_model(3, 2, 2, seed=62)
    obs = sample_many(p, 2000, 16, np.random.default_rng(62))
    sched = build_schedule(2, 2)
    got = build_observable_per_t(obs, 3, sched, 1e-6, noise_floor)
    assert_same_build(got, build_observable_per_t_reference(obs, 3, sched, 1e-6, noise_floor))
    assert len(got) == 11


def owned_bytes(a):
    """Bytes of the array that finally owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a.nbytes


def test_a_basis_owns_only_its_kept_directions(monkeypatch):
    # a view of vt would keep all A * k * k floats of m_lr's decomposition
    stacks = []
    unstack = spectral._unstack
    monkeypatch.setattr(spectral, "_unstack", lambda s: stacks.append(s) or unstack(s))
    m, _ = moments_of(random_model(8, 3, 9, seed=1), 1000, 100, 61)
    pooled = build_observable(m, 1e-6, noise_floor=True)
    p = random_model(3, 2, 2, seed=62)
    obs = sample_many(p, 2000, 16, np.random.default_rng(62))
    per_anchor = build_observable_per_t(obs, 3, build_schedule(2, 2), 1e-6)
    assert pooled.basis.shape == (512, 1) and len(per_anchor) == 11
    for stack, models in zip(stacks, ([pooled], per_anchor)):
        a, k, r = stack.basis.shape
        assert owned_bytes(stack.basis) <= 8 * a * k * r
        for model in models:
            assert owned_bytes(model.basis) <= 8 * a * k * r


def test_per_anchor_build_pads_unequal_ranks_like_the_loop():
    # the noise floor keeps 1 or 2 directions of m_lr (seed 1) or of m_oo (seed 2)
    sched = build_schedule(2, 2)
    for seed, field in ((1, "basis"), (2, "o_tilde")):
        p = random_model(4, 2, 2, seed=seed)
        obs = sample_many(p, 10_000, 14, np.random.default_rng(seed))
        got = build_observable_per_t(obs, 4, sched, 1e-6, noise_floor=True)
        assert_same_build(got, build_observable_per_t_reference(obs, 4, sched, 1e-6, True))
        assert len({numerical_rank(getattr(m, field), 1e-8) for m in got}) == 2
    # a stack forced to unequal ranks: population tables of two models, under a
    # noise floor that keeps every direction of one and one direction of the other
    full, short = (analytic_moments(random_model(3, 2, 2, seed=seed), sched, 20)[0]
                   for seed in (66, 61))
    sets = [full, short, full]
    fields = ("m_lr", "m_lr_shift", "m_lro", "m_oo")
    tables = [np.stack([getattr(m, f) for m in sets]) for f in fields] + [full.m_start]
    counts = 10**8, 10**8
    stack = spectral._build(tables, 3, sched, 1e-12, True, counts, first=4)
    want = [
        dataclasses.replace(
            build_observable_reference(
                dataclasses.replace(m, m_start=full.m_start, window_count=counts[0],
                                    pair_count=counts[1]), 1e-12, True),
            anchor=4 + i)
        for i, m in enumerate(sets)
    ]
    assert_same_build(spectral._unstack(stack), want)
    assert stack.ranks == [4, 1, 4] and stack.basis.shape == (3, 9, 4)


def test_refusals_match_the_per_matrix_build_and_loop():
    p = random_model(3, 2, 2, seed=64)
    sched = build_schedule(2, 2)
    m, _ = moments_of(p, 400, 20, 64)
    zero = dataclasses.replace(m, **{f: np.zeros_like(getattr(m, f))
                                     for f in ("m_lr", "m_lr_shift", "m_lro", "m_oo")})
    pooled_cases = [
        (zero, False),  # rank 0 below the joint rank
        (dataclasses.replace(m, m_oo=np.zeros((3, 3))), False),  # a zero pair table
        (dataclasses.replace(m, window_count=1), True),  # every m_lr direction under the floor
        (dataclasses.replace(m, pair_count=1), True),  # every m_oo direction under the floor
    ]
    messages = []
    for moments, floor in pooled_cases:
        got = build_outcome(lambda: build_observable(moments, 1e-6, noise_floor=floor))
        assert_same_build(got, build_outcome(
            lambda: build_observable_reference(moments, 1e-6, floor)))
        messages.append(got[1:])
    assert messages == [
        ("m_lr", None, "degenerate moment tensor m_lr: rank 0 < 4 at rtol 1e-06"),
        ("m_oo", None, "degenerate moment tensor m_oo: zero matrix has no usable pseudo-inverse"),
        ("m_lr", None, "degenerate moment tensor m_lr: all singular values truncated"),
        ("m_oo", None, "degenerate moment tensor m_oo: all singular values truncated"),
    ]
    per_anchor_cases = [
        # rank shortfall at the first anchor
        (random_model(3, 2, 2, seed=6), 300, 12, 6, 0.9, False),
        # every direction truncated after the floor, first at anchor 6
        (random_model(5, 4, 6, seed=35), 2000, 30, 35, 1e-6, True),
        # identical sequences: rank 1 at every anchor
        (None, 50, 8, None, 1e-8, False),
    ]
    anchors = []
    for p, n, T, seed, rtol, floor in per_anchor_cases:
        if p is None:
            obs, n_o, sched = [np.array([0, 1] * (T // 2))] * n, 2, build_schedule(2, 2)
        else:
            obs = sample_many(p, n, T, np.random.default_rng(seed))
            n_o, sched = p.n_o, build_schedule(p.n_x, p.n_d)
        got = build_outcome(lambda: build_observable_per_t(obs, n_o, sched, rtol, floor))
        assert_same_build(got, build_outcome(
            lambda: build_observable_per_t_reference(obs, n_o, sched, rtol, floor)))
        anchors.append(got[2])
    assert anchors == [2, 6, 2]
