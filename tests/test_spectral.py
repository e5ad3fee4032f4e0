import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from hsmm_spectral.hsmm import (
    HsmmParams,
    SequenceFile,
    forward_likelihood,
    random_model,
    sample_many,
)
from hsmm_spectral.moments import (
    MomentSet,
    analytic_moments,
    build_schedule,
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
    RankZero,
    numerical_rank,
)

RTOL = 1e-12


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
        n_o=2,
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
        assert np.allclose(models[0].d_tilde.data, other.d_tilde.data, atol=1e-10)
        assert np.allclose(models[0].x_tilde, other.x_tilde, atol=1e-10)
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
            np.linalg.norm(m.d_tilde.data - ref.d_tilde.data)
            + np.linalg.norm(m.x_tilde - ref.x_tilde)
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
    d_mat = model.d_tilde.data
    x_cube = model.x_tilde
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


def test_every_entry_point_refuses_a_bad_row_alike():
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
            if row.size:
                calls.append(lambda: infer_batch(model, np.stack([good[:row.size], row])))
            for call in calls:
                with pytest.raises(SpectralError) as err:
                    call()
                assert (type(err.value), str(err.value)) == (cls, message)
            sink = io.StringIO()
            rows = list(spectral.score_sequences(model, [good, row, good, row], sink))
            assert [r[1] == "nan" for r in rows] == [False, True, False, True]
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
    assert sorted(stored) == ["basis", "d_tilde", "o_tilde", "start_factor", "y_x"]
    assert all(arr.size != k * k * 3 for arr in stored.values())


def test_moment_and_model_tables_are_read_only(tmp_path, monkeypatch):
    p = random_model(3, 2, 2, seed=15)
    sched = build_schedule(2, 2)
    obs = sample_many(p, 300, 12, np.random.default_rng(15))
    seen = []
    build = spectral.build_observable

    def capture(m, rtol, noise_floor=False):
        seen.append(m)
        return build(m, rtol, noise_floor)

    monkeypatch.setattr(spectral, "build_observable", capture)
    per_anchor = build_observable_per_t(obs, 3, sched, 1e-6)
    monkeypatch.undo()
    analytic, _ = analytic_moments(p, sched, 12)
    pooled = estimate_moments(obs, 3, sched)
    for m in [pooled, analytic, *seen]:
        for field in ("m_lr", "m_lr_shift", "m_lro", "m_oo", "m_start"):
            table = getattr(m, field)
            assert type(table) is np.ndarray and table.dtype == np.float64, field
            assert not table.flags.writeable, field
    # the per-anchor tables are views of one stack per table, divided once
    assert len(seen) == len(per_anchor) > 1
    for field in ("m_lr", "m_lr_shift", "m_lro", "m_oo"):
        stack = getattr(seen[0], field).base
        assert stack is not None and all(getattr(m, field).base is stack for m in seen)
    assert all(m.m_start is seen[0].m_start for m in seen)

    models = [build_observable(pooled, 1e-6), *per_anchor]
    save_observable(tmp_path / "pooled.bin", models[0])
    save_observable(tmp_path / "per_t.bin", per_anchor)
    models += [load_observable(tmp_path / "pooled.bin"), *load_observable(tmp_path / "per_t.bin")]
    for model in models:
        assert not model.d_tilde.data.flags.writeable
        for field in ("y_x", "o_tilde", "start_factor", "basis", "x_tilde"):
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
    assert sorted(stored) == ["basis", "d_tilde", "o_tilde", "start_factor", "y_x"]
    assert stored["start_factor"].shape == models[0].start_factor.shape
    assert stored["d_tilde"].shape == (len(models), k, k)
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
        x_cube = model.x_tilde
        return x_cube.sum(axis=1) @ o if close else x_cube @ o

    return kspace_chain(
        obs, lambda t: model.d_tilde.data, at_x, model.start_factor
    )


def per_anchor_kspace(models, obs):
    anchors = [m.anchor for m in models]

    def at(t):
        return models[int(np.argmin([abs(a - t) for a in anchors]))]

    def at_x(t, sym, close=False):
        m = at(t)
        o = m.o_tilde[:, sym]
        x_cube = m.x_tilde
        return x_cube.sum(axis=1) @ o if close else x_cube @ o

    return kspace_chain(
        obs, lambda t: at(t).d_tilde.data, at_x, models[0].start_factor
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
        log, sign = _chain(model.operators, seqs)
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
    ops = spectral._operators(far)
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
        d_tilde=NamedTensor(v @ (v.T @ m.d_tilde.data), m.d_tilde.labels),
    )
    assert sorted({mm.rank for mm in models}) == [2, sched.joint_rank]
    rng = np.random.default_rng(36)
    for T in (3, 5, 9, 16):
        seq = rng.integers(0, 3, size=T)
        res = infer_per_t(models, seq)
        ref_log, ref_sign = per_anchor_kspace(models, seq)
        assert res.sign == ref_sign
        assert np.isclose(res.log_value, ref_log, rtol=1e-12, atol=0)


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
    x_cube = model.x_tilde
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
        ({**meta, "n_o": 4}, {}, "tensor 'd_tilde'",
         rf"shape \({a}, 9, 9\), need \({a}, 16, 16\)"),
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


def test_pinv_product_is_the_truncated_pseudo_inverse():
    # a 9 x 7 matrix with a known spectrum
    rng = np.random.default_rng(41)
    q1, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    spectrum = np.array([1.0, 0.3, 1e-2, 1e-4, 1e-10, 1e-14])
    a = (q1[:, :6] * spectrum) @ q2[:, :6].T
    rhs = rng.standard_normal((9, 5))
    svd = np.linalg.svd(a, full_matrices=False)
    for rtol, max_rank, rank, rcond in (
        (1e-8, None, 4, 1e-8),
        (1e-3, None, 3, 1e-3),
        (1e-8, 2, 2, 0.1),  # the cap keeps what rcond 0.1 keeps
    ):
        v, (y,) = spectral._pinv_product(svd, [rhs], rtol, max_rank=max_rank)
        got = v @ y
        assert v.shape == (7, rank)
        assert np.allclose(v.T @ v, np.eye(rank), rtol=0, atol=1e-14)
        assert np.allclose(v @ (v.T @ got), got, rtol=0, atol=1e-10)
        want = np.linalg.pinv(a, rcond=rcond) @ rhs
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    with pytest.raises(RankZero):
        spectral._pinv_product(np.linalg.svd(np.zeros((4, 3))), [rhs[:4]], 1e-8)


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
    assert sorted(calls) == [(3, 3), (3, 3), (k, k), (k, k)]
    calls.clear()
    models = build_observable_per_t(obs, 3, sched, 1e-6, noise_floor=True)
    assert calls.count((k, k)) == calls.count((3, 3)) == len(models)
