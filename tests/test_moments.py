import tracemalloc

import numpy as np
import pytest

from hsmm_spectral import moments
from hsmm_spectral.hsmm import (
    HsmmParams,
    random_model,
    read_sequences,
    sample_many,
    write_sequences,
)
from hsmm_spectral.moments import (
    InsufficientData,
    MomentSet,
    analytic_moments,
    build_schedule,
    count_cooccurrences,
    estimate_moments,
    window_conditional,
)
from hsmm_spectral.spectral import build_observable, build_observable_per_t
from hsmm_spectral.tensors import numerical_rank

from oracles import brute_window_joint


def model_tuple(p):
    return (p.O, p.X, p.D, p.pi_x, p.initial_duration_table())


# ---------------------------------------------------------------------------
# schedules


def test_schedule_worked_example_3_20():
    s = build_schedule(3, 20)
    assert s.ell == 4
    assert s.right_offsets == (0, 11, 17, 19)
    assert s.left_offsets == (0, 2, 8, 19)
    assert s.span == 20


@pytest.mark.parametrize(
    "n_x,n_d,ell,offsets",
    [
        (2, 2, 2, (0, 1)),
        (4, 6, 3, (0, 2, 5)),
        (2, 3, 3, (0, 1, 2)),
        (2, 4, 3, (0, 2, 3)),
        (3, 2, 2, (0, 1)),
        (2, 1, 1, (0,)),
    ],
)
def test_schedule_formula(n_x, n_d, ell, offsets):
    s = build_schedule(n_x, n_d)
    assert s.ell == ell
    assert s.right_offsets == offsets


def test_schedule_single_state_fallback():
    s = build_schedule(1, 4)
    assert s.ell == 4
    assert s.right_offsets == (0, 1, 2, 3)


def test_schedule_window_positions_mirror():
    s = build_schedule(3, 20)
    # anchor at 30 (0-based): left window mirrors the right one about it
    right = s.right_positions(30)
    left = s.left_positions(30)
    assert list(right) == [31, 42, 48, 50]
    assert list(left) == [10, 12, 18, 29]
    assert sorted(30 - l for l in left) == sorted(r - 30 for r in right)


# ---------------------------------------------------------------------------
# empirical estimation


def test_adjacent_pair_counting_by_hand():
    sched = build_schedule(2, 2)
    # too short for windows, so feed one long carrier plus the tiny target;
    # check only the pair tensor against the hand count
    seqs = [np.array([0, 1, 0, 1])]
    with pytest.raises(InsufficientData):
        estimate_moments(seqs, 2, sched)
    carrier = np.array([0, 0, 1, 1, 0, 0, 1, 1])  # length 8 hosts anchors
    m = estimate_moments([carrier, np.array([0, 1, 0, 1])], 2, sched)
    # pairs: carrier has 7, target has 3
    expect = np.zeros((2, 2))
    for seq in (carrier, [0, 1, 0, 1]):
        for a, b in zip(seq, list(seq)[1:]):
            expect[a, b] += 1
    expect /= 10
    assert np.allclose(m.m_oo, expect, atol=1e-15)


def test_insufficient_data_reports_minimum():
    sched = build_schedule(2, 3)
    with pytest.raises(InsufficientData) as err:
        estimate_moments([np.zeros(7, dtype=int)], 2, sched)
    assert err.value.min_length == 8


def test_estimated_tensors_are_distributions():
    p = random_model(3, 2, 2, seed=0)
    sched = build_schedule(2, 2)
    obs = sample_many(p, 200, 12, np.random.default_rng(0))
    m = estimate_moments(list(obs), 3, sched)
    for t in (m.m_lr, m.m_lr_shift, m.m_lro, m.m_oo, m.m_start):
        assert t.min() >= 0
        assert abs(t.sum() - 1.0) < 1e-12


def test_marginal_consistency_empirical():
    p = random_model(3, 2, 2, seed=1)
    sched = build_schedule(2, 2)
    obs = sample_many(p, 100, 14, np.random.default_rng(1))
    m = estimate_moments(list(obs), 3, sched)
    assert np.allclose(m.m_lro.sum(axis=2), m.m_lr, atol=1e-15)


# ---------------------------------------------------------------------------
# the counting kernel against a plain loop over window positions


def loop_counts(sequences, n_o, sched, per_anchor=False):
    """Integer counts by visiting every placement (per anchor: equal lengths)."""
    k = n_o**sched.ell
    n_anchor = len(sched.anchor_range(len(sequences[0]))) if per_anchor else 1
    lr = np.zeros((n_anchor, k, k), dtype=np.int64)
    lr_shift = np.zeros((n_anchor, k, k), dtype=np.int64)
    lro = np.zeros((n_anchor, k, k, n_o), dtype=np.int64)
    oo = np.zeros((n_anchor, n_o, n_o), dtype=np.int64)
    start = np.zeros((n_o, n_o, k), dtype=np.int64)
    windows = pairs = starts = 0

    def code(seq, positions):
        c = 0
        for pos in positions:
            c = c * n_o + int(seq[pos])
        return c

    for seq in sequences:
        T = len(seq)
        if not per_anchor:
            for t in range(T - 1):
                oo[0, seq[t], seq[t + 1]] += 1
                pairs += 1
        if T >= sched.start_min_length:
            start[seq[0], seq[1], code(seq, sched.start_positions())] += 1
            starts += 1
        for j, s in enumerate(sched.anchor_range(T)):
            a = j if per_anchor else 0
            left = code(seq, sched.left_positions(s))
            right = code(seq, sched.right_positions(s))
            lr[a, left, right] += 1
            lr_shift[a, left, code(seq, sched.right_positions(s + 1))] += 1
            lro[a, left, right, seq[s]] += 1
            windows += 1
            if per_anchor:
                oo[a, seq[s], seq[s + 1]] += 1
                pairs += 1
    tables = (lr, lr_shift, lro, oo)
    if not per_anchor:
        tables = tuple(t[0] for t in tables)
    return tables + (start, windows, pairs, starts)


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("n_x,n_d", [(2, 2), (3, 9)])
def test_pooled_counts_match_plain_loop(monkeypatch, tmp_path, n_x, n_d, block):
    if block:
        monkeypatch.setattr(moments, "BLOCK", block)
    sched = build_schedule(n_x, n_d)
    n_o = 3
    rng = np.random.default_rng(n_d)
    lengths = [T for T in range(sched.min_sequence_length + 2) for _ in range(2)]
    lengths += [60, 3 * sched.min_sequence_length, 41]
    seqs = [rng.integers(0, n_o, size=T) for T in rng.permutation(lengths)]
    expect = loop_counts(seqs, n_o, sched)
    # the ragged stream read back from a file (its empty lines are skipped)
    write_sequences(seqs, tmp_path / "seqs.txt")
    stream = read_sequences(tmp_path / "seqs.txt")
    for form in (seqs, stream):
        got = count_cooccurrences(form, n_o, sched)
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)

    lr, lr_shift, lro, oo, start, windows, pairs, starts = expect
    for form in (seqs, stream):
        m = estimate_moments(form, n_o, sched)
        assert (m.window_count, m.pair_count, m.start_count) == (windows, pairs, starts)
        for field, table, count in (
            ("m_lr", lr, windows),
            ("m_lr_shift", lr_shift, windows),
            ("m_lro", lro, windows),
            ("m_oo", oo, pairs),
            ("m_start", start, starts),
        ):
            assert np.array_equal(getattr(m, field), table / count)

    short = [s for s in seqs if len(s) < sched.min_sequence_length]
    with pytest.raises(InsufficientData) as err:
        estimate_moments(short, n_o, sched)
    assert err.value.min_length == sched.min_sequence_length


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("n_x,n_d,T", [(2, 2, 12), (3, 9, 25)])
def test_per_anchor_counts_match_plain_loop(monkeypatch, tmp_path, n_x, n_d, T, as_array):
    monkeypatch.setattr(moments, "BLOCK", 7)
    sched = build_schedule(n_x, n_d)
    n_o = 3
    obs = sample_many(random_model(n_o, n_x, n_d, seed=6), 300, T, np.random.default_rng(6))
    seqs = obs if as_array else list(obs)
    write_sequences(obs, tmp_path / "seqs.txt")
    stream = read_sequences(tmp_path / "seqs.txt")
    n_anchor = len(sched.anchor_range(T))
    expect = loop_counts(list(obs), n_o, sched, per_anchor=True)
    for form in (seqs, stream):
        got = count_cooccurrences(form, n_o, sched, anchors=n_anchor)
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)
        assert got.windows == got.pairs == 300 * n_anchor
        assert got.starts == 300

    listed = estimate_moments(list(obs), n_o, sched)
    for form in (seqs, stream):
        pooled = estimate_moments(form, n_o, sched)
        for field in ("m_lr", "m_lr_shift", "m_lro", "m_oo", "m_start"):
            assert np.array_equal(getattr(pooled, field), getattr(listed, field))

    if n_d > 2:
        return  # too few sequences for a full-rank per-anchor build
    # each per-anchor model is the pooled build of that anchor's tables
    lr, lr_shift, lro, oo, start, *_ = expect
    models = build_observable_per_t(seqs, n_o, sched, 1e-6)
    for j, model in enumerate(models):
        alone = build_observable(
            MomentSet(
                m_lr=lr[j] / 300,
                m_lr_shift=lr_shift[j] / 300,
                m_lro=lro[j] / 300,
                m_oo=oo[j] / 300,
                m_start=start / 300,
                n_o=n_o,
                schedule=sched,
                window_count=300,
                pair_count=300,
                start_count=300,
            ),
            1e-6,
        )
        assert np.array_equal(model.d_tilde.data, alone.d_tilde.data)
        for field in ("y_x", "o_tilde", "start_factor", "basis"):
            assert np.array_equal(getattr(model, field), getattr(alone, field))


def _peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moment_tables_are_one_quotient_of_the_counts():
    # k = 512: the lro table (k x k x n_o) is 16.8 MB, and dividing it into
    # the moment table may add one float copy of it, not more
    sched = build_schedule(3, 9)
    obs = sample_many(random_model(8, 3, 9, seed=1), 200, 100, np.random.default_rng(1))
    lro_bytes = 8 * (8**sched.ell) ** 2 * 8
    extra = _peak(estimate_moments, obs, 8, sched) - _peak(count_cooccurrences, obs, 8, sched)
    assert extra < 1.5 * lro_bytes, extra / lro_bytes


def test_count_tables_are_capped_before_allocation(monkeypatch):
    sched = build_schedule(2, 2)
    seqs = [np.random.default_rng(i).integers(0, 3, size=12) for i in range(6)]
    # n_o = 300 at ell = 2: a 90000 x 90000 window table, 60 GiB
    for anchors in (None, 6):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n_o=300, ell=2 \(k=90000.* over the cap"):
                count_cooccurrences(seqs, 300, sched, anchors=anchors)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
    # the cap is on the bytes of all five tables: at the size it passes
    k = 3**sched.ell
    size = 8 * (2 * k * k + k * k * 3 + 3 * 3 + 3 * 3 * k)
    monkeypatch.setattr(moments, "TABLE_BYTES", size)
    count_cooccurrences(seqs, 3, sched)
    monkeypatch.setattr(moments, "TABLE_BYTES", size - 1)
    with pytest.raises(ValueError, match=f"need {size} bytes, over the cap of {size - 1}"):
        estimate_moments(seqs, 3, sched)


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("where", [0, 7])
@pytest.mark.parametrize("per_anchor", [False, True])
def test_out_of_alphabet_symbol_is_rejected(monkeypatch, per_anchor, where, bad):
    monkeypatch.setattr(moments, "BLOCK", 16)  # sequences 2 and 3 share a block
    sched = build_schedule(2, 2)
    seqs = [np.random.default_rng(i).integers(0, 3, size=12) for i in range(6)]
    seqs[3][where] = bad
    with pytest.raises(ValueError, match=f"sequence 3: symbol {bad} outside alphabet"):
        if per_anchor:
            build_observable_per_t(seqs, 3, sched, 1e-6)
        else:
            estimate_moments(seqs, 3, sched)


# ---------------------------------------------------------------------------
# analytic moments vs exhaustive enumeration


def tiny_model():
    return random_model(2, 2, 2, seed=5)


def test_analytic_moments_match_brute_force_single_anchor():
    p = tiny_model()
    sched = build_schedule(2, 2)
    T = sched.min_sequence_length  # exactly one anchor: s = n_d = 2
    m, ctx = analytic_moments(p, sched, T)
    n_o = p.n_o
    # anchor 2: left window {0,1}, right {3,4}, shifted right {4,5}, symbol 2
    groups = [
        (0, 1, 3, 4),
        (0, 1, 4, 5),
        (0, 1, 3, 4, 2),
        (0, 1, 2, 3),  # start: o0, o1, window {2,3}
    ]
    lr, lr_shift, lro_perm, start = brute_window_joint(model_tuple(p), groups, T)
    k = n_o**sched.ell
    assert np.allclose(m.m_lr, lr.reshape(k, k), atol=1e-12)
    assert np.allclose(m.m_lr_shift, lr_shift.reshape(k, k), atol=1e-12)
    lro = np.moveaxis(lro_perm, 4, 4)  # axes already (l0,l1,r0,r1,o)
    assert np.allclose(m.m_lro, lro.reshape(k, k, n_o), atol=1e-12)
    assert np.allclose(m.m_start, start.reshape(n_o, n_o, k), atol=1e-12)
    # m_oo averages every adjacent pair
    pairs = brute_window_joint(
        model_tuple(p), [(t, t + 1) for t in range(T - 1)], T
    )
    assert np.allclose(m.m_oo, np.mean(pairs, axis=0), atol=1e-12)


def test_analytic_moments_average_multiple_anchors():
    p = tiny_model()
    sched = build_schedule(2, 2)
    T = sched.min_sequence_length + 2  # anchors {2, 3, 4}
    m, _ = analytic_moments(p, sched, T)
    tables = []
    for s in (2, 3, 4):
        (tab,) = brute_window_joint(
            model_tuple(p), [(s - 2, s - 1, s + 1, s + 2)], T
        )
        tables.append(tab.reshape(4, 4))
    assert np.allclose(m.m_lr, np.mean(tables, axis=0), atol=1e-12)


def test_analytic_moments_single_state_outer_product():
    p = HsmmParams(
        O=np.array([[0.2], [0.8]]),
        X=np.array([[1.0]]),
        D=np.array([[0.4], [0.6]]),
        pi_x=np.array([1.0]),
    )
    sched = build_schedule(1, 2)
    m, _ = analytic_moments(p, sched, sched.min_sequence_length)
    marg = p.O[:, 0]
    window = np.kron(marg, marg)
    assert np.allclose(m.m_lr, np.outer(window, window), atol=1e-14)
    assert np.allclose(m.m_oo, np.outer(marg, marg), atol=1e-14)


def test_empirical_converges_to_analytic():
    p = random_model(3, 2, 2, seed=3)
    sched = build_schedule(2, 2)
    T = 12
    m_true, _ = analytic_moments(p, sched, T)
    n = 30_000
    obs = sample_many(p, n, T, np.random.default_rng(3))
    m_hat = estimate_moments(list(obs), 3, sched)
    for field, count in (
        ("m_lr", m_hat.window_count),
        ("m_lr_shift", m_hat.window_count),
        ("m_lro", m_hat.window_count),
        ("m_oo", m_hat.pair_count),
        ("m_start", m_hat.start_count),
    ):
        gap = np.max(np.abs(getattr(m_hat, field) - getattr(m_true, field)))
        assert gap <= 5.0 / np.sqrt(count), (field, gap, count)


def test_empirical_error_shrinks_at_monte_carlo_rate():
    p = random_model(3, 2, 2, seed=4)
    sched = build_schedule(2, 2)
    T = 12
    m_true, _ = analytic_moments(p, sched, T)
    errs = []
    for n in (1_000, 10_000, 100_000):
        obs = sample_many(p, n, T, np.random.default_rng(4))
        m_hat = estimate_moments(list(obs), 3, sched)
        errs.append(np.max(np.abs(m_hat.m_lr - m_true.m_lr)))
    assert errs[0] > errs[1] > errs[2]
    # max error over fixed cells scales ~ 1/sqrt(n); allow generous slack
    assert errs[0] / errs[2] > np.sqrt(100) / 4


def test_window_conditional_is_column_stochastic():
    p = random_model(4, 3, 4, seed=6)
    sched = build_schedule(3, 4)
    f = window_conditional(p, sched.right_offsets)
    assert f.shape == (4**sched.ell, 12)
    assert np.allclose(f.sum(axis=0), 1.0, atol=1e-12)


def test_analytic_context_factors():
    p = random_model(3, 2, 3, seed=7)
    sched = build_schedule(2, 3)
    T = sched.min_sequence_length + 3
    m, ctx = analytic_moments(p, sched, T)
    assert np.allclose(ctx.f_right.data.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(ctx.f_left.data.sum(axis=0), 1.0, atol=1e-12)
    assert len(ctx.k_marginals) == m.window_count
    for kt in ctx.k_marginals:
        assert abs(kt.data.sum() - 1.0) < 1e-12


def test_analytic_m_lr_rank_is_joint_dimension():
    for n_x, n_d, seed in ((2, 2, 0), (2, 3, 1)):
        p = random_model(n_x + 1, n_x, n_d, seed=seed)
        sched = build_schedule(n_x, n_d)
        m, ctx = analytic_moments(p, sched, sched.min_sequence_length + 4)
        assert numerical_rank(m.m_lr, 1e-10) == n_x * n_d
        assert numerical_rank(ctx.f_right.data, 1e-10) == n_x * n_d
