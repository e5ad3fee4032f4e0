import tracemalloc

import numpy as np
import pytest

from hsmm_spectral import moments
from hsmm_spectral.hsmm import (
    HsmmParams,
    InvalidModel,
    random_model,
    read_sequences,
    sample_many,
    write_sequences,
)
from hsmm_spectral.moments import (
    InsufficientData,
    MomentSet,
    ObservationSchedule,
    analytic_moments,
    build_schedule,
    count_cooccurrences,
    estimate_moments,
)
from hsmm_spectral.spectral import build_observable, build_observable_per_t
from hsmm_spectral.tensors import numerical_rank

from oracles import brute_window_joint, window_conditional


def model_tuple(p):
    return (p.O, p.X, p.D, p.pi_x, p.initial_duration_table())


# ---------------------------------------------------------------------------
# schedules


def test_schedule_worked_example_3_20():
    s = build_schedule(3, 20)
    assert s.ell == 4
    assert s.right_offsets == (0, 11, 17, 19)
    assert s.left_offsets == (0, 2, 8, 19)


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


@pytest.mark.parametrize("n_x,n_d", [(0, 2), (2, 0), (-1, 3)])
def test_build_schedule_refuses_a_size_below_one(n_x, n_d):
    # with n_x = 0 the search for ell, n_x**(ell - 1) >= n_d, would never end
    with pytest.raises(InvalidModel, match="n_x and n_d must be positive"):
        build_schedule(n_x, n_d)


def test_schedule_refuses_bad_sizes_and_offsets_by_name():
    # each once failed deep in count_cooccurrences, or was taken silently
    data = np.zeros((3, 20), dtype=np.int64)
    for n_x, n_d, offsets, rule in (
        (2, 4, (0, 5), r"must lie in \[0, n_d - 1\] = \[0, 3\]"),
        (2, 4, (-1, 2), r"must lie in \[0, n_d - 1\]"),
        (2, 4, (2, 0), "must be strictly ascending"),
        (2, 4, (1, 1), "must be strictly ascending"),
        (2, 4, (), "must not be empty"),
        (0, 4, (0,), "n_x and n_d must be at least 1"),
        (2, 0, (0,), "n_x and n_d must be at least 1"),
    ):
        name = f"ObservationSchedule(n_x={n_x}, n_d={n_d}, right_offsets={offsets!r})"
        with pytest.raises(InvalidModel) as refused:
            count_cooccurrences(data, 2, ObservationSchedule(n_x, n_d, offsets))
        assert str(refused.value).startswith(name + ": "), str(refused.value)
        assert refused.match(rule)
    for n_x in (1, 2, 3, 4):
        for n_d in range(1, 21):
            s = build_schedule(n_x, n_d)
            assert s == ObservationSchedule(n_x, n_d, s.right_offsets)


def test_schedule_refuses_sizes_and_offsets_that_are_not_integers():
    # a fractional offset was taken, and slicing failed in count_cooccurrences
    data = np.zeros((3, 20), dtype=np.int64)
    for n_x, n_d, offsets in ((2, 4, (0.5, 2)), (2, 4, (0, 2.0)), (2.0, 4, (0,)), (2, 4.0, (0,))):
        name = f"ObservationSchedule(n_x={n_x!r}, n_d={n_d!r}, right_offsets={offsets!r})"
        with pytest.raises(InvalidModel) as refused:
            count_cooccurrences(data, 2, ObservationSchedule(n_x, n_d, offsets))
        assert str(refused.value) == name + ": n_x, n_d and right_offsets must be integers"
    # NumPy integers are integers
    s = ObservationSchedule(np.int64(2), np.int64(4), tuple(np.array([0, 2])))
    assert s == ObservationSchedule(2, 4, (0, 2))


def test_schedule_window_positions_mirror():
    s = build_schedule(3, 20)
    # anchor at 30 (0-based): left window mirrors the right one about it
    right = [30 + 1 + o for o in s.right_offsets]
    left = [30 - s.n_d + o for o in s.left_offsets]
    assert right == [31, 42, 48, 50]
    assert left == [10, 12, 18, 29]
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

    def right_at(s):  # the right window of anchor s
        return [s + 1 + o for o in sched.right_offsets]

    def left_at(s):  # its mirror before the anchor
        return [s - sched.n_d + o for o in sched.left_offsets]

    for seq in sequences:
        T = len(seq)
        if not per_anchor:
            for t in range(T - 1):
                oo[0, seq[t], seq[t + 1]] += 1
                pairs += 1
        if T >= sched.start_min_length:
            start[seq[0], seq[1], code(seq, right_at(1))] += 1
            starts += 1
        for j, s in enumerate(sched.anchor_range(T)):
            a = j if per_anchor else 0
            left = code(seq, left_at(s))
            right = code(seq, right_at(s))
            lr[a, left, right] += 1
            lr_shift[a, left, code(seq, right_at(s + 1))] += 1
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
@pytest.mark.parametrize(
    "sched",
    # the last is a hand-built schedule off the geometric rule
    [build_schedule(2, 2), build_schedule(3, 9), ObservationSchedule(2, 4, (0, 1, 3))],
    ids=["2-2", "3-9", "2-4-hand-built"],
)
def test_pooled_counts_match_plain_loop(monkeypatch, tmp_path, sched, block):
    if block:
        monkeypatch.setattr(moments, "BLOCK", block)
    n_o = 3
    rng = np.random.default_rng(sched.n_d)
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
@pytest.mark.parametrize("n_x,n_d,T", [(2, 2, 12), (3, 9, 25), (1, 3, 12), (2, 1, 8)])
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


@pytest.mark.parametrize("per_gap", [0, 10**9])  # whole spans; gathered placements
@pytest.mark.parametrize("block", [None, 5])  # one block; blocks of 5 positions
@pytest.mark.parametrize("per_anchor", [False, True])
def test_dropped_bin_never_takes_a_real_count(monkeypatch, per_anchor, block, per_gap):
    # every symbol is n_o - 1, so every placement lands in the last real bin
    # of lr, lr_shift, lro and oo, right next to the dropped one
    if block:
        monkeypatch.setattr(moments, "BLOCK", block)
    monkeypatch.setattr(moments, "SPAN_PLACEMENTS_PER_GAP", per_gap)
    sched = build_schedule(2, 2)
    n_o = 3

    def counts(lengths):
        seqs = [np.full(T, n_o - 1) for T in lengths]
        anchors = len(sched.anchor_range(lengths[0])) if per_anchor else None
        got = count_cooccurrences(seqs, n_o, sched, anchors=anchors)
        for g, e in zip(got, loop_counts(seqs, n_o, sched, per_anchor)):
            assert np.array_equal(g, e)
        return got

    got = counts([12] * 5 if per_anchor else [12, 3, 20, 0, 7, 12, 1])
    lead = 7 if per_anchor else 1
    for table, count in ((got.lr, got.windows), (got.lr_shift, got.windows),
                         (got.lro, got.windows), (got.oo, got.pairs)):
        assert count > 0
        assert (table.reshape(lead, -1)[:, -1] == count // lead).all()
    # rows too short to host an anchor: no block has a window to tally
    got = counts([5] * 4 if per_anchor else [1, 5, 3, 0, 5])
    assert got.windows == 0
    assert got.pairs == (0 if per_anchor else 10)


@pytest.mark.parametrize("block", [None, 5])  # one block; blocks of 5 positions
@pytest.mark.parametrize("row,T,hosted", [(3, 20, 15), (1, 4, 0)])
def test_per_anchor_counting_refuses_rows_of_another_length(monkeypatch, block, row, T, hosted):
    if block:
        monkeypatch.setattr(moments, "BLOCK", block)
    sched = build_schedule(2, 2)
    seqs = [np.random.default_rng(i).integers(0, 3, size=12) for i in range(4)]
    seqs[row] = np.random.default_rng(9).integers(0, 3, size=T)
    with pytest.raises(ValueError, match=f"sequence {row} hosts {hosted} anchors, need 7"):
        count_cooccurrences(seqs, 3, sched, anchors=7)
    # pooled counting takes rows of any length
    count_cooccurrences(seqs, 3, sched)


def _peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moment_tables_are_one_quotient_of_the_counts():
    # k = 512: the lro table (k x k x n_o) is 16.8 MB, and the count tables
    # are divided in place, so averaging them adds no copy of any
    sched = build_schedule(3, 9)
    obs = sample_many(random_model(8, 3, 9, seed=1), 200, 100, np.random.default_rng(1))
    lro_bytes = 8 * (8**sched.ell) ** 2 * 8
    extra = _peak(estimate_moments, obs, 8, sched) - _peak(count_cooccurrences, obs, 8, sched)
    assert extra < 0.1 * lro_bytes, extra / lro_bytes


def test_each_moment_table_is_its_count_table(monkeypatch):
    sched = build_schedule(2, 2)
    seqs = [np.random.default_rng(i).integers(0, 3, size=T) for i, T in enumerate((12, 30, 7))]
    counted = []

    def count(*args, **kwargs):
        counted.append(count_cooccurrences(*args, **kwargs))
        return counted[-1]

    monkeypatch.setattr(moments, "count_cooccurrences", count)
    m = estimate_moments(seqs, 3, sched)
    (c,) = counted
    fields = ("m_lr", "m_lr_shift", "m_lro", "m_oo", "m_start")
    totals = (c.windows,) * 3 + (c.pairs, c.starts)
    for field, table, expect, total in zip(fields, c, loop_counts(seqs, 3, sched), totals):
        got = getattr(m, field)
        assert np.shares_memory(got, table), field
        assert not got.flags.writeable
        assert np.array_equal(got, expect / total)


@pytest.mark.parametrize("per_anchor", [False, True])
def test_count_tables_are_exact_float64_integers(per_anchor):
    sched = build_schedule(3, 9)
    n_o, k, T = 4, 4**sched.ell, 25
    obs = sample_many(random_model(n_o, 3, 9, seed=2), 40, T, np.random.default_rng(2))
    anchors = len(sched.anchor_range(T)) if per_anchor else None
    got = count_cooccurrences(obs, n_o, sched, anchors=anchors)
    lead = (anchors,) if per_anchor else ()
    shapes = (lead + (k, k), lead + (k, k), lead + (k, k, n_o), lead + (n_o, n_o),
              (n_o, n_o, k))
    for table, shape, expect in zip(got, shapes, loop_counts(list(obs), n_o, sched, per_anchor)):
        assert table.dtype == np.float64 and table.shape == shape
        assert table.flags.c_contiguous and table.flags.writeable
        assert np.array_equal(table, expect)  # integral, as the loop's int64 counts


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


@pytest.mark.parametrize("T,anchors,error,message", [
    (5, None, InsufficientData, "horizon T=5 admits no anchor; need T >= 6"),
    (30, [1], InvalidModel, "anchor set [1].. outside the valid range"),
    (30, [2, 27], InvalidModel, "anchor set [2, 27].. outside the valid range"),
], ids=["no-anchor", "below", "above"])
def test_analytic_moments_refuses_anchors_the_horizon_cannot_host(T, anchors, error, message):
    with pytest.raises(error) as exc:
        analytic_moments(random_model(3, 2, 2, seed=1), build_schedule(2, 2), T, anchors)
    assert str(exc.value) == message


@pytest.mark.parametrize("T,anchors,message", [
    (12, [3.7], "anchor 3.7 is not an integer"),
    (12, [3, 4.0], "anchor 4.0 is not an integer"),
    (12.5, None, "horizon T 12.5 is not an integer"),
    (np.float64(12), [3], "horizon T 12.0 is not an integer"),
], ids=["fractional-anchor", "whole-float-anchor", "fractional-T", "float64-T"])
def test_analytic_moments_refuses_a_horizon_or_anchor_that_is_not_an_integer(
    T, anchors, message
):
    # a fractional anchor built the truncated anchor's moments, and a
    # fractional T raised a bare TypeError
    p, sched = random_model(3, 2, 2, seed=1), build_schedule(2, 2)
    with pytest.raises(InvalidModel) as exc:
        analytic_moments(p, sched, T, anchors)
    assert str(exc.value) == message
    # integer types that are not int pass, and build what int builds
    m, _ = analytic_moments(p, sched, np.int64(12), [np.int64(3)])
    assert np.array_equal(m.m_lr, analytic_moments(p, sched, 12, [3])[0].m_lr)


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
    # f_right is a plain read-only array; the benchmark reads the others' .data
    assert type(ctx.f_right) is np.ndarray and not ctx.f_right.flags.writeable
    assert np.allclose(ctx.f_right.sum(axis=0), 1.0, atol=1e-12)
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
        assert numerical_rank(ctx.f_right, 1e-10) == n_x * n_d
