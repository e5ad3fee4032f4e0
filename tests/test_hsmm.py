import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hsmm_spectral import hsmm
from hsmm_spectral.hsmm import (
    GenerationFailed,
    HsmmParams,
    InvalidModel,
    emissions_on_joint,
    forward_likelihood,
    forward_loglik_batch,
    initial_joint,
    joint_states,
    load_model,
    next_state_table,
    random_model,
    renewal_kernel,
    read_sequences,
    sample,
    sample_many,
    save_model,
    state_update_matrix,
    validate,
    write_sequences,
)
from hsmm_spectral.moments import analytic_moments, build_schedule
from hsmm_spectral.tensors import ShapeMismatch

from oracles import (
    OracleTooLarge,
    duration_update_reference,
    emissions_reference,
    enumeration_likelihood,
    exact_likelihood_enum,
    hmm_forward_loglik,
    joint_states_reference,
    joint_transition_reference,
    next_state_reference,
    pick_reference,
    sample_many_per_step,
    sample_reference,
    segment_likelihood,
    state_update_reference,
    write_sequences_reference,
)


def model_tuple(p):
    return (p.O, p.X, p.D, p.pi_x, p.initial_duration_table())


def handbuilt_model():
    O = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    X = np.array([[0.6, 0.4], [0.4, 0.6]])
    D = np.full((2, 2), 0.5)
    pi = np.array([0.5, 0.5])
    return HsmmParams(O=O, X=X, D=D, pi_x=pi)


def test_validate_passes_constructed_model():
    rep = validate(handbuilt_model())
    assert rep.ok, str(rep)


def test_validate_flags_zero_duration():
    p = handbuilt_model()
    D = np.array([[1.0, 0.5], [0.0, 0.5]])
    bad = HsmmParams(O=p.O, X=p.X, D=D, pi_x=p.pi_x)
    rep = validate(bad)
    assert not rep.ok
    assert any(c.name.startswith("A2") for c in rep.failed())


def test_validate_flags_wide_hidden_space():
    O = np.full((2, 3), 1.0 / 2)
    X = np.eye(3) * 0.8 + 0.1
    X = X / X.sum(axis=0)
    D = np.full((2, 3), 0.5)
    rep = validate(HsmmParams(O=O, X=X, D=D, pi_x=np.full(3, 1 / 3)))
    assert any(c.name.startswith("A3") and not c.passed for c in rep.checks)


def test_validate_reports_a_non_finite_table_without_an_svd(monkeypatch):
    # an SVD of O = [[NaN], [1.0]] raised LinAlgError before the report was made
    O = HsmmParams(O=[[np.nan], [1.0]], X=[[1.0]], D=[[1.0]], pi_x=[1.0])
    X = HsmmParams(O=[[0.5], [0.5]], X=[[np.inf]], D=[[1.0]], pi_x=[1.0])
    svd = np.linalg.svd

    def finite_only(a, *args, **kwargs):
        assert np.isfinite(a).all(), "SVD of a non-finite table"
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", finite_only)
    for p, failed in ((O, ["stochastic[O]", "A3[rank O]"]),
                      (X, ["stochastic[X]", "A1[rank X]"])):
        rep = validate(p)
        assert [c.name for c in rep.failed()] == failed
        assert math.isnan(rep.failed()[-1].value)
        assert "FAIL  stochastic" in str(rep)
        with pytest.raises(InvalidModel, match="model fails validation"):
            analytic_moments(p, build_schedule(1, 1), 12)


def test_validate_decomposes_x_and_o_once_each(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    p = random_model(5, 3, 2, seed=4)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert validate(p).ok
    assert sorted(calls) == [(3, 3), (5, 3)]


def test_validate_reads_every_table_by_one_stochastic_rule():
    # each row gives the worst column sum's distance from one and passes when
    # it is within 1e-12 and no entry is negative; pi_x and pi_d rows now say so
    p = random_model(4, 2, 3, seed=5)
    with_pi_d = HsmmParams(O=p.O, X=p.X, D=p.D, pi_x=p.pi_x, pi_d=p.D[::-1] / p.D[::-1].sum(0))
    nan = HsmmParams(O=[[np.nan], [1.0]], X=[[1.0]], D=[[1.0]], pi_x=[1.0])
    for model, names in ((with_pi_d, ["O", "X", "D", "pi_x", "pi_d"]),
                         (nan, ["O", "X", "D", "pi_x"])):
        rows = [c for c in validate(model).checks if c.name.startswith("stochastic")]
        assert [c.name for c in rows] == [f"stochastic[{name}]" for name in names]
        for c, name in zip(rows, names):
            table = getattr(model, name)
            err = float(np.max(np.abs(table.sum(axis=0) - 1.0)))
            assert c.passed == (err <= 1e-12 and table.min() >= 0.0), c
            assert c.value == err or math.isnan(c.value) and math.isnan(err), c
            assert c.detail == "column sums and nonnegativity", c
    assert [c.passed for c in validate(with_pi_d).checks[:5]] == [True] * 5
    assert [c.passed for c in validate(nan).checks[:4]] == [False, True, True, True]
    assert math.isnan(validate(nan).checks[0].value)


def test_sampling_refuses_a_table_that_is_not_a_distribution():
    # O's column [0.9, 0.9] was sampled as [[0 0 0 0 0], [1 0 0 0 0]]
    good = dict(O=[[0.5], [0.5]], X=[[1.0]], D=[[1.0]], pi_x=[1.0])
    for field, table, failed in (
        ("O", [[0.9], [0.9]], "stochastic[O]"),
        ("O", [[-0.5], [1.5]], "stochastic[O]"),
        ("O", [[np.nan], [1.0]], "stochastic[O]"),
        ("D", [[0.7]], "stochastic[D]"),
        ("pi_x", [2.0], "stochastic[pi_x]"),
    ):
        p = HsmmParams(**{**good, field: table})
        rng = np.random.default_rng(0)
        for draw in (lambda: sample_many(p, 2, 5, rng), lambda: sample(p, 5, rng)):
            with pytest.raises(InvalidModel) as exc:
                draw()
            assert str(exc.value) == f"cannot sample from a model that fails {failed}"
    # A1 (rank-one X) and A3 (n_x > n_o) fail, and sampling needs neither
    wide = HsmmParams(O=[[1.0, 1.0]], X=[[0.5, 0.5], [0.5, 0.5]], D=[[1.0, 1.0]],
                      pi_x=[0.5, 0.5])
    assert sample_many(wide, 3, 4, np.random.default_rng(0)).shape == (3, 4)
    assert sample(wide, 4, np.random.default_rng(0)).observations.shape == (4,)


def test_shape_mismatch_raised_on_construction():
    with pytest.raises(ShapeMismatch):
        HsmmParams(O=np.eye(2), X=np.eye(3), D=np.full((2, 2), 0.5), pi_x=np.full(2, 0.5))


@pytest.mark.parametrize("tables,message", [
    (dict(O=np.full(2, 0.5)), "O, X, D must be matrices"),
    (dict(D=np.full((2, 3), 0.5)), "D must have 2 columns, got (2, 3)"),
    (dict(pi_x=np.full(3, 1 / 3)), "pi_x must have length 2"),
    (dict(pi_d=np.full((3, 2), 1 / 3)), "pi_d must match D's shape (2, 2)"),
], ids=["O-not-a-matrix", "D-columns", "pi_x-length", "pi_d-shape"])
def test_every_shape_refusal_names_its_table(tables, message):
    base = dict(O=np.eye(2), X=np.eye(2), D=np.full((2, 2), 0.5), pi_x=np.full(2, 0.5))
    with pytest.raises(ShapeMismatch) as exc:
        HsmmParams(**{**base, **tables})
    assert str(exc.value) == message


def test_models_compare_and_hash_by_identity():
    p, q = random_model(3, 2, 2, seed=1), random_model(3, 2, 2, seed=1)
    assert (p == q) is False and (p != q) is True and p == p
    assert {p: "p", q: "q"}[p] == "p" and len({p, q, p}) == 2


def test_random_model_reference_sizes_pass_validation():
    for dims in [(3, 2, 2), (5, 4, 6)]:
        p = random_model(*dims, seed=1)
        assert (p.n_o, p.n_x, p.n_d) == dims
        assert validate(p).ok


def test_random_model_rejects_a3_violation_before_sampling():
    with pytest.raises(InvalidModel):
        random_model(2, 3, 2, seed=0)


def test_random_model_deterministic_and_flagged():
    a = random_model(4, 3, 3, seed=7)
    b = random_model(4, 3, 3, seed=7)
    assert np.array_equal(a.O, b.O) and np.array_equal(a.D, b.D)
    c = random_model(4, 3, 3, seed=7, no_self_transitions=True)
    assert np.all(np.diag(c.X) == 0.0)
    assert validate(c).ok


def test_random_model_impossible_floor_fails():
    with pytest.raises(GenerationFailed):
        random_model(3, 3, 3, seed=0, min_sigma=0.999)


def test_sample_degenerate_single_state():
    p = HsmmParams(
        O=np.array([[0.3], [0.7]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    seq = sample(p, 20, np.random.default_rng(0))
    assert all(h == (0, 1) for h in seq.hidden_states)
    assert seq.observations.shape == (20,)


def test_sample_countdown_branch_is_deterministic():
    p = random_model(4, 2, 4, seed=3)
    seq = sample(p, 200, np.random.default_rng(5))
    for (x0, d0), (x1, d1) in zip(seq.hidden_states, seq.hidden_states[1:]):
        if d0 > 1:
            assert x1 == x0 and d1 == d0 - 1
        else:
            assert 1 <= d1 <= p.n_d


def test_sample_many_matches_marginal_statistics():
    # pooled symbol frequencies across 1e6 emissions vs analytic mixture
    p = random_model(3, 2, 2, seed=11)
    n, T = 10_000, 100
    obs = sample_many(p, n, T, np.random.default_rng(42))
    V = renewal_kernel(p.X, p.D)
    k = initial_joint(p)
    mix = np.zeros(p.n_o)
    for _ in range(T):
        mix += p.O @ k.reshape(p.n_d, p.n_x).sum(axis=0)
        k = V @ k
    mix /= T
    counts = np.bincount(obs.reshape(-1), minlength=p.n_o)
    total = n * T
    for s in range(p.n_o):
        sd = math.sqrt(mix[s] * (1 - mix[s]) * total)
        # emissions within a sequence are correlated; allow a mixing margin
        assert abs(counts[s] - mix[s] * total) < 3 * sd * math.sqrt(2 * p.n_d)


def test_sample_many_refuses_what_sample_refuses():
    p = random_model(3, 2, 2, seed=13)
    for n, T, message in ((3, 0, "T must be at least 1"), (-1, 5, "non-negative")):
        with pytest.raises(InvalidModel, match=message):
            sample_many(p, n, T, np.random.default_rng(0))
    with pytest.raises(InvalidModel):
        sample(p, 0, np.random.default_rng(0))
    assert sample_many(p, 0, 5, np.random.default_rng(0)).shape == (0, 5)


GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


@pytest.mark.parametrize("dims", [(3, 2, 2), (8, 3, 9), (4, 1, 3), (300, 2, 2)])
def test_sample_many_matches_per_step_reference(dims, monkeypatch):
    # both loops (at most _FEW_ROWS rows take the scalar one), emission passes
    # of one or a few steps, and each generator: equal draws, and an equal
    # next draw, so the two read the same uniforms in the same order; the
    # long few-row calls span several emission passes at the default
    # _DRAW_ENTRIES, and n_o = 300 puts 299 cut points in the emission table
    p = random_model(*dims, seed=12)
    with_pi_d = HsmmParams(O=p.O, X=p.X, D=p.D, pi_x=p.pi_x, pi_d=p.D[::-1] / p.D[::-1].sum(0))
    few = hsmm._FEW_ROWS
    shapes = [(1, 1), (7, 30), (500, 40)]
    shapes += [(n, T) for n in (0, 1, 2, few, few + 1, 200) for T in (1, 2, 37)]
    for entries in (hsmm._DRAW_ENTRIES, 8):
        monkeypatch.setattr(hsmm, "_DRAW_ENTRIES", entries)
        for bit_generator in GENERATORS if entries > 8 else GENERATORS[:1]:
            for model in (p, with_pi_d):
                for n, T in shapes + ([(1, 5000), (2, 3000)] if entries > 8 else []):
                    ours = np.random.Generator(bit_generator([n, T]))
                    theirs = np.random.Generator(bit_generator([n, T]))
                    got = sample_many(model, n, T, ours)
                    want = sample_many_per_step(model, n, T, theirs)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (n, T)
                    assert ours.random() == theirs.random(), (bit_generator, n, T)
                # sample is the one-row call with its hidden path, and draws
                # what rng.choice at every step drew
                for T in (1, 2, 37, 200):
                    one, row, ref = (np.random.Generator(bit_generator([T, 1])) for _ in range(3))
                    got = sample(model, T, one)
                    assert np.array_equal(got.observations, sample_many(model, 1, T, row)[0])
                    np.testing.assert_equal(one.bit_generator.state, row.bit_generator.state)
                    obs, hidden = sample_reference(model, T, ref)
                    assert np.array_equal(got.observations, obs) and got.hidden_states == hidden
                    assert one.random() == ref.random(), (bit_generator, T)


def test_pick_matches_reference():
    # the cut-major count against the row-major gather and bool sum, from no
    # cut points (one state, one duration) to more than a byte can count
    rng = np.random.default_rng(7)
    one = random_model(2, 1, 1, seed=1)
    tables = [one._cuts[name][0] for name in ("pi_x", "X", "D")]
    assert all(cuts.shape == (0, 1) for cuts in tables)
    for n_o in (2, 3, 27, 300):
        tables.append(random_model(n_o, 2, 2, seed=n_o)._cuts["O"][0])
    for cuts in tables:
        n_cuts, n_cols = cuts.shape
        for size in (0, 1, 5, 1000):
            cols = rng.integers(0, n_cols, size=size)
            u = rng.random(size)
            if n_cuts and size:
                # a uniform on a cut point is not above it
                u[::2] = cuts[rng.integers(0, n_cuts, size=u[::2].size), cols[::2]]
            got = hsmm._pick(cuts, cols, u)
            want = pick_reference(np.ascontiguousarray(cuts.T), cols, u)
            assert got.shape == (size,) and np.array_equal(got, want), (cuts.shape, size)
            assert got.dtype.kind == "i" and (got <= n_cuts).all()
    # strictly above: a uniform equal to the first cut point draws index 0
    cuts = np.array([[0.25], [0.75]])
    got = hsmm._pick(cuts, np.zeros(4, dtype=np.intp), np.array([0.25, 0.2500001, 0.75, 0.9]))
    assert got.tolist() == [0, 1, 1, 2]


def test_enum_likelihood_single_state_product():
    p = HsmmParams(
        O=np.array([[0.3], [0.7]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    obs = [0, 1, 1, 0]
    expect = 0.3 * 0.7 * 0.7 * 0.3
    assert np.isclose(exact_likelihood_enum(p, obs), expect, rtol=1e-15)


def test_enum_likelihood_t1_is_emission_mixture():
    p = random_model(3, 2, 2, seed=2)
    got = exact_likelihood_enum(p, [1])
    assert np.isclose(got, float(p.O[1, :] @ p.pi_x), rtol=1e-14)


def test_enum_likelihood_matches_loop_oracle():
    p = random_model(3, 2, 2, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        obs = rng.integers(0, 3, size=5)
        got = exact_likelihood_enum(p, obs)
        ref = enumeration_likelihood(model_tuple(p), list(obs))
        assert np.isclose(got, ref, rtol=1e-12)


def test_enum_guards():
    p = random_model(3, 2, 2, seed=4)
    with pytest.raises(OracleTooLarge):
        exact_likelihood_enum(p, [0] * 13)
    big = random_model(5, 4, 6, seed=1)
    with pytest.raises(OracleTooLarge):
        exact_likelihood_enum(big, [0] * 8)


def test_forward_trivial_two_step():
    p = HsmmParams(
        O=np.array([[0.7], [0.3]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    loglik, prob = forward_likelihood(p, [0, 0])
    assert np.isclose(prob, 0.49, rtol=1e-14)
    assert np.isclose(loglik, math.log(0.49), rtol=1e-14)


def test_forward_matches_enum_small_model():
    p = random_model(3, 2, 2, seed=6)
    rng = np.random.default_rng(1)
    for _ in range(10):
        obs = rng.integers(0, 3, size=6)
        loglik, prob = forward_likelihood(p, obs)
        ref = exact_likelihood_enum(p, obs)
        assert np.isclose(prob, ref, rtol=1e-12)


def test_forward_matches_segment_oracle_large_model():
    # the (5,4,6) model is far beyond path enumeration; use the independent
    # run-length segmentation oracle instead
    p = random_model(5, 4, 6, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(3):
        obs = rng.integers(0, 5, size=8)
        loglik, prob = forward_likelihood(p, obs)
        ref = segment_likelihood(model_tuple(p), list(obs))
        assert np.isclose(prob, ref, rtol=1e-12)


def test_forward_matches_hmm_when_durations_trivial():
    p = random_model(4, 3, 1, seed=9)
    rng = np.random.default_rng(3)
    for _ in range(5):
        obs = rng.integers(0, 4, size=12)
        loglik, _ = forward_likelihood(p, obs)
        ref = hmm_forward_loglik(p.O, p.X, p.pi_x, list(obs))
        assert np.isclose(loglik, ref, rtol=1e-12)


def test_forward_explicit_duration_prior_mode():
    base = random_model(3, 2, 3, seed=10)
    pi_d = np.array([[0.7, 0.2], [0.2, 0.3], [0.1, 0.5]])
    p = HsmmParams(O=base.O, X=base.X, D=base.D, pi_x=base.pi_x, pi_d=pi_d)
    obs = [0, 2, 1, 1, 0]
    _, prob = forward_likelihood(p, obs)
    ref = enumeration_likelihood(model_tuple(p), obs)
    assert np.isclose(prob, ref, rtol=1e-12)


def test_forward_sums_to_one_over_all_sequences():
    for dims, seed in [((2, 2, 3), 0), ((3, 2, 2), 1)]:
        p = random_model(*dims, seed=seed)
        total = 0.0
        for obs in itertools.product(range(p.n_o), repeat=6):
            _, prob = forward_likelihood(p, obs)
            total += prob
        assert abs(total - 1.0) < 1e-10


def test_forward_invariant_under_state_relabeling():
    p = random_model(4, 3, 3, seed=12)
    perm = np.array([2, 0, 1])
    q = HsmmParams(
        O=p.O[:, perm],
        X=p.X[np.ix_(perm, perm)],
        D=p.D[:, perm],
        pi_x=p.pi_x[perm],
    )
    rng = np.random.default_rng(4)
    for _ in range(5):
        obs = rng.integers(0, 4, size=15)
        a, _ = forward_likelihood(p, obs)
        b, _ = forward_likelihood(q, obs)
        assert np.isclose(a, b, rtol=1e-12)


def test_forward_batch_agrees_with_scalar():
    p = random_model(3, 2, 2, seed=13)
    obs = sample_many(p, 16, 30, np.random.default_rng(5))
    batch = forward_loglik_batch(p, obs)
    for i in range(16):
        single, _ = forward_likelihood(p, obs[i])
        assert np.isclose(batch[i], single, rtol=1e-12)


def test_forward_batch_gives_minus_inf_for_a_row_the_model_cannot_emit():
    # the states alternate 0, 1, 0, ...; state 0 never emits 2 and state 1 never 0
    p = HsmmParams(
        O=np.array([[0.7, 0.0], [0.3, 0.4], [0.0, 0.6]]),
        X=np.array([[0.0, 1.0], [1.0, 0.0]]),
        D=np.ones((1, 2)),
        pi_x=np.array([1.0, 0.0]),
    )
    rng = np.random.default_rng(16)
    for T in (1, 2, 3, 10):
        even = np.arange(T) % 2 == 0
        live = np.where(even, rng.integers(0, 2, size=(5, T)), rng.integers(1, 3, size=(5, T)))
        dead = []
        for where in sorted({0, min(1, T - 1), T - 1}):  # first, second and last symbol
            row = live[0].copy()
            row[where] = 2 if even[where] else 0
            dead.append(row)
        obs = np.concatenate([live[:2], dead, live[2:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = forward_loglik_batch(p, obs)
            alone = forward_loglik_batch(p, live)
        for got, row in zip(batch, obs):
            single, _ = forward_likelihood(p, row)
            assert got == single == -math.inf or np.isclose(got, single, rtol=1e-12, atol=0)
        assert np.isneginf(batch[2 : 2 + len(dead)]).all()
        # the other rows are those of a batch without the dead rows
        keep = np.r_[0:2, 2 + len(dead) : len(obs)]
        assert np.array_equal(batch[keep], alone) and np.isfinite(alone).all()


def test_sampling_frequency_matches_forward_probability():
    # empirical frequency of a short fixed prefix converges to its probability
    p = random_model(2, 2, 2, seed=14)
    target = (0, 1, 0)
    n = 200_000
    obs = sample_many(p, n, 3, np.random.default_rng(7))
    hits = np.all(obs == np.array(target)[None, :], axis=1).sum()
    _, prob = forward_likelihood(p, list(target))
    sd = math.sqrt(prob * (1 - prob) * n)
    assert abs(hits - prob * n) < 3 * sd + 1


def test_model_json_roundtrip(tmp_path):
    p = random_model(4, 3, 2, seed=15)
    path = tmp_path / "m.json"
    save_model(p, path)
    q = load_model(path)
    assert np.array_equal(p.O, q.O)
    assert np.array_equal(p.X, q.X)
    assert np.array_equal(p.D, q.D)
    assert np.array_equal(p.pi_x, q.pi_x)


def test_model_json_roundtrip_keeps_pi_d(tmp_path):
    p = random_model(4, 3, 2, seed=15)
    with_pi_d = HsmmParams(O=p.O, X=p.X, D=p.D, pi_x=p.pi_x, pi_d=p.D[::-1] / p.D[::-1].sum(0))
    path = tmp_path / "m.json"
    save_model(with_pi_d, path)
    q = load_model(path)
    for name in ("O", "X", "D", "pi_x", "pi_d"):
        assert np.array_equal(getattr(q, name), getattr(with_pi_d, name)), name
    save_model(p, path)
    assert load_model(path).pi_d is None


def test_load_model_refuses_declared_dimensions_the_tables_contradict(tmp_path):
    path = tmp_path / "m.json"
    save_model(random_model(3, 2, 2, seed=1), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "n_o": 4}))
    with pytest.raises(ShapeMismatch) as exc:
        load_model(path)
    assert str(exc.value) == "declared dimensions (4, 2, 2) disagree with matrices (3, 2, 2)"


def test_sequence_file_roundtrip(tmp_path):
    path = tmp_path / "seqs.txt"
    seqs = [np.array([0, 1, 2]), np.array([3, 0])]
    write_sequences(seqs, path)
    with open(path, "a") as fh:
        fh.write("# trailing comment\n\n")
    back = read_sequences(path)
    assert len(back) == 2
    assert np.array_equal(back[0], seqs[0])
    assert np.array_equal(back[1], seqs[1])
    # rows of a 2-D array, one of them with a multi-digit symbol
    grid = np.array([[0, 12, 3], [40506070809012, 0, 7]])
    write_sequences(grid, path)
    assert path.read_text() == "0 12 3\n40506070809012 0 7\n"
    assert np.array_equal(np.stack(list(read_sequences(path))), grid)


def test_write_sequences_matches_the_per_row_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    extremes = [2**63 - 1, -(2**63 - 1), -(2**63), 0, -1, 9, 10, -10, 99, 100, 10**18]
    ragged = [rng.integers(-(10**6), 10**6, size=n) for n in rng.integers(0, 9, size=2500)]
    cases = [
        [],
        [[]],
        [[], [], [4, 5], [], []],
        [[0, 1, 2], [], [3], [12, 345, 6789]],
        [np.array(extremes), [], [7]],
        # an item of another dtype does not round 2**62 + 1
        [np.array([2**62 + 1]), np.array([1.0])],
        [np.array([2**62 + 1]), np.array([1], dtype=np.uint64)],
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
        rng.integers(-300, 3000, size=(40, 9)).astype(np.int32),
        ragged,
        rng.integers(0, 3, size=(100, 100)),
    ]
    # the last two cross the default block size
    assert sum(map(len, ragged)) > hsmm.WRITE_BLOCK and 100 * 100 > hsmm.WRITE_BLOCK
    ours, theirs = tmp_path / "ours.txt", tmp_path / "theirs.txt"
    for block in (hsmm.WRITE_BLOCK, 999, 5, 2, 1):
        monkeypatch.setattr(hsmm, "WRITE_BLOCK", block)
        for seqs in cases if block > 5 else cases[:-2]:
            write_sequences(seqs, ours)
            write_sequences_reference(seqs, theirs)
            assert ours.read_bytes() == theirs.read_bytes(), (block, seqs)


def test_write_sequences_refuses_what_the_stream_refuses(tmp_path):
    path = tmp_path / "seqs.txt"
    for seqs, message in (
        ([[0, 1, 2], [0, 1.5, 2]], "sequence 1: symbol 1.5 is not an integer"),
        ([[0, 1], np.array([[1, 2], [3, 4]])], r"sequence 1 has shape \(2, 2\), need one axis"),
        ([np.array([np.nan, 1.0])], "sequence 0: symbol nan is not an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            write_sequences(seqs, path)
        assert not path.exists()


def test_next_state_table_layout():
    p = random_model(3, 2, 3, seed=16)
    t0 = next_state_table(p)
    assert t0.shape == (2, 6)
    assert np.array_equal(t0[:, :2], p.X)
    assert np.array_equal(t0[:, 2:4], np.eye(2))


@pytest.mark.parametrize("dims", [(3, 2, 2), (5, 4, 6), (8, 3, 9), (3, 1, 4), (4, 3, 1)])
def test_lattice_closed_forms_match_the_loop_builders(dims):
    p = random_model(*dims, seed=17)
    n_x, n_d = p.n_x, p.n_d
    assert np.array_equal(joint_states(n_x, n_d), joint_states_reference(n_x, n_d))
    assert np.array_equal(state_update_matrix(p), state_update_reference(p.X, n_d))
    assert np.array_equal(renewal_kernel(np.eye(n_x), p.D), duration_update_reference(p.D))
    assert np.array_equal(renewal_kernel(p.X, p.D), joint_transition_reference(p.X, p.D))
    assert np.array_equal(next_state_table(p), next_state_reference(p.X, n_d))
    assert np.array_equal(emissions_on_joint(p), emissions_reference(p.O, n_d))


@pytest.mark.parametrize("bad", [1.5, -1, 3])
@pytest.mark.parametrize("oracle", ["forward_likelihood", "forward_loglik_batch"])
def test_likelihood_oracles_refuse_symbols_outside_the_alphabet(oracle, bad):
    # a fractional symbol was truncated, -1 read as the last symbol, and 3 an IndexError
    p = random_model(3, 2, 2, seed=1)
    call = {
        "forward_likelihood": lambda obs: forward_likelihood(p, obs),
        "forward_loglik_batch": lambda obs: forward_loglik_batch(p, np.array([[0, 1, 2], obs])),
    }[oracle]
    call([0, 1, 2])
    row = 1 if oracle == "forward_loglik_batch" else 0
    what = "is not an integer" if bad == 1.5 else "outside alphabet of size 3"
    with pytest.raises(InvalidModel, match=rf"^sequence {row}: symbol {bad} {what}$"):
        call([0, bad, 2])


# tokens the fast path reads, and ones only the per-line parser accepts or rejects
PLAIN_TOKENS = ["0", "1", "2", "7", "10", "007", "1" * 18, "9" * 18]
ODD_TOKENS = ["9223372036854775807", "9223372036854775808", "1" * 19, "1" * 20,
              "+3", "1_0", "-1", "x", "\u0663"]


def fuzzed_file(rng) -> str:
    lines = []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        if kind < 0.1:
            line = ""
        elif kind < 0.2:
            line = str(rng.choice([" ", "  ", "\t", " \t "]))
        elif kind < 0.3:
            line = "# 1 2 comment"
        else:
            tokens = [
                str(rng.choice(ODD_TOKENS if rng.random() < 0.03 else PLAIN_TOKENS))
                for _ in range(int(rng.integers(1, 9)))
            ]
            seps = rng.choice([" ", " ", " ", "  ", "\t"], size=len(tokens) + 1)
            line = "".join(sep + tok for sep, tok in zip(seps, tokens))
            line = line.lstrip(" ") if rng.random() < 0.7 else line
            line += str(seps[-1]) if rng.random() < 0.2 else ""
        lines.append(line + str(rng.choice(["\n", "\n", "\r\n"])))
    text = "".join(lines)
    return text[:-1] if text and rng.random() < 0.2 else text


def read_per_line(path):
    """The per-line parser over the whole file, with read_sequences' symbol check."""
    with open(path) as fh:
        values, per_line = hsmm._parse_lines(fh)
    lines = np.flatnonzero(per_line) + 1
    seqs = np.split(values, np.cumsum(per_line[lines - 1])[:-1]) if lines.size else []
    for seq, line in zip(seqs, lines):
        if (seq < 0).any():
            raise ValueError(f"line {line}: symbol {seq[seq < 0][0]} is negative")
    return seqs, lines


def outcome(read, path):
    try:
        seqs, lines = read(path)
    except ValueError as exc:
        return str(exc)
    values = np.concatenate(list(seqs)) if len(seqs) else np.zeros(0, dtype=np.int64)
    return values.dtype, values.tolist(), [len(s) for s in seqs], list(lines)


def read_blocked(path):
    seqs = read_sequences(path)
    return seqs, seqs.lines


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_tokenizer_matches_per_line_parser(monkeypatch, tmp_path, block):
    monkeypatch.setattr(hsmm, "READ_BLOCK", block)
    fast = []
    parse = hsmm._fast_block
    monkeypatch.setattr(hsmm, "_fast_block", lambda b: fast.append(parse(b)) or fast[-1])
    rng = np.random.default_rng(block)
    path = tmp_path / "seqs.txt"
    texts = ["", "\n", "0", "0 1", "  \t\n# 5\n\n3  4\t5 \r\n", "1 2\r3\n"]
    texts += [fuzzed_file(rng) for _ in range(300)]
    errors = 0
    for text in texts:
        path.write_bytes(text.encode())
        want = outcome(read_per_line, path)
        assert outcome(read_blocked, path) == want, repr(text)
        errors += isinstance(want, str)
    assert 10 < errors < 150
    assert any(f is None for f in fast) and any(f is not None for f in fast)


@pytest.mark.parametrize("block", [4, 1 << 14])
def test_tokenizer_grows_its_buffer_past_the_stated_size(monkeypatch, block):
    # a pipe, or a file that grew after its size was read: more bytes than
    # ``size`` arrive, and the stream takes them all
    monkeypatch.setattr(hsmm, "READ_BLOCK", block)
    data = b"1 2 3\n\n45 6\n" * 20
    want = hsmm._tokenize(io.BytesIO(data), len(data))
    for size in (0, 1, 7):
        got = hsmm._tokenize(io.BytesIO(data), size)
        assert got.values.tolist() == want.values.tolist() == [1, 2, 3, 45, 6] * 20
        assert got.offsets.tolist() == want.offsets.tolist()
        assert got.lines.tolist() == want.lines.tolist()


def test_symbol_beyond_int64_names_its_line(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("0 1\n# x\n2 99999999999999999999 1\n")
    with pytest.raises(ValueError, match="line 3: symbol 99999999999999999999 does not fit"):
        read_sequences(path)
    path.write_text("0 1\n-99999999999999999999\n")
    with pytest.raises(ValueError, match="line 2: symbol -99999999999999999999 does not fit"):
        read_sequences(path)
