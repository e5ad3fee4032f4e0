import tracemalloc

import numpy as np
import pytest

from hsmm_spectral import em
from hsmm_spectral.em import EmConfig, em_fit
from hsmm_spectral.hsmm import (
    HsmmParams,
    forward_loglik_batch,
    random_model,
    sample_many,
)


from oracles import em_pass_reference, hmm_baum_welch


def test_config_validation():
    from hsmm_spectral.hsmm import InvalidModel

    with pytest.raises(InvalidModel):
        EmConfig(max_iter=0)
    with pytest.raises(InvalidModel):
        EmConfig(tol=0.0)
    with pytest.raises(InvalidModel):
        EmConfig(tol=float("nan"))


def test_matches_reference_baum_welch_when_durations_trivial():
    truth = random_model(4, 2, 1, seed=0)
    obs = sample_many(truth, 80, 20, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    init = HsmmParams(
        O=rng.dirichlet(np.ones(4), size=2).T,
        X=rng.dirichlet(np.ones(2), size=2).T,
        D=np.ones((1, 2)),
        pi_x=rng.dirichlet(np.ones(2)),
    )
    n_iter = 15
    cfg = EmConfig(max_iter=n_iter, tol=1e-12, restarts=1, seed=0)
    fitted, trace = em_fit(list(obs), 4, 2, 1, cfg, init=init)
    o_ref, x_ref, pi_ref, trace_ref = hmm_baum_welch(
        init.O, init.X, init.pi_x, [list(o) for o in obs], n_iter
    )
    # same iterates, so the pre-update log-likelihood traces coincide
    for got, want in zip(trace[:n_iter], trace_ref):
        assert np.isclose(got, want, rtol=1e-9)
    assert np.allclose(fitted.O, o_ref, atol=1e-6)
    assert np.allclose(fitted.X, x_ref, atol=1e-6)
    assert np.allclose(fitted.pi_x, pi_ref, atol=1e-6)


def test_trace_monotone_on_hsmm_data():
    truth = random_model(3, 2, 3, seed=2)
    obs = sample_many(truth, 60, 30, np.random.default_rng(2))
    cfg = EmConfig(max_iter=40, tol=1e-10, restarts=2, seed=3)
    fitted, trace = em_fit(list(obs), 3, 2, 3, cfg)
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


def test_single_state_single_symbol_point_mass():
    obs = [np.zeros(12, dtype=int) for _ in range(10)]
    cfg = EmConfig(max_iter=20, tol=1e-10, restarts=1, seed=4)
    fitted, _ = em_fit(obs, 2, 1, 2, cfg)
    assert fitted.O[0, 0] > 1 - 1e-9
    assert fitted.O[1, 0] < 1e-9


def test_deterministic_given_seed():
    truth = random_model(3, 2, 2, seed=5)
    obs = list(sample_many(truth, 40, 15, np.random.default_rng(5)))
    cfg = EmConfig(max_iter=10, tol=1e-10, restarts=2, seed=6)
    a, ta = em_fit(obs, 3, 2, 2, cfg)
    b, tb = em_fit(obs, 3, 2, 2, cfg)
    assert np.array_equal(a.O, b.O)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(ta, tb)


def test_fit_improves_likelihood_toward_truth():
    truth = random_model(3, 2, 2, seed=7)
    train = sample_many(truth, 400, 40, np.random.default_rng(7))
    test = sample_many(truth, 50, 40, np.random.default_rng(8))
    cfg = EmConfig(max_iter=60, tol=1e-8, restarts=2, seed=9)
    fitted, trace = em_fit(list(train), 3, 2, 2, cfg)
    ll_true = forward_loglik_batch(truth, test).mean()
    ll_fit = forward_loglik_batch(fitted, test).mean()
    assert trace[-1] > trace[0]
    # held-out likelihood within a modest gap of the generating model's
    assert ll_fit > ll_true - 0.05 * abs(ll_true)


def test_mixed_length_sequences_accepted():
    truth = random_model(3, 2, 2, seed=10)
    rng = np.random.default_rng(10)
    seqs = [sample_many(truth, 1, T, rng)[0] for T in (10, 14, 14, 18)]
    cfg = EmConfig(max_iter=5, tol=1e-8, restarts=1, seed=11)
    fitted, trace = em_fit(seqs, 3, 2, 2, cfg)
    assert np.isfinite(trace).all()


def test_dimension_guard():
    from hsmm_spectral.hsmm import InvalidModel

    with pytest.raises(InvalidModel):
        em_fit([np.zeros(5, dtype=int)], 2, 3, 2, EmConfig())
    for n_x, n_d in ((0, 2), (2, 0)):
        with pytest.raises(InvalidModel, match="must be at least 1"):
            em_fit([np.zeros(5, dtype=int)], 2, n_x, n_d, EmConfig())


def test_symbols_outside_the_alphabet_are_refused():
    # a negative symbol was read as symbol n_o - 1
    for bad in (-1, 3):
        seqs = [np.array([0, 1, 2, 1]), np.array([2, bad, 0])]
        with pytest.raises(ValueError, match=f"symbol {bad} outside alphabet of size 3"):
            em_fit(seqs, 3, 2, 2, EmConfig(max_iter=2, restarts=1))


# ---------------------------------------------------------------------------
# the whole-array pass against the per-step reference pass


def assert_same_pass(p, groups):
    got, ll = em._em_pass(p, groups)
    want, ll_ref = em_pass_reference(p, groups)
    assert abs(ll - ll_ref) <= 1e-12 * abs(ll_ref)
    for field in ("O", "X", "D", "pi_x"):
        assert np.abs(getattr(got, field) - getattr(want, field)).max() <= 1e-12, field


@pytest.mark.parametrize("T", [1, 2, 3, 17])
@pytest.mark.parametrize("n_x,n_d", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 4)])
def test_pass_matches_per_step_reference(n_x, n_d, T):
    truth = random_model(4, n_x, n_d, seed=10 * n_x + n_d)
    obs = sample_many(truth, 9, T, np.random.default_rng(T))
    p = em._random_init(4, n_x, n_d, np.random.default_rng(T + 1))
    assert_same_pass(p, [obs])


def test_pass_matches_reference_on_mixed_lengths():
    truth = random_model(4, 2, 3, seed=1)
    rng = np.random.default_rng(2)
    groups = [sample_many(truth, n, T, rng) for n, T in ((5, 1), (3, 8), (7, 30))]
    assert_same_pass(em._random_init(4, 2, 3, rng), groups)


def test_pass_matches_reference_when_a_state_sees_no_symbol():
    # state 1 emits only symbol 3, which never occurs: its emission,
    # transition and duration columns have no mass and keep their values
    obs = np.random.default_rng(3).integers(0, 3, size=(12, 10))
    p = em._random_init(4, 2, 2, np.random.default_rng(4))
    O = p.O.copy()
    O[:, 1] = [0.0, 0.0, 0.0, 1.0]
    p = HsmmParams(O=O, X=p.X, D=p.D, pi_x=p.pi_x)
    assert_same_pass(p, [obs])
    updated, _ = em._em_pass(p, [obs])
    for field in ("O", "X", "D"):
        assert np.array_equal(getattr(updated, field)[:, 1], getattr(p, field)[:, 1])


def test_pass_matches_reference_over_several_chunks(monkeypatch):
    truth = random_model(4, 2, 2, seed=5)
    obs = sample_many(truth, 40, 12, np.random.default_rng(5))
    # 3 * 4 + 2 + 3 = 17 entries per step: 12 sequences of 12 steps a chunk
    monkeypatch.setattr(em, "CHUNK_ENTRIES", 17 * 12 * 12)
    assert [c.shape[0] for c in em._chunked([obs], 2, 4)] == [12, 12, 12, 4]
    assert_same_pass(em._random_init(4, 2, 2, np.random.default_rng(6)), [obs])


def test_fit_follows_the_reference_pass(monkeypatch):
    # default budget and stopping rule; every restart's passes are logged,
    # so each restart must stop after as many passes as with the reference
    truth = random_model(3, 2, 3, seed=7)
    rng = np.random.default_rng(7)
    seqs = [*sample_many(truth, 30, 25, rng), *sample_many(truth, 10, 9, rng)]
    cfg = EmConfig(seed=8)
    runs = []
    for em_pass in (em._em_pass, em_pass_reference):
        passes = []

        def logged(p, groups, em_pass=em_pass, passes=passes):
            updated, ll = em_pass(p, groups)
            passes.append(ll)
            return updated, ll

        monkeypatch.setattr(em, "_em_pass", logged)
        _, trace = em_fit(seqs, 3, 2, 3, cfg)
        runs.append((np.array(passes), trace))
    (passes, trace), (passes_ref, trace_ref) = runs
    assert len(passes) == len(passes_ref) and len(trace) == len(trace_ref)
    assert np.all(np.abs(passes - passes_ref) <= 1e-12 * np.abs(passes_ref))
    assert np.all(np.abs(trace - trace_ref) <= 1e-12 * np.abs(trace_ref))


def test_pass_working_set_stays_within_the_chunk_cap():
    # 3 * 4 + 2 + 3 = 17 entries per step: 4705 sequences of 100 steps fit
    # in a chunk of 8,000,000 entries, so 9000 sequences take two chunks
    truth = random_model(3, 2, 2, seed=9)
    groups = [sample_many(truth, 9000, 100, np.random.default_rng(9))]
    assert len(list(em._chunked(groups, 2, 4))) == 2
    p = em._random_init(3, 2, 2, np.random.default_rng(10))
    tracemalloc.start()
    try:
        em._em_pass(p, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack for what grows with neither T nor n (the model tables) or with n
    # alone (the first step's posterior norms: 37.6 kB here)
    assert peak <= 8 * em.CHUNK_ENTRIES + (64 << 10), peak - 8 * em.CHUNK_ENTRIES
