import numpy as np
import pytest

from hsmm_spectral.em import EmConfig, em_fit
from hsmm_spectral.hsmm import (
    HsmmParams,
    forward_loglik_batch,
    random_model,
    sample_many,
)


from oracles import hmm_baum_welch


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
