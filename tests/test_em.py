import re
import tracemalloc

import numpy as np
import pytest

from hsmm_spectral import em
from hsmm_spectral.em import EmConfig, em_fit
from hsmm_spectral.hsmm import (
    HsmmParams,
    forward_loglik_batch,
    random_model,
    random_tables,
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


def test_fit_refuses_no_sequences_and_no_restarts():
    from hsmm_spectral.hsmm import InvalidModel

    with pytest.raises(InvalidModel) as exc:
        em_fit([], 3, 2, 2, EmConfig())
    assert str(exc.value) == "no training sequences"
    with pytest.raises(InvalidModel) as exc:
        EmConfig(restarts=0)
    assert str(exc.value) == "restarts must be at least 1"


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
    # a negative symbol was read as symbol n_o - 1; the message names the
    # sequence, as counting's does
    for bad in (-1, 3):
        seqs = [np.array([0, 1, 2, 1]), np.array([2, bad, 0])]
        with pytest.raises(ValueError, match=f"^sequence 1: symbol {bad} outside alphabet of size 3$"):
            em_fit(seqs, 3, 2, 2, EmConfig(max_iter=2, restarts=1))


def test_an_empty_sequence_is_refused():
    seqs = [np.array([0, 1, 2]), np.array([], dtype=int)]
    with pytest.raises(ValueError, match="sequence 1 is empty"):
        em_fit(seqs, 3, 2, 2, EmConfig(max_iter=3, restarts=1))


@pytest.mark.parametrize("shape", [(4, 2, 2), (3, 3, 2), (3, 2, 3)])
def test_an_init_of_another_shape_is_refused(shape):
    from hsmm_spectral.hsmm import InvalidModel

    init = random_model(*shape, seed=12)
    seqs = [np.array([0, 1, 2, 1, 0])]
    message = f"init has (n_o, n_x, n_d) = {shape}, expected (3, 2, 2)"
    with pytest.raises(InvalidModel, match=re.escape(message)):
        em_fit(seqs, 3, 2, 2, EmConfig(max_iter=3), init=init)


# ---------------------------------------------------------------------------
# the whole-array pass against the per-step reference pass


def run_pass(p, groups):
    """``em._em_pass`` on a model and sequence groups, as ``em_fit`` calls it."""
    chunks = em._chunked(groups, p.n_x, p.n_joint)
    lat = em._lattice(p.n_x, p.n_d)
    params = (p.O, p.X, p.D, p.pi_x)
    (O, X, D, pi_x), ll = em._em_pass(params, p.initial_duration_table(), chunks, lat)
    return HsmmParams(O=O, X=X, D=D, pi_x=pi_x), ll


def assert_same_pass(p, groups):
    got, ll = run_pass(p, groups)
    want, ll_ref = em_pass_reference(p, groups)
    assert abs(ll - ll_ref) <= 1e-12 * abs(ll_ref)
    for field in ("O", "X", "D", "pi_x"):
        assert np.abs(getattr(got, field) - getattr(want, field)).max() <= 1e-12, field


@pytest.mark.parametrize("T", [1, 2, 3, 17])
@pytest.mark.parametrize("n_x,n_d", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 4)])
def test_pass_matches_per_step_reference(n_x, n_d, T):
    truth = random_model(4, n_x, n_d, seed=10 * n_x + n_d)
    obs = sample_many(truth, 9, T, np.random.default_rng(T))
    p = HsmmParams(*random_tables(4, n_x, n_d, np.random.default_rng(T + 1)))
    assert_same_pass(p, [obs])


def test_pass_matches_reference_on_mixed_lengths():
    truth = random_model(4, 2, 3, seed=1)
    rng = np.random.default_rng(2)
    groups = [sample_many(truth, n, T, rng) for n, T in ((5, 1), (3, 8), (7, 30))]
    assert_same_pass(HsmmParams(*random_tables(4, 2, 3, rng)), groups)


def test_pass_matches_reference_when_a_state_sees_no_symbol():
    # state 1 emits only symbol 3, which never occurs: its emission,
    # transition and duration columns have no mass and keep their values
    obs = np.random.default_rng(3).integers(0, 3, size=(12, 10))
    p = HsmmParams(*random_tables(4, 2, 2, np.random.default_rng(4)))
    O = p.O.copy()
    O[:, 1] = [0.0, 0.0, 0.0, 1.0]
    p = HsmmParams(O=O, X=p.X, D=p.D, pi_x=p.pi_x)
    assert_same_pass(p, [obs])
    updated, _ = run_pass(p, [obs])
    for field in ("O", "X", "D"):
        assert np.array_equal(getattr(updated, field)[:, 1], getattr(p, field)[:, 1])


def test_pass_matches_reference_over_several_chunks(monkeypatch):
    truth = random_model(4, 2, 2, seed=5)
    obs = sample_many(truth, 40, 12, np.random.default_rng(5))
    # 3 * 4 + 2 + 3 = 17 entries per step: 12 sequences of 12 steps a chunk
    monkeypatch.setattr(em, "CHUNK_ENTRIES", 17 * 12 * 12)
    chunks = em._chunked([obs], 2, 4)
    assert [c.shape for c in chunks] == [(12, 12)] * 3 + [(12, 4)]
    assert np.array_equal(np.concatenate(chunks, axis=1), obs.T)
    assert_same_pass(HsmmParams(*random_tables(4, 2, 2, np.random.default_rng(6))), [obs])


@pytest.mark.parametrize("exponent", [-100, -318 / em.RESCALE_EVERY])
def test_pass_matches_reference_when_every_step_is_improbable(exponent):
    # every state emits the observed symbol 0 with probability 10**exponent,
    # so each step's mass is about that.  Over the steps between divisions
    # the mass underflows to 0 (-100) or into the subnormal floats, where it
    # loses precision (-318 / RESCALE_EVERY): the chunk is redone dividing
    # at every step, as the reference does
    p = HsmmParams(*random_tables(3, 2, 3, np.random.default_rng(11)))
    tiny = 10.0**exponent
    O = np.array([[tiny, tiny], [0.6, 0.3], [0.4 - tiny, 0.7 - tiny]])
    p = HsmmParams(O=O, X=p.X, D=p.D, pi_x=p.pi_x)
    obs = np.zeros((6, 2 * em.RESCALE_EVERY + 3), dtype=np.int64)
    assert_same_pass(p, [obs])
    _, ll = run_pass(p, [obs])
    assert ll < obs.size * (exponent + 1) * np.log(10)


def test_fit_follows_the_reference_pass(monkeypatch):
    # default budget and stopping rule; every restart's passes are logged,
    # so each restart must stop after as many passes as with the reference
    truth = random_model(3, 2, 3, seed=7)
    rng = np.random.default_rng(7)
    seqs = [*sample_many(truth, 30, 25, rng), *sample_many(truth, 10, 9, rng)]
    cfg = EmConfig(seed=8)

    def reference(params, first, chunks, lat):
        O, X, D, pi_x = params
        p = HsmmParams(O=O, X=X, D=D, pi_x=pi_x, pi_d=first)
        updated, ll = em_pass_reference(p, [obsT.T for obsT in chunks])
        return (updated.O, updated.X, updated.D, updated.pi_x), ll

    runs = []
    for em_pass in (em._em_pass, reference):
        passes = []

        def logged(*args, em_pass=em_pass, passes=passes):
            updated, ll = em_pass(*args)
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
    obs = sample_many(truth, 9000, 100, np.random.default_rng(9))
    chunks = em._chunked([obs], 2, 4)
    assert len(chunks) == 2
    p = HsmmParams(*random_tables(3, 2, 2, np.random.default_rng(10)))
    lat = em._lattice(2, 2)
    tracemalloc.start()
    try:
        em._em_pass((p.O, p.X, p.D, p.pi_x), p.D, chunks, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack for what grows with neither T nor n (the model tables) or with n
    # alone (the first step's posterior norms: 37.6 kB here)
    assert peak <= 8 * em.CHUNK_ENTRIES + (64 << 10), peak - 8 * em.CHUNK_ENTRIES
