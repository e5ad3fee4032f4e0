import numpy as np
import pytest

from hsmm_spectral.hsmm import HsmmParams, InvalidModel, random_model, renewal_kernel
from hsmm_spectral.moments import build_schedule
from hsmm_spectral.rank_analysis import (
    build_F,
    compute_T_efficient,
    compute_T_sequential,
    rank_grid,
)
from hsmm_spectral.tensors import numerical_rank

from oracles import window_conditional


def test_lift_single_duration_collapses_to_transition():
    p = random_model(3, 2, 1, seed=0)
    V = renewal_kernel(p.X, p.D)
    assert np.allclose(V, p.X, atol=1e-15)
    assert np.allclose(V[:, : p.n_x], p.X, atol=1e-15)


def test_lift_rank_and_stochastic_renewal_block():
    p = random_model(3, 2, 2, seed=1)
    V = renewal_kernel(p.X, p.D)
    assert numerical_rank(V, 1e-10) == 4
    assert np.allclose(V[:, : p.n_x].sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(V.sum(axis=0), 1.0, atol=1e-12)


def test_sequential_initial_table():
    p = random_model(4, 3, 3, seed=2)
    rep = compute_T_sequential(p, 1)
    assert rep.numerical_rank == 3
    assert rep.T.shape == (3, 9)
    assert np.allclose(rep.T[:, :3], p.X, atol=1e-15)
    assert rep.offsets == (0,)


@pytest.mark.parametrize("ell,expect", [(2, 4), (3, 6), (4, 6)])
def test_sequential_rank_growth(ell, expect):
    p = random_model(3, 2, 3, seed=3)
    rep = compute_T_sequential(p, ell)
    assert rep.predicted_rank == min(2 * ell, 6) == expect
    assert rep.numerical_rank == expect


def test_sequential_rows_are_probabilities():
    p = random_model(3, 2, 3, seed=4)
    rep = compute_T_sequential(p, 3)
    assert np.allclose(rep.T.sum(axis=0), 1.0, atol=1e-12)
    assert rep.T.min() >= -1e-15


def test_efficient_worked_example_3_20():
    p = random_model(4, 3, 20, seed=5)
    rep = compute_T_efficient(p, 4)
    assert rep.offsets == (0, 11, 17, 19)
    assert rep.predicted_rank == 60
    assert rep.numerical_rank == 60


@pytest.mark.parametrize("compute", [compute_T_sequential, compute_T_efficient])
def test_t_tables_refuse_ell_below_one(compute):
    p = random_model(3, 2, 2, seed=6)
    for ell in (0, -1):
        with pytest.raises(InvalidModel, match="ell must be at least 1"):
            compute(p, ell)


def test_efficient_tiny_matches_sequential():
    p = random_model(3, 2, 2, seed=6)
    eff = compute_T_efficient(p, 2)
    seq = compute_T_sequential(p, 2)
    assert eff.numerical_rank == seq.numerical_rank == 4
    assert eff.offsets == seq.offsets == (0, 1)


def test_efficient_ell_one_is_initial_table():
    p = random_model(3, 2, 4, seed=7)
    rep = compute_T_efficient(p, 1)
    assert rep.numerical_rank == 2
    assert rep.T.shape == (2, 8)


def test_build_F_matches_direct_marginalization():
    for n_x, n_d, seed in ((2, 2, 0), (2, 4, 1), (3, 5, 2)):
        p = random_model(n_x + 1, n_x, n_d, seed=seed)
        sched = build_schedule(n_x, n_d)
        F, rep = build_F(p, sched.right_offsets)
        direct = window_conditional(p, sched.right_offsets)
        assert np.max(np.abs(F - direct)) < 1e-12


def test_build_F_schedule_offsets_reach_full_rank():
    p = random_model(3, 2, 2, seed=8)
    sched = build_schedule(2, 2)
    _, rep = build_F(p, sched.right_offsets)
    assert rep.numerical_rank == 4


def test_build_F_consecutive_windows():
    # a full consecutive window reaches the joint dimension; one short of it
    # tops out at (n_d - 1) * n_x
    p = random_model(3, 2, 4, seed=9)
    _, full = build_F(p, list(range(4)))
    assert full.numerical_rank == 8
    _, short = build_F(p, list(range(3)))
    assert short.numerical_rank == 6


def test_build_F_offset_validation():
    # the offsets follow the schedule's rule, and are refused with its message
    p = random_model(3, 2, 3, seed=10)
    with pytest.raises(InvalidModel, match=r"must lie in \[0, n_d - 1\] = \[0, 2\]"):
        build_F(p, [0, 3])
    with pytest.raises(InvalidModel, match="must be strictly ascending"):
        build_F(p, [1, 1])
    with pytest.raises(InvalidModel, match="must be strictly ascending"):
        build_F(p, [2, 0])


def test_build_F_refuses_offsets_that_are_not_integers():
    # fractional offsets were truncated to (0, 2) and built silently
    p = random_model(3, 2, 3, seed=10)
    with pytest.raises(InvalidModel, match="right_offsets must be integers"):
        build_F(p, [0.5, 2.7])
    # a NumPy integer is an integer
    F, rep = build_F(p, np.array([0, 2]))
    assert np.array_equal(F, build_F(p, [0, 2])[0])
    assert rep.offsets == (0, 2)


def test_rank_grid_smoke():
    rows = rank_grid(n_x_values=(2,), n_d_values=(2, 3), seeds=(0,))
    assert all(r["pass"] for r in rows)
    algos = {r["algorithm"] for r in rows}
    assert algos == {"sequential", "efficient", "schedule-F"}
    seq = [r for r in rows if r["algorithm"] == "sequential" and r["n_d"] == 3]
    assert {r["ell"] for r in seq} == {1, 2, 3, 4}


def test_schedule_F_on_explicit_prior_model():
    base = random_model(3, 2, 3, seed=11)
    pi_d = np.array([[0.5, 0.3], [0.3, 0.4], [0.2, 0.3]])
    p = HsmmParams(O=base.O, X=base.X, D=base.D, pi_x=base.pi_x, pi_d=pi_d)
    sched = build_schedule(2, 3)
    F, rep = build_F(p, sched.right_offsets)
    # F conditions on the pair, so the initial-duration prior is irrelevant
    F2, _ = build_F(base, sched.right_offsets)
    assert np.array_equal(F, F2)
