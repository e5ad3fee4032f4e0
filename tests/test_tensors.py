import numpy as np
import pytest

from hsmm_spectral.tensors import (
    InvalidTolerance,
    NamedTensor,
    ShapeMismatch,
    khatri_rao_cols,
    numerical_rank,
    spectrum_rank,
)

from oracles import loop_khatri_rao


def test_construction_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        NamedTensor(np.zeros((2, 3)), ["a"])


def test_data_is_immutable():
    given = np.ones((2, 2))
    t = NamedTensor(given, ["a", "b"])
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0
    # a view, not a copy: the caller's array keeps its own flags
    assert np.shares_memory(t.data, given) and given.flags.writeable


def test_khatri_rao_basis_columns():
    out = khatri_rao_cols(np.eye(2), np.eye(2))
    expect = np.zeros((4, 2))
    expect[0, 0] = 1.0  # e1 kron e1
    expect[3, 1] = 1.0  # e2 kron e2
    assert np.array_equal(out, expect)


def test_khatri_rao_refuses_a_vector():
    for a, b in ((np.ones(2), np.eye(2)), (np.eye(2), np.ones(2))):
        with pytest.raises(ShapeMismatch, match="operands must be matrices"):
            khatri_rao_cols(a, b)


def test_khatri_rao_matches_loop_oracle():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 5))
    assert np.allclose(khatri_rao_cols(a, b), loop_khatri_rao(a, b), rtol=1e-15)
    with pytest.raises(ShapeMismatch):
        khatri_rao_cols(a, rng.standard_normal((4, 6)))


def test_khatri_rao_identity_rank_property():
    # no all-zero columns => rank(I kr A) = rank(A kr I) = n
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        eye = np.eye(n)
        assert numerical_rank(khatri_rao_cols(eye, a), 1e-10) == n
        assert numerical_rank(khatri_rao_cols(a, eye), 1e-10) == n


def test_khatri_rao_blockrow_rank_property():
    # rank(M kr E) = min(m*n, sum_j r_j) for block rows with controlled ranks
    rng = np.random.default_rng(15)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        # per-column stacks with chosen rank r_j
        ranks = rng.integers(1, min(m, k) + 1, size=n)
        cols = []
        for r_j in ranks:
            basis = rng.standard_normal((m, r_j))
            coef = rng.standard_normal((r_j, k))
            # guard against accidental rank loss in the random mix
            stack = basis @ coef
            while np.linalg.matrix_rank(stack) < r_j:
                coef = rng.standard_normal((r_j, k))
                stack = basis @ coef
            cols.append(stack)
        blocks = [
            np.column_stack([cols[j][:, i] for j in range(n)]) for i in range(k)
        ]
        m_mat = np.hstack(blocks)
        e = np.hstack([np.eye(n)] * k)
        got = numerical_rank(khatri_rao_cols(m_mat, e), 1e-10)
        assert got == min(m * n, int(np.sum(ranks)))


def test_combination_independence_property():
    # u = sum_i c_i v_i with all c_i nonzero stays independent of any strict
    # subset of the v_i
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        dim = n + int(rng.integers(0, 4))
        v = rng.standard_normal((dim, n))
        while np.linalg.matrix_rank(v) < n:
            v = rng.standard_normal((dim, n))
        c = rng.uniform(0.2, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        u = v @ c
        subset = rng.permutation(n)[: n - 1]
        stacked = np.column_stack([u, v[:, subset]])
        assert numerical_rank(stacked, 1e-10) == len(subset) + 1


def test_numerical_rank_thresholds():
    assert numerical_rank(np.eye(5), 1e-10) == 5
    assert numerical_rank(np.zeros((3, 4)), 1e-10) == 0
    assert numerical_rank(np.diag([1.0, 1e-14]), 1e-10) == 1
    with pytest.raises(InvalidTolerance):
        numerical_rank(np.eye(2), -1.0)
    # one scalar tolerance for every row of a stacked spectrum
    s = np.array([[1.0, 1e-3, 1e-9], [2.0, 0.0, 0.0]])
    assert spectrum_rank(s, 1e-6).tolist() == [2, 1]
    with pytest.raises(InvalidTolerance):
        spectrum_rank(s, np.array([[1e-6], [1e-2]]))
