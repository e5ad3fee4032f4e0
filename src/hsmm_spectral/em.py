"""Explicit-duration EM baseline (forward-backward on the joint lattice).

The E-step runs a scaled forward-backward recursion over the joint
``(x, d)`` pairs, vectorized across equal-length sequences.  Transitions
with ``d > 1`` are deterministic and carry no parameter information, so the
M-step only accumulates renewal statistics (transitions and duration draws
out of ``d == 1``), the initial pair occupancy, and emission counts.  The
initial duration is treated as a fresh renewal draw, matching the
generative model's default prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hsmm import (
    HsmmParams,
    InvalidModel,
    forward_loglik_batch,
    initial_joint,
    joint_transition_matrix,
)


class MonotonicityViolation(Exception):
    """The log-likelihood trace decreased beyond tolerance (internal bug guard)."""


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 200
    tol: float = 1e-6
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise InvalidModel("max_iter must be at least 1")
        if not self.tol > 0:  # NaN too
            raise InvalidModel(f"tol must be positive, got {self.tol!r}")
        if self.restarts < 1:
            raise InvalidModel("restarts must be at least 1")


def _random_init(n_o: int, n_x: int, n_d: int, rng) -> HsmmParams:
    return HsmmParams(
        O=rng.dirichlet(np.ones(n_o), size=n_x).T,
        X=rng.dirichlet(np.ones(n_x), size=n_x).T,
        D=rng.dirichlet(np.ones(n_d), size=n_x).T,
        pi_x=rng.dirichlet(np.ones(n_x)),
    )


def _normalize_columns(acc: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    sums = acc.sum(axis=0)
    out = fallback.copy()
    good = sums > 0
    out[:, good] = acc[:, good] / sums[good]
    return out


def _chunked(groups, joint_dim: int):
    """Split sequence batches so the forward-pass buffer stays modest."""
    for obs in groups:
        n, T = obs.shape
        cap = max(1, 8_000_000 // (T * joint_dim))
        if n <= cap:
            yield obs
        else:
            for start in range(0, n, cap):
                yield obs[start : start + cap]


def _em_pass(p: HsmmParams, groups) -> tuple[HsmmParams, float]:
    """One E+M step over sequence groups; returns (updated, loglik before)."""
    n_x, n_d, n_o = p.n_x, p.n_d, p.n_o
    S = p.n_joint
    V = joint_transition_matrix(p)
    em = np.concatenate([p.O] * n_d, axis=1)  # [symbol, (x, d)]
    k1 = initial_joint(p)
    o_acc = np.zeros((n_o, n_x))
    x_acc = np.zeros((n_x, n_x))
    d_acc = np.zeros((n_d, n_x))
    pi_acc = np.zeros(n_x)
    loglik = 0.0
    for obs in _chunked(groups, S):
        n, T = obs.shape
        alphas = np.empty((T, n, S))
        scales = np.empty((T, n))
        a = k1[None, :] * em[obs[:, 0], :]
        for t in range(T):
            c = a.sum(axis=1)
            scales[t] = c
            a = a / c[:, None]
            alphas[t] = a
            if t < T - 1:
                a = (a @ V.T) * em[obs[:, t + 1], :]
        loglik += float(np.sum(np.log(scales)))
        beta = np.ones((n, S))
        gamma0 = None
        for t in range(T - 1, -1, -1):
            if t < T - 1:
                b_next = beta * em[obs[:, t + 1], :] / scales[t + 1][:, None]
                # renewal statistics for the t -> t+1 step
                a_renew = alphas[t][:, :n_x]  # d == 1 block
                b_cube = b_next.reshape(n, n_d, n_x)
                w = np.einsum("ndx,dx->nx", b_cube, p.D)
                x_acc += p.X * (w.T @ a_renew)
                u = a_renew @ p.X.T
                d_acc += p.D * np.einsum("ndx,nx->dx", b_cube, u)
                beta = b_next @ V
            gamma = alphas[t] * beta
            gamma /= gamma.sum(axis=1, keepdims=True)
            gx = gamma.reshape(n, n_d, n_x).sum(axis=1)
            np.add.at(o_acc, obs[:, t], gx)
            if t == 0:
                gamma0 = gamma
        pi_acc += gamma0.reshape(n, n_d, n_x).sum(axis=(0, 1))
        d_acc += gamma0.reshape(n, n_d, n_x).sum(axis=0)
    updated = HsmmParams(
        O=_normalize_columns(o_acc, p.O),
        X=_normalize_columns(x_acc, p.X),
        D=_normalize_columns(d_acc, p.D),
        pi_x=pi_acc / pi_acc.sum() if pi_acc.sum() > 0 else p.pi_x,
    )
    return updated, loglik


def _loglik(p: HsmmParams, groups) -> float:
    return sum(float(forward_loglik_batch(p, obs).sum()) for obs in groups)


def em_fit(
    sequences: Sequence[np.ndarray],
    n_o: int,
    n_x: int,
    n_d: int,
    cfg: EmConfig,
    init: HsmmParams | None = None,
) -> tuple[HsmmParams, np.ndarray]:
    """Fit by EM; returns the best restart's parameters and likelihood trace.

    The trace holds the log likelihood evaluated *before* each update and is
    non-decreasing up to a 1e-9 relative guard, violation of which raises
    :class:`MonotonicityViolation`.  With ``init`` given, a single run
    starts from those parameters instead of random restarts.
    """
    if n_x < 1 or n_d < 1:
        raise InvalidModel(f"n_x={n_x} and n_d={n_d} must be at least 1")
    if n_x > n_o:
        raise InvalidModel(f"n_x={n_x} exceeds n_o={n_o}")
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    if not seqs:
        raise InvalidModel("no training sequences")
    by_len: dict[int, list[np.ndarray]] = {}
    for s in seqs:
        by_len.setdefault(s.shape[0], []).append(s)
    groups = [np.stack(v) for v in by_len.values()]

    rng = np.random.default_rng(cfg.seed)
    inits = (
        [init]
        if init is not None
        else [_random_init(n_o, n_x, n_d, rng) for _ in range(cfg.restarts)]
    )
    best: tuple[float, HsmmParams, np.ndarray] | None = None
    for p in inits:
        trace = []
        current = p
        for _ in range(cfg.max_iter):
            updated, ll = _em_pass(current, groups)
            if trace:
                slack = 1e-9 * max(1.0, abs(trace[-1]))
                if ll < trace[-1] - slack:
                    raise MonotonicityViolation(
                        f"log-likelihood fell from {trace[-1]} to {ll}"
                    )
            improved = not trace or (ll - trace[-1]) > cfg.tol * abs(trace[-1])
            trace.append(ll)
            current = updated
            if not improved and len(trace) > 1:
                break
        final_ll = _loglik(current, groups)
        trace.append(final_ll)
        if best is None or final_ll > best[0]:
            best = (final_ll, current, np.array(trace))
    return best[1], best[2]
