"""Explicit-duration EM baseline (forward-backward on the joint lattice).

The E-step runs a scaled forward-backward recursion over the joint
``(x, d)`` pairs, vectorized across equal-length sequences.  Transitions
with ``d > 1`` are deterministic and carry no parameter information, so the
M-step only accumulates renewal statistics (transitions and duration draws
out of ``d == 1``), the initial pair occupancy, and emission counts.  The
initial duration is treated as a fresh renewal draw, matching the
generative model's default prior.

The time loops carry only the recursions: the forward loop scales and
propagates ``alpha``; the backward loop turns each step's emissions into
``beta[t+1] * E[t+1] / scale[t+1]`` in place and multiplies that by the
transition matrix.  Every sufficient statistic is then formed once per
chunk over all its steps and sequences: one ``(S, n_x)`` matmul holds both
renewal tables, one matmul folds the posterior over durations, and a
``bincount`` per state gives the emission counts.  Per step of a sequence a
chunk holds three joint-space rows (emissions, ``alpha``, and ``beta``,
which becomes the posterior), the folded posterior, and three scalars;
:func:`_chunked` sizes chunks so that all of it stays within
:data:`CHUNK_ENTRIES` float64 entries.
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


# float64 entries one chunk of an EM pass may hold: 64 MB
CHUNK_ENTRIES = 8_000_000


def _chunked(groups, n_x: int, S: int):
    """Split sequence batches so a pass holds at most ``CHUNK_ENTRIES`` entries.

    Per step of each sequence :func:`_em_pass` holds ``3 * S`` entries
    (emissions, ``alpha``, ``beta``), ``n_x`` for the folded posterior and 3
    for the scale, the posterior's norm and the symbol.  A chunk is at least
    one sequence.
    """
    per_step = 3 * S + n_x + 3
    for obs in groups:
        n, T = obs.shape
        cap = max(1, CHUNK_ENTRIES // (T * per_step))
        if n <= cap:
            yield obs
        else:
            for start in range(0, n, cap):
                yield obs[start : start + cap]


def _expectations(obs, V, em, k1, fold):
    """E-step over one chunk of equal-length sequences.

    Returns the log likelihood, the renewal products ``[(d', x'), x]`` (each
    step's ``beta * E / scale`` against the ``d == 1`` block of ``alpha``),
    the emission counts ``[symbol, x]`` and the first step's posterior
    summed over sequences.  Its arrays are freed on return, before the next
    chunk allocates its own.
    """
    n, T = obs.shape
    n_o, S = em.shape
    n_x = fold.shape[1]
    VT = V.T
    E = np.take(em, obs.T, axis=0)  # (T, n, S)
    alphas = np.empty_like(E)
    scales = np.empty((T, n, 1))
    np.multiply(E[0], k1, out=alphas[0])
    for t in range(T):
        a, c = alphas[t], scales[t]
        a.sum(axis=1, keepdims=True, out=c)
        a /= c
        if t < T - 1:
            b = alphas[t + 1]
            np.matmul(a, VT, out=b)
            b *= E[t + 1]
    loglik = float(np.sum(np.log(scales)))
    # E[t + 1] becomes bnext[t] = beta[t + 1] * E[t + 1] / scale[t + 1]
    E[1:] /= scales[1:]
    betas = np.empty_like(E)
    betas[-1] = 1.0
    for t in range(T - 2, -1, -1):
        b = E[t + 1]
        b *= betas[t + 1]
        np.matmul(b, V, out=betas[t])
    rows = (T - 1) * n
    renew = E[1:].reshape(rows, S).T @ alphas[:-1, :, :n_x].reshape(rows, n_x)
    gamma = np.multiply(alphas, betas, out=betas).reshape(T * n, S)
    gx = fold.T @ gamma.T  # [x, (t, sequence)]: posterior summed over d
    norm = gx.sum(axis=0)  # 1 up to the recursions' rounding, which this removes
    gx /= norm
    symbols = obs.T.ravel()
    counts = np.stack(
        [np.bincount(symbols, weights=g, minlength=n_o) for g in gx], axis=1
    )
    gamma0 = gamma[:n].T @ (1.0 / norm[:n])
    return loglik, renew, counts, gamma0


def _em_pass(p: HsmmParams, groups) -> tuple[HsmmParams, float]:
    """One E+M step over sequence groups; returns (updated, loglik before)."""
    n_x, n_d = p.n_x, p.n_d
    V = joint_transition_matrix(p)
    em = np.concatenate([p.O] * n_d, axis=1)  # [symbol, (x, d)]
    k1 = initial_joint(p)
    fold = np.tile(np.eye(n_x), (n_d, 1))  # [(d, x), x]: sums over d
    chunks = _chunked(groups, n_x, p.n_joint)
    stats = [_expectations(obs, V, em, k1, fold) for obs in chunks]
    loglik, renew, o_acc, gamma0 = (sum(parts) for parts in zip(*stats))
    # x_acc[x', x] = X[x', x] sum_d' D[d', x'] r[d', x', x] and
    # d_acc[d', x'] = D[d', x'] sum_x X[x', x] r[d', x', x], plus the first step
    r = renew.reshape(n_d, n_x, n_x)  # [d', x', x]
    x_acc = p.X * (r * p.D[:, :, None]).sum(axis=0)
    d_acc = p.D * (r * p.X).sum(axis=2) + gamma0.reshape(n_d, n_x)
    pi_acc = gamma0.reshape(n_d, n_x).sum(axis=0)
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
    starts from those parameters instead of random restarts.  A symbol
    outside ``[0, n_o)`` raises ``ValueError``.
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
    for obs in groups:
        bad = obs[(obs < 0) | (obs >= n_o)]
        if bad.size:
            raise ValueError(f"symbol {bad[0]} outside alphabet of size {n_o}")

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
