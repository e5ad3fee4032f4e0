"""Explicit-duration EM baseline (forward-backward on the joint lattice).

The E-step runs the scaled forward-backward recursion of Rabiner (1989) over
the joint ``(x, d)`` pairs, vectorized across equal-length sequences.
Transitions with ``d > 1`` are deterministic and carry no parameter
information, so the M-step only accumulates renewal statistics (transitions
and duration draws out of ``d == 1``), the initial pair occupancy, and
emission counts.  The initial duration is treated as a fresh renewal draw,
matching the generative model's default prior.

Each forward step is one matmul and one emission multiply.  The message is
divided by its row mass only every :data:`RESCALE_EVERY` steps; after the
loop one matmul against a ones column reads every step's row mass, and the
per-step recursion's scales, the log likelihood and the renewal block of the
normalised ``alpha`` follow from those masses.  A chunk whose row mass falls
under :data:`MASS_FLOOR` between divisions is redone dividing at every step.
The backward loop turns each step's emissions into ``beta[t+1] * E[t+1] /
scale[t+1]`` in place and multiplies that by the transition matrix.  Every
sufficient statistic is then formed once per chunk over all its steps and
sequences: one ``(S, n_x)`` matmul holds both renewal tables, one matmul
folds the posterior over durations, and a ``bincount`` per state gives the
emission counts.

A pass takes and returns plain ``(O, X, D, pi_x)`` arrays: the joint kernel
is :func:`~hsmm_spectral.hsmm.renewal_kernel` of ``X`` and ``D``.  A random
restart starts from the tables of :func:`~hsmm_spectral.hsmm.random_tables`,
and an :class:`HsmmParams` is made only for each restart's result.  Per step
of a sequence a chunk holds three joint-space rows (emissions, ``alpha``,
and ``beta``, which becomes the posterior), the folded posterior, and three
scalars; :func:`_chunked` sizes chunks so that all of it stays within
:data:`CHUNK_ENTRIES` float64 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .hsmm import (
    HsmmParams,
    InvalidModel,
    SequenceFile,
    forward_loglik_batch,
    joint_states,
    random_tables,
    renewal_kernel,
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
        if self.seed < 0:
            raise InvalidModel(f"seed must be non-negative, got {self.seed}")


def _normalize_columns(acc: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    sums = acc.sum(axis=0)
    return np.divide(acc, sums, out=fallback.copy(), where=sums > 0)


# float64 entries one chunk of an EM pass may hold: 64 MB
CHUNK_ENTRIES = 8_000_000

# forward steps between divisions of the message by its row mass
RESCALE_EVERY = 8

# least row mass a forward message may reach between divisions; under it the
# chunk is redone dividing every step.  Above it, entries down to 2**-511 of
# their row mass are still normal floats
MASS_FLOOR = 2.0**-511


class _Lattice(NamedTuple):
    """Tables of the joint ``(x, d)`` space, made once per fit."""

    states: np.ndarray  # [(d, x)] -> x: gathers O's columns onto the lattice
    fold: np.ndarray  # [(d, x), x]: sums a joint row over d
    ones: np.ndarray  # (S, 1): row masses by matmul


def _lattice(n_x: int, n_d: int) -> _Lattice:
    states = joint_states(n_x, n_d)
    return _Lattice(states=states, fold=np.eye(n_x)[states], ones=np.ones((states.size, 1)))


def _chunked(groups, n_x: int, S: int) -> list[np.ndarray]:
    """Split sequence batches so a pass holds at most ``CHUNK_ENTRIES`` entries.

    Chunks are time-major ``(T, n)`` copies.  Per step of each sequence
    :func:`_expectations` holds ``3 * S`` entries (emissions, ``alpha``,
    ``beta``), ``n_x`` for the folded posterior (before it, for the renewal
    block of ``alpha``) and 3 for the scale, the row mass and the
    posterior's norm.  A chunk is at least one sequence.
    """
    per_step = 3 * S + n_x + 3
    chunks = []
    for obs in groups:
        n, T = obs.shape
        cap = max(1, CHUNK_ENTRIES // (T * per_step))
        chunks.extend(obs[i : i + cap].T.copy() for i in range(0, n, cap))
    return chunks


def _forward(E, k1, VT, ones):
    """Forward messages of one chunk, divided by their row mass only at times.

    Returns the messages, each with its row mass, and each step's scale:
    its message's mass over the previous step's normalised message, the
    factor the per-step recursion divides by.  A message is divided every
    :data:`RESCALE_EVERY` steps; if a row mass falls under
    :data:`MASS_FLOOR` the chunk is redone dividing every step.
    """
    T, n, S = E.shape
    alphas = np.empty_like(E)
    for every in (RESCALE_EVERY, 1):
        scales = np.ones((T, n, 1))  # the masses divided by, where divided
        np.multiply(E[0], k1, out=alphas[0])
        # a row that underflows to 0 divides 0 by 0; dividing every step, as
        # the per-step recursion does, reports what is left
        with np.errstate(invalid="ignore" if every > 1 else None):
            for t in range(T):
                a = alphas[t]
                if t % every == 0:
                    c = scales[t]
                    np.matmul(a, ones, out=c)
                    a /= c
                if t < T - 1:
                    b = alphas[t + 1]
                    np.matmul(a, VT, out=b)
                    b *= E[t + 1]
        mass = (alphas.reshape(T * n, S) @ ones).reshape(T, n, 1)
        scales *= mass  # each step's mass before any division
        if every == 1 or scales.min() >= MASS_FLOOR:
            break
    scales[1:] /= mass[:-1]
    return alphas, mass, scales


def _expectations(obsT, V, VT, em, k1, lat):
    """E-step over one time-major chunk of equal-length sequences.

    Returns the log likelihood, the renewal products ``[(d', x'), x]`` (each
    step's ``beta * E / scale`` against the ``d == 1`` block of the
    normalised ``alpha``), the emission counts ``[symbol, x]`` and the first
    step's posterior summed over sequences.  Its arrays are freed on return,
    before the next chunk allocates its own.
    """
    T, n = obsT.shape
    n_o, S = em.shape
    n_x = lat.fold.shape[1]
    E = np.take(em, obsT, axis=0)  # (T, n, S)
    alphas, mass, scales = _forward(E, k1, VT, lat.ones)
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
    # the d == 1 block of the normalised alpha as [x, (t, sequence)]: written
    # row-major, the division runs along (t, sequence) instead of along x
    a1 = np.empty((n_x, rows))
    np.divide(alphas[:-1, :, :n_x].reshape(rows, n_x).T, mass[:-1].ravel(), out=a1)
    renew = E[1:].reshape(rows, S).T @ a1.T
    del a1  # gx below takes its place
    # the posterior up to each row's mass, which the norm below removes
    gamma = np.multiply(alphas, betas, out=betas).reshape(T * n, S)
    gx = lat.fold.T @ gamma.T  # [x, (t, sequence)]: posterior summed over d
    norm = gx.sum(axis=0)
    gx /= norm
    symbols = obsT.ravel()
    counts = np.stack(
        [np.bincount(symbols, weights=g, minlength=n_o) for g in gx], axis=1
    )
    gamma0 = gamma[:n].T @ (1.0 / norm[:n])
    return loglik, renew, counts, gamma0


def _em_pass(params, first, chunks, lat):
    """One E+M step; returns the updated ``(O, X, D, pi_x)`` and the loglik before.

    ``params`` are the current ``(O, X, D, pi_x)`` arrays and ``first`` the
    table the first duration is drawn from (``D`` after the first pass).
    """
    O, X, D, pi = params
    n_d, n_x = D.shape
    V = renewal_kernel(X, D)
    block = V[:, :n_x].reshape(n_d, n_x, n_x)  # [d', x', x]: out of (x, 1) into (x', d')
    em = O.take(lat.states, axis=1)  # [symbol, (d, x)]
    k1 = (first * pi).ravel()
    VT = V.T.copy()  # both layouts contiguous: matmul is slower on a transposed view
    stats = [_expectations(obs, V, VT, em, k1, lat) for obs in chunks]
    loglik, renew, o_acc, gamma0 = (sum(parts) for parts in zip(*stats))
    # q[d', x', x] = r[d', x', x] D[d', x'] X[x', x], the expected renewals out
    # of x into (x', d'): summed over d' it is X's count, over x D's
    q = renew.reshape(n_d, n_x, n_x) * block
    g0 = gamma0.reshape(n_d, n_x)
    pi_acc = g0.sum(axis=0)
    updated = (
        _normalize_columns(o_acc, O),
        _normalize_columns(q.sum(axis=0), X),
        _normalize_columns(q.sum(axis=2) + g0, D),
        pi_acc / pi_acc.sum() if pi_acc.sum() > 0 else pi,
    )
    return updated, loglik


def _loglik(p: HsmmParams, chunks) -> float:
    return sum(float(forward_loglik_batch(p, obsT.T).sum()) for obsT in chunks)


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
    starts from those parameters instead of random restarts; an ``init`` of
    another ``(n_o, n_x, n_d)`` raises :class:`InvalidModel`.  A symbol
    outside ``[0, n_o)``, one that is not an integer, or an empty sequence
    raises ``ValueError``.
    """
    if n_x < 1 or n_d < 1:
        raise InvalidModel(f"n_x={n_x} and n_d={n_d} must be at least 1")
    if n_x > n_o:
        raise InvalidModel(f"n_x={n_x} exceeds n_o={n_o}")
    if init is not None and (init.n_o, init.n_x, init.n_d) != (n_o, n_x, n_d):
        raise InvalidModel(
            f"init has (n_o, n_x, n_d) = {(init.n_o, init.n_x, init.n_d)}, "
            f"expected {(n_o, n_x, n_d)}"
        )
    seqs = SequenceFile.of(sequences)
    if not len(seqs):
        raise InvalidModel("no training sequences")
    empty = np.flatnonzero(seqs.lengths == 0)
    if empty.size:
        raise ValueError(f"sequence {empty[0]} is empty")
    seqs.check_alphabet(n_o)
    # one (n, T) group per length, in order of each length's first sequence
    lengths, first = np.unique(seqs.lengths, return_index=True)
    groups = [
        seqs.values[seqs.offsets[:-1][seqs.lengths == T][:, None] + np.arange(T)]
        for T in lengths[np.argsort(first)].tolist()
    ]
    chunks = _chunked(groups, n_x, n_x * n_d)
    del groups  # the chunks hold copies
    lat = _lattice(n_x, n_d)

    # each start's (O, X, D, pi_x) and first-duration table
    if init is not None:
        starts = [((init.O, init.X, init.D, init.pi_x), init.initial_duration_table())]
    else:
        rng = np.random.default_rng(cfg.seed)
        # C-order copies: no restart holds a transposed view of a draw
        draws = [[np.ascontiguousarray(t) for t in random_tables(n_o, n_x, n_d, rng)]
                 for _ in range(cfg.restarts)]
        starts = [(tables, tables[2]) for tables in draws]
    best: tuple[float, HsmmParams, np.ndarray] | None = None
    for params, first in starts:
        trace = []
        for _ in range(cfg.max_iter):
            updated, ll = _em_pass(params, first, chunks, lat)
            if trace:
                slack = 1e-9 * max(1.0, abs(trace[-1]))
                if ll < trace[-1] - slack:
                    raise MonotonicityViolation(
                        f"log-likelihood fell from {trace[-1]} to {ll}"
                    )
            improved = not trace or (ll - trace[-1]) > cfg.tol * abs(trace[-1])
            trace.append(ll)
            params, first = updated, updated[2]
            if not improved:
                break
        O, X, D, pi_x = params
        current = HsmmParams(O=O, X=X, D=D, pi_x=pi_x)
        final_ll = _loglik(current, chunks)
        trace.append(final_ll)
        if best is None or final_ll > best[0]:
            best = (final_ll, current, np.array(trace))
    return best[1], best[2]
