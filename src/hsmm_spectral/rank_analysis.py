"""Constructive rank verification for the windowed conditional factors.

The conditional table of scheduled future observations factors through
``Q @ T``: a Kronecker power of the emission matrix times the table ``T`` of
selected future hidden states given the current ``(x, d)`` pair.  ``T`` is
grown by alternating two operations on the lifted chain:

* propagate: ``T <- T @ V`` advances the conditioning pair one step back,
* expand: ``T <- khatri_rao_cols(T, E)`` freezes a copy of the current
  state into the row multi-index.

The sequential variant expands at every step and gains rank ``n_x`` per
observation; the efficient variant spaces expansions geometrically (at
cumulative step counts ``n_x**c - 1``, clamped to the horizon), which
multiplies the achievable rank by ``n_x`` per expansion and realizes
exactly the geometric window offsets.

The predicted-rank formulas assume at least two hidden states: with
``n_x == 1`` every future-state table is an all-ones row of rank one, the
growth arguments behind both formulas are vacuous, and every prediction
is one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hsmm import (
    HsmmParams,
    InvalidModel,
    joint_states,
    next_state_table,
    random_model,
    renewal_kernel,
)
from .moments import ObservationSchedule, build_schedule
from .tensors import khatri_rao_cols, numerical_rank

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class TReport:
    T: np.ndarray
    predicted_rank: int
    numerical_rank: int
    algorithm: str
    ell: int
    offsets: tuple[int, ...]


def _t_from_marks(
    p: HsmmParams, marks: Sequence[int], total_steps: int
) -> np.ndarray:
    """Grow T by propagations with expansions at the given cumulative steps.

    Step counting starts at 1 for the initial one-step table.  Rows come out
    with the earliest frozen state as the fastest index; they are permuted
    so ascending positions map to row-major digits (earliest slowest),
    matching the window-code convention used everywhere else.
    """
    V = renewal_kernel(p.X, p.D)
    E = np.eye(p.n_x)[:, joint_states(p.n_x, p.n_d)]
    T = next_state_table(p)
    s = 1
    for mark in marks:
        for _ in range(mark - s):
            T = T @ V
        s = max(mark, s)
        T = khatri_rao_cols(T, E)
    for _ in range(total_steps - s):
        T = T @ V
    rows = len(marks) + 1
    if rows > 1:
        cube = T.reshape((p.n_x,) * rows + (p.n_joint,))
        T = cube.transpose(tuple(range(rows - 1, -1, -1)) + (rows,)).reshape(
            p.n_x**rows, p.n_joint
        )
    return T


def _positions(marks: Sequence[int], total_steps: int) -> tuple[int, ...]:
    pos = [total_steps] + [total_steps - m for m in marks]
    low = min(pos)
    return tuple(sorted(set(q - low for q in pos)))


def compute_T_sequential(p: HsmmParams, ell: int) -> TReport:
    """Expansion before every propagation: consecutive future states."""
    if ell < 1:
        raise InvalidModel("ell must be at least 1")
    marks = list(range(1, ell))
    T = _t_from_marks(p, marks, ell)
    return TReport(
        T=T,
        predicted_rank=1 if p.n_x == 1 else min(ell * p.n_x, p.n_joint),
        numerical_rank=numerical_rank(T, RANK_RTOL),
        algorithm="sequential",
        ell=ell,
        offsets=_positions(marks, ell),
    )


def _efficient_marks(n_x: int, n_d: int, ell: int) -> tuple[list[int], int]:
    if n_x == 1:
        return list(range(1, ell)), ell  # geometric rule degenerates
    marks = []
    s = 1
    for c in range(1, ell):
        target = min(n_x**c - 1, n_d - 1)
        target = max(target, s)
        marks.append(target)
        s = target
    return marks, s


def compute_T_efficient(p: HsmmParams, ell: int) -> TReport:
    """Geometrically spaced expansions; rank grows by powers of ``n_x``.

    Expansions fire when the cumulative step count reaches ``n_x**c - 1``
    (the initial table counts as step one); the last expansion is forced at
    the horizon ``n_d - 1`` when the geometric target would overshoot it,
    so the realized positions match the geometric window offsets.
    """
    if ell < 1:
        raise InvalidModel("ell must be at least 1")
    marks, total = _efficient_marks(p.n_x, p.n_d, ell)
    T = _t_from_marks(p, marks, total)
    expansions = len(marks)
    return TReport(
        T=T,
        predicted_rank=min(p.n_x ** (expansions + 1), p.n_joint),
        numerical_rank=numerical_rank(T, RANK_RTOL),
        algorithm="efficient",
        ell=ell,
        offsets=_positions(marks, total),
    )


def build_F(p: HsmmParams, offsets: Sequence[int]) -> tuple[np.ndarray, TReport]:
    """Windowed conditional ``Q @ T`` for arbitrary offsets, with rank report.

    Entry ``[w, (x, d)]`` is the probability of composite window code ``w``
    at relative positions ``1 + offset`` given the pair ``(x, d)``; it
    matches the direct forward marginalization of the chain.  The offsets
    follow :class:`~hsmm_spectral.moments.ObservationSchedule`'s rule.
    """
    offs = ObservationSchedule(p.n_x, p.n_d, tuple(offsets)).right_offsets
    d_max = offs[-1]
    marks = sorted(d_max - o for o in offs if o < d_max)
    T = _t_from_marks(p, marks, 1 + d_max)
    q = np.array([[1.0]])
    for _ in range(len(offs)):
        q = np.kron(q, p.O)
    F = q @ T
    report = TReport(
        T=T,
        predicted_rank=min(p.n_x ** len(offs), p.n_joint),
        numerical_rank=numerical_rank(F, RANK_RTOL),
        algorithm="offsets",
        ell=len(offs),
        offsets=offs,
    )
    return F, report


def rank_grid(
    n_x_values: Iterable[int] = (2, 3, 4),
    n_d_values: Iterable[int] = (2, 3, 4, 5, 6),
    seeds: Iterable[int] = (0, 1, 2, 3, 4),
) -> list[dict]:
    """Numerical rank sweep for both T algorithms and the scheduled F.

    One row per (n_x, n_d, ell, algorithm, seed).  A draw whose rank misses
    the prediction is retried once with a shifted seed; a second miss is
    reported as a failure (possible measure-zero degeneracy).  Models are
    drawn with :func:`~hsmm_spectral.hsmm.random_model`'s defaults.
    """
    rows = []
    for n_x in n_x_values:
        for n_d in n_d_values:
            sched = build_schedule(n_x, n_d)
            # (algorithm, ell, the report of a drawn model), in row order
            cells = [
                (algo, ell, functools.partial(runner, ell=ell))
                for algo, runner in (("sequential", compute_T_sequential),
                                     ("efficient", compute_T_efficient))
                for ell in range(1, n_d + 2)
            ]
            cells.append(("schedule-F", sched.ell, lambda p: build_F(p, sched.right_offsets)[1]))
            for seed in seeds:
                for algo, ell, report in cells:
                    ok, predicted, observed = _grid_cell(report, n_x, n_d, seed)
                    rows.append(
                        {
                            "n_x": n_x,
                            "n_d": n_d,
                            "ell": ell,
                            "algorithm": algo,
                            "seed": seed,
                            "predicted": predicted,
                            "observed": observed,
                            "pass": ok,
                        }
                    )
    return rows


def _grid_cell(report, n_x, n_d, seed):
    """Whether the draw's rank (or, on a miss, a shifted seed's) meets the prediction."""
    for s in (seed, seed + 7919):
        rep = report(random_model(n_x + 1, n_x, n_d, seed=s))
        if rep.numerical_rank == rep.predicted_rank:
            return True, rep.predicted_rank, rep.numerical_rank
    return False, rep.predicted_rank, rep.numerical_rank
