"""Hidden semi-Markov model parameters, sampling, and exact likelihood.

The latent chain carries a pair ``(x, d)``: the state ``x`` and a duration
down-counter ``d``.  While ``d > 1`` the state is frozen and the counter
decrements; at ``d == 1`` a new state is drawn from the transition table and
a fresh duration from the duration table.  All parameter matrices are
column-stochastic: ``O[o, x] = p(o | x)``, ``X[x', x] = p(x' | x)`` at a
renewal, ``D[d, x] = p(d | x)`` at a renewal (rows are 1-based durations).

Joint ``(x, d)`` vectors are flattened with ``x`` fastest:
``flat = (d - 1) * n_x + x``.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensors import ShapeMismatch, spectrum_rank


class ModelError(Exception):
    """Base class for model-layer errors."""


class InvalidModel(ModelError):
    """Parameters violate a precondition (shapes aside)."""


class GenerationFailed(ModelError):
    """Rejection sampling exhausted its retry budget."""


_STOCH_ATOL = 1e-12

# the model's distributions, in the order validate reports them
_TABLES = ("O", "X", "D", "pi_x", "pi_d")


@dataclass(frozen=True, eq=False)
class HsmmParams:
    """Ground-truth model parameters.

    Models compare and hash by identity, as their tables are arrays.

    Parameters
    ----------
    O : ndarray, shape (n_o, n_x)
        Emission probabilities, column-stochastic.
    X : ndarray, shape (n_x, n_x)
        Renewal state transition, column-stochastic.
    D : ndarray, shape (n_d, n_x)
        Renewal duration distribution, column-stochastic.
    pi_x : ndarray, shape (n_x,)
        Initial state distribution.
    pi_d : ndarray, shape (n_d, n_x), optional
        Explicit initial duration table; when omitted the first duration is
        drawn from ``D`` (a fresh renewal at t=1).
    """

    O: np.ndarray
    X: np.ndarray
    D: np.ndarray
    pi_x: np.ndarray
    pi_d: np.ndarray | None = None

    def __post_init__(self):
        for name in _TABLES:
            table = getattr(self, name)
            if table is not None:
                table = np.array(table, dtype=float)
                table.flags.writeable = False
                object.__setattr__(self, name, table)
        if self.O.ndim != 2 or self.X.ndim != 2 or self.D.ndim != 2:
            raise ShapeMismatch("O, X, D must be matrices")
        n_o, n_x = self.O.shape
        if self.X.shape != (n_x, n_x):
            raise ShapeMismatch(f"X must be ({n_x}, {n_x}), got {self.X.shape}")
        if self.D.shape[1] != n_x:
            raise ShapeMismatch(f"D must have {n_x} columns, got {self.D.shape}")
        if self.pi_x.shape != (n_x,):
            raise ShapeMismatch(f"pi_x must have length {n_x}")
        if self.pi_d is not None and self.pi_d.shape != self.D.shape:
            raise ShapeMismatch(f"pi_d must match D's shape {self.D.shape}")

    @property
    def n_o(self) -> int:
        return self.O.shape[0]

    @property
    def n_x(self) -> int:
        return self.O.shape[1]

    @property
    def n_d(self) -> int:
        return self.D.shape[0]

    @property
    def n_joint(self) -> int:
        return self.n_x * self.n_d

    def initial_duration_table(self) -> np.ndarray:
        """Table the first duration is drawn from (``pi_d`` or ``D``)."""
        return self.D if self.pi_d is None else self.pi_d

    @cached_property
    def _stochastic(self) -> tuple[CheckResult, ...]:
        """:func:`validate`'s ``stochastic[...]`` checks, made once: each column sums to one."""
        checks = []
        for name in _TABLES:
            table = getattr(self, name)
            if table is not None:
                err = float(np.max(np.abs(table.sum(axis=0) - 1.0)))
                ok = err <= _STOCH_ATOL and float(table.min()) >= 0.0
                checks.append(CheckResult(f"stochastic[{name}]", ok, err,
                                          "column sums and nonnegativity"))
        return tuple(checks)

    @cached_property
    def _cuts(self) -> dict[str, tuple[np.ndarray, list]]:
        """Cut points of the tables the samplers draw from, as an array and as lists of its columns.

        Column ``c`` of the ``(n_cuts, n_cols)`` array holds the running sums
        of the table's column ``c`` but the total, so a uniform draws the
        number of cut points below it: the number of running sums below it,
        clamped to the last index.  The lists hold one column each, for
        ``bisect``.  Keyed ``pi_x`` (one column), ``first`` (the
        first-duration table), ``O``, ``X`` and ``D``.  A model that fails a
        ``stochastic[...]`` check is :class:`InvalidModel`.
        """
        unfit = [c.name for c in self._stochastic if not c.passed]
        if unfit:
            raise InvalidModel(f"cannot sample from a model that fails {', '.join(unfit)}")
        out = {}
        for name, table in (("pi_x", self.pi_x[:, None]), ("first", self.initial_duration_table()),
                            ("O", self.O), ("X", self.X), ("D", self.D)):
            cuts = np.cumsum(table, axis=0)[:-1]
            out[name] = cuts, cuts.T.tolist()
        return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status:4s}  {c.name:24s} {c.value:.3e}  {c.detail}")
        return "\n".join(lines)


def _singular_values(a: np.ndarray) -> np.ndarray:
    """``a``'s singular values; all NaN if ``a`` has a non-finite entry, which has no SVD."""
    if np.isfinite(a).all():
        return np.linalg.svd(a, compute_uv=False)
    return np.full(min(a.shape), np.nan)


def validate(p: HsmmParams, rtol: float = 1e-10) -> ValidationReport:
    """Check stochasticity and the three structural assumptions.

    A1: the renewal transition has full numerical rank.  A2: every duration
    has positive probability in every state.  A3: the emission matrix has
    full column rank (which requires ``n_x <= n_o``).  Each rank check and
    its ``sigma_min`` read one set of singular values; a table with a
    non-finite entry fails its rank check with ``sigma_min`` NaN.
    """
    checks = list(p._stochastic)
    s_x = _singular_values(p.X)
    checks.append(
        CheckResult(
            "A1[rank X]",
            spectrum_rank(s_x, rtol) == p.n_x,
            float(s_x.min()),
            "sigma_min of X",
        )
    )
    d_min = float(p.D.min())
    checks.append(CheckResult("A2[D positive]", d_min > 0.0, d_min, "min entry of D"))
    s_o = _singular_values(p.O)
    a3_ok = p.n_x <= p.n_o and spectrum_rank(s_o, rtol) == p.n_x
    checks.append(CheckResult("A3[rank O]", a3_ok, float(s_o.min()), "sigma_min of O"))
    return ValidationReport(tuple(checks))


def random_tables(n_o: int, n_x: int, n_d: int, rng, no_self_transitions: bool = False):
    """One draw of ``(O, X, D, pi_x)`` with Dirichlet(1) columns, in that order.

    With ``no_self_transitions`` (and ``n_x > 1``) ``X``'s diagonal is zeroed
    and its columns renormalised.
    """
    O = rng.dirichlet(np.ones(n_o), size=n_x).T
    X = rng.dirichlet(np.ones(n_x), size=n_x).T
    if no_self_transitions and n_x > 1:
        X = X * (1.0 - np.eye(n_x))
        X = X / X.sum(axis=0, keepdims=True)
    D = rng.dirichlet(np.ones(n_d), size=n_x).T
    pi_x = rng.dirichlet(np.ones(n_x))
    return O, X, D, pi_x


def random_model(
    n_o: int,
    n_x: int,
    n_d: int,
    seed: int,
    min_sigma: float = 0.05,
    no_self_transitions: bool = False,
) -> HsmmParams:
    """Draw a well-conditioned model with :func:`random_tables`.

    Rejection-resamples until ``sigma_min(O) >= min_sigma``,
    ``sigma_min(X) >= min_sigma`` and every duration probability is at least
    1e-3.  Deterministic given ``seed``.
    """
    if n_x > n_o:
        raise InvalidModel(f"n_x={n_x} exceeds n_o={n_o}; emissions cannot identify states")
    if min(n_o, n_x, n_d) < 1:
        raise InvalidModel("dimensions must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        O, X, D, pi_x = random_tables(n_o, n_x, n_d, rng, no_self_transitions)
        if np.linalg.svd(O, compute_uv=False).min() < min_sigma:
            continue
        if n_x > 1 and np.linalg.svd(X, compute_uv=False).min() < min_sigma:
            continue
        if D.min() < 1e-3:
            continue
        return HsmmParams(O=O, X=X, D=D, pi_x=pi_x)
    raise GenerationFailed(
        f"no model with sigma_min >= {min_sigma} found in 1000 draws"
    )


# ---------------------------------------------------------------------------
# lifted kernels on the joint (x, d) space


def joint_states(n_x: int, n_d: int) -> np.ndarray:
    """``[(x, d)] -> x``: the state of each flat joint index."""
    return np.tile(np.arange(n_x), n_d)


def renewal_kernel(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """One-step kernel ``[(x', d'), (x, d)]`` of a renewal table ``X`` and durations ``D``.

    Out of ``d > 1`` the counter decrements (the ``n_x``-th superdiagonal);
    out of ``(x, 1)`` the chain moves to ``(x', d')`` with probability
    ``D[d', x'] X[x', x]`` (the first column block).  With ``X`` the
    identity it is the duration update alone.
    """
    n_d, n_x = D.shape
    S = n_x * n_d
    out = np.eye(S, k=n_x)
    out[:, :n_x] = (D[:, :, None] * X).reshape(S, n_x)
    return out


def state_update_matrix(p: HsmmParams) -> np.ndarray:
    """``[(x', d), (x, d)] -> p(x' | x, d)``: renewal transition at d=1, else identity."""
    out = np.eye(p.n_joint)
    out[: p.n_x, : p.n_x] = p.X
    return out


def next_state_table(p: HsmmParams) -> np.ndarray:
    """``[x', (x, d)] -> p(x_{t+1} = x' | x_t = x, d_t = d)``."""
    out = np.eye(p.n_x)[:, joint_states(p.n_x, p.n_d)]
    out[:, : p.n_x] = p.X
    return out


def initial_joint(p: HsmmParams) -> np.ndarray:
    """Distribution of the first (x, d) pair, flattened."""
    table = p.initial_duration_table()
    return (table * p.pi_x[None, :]).reshape(-1)


def emissions_on_joint(p: HsmmParams) -> np.ndarray:
    """``[symbol, (x, d)] -> p(symbol | x)``: the emission table lifted to the joint space."""
    return p.O[:, joint_states(p.n_x, p.n_d)]


# ---------------------------------------------------------------------------
# sampling


def _pick(cuts: np.ndarray, cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sample uniform ``u[i]`` draws from column ``cols[i]`` of a table's ``cuts``.

    One ``take`` gathers the columns, cut-major, and the cut points below each
    uniform are counted down the short leading axis, in bytes while a count
    fits in one.
    """
    count = np.uint8 if cuts.shape[0] < 256 else np.intp
    return (u > cuts.take(cols, axis=1)).sum(axis=0, dtype=count).astype(np.intp, copy=False)


def _draw(cuts: np.ndarray, cols: np.ndarray, rng) -> np.ndarray:
    """Vectorized draw: one sample from column ``c`` of the table, for each c in ``cols``."""
    return _pick(cuts, cols, rng.random(cols.shape[0]))


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` over the pairs (empty where stop <= start)."""
    lengths = np.maximum(stops - starts, 0)
    ends = np.cumsum(lengths)
    total = ends[-1] if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


# A call on at most _FEW_ROWS rows steps them from renewal to renewal in Python
# scalars, where the per-step loop's fixed cost of numpy rounds outweighs the
# scalar work per row; fitted to a sweep of both loops on one BLAS thread
# (CHANGES.md).
_FEW_ROWS = 32
# table entries one emission pass gathers, 512 KB; the few-row loop's block of
# uniforms per pass is at most 3 / n_o of it
_DRAW_ENTRIES = 1 << 16


def sample_many(
    p: HsmmParams, n_sequences: int, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n_sequences`` independent length-``T`` sequences, vectorized.

    The model's cut points are made once per model; every step only gathers
    the columns of the current states.  ``T < 1``, a negative count and a
    model that fails a ``stochastic[...]`` check of :func:`validate` raise
    :class:`InvalidModel`; A1-A3 are not needed.

    The uniforms are read from ``rng`` in one order, whichever loop runs:
    the first state of every row, then the first duration of every row;
    then at each step the renewal state of each renewing row in row order,
    then the renewal durations of the same rows, then the emission of every
    row.  A value is drawn from a column's running sums as the number of
    sums below its uniform, clamped to the last index.  So the result and
    the generator's state after the call do not depend on the loop.  Calls
    on at most :data:`_FEW_ROWS` rows take :func:`_sample_few`, which reads
    its uniforms from blocks drawn ahead and hands the unread ones back;
    others take one numpy round per table per step.  For any NumPy bit
    generator, ``rng.random(k)`` gives the doubles of ``k`` one-by-one
    draws, so neither way of reading changes the stream.  On a (3,2,2)
    model a one-row call of 100 steps takes about 0.15 ms and a 4000-row
    one about 10 ms (1 BLAS thread, 2 vCPUs).
    """
    cuts, x, d = _first_draws(p, n_sequences, T, rng)
    if 0 < n_sequences <= _FEW_ROWS:
        return _sample_few(cuts, x, d, T, rng)
    O, X, D = (cuts[name][0] for name in "OXD")
    obs = np.empty((n_sequences, T), dtype=np.int64)
    for t in range(T):
        if t > 0:
            renew = d == 1
            d -= 1
            if np.any(renew):
                xr = _draw(X, x[renew], rng)
                x[renew] = xr
                d[renew] = _draw(D, xr, rng) + 1
        obs[:, t] = _draw(O, x, rng)
    return obs


def _first_draws(p: HsmmParams, n_sequences: int, T: int, rng):
    """The samplers' refusals, the model's cut points, and each row's first state and duration."""
    if T < 1:
        raise InvalidModel("T must be at least 1")
    if n_sequences < 0:
        raise InvalidModel(f"n_sequences must be non-negative, got {n_sequences}")
    cuts = p._cuts
    x = _draw(cuts["pi_x"][0], np.zeros(n_sequences, dtype=int), rng)
    return cuts, x, _draw(cuts["first"][0], x, rng) + 1


def _sample_few(cuts: dict, x, d, T: int, rng) -> np.ndarray:
    """:func:`sample_many`'s rows after their first draws, stepped from renewal to renewal.

    ``cuts`` are the model's cut points, and ``x`` and ``d`` the first
    states and durations.  A row with duration ``d`` at step ``t`` renews at
    step ``t + d``, and up to the next renewal of any row no state changes.
    The steps go in passes of at most :data:`_DRAW_ENTRIES` gathered
    emission table entries.  Each pass draws one block of uniforms, as many
    as it could read (two per renewal and one per emission, so three per row
    and step), and walks its renewals in Python scalars, reading the block's
    uniforms in the stream's order with ``bisect`` on the cut columns.  A
    segment of steps between renewals reads its emission uniforms as one run
    of the block, so the pass draws its emissions with one :func:`_pick`
    over each segment's states and its run.  The generator is then set back
    to its state before the block and advanced by the uniforms read, which
    leaves it where reading them one by one would.
    """
    n = x.shape[0]
    obs = np.empty((n, T), dtype=np.int64)
    O, x_cols, d_cols = cuts["O"][0], cuts["X"][1], cuts["D"][1]
    bisect_left = bisect.bisect_left
    x, until = x.tolist(), d.tolist()  # each row's state and its next renewal step
    n_o = O.shape[0] + 1  # a cut column holds all but the last running sum
    width = min(T, max(1, _DRAW_ENTRIES // (n * n_o)))  # steps per pass
    for start in range(0, T, width):
        stop = min(start + width, T)
        saved = rng.bit_generator.state
        block = rng.random(3 * n * (stop - start))
        v = block.tolist()
        at = 0  # uniforms of the block read so far
        steps, runs, states = [], [], []  # each segment's first step, run start and states
        t = start
        while t < stop:
            renew = [i for i in range(n) if until[i] == t]
            k = len(renew)
            for r, i in enumerate(renew):
                xi = x[i] = bisect_left(x_cols[x[i]], v[at + r])
                until[i] = t + 1 + bisect_left(d_cols[xi], v[at + k + r])
            at += 2 * k
            s = min(min(until), stop)
            steps.append(t)
            runs.append(at)
            states += x
            at += (s - t) * n
            t = s
        rng.bit_generator.state = saved
        rng.random(at)
        lengths = np.diff(steps + [stop])
        runs = np.array(runs)
        u = block[_ranges(runs, runs + lengths * n)]
        states = np.repeat(np.array(states, dtype=np.intp).reshape(-1, n), lengths, axis=0)
        obs[:, start:stop] = _pick(O, states.reshape(-1), u).reshape(stop - start, n).T
    return obs


# ---------------------------------------------------------------------------
# exact likelihood


def _oracle_symbols(p: HsmmParams, sequences) -> "SequenceFile":
    """The stream of ``sequences``; a symbol not in ``[0, n_o)`` is :class:`InvalidModel`.

    So is one that is not an integer.  The message is the one
    :meth:`SequenceFile.of` or :meth:`SequenceFile.check_alphabet` gives.
    """
    try:
        return SequenceFile.of(sequences).check_alphabet(p.n_o)
    except ValueError as exc:
        raise InvalidModel(str(exc)) from None


def _forward_step(p: HsmmParams, alpha: np.ndarray) -> np.ndarray:
    """One joint-lattice step exploiting the kernel's structure.

    Rows with ``d > 1`` just shift down the counter; renewals (``d == 1``)
    spread through the transition and draw a fresh duration, so a step
    costs O(n_x * n_d + n_x**2) instead of a dense (n_x*n_d)**2 product.
    ``alpha`` has shape (..., n_d, n_x).
    """
    renew = alpha[..., 0, :] @ p.X.T  # mass entering each new state
    out = np.empty_like(alpha)
    out[..., : p.n_d - 1, :] = alpha[..., 1:, :]
    out[..., p.n_d - 1, :] = 0.0
    out += renew[..., None, :] * p.D
    return out


def forward_likelihood(
    p: HsmmParams, obs: Sequence[int]
) -> tuple[float, float | None]:
    """Scaled forward recursion over the joint (x, d) lattice.

    Returns the natural-log likelihood and, when representable in float64,
    the plain probability.  A symbol that is not an integer in ``[0, n_o)``
    raises :class:`InvalidModel`.
    """
    obs = _oracle_symbols(p, np.asarray(obs)[None]).values
    if len(obs) < 1:
        raise InvalidModel("empty observation sequence")
    table = p.initial_duration_table()
    alpha = (table * p.pi_x[None, :]) * p.O[int(obs[0]), None, :]
    loglik = 0.0
    for t in range(1, len(obs) + 1):
        c = alpha.sum()
        if c <= 0.0:
            return -math.inf, 0.0
        loglik += math.log(c)
        alpha = alpha / c
        if t < len(obs):
            alpha = _forward_step(p, alpha) * p.O[int(obs[t]), None, :]
    prob = math.exp(loglik) if loglik > math.log(np.finfo(float).tiny) else None
    return loglik, prob


def forward_loglik_batch(p: HsmmParams, obs: np.ndarray) -> np.ndarray:
    """Log-likelihoods of equal-length sequences, vectorized over rows.

    A row the model cannot emit is ``-inf``, as in :func:`forward_likelihood`,
    and a symbol that is not an integer in ``[0, n_o)`` raises
    :class:`InvalidModel`.
    """
    obs = np.asarray(obs)
    n, T = obs.shape
    obs = _oracle_symbols(p, obs).values.reshape(n, T)
    table = p.initial_duration_table()
    alpha = (table * p.pi_x[None, :])[None, :, :] * p.O[obs[:, 0], None, :]
    loglik = np.zeros(n)
    dead = np.zeros(n, dtype=bool)
    for t in range(1, T + 1):
        c = alpha.sum(axis=(1, 2))
        # a dead row's alpha is zero and stays zero: divide it by one
        dead |= c <= 0.0
        c[dead] = 1.0
        loglik += np.log(c)
        alpha = alpha / c[:, None, None]
        if t < T:
            alpha = _forward_step(p, alpha) * p.O[obs[:, t], None, :]
    loglik[dead] = -np.inf
    return loglik


# ---------------------------------------------------------------------------
# file formats


def save_model(p: HsmmParams, path) -> None:
    """Write a model as JSON with matrices as nested row arrays."""
    doc = {
        "n_o": p.n_o,
        "n_x": p.n_x,
        "n_d": p.n_d,
        "O": p.O.tolist(),
        "X": p.X.tolist(),
        "D": p.D.tolist(),
        "pi_x": p.pi_x.tolist(),
    }
    if p.pi_d is not None:
        doc["pi_d"] = p.pi_d.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> HsmmParams:
    """Read a model written by :func:`save_model`.

    A document that is not a JSON object, or lacks one of ``O``, ``X``,
    ``D`` and ``pi_x``, is :class:`InvalidModel` naming what is missing.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidModel(f"model file holds a JSON {type(doc).__name__}, need an object")
    missing = [key for key in ("O", "X", "D", "pi_x") if key not in doc]
    if missing:
        raise InvalidModel(f"model file has no {', '.join(map(repr, missing))}")
    p = HsmmParams(
        O=np.array(doc["O"]),
        X=np.array(doc["X"]),
        D=np.array(doc["D"]),
        pi_x=np.array(doc["pi_x"]),
        pi_d=np.array(doc["pi_d"]) if "pi_d" in doc else None,
    )
    declared = (doc.get("n_o"), doc.get("n_x"), doc.get("n_d"))
    if declared != (p.n_o, p.n_x, p.n_d):
        raise ShapeMismatch(
            f"declared dimensions {declared} disagree with matrices "
            f"{(p.n_o, p.n_x, p.n_d)}"
        )
    return p


# Bytes per tokenizer block.  A block is cut after its last newline, and
# the tokenizer's temporaries are a few arrays of about this many entries
# (0.5 MiB at most here), whatever the file size; 2**16 held 2 MiB and
# read no faster.
READ_BLOCK = 1 << 14

# The vectorized tokenizer reads a block only when deleting its digits,
# spaces, tabs, carriage returns and newlines (``bytes.translate``) leaves
# nothing; a block holding any other byte (or a digit run too long to be
# sure of fitting in int64) goes to the per-line parser.  A carriage return
# must also sit right before a newline there.
_MAX_DIGITS = 18


class SequenceFile(Sequence):
    """Sequences as one ragged int64 stream.

    Sequence ``i`` is the view ``values[offsets[i]:offsets[i + 1]]``, read
    from file line ``lines[i]``.  Indexing and iteration give those views, so
    the stream still reads as a sequence of per-line arrays; the counting
    kernel and the batched scorer read ``values`` and ``offsets`` directly.
    """

    def __init__(self, values: np.ndarray, offsets: np.ndarray, lines=None):
        self.values = values
        self.offsets = offsets
        if lines is not None:
            self.lines = lines

    @cached_property
    def lines(self) -> np.ndarray:
        """``i + 1`` for sequence ``i`` of a stream made in memory, made when first read."""
        return np.arange(1, self.offsets.shape[0])

    @classmethod
    def of(cls, sequences) -> "SequenceFile":
        """The stream of ``sequences``: itself, a 2-D array's rows, or 1-D arrays.

        A C-contiguous int64 2-D array is viewed, not copied; a list of
        arrays is concatenated once.  When that would give floats, each item
        is cast to int64 first, so that no item's dtype (float64 for ``[]``)
        rounds another's symbols.
        Integer symbols are taken as they are; any other symbol must be a
        finite integral value.  ``ValueError`` names the sequence of the
        first one that is not, or of an item that is not 1-D.
        """
        if isinstance(sequences, cls):
            return sequences
        if isinstance(sequences, np.ndarray) and sequences.ndim == 2:
            n, T = sequences.shape
            offsets = np.arange(n + 1, dtype=np.int64) * T
            values = _as_int64(sequences.reshape(-1), offsets)
        else:
            seqs = [np.asarray(s) for s in sequences]
            for i, s in enumerate(seqs):
                if s.ndim != 1:
                    raise ValueError(f"sequence {i} has shape {s.shape}, need one axis")
            offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
            np.cumsum(np.array([s.shape[0] for s in seqs], dtype=np.int64), out=offsets[1:])
            values = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
            if values.dtype.kind not in "biu":  # cast item by item, so none rounds another
                values = np.concatenate(
                    [_as_int64(s, offsets, offsets[i]) for i, s in enumerate(seqs)]
                )
        return cls(np.ascontiguousarray(values, dtype=np.int64), offsets)

    @property
    def lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.values[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    def outside(self, top) -> np.ndarray:
        """Positions in ``values`` of the symbols outside ``[0, top)``."""
        v = self.values
        if not v.size or (v.min() >= 0 and v.max() < top):
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero((v < 0) | (v >= top))

    def row_of(self, positions) -> np.ndarray:
        """Index of the sequence holding each position of ``values``."""
        return np.searchsorted(self.offsets, positions, side="right") - 1

    def check_alphabet(self, n_o: int) -> "SequenceFile":
        """Itself, once every symbol is in ``[0, n_o)``.

        Otherwise ``ValueError`` names the sequence and the symbol of the
        first one outside it.
        """
        bad = self.outside(n_o)
        if bad.size:
            raise ValueError(
                f"sequence {self.row_of(bad[0])}: symbol {self.values[bad[0]]} "
                f"outside alphabet of size {n_o}"
            )
        return self


def _as_int64(values: np.ndarray, offsets: np.ndarray, start: int = 0) -> np.ndarray:
    """Symbols ``values``, from stream position ``start`` on, as int64.

    Integer symbols are cast as they are.  Any other must be a finite
    integral value; ``ValueError`` names the sequence (by ``offsets``) and
    the value of the first that is not.
    """
    if values.dtype.kind in "biu":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and out-of-range casts are refused below
        ints = values.astype(np.int64)
    bad = np.flatnonzero(ints != values)
    if bad.size:
        row = np.searchsorted(offsets, start + bad[0], side="right") - 1
        raise ValueError(f"sequence {row}: symbol {values[bad[0]]} is not an integer")
    return ints


def read_sequences(path, n_o: int | None = None) -> SequenceFile:
    """One sequence per line, space-separated 0-based symbols; '#' comments.

    Blank and comment lines are skipped, so the result records the file
    line of each sequence.  A negative symbol, or with ``n_o`` given one at
    or above ``n_o``, raises ``ValueError`` naming its line and the symbol.
    """
    with open(path, "rb") as fh:
        seqs = _tokenize(fh, os.fstat(fh.fileno()).st_size)
    top = math.inf if n_o is None else n_o
    bad = seqs.outside(top)
    if bad.size:
        where = "is negative" if n_o is None else f"outside alphabet of size {n_o}"
        line = seqs.lines[seqs.row_of(bad[0])]
        raise ValueError(f"line {line}: symbol {seqs.values[bad[0]]} {where}")
    return seqs


def parse_symbols(text: str) -> np.ndarray:
    """All symbols of ``text`` in order, through the sequence-file tokenizer."""
    data = text.encode()
    return _tokenize(io.BytesIO(data), len(data)).values


def _tokenize(fh, size: int) -> SequenceFile:
    """Read a binary sequence file of about ``size`` bytes into one stream.

    Blocks of about :data:`READ_BLOCK` bytes, each cut after a newline, go
    through :func:`_fast_block`, or through :func:`_parse_lines` (the exact
    per-line reference) when it declines one; both give the block's
    symbols and a symbol count per text line.  Every token takes at least
    one byte and a separator, so ``values`` is allocated once for
    ``(size + 1) // 2`` symbols and trimmed at the end (and grown, should
    more bytes arrive than ``size``).
    """
    values = np.empty((size + 1) // 2, dtype=np.int64)
    lengths, lines = [], []
    n, lineno = 0, 1
    for block in _newline_blocks(fh):
        vals, per_line = _fast_block(block) or _parse_lines(
            io.TextIOWrapper(io.BytesIO(block)), lineno
        )
        rows = np.flatnonzero(per_line)
        lengths.append(per_line[rows])
        lines.append(rows + lineno)
        lineno += per_line.shape[0]
        if n + vals.shape[0] > values.shape[0]:  # a pipe, or a file that grew
            values.resize(2 * (n + vals.shape[0]), refcheck=False)
        values[n : n + vals.shape[0]] = vals
        n += vals.shape[0]
    values.resize(n, refcheck=False)
    lengths = np.concatenate(lengths) if lengths else np.zeros(0, dtype=np.int64)
    offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    lines = np.concatenate(lines) if lines else np.zeros(0, dtype=np.int64)
    return SequenceFile(values, offsets, lines)


def _newline_blocks(fh):
    """Yield the file's bytes in blocks of about :data:`READ_BLOCK`, each ending in a newline.

    A final line without one gets one, which changes no line or token.
    """
    parts = []
    for chunk in iter(lambda: fh.read(READ_BLOCK), b""):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        yield b"".join(parts)
        parts = [chunk[cut:]]
    tail = b"".join(parts)
    if tail:
        yield tail + b"\n"


def _fast_block(block: bytes):
    """Symbols and per-line symbol counts of a block, or ``None`` to parse it per line.

    Tokens are the digit runs of the block's bytes: their edges come from
    comparing a digit mask with itself one byte on, and their values from
    one multiply-add per digit place.  Only blocks that ``translate``
    empties of digits, spaces, tabs and newlines (with a carriage return
    allowed right before a newline) are read here, and only when no run has
    more than :data:`_MAX_DIGITS` digits.
    """
    if block.translate(None, b"0123456789 \t\r\n"):
        return None
    b = np.frombuffer(block, dtype=np.uint8)
    if b"\r" in block:
        cr = np.flatnonzero(b == ord("\r"))
        if not (b[cr + 1] == ord("\n")).all():
            return None
    digits = b - np.uint8(ord("0"))
    mask = digits < 10
    # a block ends in a newline, so every run that starts also ends
    edges = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    if mask[0]:
        edges = np.concatenate(([0], edges))
    starts, width = edges[::2], edges[1::2] - edges[::2]
    widest = int(width.max()) if width.size else 0
    if widest > _MAX_DIGITS:
        return None
    vals = digits[starts].astype(np.int64)
    for place in range(1, widest):
        more = np.flatnonzero(width > place)
        vals[more] = vals[more] * 10 + digits[starts[more] + place]
    breaks = np.flatnonzero(b == ord("\n"))
    per_line = np.diff(np.searchsorted(starts, breaks), prepend=0)
    return vals, per_line


def _parse_lines(text_lines, first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The per-line parser: what :func:`_fast_block` gives, for any text.

    ``text_lines`` yields lines, the first of them numbered ``first``; the
    result is their symbols as one int64 array and one symbol count per
    line, 0 for a blank, whitespace-only or ``#`` line.  A token ``int``
    rejects, or a symbol that does not fit in int64, raises ``ValueError``
    naming its line.
    """
    seqs, per_line = [], []
    for lineno, line in enumerate(text_lines, start=first):
        line = line.strip()
        if not line or line.startswith("#"):
            per_line.append(0)
            continue
        try:
            symbols = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        try:
            seqs.append(np.array(symbols, dtype=np.int64))
        except OverflowError:
            big = next(s for s in symbols if not -(2**63) <= s < 2**63)
            raise ValueError(f"line {lineno}: symbol {big} does not fit in int64") from None
        per_line.append(len(symbols))
    values = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
    return values, np.array(per_line, dtype=np.int64)


# Symbols per write_sequences block.  A block's temporaries are a few arrays
# of this many entries, about 0.5 MB in all, whatever the file size.
WRITE_BLOCK = 1 << 13
_TENS = np.array([10**k for k in range(1, 20)], dtype=np.uint64)


def write_sequences(sequences, path) -> None:
    """Write one sequence per line, its symbols in decimal separated by spaces.

    ``sequences`` is anything :meth:`SequenceFile.of` takes, and what it
    refuses (a symbol that is not an integer, an item that is not 1-D) is
    refused with its ``ValueError`` before the file is opened.  A line is
    ``" ".join(map(str, row))``; an empty sequence is an empty line.  The
    bytes are formatted in blocks of :data:`WRITE_BLOCK` symbols.
    """
    seqs = SequenceFile.of(sequences)
    values, ends = seqs.values, seqs.offsets[1:]
    with open(path, "wb") as fh:
        fh.write(b"\n" * int(np.searchsorted(ends, 0, side="right")))  # empty first rows
        for a in range(0, values.shape[0], WRITE_BLOCK):
            fh.write(_format_block(values[a : a + WRITE_BLOCK], ends, a))


def _format_block(v: np.ndarray, ends: np.ndarray, a: int) -> np.ndarray:
    """The bytes of symbols ``v``, which start at stream position ``a``.

    ``ends`` holds each sequence's end in the stream.  Each symbol is
    followed by one newline per sequence ending right after it (the one it
    closes, then any empty ones), or by a space when none does.  Digits are
    written from the last place up, one pass per place.
    """
    lo, hi = np.searchsorted(ends, [a, a + v.shape[0]], side="right")
    breaks = np.bincount(ends[lo:hi] - a - 1, minlength=v.shape[0])
    neg = v < 0
    mag = np.where(neg, ~v, v).astype(np.uint64) + neg  # |v|, with no int64 overflow
    width = np.searchsorted(_TENS, mag, side="right") + 1 + neg
    size = width + np.maximum(breaks, 1)
    start = np.cumsum(size) - size
    out = np.full(start[-1] + size[-1], ord(" "), dtype=np.uint8)
    out[start[neg]] = ord("-")
    at = start + width - 1
    while mag.size:
        out[at] = mag % 10 + ord("0")
        mag = mag // 10
        more = np.flatnonzero(mag)
        mag, at = mag[more], at[more] - 1
    sep = np.flatnonzero(breaks)
    count = breaks[sep]
    first = np.cumsum(count) - count
    out[np.repeat(start[sep] + width[sep] - first, count) + np.arange(count.sum())] = ord("\n")
    return out
