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

import io
import json
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tensors import ShapeMismatch, numerical_rank


class ModelError(Exception):
    """Base class for model-layer errors."""


class InvalidModel(ModelError):
    """Parameters violate a precondition (shapes aside)."""


class GenerationFailed(ModelError):
    """Rejection sampling exhausted its retry budget."""


class OracleTooLarge(ModelError):
    """Brute-force enumeration would exceed the configured budget."""


_STOCH_ATOL = 1e-12
_ENUM_MAX_T = 12
_ENUM_MAX_PATHS = 50_000_000


@dataclass(frozen=True)
class HsmmParams:
    """Ground-truth model parameters.

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
        object.__setattr__(self, "O", np.array(self.O, dtype=float))
        object.__setattr__(self, "X", np.array(self.X, dtype=float))
        object.__setattr__(self, "D", np.array(self.D, dtype=float))
        object.__setattr__(self, "pi_x", np.array(self.pi_x, dtype=float))
        if self.pi_d is not None:
            object.__setattr__(self, "pi_d", np.array(self.pi_d, dtype=float))
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
        for arr in (self.O, self.X, self.D, self.pi_x):
            arr.flags.writeable = False
        if self.pi_d is not None:
            self.pi_d.flags.writeable = False

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


def validate(p: HsmmParams, rtol: float = 1e-10) -> ValidationReport:
    """Check stochasticity and the three structural assumptions.

    A1: the renewal transition has full numerical rank.  A2: every duration
    has positive probability in every state.  A3: the emission matrix has
    full column rank (which requires ``n_x <= n_o``).
    """
    checks = []
    for name, arr in (("O", p.O), ("X", p.X), ("D", p.D)):
        col_err = float(np.max(np.abs(arr.sum(axis=0) - 1.0)))
        neg = float(arr.min())
        checks.append(
            CheckResult(
                f"stochastic[{name}]",
                col_err <= _STOCH_ATOL and neg >= 0.0,
                col_err,
                "column sums and nonnegativity",
            )
        )
    pi_err = float(abs(p.pi_x.sum() - 1.0))
    checks.append(
        CheckResult(
            "stochastic[pi_x]",
            pi_err <= _STOCH_ATOL and p.pi_x.min() >= 0.0,
            pi_err,
        )
    )
    if p.pi_d is not None:
        pd_err = float(np.max(np.abs(p.pi_d.sum(axis=0) - 1.0)))
        checks.append(
            CheckResult(
                "stochastic[pi_d]",
                pd_err <= _STOCH_ATOL and p.pi_d.min() >= 0.0,
                pd_err,
            )
        )
    sig_x = float(np.linalg.svd(p.X, compute_uv=False).min())
    checks.append(
        CheckResult(
            "A1[rank X]",
            numerical_rank(p.X, rtol) == p.n_x,
            sig_x,
            "sigma_min of X",
        )
    )
    d_min = float(p.D.min())
    checks.append(CheckResult("A2[D positive]", d_min > 0.0, d_min, "min entry of D"))
    sig_o = float(np.linalg.svd(p.O, compute_uv=False).min())
    a3_ok = p.n_x <= p.n_o and numerical_rank(p.O, rtol) == p.n_x
    checks.append(CheckResult("A3[rank O]", a3_ok, sig_o, "sigma_min of O"))
    return ValidationReport(tuple(checks))


def random_model(
    n_o: int,
    n_x: int,
    n_d: int,
    seed: int,
    min_sigma: float = 0.05,
    no_self_transitions: bool = False,
) -> HsmmParams:
    """Draw a well-conditioned model with Dirichlet(1) columns.

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
        O = rng.dirichlet(np.ones(n_o), size=n_x).T
        X = rng.dirichlet(np.ones(n_x), size=n_x).T
        if no_self_transitions and n_x > 1:
            X = X * (1.0 - np.eye(n_x))
            X = X / X.sum(axis=0, keepdims=True)
        D = rng.dirichlet(np.ones(n_d), size=n_x).T
        pi_x = rng.dirichlet(np.ones(n_x))
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


def state_update_matrix(p: HsmmParams) -> np.ndarray:
    """``[(x', d), (x, d)] -> p(x' | x, d)``: renewal transition at d=1, else identity."""
    n_x, n_d, S = p.n_x, p.n_d, p.n_joint
    out = np.zeros((S, S))
    out[:n_x, :n_x] = p.X
    for d in range(2, n_d + 1):
        b = (d - 1) * n_x
        out[b : b + n_x, b : b + n_x] = np.eye(n_x)
    return out


def duration_update_matrix(p: HsmmParams) -> np.ndarray:
    """``[(x, d'), (x, d)] -> p(d' | x, d)``: fresh draw at d=1, else decrement."""
    n_x, n_d, S = p.n_x, p.n_d, p.n_joint
    out = np.zeros((S, S))
    for x in range(n_x):
        out[x :: p.n_x, x] = p.D[:, x]
        for d in range(2, n_d + 1):
            out[(d - 2) * n_x + x, (d - 1) * n_x + x] = 1.0
    return out


def joint_transition_matrix(p: HsmmParams) -> np.ndarray:
    """One-step kernel on (x, d) pairs: state update then duration update."""
    return duration_update_matrix(p) @ state_update_matrix(p)


def next_state_table(p: HsmmParams) -> np.ndarray:
    """``[x', (x, d)] -> p(x_{t+1} = x' | x_t = x, d_t = d)``."""
    blocks = [p.X] + [np.eye(p.n_x)] * (p.n_d - 1)
    return np.hstack(blocks)


def initial_joint(p: HsmmParams) -> np.ndarray:
    """Distribution of the first (x, d) pair, flattened."""
    table = p.initial_duration_table()
    return (table * p.pi_x[None, :]).reshape(-1)


def emission_on_joint(p: HsmmParams, symbol: int) -> np.ndarray:
    """Emission likelihood of ``symbol`` lifted to the joint space."""
    return np.tile(p.O[symbol, :], p.n_d)


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampledSequence:
    """One draw from the generative model, hidden path retained for tests."""

    observations: np.ndarray
    hidden_states: tuple[tuple[int, int], ...]  # (x, d) with d 1-based


def sample(p: HsmmParams, T: int, rng: np.random.Generator) -> SampledSequence:
    """Sample one sequence of length ``T``."""
    if T < 1:
        raise InvalidModel("T must be at least 1")
    obs = np.empty(T, dtype=np.int64)
    hidden = []
    x = int(rng.choice(p.n_x, p=p.pi_x))
    d = int(rng.choice(p.n_d, p=p.initial_duration_table()[:, x])) + 1
    for t in range(T):
        if t > 0:
            if d > 1:
                d -= 1
            else:
                x = int(rng.choice(p.n_x, p=p.X[:, x]))
                d = int(rng.choice(p.n_d, p=p.D[:, x])) + 1
        hidden.append((x, d))
        obs[t] = int(rng.choice(p.n_o, p=p.O[:, x]))
    return SampledSequence(observations=obs, hidden_states=tuple(hidden))


def _cumulative(table: np.ndarray) -> np.ndarray:
    """Row ``c`` is the running sum of ``table[:, c]``, the form :func:`_draw` reads."""
    return np.ascontiguousarray(np.cumsum(table, axis=0).T)


def _draw(cum: np.ndarray, cols: np.ndarray, rng) -> np.ndarray:
    """Vectorized draw: one sample from column ``c`` of the table, for each c in ``cols``."""
    u = rng.random(cols.shape[0])
    out = (u[:, None] > cum[cols]).sum(axis=1)
    return np.minimum(out, cum.shape[1] - 1)


def sample_many(
    p: HsmmParams, n_sequences: int, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n_sequences`` independent length-``T`` sequences, vectorized.

    Each table's cumulative sums are formed once per call; every step only
    gathers the rows of the current states.  ``T < 1`` and a negative count
    raise :class:`InvalidModel`, as in :func:`sample`.
    """
    if T < 1:
        raise InvalidModel("T must be at least 1")
    if n_sequences < 0:
        raise InvalidModel(f"n_sequences must be non-negative, got {n_sequences}")
    obs = np.empty((n_sequences, T), dtype=np.int64)
    O, X, D = _cumulative(p.O), _cumulative(p.X), _cumulative(p.D)
    x = _draw(_cumulative(p.pi_x[:, None]), np.zeros(n_sequences, dtype=int), rng)
    d = _draw(_cumulative(p.initial_duration_table()), x, rng) + 1
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


# ---------------------------------------------------------------------------
# exact likelihood


def exact_likelihood_enum(p: HsmmParams, obs: Sequence[int]) -> float:
    """Likelihood by exhaustive summation over all latent (x, d) paths.

    Guarded by both sequence length and total path count; this is the
    independent oracle, not a practical inference routine.
    """
    obs = np.asarray(obs, dtype=int)
    T = len(obs)
    if T < 1:
        raise InvalidModel("empty observation sequence")
    if T > _ENUM_MAX_T:
        raise OracleTooLarge(f"T={T} exceeds the enumeration guard {_ENUM_MAX_T}")
    S = p.n_joint
    if S**T > _ENUM_MAX_PATHS:
        raise OracleTooLarge(
            f"{S}**{T} latent paths exceed the enumeration budget {_ENUM_MAX_PATHS}"
        )
    V = joint_transition_matrix(p)
    # probs[i] is the probability of the i-th partial path (last state = i % S)
    probs = initial_joint(p) * emission_on_joint(p, int(obs[0]))
    for t in range(1, T):
        step = V.T * emission_on_joint(p, int(obs[t]))[None, :]
        probs = (probs.reshape(-1, S)[:, :, None] * step[None, :, :]).reshape(-1)
    return float(probs.sum())


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
    the plain probability.
    """
    obs = np.asarray(obs, dtype=int)
    if len(obs) < 1:
        raise InvalidModel("empty observation sequence")
    if obs.min() < 0 or obs.max() >= p.n_o:
        raise InvalidModel("observation symbol out of range")
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
    """Log-likelihoods of equal-length sequences, vectorized over rows."""
    obs = np.asarray(obs, dtype=int)
    n, T = obs.shape
    table = p.initial_duration_table()
    alpha = (table * p.pi_x[None, :])[None, :, :] * p.O[obs[:, 0], None, :]
    loglik = np.zeros(n)
    for t in range(1, T + 1):
        c = alpha.sum(axis=(1, 2))
        loglik += np.log(c)
        alpha = alpha / c[:, None, None]
        if t < T:
            alpha = _forward_step(p, alpha) * p.O[obs[:, t], None, :]
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

# Bytes the vectorized tokenizer reads; a block holding any other byte (or
# a digit run too long to be sure of fitting in int64) goes to the per-line
# parser.  A carriage return must also sit right before a newline there.
_FAST_BYTES = np.zeros(256, dtype=bool)
_FAST_BYTES[np.frombuffer(b"0123456789 \t\r\n", dtype=np.uint8)] = True
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
        self.lines = np.arange(1, offsets.shape[0]) if lines is None else lines

    @classmethod
    def of(cls, sequences) -> "SequenceFile":
        """The stream of ``sequences``: itself, a 2-D array's rows, or 1-D arrays.

        A C-contiguous int64 2-D array is viewed, not copied; a list of
        arrays is concatenated once.
        """
        if isinstance(sequences, cls):
            return sequences
        if isinstance(sequences, np.ndarray) and sequences.ndim == 2:
            n, T = sequences.shape
            values = np.ascontiguousarray(sequences, dtype=np.int64).reshape(-1)
            return cls(values, np.arange(n + 1, dtype=np.int64) * T)
        seqs = [np.asarray(s) for s in sequences]
        offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
        np.cumsum(np.array([s.shape[0] for s in seqs], dtype=np.int64), out=offsets[1:])
        values = np.concatenate(seqs) if seqs else np.zeros(0)
        return cls(values.astype(np.int64, copy=False), offsets)

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
    through :func:`_fast_block`; a block it declines goes to
    :func:`_parse_lines`, the exact per-line reference.  Every token takes
    at least one byte and a separator, so ``values`` is allocated once for
    ``(size + 1) // 2`` symbols and trimmed at the end (and grown, should
    more bytes arrive than ``size``).
    """
    values = np.empty((size + 1) // 2, dtype=np.int64)
    lengths, lines = [], []
    n, lineno = 0, 1
    for block in _newline_blocks(fh):
        fast = _fast_block(block)
        if fast is None:
            text = io.TextIOWrapper(io.BytesIO(block))
            seqs, seq_lines, next_line = _parse_lines(text, lineno)
            vals = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
            lengths.append(np.array([s.shape[0] for s in seqs], dtype=np.int64))
            lines.append(np.array(seq_lines, dtype=np.int64))
        else:
            vals, per_line = fast
            rows = np.flatnonzero(per_line)
            lengths.append(per_line[rows])
            lines.append(rows + lineno)
            next_line = lineno + per_line.shape[0]
        if n + vals.shape[0] > values.shape[0]:  # a pipe, or a file that grew
            values.resize(2 * (n + vals.shape[0]), refcheck=False)
        values[n : n + vals.shape[0]] = vals
        n += vals.shape[0]
        lineno = next_line
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
    one pass over a digit mask, and their values from one multiply-add per
    digit place.  Only blocks of digits, spaces, tabs and newlines (with a
    carriage return allowed right before a newline) are read here, and only
    when no run has more than :data:`_MAX_DIGITS` digits.
    """
    b = np.frombuffer(block, dtype=np.uint8)
    if not _FAST_BYTES[b].all():
        return None
    cr = np.flatnonzero(b == ord("\r"))
    if cr.size and not (b[cr + 1] == ord("\n")).all():
        return None
    digits = b - np.uint8(ord("0"))
    edges = np.flatnonzero(np.diff(digits < 10, prepend=False))
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


def _parse_lines(text_lines, first: int = 1) -> tuple[list[np.ndarray], list[int], int]:
    """The per-line parser: sequences, their line numbers, and the next line number.

    ``text_lines`` yields lines, the first of them numbered ``first``.  A
    token ``int`` rejects, or a symbol that does not fit in int64, raises
    ``ValueError`` naming its line.
    """
    seqs, lines = [], []
    lineno = first - 1
    for lineno, line in enumerate(text_lines, start=first):
        line = line.strip()
        if not line or line.startswith("#"):
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
        lines.append(lineno)
    return seqs, lines, lineno + 1


def write_sequences(sequences: Iterable[np.ndarray], path) -> None:
    with open(path, "w") as fh:
        for seq in sequences:
            fh.write(" ".join(map(str, np.asarray(seq, dtype=np.int64).tolist())))
            fh.write("\n")
