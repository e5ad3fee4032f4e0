"""Observable-representation learning and sequence-probability inference.

The learned model re-expresses the latent-chain likelihood through tensors
of observable co-occurrences only:

* ``d_tilde`` transfers a right-window message one anchor forward,
* ``x_tilde`` consumes the anchor's own symbol while re-emitting the window
  (a three-mode tensor: inverse-side window, data-side window, symbol),
* ``o_tilde`` is the symbol-pair table times its own pseudo-inverse (a
  projector onto the reachable emission subspace),
* ``start_factor`` is the boundary joint of the first two symbols with the
  first right window, estimable directly as a probability table.

The chain closes at the final symbol with ``x_tilde``'s data-side window
marginalized out.

With population moments the chained product reproduces the exact sequence
likelihood; with finite samples it is a consistent estimator whose values
may leave [0, 1], so results carry a sign and a log magnitude.

The build solves in a rank-``r`` space with orthonormal basis ``V``
(``basis``), so ``d_tilde = V Y_d`` and ``x_tilde = V Y_x``.  The model holds
``d_tilde``, ``o_tilde``, ``start_factor``, ``V`` and the ``r x k x n_o``
coefficients ``Y_x`` (``y_x``); ``x_tilde`` is derived on demand and never
formed by the build, loading or inference.  Each symbol folds into one
``r x r`` observable operator ``B_o = G core[o]`` (Hsu, Kakade & Zhang, "A
spectral algorithm for learning hidden Markov models"), built in ``r``
space from the transfer ``G = (V' d_tilde) V`` and
``core[o] = sum_s o_tilde[s, o] Y_x[:, :, s] V``.  :func:`infer`,
:func:`infer_batch` and :func:`score_sequences` take a pooled model or a
per-anchor list alike, refuse the same rows with the same errors, and run
one batched kernel over the ragged sequence stream.

The per-anchor ("basic") variant is the same model once per anchor, and a
pooled model is its one-anchor case: one builder turns either into operator
tables, and one file layout stores either, with each tensor stacked along a
leading anchor axis and the shared start table stored once.
Every model table is a plain read-only float64 array (for a loaded model,
a view of the checked stack) except ``d_tilde``, a ``NamedTensor``.

The pseudo-inverse products are float64 truncated-SVD solves.  Each moment
matrix is decomposed once, and the rank check, the noise floor and the
solve all read that decomposition.  The windowed moment matrix's
conditioning is the product of two factor conditionings (``s_1/s_r`` up to
about 4e11 on admitted (5,4,6) models), and on population moments that
conditioning of the float64 moments, not the solve's arithmetic, sets the
error floor: a double-double solve had the same worst models and errors
within a small factor of this one.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .container import read_container, write_container
from .hsmm import SequenceFile
from .moments import (
    MomentSet,
    ObservationSchedule,
    _ranges,
    count_cooccurrences,
    estimate_moments,
)
from .tensors import NamedTensor, RankZero, read_only, spectrum_rank


class SpectralError(Exception):
    """Base class for spectral-layer errors."""


class DegenerateMoments(SpectralError):
    """A moment tensor lacks the rank the representation needs."""

    def __init__(self, tensor: str, anchor: int | None = None, detail: str = ""):
        loc = f" at anchor {anchor}" if anchor is not None else ""
        super().__init__(f"degenerate moment tensor {tensor}{loc}: {detail}")
        self.tensor = tensor
        self.anchor = anchor
        self.detail = detail


class SequenceTooShort(SpectralError):
    """Inference needs at least three symbols."""


class UnknownSymbol(SpectralError):
    """A test symbol falls outside the model's alphabet."""


class Operators(NamedTuple):
    """A model in observable-operator form, over a rank-``r`` basis.

    ``step[c]`` holds one ``r x r`` operator per symbol and ``end[c]`` the
    closing vector per symbol.  Position ``t`` of a sequence uses table
    ``c = clip(t - first, 0, A)`` of ``A`` anchors: it transfers with anchor
    ``p = c - 1`` and consumes its symbol with anchor ``q = c``, both clipped
    to ``[0, A)``.  There are ``A + 1`` tables whatever the anchors' values.
    """

    start: np.ndarray  # (n_o, n_o, r): first two symbols -> message
    step: np.ndarray  # (A + 1, n_o, r, r)
    end: np.ndarray  # (A + 1, r, n_o)
    first: int  # position of the first anchor


@dataclass(frozen=True, eq=False)
class ObservableModel:
    """A learned model in its rank-``r`` form: pooled, or one anchor's if ``anchor`` is set.

    Every array is read-only.  ``x_tilde = basis @ y_x`` is derived on
    demand (``k x k x n_o``, for reference checks only).
    """

    # NamedTensor in k space: the benchmark replaces it through dataclasses.replace
    d_tilde: NamedTensor
    y_x: np.ndarray  # (r, k, n_o): x_tilde's coefficients in the basis
    o_tilde: np.ndarray  # (n_o, n_o)
    start_factor: np.ndarray  # (n_o, n_o, k)
    basis: np.ndarray  # (k, r) orthonormal; d_tilde = basis @ (...)
    pinv_rtol: float
    n_o: int
    ell: int
    anchor: int | None = None

    @property
    def rank(self) -> int:
        """The rank the build kept."""
        return self.basis.shape[1]

    @property
    def x_tilde(self) -> np.ndarray:
        """``basis @ y_x``, the symbol operator in window space."""
        r, k, n_o = self.y_x.shape
        return read_only((self.basis @ self.y_x.reshape(r, k * n_o)).reshape(k, k, n_o))

    @cached_property
    def operators(self) -> Operators:
        """The stationary chain as rank-``r`` observable operators, built once."""
        return _operators(self)


def _pinv_product(
    svd: tuple[np.ndarray, np.ndarray, np.ndarray],
    rhs: Sequence[np.ndarray],
    rtol: float,
    max_rank: int | None = None,
):
    """Apply the truncated Moore-Penrose inverse of ``a`` to each ``rhs``.

    ``svd`` is ``np.linalg.svd(a, full_matrices=False)``, so one
    decomposition serves the caller's rank check and noise floor as well.
    Singular values at or below ``rtol * sigma_max`` are truncated, and at
    most ``max_rank`` directions are kept (the moment matrices have a known
    population rank; anything beyond it is sampling noise that the chain
    would amplify).  Returns the orthonormal basis ``V`` of the retained row
    space and the coefficients ``Y = diag(1/s_r) u_r' rhs``, so that
    ``pinv(a) @ rhs = V @ Y``.
    """
    u, s, vt = svd
    if s.size == 0 or s[0] == 0.0:
        raise RankZero("zero matrix has no usable pseudo-inverse")
    r = spectrum_rank(s, rtol)
    if max_rank is not None:
        r = min(r, max_rank)
    if r == 0:
        raise RankZero("all singular values truncated")
    v = vt[:r].T
    w = u[:, :r].T / s[:r, None]
    return v, [w @ r_mat for r_mat in rhs]


def _noise_rtol(s: np.ndarray, count: int) -> float:
    """Relative truncation level matching the sampling noise of a count table.

    ``s`` are the table's singular values.  The table sums to one, so the
    Frobenius norm of its sampling error is about ``1/sqrt(count)``;
    directions below a small multiple of that are unresolved and only
    amplify noise when inverted.
    """
    if s[0] == 0.0 or count <= 0:
        return 0.0
    return 2.0 / math.sqrt(count) / s[0]


def build_observable(
    m: MomentSet, rtol: float, noise_floor: bool = False
) -> ObservableModel:
    """Learn the observable tensors from a pooled moment set.

    The windowed moment matrix must carry the full joint-state rank of the
    schedule at ``rtol``, otherwise the inversion cannot expose every latent
    direction and :class:`DegenerateMoments` is raised.  With
    ``noise_floor`` set (finite-sample estimation), truncation additionally
    drops directions below the sampling-noise level of the counts; the
    representation then degrades gracefully to a lower rank instead of
    amplifying unresolved directions.
    """
    sched = m.schedule
    k = m.n_o**sched.ell
    needed = min(sched.joint_rank, k)
    lr_svd = np.linalg.svd(m.m_lr, full_matrices=False)
    rank = spectrum_rank(lr_svd[1], rtol)
    if rank < needed:
        raise DegenerateMoments("m_lr", detail=f"rank {rank} < {needed} at rtol {rtol}")
    oo_svd = np.linalg.svd(m.m_oo.T, full_matrices=False)
    eff_lr = max(rtol, _noise_rtol(lr_svd[1], m.window_count)) if noise_floor else rtol
    eff_oo = max(rtol, _noise_rtol(oo_svd[1], m.pair_count)) if noise_floor else rtol
    try:
        basis, (y_d, y_x) = _pinv_product(
            lr_svd,
            [m.m_lr_shift, m.m_lro.reshape(k, k * m.n_o)],
            eff_lr,
            max_rank=needed,
        )
    except RankZero as exc:
        raise DegenerateMoments("m_lr", detail=str(exc)) from None
    try:
        v_oo, (y_o,) = _pinv_product(oo_svd, [m.m_oo.T], eff_oo, max_rank=sched.n_x)
    except RankZero as exc:
        raise DegenerateMoments("m_oo", detail=str(exc)) from None
    return ObservableModel(
        d_tilde=NamedTensor(basis @ y_d, ["or_in", "or"]),
        y_x=read_only(y_x.reshape(-1, k, m.n_o)),
        o_tilde=read_only(v_oo @ y_o),
        start_factor=m.m_start,
        basis=read_only(basis),
        pinv_rtol=rtol,
        n_o=m.n_o,
        ell=sched.ell,
    )


def build_observable_per_t(
    sequences: Sequence[np.ndarray],
    n_o: int,
    sched: ObservationSchedule,
    rtol: float,
    noise_floor: bool = False,
) -> list[ObservableModel]:
    """Per-anchor variant: :func:`build_observable` on each anchor's own tables.

    All sequences must share one length; each anchor's tables count that
    anchor's placements only (one per sequence), so they are far noisier than
    the pooled tables at equal data size.  The counts come from the pooled
    build's kernel with the anchor as a leading index; a symbol outside
    ``[0, n_o)`` raises ``ValueError`` naming its sequence, and
    :class:`DegenerateMoments` names the anchor whose tables fail.
    """
    seqs = SequenceFile.of(sequences)
    if not len(seqs):
        raise DegenerateMoments("m_lr", detail="no sequences")
    lengths = seqs.lengths
    T = int(lengths[0])
    if (lengths != T).any():
        raise DegenerateMoments(
            "m_lr", detail="per-anchor estimation needs equal-length sequences"
        )
    anchors = list(sched.anchor_range(T))
    if not anchors:
        raise DegenerateMoments(
            "m_lr", detail=f"length {T} hosts no anchor (need {sched.min_sequence_length})"
        )
    n = len(seqs)
    counts = count_cooccurrences(seqs, n_o, sched, anchors=len(anchors))
    lr, lr_shift, lro, oo, start = (read_only(table / n) for table in counts[:5])
    models = []
    for j, s_pos in enumerate(anchors):
        m = MomentSet(
            m_lr=lr[j],
            m_lr_shift=lr_shift[j],
            m_lro=lro[j],
            m_oo=oo[j],
            m_start=start,
            n_o=n_o,
            schedule=sched,
            window_count=n,
            pair_count=n,
            start_count=n,
        )
        try:
            model = build_observable(m, rtol, noise_floor)
        except DegenerateMoments as exc:
            raise DegenerateMoments(exc.tensor, anchor=s_pos, detail=exc.detail) from None
        models.append(replace(model, anchor=s_pos))
    return models


@dataclass(frozen=True)
class InferenceResult:
    """Signed log-magnitude of one sequence-probability estimate.

    ``sign`` is 0 only when the raw estimate is exactly zero; ``clamped``
    flags estimates that a caller would have to floor before taking a log
    likelihood (nonpositive raw values).
    """

    log_value: float
    sign: int
    clamped: bool

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_value) if self.sign else 0.0


def _models(model: ObservableModel | Sequence[ObservableModel]) -> list[ObservableModel]:
    """A per-anchor model list as a list, and a pooled model as the one-anchor list."""
    return [model] if isinstance(model, ObservableModel) else list(model)


def _row_errors(seqs: SequenceFile, n_o: int) -> list[tuple[int, SpectralError]]:
    """Each row the chain cannot score, in order: too short, else its first unknown symbol."""
    lengths = seqs.lengths
    outside = seqs.outside(n_o)
    if not outside.size and lengths.min(initial=3) >= 3:
        return []
    errors = {}
    rows, first = np.unique(seqs.row_of(outside), return_index=True)
    for row, symbol in zip(rows.tolist(), seqs.values[outside[first]].tolist()):
        errors[row] = UnknownSymbol(f"symbol {symbol} outside alphabet of size {n_o}")
    for row in np.flatnonzero(lengths < 3).tolist():
        errors[row] = SequenceTooShort(f"need at least 3 symbols, got {lengths[row]}")
    return sorted(errors.items())


def _first_anchor(models: Sequence[ObservableModel]) -> int:
    """The first anchor of consecutive per-anchor models; 1 for a pooled model."""
    if not models:
        raise DegenerateMoments("m_lr", detail="empty per-anchor model list")
    first = 1 if models[0].anchor is None else models[0].anchor
    if [m.anchor for m in models[1:]] != list(range(first + 1, first + len(models))):
        raise SpectralError("per-anchor models need consecutive anchors")
    return first


def _padded(arrays: Sequence[np.ndarray], axis: int, size: int) -> np.ndarray:
    """``arrays`` stacked on a new leading axis, zero-padded along ``axis`` to ``size``."""
    shape = list(arrays[0].shape)
    shape[axis] = size
    out = np.zeros((len(arrays), *shape))
    for dst, arr in zip(out, arrays):
        dst[(slice(None),) * axis + (slice(arr.shape[axis]),)] = arr
    return out


def _operators(model: ObservableModel | Sequence[ObservableModel]) -> Operators:
    """A pooled model or a per-anchor list as :class:`Operators` (ranks zero-padded).

    Table ``c`` holds ``G_c core_q[o]`` and closes with ``G_c close_q``, where
    ``G_c = (V_p' d_tilde_p) V_q`` and ``close_q = Y_x,q.sum(axis=1) @ o_tilde_q``.
    """
    models = _models(model)
    first = _first_anchor(models)
    a, r = len(models), max(m.rank for m in models)
    basis = _padded([m.basis for m in models], 1, r)
    y_x = _padded([m.y_x for m in models], 0, r)
    o_tilde = np.stack([m.o_tilde for m in models])
    left = _padded([m.basis.T @ m.d_tilde.data for m in models], 0, r)
    # y_x[a, j].T @ basis[a] for every anchor a and row j: (A, r, n_o, r)
    yv = y_x.swapaxes(2, 3) @ basis[:, None]
    core = (o_tilde.swapaxes(1, 2)[:, None] @ yv).swapaxes(1, 2)
    close = y_x.sum(axis=2) @ o_tilde
    c = np.arange(a + 1)
    q = np.minimum(c, a - 1)
    transfer = left[np.maximum(c - 1, 0)] @ basis[q]
    return Operators(
        models[0].start_factor @ basis[0],
        transfer[:, None] @ core[q],
        transfer @ close[q],
        first,
    )


def _prepared(model: ObservableModel | Sequence[ObservableModel]) -> tuple[Operators, int]:
    """Operators and alphabet size of a model or list; one model's operators are cached."""
    models = _models(model)
    ops = models[0].operators if len(models) == 1 else _operators(models)
    return ops, models[0].n_o


def _chain(
    ops: Operators, seqs: SequenceFile, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Log magnitudes and signs of the chained products of a batch of sequences.

    ``seqs`` is a stream of validated sequences of any lengths (or what
    :meth:`SequenceFile.of` takes), of which the sequences ``rows`` (ascending,
    default all) are chained.  Rows of one length stored back to back are
    viewed as an ``(n, T)`` array; others are scattered from the stream,
    longest first, into one zero-padded batch at once.
    The message starts as the start table at the first two symbols, takes
    one gathered ``r x r`` product per interior symbol, and closes with the
    end table at the last symbol.  Rows run longest first,
    so the rows still advancing at a step are a prefix whose length is known
    before the loop; a finished row keeps its message until every row closes
    at once.  Per-step renormalization only moves scale into the log
    accumulator; it never changes the result.
    """
    start, step, end, first = ops
    seqs = SequenceFile.of(seqs)
    starts, lengths = seqs.offsets[:-1], seqs.lengths
    if rows is not None:
        starts, lengths = starts[rows], lengths[rows]
    n = lengths.size
    if not n:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    T = int(lengths.max())
    order = None
    if (lengths == T).all() and starts[-1] - starts[0] == (n - 1) * T:
        obs = seqs.values[starts[0] : starts[0] + n * T].reshape(n, T)
    else:
        order = np.argsort(-lengths, kind="stable")
        starts, lengths = starts[order], lengths[order]
        obs = np.zeros((n, T), dtype=np.int64)
        obs[np.arange(T) < lengths[:, None]] = seqs.values[_ranges(starts, starts + lengths)]
    table = np.minimum(np.maximum(np.arange(T) - first, 0), step.shape[0] - 1)
    positions = range(2, T - 1)
    # rows with at least t + 2 symbols advance at position t
    active = np.searchsorted(-lengths, -np.arange(4, T + 1), side="right").tolist()
    v = start[obs[:, 0], obs[:, 1]][:, None, :]
    norms = np.ones((len(positions), n))
    last = lengths - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, m in zip(positions, active):
            w = v[:m] @ step[table[t]][obs[:m, t]]
            norm = np.abs(w).sum(axis=2, keepdims=True)
            np.divide(w, norm, out=v[:m])
            norms[t - 2, :m] = norm[:, 0, 0]
        closing = end[table[last], :, obs[np.arange(n), last]]
        scalar = np.einsum("nr,nr->n", v[:, 0], closing)
        log = np.log(np.abs(scalar)) + np.log(norms).sum(axis=0)
    sign = np.where(scalar > 0, 1, -1)
    dead = (scalar == 0.0) | (norms == 0.0).any(axis=0)
    log[dead] = -np.inf
    sign[dead] = 0
    if order is not None:
        log[order], sign[order] = log.copy(), sign.copy()
    return log, sign


def _results(log: np.ndarray, sign: np.ndarray) -> list[InferenceResult]:
    return [
        InferenceResult(lv, sg, sg <= 0) for lv, sg in zip(log.tolist(), sign.tolist())
    ]


def infer_batch(model: ObservableModel | Sequence[ObservableModel], obs) -> list[InferenceResult]:
    """Estimates of the rows of a 2-D array, or of a :class:`SequenceFile`.

    ``model`` is a pooled model or a per-anchor list.  The first row the
    chain cannot score raises its :class:`SequenceTooShort` or
    :class:`UnknownSymbol`; no rows give ``[]``.
    """
    ops, n_o = _prepared(model)
    seqs = SequenceFile.of(obs)
    errors = _row_errors(seqs, n_o)
    if errors:
        raise errors[0][1]
    return _results(*_chain(ops, seqs))


def infer(model: ObservableModel | Sequence[ObservableModel], obs: Sequence[int]) -> InferenceResult:
    """Probability estimate of one observation sequence (a batch of one)."""
    return infer_batch(model, np.asarray(obs, dtype=np.int64)[None, :])[0]


infer_per_t = infer  # a per-anchor list is a model infer takes


def learn_spectral(
    sequences: Sequence[np.ndarray],
    n_o: int,
    sched: ObservationSchedule,
    rtol: float,
    noise_floor: bool = True,
) -> ObservableModel:
    """Pooled moment estimation followed by the batched build."""
    return build_observable(
        estimate_moments(sequences, n_o, sched), rtol, noise_floor=noise_floor
    )


# ---------------------------------------------------------------------------
# scoring and persistence

SCORE_HEADER = ["id", "log_value", "sign", "clamped", "norm_loglik"]


def score_sequences(model, sequences: Iterable, error_sink=None):
    """Yield one score row per sequence, in input order; failures become NaN rows.

    ``model`` is a pooled :class:`ObservableModel` or a per-anchor list.
    The sequences are read as one ragged stream (see :meth:`SequenceFile.of`);
    the rows :func:`infer_batch` would refuse are found over the whole stream
    at once, and all well-formed rows are scored by one batched chain.
    Row-level errors are reported to ``error_sink`` (default stderr) and do
    not stop the stream; each names the stream's line of its sequence (the
    file line for :func:`~hsmm_spectral.hsmm.read_sequences`, else ``i + 1``
    for sequence ``i``).
    """
    sink = error_sink if error_sink is not None else sys.stderr
    ops, n_o = _prepared(model)
    seqs = SequenceFile.of(sequences)
    errors = _row_errors(seqs, n_o)
    failed = np.zeros(len(seqs), dtype=bool)
    for idx, exc in errors:
        failed[idx] = True
        print(f"line {seqs.lines[idx]}: {type(exc).__name__}: {exc}", file=sink)
    results = iter(_results(*_chain(ops, seqs, rows=np.flatnonzero(~failed))))
    for idx, (bad, T) in enumerate(zip(failed.tolist(), seqs.lengths.tolist())):
        if bad:
            yield [idx, "nan", 0, "true", "nan"]
            continue
        res = next(results)
        norm = res.log_value / T
        yield [idx, f"{res.log_value:.17g}", res.sign, str(res.clamped).lower(),
               f"{norm:.17g}"]


def score_file(model, sequences: Iterable, out_path, error_sink=None) -> int:
    """Write the score CSV; returns the number of data rows."""
    count = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        for row in score_sequences(model, sequences, error_sink):
            writer.writerow(row)
            count += 1
    return count


def _entry(mapping, key, what: str):
    try:
        return mapping[key]
    except KeyError:
        raise SpectralError(f"model file has no {what} {key!r}") from None


def _array(tensors, name: str, shape: tuple) -> np.ndarray:
    """The stored tensor ``name``, checked to have ``shape`` and finite entries, read-only."""
    arr = _entry(tensors, name, "tensor")
    if arr.shape != shape:
        raise SpectralError(f"model file tensor {name!r} has shape {arr.shape}, need {shape}")
    if not np.isfinite(arr).all():
        raise SpectralError(f"model file tensor {name!r} has non-finite entries")
    return read_only(arr)


def _integer(name: str, value, low: int, high: int) -> int:
    """A value of the field ``name``, refused unless an integer in ``[low, high]``."""
    if type(value) is not int or not low <= value <= high:
        raise SpectralError(
            f"model file field {name!r} has {value!r}, need an integer in [{low}, {high}]"
        )
    return value


def save_observable(path, model) -> None:
    """Persist a pooled model or a per-anchor model list in one layout.

    A model without an anchor is pooled (``variant`` ``batched``).
    ``d_tilde``, ``y_x``, ``o_tilde`` and ``basis`` carry a leading anchor axis
    (length 1 for a pooled model), the last two zero-padded to the largest of
    the field ``ranks``; the shared ``start_factor`` is stored once.
    """
    models = _models(model)
    ranks = [m.rank for m in models]
    meta = {
        "variant": "batched" if models[0].anchor is None else "per_t",
        "n_o": models[0].n_o,
        "ell": models[0].ell,
        "rtol": models[0].pinv_rtol,
        "ranks": ranks,
        "first_anchor": _first_anchor(models),
    }
    write_container(path, "observable-model", meta, [
        ("d_tilde", np.stack([m.d_tilde.data for m in models])),
        ("y_x", _padded([m.y_x for m in models], 0, max(ranks))),
        ("o_tilde", np.stack([m.o_tilde for m in models])),
        ("start_factor", models[0].start_factor),
        ("basis", _padded([m.basis for m in models], 1, max(ranks))),
    ])


def load_observable(path):
    """A pooled model, or a per-anchor model list if ``variant`` is ``per_t``.

    Each field is checked, then each tensor once, for its shape against
    ``k = n_o**ell``, the anchor count and the largest rank, and for finite
    entries; a failure is a :class:`SpectralError` naming the field or tensor.
    """
    kind, meta, tensors = read_container(path)
    if kind != "observable-model":
        raise SpectralError(f"not an observable-model file (kind={kind})")
    variant = _entry(meta, "variant", "field")
    if variant not in ("batched", "per_t"):
        raise SpectralError(f"unknown model variant {variant!r}")
    n_o = _integer("n_o", _entry(meta, "n_o", "field"), 1, 2**63 - 1)
    ell = _integer("ell", _entry(meta, "ell", "field"), 1, 2**63 - 1)
    if ell * math.log2(n_o) >= 63:  # k = n_o**ell would not fit an array dimension
        raise SpectralError(f"model file fields n_o={n_o}, ell={ell} are out of range")
    k = n_o**ell
    rtol = _entry(meta, "rtol", "field")
    if type(rtol) not in (int, float) or not 0 < rtol <= sys.float_info.max:
        raise SpectralError(
            f"model file field 'rtol' has {rtol!r}, need a positive finite number"
        )
    ranks = _entry(meta, "ranks", "field")
    if not isinstance(ranks, list) or not ranks or (variant == "batched" and len(ranks) > 1):
        raise SpectralError(
            f"model file field 'ranks' has {ranks!r}, "
            "need one rank per anchor (one if batched)"
        )
    for rank in ranks:
        _integer("ranks", rank, 1, k)
    # an anchor is a sequence position, which the chain holds in int64
    first = _integer("first_anchor", _entry(meta, "first_anchor", "field"), 1, 2**63 - 1)
    a, r = len(ranks), max(ranks)
    d_tilde = _array(tensors, "d_tilde", (a, k, k))
    y_x = _array(tensors, "y_x", (a, r, k, n_o))
    o_tilde = _array(tensors, "o_tilde", (a, n_o, n_o))
    start = _array(tensors, "start_factor", (n_o, n_o, k))
    basis = _array(tensors, "basis", (a, k, r))
    models = [
        ObservableModel(
            d_tilde=NamedTensor(d_tilde[i], ["or_in", "or"]),
            y_x=y_x[i, :rank],
            o_tilde=o_tilde[i],
            start_factor=start,
            basis=basis[i, :, :rank],
            pinv_rtol=float(rtol),
            n_o=n_o,
            ell=ell,
            anchor=None if variant == "batched" else first + i,
        )
        for i, rank in enumerate(ranks)
    ]
    return models if variant == "per_t" else models[0]
