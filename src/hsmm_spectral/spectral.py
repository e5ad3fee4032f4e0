"""Observable-representation learning and sequence-probability inference.

The learned model re-expresses the latent-chain likelihood through tables
of observable co-occurrences only.  The build solves in a rank-``r`` space
with orthonormal basis ``V`` (``basis``, ``k x r``), and the model holds:

* ``d_tilde``, the coefficients ``Y_d`` (``r x k``) of the window-space
  transfer ``V Y_d``, which moves a right-window message one anchor forward,
* ``y_x``, the coefficients ``Y_x`` (``r x k x n_o``) of the symbol
  operator ``V Y_x``, which consumes the anchor's own symbol while
  re-emitting the window (modes: inverse-side window, data-side window,
  symbol),
* ``o_tilde``, ``U_r U_r'`` from the symbol-pair table's SVD: the
  projector ``m_oo pinv(m_oo)`` onto the reachable emission subspace,
* ``start_factor``, the boundary joint of the first two symbols with the
  first right window, estimable directly as a probability table.

The chain closes at the final symbol with the symbol operator's data-side
window marginalized out.

With population moments the chained product reproduces the exact sequence
likelihood; with finite samples it is a consistent estimator whose values
may leave [0, 1], so results carry a sign and a log magnitude.

No ``k x k`` table is formed by the build, loading or inference.  Each
symbol folds into one ``r x r`` observable operator ``B_o = G core[o]``
(Hsu, Kakade & Zhang, "A spectral algorithm for learning hidden Markov
models"), built from the transfer ``G = Y_d V`` and ``core[o] = sum_s
o_tilde[s, o] Y_x[:, :, s] V``.  :func:`infer`, :func:`infer_batch` and
:func:`score_file` take a pooled model or a per-anchor list alike, refuse
the same rows with the same errors, and run one batched kernel over the
ragged sequence stream.  The kernel moves the message over blocks of
positions: one position per numpy round while many rows advance, and, once
``m`` rows at rank ``r`` satisfy ``m * (r*r + 4) <= 640``, whole rows whose
gathered operators are multiplied pairwise, in about ``log2 T`` batched
products (see :func:`_chain`).

The per-anchor ("basic") variant is the same model once per anchor, and a
pooled model is its one-anchor case.  Both have one stacked layout, a
:class:`ModelStack`: each table stacked along a leading anchor axis, the
ranks zero-padded to the largest, and the shared start table once.  It is
what the build makes (:func:`_build`), what the model file holds and the
one form operator tables are built from (:func:`_operators`).  A model or
a list is stacked first (one model as views of its tables, without
copies), and the CLI builds from the file's stack without making
per-anchor model objects.
Every model table is a plain read-only float64 array (for a built or
loaded model, a view of its stack), and a model's ``d_tilde`` is a
``NamedTensor`` view of its ``Y_d``.

The pseudo-inverse products are float64 truncated-SVD solves.  Each
stacked moment table is decomposed once for all anchors, and one rule
reads each anchor's spectrum ``s`` from that decomposition: it keeps the
least of the ``rtol`` count (``s > rtol * s_1``), the noise-floor count
(``s > 2/sqrt(count)``) and the rank cap.  The windowed moment matrix's
conditioning is the product of two factor conditionings (``s_1/s_r`` up to
about 4e11 on admitted (5,4,6) models), and on population moments that
conditioning of the float64 moments, not the solve's arithmetic, sets the
error floor: a double-double solve had the same worst models and errors
within a small factor of this one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .container import read_container, write_container
from .hsmm import SequenceFile, _ranges
from .moments import (
    MomentSet,
    ObservationSchedule,
    count_cooccurrences,
    estimate_moments,
)
from .tensors import NamedTensor, read_only, spectrum_rank


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

    ``step[c]`` holds one ``r x r`` operator per symbol and the identity as
    symbol ``n_o`` (what the chain's blocks multiply past a row's end), and
    ``end[c]`` the closing vector per symbol.  Position ``t`` of a sequence uses table
    ``c = clip(t - first, 0, A)`` of ``A`` anchors: it transfers with anchor
    ``p = c - 1`` and consumes its symbol with anchor ``q = c``, both clipped
    to ``[0, A)``.  There are ``A + 1`` tables whatever the anchors' values.
    """

    start: np.ndarray  # (n_o, n_o, r): first two symbols -> message
    step: np.ndarray  # (A + 1, n_o + 1, r, r)
    end: np.ndarray  # (A + 1, r, n_o)
    first: int  # position of the first anchor


@dataclass(frozen=True, eq=False)
class ModelStack:
    """A pooled model or a per-anchor list in the model file's layout.

    Every table but the shared start table carries a leading axis of ``A``
    anchors (one for a pooled model), and ``y_d``, ``y_x`` and ``basis`` are
    zero-padded from each anchor's rank to the largest, ``r``.  It is what
    :func:`save_observable` writes and :func:`_read_stack` reads, and the
    one form :func:`_operators` builds from.
    """

    y_d: np.ndarray  # (A, r, k): anchor a's k x k transfer is basis[a] @ y_d[a]
    y_x: np.ndarray  # (A, r, k, n_o)
    o_tilde: np.ndarray  # (A, n_o, n_o)
    start_factor: np.ndarray  # (n_o, n_o, k)
    basis: np.ndarray  # (A, k, r)
    ranks: list[int]
    first: int  # the first anchor; 1 for a pooled model
    pooled: bool
    n_o: int
    ell: int
    rtol: float


@dataclass(frozen=True, eq=False)
class ObservableModel:
    """A learned model in its rank-``r`` form: pooled, or one anchor's if ``anchor`` is set.

    Every array is read-only.  ``d_tilde`` holds the transfer's
    coefficients ``Y_d`` (``r x k``, labelled ``("r", "or")``), so the
    window-space transfer is ``basis @ d_tilde.data``, and the window-space
    symbol operator ``x_tilde`` is ``basis @ y_x``; neither is formed.
    """

    # a NamedTensor under its old name: the benchmark replaces it through dataclasses.replace
    d_tilde: NamedTensor  # (r, k): the transfer's coefficients Y_d in the basis
    y_x: np.ndarray  # (r, k, n_o): x_tilde's coefficients in the basis
    o_tilde: np.ndarray  # (n_o, n_o)
    start_factor: np.ndarray  # (n_o, n_o, k)
    basis: np.ndarray  # (k, r) orthonormal
    pinv_rtol: float
    n_o: int
    ell: int
    anchor: int | None = None

    @property
    def rank(self) -> int:
        """The rank the build kept."""
        return self.basis.shape[1]

    @cached_property
    def operators(self) -> Operators:
        """The stationary chain as rank-``r`` observable operators, built once."""
        return _operators(_stack(self))


def _solve(
    svd: tuple[np.ndarray, np.ndarray, np.ndarray],
    rhs: Sequence[np.ndarray],
    keep: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Apply each anchor's truncated Moore-Penrose inverse to each of ``rhs``.

    ``svd`` is ``np.linalg.svd(a, full_matrices=False)`` of a stack of
    matrices ``a``, of which anchor ``i`` keeps the leading ``keep[i] >= 1``
    directions.  Returns the orthonormal bases ``V`` of the kept row spaces
    and the coefficients ``Y = diag(1/s_r) u_r' rhs``, so that
    ``pinv(a) @ rhs = V @ Y`` per anchor, with ``max(keep)`` directions each,
    zero past the anchor's own (a dropped direction is divided by ``inf``).
    """
    u, s, vt = svd
    r = int(keep.max())
    pad = np.arange(r) >= keep[:, None]
    w = u[:, :, :r].swapaxes(1, 2) / np.where(pad, np.inf, s[:, :r])[:, :, None]
    v = np.where(pad[:, :, None], 0.0, vt[:, :r])
    return v.swapaxes(1, 2), [w @ b for b in rhs]


def _build(
    tables: Sequence[np.ndarray],
    n_o: int,
    sched: ObservationSchedule,
    rtol: float,
    noise_floor: bool,
    counts: tuple[int, int],
    first: int | None = None,
) -> ModelStack:
    """The model stack of moment tables that carry a leading axis of anchors.

    ``tables`` are ``m_lr``, ``m_lr_shift``, ``m_lro`` and ``m_oo``, each
    stacked over ``A`` anchors, then the shared ``m_start``.  ``counts`` are
    the window and the pair count behind each anchor's tables, and ``first``
    the first anchor (``None``: a pooled model, ``A = 1``).  Each stacked
    table is decomposed once, and every decision reads that one spectrum
    ``s``: an anchor keeps the least of the ``rtol`` count (``s > rtol *
    s_1``), the noise-floor count (``s > 2/sqrt(count)``: a table sums to
    one, so its sampling error has Frobenius norm about ``1/sqrt(count)``;
    no floor without ``noise_floor`` or a count) and the rank cap
    (``joint_rank`` for ``m_lr``, ``n_x`` for ``m_oo``).  ``o_tilde`` is the
    projector ``U_r U_r'`` onto ``m_oo``'s kept column space, which is
    ``pinv(m_oo') m_oo'``.  The first anchor whose tables fail raises
    :class:`DegenerateMoments`, naming it: without ``noise_floor`` (an exact
    build) an ``rtol`` count of ``m_lr`` below the cap fails; with it, only
    a table that keeps no direction does.
    """
    lr, lr_shift, lro, oo, start = tables
    a, k = lr.shape[:2]
    needed = min(sched.joint_rank, k)
    lr_svd = np.linalg.svd(lr, full_matrices=False)
    u_oo, s_oo, _ = np.linalg.svd(oo)
    s = lr_svd[1]
    floor, floor_oo = (2.0 / math.sqrt(c) if noise_floor and c > 0 else 0.0 for c in counts)
    rank = spectrum_rank(s, rtol)
    floored, floored_oo = (s > floor).sum(axis=1), (s_oo > floor_oo).sum(axis=1)
    keep = np.minimum(rank, floored).clip(max=needed)
    keep_oo = np.minimum(spectrum_rank(s_oo, rtol), floored_oo)
    keep_oo = keep_oo.clip(max=sched.n_x)
    # one row per check, in the order a single anchor's build meets them
    short = (rank < needed) & (not noise_floor)
    failed = np.array([short, keep == 0, s_oo[:, 0] == 0.0, keep_oo == 0])
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        tensor, detail = (
            ("m_lr", f"rank {rank[i]} < {needed} at rtol {rtol}"),
            ("m_lr", _truncated(floored[i], floor, counts[0])),
            ("m_oo", "zero matrix has no usable pseudo-inverse"),
            ("m_oo", _truncated(floored_oo[i], floor_oo, counts[1])),
        )[int(failed[:, i].argmax())]
        anchor = None if first is None else first + i
        raise DegenerateMoments(tensor, anchor=anchor, detail=detail)
    basis, (y_d, y_x) = _solve(lr_svd, [lr_shift, lro.reshape(a, k, k * n_o)], keep)
    u_r = np.where(np.arange(n_o) < keep_oo[:, None, None], u_oo, 0.0)
    return ModelStack(
        y_d=read_only(y_d), y_x=read_only(y_x.reshape(a, -1, k, n_o)),
        o_tilde=read_only(u_r @ u_oo.swapaxes(1, 2)), start_factor=start,
        basis=read_only(basis), ranks=keep.tolist(), first=1 if first is None else first,
        pooled=first is None, n_o=n_o, ell=sched.ell, rtol=rtol,
    )


def _truncated(floored: int, floor: float, count: int) -> str:
    """Why a table kept no direction, naming the floor ``2/sqrt(count)`` if nothing cleared it."""
    if floor and not floored:
        return f"all singular values truncated by the noise floor 2/sqrt({count}) = {floor:.3g}"
    return "all singular values truncated"


def build_observable(
    m: MomentSet, rtol: float, noise_floor: bool = False
) -> ObservableModel:
    """Learn the observable tensors from a pooled moment set.

    Without ``noise_floor`` (an exact build) the windowed moment matrix
    must carry the full joint-state rank of the schedule at ``rtol``,
    otherwise the inversion cannot expose every latent direction and
    :class:`DegenerateMoments` is raised.  With ``noise_floor`` set
    (finite-sample estimation), truncation also drops directions below the
    sampling-noise level of the counts, and the representation degrades
    to a lower rank instead of amplifying unresolved directions; only a
    table that keeps no direction is refused.  The build is the per-anchor
    one with a single anchor.
    """
    tables = [t[None] for t in (m.m_lr, m.m_lr_shift, m.m_lro, m.m_oo)] + [m.m_start]
    counts = (m.window_count, m.pair_count)
    return _unstack(_build(tables, m.n_o, m.schedule, rtol, noise_floor, counts))[0]


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
    build's kernel with the anchor as a leading index, and all anchors are
    built at once from those stacks; a symbol outside ``[0, n_o)`` raises
    ``ValueError`` naming its sequence, and :class:`DegenerateMoments` names
    the first anchor whose tables fail.
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
    anchors = sched.anchor_range(T)
    if not anchors:
        raise DegenerateMoments(
            "m_lr", detail=f"length {T} hosts no anchor (need {sched.min_sequence_length})"
        )
    n = len(seqs)
    counts = count_cooccurrences(seqs, n_o, sched, anchors=len(anchors))
    tables = counts.averaged(n, n, n)
    return _unstack(_build(tables, n_o, sched, rtol, noise_floor, (n, n), anchors[0]))


@dataclass(frozen=True)
class InferenceResult:
    """Signed log-magnitude of one sequence-probability estimate.

    ``sign`` is 0 only when the raw estimate is exactly zero.
    """

    log_value: float
    sign: int

    @property
    def clamped(self) -> bool:
        """A nonpositive estimate, which a caller must floor before taking its log."""
        return self.sign <= 0

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


def _stack(model: ObservableModel | Sequence[ObservableModel]) -> ModelStack:
    """A pooled model or a per-anchor list in the file layout.

    One model's stack is made of ``[None]`` views of its tables, never copies.
    """
    models = _models(model)
    first = _first_anchor(models)
    ranks = [m.rank for m in models]
    m = models[0]
    if len(models) == 1:
        y_d, y_x = m.d_tilde.data[None], m.y_x[None]
        o_tilde, basis = m.o_tilde[None], m.basis[None]
    else:
        y_d = _padded([mm.d_tilde.data for mm in models], 0, max(ranks))
        y_x = _padded([mm.y_x for mm in models], 0, max(ranks))
        o_tilde = np.stack([mm.o_tilde for mm in models])
        basis = _padded([mm.basis for mm in models], 1, max(ranks))
    return ModelStack(
        y_d=y_d, y_x=y_x, o_tilde=o_tilde, start_factor=m.start_factor,
        basis=basis, ranks=ranks, first=first, pooled=m.anchor is None, n_o=m.n_o,
        ell=m.ell, rtol=m.pinv_rtol,
    )


def _unstack(stack: ModelStack) -> list[ObservableModel]:
    """One model per anchor of a stack (a pooled stack's one pooled model), as views."""
    return [
        ObservableModel(
            d_tilde=NamedTensor(stack.y_d[i, :rank], ["r", "or"]),
            y_x=stack.y_x[i, :rank],
            o_tilde=stack.o_tilde[i],
            start_factor=stack.start_factor,
            basis=stack.basis[i, :, :rank],
            pinv_rtol=stack.rtol,
            n_o=stack.n_o,
            ell=stack.ell,
            anchor=None if stack.pooled else stack.first + i,
        )
        for i, rank in enumerate(stack.ranks)
    ]


def _operators(stack: ModelStack) -> Operators:
    """A model stack as :class:`Operators`.

    Table ``c`` holds ``G_c core_q[o]`` and closes with ``G_c close_q``, where
    ``G_c = Y_d,p V_q`` and ``close_q = Y_x,q.sum(axis=1) @ o_tilde_q``.
    The zero padding past an anchor's rank gives zero rows and columns.
    """
    basis, y_x, o_tilde = stack.basis, stack.y_x, stack.o_tilde
    a, r = y_x.shape[:2]
    # y_x[a, j].T @ basis[a] for every anchor a and row j: (A, r, n_o, r)
    yv = y_x.swapaxes(2, 3) @ basis[:, None]
    core = (o_tilde.swapaxes(1, 2)[:, None] @ yv).swapaxes(1, 2)
    close = y_x.sum(axis=2) @ o_tilde
    c = np.arange(a + 1)
    q = np.minimum(c, a - 1)
    transfer = stack.y_d[np.maximum(c - 1, 0)] @ basis[q]
    identity = np.broadcast_to(np.eye(r), (a + 1, 1, r, r))
    return Operators(
        stack.start_factor @ basis[0],
        np.concatenate([transfer[:, None] @ core[q], identity], axis=1),
        transfer @ close[q],
        stack.first,
    )


def _prepared(
    model: ObservableModel | Sequence[ObservableModel] | ModelStack,
) -> tuple[Operators, int]:
    """Operators and alphabet size of a model, a list or a stack; one model's are cached."""
    if isinstance(model, ModelStack):
        return _operators(model), model.n_o
    models = _models(model)
    ops = models[0].operators if len(models) == 1 else _operators(_stack(models))
    return ops, models[0].n_o


# A block of m rows at rank r chains a whole row while m * (r*r + 4) <= _TREE_WORK,
# where one numpy round's dispatch outweighs the tree's extra arithmetic; fitted to a
# sweep of the tree against the per-step loop at T = 100 on one BLAS thread (CHANGES.md).
_TREE_WORK = 640
_BLOCK_ENTRIES = 1 << 19  # operator entries one block gathers: 4 MB


def _product(mats: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Each row's ordered product of the ``r x r`` matrices ``mats[i, :]``, pairwise.

    A row holds a power of two ``b`` of them, reduced in ``log2(b)`` batched
    products.  Each product is divided by its abs-sum, which is reduced
    straight into the next row of ``scales`` (``b - 1`` rows, one column per
    row of ``mats``).
    """
    out, at = scales.T[:, :, None, None], 0  # scales as (row of mats, product, 1, 1)
    while mats.shape[1] > 1:
        mats = mats[:, 0::2] @ mats[:, 1::2]
        k = mats.shape[1]
        scale = out[:, at : at + k]
        mats /= np.add.reduce(np.abs(mats), axis=(2, 3), keepdims=True, out=scale)
        at += k
    return mats[:, 0]


def _chain(
    ops: Operators, seqs: SequenceFile, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Log magnitudes and signs of the chained products of a batch of sequences.

    ``seqs`` is a stream of validated sequences of any lengths, of which the
    sequences ``rows`` (ascending, default all) are chained.  Rows of one
    length stored back to back are viewed as an ``(n, T)`` array, and every
    row advances at every position: they skip the sort, the per-position
    count of advancing rows, the scatter from the stream and the per-row
    closing index.  They are copied only when blocks pad them past ``T``.
    Other rows are scattered from the stream, longest first, into one batch
    at once, padded with the identity.
    The message starts as the start table at the first two symbols, moves
    over the interior symbols in blocks, and closes with the end table at the
    last symbol.  Rows run longest first, so the ``m`` rows still advancing
    at a position are a prefix whose length is known before the loop; a
    finished row keeps its message until every row closes at once.

    While ``m * (r*r + 4) > _TREE_WORK`` a block is one position: the message
    takes one gathered ``r x r`` product.  From the first position where
    fewer rows advance, blocks span the rest of the rows, padded to a power
    of two ``b`` that gathers at most ``_BLOCK_ENTRIES`` entries.  A block
    gathers its ``m x b`` operators with one index and multiplies them
    pairwise (``mats[:, 0::2] @ mats[:, 1::2]``) until one product per row
    is left, which the message takes in one step: ``log2(b)`` batched
    products instead of ``b`` numpy rounds (the tree reduction of Blelloch,
    "Prefix sums and their applications", 1990).  Positions past a row's end
    and the power-of-two tail take the identity, symbol ``n_o``.  Each
    product and each message is divided by its abs-sum, which only moves
    scale into the log accumulator and never changes the result.
    """
    start, step, end, first = ops
    starts, lengths = seqs.offsets[:-1], seqs.lengths
    if rows is not None:
        starts, lengths = starts[rows], lengths[rows]
    n = lengths.size
    if not n:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    T = int(lengths.max())
    equal = lengths.min() == T and starts[-1] - starts[0] == (n - 1) * T
    r = step.shape[-1]
    few = _TREE_WORK // (r * r + 4)
    order = None
    if equal:  # every row advances at every position
        active = [n] * (T - 3)
        loop = T - 3 if n > few else 0
    else:
        order = np.argsort(-lengths, kind="stable")
        starts, lengths = starts[order], lengths[order]
        # rows with at least t + 2 symbols advance at position t
        active = np.searchsorted(-lengths, -np.arange(4, T + 1), side="right").tolist()
        # more than `few` rows advance at the first `loop` positions
        loop = max(int(lengths[few]) - 3, 0) if n > few else 0
    rest, b, width = T - 3 - loop, 1, 0
    if rest:
        cap = max(_BLOCK_ENTRIES // (active[loop] * r * r), 1)
        b = min(1 << (rest - 1).bit_length(), 1 << (cap.bit_length() - 1))
        width = -(-rest // b) * b
    span = max(T, loop + 2 + width)
    identity = step.shape[1] - 1
    table = np.minimum(np.maximum(np.arange(span) - first, 0), step.shape[0] - 1)
    if equal:
        obs = seqs.values[starts[0] : starts[0] + n * T].reshape(n, T)
        closing = end[table[T - 1], :, obs[:, T - 1]]
        if width:  # the blocks read the identity from the last symbol on
            padded = np.full((n, span), identity)
            padded[:, : T - 1] = obs[:, : T - 1]
            obs = padded
    else:
        obs = np.full((n, span), identity)
        inside = np.arange(T) < lengths[:, None]
        obs[:, :T][inside] = seqs.values[_ranges(starts, starts + lengths)]
        ends = np.arange(n), lengths - 1
        closing = end[table[ends[1]], :, obs[ends]]
        if width:
            obs[ends] = identity
    v = start[obs[:, 0], obs[:, 1]][:, None, :]
    norms = np.ones((loop + width, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, m in zip(range(2, loop + 2), active):
            w = v[:m] @ step[table[t]][obs[:m, t]]
            norm = np.abs(w).sum(axis=2, keepdims=True)
            np.divide(w, norm, out=v[:m])
            norms[t - 2, :m] = norm[:, 0, 0]
        for t in range(loop + 2, loop + 2 + width, b):
            m = active[t - 2]
            mats = step[table[t : t + b], obs[:m, t : t + b]]
            w = v[:m] @ _product(mats, norms[t - 2 : t + b - 3, :m])
            norm = norms[t + b - 3, :m, None, None]
            np.add.reduce(np.abs(w), axis=2, keepdims=True, out=norm)
            np.divide(w, norm, out=v[:m])
        scalar = (v[:, 0] * closing).sum(axis=1)
        log = np.log(np.abs(scalar)) + np.log(norms).sum(axis=0)
    sign = np.where(scalar > 0, 1, -1)
    if not np.isfinite(log).all():  # a dead row's log is -inf or NaN
        dead = (scalar == 0.0) | (norms == 0.0).any(axis=0)
        log[dead] = -np.inf
        sign[dead] = 0
    if order is not None:
        log[order], sign[order] = log.copy(), sign.copy()
    return log, sign


def _results(log: np.ndarray, sign: np.ndarray) -> list[InferenceResult]:
    return [InferenceResult(lv, sg) for lv, sg in zip(log.tolist(), sign.tolist())]


def infer_batch(model: ObservableModel | Sequence[ObservableModel], obs) -> list[InferenceResult]:
    """Estimates of the rows of a 2-D array, or of a :class:`SequenceFile`.

    ``model`` is a pooled model, a per-anchor list or a :class:`ModelStack`.
    The first row the chain cannot score raises its :class:`SequenceTooShort`
    or :class:`UnknownSymbol`; no rows give ``[]``.
    """
    ops, n_o = _prepared(model)
    seqs = SequenceFile.of(obs)
    # a 2-D integer array of valid symbols, at least 3 wide, has no row to refuse
    valid = (
        isinstance(obs, np.ndarray) and obs.ndim == 2 and obs.shape[1] >= 3
        and obs.dtype.kind in "iu" and obs.size and obs.min() >= 0 and obs.max() < n_o
    )
    errors = [] if valid else _row_errors(seqs, n_o)
    if errors:
        raise errors[0][1]
    return _results(*_chain(ops, seqs))


def infer(model: ObservableModel | Sequence[ObservableModel], obs: Sequence[int]) -> InferenceResult:
    """Probability estimate of one observation sequence (a batch of one)."""
    return infer_batch(model, [obs])[0]


infer_per_t = infer  # a per-anchor list is a model infer takes


def learn_spectral(
    sequences: Sequence[np.ndarray],
    n_o: int,
    sched: ObservationSchedule,
    rtol: float,
) -> ObservableModel:
    """Pooled moment estimation followed by the batched build, with the noise floor.

    The floor is what finite-sample data needs (see :func:`build_observable`);
    a build without it is ``build_observable(estimate_moments(...), rtol)``.
    """
    return build_observable(estimate_moments(sequences, n_o, sched), rtol, noise_floor=True)


# ---------------------------------------------------------------------------
# scoring and persistence

SCORE_HEADER = ["id", "log_value", "sign", "clamped", "norm_loglik"]


def score_file(model, sequences: Iterable, out_path, error_sink=None) -> int:
    """Write the score CSV, one row per sequence in input order; returns the number of rows.

    ``model`` is a pooled model, a per-anchor list or a :class:`ModelStack`.
    A row :func:`infer_batch` would refuse scores NaN with sign 0, and its
    error goes to ``error_sink`` (default stderr) with the stream's line of
    its sequence (the file line for :func:`~hsmm_spectral.hsmm.read_sequences`,
    else ``i + 1`` for sequence ``i``); all other rows are scored by one
    batched chain.  Rows end in ``\\r\\n``.  ``out_path`` is opened only once
    every row is formatted, so a failure leaves a previous file as it was.
    """
    sink = error_sink if error_sink is not None else sys.stderr
    ops, n_o = _prepared(model)
    seqs = SequenceFile.of(sequences)
    failed = np.zeros(len(seqs), dtype=bool)
    for idx, exc in _row_errors(seqs, n_o):
        failed[idx] = True
        print(f"line {seqs.lines[idx]}: {type(exc).__name__}: {exc}", file=sink)
    log = np.full(len(seqs), np.nan)
    sign = np.zeros(len(seqs), dtype=np.int64)
    scored = np.flatnonzero(~failed)
    log[scored], sign[scored] = _chain(ops, seqs, rows=scored)
    with np.errstate(divide="ignore", invalid="ignore"):  # a failed empty row
        norm = log / seqs.lengths
    rows = [
        "%d,%.17g,%d,%s,%.17g\r\n" % (idx, lv, sg, "true" if sg <= 0 else "false", nm)
        for idx, (lv, sg, nm) in enumerate(zip(log.tolist(), sign.tolist(), norm.tolist()))
    ]
    with open(out_path, "w", newline="") as fh:
        fh.write(",".join(SCORE_HEADER) + "\r\n" + "".join(rows))
    return len(rows)


def _entry(mapping, key, what: str):
    try:
        return mapping[key]
    except KeyError:
        raise SpectralError(f"model file has no {what} {key!r}") from None


def _array(tensors, name: str, shape: tuple) -> np.ndarray:
    """The stored tensor ``name``, checked to have ``shape`` and finite entries."""
    arr = _entry(tensors, name, "tensor")
    if arr.shape != shape:
        raise SpectralError(f"model file tensor {name!r} has shape {arr.shape}, need {shape}")
    if not np.isfinite(arr).all():
        raise SpectralError(f"model file tensor {name!r} has non-finite entries")
    return arr


def _integer(name: str, value, low: int, high: int) -> int:
    """A value of the field ``name``, refused unless an integer in ``[low, high]``."""
    if type(value) is not int or not low <= value <= high:
        raise SpectralError(
            f"model file field {name!r} has {value!r}, need an integer in [{low}, {high}]"
        )
    return value


def save_observable(path, model) -> None:
    """Persist a pooled model or a per-anchor model list in one layout.

    A model without an anchor is pooled (``variant`` ``batched``).  The file
    holds the model's :class:`ModelStack`: ``y_d``, ``y_x``, ``o_tilde`` and
    ``basis`` with a leading anchor axis, all but ``o_tilde`` zero-padded to
    the largest of the field ``ranks``, and the shared ``start_factor`` once.
    """
    stack = _stack(model)
    meta = {
        "variant": "batched" if stack.pooled else "per_t",
        "n_o": stack.n_o,
        "ell": stack.ell,
        "rtol": stack.rtol,
        "ranks": stack.ranks,
        "first_anchor": stack.first,
    }
    write_container(path, "observable-model", meta, [
        (name, getattr(stack, name))
        for name in ("y_d", "y_x", "o_tilde", "start_factor", "basis")
    ])


def _read_stack(path) -> ModelStack:
    """The :class:`ModelStack` a model file holds, every table read-only.

    Each field is checked, then each tensor once, for its shape against
    ``k = n_o**ell``, the anchor count and the largest rank, and for finite
    entries; a failure is a :class:`SpectralError` naming the field or tensor.
    Entries past an anchor's rank read as zero, whatever the file holds.
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
    y_d = _array(tensors, "y_d", (a, r, k))
    y_x = _array(tensors, "y_x", (a, r, k, n_o))
    o_tilde = _array(tensors, "o_tilde", (a, n_o, n_o))
    start = _array(tensors, "start_factor", (n_o, n_o, k))
    basis = _array(tensors, "basis", (a, k, r))
    padding = np.arange(r) >= np.array(ranks)[:, None]
    y_d[padding] = 0.0
    y_x[padding] = 0.0
    basis.swapaxes(1, 2)[padding] = 0.0
    return ModelStack(
        y_d=read_only(y_d), y_x=read_only(y_x), o_tilde=read_only(o_tilde),
        start_factor=read_only(start), basis=read_only(basis), ranks=ranks, first=first,
        pooled=variant == "batched", n_o=n_o, ell=ell, rtol=float(rtol),
    )


def load_observable(path):
    """A pooled model, or a per-anchor model list if ``variant`` is ``per_t``.

    The models are read-only views of the file's checked :class:`ModelStack`
    (see :func:`_read_stack`).
    """
    stack = _read_stack(path)
    models = _unstack(stack)
    return models[0] if stack.pooled else models
