"""Dense tensors with named, occurrence-tagged modes.

Every mode of a tensor carries a :class:`ModeLabel`, a ``(name, occurrence)``
pair.  The occurrence tag makes repeated modes explicit: contractions match
labels exactly, so two tensors only contract along modes whose name *and*
occurrence agree.  Data is stored as a dense, row-major ``numpy`` array whose
axis order follows the label order.

All operations are pure functions returning new tensors; :class:`NamedTensor`
instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np


class TensorError(Exception):
    """Base class for errors raised by the tensor layer."""


class InvalidModePartition(TensorError):
    """Row/column mode lists do not partition the tensor's mode set."""


class ShapeMismatch(TensorError):
    """Dimensions disagree where they are required to match."""


class OuterProductNotSupported(TensorError):
    """A product was requested along an empty set of shared modes."""


class UnknownMode(TensorError):
    """A referenced mode label is not present in the tensor."""


class InvalidTolerance(TensorError):
    """A tolerance argument is not a positive real number."""


class RankZero(TensorError):
    """All singular values fell below the truncation threshold."""


class IndexOutOfRange(TensorError):
    """An index does not fit the dimension of the addressed mode."""


@dataclass(frozen=True, order=True)
class ModeLabel:
    """Identifier of one tensor mode.

    Attributes
    ----------
    name : str
        Short mode name.
    occurrence : int
        Non-negative tag distinguishing repeated copies of the same name
        within one tensor.
    """

    name: str
    occurrence: int = 0

    def __repr__(self) -> str:
        if self.occurrence:
            return f"{self.name}@{self.occurrence}"
        return self.name


LabelLike = Union[str, ModeLabel]


def as_label(label: LabelLike) -> ModeLabel:
    """Coerce a string into a zero-occurrence :class:`ModeLabel`."""
    if isinstance(label, ModeLabel):
        return label
    return ModeLabel(str(label))


def _as_labels(labels: Iterable[LabelLike]) -> tuple[ModeLabel, ...]:
    return tuple(as_label(l) for l in labels)


class NamedTensor:
    """Dense real tensor with ordered, labeled modes.

    Parameters
    ----------
    data : array_like
        Dense real array; its axis order must follow ``labels``.
    labels : sequence of str or ModeLabel
        One label per axis.  Labels must be unique within the tensor.

    Notes
    -----
    The underlying array is copied (as float64) and marked read-only, so a
    constructed tensor can never be mutated through its ``data`` view.
    Construction rejects non-finite entries.
    """

    __slots__ = ("_labels", "_data")

    def __init__(self, data, labels: Sequence[LabelLike]):
        arr = np.array(data, dtype=float)
        labels = _as_labels(labels)
        if arr.ndim != len(labels):
            raise ShapeMismatch(
                f"array has {arr.ndim} axes but {len(labels)} labels were given"
            )
        if len(set(labels)) != len(labels):
            raise InvalidModePartition(f"duplicate mode labels in {labels}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise TensorError("tensor entries must be finite")
        arr.flags.writeable = False
        self._labels = labels
        self._data = arr

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return self._labels

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    def axis(self, label: LabelLike) -> int:
        """Return the axis index of ``label``, raising :class:`UnknownMode`."""
        lab = as_label(label)
        try:
            return self._labels.index(lab)
        except ValueError:
            raise UnknownMode(f"mode {lab!r} not in {self._labels}") from None

    def dim(self, label: LabelLike) -> int:
        return self._data.shape[self.axis(label)]

    def has(self, label: LabelLike) -> bool:
        return as_label(label) in self._labels

    def relabel(self, mapping: Mapping[LabelLike, LabelLike]) -> "NamedTensor":
        """Rename modes; data is shared, not copied."""
        table = {as_label(k): as_label(v) for k, v in mapping.items()}
        for old in table:
            if old not in self._labels:
                raise UnknownMode(f"mode {old!r} not in {self._labels}")
        new_labels = tuple(table.get(l, l) for l in self._labels)
        out = NamedTensor.__new__(NamedTensor)
        if len(set(new_labels)) != len(new_labels):
            raise InvalidModePartition(f"relabeling produces duplicates: {new_labels}")
        out._labels = new_labels
        out._data = self._data
        return out

    def aligned(self, labels: Sequence[LabelLike]) -> np.ndarray:
        """Return the data permuted so axes follow ``labels`` exactly."""
        labels = _as_labels(labels)
        if sorted(labels) != sorted(self._labels):
            raise InvalidModePartition(
                f"{labels} is not a permutation of {self._labels}"
            )
        perm = [self.axis(l) for l in labels]
        return np.transpose(self._data, perm)

    def transposed(self, labels: Sequence[LabelLike]) -> "NamedTensor":
        """Return a tensor with modes reordered to ``labels``."""
        return NamedTensor(self.aligned(labels), _as_labels(labels))

    def __repr__(self) -> str:
        modes = ", ".join(f"{l!r}:{d}" for l, d in zip(self._labels, self.shape))
        return f"NamedTensor({modes})"


def _partition_perm(
    t: NamedTensor,
    row_modes: Sequence[LabelLike],
    col_modes: Sequence[LabelLike],
) -> tuple[tuple[ModeLabel, ...], tuple[ModeLabel, ...]]:
    rows = _as_labels(row_modes)
    cols = _as_labels(col_modes)
    combined = rows + cols
    if len(set(combined)) != len(combined):
        raise InvalidModePartition(f"repeated mode in partition {rows} | {cols}")
    if sorted(combined) != sorted(t.labels):
        raise InvalidModePartition(
            f"partition {rows} | {cols} does not cover modes {t.labels}"
        )
    return rows, cols


def matricize(
    t: NamedTensor,
    row_modes: Sequence[LabelLike],
    col_modes: Sequence[LabelLike],
) -> np.ndarray:
    """Flatten ``t`` into a matrix.

    Rows enumerate the ``row_modes`` indices in row-major order (first label
    slowest), columns likewise for ``col_modes``.  The two lists must form a
    disjoint, exact partition of the tensor's modes.
    """
    rows, cols = _partition_perm(t, row_modes, col_modes)
    arr = t.aligned(rows + cols)
    nrow = int(np.prod([t.dim(l) for l in rows], dtype=np.int64)) if rows else 1
    ncol = int(np.prod([t.dim(l) for l in cols], dtype=np.int64)) if cols else 1
    return arr.reshape(nrow, ncol)


def tensorize(
    matrix: np.ndarray,
    row_modes: Sequence[tuple[LabelLike, int]],
    col_modes: Sequence[tuple[LabelLike, int]],
) -> NamedTensor:
    """Inverse of :func:`matricize` for the given labeled dimensions."""
    rows = [(as_label(l), int(d)) for l, d in row_modes]
    cols = [(as_label(l), int(d)) for l, d in col_modes]
    matrix = np.asarray(matrix, dtype=float)
    nrow = int(np.prod([d for _, d in rows], dtype=np.int64)) if rows else 1
    ncol = int(np.prod([d for _, d in cols], dtype=np.int64)) if cols else 1
    if matrix.shape != (nrow, ncol):
        raise ShapeMismatch(
            f"matrix shape {matrix.shape} does not match modes {(nrow, ncol)}"
        )
    dims = [d for _, d in rows] + [d for _, d in cols]
    labels = [l for l, _ in rows] + [l for l, _ in cols]
    return NamedTensor(matrix.reshape(dims), labels)


def mode_product(
    a: NamedTensor,
    b: NamedTensor,
    shared: Sequence[LabelLike] | None = None,
) -> NamedTensor:
    """Contract ``a`` and ``b`` along shared modes.

    When ``shared`` is omitted it defaults to the labels common to both
    tensors.  The result carries ``a``'s remaining modes followed by ``b``'s,
    and equals the matricize-multiply-tensorize composition.
    """
    if shared is None:
        shared_labels = tuple(l for l in a.labels if b.has(l))
    else:
        shared_labels = _as_labels(shared)
    if not shared_labels:
        raise OuterProductNotSupported(
            "no shared modes; outer products are not supported"
        )
    for lab in shared_labels:
        if not a.has(lab):
            raise UnknownMode(f"shared mode {lab!r} not in left operand")
        if not b.has(lab):
            raise UnknownMode(f"shared mode {lab!r} not in right operand")
        if a.dim(lab) != b.dim(lab):
            raise ShapeMismatch(
                f"mode {lab!r}: dimension {a.dim(lab)} != {b.dim(lab)}"
            )
    a_rest = tuple(l for l in a.labels if l not in shared_labels)
    b_rest = tuple(l for l in b.labels if l not in shared_labels)
    clash = set(a_rest) & set(b_rest)
    if clash:
        raise InvalidModePartition(
            f"uncontracted modes {sorted(map(repr, clash))} appear in both operands"
        )
    a_axes = [a.axis(l) for l in shared_labels]
    b_axes = [b.axis(l) for l in shared_labels]
    out = np.tensordot(a.data, b.data, axes=(a_axes, b_axes))
    return NamedTensor(out, a_rest + b_rest)


def duplicate_mode(t: NamedTensor, mode: LabelLike, copies: int) -> NamedTensor:
    """Embed ``t`` with ``mode`` repeated ``copies`` times, hyper-diagonally.

    The duplicated copies replace the original mode in place (occurrence tags
    count up from the original's).  Entries with all duplicated indices equal
    carry the original value; every other entry is zero.
    """
    lab = as_label(mode)
    ax = t.axis(lab)
    if copies < 2:
        raise ShapeMismatch("copies must be at least 2")
    d = t.shape[ax]
    taken = {l.occurrence for l in t.labels if l.name == lab.name}
    occ_tags: list[int] = [lab.occurrence]
    nxt = lab.occurrence + 1
    while len(occ_tags) < copies:
        if nxt not in taken:
            occ_tags.append(nxt)
        nxt += 1
    new_labels = (
        t.labels[:ax]
        + tuple(ModeLabel(lab.name, o) for o in occ_tags)
        + t.labels[ax + 1 :]
    )
    moved = np.moveaxis(t.data, ax, 0)
    out = np.zeros((d,) * copies + moved.shape[1:])
    idx = np.arange(d)
    out[(idx,) * copies] = moved
    out = np.moveaxis(out, tuple(range(copies)), tuple(range(ax, ax + copies)))
    return NamedTensor(out, new_labels)


def identity_tensor(modes: Sequence[tuple[LabelLike, int]]) -> NamedTensor:
    """Identity tensor on the given modes.

    The mode list is given once and duplicated (occurrence bumped by one on
    the second copy), producing ``2K`` modes.  An entry is 1 iff the first K
    indices equal the last K.
    """
    labels = [(as_label(l), int(d)) for l, d in modes]
    if not labels:
        raise ShapeMismatch("identity tensor needs at least one mode")
    dims = [d for _, d in labels]
    n = int(np.prod(dims, dtype=np.int64))
    first = [l for l, _ in labels]
    second = [ModeLabel(l.name, l.occurrence + 1) for l in first]
    data = np.eye(n).reshape(dims + dims)
    return NamedTensor(data, first + second)


def default_pinv_rtol(nrow: int, ncol: int) -> float:
    """Default truncation tolerance: ``max(m, n) * machine epsilon``."""
    return max(nrow, ncol) * np.finfo(float).eps


def pinv_along(
    t: NamedTensor,
    inv_modes: Sequence[LabelLike],
    rtol: float | None = None,
) -> NamedTensor:
    """Moore-Penrose pseudo-inverse of ``t`` with respect to ``inv_modes``.

    The tensor is matricized with ``inv_modes`` on one side, pseudo-inverted
    with singular values below ``rtol * sigma_max`` truncated, and tensorized
    back onto the original mode set (and order).  Contracting the result with
    ``t`` over ``inv_modes`` yields the identity tensor on the remaining
    modes whenever the matricized tensor has full rank on the inverted side.
    """
    inv = _as_labels(inv_modes)
    if not inv:
        raise InvalidModePartition("inv_modes must be nonempty")
    rest = tuple(l for l in t.labels if l not in inv)
    if not rest:
        raise InvalidModePartition("inv_modes must be a proper subset of the modes")
    for lab in inv:
        if not t.has(lab):
            raise UnknownMode(f"mode {lab!r} not in {t.labels}")
    a = matricize(t, rest, inv)
    if rtol is None:
        rtol = default_pinv_rtol(*a.shape)
    if not (isinstance(rtol, (int, float)) and rtol > 0):
        raise InvalidTolerance(f"rtol must be positive, got {rtol!r}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise RankZero("matrix is zero; pseudo-inverse undefined at this tolerance")
    keep = s > rtol * s[0]
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise RankZero("all singular values truncated")
    # pinv(a) has inv_modes on rows, remaining modes on columns
    p = (vt[:r].T / s[:r]) @ u[:, :r].T
    inv_dims = [(l, t.dim(l)) for l in inv]
    rest_dims = [(l, t.dim(l)) for l in rest]
    out = tensorize(p, inv_dims, rest_dims)
    return out.transposed(t.labels)


def collapse_mode(t: NamedTensor, mode: LabelLike, index: int) -> NamedTensor:
    """Slice ``t`` at ``index`` along ``mode``; the mode disappears."""
    lab = as_label(mode)
    ax = t.axis(lab)
    d = t.shape[ax]
    if not (0 <= index < d):
        raise IndexOutOfRange(f"index {index} out of range for mode {lab!r} (dim {d})")
    data = np.take(t.data, index, axis=ax)
    labels = t.labels[:ax] + t.labels[ax + 1 :]
    return NamedTensor(data, labels)


def khatri_rao_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Khatri-Rao product.

    Column ``j`` of the result is ``a[:, j] kron b[:, j]``; shapes
    ``(m, n)`` and ``(k, n)`` give ``(m*k, n)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch("operands must be matrices")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"column counts differ: {a.shape[1]} != {b.shape[1]}"
        )
    m, n = a.shape
    k = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(m * k, n)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def numerical_rank(a: np.ndarray, rtol: float) -> int:
    """Number of singular values above ``rtol * sigma_max``; 0 for zero input."""
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)
    return spectrum_rank(s, rtol)


def spectrum_rank(s: np.ndarray, rtol: float) -> int:
    """:func:`numerical_rank` read off descending singular values ``s``."""
    if not (isinstance(rtol, (int, float)) and rtol > 0):
        raise InvalidTolerance(f"rtol must be positive, got {rtol!r}")
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))
