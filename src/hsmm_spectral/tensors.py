"""Read-only arrays and the rank helpers of the verification layer.

The pipeline holds its moment and model tables as plain float64 arrays,
marked read-only in place by :func:`read_only`.  A :class:`NamedTensor` is a
float64 copy that carries one :class:`ModeLabel`, a ``(name, occurrence)``
pair, per axis, is read-only and rejects non-finite entries.  Only the
tables that callers perturb or read through ``.data`` keep it: a learned
model's ``d_tilde`` and the analytic factor context; no operation reads the
labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class TensorError(Exception):
    """Base class for errors raised by the tensor layer."""


class InvalidModePartition(TensorError):
    """Mode labels repeat within one tensor."""


class ShapeMismatch(TensorError):
    """Dimensions disagree where they are required to match."""


class InvalidTolerance(TensorError):
    """A tolerance argument is not a positive real number."""


class RankZero(TensorError):
    """All singular values fell below the truncation threshold."""


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

    def __init__(self, data, labels: Sequence[str | ModeLabel]):
        arr = np.array(data, dtype=float)
        labels = tuple(
            l if isinstance(l, ModeLabel) else ModeLabel(str(l)) for l in labels
        )
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

    def __repr__(self) -> str:
        modes = ", ".join(f"{l!r}:{d}" for l, d in zip(self._labels, self.shape))
        return f"NamedTensor({modes})"


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked read-only (a view of it stays read-only too)."""
    a.flags.writeable = False
    return a


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
