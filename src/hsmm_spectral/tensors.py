"""Read-only arrays and the rank helpers of the verification layer.

The pipeline holds its moment and model tables as plain float64 arrays,
marked read-only in place by :func:`read_only`.  A :class:`NamedTensor` is a
read-only view of an array that carries one string label per axis.  Only
the tables that the benchmark reads through ``.data`` or ``.labels`` keep
it: a learned model's ``d_tilde``, and the analytic factor context's
``f_left`` and ``k_marginals``; no operation of the package reads the labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class TensorError(Exception):
    """Base class for errors raised by the tensor layer."""


class ShapeMismatch(TensorError):
    """Dimensions disagree where they are required to match."""


class InvalidTolerance(TensorError):
    """A tolerance argument is not a positive real number."""


class NamedTensor:
    """A read-only view of an array, with one string label per axis.

    ``data`` views the array given, neither copied nor scanned; the caller's
    array keeps its own flags.
    """

    __slots__ = ("_labels", "_data")

    def __init__(self, data, labels: Sequence[str]):
        arr = np.asarray(data).view()
        labels = tuple(str(l) for l in labels)
        if arr.ndim != len(labels):
            raise ShapeMismatch(f"array has {arr.ndim} axes but {len(labels)} labels were given")
        arr.flags.writeable = False
        self._labels, self._data = labels, arr

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def data(self) -> np.ndarray:
        return self._data


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
    return int(spectrum_rank(s, rtol))


def spectrum_rank(s: np.ndarray, rtol: float) -> np.ndarray:
    """:func:`numerical_rank` read off descending singular values ``s``.

    Each row of a stacked ``s`` is counted against its own leading value.
    """
    if not (isinstance(rtol, (int, float)) and rtol > 0):
        raise InvalidTolerance(f"rtol must be positive, got {rtol!r}")
    return (s > rtol * s[..., :1]).sum(axis=-1)
