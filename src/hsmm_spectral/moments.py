"""Observation schedules and co-occurrence moment tensors.

An :class:`ObservationSchedule` fixes which symbols around an anchor position
enter the left and right observation windows.  The right window of anchor
``s`` (0-based) sits at absolute positions ``s + 1 + offset`` for each right
offset; the left window mirrors it at ``s - 1 - offset``, equivalently
``s - n_d + lam`` for the reflected ``lam`` offsets.  Composite window
indices are flattened row-major over positions in ascending order (earliest
position is the slowest digit, base ``n_o``).

Moment tensors are averaged placement frequencies, so each sums to one.  The
three windowed tensors pool one *common* anchor set (anchors where the
aligned, shifted and symbol-augmented placements all fit); this keeps their
left factors identical, which the downstream pseudo-inverse cancellation
needs exactly.

One counting kernel, :func:`count_cooccurrences`, serves both the pooled
estimate and the per-anchor build.  It reads the sequences as one ragged
int64 stream (:class:`~hsmm_spectral.hsmm.SequenceFile`: the symbols of all
sequences back to back, and where each begins) and slices it into blocks
of :data:`BLOCK` positions, each viewed with the window reach on either
side, so its temporaries are bounded by the block, not by the input.  Per
block it computes the left- and right-window codes once per position with one
multiply-add per window offset, reads each anchor's windows as shifted
lookups into them, and tallies integer counts of composite indices with
``np.bincount`` (or ``np.unique`` when the table is larger than the block).
Tables are divided by their counts once, at the end, so they equal the
placement frequencies exactly.  Each moment table is that one quotient,
marked read-only.  Count tables over :data:`TABLE_BYTES` are refused before
any is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .hsmm import (
    HsmmParams,
    InvalidModel,
    SequenceFile,
    duration_update_matrix,
    initial_joint,
    joint_transition_matrix,
    next_state_table,
    state_update_matrix,
    validate,
)
from .tensors import NamedTensor, read_only


class InsufficientData(Exception):
    """No sequence can host a single placement of the required windows."""

    def __init__(self, message: str, min_length: int):
        super().__init__(message)
        self.min_length = min_length


@dataclass(frozen=True)
class ObservationSchedule:
    """Index sets of the left/right observation windows.

    ``right_offsets`` are the distinct values of
    ``max(0, (n_d - 1) - (n_x**i - 1))`` for ``i = 0 .. ell - 1`` (sorted
    ascending); gaps between scheduled positions grow geometrically in
    ``n_x`` so that ``ell`` stays logarithmic in ``n_d``.  For ``n_x == 1``
    the geometric rule degenerates and the window falls back to ``n_d``
    consecutive positions.
    """

    n_x: int
    n_d: int
    ell: int
    right_offsets: tuple[int, ...]
    left_offsets: tuple[int, ...]

    @property
    def span(self) -> int:
        return self.n_d

    @property
    def joint_rank(self) -> int:
        """Generic rank of the windowed moment matrix.

        With a single hidden state the emissions are independent of the
        duration counter, every window factor collapses to an outer
        product, and the representation is rank one.
        """
        return self.n_x * self.n_d if self.n_x > 1 else 1

    @property
    def min_sequence_length(self) -> int:
        """Shortest sequence hosting one common-anchor placement."""
        return 2 * self.n_d + 2

    def anchor_range(self, T: int) -> range:
        """Anchors (0-based) where aligned and shifted placements all fit."""
        return range(self.n_d, T - self.n_d - 1)

    def right_positions(self, anchor: int) -> np.ndarray:
        return anchor + 1 + np.asarray(self.right_offsets)

    def left_positions(self, anchor: int) -> np.ndarray:
        return anchor - self.n_d + np.asarray(self.left_offsets)

    def start_positions(self) -> np.ndarray:
        """Right-window positions of the boundary tensor (anchor 1)."""
        return 2 + np.asarray(self.right_offsets)

    @property
    def start_min_length(self) -> int:
        return self.n_d + 2


def build_schedule(n_x: int, n_d: int) -> ObservationSchedule:
    """Construct the window schedule for given state and duration sizes."""
    if n_x < 1 or n_d < 1:
        raise InvalidModel("n_x and n_d must be positive")
    if n_x == 1:
        offsets = tuple(range(n_d))
    else:
        # smallest ell with n_x**(ell - 1) >= n_d, in exact integer arithmetic
        ell = 1
        while n_x ** (ell - 1) < n_d:
            ell += 1
        raw = [max(0, (n_d - 1) - (n_x**i - 1)) for i in range(ell)]
        offsets = tuple(sorted(set(raw)))
    span = n_d
    left = tuple(sorted(span - 1 - o for o in offsets))
    return ObservationSchedule(
        n_x=n_x,
        n_d=n_d,
        ell=len(offsets),
        right_offsets=offsets,
        left_offsets=left,
    )


@dataclass(frozen=True)
class MomentSet:
    """Averaged co-occurrence tensors over scheduled windows.

    ``m_lr`` couples the left and right windows of the same anchor,
    ``m_lr_shift`` shifts the right window one anchor forward, ``m_lro``
    adds the anchor's own symbol, ``m_oo`` pools all adjacent symbol pairs,
    and ``m_start`` is the boundary joint of the first two symbols with the
    right window anchored at position 1.  Each is a read-only float64 array.
    """

    m_lr: np.ndarray  # (k, k)
    m_lr_shift: np.ndarray  # (k, k)
    m_lro: np.ndarray  # (k, k, n_o)
    m_oo: np.ndarray  # (n_o, n_o)
    m_start: np.ndarray  # (n_o, n_o, k)
    n_o: int
    schedule: ObservationSchedule
    window_count: int
    pair_count: int
    start_count: int


@dataclass(frozen=True)
class AnalyticFactorContext:
    """Population factors behind the analytic moments.

    ``f_right`` is the conditional table of the right window given the
    anchor's state and the previous step's duration counter; ``f_left`` is
    the pooled left-window conditional on the same pair; ``k_marginals``
    holds that pair's marginal for every pooled anchor.
    """

    # NamedTensor because the benchmark reads f_left.data and k_marginals[i].data
    f_right: NamedTensor
    f_left: NamedTensor
    k_marginals: tuple[NamedTensor, ...]


# Symbols per counting block.  The kernel's temporaries are a few int64
# arrays of about this length, so they stay small whatever the input size
# (0.8 MB at most here); 2**16 held 2.8 MB and counted no faster.
BLOCK = 1 << 14

# Bytes the dense count tables of one call may take.  They grow as
# n_o**(2 * ell + 1), so a large alphabet asks for terabytes; the largest
# benchmarked tables (k = 512) take 21 MB.
TABLE_BYTES = 1 << 30


class Counts(NamedTuple):
    """Integer placement counts behind the moment tensors.

    Tables are as in :class:`MomentSet`, unnormalised.  When counted per
    anchor, ``lr``, ``lr_shift``, ``lro`` and ``oo`` carry a leading anchor
    axis (anchor ``s`` at index ``s - n_d``) and ``oo`` counts the pair at
    the anchor only; pooled, ``oo`` counts every adjacent pair.
    """

    lr: np.ndarray
    lr_shift: np.ndarray
    lro: np.ndarray
    oo: np.ndarray
    start: np.ndarray
    windows: int
    pairs: int
    starts: int


def _blocks(seqs: SequenceFile, n_d: int):
    """Yield ``(stream, pieces)`` for each run of :data:`BLOCK` stream positions.

    Block ``b`` owns positions ``b * BLOCK`` up to ``(b + 1) * BLOCK`` of
    ``seqs.values``, and ``stream`` views them together with the ``n_d``
    symbols before and ``n_d + 1`` after that the windows reach, so nothing
    is copied.  Each sequence the block overlaps is one piece.  The rows of
    ``pieces`` are ``(T, base, lo, hi)``: the piece owns positions
    ``lo <= t < hi`` of its length-``T`` sequence, found at
    ``stream[base + t]``.
    """
    values, offsets, lengths = seqs.values, seqs.offsets, seqs.lengths
    size = values.shape[0]
    for cut in range(0, size, BLOCK):
        end = min(cut + BLOCK, size)
        a = max(cut - n_d, 0)
        i = np.arange(seqs.row_of(cut), np.searchsorted(offsets, end))
        start, T = offsets[i], lengths[i]
        lo, hi = np.maximum(cut - start, 0), np.minimum(end - start, T)
        yield values[a : end + n_d + 1], np.stack((T, start - a, lo, hi))


def _check_symbols(seqs: SequenceFile, n_o: int) -> None:
    """Raise ``ValueError`` naming the sequence and symbol of the first one outside ``[0, n_o)``."""
    bad = seqs.outside(n_o)
    if bad.size:
        raise ValueError(
            f"sequence {seqs.row_of(bad[0])}: symbol {seqs.values[bad[0]]} "
            f"outside alphabet of size {n_o}"
        )


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` over the pairs (empty where stop <= start)."""
    lengths = np.maximum(stops - starts, 0)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _window_codes(stream: np.ndarray, offsets: Sequence[int], n_o: int) -> np.ndarray:
    """Composite code of the window at ``p + offsets`` for every ``p`` it fits at.

    One multiply-add per offset over the whole stream; ascending offsets are
    most-significant-first digits.
    """
    n = max(stream.shape[0] - offsets[-1], 0)
    codes = stream[offsets[0] : offsets[0] + n].copy()
    for o in offsets[1:]:
        codes *= n_o
        codes += stream[o : o + n]
    return codes


# Table entries per block index above which a tally sorts the block's indices
# (``np.unique``) instead of running a full-length ``np.bincount``, whose cost
# grows with the table.  Measured on 1k to 16k uniform indices (2 vCPU, NumPy
# 2.4), the bincount is 1.2-2.6x the faster at 16 entries per index and
# 1.3-3.6x the slower at 64; between them the block size decides.
TALLY_SORT_RATIO = 16


def _tally(table: np.ndarray, index: np.ndarray) -> None:
    """Add the histogram of ``index`` into the integer ``table``, read flat."""
    table = table.reshape(-1)
    if table.size > TALLY_SORT_RATIO * index.size:
        bins, hits = np.unique(index, return_counts=True)
        table[bins] += hits
    else:
        table += np.bincount(index, minlength=table.size)


def _tally_windows(
    lr: np.ndarray, lr_shift: np.ndarray, lro: np.ndarray, stream: np.ndarray,
    pieces: np.ndarray, n_o: int, sched: ObservationSchedule, anchors: int | None,
) -> int:
    """Tally one block's ``lr``, ``lr_shift`` and ``lro``; return its anchor count."""
    k = n_o**sched.ell
    n_d = sched.n_d
    T, base, lo, hi = pieces
    right = _window_codes(stream, sched.right_offsets, n_o)
    # anchor s is addressed by where its left window starts, s - n_d
    first, stop = np.maximum(lo, n_d) - n_d, np.minimum(hi, T - n_d - 1) - n_d
    at = _ranges(base + first, base + stop)
    index = _window_codes(stream, sched.left_offsets, n_o)[at]
    if anchors is not None:
        index += _ranges(first, stop) * k
    index *= k
    _tally(lr_shift, index + right[n_d + 2 :][at])
    index += right[n_d + 1 :][at]
    _tally(lr, index)
    index *= n_o
    index += stream[n_d:][at]
    _tally(lro, index)
    return at.shape[0]


def _tally_pairs(
    oo: np.ndarray, stream: np.ndarray, pieces: np.ndarray, n_o: int, n_d: int,
    anchors: int | None,
) -> int:
    """Tally one block's adjacent pairs (per anchor: the anchor's pair); return their count."""
    T, base, lo, hi = pieces
    if anchors is None:
        at = _ranges(base + lo, base + np.minimum(hi, T - 1))
        index = stream[at]
    else:
        first, stop = np.maximum(lo, n_d), np.minimum(hi, T - n_d - 1)
        at = _ranges(base + first, base + stop)
        index = _ranges(first - n_d, stop - n_d) * n_o + stream[at]
    index *= n_o
    index += stream[1:][at]
    _tally(oo, index)
    return at.shape[0]


def _tally_starts(
    start: np.ndarray, stream: np.ndarray, pieces: np.ndarray, n_o: int,
    sched: ObservationSchedule,
) -> int:
    """Tally the first two symbols and anchor 1's right window of each sequence begun in the block."""
    T, base, lo, _ = pieces
    at = base[(lo == 0) & (T >= sched.start_min_length)]
    index = stream[at] * n_o + stream[at + 1]
    for o in sched.right_offsets:
        index *= n_o
        index += stream[at + 2 + o]
    _tally(start, index)
    return at.shape[0]


def count_cooccurrences(
    sequences,
    n_o: int,
    sched: ObservationSchedule,
    anchors: int | None = None,
) -> Counts:
    """Count scheduled co-occurrences, pooled or (``anchors`` given) per anchor.

    The one counting kernel behind both builds.  ``sequences`` is a
    :class:`~hsmm_spectral.hsmm.SequenceFile`, a 2-D array of equal-length
    rows, or 1-D arrays (concatenated once).  The stream passes through in
    blocks of positions (see :func:`_blocks`).  Per block the left- and
    right-window codes are computed once per position, each anchor reads its
    ``left``, ``right`` and ``right_next`` codes as shifted lookups, and the
    composite indices are tallied with ``np.bincount``.  Per-anchor counting
    (equal-length sequences with ``anchors`` anchors each) makes the anchor
    the leading digit of every windowed index.  A symbol outside
    ``[0, n_o)`` raises ``ValueError`` naming its sequence, and so do
    tables over :data:`TABLE_BYTES`, before any is allocated.
    """
    n_o = int(n_o)  # table sizes in Python integers, which cannot overflow
    k = n_o**sched.ell
    lead = () if anchors is None else (anchors,)
    shapes = (lead + (k, k), lead + (k, k), lead + (k, k, n_o),
              lead + (n_o, n_o), (n_o, n_o, k))
    size = 8 * sum(math.prod(shape) for shape in shapes)
    if size > TABLE_BYTES:
        raise ValueError(
            f"count tables for n_o={n_o}, ell={sched.ell} (k={k}"
            f"{'' if anchors is None else f', {anchors} anchors'}) need {size} bytes, "
            f"over the cap of {TABLE_BYTES}"
        )
    lr, lr_shift, lro, oo, start = (np.zeros(shape, dtype=np.int64) for shape in shapes)
    windows = pairs = starts = 0
    seqs = SequenceFile.of(sequences)
    _check_symbols(seqs, n_o)
    for stream, pieces in _blocks(seqs, sched.n_d):
        windows += _tally_windows(lr, lr_shift, lro, stream, pieces, n_o, sched, anchors)
        pairs += _tally_pairs(oo, stream, pieces, n_o, sched.n_d, anchors)
        starts += _tally_starts(start, stream, pieces, n_o, sched)
    return Counts(lr, lr_shift, lro, oo, start, windows, pairs, starts)


def estimate_moments(
    sequences: Sequence[np.ndarray], n_o: int, sched: ObservationSchedule
) -> MomentSet:
    """Count scheduled co-occurrences across all sequences and average.

    Raises :class:`InsufficientData` when no sequence is long enough to host
    a single common-anchor placement, and ``ValueError`` on a symbol outside
    ``[0, n_o)`` or on count tables over :data:`TABLE_BYTES`.
    """
    c = count_cooccurrences(sequences, n_o, sched)
    if c.windows == 0:
        raise InsufficientData(
            f"no sequence hosts a full window placement; need length >= "
            f"{sched.min_sequence_length}",
            sched.min_sequence_length,
        )
    return MomentSet(
        m_lr=read_only(c.lr / c.windows),
        m_lr_shift=read_only(c.lr_shift / c.windows),
        m_lro=read_only(c.lro / c.windows),
        m_oo=read_only(c.oo / c.pairs),
        m_start=read_only(c.start / max(c.starts, 1)),
        n_o=n_o,
        schedule=sched,
        window_count=c.windows,
        pair_count=c.pairs,
        start_count=c.starts,
    )


# ---------------------------------------------------------------------------
# analytic (population) moments


def window_conditional(
    p: HsmmParams, offsets: Sequence[int], n_o: int | None = None
) -> np.ndarray:
    """Conditional table of scheduled observations given a joint state.

    Entry ``[w, (x, d)]`` is the probability that the symbols at relative
    positions ``1 + offset`` (for each offset, ascending) spell the
    composite code ``w``, given the chain sits at ``(x, d)`` at relative
    position 0.  Computed by forward marginalization, emitting only at
    scheduled positions.
    """
    offsets = sorted(set(int(o) for o in offsets))
    V = joint_transition_matrix(p)
    em = np.concatenate([p.O] * p.n_d, axis=1)  # [symbol, (x, d)]
    S = p.n_joint
    b = np.eye(S)[None, :, :]  # [prefix, current, root]
    scheduled = set(offsets)
    for step in range(1, offsets[-1] + 2):
        b = np.einsum("ts,psr->ptr", V, b)
        if step - 1 in scheduled:
            pref, _, _ = b.shape
            b = np.einsum("psr,os->posr", b, em).reshape(pref * p.n_o, S, S)
    return b.sum(axis=1)


def _left_joint(
    p: HsmmParams,
    sched: ObservationSchedule,
    k_start: np.ndarray,
) -> np.ndarray:
    """Joint table of the left window with the anchor's (state, prev-duration).

    ``k_start`` is the (possibly anchor-averaged) marginal of the pair at the
    window's first position.  Returns ``[w, (x, d_prev)]``.
    """
    V = joint_transition_matrix(p)
    XL = state_update_matrix(p)
    em = np.concatenate([p.O] * p.n_d, axis=1)
    a = k_start[None, :].copy()  # [prefix, (x, d)]
    scheduled = set(sched.left_offsets)
    for rel in range(p.n_d):
        if rel in scheduled:
            pref = a.shape[0]
            a = np.einsum("ps,os->pos", a, em).reshape(pref * p.n_o, p.n_joint)
        if rel < p.n_d - 1:
            a = a @ V.T
    return a @ XL.T  # half-step: pair (x_{s-1}, d_{s-1}) -> (x_s, d_{s-1})


def analytic_moments(
    p: HsmmParams,
    sched: ObservationSchedule,
    T: int,
    anchors: Sequence[int] | None = None,
) -> tuple[MomentSet, AnalyticFactorContext]:
    """Population limits of :func:`estimate_moments` over a length-``T`` horizon.

    ``anchors`` restricts the pooled anchor set (defaults to every anchor a
    length-``T`` sequence admits).  The returned context exposes the factor
    tables behind the construction.
    """
    report = validate(p)
    if not report.ok:
        raise InvalidModel("model fails validation:\n" + str(report))
    if anchors is None:
        anchors = list(sched.anchor_range(T))
    anchors = sorted(int(a) for a in anchors)
    if not anchors:
        raise InsufficientData(
            f"horizon T={T} admits no anchor; need T >= {sched.min_sequence_length}",
            sched.min_sequence_length,
        )
    if anchors[0] < sched.n_d or anchors[-1] >= T - sched.n_d - 1:
        raise InvalidModel(f"anchor set {anchors[:3]}.. outside the valid range")

    V = joint_transition_matrix(p)
    W = duration_update_matrix(p)
    XL = state_update_matrix(p)
    T0 = next_state_table(p)
    em = np.concatenate([p.O] * p.n_d, axis=1)
    S = p.n_joint

    # marginals k[t] of the same-time pair, t = 0 .. T-2
    ks = np.empty((T - 1, S))
    ks[0] = initial_joint(p)
    for t in range(1, T - 1):
        ks[t] = V @ ks[t - 1]

    f_next = window_conditional(p, sched.right_offsets)
    f_mid = f_next @ W
    f_right = f_next @ V

    k_start = ks[[a - sched.n_d for a in anchors]].mean(axis=0)
    left = _left_joint(p, sched, k_start)

    m_lr = left @ f_mid.T
    m_lr_shift = left @ (f_right @ W).T
    m_lro = np.einsum("ls,os,rs->lro", left, em, f_mid)

    pair_joint = np.zeros((p.n_x, p.n_x))  # [next, current]
    for t in range(T - 1):
        pair_joint += (T0 * ks[t][None, :]).reshape(p.n_x, p.n_d, p.n_x).sum(axis=1)
    pair_joint /= T - 1
    m_oo = p.O @ pair_joint.T @ p.O.T

    # boundary joint p(o_0, o_1, right window of anchor 1)
    phi2 = XL @ (ks[0][:, None] * em.T)  # [(x, d_prev=d_0), o_0]
    m_start = np.einsum("sa,os,rs->aor", phi2, em, f_mid)

    k_marginals = tuple(NamedTensor(XL @ ks[a - 1], ["xd"]) for a in anchors)
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = left.sum(axis=0)
        f_left = np.where(cols[None, :] > 0, left / cols[None, :], 0.0)
    context = AnalyticFactorContext(
        f_right=NamedTensor(f_mid, ["or", "xd"]),
        f_left=NamedTensor(f_left, ["ol", "xd"]),
        k_marginals=k_marginals,
    )
    moments = MomentSet(
        m_lr=read_only(m_lr),
        m_lr_shift=read_only(m_lr_shift),
        m_lro=read_only(m_lro),
        m_oo=read_only(m_oo),
        m_start=read_only(m_start),
        n_o=p.n_o,
        schedule=sched,
        window_count=len(anchors),
        pair_count=T - 1,
        start_count=1,
    )
    return moments, context
