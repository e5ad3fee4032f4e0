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
block it runs over one contiguous span of stream positions, from the first
placement any sequence has in the block to the last: the left- and
right-window codes come from one multiply-add per window offset over that
span, and each table's composite indices are shifted slices of them.  The
gap positions in the span, between one sequence's placements and the
next's, go to one extra bin, one past the table's last entry, which the
tally drops; a block of short rows, whose span is mostly gaps, gathers its
placements instead (:data:`SPAN_PLACEMENTS_PER_GAP`).  Each tallied table
is a float64 view of a buffer whose one extra entry is that bin, and one
unbuffered ``np.add.at`` per table and block counts into it; ``lr`` is
summed out of ``lro`` at the end, and so, per anchor, is ``oo``.  Tables
are divided by their counts once, at the end and in place, so they equal
the placement frequencies exactly and each moment table is its count
table, marked read-only.  Count tables over :data:`TABLE_BYTES` are refused
before any is allocated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .hsmm import (
    HsmmParams,
    InvalidModel,
    SequenceFile,
    _ranges,
    emissions_on_joint,
    initial_joint,
    next_state_table,
    renewal_kernel,
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

    A schedule is its integer sizes and its ascending integer
    ``right_offsets`` in ``[0, n_d - 1]``; ``ell`` and the mirrored
    ``left_offsets`` follow from them.  Other sizes or offsets are
    :class:`InvalidModel`, named with the schedule.  :func:`build_schedule`'s
    offsets are the distinct values of
    ``max(0, (n_d - 1) - (n_x**i - 1))`` for ``i = 0 .. ell - 1``; gaps
    between scheduled positions grow geometrically in ``n_x`` so that
    ``ell`` stays logarithmic in ``n_d``.  For ``n_x == 1`` the geometric
    rule degenerates and the window falls back to ``n_d`` consecutive
    positions.
    """

    n_x: int
    n_d: int
    right_offsets: tuple[int, ...]

    def __post_init__(self):
        o = self.right_offsets
        try:
            for v in (self.n_x, self.n_d, *o):
                operator.index(v)  # np.int64 passes; a float does not
        except TypeError:
            raise InvalidModel(f"{self!r}: n_x, n_d and right_offsets must be integers") from None
        if self.n_x < 1 or self.n_d < 1:
            rule = "n_x and n_d must be at least 1"
        elif not o:
            rule = "right_offsets must not be empty"
        elif any(a >= b for a, b in zip(o, o[1:])):
            rule = "right_offsets must be strictly ascending"
        elif o[0] < 0 or o[-1] > self.n_d - 1:
            rule = f"right_offsets must lie in [0, n_d - 1] = [0, {self.n_d - 1}]"
        else:
            return
        raise InvalidModel(f"{self!r}: {rule}")

    @property
    def ell(self) -> int:
        """Symbols per window."""
        return len(self.right_offsets)

    @property
    def left_offsets(self) -> tuple[int, ...]:
        """The left window's offsets, ``n_d - 1 - o`` for each right offset ``o``, ascending."""
        return tuple(sorted(self.n_d - 1 - o for o in self.right_offsets))

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
    return ObservationSchedule(n_x, n_d, offsets)


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
    schedule: ObservationSchedule
    window_count: int
    pair_count: int
    start_count: int

    @property
    def n_o(self) -> int:
        """Alphabet size, the side of ``m_oo``."""
        return self.m_oo.shape[0]


@dataclass(frozen=True)
class AnalyticFactorContext:
    """Population factors behind the analytic moments.

    ``f_right`` is the conditional table of the right window given the
    anchor's state and the previous step's duration counter, a read-only
    array; ``f_left`` is the pooled left-window conditional on the same
    pair; ``k_marginals`` holds that pair's marginal for every pooled anchor.
    """

    f_right: np.ndarray
    # NamedTensor because the benchmark reads f_left.data and k_marginals[i].data
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
    """Placement counts behind the moment tensors, as exact float64 integers.

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

    def averaged(self, windows: int, pairs: int, starts: int) -> list[np.ndarray]:
        """The five tables, each divided in place by its count and marked read-only."""
        tables = self[:5]
        for table, count in zip(tables, (windows, windows, windows, pairs, starts)):
            table /= count
        return [read_only(table) for table in tables]


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


# Placements a block's span must hold per gap position for its tallies to run
# over the whole span, the gap positions sent to a dropped bin; a block with
# more gaps gathers its placements instead.  Every sequence boundary leaves
# 2 * n_d + 1 gap positions, so short rows make the span mostly gaps, and
# each gap then costs a scatter and a tally, against one gather per
# placement.  Measured on rows cut from the k = 9 and k = 512 training files
# (2 vCPU, NumPy 2.4), whole spans counted 1.5-1.8x slower than gathers on
# rows of length 8 (k = 9) and 1.2-1.6x on rows of 20-30 (k = 512), a few
# percent slower at 1.4-1.6 placements per gap (rows of 12 at k = 9, 50 at
# k = 512), and faster at four or more (rows of 25 at k = 9, 100 at k = 512).
SPAN_PLACEMENTS_PER_GAP = 4


def _span(base: np.ndarray, first: np.ndarray, stop: np.ndarray):
    """The stream span of the pieces' positions ``base + first <= p < base + stop``.

    Returns ``(lo, hi, count, keep)``: ``[lo, hi)`` runs from the first such
    position (a placement) of any piece to the last, ``count`` is the number
    of placements, and ``keep(index, size)`` turns an index over the span
    into the indices to tally in a table of ``size`` entries.  With at most
    one gap position (between one sequence's placements and the next's) per
    :data:`SPAN_PLACEMENTS_PER_GAP` placements, ``keep`` sends the gaps to
    the dropped bin ``size`` in place; with more, it gathers the placements.
    """
    keep = stop > first
    starts, stops = (base + first)[keep], (base + stop)[keep]
    if not starts.size:
        return 0, 0, 0, None
    lo, hi = int(starts[0]), int(stops[-1])
    count = int((stops - starts).sum())
    if SPAN_PLACEMENTS_PER_GAP * (hi - lo - count) > count:
        at = _ranges(starts - lo, stops - lo)
        return lo, hi, count, lambda index, size: index[at]
    gaps = _ranges(stops[:-1] - lo, starts[1:] - lo)

    def drop(index: np.ndarray, size: int) -> np.ndarray:
        index[gaps] = size
        return index

    return lo, hi, count, drop


def _cyclic(start: int, n: int, T: int, scale: int) -> np.ndarray:
    """``((start + j) % T) * scale`` for ``j < n``: the anchor digit along a span of length-``T`` rows.

    Filled as whole broadcast rows, not by a per-element modulo (which
    costs several times a gather).  Rows at least ``n`` long wrap at most
    once, so they take one ``arange`` instead, and a long row costs no more
    than the span.
    """
    start %= T
    if T >= n:
        digits = np.arange(start * scale, (start + n) * scale, scale)
        digits[T - start :] -= T * scale
        return digits
    rows = np.empty(((start + n - 1) // T + 1, T), dtype=np.int64)
    rows[:] = np.arange(0, T * scale, scale)
    return rows.reshape(-1)[start : start + n]


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


def _tally_windows(
    lr_shift: np.ndarray, lro: np.ndarray, stream: np.ndarray, pieces: np.ndarray,
    n_o: int, sched: ObservationSchedule, anchors: int | None,
) -> int:
    """Tally one block into the flat ``lr_shift`` and ``lro`` buffers; return its anchor count."""
    k = n_o**sched.ell
    n_d = sched.n_d
    T, base, lo, hi = pieces
    # anchor s is addressed by where its left window starts, s - n_d
    first, stop = np.maximum(lo, n_d) - n_d, np.minimum(hi, T - n_d - 1) - n_d
    a, b, count, keep = _span(base, first, stop)
    if not count:
        return 0
    index = _window_codes(stream[a : b + sched.left_offsets[-1]], sched.left_offsets, n_o)
    reach = b + n_d + 2 + sched.right_offsets[-1]
    right = _window_codes(stream[a + n_d + 1 : reach], sched.right_offsets, n_o)
    if anchors is not None:
        # the rows all have one length (count_cooccurrences checks), so the
        # anchor digit runs 0, 1, .. along each row of the span
        index += _cyclic(a - base[0], b - a, T[0], k)
    index *= k
    np.add.at(lr_shift, keep(index + right[1:], lr_shift.size - 1), 1.0)
    index += right[:-1]
    index *= n_o
    index += stream[a + n_d : b + n_d]
    np.add.at(lro, keep(index, lro.size - 1), 1.0)
    return count


def _tally_pairs(oo: np.ndarray, stream: np.ndarray, pieces: np.ndarray, n_o: int) -> int:
    """Tally one block's adjacent pairs into the flat ``oo`` buffer; return their count."""
    T, base, lo, hi = pieces
    a, b, count, keep = _span(base, lo, np.minimum(hi, T - 1))
    if not count:
        return 0
    index = stream[a:b] * n_o
    index += stream[a + 1 : b + 1]
    np.add.at(oo, keep(index, oo.size - 1), 1.0)
    return count


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
    np.add.at(start, index, 1.0)
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
    right-window codes are computed once per position of the block's span,
    each anchor's ``left``, ``right`` and ``right_next`` codes are shifted
    slices of them, and the composite indices are tallied with
    ``np.add.at``, the gap positions between sequences into a dropped bin
    (or, in a span that is mostly gaps, left out by a gather; see
    :func:`_span`).  Per-anchor counting (sequences with ``anchors`` anchors
    each) makes the anchor the leading digit of every windowed index.
    Tables over :data:`TABLE_BYTES` raise ``ValueError`` before any is
    allocated; then so does a symbol outside ``[0, n_o)``, naming its
    sequence, and, per anchor, a sequence hosting another number of anchors,
    naming it and its count.  That last check guards direct callers: the
    per-anchor build (:func:`~hsmm_spectral.spectral.build_observable_per_t`)
    refuses such input itself, with ``DegenerateMoments``, before it counts.
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
    seqs = SequenceFile.of(sequences).check_alphabet(n_o)
    if anchors is not None:
        hosted = np.maximum(seqs.lengths - (2 * sched.n_d + 1), 0)
        wrong = np.flatnonzero(hosted != anchors)
        if wrong.size:
            raise ValueError(
                f"sequence {wrong[0]} hosts {hosted[wrong[0]]} anchors, need {anchors}"
            )
    # each table views a buffer with its dropped bin behind it; the float 1.0
    # keeps np.add.at on NumPy's fast path, where an int costs about 20x
    buffers = [np.zeros(math.prod(shape) + 1) for shape in shapes[1:]]
    lr_shift, lro, oo, start = (b[:-1].reshape(s) for b, s in zip(buffers, shapes[1:]))
    windows = pairs = starts = 0
    for stream, pieces in _blocks(seqs, sched.n_d):
        windows += _tally_windows(*buffers[:2], stream, pieces, n_o, sched, anchors)
        if anchors is None:
            pairs += _tally_pairs(buffers[2], stream, pieces, n_o)
        starts += _tally_starts(buffers[3], stream, pieces, n_o, sched)
    # lr counts lro's placements without the symbol digit; einsum sums that
    # axis about 5x faster than ndarray.sum at k = 512
    lr = np.einsum("...o->...", lro)
    if anchors is not None:
        # the anchor's pair is lro's symbol digit and the leading digit of its
        # right window, which starts at offset 0
        pairs = windows
        oo[:] = lro.reshape(anchors, k, n_o, k // n_o, n_o).sum(axis=(1, 3)).swapaxes(1, 2)
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
        *c.averaged(c.windows, c.pairs, max(c.starts, 1)),
        schedule=sched,
        window_count=c.windows,
        pair_count=c.pairs,
        start_count=c.starts,
    )


# ---------------------------------------------------------------------------
# analytic (population) moments


def _window_walk(
    V: np.ndarray, em: np.ndarray, start: np.ndarray, offsets: Sequence[int]
) -> np.ndarray:
    """Walk the chain to position ``offsets[-1]``, emitting at each of ``offsets``.

    ``start`` is ``[1, (x, d), root]``: the joint marginal at the walk's
    position 0, for each root it is conditioned on.  At an offset the row of
    each emitted symbol is split off (the earliest symbol is the slowest
    digit of the window code); between positions every row moves by ``V``.
    Returns ``[w, (x, d), root]`` at the last position.
    """
    a = start
    n_o, S = em.shape
    for rel in range(offsets[-1] + 1):
        if rel in offsets:
            pref, _, roots = a.shape
            a = (a[:, None] * em[None, :, :, None]).reshape(pref * n_o, S, roots)
        if rel < offsets[-1]:
            a = np.einsum("ts,psr->ptr", V, a)
    return a


def _integer(name: str, value) -> int:
    """``value`` as an integer; a float, even a whole one, is :class:`InvalidModel`."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidModel(f"{name} {value} is not an integer") from None


def analytic_moments(
    p: HsmmParams,
    sched: ObservationSchedule,
    T: int,
    anchors: Sequence[int] | None = None,
) -> tuple[MomentSet, AnalyticFactorContext]:
    """Population limits of :func:`estimate_moments` over a length-``T`` horizon.

    ``anchors`` restricts the pooled anchor set (defaults to every anchor a
    length-``T`` sequence admits).  ``T`` and the anchors are integers
    (``operator.index``, so ``np.int64`` passes); another value is
    :class:`InvalidModel`, naming it.  The returned context exposes the
    factor tables behind the construction.
    """
    report = validate(p)
    if not report.ok:
        raise InvalidModel("model fails validation:\n" + str(report))
    T = _integer("horizon T", T)
    if anchors is None:
        anchors = sched.anchor_range(T)
    anchors = sorted(_integer("anchor", a) for a in anchors)
    if not anchors:
        raise InsufficientData(
            f"horizon T={T} admits no anchor; need T >= {sched.min_sequence_length}",
            sched.min_sequence_length,
        )
    if anchors[0] < sched.n_d or anchors[-1] >= T - sched.n_d - 1:
        raise InvalidModel(f"anchor set {anchors[:3]}.. outside the valid range")

    V = renewal_kernel(p.X, p.D)
    W = renewal_kernel(np.eye(p.n_x), p.D)
    XL = state_update_matrix(p)
    T0 = next_state_table(p)
    em = emissions_on_joint(p)
    S = p.n_joint

    # marginals k[t] of the same-time pair, t = 0 .. T-2
    ks = np.empty((T - 1, S))
    ks[0] = initial_joint(p)
    for t in range(1, T - 1):
        ks[t] = V @ ks[t - 1]

    f_next = _window_walk(V, em, V[None], sched.right_offsets).sum(axis=1)
    f_mid = f_next @ W
    f_right = f_next @ V

    # the left window from the pair at its first position (averaged over the
    # anchors), then the half-step (x_{s-1}, d_{s-1}) -> (x_s, d_{s-1})
    k_start = ks[[a - sched.n_d for a in anchors]].mean(axis=0)
    left = _window_walk(V, em, k_start[None, :, None], sched.left_offsets)[:, :, 0] @ XL.T

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
        f_right=read_only(f_mid),
        f_left=NamedTensor(f_left, ["ol", "xd"]),
        k_marginals=k_marginals,
    )
    moments = MomentSet(
        m_lr=read_only(m_lr),
        m_lr_shift=read_only(m_lr_shift),
        m_lro=read_only(m_lro),
        m_oo=read_only(m_oo),
        m_start=read_only(m_start),
        schedule=sched,
        window_count=len(anchors),
        pair_count=T - 1,
        start_count=1,
    )
    return moments, context
