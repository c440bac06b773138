"""Symbolic homogeneous Moran sets and shifted-scaled unions of them.

A branching schedule lists, per level j = 1..depth, how many children
(1 or 2) every surviving dyadic interval keeps.  Homogeneity makes every
covering count a power of two that reads off the prefix sums of branching
levels, so spectra can be evaluated analytically at depths far beyond
materialization.  A composite set places several schedules at dyadic
shifts 2**-e (component i occupies [2**-e_i, 2**-e_i+1)) together with the
origin, the union construction used for prescribed concave spectra.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .dyadic import DyadicTree, SetValue
from .errors import BudgetError
from .windows import FLOOR_BLOCK, Workspace, region_max

__all__ = [
    "BranchingSchedule",
    "CompositeSet",
    "materialize",
    "composite_spectrum",
    "composite_upper",
]

MAX_MATERIALIZE_NODES = 1 << 22
# deepest level a prefix array (and so any estimator) may reach
MAX_SCHEDULE_DEPTH = 1 << 21
# coarse levels from which a union's fixed-ratio spectrum reads only the
# blocks that can win (see composite_spectrum)
SKIP_LEVELS = 6000


class BranchingSchedule(SetValue):
    """Run-length encoded child counts c_j in {1, 2} for levels 1..depth.

    The runs are two read-only int64 arrays, `lengths` and `counts`, with
    equal neighbours merged, so the counts alternate between 1 and 2.  The
    fields are read-only: build a new schedule to change one.  The prefix
    counts are built once, as an entry of the schedule's memo, and
    estimators, `region_max` included, read them directly.
    """

    __slots__ = ("lengths", "counts", "depth")

    def __init__(self, runs):
        """`runs`: (length, count) pairs, an (n, 2) array-like."""
        try:
            arr = np.asarray(runs, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError("run lengths and child counts must fit in int64") from exc
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"runs must be (length, count) pairs, got shape {arr.shape}")
        lengths, counts = arr[:, 0], arr[:, 1]
        if arr.size and (lengths.min() <= 0 or counts.min() < 1 or counts.max() > 2):
            bad = np.flatnonzero((lengths <= 0) | ((counts != 1) & (counts != 2)))
            cnt, c = arr[bad[0]].tolist()
            if cnt <= 0:
                raise ValueError(f"run length must be positive, got {cnt}")
            raise ValueError(f"child count must be 1 or 2, got {c}")
        # positive int64 partial sums turn negative at the first wrap, which
        # needs size * max past the range
        near = arr.size and int(lengths.max()) * lengths.size >= 1 << 63
        if near and np.cumsum(lengths).min() < 0:
            raise ValueError("run lengths sum past the int64 range")
        # the stored runs are copies, never views of the caller's array
        if (counts[1:] == counts[:-1]).any():
            starts = np.flatnonzero(np.diff(counts, prepend=0))
            self.lengths = np.add.reduceat(lengths, starts)
            self.counts = counts[starts]
        else:  # already merged, as every written file and two-phase build is
            self.lengths = lengths.copy()
            self.counts = counts.copy()
        self.lengths.flags.writeable = False
        self.counts.flags.writeable = False
        self.depth = int(lengths.sum())
        self._memo = {}

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The runs as (length, count) tuples, built on each access."""
        return tuple(zip(self.lengths.tolist(), self.counts.tolist()))

    def prefix(self, m: int) -> int:
        """Number of branching levels among 1..m (the log2 of the level count).
        Reads the prefix array, so a depth past MAX_SCHEDULE_DEPTH raises
        BudgetError."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} outside [0, {self.depth}]")
        return int(self.prefix_array()[m])

    def prefix_array(self) -> np.ndarray:
        """S[0..depth] as read-only int64, built once; BudgetError past
        MAX_SCHEDULE_DEPTH."""
        return self._cached("prefix", _prefix_array, self, self.depth + 1)

    def _key(self) -> tuple:
        return self.lengths.tobytes(), self.counts.tobytes()

    def __repr__(self) -> str:
        return f"BranchingSchedule(depth={self.depth}, runs={len(self.lengths)})"


def check_depth(depth: int) -> int:
    """`depth`, or BudgetError if it exceeds MAX_SCHEDULE_DEPTH: every
    per-level array is checked before it is allocated."""
    if depth > MAX_SCHEDULE_DEPTH:
        raise BudgetError(f"depth {depth} exceeds the depth budget {MAX_SCHEDULE_DEPTH}")
    return depth


def _prefix_array(s: BranchingSchedule, size: int) -> np.ndarray:
    """S on levels 0..size-1 (size > depth), frozen at S[depth] past the
    depth, as one read-only int64 array."""
    check_depth(size - 1)
    snp = np.zeros(size, dtype=np.int64)
    # the branching flags, summed in place: a cumsum that casts its input
    # would take an int64 copy of the whole level range
    S = snp[1 : s.depth + 1]
    S[...] = np.repeat(s.counts == 2, s.lengths)
    np.cumsum(S, out=S)
    snp[s.depth + 1 :] = snp[s.depth]
    snp.flags.writeable = False  # cached and shared with every caller
    return snp


def materialize(s: BranchingSchedule) -> DyadicTree:
    """Expand the schedule into a tree, keeping the left child always and
    the right child exactly at branching levels."""
    # level j below the root holds 2**S(j) nodes; one closed form per run.
    # A level of 2**top nodes is alone over the budget, and so is a run of
    # more than budget >> S non-branching levels, so capping both keeps
    # every integer below 2**(top + 2) without changing the verdict.
    budget = MAX_MATERIALIZE_NODES
    top = budget.bit_length()
    total = S = 0
    for cnt, c in s.runs:
        if c == 2:
            k = min(cnt, top - S)
            total += ((1 << k) - 1) << (S + 1)  # 2**(S+1) + ... + 2**(S+k)
            S += k
        else:
            total += min(cnt, (budget >> S) + 1) << S
        if total > budget:
            raise BudgetError(
                f"materializing depth {s.depth} needs more than {budget} nodes"
            )
    # a leaf is a sum of one bit 2**(depth - j) per branching level j;
    # doubling over the bits in ascending order keeps the leaves sorted
    bits = []
    j = 0
    for cnt, c in s.runs:
        if c == 2:
            bits.extend(1 << (s.depth - i) for i in range(j + 1, j + cnt + 1))
        j += cnt
    leaves = [0]
    for bit in reversed(bits):
        leaves += [x + bit for x in leaves]
    return DyadicTree(s.depth, leaves)


class CompositeSet(SetValue):
    """Shifted-scaled schedules 2**-e_i * F_i + 2**-e_i, plus the origin.

    Shifts are strictly increasing positive integers, so the components
    occupy pairwise disjoint intervals [2**-e_i, 2**-e_i+1).  Below its own
    depth a component continues along left endpoints: every surviving
    interval keeps only its left child, so the component's level counts
    stay frozen at 2**S_i(depth_i) down to the union's depth.  The fields,
    `depth` and the tuple `shifts` among them, are computed once and
    read-only: build a new union to change one.  The extended prefix
    counts per component and the origin node's log counts per shift
    bucket are built once, as entries of the union's memo; estimators,
    `region_max` included, read them directly.  Each count array is built
    once in its final form: a component shallower than the union has only
    its extended prefix, never its own prefix array as well, so a union of
    P components at depth D holds at most P * (D + 1) int64 counts plus
    one float row per origin bucket read, and an origin row skips every
    term that is an exact zero (see `origin_log_counts`).
    """

    __slots__ = ("components", "include_origin", "depth", "shifts")

    def __init__(
        self,
        components: Iterable[tuple[int, BranchingSchedule]],
        include_origin: bool = True,
    ):
        comps = tuple((int(e), s) for e, s in components)
        for i, (_, s) in enumerate(comps):
            if not isinstance(s, BranchingSchedule):
                raise TypeError(f"component {i} is a {type(s).__name__}, not a BranchingSchedule")
        shifts = tuple(e for e, _ in comps)
        if any(e < 1 for e in shifts):
            raise ValueError("shifts must be >= 1 so components stay inside [0, 1]")
        if any(b <= a for a, b in zip(shifts, shifts[1:])):
            raise ValueError("shifts must be strictly increasing")
        self.components = comps
        self.include_origin = bool(include_origin)
        self.depth = max((e + s.depth for e, s in comps), default=0)
        self.shifts = shifts
        self._memo = {}

    def extended_prefix(self, i: int) -> np.ndarray:
        """Component i's prefix counts on local levels 0..depth-e_i, frozen
        beyond its own depth (left-endpoint continuation)."""
        return self._cached(("ext", i), _extended_prefix, self, i)

    def _key(self) -> tuple:
        return self.components, self.include_origin

    def __repr__(self) -> str:
        return (
            f"CompositeSet(components={len(self.components)}, depth={self.depth}, "
            f"origin={self.include_origin})"
        )


def _extended_prefix(cs: CompositeSet, i: int) -> np.ndarray:
    """The deepest component (span = its depth) reads its own prefix array;
    a shallower one is built straight from its runs at the union's length,
    one read-only array, with no prefix array of its own."""
    e, s = cs.components[i]
    span = cs.depth - e
    if span == s.depth:
        return s.prefix_array()
    return _prefix_array(s, span + 1)


def origin_log_counts(cs: CompositeSet, bucket: int) -> np.ndarray:
    """log2 of the descendant count of the level-m node at index 0, per fine
    level m', for coarse levels m with bucket = #shifts <= m.

    The node at index 0 contains the origin and every component shifted
    deeper than m.  Its level-m' count is the index-0 chain (present when
    the origin is included or some component lies deeper than m') plus, for
    each contained component, one interval while m' is at or above its
    shift and 2**S_i(m' - e_i) below it.  Computed in floats via
    max-normalized exponentials, one term at a time in a fixed order
    (components by shift, then the chain), over the levels where the term
    is present; exact powers of two keep this deterministic.  A term is
    exponentiated and added only where its gap d to the level's maximum is
    at least -1075: every gap is an integer, and for d <= -1076 the power
    2**d is below half the least subnormal 2**-1074, so it rounds to +0.0
    and adding it would leave the partial sum as it is.  The row therefore
    equals the full-row sum bit for bit.  Built once per bucket, as an
    entry of the union's memo.
    """
    return cs._cached(("origin", bucket), _origin_log_counts, cs, bucket)


def _origin_log_counts(cs: CompositeSet, bucket: int) -> np.ndarray:
    D = check_depth(cs.depth)
    shifts = cs.shifts
    deepest = shifts[-1] if shifts else -1
    # the chain is present (log 0) on [0, stop)
    stop = D + 1 if cs.include_origin else max(deepest, 0)
    terms = [(e, cs.extended_prefix(i)[: D + 1 - e])
             for i, (e, _) in enumerate(cs.components) if i >= bucket]
    top = np.full(D + 1, -np.inf)
    for e, ex in terms:
        np.maximum(top[e:], ex, out=top[e:])
    np.maximum(top[:stop], 0.0, out=top[:stop])
    dead = np.isinf(top)
    top[dead] = 0.0
    total = np.zeros(D + 1)
    term = np.empty(D + 1)
    live = np.empty(D + 1, dtype=bool)
    for e, ex in terms:
        _add_exp2(total[e:], np.subtract(ex, top[e:], out=term[e:]), live[e:])
    _add_exp2(total[:stop], np.negative(top[:stop], out=term[:stop]), live[:stop])
    with np.errstate(divide="ignore"):
        logs = np.log2(total, out=total)
    logs += top
    logs[dead] = -np.inf
    logs.flags.writeable = False  # cached and shared with every caller
    return logs


def _add_exp2(total: np.ndarray, d: np.ndarray, live: np.ndarray) -> None:
    """total += 2**d (d overwritten) where 2**d is not an exact zero, the
    integer gaps d >= -1075; `live` is scratch of d's length."""
    np.greater_equal(d, -1075.0, out=live)
    np.exp2(d, out=d, where=live)
    np.add(total, d, out=total, where=live)


def pieces(rep: BranchingSchedule | CompositeSet) -> list[tuple[int, int, np.ndarray]]:
    """(part, shift e, prefix counts on local levels) per symbolic piece: a
    schedule is piece 0 at shift 0, a composite has one piece per component."""
    if isinstance(rep, BranchingSchedule):
        return [(0, 0, rep.prefix_array())]
    return [(i, e, rep.extended_prefix(i)) for i, (e, _) in enumerate(rep.components)]


def origin_buckets(
    rep: BranchingSchedule | CompositeSet, lo: int, hi: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(first m, last m, origin_log_counts row) per bucket b, the coarse
    levels m in [lo, hi] with b shifts <= m, below the last shift, where
    the node at index 0 still contains a component; the levels of one
    bucket share its row.  A schedule has no origin node."""
    if isinstance(rep, BranchingSchedule):
        return
    shifts = rep.shifts
    start = lo
    for b in range(int(np.searchsorted(shifts, lo, side="right")), len(shifts)):
        stop = min(hi, shifts[b] - 1)
        if start > stop:
            return
        yield start, stop, origin_log_counts(rep, b)
        start = stop + 1


def _witness(rep, best: tuple[float, int, int, int]) -> tuple[float, int, int, int]:
    """(value, m, m', node) from a (value, -m, -m', -part) key.  The node is
    the leftmost level-m node of the part: index 0 for a schedule and for
    the origin node (part -1), 2**(m - e) for a component at shift e."""
    value, m, mp, part = best[0], -best[1], -best[2], -best[3]
    if part < 0 or isinstance(rep, BranchingSchedule):
        return value, m, mp, 0
    return value, m, mp, 1 << (m - rep.components[part][0])


def _origin_best(best, logs, rows, cols, work: Workspace):
    """max(best, key of the first best window (rows[k], cols[k])) in floats[0], ints[1]."""
    alpha = np.take(logs, cols, out=work.floats[0][: len(cols)], mode="clip")
    alpha /= np.subtract(cols, rows, out=work.ints[1][: len(cols)])
    k = int(np.argmax(alpha))
    cand = (float(alpha[k]), -int(rows[k]), -int(cols[k]), 1)
    return cand if best is None else max(best, cand)


def composite_spectrum(
    rep, scale, lo: int, hi: int, work: Workspace
) -> tuple[float, int, int, int]:
    """(value, m, m', node) of the max window exponent at the fixed ratio
    rule m' = scale.fine(m) over the clamped coarse range [lo, hi].

    Piece-interior windows are exact schedule exponents; windows from the
    node containing the origin see the summed component counts plus the
    origin chain.  Ties go to the smallest m, then the smallest m', then
    the origin node (part -1, key 1), then the lowest component.

    Every piece present at a coarse level m has the same width m' - m
    there, so the largest quotient at m is its largest numerator
    S_i[m' - e_i] - S_i[m - e_i] over that width.  The fold reads every
    level: the pieces fold their numerators into one running maximum per
    coarse level (a schedule's one piece writes them straight in), then
    one divide and one argmax give the best level, and the lowest piece
    whose numerator equals the maximum there is the witness.

    When two or more pieces are present and the range spans at least
    SKIP_LEVELS coarse levels, the pieces read only the blocks that can
    win.  Block k holds the levels m_k = lo + k * B to
    min(m_k + B - 1, hi), B = FLOOR_BLOCK, and the samples are m_0, m_1,
    ... and hi.  A piece gathers Sf[k] = S[fine(m_k) - e] and
    Sm[k] = S[m_k - e] at the samples, and its block k has the bound
    (Sf[k + 1] - Sm[k]) / w_k, w_k = fine(m_k) - m_k.  No window of the
    block lies above it, since S is non-decreasing, fine levels ascend,
    and the width fine(m) - m never decreases in m, at root orders too
    (fine(m + 1) >= fine(m) + 1 as the ratio exceeds 1); correctly
    rounded division is monotone, so the floats keep the order.  The
    floor L is the best exact sample window (Sf[k] - Sm[k]) / w_k of a
    piece present at m_k.  A block is skipped only when its key lies
    strictly below the floor's: its bound is below L, or equal to L with
    its first level after the first sample level reaching L.  A tie is
    read.  So every skipped window loses to a sample window, which lies
    in a kept block; the kept blocks are read exactly, with fine levels
    computed for their levels alone, and the pieces' best windows combine
    by the key (value, -m, -m', -part): the fold's value and witness.
    The fold runs instead below SKIP_LEVELS, where the sample pass costs
    more than it saves, on one piece, and wherever the samples or the
    kept cells would not fit in one row of the workspace, as when
    near-tied pieces keep most of their blocks.

    Each origin bucket is one gather, divide and argmax over its levels,
    at the fine levels of its own span.  The fold keeps the fine levels in
    work.ints[3], the numerators' maximum in ints[2], a piece's numerators
    in ints[1] and its fine levels in local levels, fines - e, in ints[0]
    (the widths after the last piece), and the exponents in floats[0], of
    the caller's `Workspace` of the set's depth; a piece at shift 0 (a
    schedule's one piece) gathers at the fine levels in place, with no
    shifted copy.  The block path's rows are named in `_kept_blocks` and
    `_read_blocks`.  [lo, hi] must be clamped: every fine level at most
    the depth, else ValueError.
    """
    parts = [p for p in pieces(rep) if p[1] <= hi]  # pieces ascend in shift
    best = None  # (value, -m, -m', -part)
    if len(parts) > 1 and hi + 1 - lo >= SKIP_LEVELS:
        best = _read_blocks(parts, scale, lo, hi, rep.depth, work)
    if best is None:
        fines = _fine_levels(scale, work.levels[lo : hi + 1], rep.depth, work)
        best = _fold_levels(parts, fines, lo, hi, work)
    for start, stop, logs in origin_buckets(rep, lo, hi):
        span = scale.fine_array(work.levels[start : stop + 1], work)
        best = _origin_best(best, logs, work.levels[start : stop + 1], span, work)
    return _witness(rep, best)


def _fine_levels(scale, marr: np.ndarray, depth: int, work: Workspace) -> np.ndarray:
    """scale.fine_array(marr) in work.ints[3], for marr ending at its
    largest level; ValueError when that level's fine level lies past the
    depth (fines ascend)."""
    fines = scale.fine_array(marr, work)
    if fines[-1] > depth:
        raise ValueError(
            f"coarse level {int(marr[-1])} has fine level {int(fines[-1])} past depth {depth}"
        )
    return fines


def _fold_levels(parts, fines: np.ndarray, lo: int, hi: int, work: Workspace):
    """The best (value, -m, -m', -part) key of the pieces' windows at the
    fine levels `fines` of lo..hi, by one running maximum of their
    numerators per coarse level; None when no piece is present."""
    if not parts:
        return None
    at, num, top = work.ints[0], work.ints[1], work.ints[2]
    a0 = max(lo, parts[0][1])  # the first piece's first level
    for part, e, S in parts:
        a = max(lo, e)
        n, rows = hi + 1 - a, top[a - a0 : hi + 1 - a0]
        out = num[:n] if part else rows
        cols = np.subtract(fines[a - lo :], e, out=at[:n]) if e else fines[a - lo :]
        np.take(S, cols, out=out, mode="clip")
        out -= S[a - e : hi + 1 - e]
        if part:
            np.maximum(rows, out, out=rows)
    n = hi + 1 - a0
    widths = np.subtract(fines[a0 - lo :], work.levels[a0 : hi + 1], out=at[:n])
    alpha = np.divide(top[:n], widths, out=work.floats[0][:n])
    k = int(np.argmax(alpha))
    m, mp = a0 + k, int(fines[a0 - lo + k])
    # the lowest piece present at m whose numerator is the maximum
    part = next(i for i, e, S in parts if e <= m and S[mp - e] - S[m - e] == top[k])
    return float(alpha[k]), -m, -mp, -part


def _block_bounds(Sf: np.ndarray, Sm: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(Sf[:, k + 1] - Sm[:, k]) / w[k] per piece row and block k, in `out`;
    Sf is overwritten."""
    num = np.subtract(Sf[:, 1:], Sm[:, :-1], out=Sf[:, 1:])
    return np.divide(num, w[:-1], out=out)


def _kept_blocks(parts, scale, lo: int, hi: int, depth: int, work: Workspace):
    """The (pieces, blocks) bool mask of the blocks `composite_spectrum`
    reads, by its key rule, or None when the samples' gathers would not
    fit in one row of `work`.  The samples and then their widths live in
    work.ints[2], followed there by a piece's shifted sample levels, their
    fine levels in ints[3], Sf and Sm in ints[0] and ints[1], and the
    sample windows and then the bounds in floats[0]; two or more pieces
    are present, so the samples and their shift fit in ints[2]."""
    B = FLOOR_BLOCK
    n = (hi - lo) // B + 1  # blocks
    size = len(parts) * (n + 1)
    if size > depth + 1:
        return None
    samples = work.ints[2][: n + 1]
    samples[:n] = work.levels[lo : hi + 1 : B]
    samples[n] = hi
    fs = _fine_levels(scale, samples, depth, work)
    Sf, Sm = (work.ints[i][:size].reshape(-1, n + 1) for i in (0, 1))
    at = work.ints[2][n + 1 : 2 * (n + 1)]
    for r, (_, e, S) in enumerate(parts):  # a level below e clips to S[0]
        S.take(np.subtract(fs, e, out=at), out=Sf[r], mode="clip")
        S.take(np.subtract(samples, e, out=at), out=Sm[r], mode="clip")
    w = np.subtract(fs, samples, out=samples)
    windows = np.subtract(Sf, Sm, out=work.floats[0][:size].reshape(-1, n + 1))
    windows /= w
    for r, (_, e, _) in enumerate(parts):
        if e > lo:  # the samples before the piece
            windows[r, : -((lo - e) // B)] = -np.inf
    tops = windows.max(axis=0)
    first = int(np.argmax(tops))  # the first sample reaching the floor
    floor = tops[first]
    bounds = _block_bounds(Sf, Sm, w, work.floats[0][: size - len(parts)].reshape(-1, n))
    for r, (_, e, _) in enumerate(parts):
        if e > lo:  # the blocks before the piece's
            bounds[r, : (e - lo) // B] = -np.inf
    kept = bounds > floor
    kept[:, : first + 1] |= bounds[:, : first + 1] == floor
    return kept


def _read_blocks(parts, scale, lo: int, hi: int, depth: int, work: Workspace):
    """The best (value, -m, -m', -part) key of the pieces' windows, read on
    the blocks `_kept_blocks` keeps, or None when the samples or the kept
    cells would not fit in one row of `work`.  The cells' coarse levels
    live in work.ints[2], their fine levels in ints[3]; per piece the
    numerators take ints[0:2] and the widths, then the exponents,
    floats[0]."""
    kept = _kept_blocks(parts, scale, lo, hi, depth, work)
    if kept is None:
        return None
    rows, blocks = np.nonzero(kept)  # by piece, then by block
    shifts = np.array([e for _, e, _ in parts])
    starts = lo + blocks * FLOOR_BLOCK
    ends = np.minimum(starts + (FLOOR_BLOCK - 1), hi)
    np.maximum(starts, shifts[rows], out=starts)
    lengths = ends - starts + 1
    offsets = np.cumsum(lengths)
    size = int(offsets[-1])
    if size > depth + 1:
        return None
    # one level per cell: steps of 1 within a block, a jump at each start
    cells = work.ints[2][:size]
    cells.fill(1)
    offsets -= lengths
    cells[offsets] = starts
    cells[offsets[1:]] -= ends[:-1]
    np.cumsum(cells, out=cells)
    fines = scale.fine_array(cells, work)
    cuts = np.append(offsets, size)[np.searchsorted(rows, np.arange(len(parts) + 1))]
    best = None
    for (part, e, S), s, t in zip(parts, cuts, cuts[1:]):
        if s == t:
            continue
        ms, mps = cells[s:t], fines[s:t]
        alpha = np.subtract(mps, ms, out=work.floats[0][: t - s])
        ms -= e
        mps -= e
        num = S.take(mps, out=work.ints[0][: t - s], mode="clip")
        num -= S.take(ms, out=work.ints[1][: t - s], mode="clip")
        np.divide(num, alpha, out=alpha)
        k = int(np.argmax(alpha))
        cand = (float(alpha[k]), -(int(ms[k]) + e), -(int(mps[k]) + e), -part)
        if best is None or cand > best:
            best = cand
    return best


def composite_upper(
    rep, scale, lo: int, hi: int, work: Workspace
) -> tuple[float, int, int, int]:
    """(value, m, m', node) of the max window exponent over m in [lo, hi]
    and every m' >= scale.fine(m), with composite_spectrum's tie order.

    Each piece's windows form one region, coarse levels max(lo, e)..hi
    with fine levels from scale.fine(m), solved exactly by `region_max`
    on the piece's prefix counts in local levels.  The best exact fraction
    of the pieces before is the solve's floor, so a piece that cannot
    reach it returns None, and one that only ties it returns its own first
    window of that value.  A piece whose block bounds put it strictly
    below the floor costs O(depth / FLOOR_BLOCK), with no round; one the
    bounds cannot settle returns None after one O(depth) round.  Which
    pieces are settled so changes no value and no witness, and the piece
    order stays the shifts'.  The fine levels live in
    work.ints[3], outside region_max's rows, shifted in place to each
    piece's local levels (pieces ascend in shift), then back.

    An origin bucket's rows share one log row L >= 0.  At j >= fine(m + 1)
    row m + 1 reads L[j] / (w - 1), more than row m's L[j] / w in floats
    where L[j] > 0 (w < 2**51), so level j >= fine(start) needs only its
    last live row m(j), built by a scatter and cumsum in work.ints[0]
    (fines ascend strictly).  m(j) never decreases, so the first argmax
    has the smallest m, then m', and a best of 0 is (start, fine(start))."""
    best = floor = None
    fines = scale.fine_array(work.levels[lo : hi + 1], work)
    shift = 0
    for part, e, S in pieces(rep):
        a = max(lo, e)
        if a > hi:
            break
        fines -= e - shift
        shift = e
        found = region_max(S, a - e, fines[a - lo :], work, floor)
        if found is None:
            continue
        v, lm, j = found
        cand = (v, -(lm + e), -(j + e), -part)
        if best is None or cand > best:
            best, floor = cand, (int(S[j] - S[lm]), j - lm)
    fines += shift
    for start, stop, logs in origin_buckets(rep, lo, hi):
        f = int(fines[start - lo])
        rows = work.ints[0][f : len(logs)]  # m(j) per fine level j >= f
        rows.fill(0)
        work.ints[0][fines[start + 1 - lo : stop + 1 - lo]] = 1
        np.add(np.cumsum(rows, out=rows), start, out=rows)
        best = _origin_best(best, logs, rows, work.levels[f : len(logs)], work)
    return _witness(rep, best)
