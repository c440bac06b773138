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

from .dyadic import DyadicTree
from .errors import BudgetError
from .windows import Workspace, region_max

__all__ = [
    "BranchingSchedule",
    "CompositeSet",
    "materialize",
    "composite_spectrum",
    "composite_upper",
]

MAX_MATERIALIZE_NODES = 1 << 22


class BranchingSchedule:
    """Run-length encoded child counts c_j in {1, 2} for levels 1..depth.

    The runs are two read-only int64 arrays, `lengths` and `counts`, with
    equal neighbours merged, so the counts alternate between 1 and 2.  The
    prefix counts are the only cache: estimators, `region_max` included,
    read them directly.
    """

    __slots__ = ("lengths", "counts", "depth", "_snp")

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
        self._snp: np.ndarray | None = None

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The runs as (length, count) tuples, built on each access."""
        return tuple(zip(self.lengths.tolist(), self.counts.tolist()))

    def prefix(self, m: int) -> int:
        """Number of branching levels among 1..m (the log2 of the level count)."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} outside [0, {self.depth}]")
        return int(self.prefix_array()[m])

    def prefix_array(self) -> np.ndarray:
        """S[0..depth] as read-only int64, cached."""
        if self._snp is None:
            snp = np.zeros(self.depth + 1, dtype=np.int64)
            np.cumsum(np.repeat(self.counts == 2, self.lengths), dtype=np.int64, out=snp[1:])
            snp.flags.writeable = False
            self._snp = snp
        return self._snp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BranchingSchedule)
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self):
        return hash((self.lengths.tobytes(), self.counts.tobytes()))

    def __repr__(self) -> str:
        return f"BranchingSchedule(depth={self.depth}, runs={len(self.lengths)})"


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


class CompositeSet:
    """Shifted-scaled schedules 2**-e_i * F_i + 2**-e_i, plus the origin.

    Shifts are strictly increasing positive integers, so the components
    occupy pairwise disjoint intervals [2**-e_i, 2**-e_i+1).  Below its own
    depth a component continues along left endpoints: every surviving
    interval keeps only its left child, so the component's level counts
    stay frozen at 2**S_i(depth_i) down to the union's depth.  The
    extended prefix counts per component and the origin node's log counts
    per shift bucket are cached; estimators, `region_max` included, read
    them directly.
    """

    __slots__ = ("components", "include_origin", "_ext", "_origin_logs")

    def __init__(
        self,
        components: Iterable[tuple[int, BranchingSchedule]],
        include_origin: bool = True,
    ):
        comps = tuple((int(e), s) for e, s in components)
        shifts = [e for e, _ in comps]
        if any(e < 1 for e in shifts):
            raise ValueError("shifts must be >= 1 so components stay inside [0, 1]")
        if any(b <= a for a, b in zip(shifts, shifts[1:])):
            raise ValueError("shifts must be strictly increasing")
        self.components = comps
        self.include_origin = bool(include_origin)
        self._ext: dict[int, np.ndarray] = {}
        self._origin_logs: dict[int, np.ndarray] = {}

    @property
    def depth(self) -> int:
        return max((e + s.depth for e, s in self.components), default=0)

    @property
    def shifts(self) -> list[int]:
        return [e for e, _ in self.components]

    def extended_prefix(self, i: int) -> np.ndarray:
        """Component i's prefix counts on local levels 0..depth-e_i, frozen
        beyond its own depth (left-endpoint continuation)."""
        arr = self._ext.get(i)
        if arr is None:
            e, s = self.components[i]
            span = self.depth - e
            S = s.prefix_array()
            if span > s.depth:
                tail = np.full(span - s.depth, S[-1], dtype=np.int64)
                arr = np.concatenate([S, tail])
            else:
                arr = S[: span + 1]
            self._ext[i] = arr
        return arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompositeSet)
            and self.components == other.components
            and self.include_origin == other.include_origin
        )

    def __hash__(self):
        return hash((self.components, self.include_origin))

    def __repr__(self) -> str:
        return (
            f"CompositeSet(components={len(self.components)}, depth={self.depth}, "
            f"origin={self.include_origin})"
        )


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
    is present; exact powers of two keep this deterministic.
    """
    logs = cs._origin_logs.get(bucket)
    if logs is not None:
        return logs
    D = cs.depth
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
    for e, ex in terms:
        np.exp2(np.subtract(ex, top[e:], out=term[e:]), out=term[e:])
        total[e:] += term[e:]
    np.exp2(np.negative(top[:stop], out=term[:stop]), out=term[:stop])
    total[:stop] += term[:stop]
    with np.errstate(divide="ignore"):
        logs = np.log2(total, out=total)
    logs += top
    logs[dead] = -np.inf
    logs.flags.writeable = False  # cached and shared with every caller
    cs._origin_logs[bucket] = logs
    return logs


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
    S_i[m' - e_i] - S_i[m - e_i] over that width.  The pieces fold their
    numerators into one running maximum per coarse level (a schedule's
    one piece writes them straight in), then one divide and one argmax
    give the best level, and the lowest piece whose numerator equals the
    maximum there is the witness.  Each origin bucket is one gather,
    divide and argmax over its levels.  The fine levels live in
    work.ints[3], the numerators' maximum in ints[2], a piece's indices
    and numerators in ints[0:2] (the widths in ints[0] after the last
    piece), and the exponents in floats[0], of the caller's `Workspace`
    of the set's depth.  [lo, hi] must be clamped: every fine level at
    most the depth, else ValueError.
    """
    best = None  # (value, -m, -m', -part)
    fines = scale.fine_array(work.levels[lo : hi + 1], work)
    if fines[-1] > rep.depth:  # fines ascend
        raise ValueError(
            f"coarse level {hi} has fine level {int(fines[-1])} past depth {rep.depth}"
        )
    parts = pieces(rep)
    at, num, top = work.ints[0], work.ints[1], work.ints[2]
    a0 = max(lo, parts[0][1])  # the first piece's first level; pieces ascend in shift
    for part, e, S in parts:
        a = max(lo, e)
        if a > hi:
            break
        n, rows = hi + 1 - a, top[a - a0 : hi + 1 - a0]
        out = num[:n] if part else rows
        np.take(S, np.subtract(fines[a - lo :], e, out=at[:n]), out=out, mode="clip")
        out -= S[a - e : hi + 1 - e]
        if part:
            np.maximum(rows, out, out=rows)
    widths = np.subtract(fines, work.levels[lo : hi + 1], out=at[: hi + 1 - lo])
    if a0 <= hi:
        n = hi + 1 - a0
        alpha = np.divide(top[:n], widths[a0 - lo :], out=work.floats[0][:n])
        k = int(np.argmax(alpha))
        m, mp = a0 + k, int(fines[a0 - lo + k])
        # the lowest piece present at m whose numerator is the maximum
        part = next(i for i, e, S in parts if e <= m and S[mp - e] - S[m - e] == top[k])
        best = (float(alpha[k]), -m, -mp, -part)
    for start, stop, logs in origin_buckets(rep, lo, hi):
        span = fines[start - lo : stop + 1 - lo]
        best = _origin_best(best, logs, work.levels[start : stop + 1], span, work)
    return _witness(rep, best)


def composite_upper(
    rep, scale, lo: int, hi: int, work: Workspace
) -> tuple[float, int, int, int]:
    """(value, m, m', node) of the max window exponent over m in [lo, hi]
    and every m' >= scale.fine(m), with composite_spectrum's tie order.

    Each piece's windows form one region, coarse levels max(lo, e)..hi
    with fine levels from scale.fine(m), solved exactly by `region_max`
    on the piece's prefix counts in local levels.  The best exact fraction
    of the pieces before is the solve's floor, so a piece that cannot
    reach it returns None after one round, and one that only ties it
    returns its own first window of that value.  The fine levels live in
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
