"""Window-maximization machinery shared by the estimators.

A window (m, m') encodes the scale pair R = 2**-m, r = 2**-m'.  Estimators
maximize exponents of the form (S[m'] - S[m]) / (m' - m) or
log2(count(m, m')) / (m' - m) over large window fans.  This module holds:

* one fine-level rule, `RootScale` at theta**(1/n), `RationalScale` at n = 1,
* an exact parametric solve of the best slope window over a region of
  coarse levels, each with its own lowest fine level,
* run tables that give, for every level m' of a tree stored as its
  leaves, the largest number of level-m' nodes sharing a single level-m
  ancestor, for every m at once, built a chunk of thresholds at a time
  from prefix counts and one running maximum per chunk,
* neighbor tables that give the same maximum over a level-m node together
  with its present same-level neighbors, and keep the leaves' adjacency.
  Both keep int32 counts and the distinct gap values, and read a window's
  log2 count, `logs`, through a lookup of `log2_counts`: math.log2, as
  the oracles; numpy's AVX-512 log2 rounds 1621 one ulp off.

The upper spectrum needs the best window over a whole region: coarse
levels m = a..b, each with fine levels j >= lo[m - a], lo non-decreasing.
`region_max` solves it with Dinkelbach's parametric method for fractional
programs (W. Dinkelbach, "On nonlinear fractional programming",
Management Science 13(7), 1967).  Let v = p/q be the slope of an
admissible window and T(i) = q * S[i] - p * i.  Since q > 0 and j > m, a
window (m, j) has a slope strictly above v iff T(j) > T(m).  One suffix
maximum of T over [lo[0], depth] therefore gives every m its best gain
max_{j >= lo[m - a]} T(j) - T(m) at once.  A round reads T only on the
rows a..b and on the fine levels lo[0]..depth, so it fills T there
alone, skipping the levels between when lo[0] > b + 1 (narrow ranges at
small theta), in three passes: q * S, p * i and their difference.  The
suffix maximum is one running maximum: the tail maximum
max(T[lo[-1]:]) is parked in T[lo[-1]] while a reversed
`maximum.accumulate` runs over lo[0]..lo[-1], and T[lo[-1]] is restored
after it.  The rounds start from the best of the boundary windows
(m, lo[m - a]) and one window of the top row, (b, j) at the first
j >= lo[-1] with S[j] = S[depth], found by a binary search of the
non-decreasing S: the last column (b, depth) when the last level
branches, or the end of the last branching run before a frozen tail,
which beats it.  That window wins on convex stretches: on the two-phase
set it saves the second round that the boundary windows alone need at
most thetas up to 1/2.  Each round moves v to a window of the largest gain (its
first m, and the first j >= lo reaching the suffix maximum), whose slope
is strictly larger; there are finitely many windows, so the moves stop:
after at most one on the concave union's regions and the two-phase set,
after a few on lattice staircases of strictly convex curves.  A move's
window is also strictly narrower than the one before: with F(v) the
largest gain at v and v < v' the values of two moves' windows x and x',
F(v) = (v' - v) * width(x) >= F(v') + (v' - v) * width(x'), so
width(x') < width(x) whenever F(v') > 0, that is, whenever x' moves
again.  Widths lie between min(lo[m - a] - m) and depth - a, so a solve
takes at most (depth - a) - min(lo[m - a] - m) + 2 rounds; past that cap
it raises RuntimeError, and a broken invariant fails instead of looping.
When no gain is positive, v is the maximum and the windows reaching it are
exactly those with T(j) = T(m), so the first m with gain 0 and its first
j >= lo[m - a] with T(j) = T(m) are the lexicographic witness: best
value, then smallest m, then smallest j.  Every exponent is the same
int/int division, and distinct fractions with denominators below 2**26
never round to one float, so float ties are exact ties.  A caller that
already holds a value p/q from another region (a composite's earlier
pieces) may pass it as an exact floor: the rounds then start from the
best of the floor and the two windows above.  From the floor, a largest
gain below 0 means every window of the region lies strictly below it,
and the solve returns None after that one round; a largest gain of
exactly 0 returns the region's own first window of value p/q by the rule
above.
Before that round a floor gets a certificate that costs O(depth / B)
for B = FLOOR_BLOCK levels, against O(depth) for a round.  Cut the rows
a..b and the fine levels lo[0]..depth into blocks of B levels (on
multiples of B, clipped to the region).  S is non-decreasing, so on a
column block J, T <= q * S[end_J] - p * start_J, and on a row block I,
T >= q * S[start_I] - p * end_I.  One reversed running maximum over the
column blocks bounds T on every suffix of them, and row block I reads
the suffix from the block of lo at its first row, where its rows' fine
levels start.  When every row block's bound lies strictly below its
lower T, every window lies strictly below the floor and the solve
returns None without a round.  The certificate is exact but not
complete: a tie, or a bound too loose to decide, takes the rounds, so
every value and witness is the one of the rounds alone.
The hull sweep `suffix_slope_max` and `runlen_table` are the tests'
references, not API.

The fine level of m at theta = p/q and root order n (n = 1 for
`RationalScale`) is the smallest z with z**n * p >= m**n * q.  When p and
q are the n-th powers of a and b, that is z * a >= m * b, so `fine_array`
reads such a root at order 1.  Past an int64 ceil-division it starts
from a float seed of m * (q/p)**(1/n) off by less than bound = 2**-50
times the largest seed s: four roundings below 2**-53 each.  Only a seed
within bound of an integer N is tested exactly, by the sign of
N**n * p - m**n * q: in wrapping int64 while its size, below
p * n * (s + 2)**n * 2**-49, stays below 2**63, else by the scalar
`fine`.  A largest seed at or past 2**62 raises BudgetError, since the
int64 levels could wrap; the scalar `fine` has no such limit.

The schedule kernels (`region_max`, the scales' `fine_array` and the
kernels of `schedule`) write every depth- or region-sized array into the
rows of a `Workspace`.  The estimators' dispatch creates one per estimator
call that solves something and lends it to every kernel that call runs,
so no round and no theta allocates one, and a call's speed does not
depend on the allocator state that earlier work in the process left.

All scale arithmetic is exact; floating point only enters in bounded
fine-level seeds and when a finished exponent is reported.  T is taken
on S itself, which every caller passes as prefix counts from 0, and on
the levels themselves: `region_max` requires depth and every value of S
in [0, 2**31), so p, q, q * S[i] and p * i all stay below 2**62 and T and
its gains inside int64.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, log2
from typing import Sequence

import numpy as np

from .errors import BudgetError

__all__ = [
    "ceil_div",
    "iroot",
    "RationalScale",
    "RootScale",
    "Workspace",
    "root_order",
    "region_max",
    "leaf_gaps",
    "RunTable",
    "NeighborTable",
]


# region_max keeps q * S[i] and p * i inside int64
MAX_HULL_SPAN = 1 << 31
# a budget on root orders; the scalar `fine` and `max_coarse` hold m**n exactly
MAX_ROOT_ORDER = 16
# prefix counts (threshold rows x alive gaps) one chunk of the RunTable
# build holds at once
RUN_BLOCK = 1 << 14
# levels per block of region_max's floor certificate
FLOOR_BLOCK = 64


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for non-negative integer x via Newton iteration:
    from z = 2**ceil(bits(x) / n) >= r, the floor root, each step lands in
    [r, z) while z > r (by AM-GM), and at z = r the loop stops."""
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be >= 1")
    if x == 0 or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    z = 1 << ceil_div(x.bit_length(), n)
    while True:
        y = ((n - 1) * z + x // z ** (n - 1)) // n
        if y >= z:
            break
        z = y
    return z


class Workspace:
    """Scratch rows of depth + 1 entries for the schedule kernels of one
    estimator call.

    The estimator's dispatch creates one per estimator call that solves
    something (a call the set's store of solved windows serves whole makes
    none), in its own frame, and lends it to
    every kernel it runs for the call's thetas or scales; nothing keeps it
    afterwards.  `levels` holds 0, ..., depth and is filled once.  `ints`
    (int64) and `floats` (float64) are rows a kernel may overwrite, so a
    kernel that calls another keeps its own arrays in rows the callee
    leaves alone: `region_max` writes ints[0:3] and floats[0], each only
    at the levels its docstring names, `fine_array` of either scale puts
    its result in ints[3] and, off its int64 ceil-division, keeps its
    float seeds in floats[0] and its exact test in ints[0:2], and its
    callers keep the fine levels in ints[3].  The rows are one block,
    allocated once per call; rows a call never writes are never touched,
    so they cost address space, not memory.
    """

    __slots__ = ("levels", "ints", "floats")

    def __init__(self, depth: int):
        self.levels = np.arange(depth + 1, dtype=np.int64)
        rows = np.empty((5, depth + 1), dtype=np.int64)
        self.ints, self.floats = rows[:4], rows[4:].view(np.float64)


def _ratio(theta) -> tuple[int, int]:
    """(p, q) of theta = p/q in lowest terms, for theta strictly in (0, 1)."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie strictly in (0, 1), got {theta}")
    return theta.numerator, theta.denominator


def root_order(n: int) -> int:
    """n itself if it is a root order RootScale accepts, 1..MAX_ROOT_ORDER."""
    if not 1 <= n <= MAX_ROOT_ORDER:
        raise ValueError(f"root order must lie in [1, {MAX_ROOT_ORDER}], got {n}")
    return n


class RootScale:
    """Fine-level rule m' = ceil(m / theta ** (1/n)), integer-exact.  Rounding
    up keeps r = 2**-m' at or below the exact scale, matching the inequality
    direction of the spectrum definitions."""

    __slots__ = ("p", "q", "n")

    def __init__(self, theta: Fraction, n: int):
        self.p, self.q = _ratio(theta)
        self.n = root_order(n)

    def fine(self, m: int) -> int:
        # smallest z with z**n >= ceil(x / p): the floor root or one more
        x = m**self.n * self.q
        z = iroot(ceil_div(x, self.p), self.n)
        return z + (z**self.n * self.p < x)

    def fine_array(self, marr: np.ndarray, work: Workspace | None = None) -> np.ndarray:
        """fine(m) per level m >= 0 of marr, in any order, by the module
        docstring's rule, in work.ints[3] (or a new array); seeds and exact
        tests use work.floats[0] and work.ints[0:2]."""
        p, q, n = self.p, self.q, self.n
        a, b = iroot(p, n), iroot(q, n)
        if a**n == p and b**n == q:  # a rational root: z * a >= m * b
            p, q, n = a, b, 1
        marr = np.asarray(marr, dtype=np.int64)
        size = marr.size
        z = np.empty(size, dtype=np.int64) if work is None else work.ints[3][:size]
        if n == 1 and (int(marr.max(initial=0)) + 1) * q < 1 << 62:  # so m * q + p - 1 fits
            np.multiply(marr, q, out=z)
            z += p - 1
            z //= p
            return z
        if work is None:
            work = Workspace(size - 1)
        seed = np.multiply(marr, iroot((q << 64 * n) // p, n) / (1 << 64), out=work.floats[0][:size])
        top = float(seed.max(initial=0.0))
        if top >= 1 << 62:  # the int64 result would wrap
            raise BudgetError(f"fine level near {top:.3g} exceeds the int64 range")
        np.rint(seed, out=z, casting="unsafe")  # N, the integer nearest the seed
        seed -= z
        up = seed > 0
        near = np.abs(seed, out=seed) <= top * 2.0**-50
        if near.any():
            if top < 1 << 49 and p * n * (int(top) + 2) ** n < 1 << 112:
                # where near, |N**n * p - m**n * q| < 2**63, so its residue
                # modulo 2**64 (uint64 products wrap) read as int64 is itself
                t, x = (work.ints[k][:size].view(np.uint64) for k in (0, 1))
                np.power(z.view(np.uint64), n, out=t)
                t *= p % (1 << 64)
                np.power(marr.view(np.uint64), n, out=x)
                x *= q % (1 << 64)
                t -= x
                np.less(t.view(np.int64), 0, out=up, where=near)
            else:
                up[near] = False
                z[near] = [self.fine(m) for m in marr[near].tolist()]
        z += up
        return z

    def max_coarse(self, depth: int) -> int:
        # largest m with m**n * q <= depth**n * p
        return iroot(depth**self.n * self.p // self.q, self.n)

    def __repr__(self) -> str:
        return f"RootScale(({self.p}/{self.q})**(1/{self.n}))"


class RationalScale(RootScale):
    """RootScale at order 1: m' = ceil(m / theta) for rational theta."""

    __slots__ = ()

    def __init__(self, theta: Fraction):
        super().__init__(theta, 1)

    # the same function under the subclass's own name, so a wrapper put on
    # RootScale.fine_array (the benchmark tracer's) sees no RationalScale call
    fine_array = RootScale.fine_array

    def __repr__(self) -> str:
        return f"RationalScale({self.p}/{self.q})"


def suffix_slope_max(
    S: Sequence[int], queries: Sequence[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """Maximize (S[j] - S[m]) / (j - m) over j in [lo, len(S)-1] per query.

    S is a non-decreasing integer sequence of prefix counts.  Each query is
    a pair (m, lo) with m < lo <= len(S)-1.  Returns, aligned with the
    queries, the exact maximizing fraction as (numerator, denominator, j*);
    value ties resolve to the smallest j.

    Queries are processed offline by descending lo while every point
    (j, S[j]) is folded right-to-left into an upper convex hull; the best
    slope from (m, S[m]) to the admissible suffix is then found by binary
    search along the hull.  Everything is exact Python-integer arithmetic,
    with no depth limit.

    This is the reference path behind the tests' upper-spectrum oracle; the
    estimators use `region_max`, which solves a whole region of coarse
    levels at once without a hull.
    """
    depth = len(S) - 1
    order = sorted(range(len(queries)), key=lambda i: queries[i][1], reverse=True)
    hx: list[int] = []
    hy: list[int] = []
    out: list[tuple[int, int, int]] = [(0, 1, 0)] * len(queries)
    nxt = depth
    for qi in order:
        m, lo = queries[qi]
        if not m < lo <= depth:
            raise ValueError(f"bad query (m={m}, lo={lo}) for depth {depth}")
        while nxt >= lo:
            x = nxt
            y = S[nxt]
            # pop the current leftmost B while it sits on/below the chord
            # from the new point to the vertex right of B
            while len(hx) > 1 and (hx[-2] - x) * (hy[-1] - y) - (hy[-2] - y) * (
                hx[-1] - x
            ) <= 0:
                hx.pop()
                hy.pop()
            hx.append(x)
            hy.append(y)
            nxt -= 1
        sm = S[m]
        n = len(hx)
        # hull is stored right-to-left; search left-to-right rank k for the
        # first vertex whose successor stops improving the chord slope
        lo_k, hi_k = 0, n - 1
        while lo_k < hi_k:
            mid = (lo_k + hi_k) >> 1
            ia = n - 1 - mid
            ib = ia - 1
            if (hy[ib] - sm) * (hx[ia] - m) > (hy[ia] - sm) * (hx[ib] - m):
                lo_k = mid + 1
            else:
                hi_k = mid
        i = n - 1 - lo_k
        out[qi] = (hy[i] - sm, hx[i] - m, hx[i])
    return out


def region_max(
    S: Sequence[int],
    a: int,
    lo,
    work: Workspace | None = None,
    floor: tuple[int, int] | None = None,
) -> tuple[float, int, int] | None:
    """(value, m, j*) maximizing (S[j] - S[m]) / (j - m) over the region
    m = a, ..., a + len(lo) - 1 and j in [lo[m - a], depth], for lo
    non-decreasing with m < lo[m - a] <= depth = len(S) - 1, and every
    value of S in [0, 2**31) (BudgetError otherwise); ties go to the
    smallest m, then the smallest j.  S must be non-decreasing (prefix
    counts are): the budget check (on S[0] and S[depth]), the top row's
    window and the floor certificate read it so, and none checks it.
    Solved by the parametric rounds of the module docstring on
    T(i) = q * S[i] - p * i, at most (depth - a) - min(lo[m - a] - m) + 2
    of them.

    `floor`, an exact fraction (p, q) with 0 <= p < 2**31 and
    0 < q < 2**31, is a value the caller already holds: the result is
    None when every window of the region is strictly below it, settled
    without a round when the block certificate of the module docstring
    proves it; otherwise the rounds start from the floor when it beats
    the boundary windows and the top row's window.

    Every array lives in the rows of `work`, a `Workspace` of at least
    depth + 1 levels (one is made when none is lent), indexed by level
    and written only on the rows m = a..b (b = a + r - 1) and the fine
    levels lo[0]..depth: T in ints[0], the level term p * i and then the
    suffix maximum in ints[1], the gains in ints[2][:r]; the boundary
    windows' numerators, widths and slopes take ints[2][:r], ints[1][:r]
    and floats[0][:r] before the first round.  So no round allocates,
    nothing else of `work` is read, and lo may be a view of work.ints[3];
    the floor certificate allocates its block bounds, about
    (depth - lo[0] + r) / FLOOR_BLOCK entries."""
    S = np.asarray(S, dtype=np.int64)
    lo = np.asarray(lo, dtype=np.int64)
    depth, r = len(S) - 1, lo.size
    if work is None:
        work = Workspace(depth)
    m = work.levels[a : a + r]
    # m = a + r - 1 < lo[-1] <= depth bounds the levels the region reads
    if (not r or a < 0 or a + r > depth or lo[-1] > depth
            or (lo <= m).any() or (lo[1:] < lo[:-1]).any()):
        raise ValueError(
            f"bad region: need 0 <= m < lo <= {depth} with lo non-decreasing"
        )
    if depth >= MAX_HULL_SPAN or int(S[0]) < 0 or int(S[depth]) >= MAX_HULL_SPAN:
        raise BudgetError(
            f"a region over {depth} levels exceeds the int64 product budget "
            f"(depth and the values of S must lie in [0, 2**31))"
        )
    if floor is not None:
        fp, fq = map(int, floor)
        if not (0 <= fp < MAX_HULL_SPAN and 0 < fq < MAX_HULL_SPAN):
            raise ValueError(f"floor {floor} needs 0 <= p and 0 < q, both below 2**31")
        if _below_floor(S, a, lo, fp, fq):
            return None
    T, top, gain = work.ints[0], work.ints[1], work.ints[2]
    # start from the best boundary window (m, lo[m - a]) ...
    num, den = gain[:r], top[:r]
    np.take(S, lo, out=num, mode="clip")  # lo is checked; clip needs no copy
    num -= S[a : a + r]
    np.subtract(lo, m, out=den)
    k = int(np.argmax(np.divide(num, den, out=work.floats[0][:r])))
    p, q = int(num[k]), int(den[k])
    # one round per window width from depth - a down to the narrowest, + 1
    rounds = depth - a - int(den.min()) + 2
    # ... or the top row's first column from which S stays at S[depth]
    # (any column it finds is admissible), or the floor, the largest
    f, g, b = int(lo[0]), int(lo[-1]), a + r - 1
    j = max(g, int(np.searchsorted(S, S[depth])))
    cp, cq = int(S[j] - S[b]), j - b
    if cp * q > p * cq:
        p, q = cp, cq
    if floor is not None and fp * q > p * fq:
        p, q = fp, fq
    # each round but the last moves to a strictly larger window value and
    # a strictly narrower window than the round before
    for _ in range(rounds):
        # T on the rows a..b and the fine levels f..depth, nothing between
        for x, y in ((a, min(b + 1, f)), (f, depth + 1)):
            np.multiply(S[x:y], q, out=T[x:y])
            T[x:y] -= np.multiply(work.levels[x:y], p, out=top[x:y])
        # the suffix maximum of T at f..g: the tail maximum parked in T[g],
        # then one running maximum down to f
        tg = T[g]
        T[g] = T[g : depth + 1].max()
        np.maximum.accumulate(T[f : g + 1][::-1], out=top[f : g + 1][::-1])
        T[g] = tg
        np.take(top, lo, out=gain[:r], mode="clip")
        gain[:r] -= T[a : a + r]
        k = int(np.argmax(gain[:r]))  # the first m of the largest gain
        if gain[k] < 0:  # only from a floor: every window lies below it
            return None
        mk = a + k
        # the first j >= lo reaching the suffix maximum
        j = int(lo[k]) + int(np.argmax(T[lo[k] : depth + 1]))
        p, q = int(S[j] - S[mk]), j - mk
        if gain[k] == 0:
            return p / q, mk, j
    raise RuntimeError(f"region at {a} found no maximum within {rounds} rounds")


def _below_floor(S: np.ndarray, a: int, lo: np.ndarray, p: int, q: int) -> bool:
    """True when block bounds on T(i) = q * S[i] - p * i put every window
    of the region (a, lo) strictly below p/q, by the module docstring's
    certificate; False proves nothing.  S non-decreasing, 0 <= p, 0 < q."""
    depth, b, f = len(S) - 1, a + lo.size - 1, int(lo[0])
    # column blocks of f..depth: T <= q * S[end] - p * start, then the
    # bound of every suffix of blocks
    c0 = f // FLOOR_BLOCK
    start = np.arange(c0 * FLOOR_BLOCK, depth + 1, FLOOR_BLOCK)
    end = np.minimum(start + (FLOOR_BLOCK - 1), depth)
    start[0] = f
    up = S[end] * q - start * p
    np.maximum.accumulate(up[::-1], out=up[::-1])
    # row blocks of a..b: T >= q * S[start] - p * end, each against the
    # suffix bound from the block of lo at its first row
    start = np.arange(a // FLOOR_BLOCK * FLOOR_BLOCK, b + 1, FLOOR_BLOCK)
    end = np.minimum(start + (FLOOR_BLOCK - 1), b)
    start[0] = a
    low = S[start] * q - end * p
    return bool((up[lo[start - a] // FLOOR_BLOCK - c0] < low).all())


def leaf_gaps(xs: Sequence[int]) -> np.ndarray:
    """Adjacent XOR widths (a ^ b).bit_length() of sorted, distinct indices:
    a and b share their ancestor d levels up exactly when the width is at
    most d."""
    return np.fromiter(
        ((a ^ b).bit_length() for a, b in zip(xs, xs[1:])),
        dtype=np.int64,
        count=max(len(xs) - 1, 0),
    )


def log2_counts(counts) -> np.ndarray:
    """math.log2 of each count, -inf at 0."""
    return np.array([log2(c) if c else -np.inf for c in np.asarray(counts).tolist()])


def _log2_lut(table: np.ndarray) -> np.ndarray:
    """log2_counts by count at each count a tree table holds, -inf elsewhere."""
    lut = np.full(int(table.max()) + 1, -np.inf)
    if table.size < lut.size:
        # the distinct counts by sort and diff: np.unique imports numpy.ma
        held = np.sort(table, axis=None)
        held = held[np.diff(held, prepend=-1) != 0]
    else:
        held = np.arange(lut.size)
    lut[held] = log2_counts(held)
    return lut


def _dominance(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per gap, the nearest strictly greater gap on the left (-1 if none) and
    the nearest greater-or-equal gap on the right (len(g) if none)."""
    gl = g.tolist()
    n = len(gl)
    left = [-1] * n
    right = [n] * n
    stack: list[int] = []
    for i, v in enumerate(gl):
        while stack and gl[stack[-1]] <= v:
            right[stack.pop()] = i
        if stack:
            left[i] = stack[-1]
        stack.append(i)
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


class RunTable:
    """Largest ancestor multiplicity at every level and width of one tree.

    The tree is given by the gaps of its sorted leaves (see `leaf_gaps`).
    At the level s above the leaves two leaves are distinct nodes exactly
    when their gap exceeds s, and two such nodes share their ancestor d
    levels further up exactly when every gap between them is at most s + d.
    So the most level-s nodes below one node d levels up is 1 plus the most
    gaps > s inside one run of consecutive gaps <= s + d.

    A gap's dominance interval (up to the nearest strictly greater gap on
    the left and the nearest greater-or-equal gap on the right) is a run in
    which it is the largest gap, and every maximal run of gaps <= T is the
    interval of its rightmost largest gap.  The answer is therefore a
    running maximum, over the gaps in ascending order up to s + d, of 1 +
    the gaps > s in each interval.  It depends on s only through the set of
    gaps > s, so one block is kept per distinct gap value u[b], serving
    every s in [u[b-1], u[b]): its entries are the running maximum at the
    thresholds u[b], u[b+1], ....  Lookups go through ranks (the number of
    distinct gap values <= x): s selects block rank(s), and s + d the
    entry rank(s + d) - 1 when that is at least rank(s); otherwise no gap
    > s is <= s + d and the answer is table entry 0, the count below a
    single node (1, or 0 for a tree without leaves).  `logs(s, s + d)`
    reads the count there and its log2 from `lut`.

    The build takes the threshold ranks in chunks b0, ..., b0 + B - 1 with
    B = max(1, RUN_BLOCK // n), for the n gaps >= u[b0], and works in their
    compressed positions.  Prefix counts P[r, x], the gaps >= u[b0 + r]
    among the first x of them, come from one cumsum along each row (row 0
    counts every one, so it is x itself).  Each interval's ends map to
    compressed positions lo and hi, so P[:, hi] - P[:, lo] counts every
    interval at every threshold of the chunk, one running maximum along
    the rows yields the chunk's blocks, and their entries t >= b go
    straight into the preallocated table.  A chunk's temporaries hold
    about max(RUN_BLOCK, n) counts, so the build peaks at the kept table
    plus those temporaries.
    """

    __slots__ = ("u", "base", "table", "lut")

    def __init__(self, gaps: Sequence[int], leaves: int):
        g = np.asarray(gaps, dtype=np.int64)
        left, right = _dominance(g)
        # numpy sorts 16-bit keys stably by radix, several times faster
        small = g.size and 0 <= g.min() and g.max() < 1 << 16
        order = np.argsort(g.astype(np.uint16) if small else g, kind="stable")
        sg = g[order]
        first = np.flatnonzero(np.diff(sg, prepend=sg[:1] - 1))  # where values start
        u = sg[first]
        ends = np.append(first[1:], g.size) - 1
        # interval ends in ascending gap order, shifted by one so that the
        # outside ends -1 and len(g) are valid indices into rk; both ends of
        # an alive gap's interval are alive or outside
        left, right = left[order] + 1, right[order] + 1
        k = u.size
        # entry for threshold rank t >= b of block b sits at base[b] + t + 1
        sizes = k - np.arange(k + 1)
        base = np.concatenate(([0], np.cumsum(sizes[:-1]))) - np.arange(k + 1)
        table = np.empty(k * (k + 1) // 2 + 1, dtype=np.int32)
        table[0] = min(leaves, 1)
        # positions, ranks and counts are below len(g) and gaps at most the
        # depth, both far below 2**31 for any tree held as a tuple of leaves
        count = np.int32
        alive = np.arange(1, g.size + 1, dtype=count)  # positions + 1 of the gaps >= u[b0]
        live = g.astype(count)  # their values
        rk = np.full(g.size + 2, -1, dtype=count)  # rk[p + 1]: rank of p among alive
        b0 = 0
        while b0 < k:
            f = int(first[b0])
            keep = live >= u[b0]
            alive, live = alive[keep], live[keep]
            n = alive.size
            rk[alive] = np.arange(n, dtype=count)
            rk[-1] = n
            nb = min(max(1, RUN_BLOCK // n), k - b0)
            # each interval as compressed positions [lo, hi) among alive
            lo, hi = np.take(rk, left[f:]), np.take(rk, right[f:])
            lo += 1
            # row r: the gaps >= u[b0 + r] inside every interval, all of
            # them in row 0, through the prefix counts P below it.  The
            # interval of a gap < u[b0 + r] holds none, so no row is masked.
            inside = np.empty((nb, n), dtype=count)
            np.subtract(hi, lo, out=inside[0])
            P = np.zeros((nb - 1, n + 1), dtype=count)
            np.cumsum(live >= u[b0 + 1 : b0 + nb, None], axis=1, dtype=count, out=P[:, 1:])
            np.take(P, hi, axis=1, out=inside[1:])
            inside[1:] -= np.take(P, lo, axis=1)
            np.maximum.accumulate(inside, axis=1, out=inside)
            runs = inside[:, ends[b0:] - f]
            upper = np.arange(k - b0) >= np.arange(nb)[:, None]  # t >= b
            start, stop = base[b0] + b0 + 1, base[b0 + nb - 1] + k + 1
            np.add(runs[upper], 1, out=table[start:stop])
            b0 += nb
        self.u, self.base, self.table, self.lut = u, base, table, _log2_lut(table)

    def logs(self, s, t):
        """log2 of the count for fine level s below coarse level t > s, both
        counted up from the leaves (elementwise, broadcast)."""
        return self.lut[self.table[self._pos(s, t)]]

    def _pos(self, s, t):
        """Table positions for s and t, through the ranks of both."""
        rs, rt = (np.searchsorted(self.u, x, side="right") for x in (s, t))
        return np.where(rt > rs, self.base[rs] + rt, 0)


def _adjacency(xs: Sequence[int], gaps: np.ndarray) -> np.ndarray:
    """Per adjacent pair a < b of sorted, distinct indices with width g (see
    `leaf_gaps`), the least s with (a >> s) + 1 == b >> s: the two fall in
    consecutive cells s levels up exactly for s in [that, g).  That holds
    when a's bits s..g-2 are all ones and b's are all zeros."""
    out = []
    for a, b, g in zip(xs, xs[1:], gaps.tolist()):
        low = (1 << (g - 1)) - 1
        out.append(max((~a & low).bit_length(), (b & low).bit_length()))
    return np.array(out, dtype=np.int32)


class NeighborTable:
    """Largest neighborhood count at every window of one tree.

    A level-m node's neighborhood is the node and its present same-level
    neighbors k - 1 and k + 1; a metric ball of radius 2**-m centered in
    the node meets at most these three cells, so the neighborhood count
    brackets the ball's.  The leaves split into level-m groups (one per
    node) where a gap exceeds t = depth - m, and a neighborhood is one
    contiguous leaf range [a, b]: from the first leaf of the previous group
    when that group is the cell to the left (`adjacent[gap] <= t`, see
    `_adjacency`), to the last leaf of the next group when that is the
    cell to the right.  Its count s levels above the leaves is
    1 + P[s, b] - P[s, a] with the prefix counts P[s, i] = #(gaps[:i] > s).
    Per coarse level one maximum over the groups serves every fine level
    at once.

    `table[t, s]` holds the best count (int32, 0 where t <= s), read as
    `RunTable`'s through `logs(s, t)`.  `adjacent` (int32, per gap) and the
    distinct gap values `u` serve the estimators' witness and column rules.
    """

    __slots__ = ("u", "table", "lut", "adjacent")

    def __init__(self, leaves: Sequence[int], gaps: Sequence[int], depth: int):
        g = np.asarray(gaps, dtype=np.int64)
        n = len(leaves)
        size = depth + 1
        adjacent = _adjacency(leaves, g)
        prefix = np.zeros((depth, n), dtype=np.int32)
        np.cumsum(g > np.arange(depth)[:, None], axis=1, dtype=np.int32, out=prefix[:, 1:])
        table = np.zeros((size, size), dtype=np.int32)
        for t in range(1, size if n else 1):
            cut = np.flatnonzero(g > t)
            first = np.concatenate(([0], cut + 1))
            last = np.append(cut, n - 1)
            near = adjacent[cut] <= t
            a, b = first.copy(), last.copy()
            a[1:] = np.where(near, first[:-1], first[1:])
            b[:-1] = np.where(near, last[1:], last[:-1])
            table[t, :t] = (prefix[:t, b] - prefix[:t, a]).max(axis=1) + 1
        self.u, self.table, self.lut = np.flatnonzero(np.bincount(g)), table, _log2_lut(table)
        self.adjacent = adjacent

    def logs(self, s, t):
        """As `RunTable.logs`: levels index the table directly."""
        return self.lut[self.table[t, s]]


def runlen_table(xs: Sequence[int]) -> np.ndarray:
    """Largest ancestor multiplicity per window width, for one tree level.

    xs holds the sorted, distinct indices present at some level m'.  Entry
    d of the result is the most indices sharing one level-(m' - d)
    ancestor, for d up to the largest adjacent XOR width (clamp d to the
    last entry beyond it): the level-0 row of the `RunTable` of xs.
    """
    gaps = leaf_gaps(xs)
    width = int(gaps.max()) if gaps.size else 0
    table = RunTable(gaps, len(xs))
    return table.table[table._pos(0, np.arange(width + 1))]
