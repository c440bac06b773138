"""The maximization engine against direct enumeration."""

import random
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fds.constructions import geometric_sequence_tree
from fds.errors import BudgetError
from fds.windows import (
    MAX_ROOT_ORDER,
    NeighborTable,
    RationalScale,
    RootScale,
    RunTable,
    Workspace,
    ceil_div,
    iroot,
    region_max,
    root_order,
    runlen_table,
    suffix_slope_max,
)

from conftest import (
    assert_region_floors,
    hull_slope_max,
    oracle_fan_max,
    staircase_regions,
    traced_peak,
)


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_div(1, 3) == 1


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(10**18, 2) == 10**9
    for x in range(0, 200):
        for n in (2, 3, 4):
            r = iroot(x, n)
            assert r**n <= x < (r + 1) ** n


def test_iroot_is_the_floor_root_of_large_radicands():
    """Newton's iterates from 2**ceil(bits / n) end at the floor root with
    no correction step: random radicands up to 2**600, and the perfect
    powers z**n with their neighbours, for every root order 1..16."""
    rng = random.Random(36)
    for n in range(1, MAX_ROOT_ORDER + 1):
        xs = [rng.getrandbits(rng.randint(1, 600)) for _ in range(200)]
        for z in (2, 3, 7, 2**20 - 1, 2**20, 3**40, rng.getrandbits(90) | 1):
            xs += [z**n - 1, z**n, z**n + 1]
        for x in xs:
            r = iroot(x, n)
            assert r**n <= x < (r + 1) ** n, (x, n)


def test_rational_scale_exactness():
    sc = RationalScale(Fraction(1, 10))
    assert sc.fine(512) == 5120
    assert sc.fine(511) == 5110
    assert sc.max_coarse(65536) == 6553
    with pytest.raises(ValueError):
        RationalScale(Fraction(1))


def test_root_scale_agrees_with_brute():
    for theta in (Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)):
        for n in (2, 3):
            sc = RootScale(theta, n)
            for m in range(1, 200):
                z = sc.fine(m)
                assert z**n * theta.numerator >= m**n * theta.denominator
                assert (z - 1) ** n * theta.numerator < m**n * theta.denominator
            top = sc.max_coarse(997)
            assert sc.fine(top) <= 997 < sc.fine(top + 1)


def test_root_scale_fine_array_matches_fine():
    for theta in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)):
        for n in (1, 2, 3):
            sc = RootScale(theta, n)
            for marr in (
                np.arange(0, 300, dtype=np.int64),
                np.arange(16384, 65537, 7, dtype=np.int64),
                # for n = 3 the products pass 2**62: the per-element fallback
                np.array([2**20, 2**21 + 3, 3 * 2**20], dtype=np.int64),
            ):
                got = sc.fine_array(marr)
                assert got.dtype == np.int64
                assert got.tolist() == [sc.fine(int(m)) for m in marr]
    assert RootScale(Fraction(1, 2), 2).fine_array(np.array([], dtype=np.int64)).size == 0


def test_rational_scale_fine_array_guards_the_largest_entry():
    """The int64 guard reads the largest coarse level, not the last: an
    unsorted array whose first entry passes 2**62 after the multiply falls
    back to exact integers instead of wrapping.  Empty input gives an
    empty int64 array, as RootScale's does."""
    for theta, marr in (
        (Fraction(3, 2**42), [2**21, 1]),
        (Fraction(3, 2**42), [5, 2**21, 1]),
        (Fraction(1, 10), [512, 3, 511]),
    ):
        sc = RationalScale(theta)
        for work in (None, Workspace(4)):
            got = sc.fine_array(np.array(marr, dtype=np.int64), work)
            assert got.dtype == np.int64
            assert got.tolist() == [sc.fine(m) for m in marr]
        got = sc.fine_array(np.array([], dtype=np.int64))
        assert got.dtype == np.int64 and got.size == 0


def test_fine_array_rejects_levels_past_int64():
    """A largest seed at or past 2**62 raises BudgetError instead of
    returning a wrapped int64 level; just below it the levels are exact,
    and the scalar fine has no such limit."""
    sc = RationalScale(Fraction(1, 2386420683693101056))
    assert sc.fine(4) == 9545682734772404224
    with pytest.raises(BudgetError):
        sc.fine_array(np.array([4]))
    sc = RationalScale(Fraction(1, 2**60))
    assert sc.fine_array(np.array([3, 1])).tolist() == [3 * 2**60, 2**60]
    with pytest.raises(BudgetError):
        sc.fine_array(np.array([4, 1]), Workspace(2))
    assert sc.fine(4) == 2**62


def test_rational_scale_ceil_division_allocates_only_its_result():
    """Without a lent workspace the int64 ceil-division allocates its
    result array and no other array of the input's size, not even a mask."""
    m = np.arange(1, 2**16 + 1, dtype=np.int64)
    sc = RationalScale(Fraction(1, 10))
    assert traced_peak(lambda: sc.fine_array(m)) < 8 * m.size + 4096


def test_fine_array_settles_seeds_next_to_an_integer():
    """A float theta is its exact binary fraction, so m / theta lies just
    off an integer at every multiple of the decimal's numerator; some of
    those seeds round to the other side of it (a bound of 2**-53 times the
    largest seed misses some).  A root nudged off (a/b)**n puts r within
    2**-48 of an integer on either side: the int64 test settles it for
    n = 2, the scalar fine for n = 16."""
    m = np.arange(0, 3000, dtype=np.int64)
    scales = [RationalScale(Fraction(k / d)) for k, d in ((3, 29), (11, 25), (19, 25), (35, 38))]
    for n in (2, 16):
        for nudge in (Fraction(2**60 - 1, 2**60), Fraction(2**60 + 1, 2**60)):
            scales.append(RootScale(Fraction(2, 3) ** n * nudge, n))
    for sc in scales:
        for work in (None, Workspace(m.size)):
            assert sc.fine_array(m, work).tolist() == [sc.fine(x) for x in range(m.size)]


def test_fine_array_reads_a_rational_root_at_order_one():
    """(1/2**16)**(1/16) is 1/2 and (4/9)**(1/2) is 2/3: fine_array reads
    them at order 1, with no scalar fine call (every seed of the first
    lies next to an integer), and equals fine at every level; the reprs
    keep the order."""
    m = np.arange(16384, 65537, dtype=np.int64)
    fine, calls = RootScale.fine, []

    def counted(self, x):
        calls.append(x)
        return fine(self, x)

    for sc, text in ((RootScale(Fraction(1, 2**16), 16), "RootScale((1/65536)**(1/16))"),
                     (RootScale(Fraction(4, 9), 2), "RootScale((4/9)**(1/2))")):
        with patch.object(RootScale, "fine", counted):
            got = sc.fine_array(m)
        assert calls == []
        assert got.tolist() == [sc.fine(x) for x in m.tolist()]
        assert repr(sc) == text


def test_root_scale_bounds_the_order():
    """Orders 1..MAX_ROOT_ORDER build; 0 and MAX_ROOT_ORDER + 1 are rejected
    with the value named, before any fine level is computed."""
    assert MAX_ROOT_ORDER == 16
    top = RootScale(Fraction(1, 2), MAX_ROOT_ORDER)
    assert top.fine(64) == 67 and root_order(MAX_ROOT_ORDER) == MAX_ROOT_ORDER
    for n in (0, MAX_ROOT_ORDER + 1, 99999):
        with pytest.raises(ValueError, match=f"root order must lie in \\[1, 16\\], got {n}$"):
            RootScale(Fraction(1, 2), n)


def test_rational_scale_is_root_scale_at_order_1():
    """RationalScale adds no rule of its own: it is a RootScale of order 1
    with RootScale's fine_array under its own name, and both reprs name
    their class."""
    assert issubclass(RationalScale, RootScale)
    assert not {"fine", "max_coarse"} & set(vars(RationalScale))
    assert RationalScale.__slots__ == ()
    assert vars(RationalScale)["fine_array"] is vars(RootScale)["fine_array"]
    sc = RationalScale(Fraction(3, 10))
    assert (sc.p, sc.q, sc.n) == (3, 10, 1)
    assert repr(sc) == "RationalScale(3/10)"
    assert repr(RootScale(Fraction(3, 10), 1)) == "RootScale((3/10)**(1/1))"


def test_reference_paths_reject_bad_arguments():
    with pytest.raises(ValueError, match="^negative radicand$"):
        iroot(-1, 2)
    with pytest.raises(ValueError, match="^root order must be >= 1$"):
        iroot(4, 0)
    with pytest.raises(ValueError, match=r"^bad query \(m=1, lo=1\) for depth 2$"):
        hull_slope_max([0, 1, 2], [(1, 1)])


def _brute_suffix_best(S, m, lo):
    """(numerator, denominator, smallest maximizing j) by enumeration."""
    best = max(Fraction(S[x] - S[m], x - m) for x in range(lo, len(S)))
    j = min(x for x in range(lo, len(S)) if Fraction(S[x] - S[m], x - m) == best)
    return S[j] - S[m], j - m, j


def _random_prefix(rng, depth):
    kind = rng.choice(("flat", "branching", "runs", "runs", "frozen"))
    if kind == "flat":
        incs = [0] * depth
    elif kind == "branching":
        incs = [1] * depth
    else:
        p = rng.random()
        incs = []
        while len(incs) < depth:
            incs += [int(rng.random() < p)] * rng.randint(1, 6)
        incs = incs[:depth]
        if kind == "frozen":
            # extended_prefix: no branching beyond the component's own depth
            cut = rng.randint(0, depth)
            incs = incs[:cut] + [0] * (depth - cut)
    S = [0]
    for c in incs:
        S.append(S[-1] + c)
    return S


def _concave_corners(S):
    """Levels where the slope of S drops, plus depth: with lo, the only
    levels a smallest best j can take for a fixed m."""
    inc = np.diff(S)
    return (np.flatnonzero(inc[:-1] > inc[1:]) + 1).tolist() + [len(S) - 1]


def test_region_max_vs_reference_and_brute():
    # one-level regions (m, [lo]) against the offline sweep and enumeration
    rng = random.Random(11)
    for trial in range(300):
        depth = rng.randint(1, 50)
        S = _random_prefix(rng, depth)
        corners = _concave_corners(S)
        assert corners[-1] == depth
        queries = []
        for _ in range(rng.randint(1, 15)):
            m = rng.randint(0, depth - 1)
            queries.append((m, rng.randint(m + 1, depth)))
        # lo on a corner and lo just before one
        for c in corners:
            if c >= 2:
                queries.append((rng.randint(0, c - 2), c))
                queries.append((rng.randint(0, c - 2), c - 1))
        got = [region_max(S, m, [lo]) for m, lo in queries]
        want = [(n / d, m, j) for (m, _), (n, d, j) in zip(queries, hull_slope_max(S, queries))]
        assert got == want
        assert want == [
            (n / d, m, j) for (m, lo) in queries for n, d, j in [_brute_suffix_best(S, m, lo)]
        ]


def test_region_max_ties_resolve_to_smallest_j():
    # from m = 0, levels 2, 4 and 6 all give slope 1/2; lo = 1 gives 0
    S = [0, 0, 1, 1, 2, 2, 3]
    assert [region_max(S, 0, [lo]) for lo in (1, 3, 5)] == [(0.5, 0, 2), (0.5, 0, 4), (0.5, 0, 6)]
    assert region_max([0, 1], 0, [1]) == (1.0, 0, 1)  # depth 1
    assert region_max([0, 0], 0, [1]) == (0.0, 0, 1)
    # m=0 and m=2 both reach 1/2 at best; the first query wins
    assert oracle_fan_max(S, [0, 2], [1, 3]) == (0.5, 0, 2)
    assert oracle_fan_max(S, [2, 0], [3, 1]) == (0.5, 2, 4)
    # regions: (0, 2), (0, 4) and (2, 4) all reach 1/2, so the smallest m
    # and then its smallest j win; every window of a fully branching S is 1
    # and every window of a flat S is 0, so the first window (a, lo[0]) wins
    assert region_max(S, 0, [1]) == (0.5, 0, 2)
    assert region_max([0, 1, 1, 1, 2], 0, [2, 2, 3]) == (0.5, 0, 2)
    assert region_max([0, 1, 1, 1, 2], 1, [3, 3]) == (0.5, 2, 4)
    assert region_max([0, 1, 2, 3], 0, [1, 2, 3]) == (1.0, 0, 1)
    assert region_max([0] * 6, 1, [3, 3, 4]) == (0.0, 1, 3)


def test_region_max_allocates_no_depth_sized_array():
    """With a caller-owned workspace no round of region_max allocates a
    depth-sized array: on a depth-2**16 convex staircase, where the solve
    takes several rounds, a narrow region peaks below one int64 array of
    depth + 1 entries, and the answer is the one of a call without it."""
    depth = 1 << 16
    levels = np.arange(depth + 1, dtype=np.int64)
    S = levels * levels // (4 * depth)
    a = depth // 4
    lo = RationalScale(Fraction(1, 2)).fine_array(np.arange(a, a + 256, dtype=np.int64))
    work = Workspace(depth)
    found = []
    peak = traced_peak(lambda: found.append(region_max(S, a, lo, work)))
    assert peak < 8 * (depth + 1), peak
    assert found == [region_max(S, a, lo)] and found[0][2] == depth


def test_region_max_rejects_bad_input():
    S = [0, 1, 1, 2]
    # one-level regions: lo <= m, lo past depth, negative m
    for m, lo in ((1, 1), (2, 1), (0, 4), (-1, 2)):
        with pytest.raises(ValueError):
            region_max(S, m, [lo])
    # empty, lo <= m, decreasing lo, lo past depth, negative a
    for a, lo in ((0, []), (1, [2, 2]), (0, [3, 2]), (2, [4]), (-1, [1, 2])):
        with pytest.raises(ValueError):
            region_max(S, a, lo)
    with pytest.raises(ValueError):  # a single level has no window
        region_max([0], 0, [1])
    top = (1 << 31) - 1
    assert region_max(np.array([0, top], dtype=np.int64), 0, [1]) == (float(top), 0, 1)
    # the budget reads S[0] and S[depth], which bound a non-decreasing S
    for S_bad in ([0, 1 << 31], [0, 5, (1 << 31) - 1, 1 << 31], [-1, 0, 4, 9]):
        with pytest.raises(BudgetError):
            region_max(np.array(S_bad, dtype=np.int64), 0, [1])
    # a floor is a fraction p/q with 0 <= p, 0 < q, both below 2**31
    for floor in ((1, 0), (-1, 2), (1 << 31, 1), (1, 1 << 31)):
        with pytest.raises(ValueError, match="floor"):
            region_max(S, 0, [1], floor=floor)


def _random_region(rng, depth, corners):
    """(a, lo): a contiguous coarse region a..b below depth and a
    non-decreasing lo > m, from a ratio rule (in a composite piece's local
    levels), a staircase m + 1 + gap, or levels on and just before the
    concave corners."""
    a = rng.randint(0, depth - 1)
    b = rng.randint(a, depth - 1)
    kind = rng.randrange(3)
    if kind == 0:
        scale = RationalScale(Fraction(rng.randint(1, 11), 12))
        e = rng.randint(0, a)
        lo = scale.fine_array(np.arange(a + e, b + e + 1, dtype=np.int64)) - e
        if a + e >= 1 and lo[-1] <= depth:
            return a, lo
    lo, prev, gap = [], 0, rng.randint(0, 8)
    for m in range(a, b + 1):
        pick = m + 1 + rng.randint(0, gap)
        if kind == 2:
            c = rng.choice(corners)
            pick = rng.choice((pick, c, c - 1))
        prev = min(depth, max(prev, m + 1, pick))
        lo.append(prev)
    return a, np.array(lo)


def test_region_max_vs_fan_max_oracle():
    # the smallest regions whose witness is only a boundary window (m, lo),
    # only the last m admitting a concave corner, only reached from a, and
    # only from a convex corner (a flat step followed by a branching one)
    for S, lo, want in (
        ([0, 0, 0, 1, 1, 1], [4, 4, 5], (1 / 3, 1, 4)),
        ([0, 0, 0, 1, 1], [1, 2, 4], (0.5, 1, 3)),
        ([0, 1, 1, 2], [2, 2], (2 / 3, 0, 3)),
        ([0, 0, 1, 1, 2], [1, 3, 3], (2 / 3, 1, 4)),
    ):
        assert oracle_fan_max(S, range(len(lo)), lo) == want
        assert region_max(S, 0, lo) == want
    rng = random.Random(17)
    for trial in range(3000):
        depth = rng.randint(1, 50)
        S = _random_prefix(rng, depth)
        a, lo = _random_region(rng, depth, _concave_corners(S))
        m = range(a, a + len(lo))
        assert region_max(S, a, lo) == oracle_fan_max(S, m, lo), (S, a, lo.tolist())


@settings(max_examples=150, deadline=None)
@given(staircase_regions(), st.integers(min_value=2, max_value=50))
def test_region_max_floor_on_curve_staircases(case, k):
    """A floor strictly above the region's maximum p/q gives None; a floor
    equal to it, in lowest terms or not, or below it gives the tuple of the
    solve without one, checked against one hull_slope_max query per
    coarse level."""
    assert_region_floors(*case, k)


def _spoiled(depth):
    """A workspace whose int rows hold values no solve writes, alternating
    far above and far below every T, so a read of a level the solve did
    not fill changes its answer."""
    work = Workspace(depth)
    work.ints[:3] = np.where(work.levels % 2, 1 << 62, -(1 << 62))
    return work


def test_region_max_split_span_regions():
    """Narrow regions at small theta, whose first fine level lies past the
    level after their last coarse one: T is filled on the rows and on the
    fine levels only, and the levels between them are never read.  Solved
    on a spoiled workspace and with floors, against the per-level oracle."""
    rng = random.Random(29)
    seen = 0
    for trial in range(400):
        depth = rng.randint(12, 90)
        S = _random_prefix(rng, depth)
        scale = RationalScale(Fraction(rng.randint(1, 3), rng.randint(10, 13)))
        top = scale.max_coarse(depth)
        a = rng.randint(1, top)
        lo = scale.fine_array(np.arange(a, rng.randint(a, min(top, a + 5)) + 1, dtype=np.int64))
        if lo[0] <= a + lo.size:
            continue
        seen += 1
        want = assert_region_floors(S, a, lo)
        assert region_max(S, a, lo, _spoiled(depth)) == want, (S, a, lo.tolist())
    assert seen > 250, seen


def test_region_max_top_row_start_wins_in_one_round():
    """Where the region's witness is the top row's start window (b, j),
    b = a + r - 1 and j the first level >= lo[-1] with S[j] = S[depth], as
    on convex staircases (j = depth) and on those with a frozen tail
    (j < depth), the solve starts there and stops after the one round
    that confirms it: one take for the boundary windows, one for the
    round's gains.  Floors and a spoiled workspace as elsewhere."""
    take = np.take
    takes = []

    def counted(arr, idx, *args, **kw):
        takes.append(1)
        return take(arr, idx, *args, **kw)

    rng = random.Random(31)
    seen = {True: 0, False: 0}  # by whether j is the depth
    for trial in range(400):
        n = rng.randint(8, 300)
        v = rng.randint(1, 64)
        u = rng.randint(1, v)
        w = rng.randint(0, v - u)
        i = np.arange(n + 1, dtype=np.int64)
        S = (u * i * i + 2 * n * w * i) // (2 * n * v)  # convex, slopes in [0, 1]
        S = np.minimum(S, S[n - rng.choice((0, 0, rng.randint(1, 6)))])  # a frozen tail
        scale = RationalScale(Fraction(rng.randint(1, 11), 12))
        top = scale.max_coarse(n)
        if top < 1:
            continue
        a = rng.randint(1, top)
        lo = scale.fine_array(np.arange(a, rng.randint(a, top) + 1, dtype=np.int64))
        want = assert_region_floors(S, a, lo)
        j = max(int(lo[-1]), int(np.flatnonzero(S == S[n])[0]))
        if want[1:] != (a + lo.size - 1, j):
            continue
        seen[j == n] += 1
        takes.clear()
        with patch.object(np, "take", counted):
            assert region_max(S, a, lo, _spoiled(n)) == want
        assert len(takes) == 2, (n, u, v, w, a, lo.tolist())
    assert min(seen.values()) > 30, seen


def test_region_max_floor_exits():
    """From a floor above every window the solve stops after at most its
    first round; a floor tying the maximum returns the region's first
    window of that value, the smallest m and then the smallest j.  Where
    a region's rows and fine levels lie blocks apart, a floor half again
    above its maximum is settled by the block certificate alone, with no
    take and no write to a spoiled workspace, while a floor just above
    the maximum still takes its one round; rows whose fine levels share
    their block (the region from 1) are never settled so."""
    S = [0, 0, 1, 1, 2, 2, 3]
    assert region_max(S, 0, [1], floor=(1, 2)) == (0.5, 0, 2)
    assert region_max(S, 0, [1], floor=(2, 3)) is None
    assert region_max(S, 0, [1, 3], floor=(1, 2)) == (2 / 3, 1, 4)
    assert region_max([0] * 6, 1, [3, 3, 4], floor=(0, 1)) == (0.0, 1, 3)
    assert region_max([0] * 6, 1, [3, 3, 4], floor=(1, 1 << 30)) is None
    rounds = []
    take = np.take

    def counted(arr, idx, *args, **kw):
        rounds.append(1)
        return take(arr, idx, *args, **kw)

    depth = 1 << 12
    levels = np.arange(depth + 1, dtype=np.int64)
    # convex up to half the depth, frozen beyond but for the last level:
    # the best window ends at the bend, which no boundary window and no
    # column of the top row's start rule reaches, so the solve takes two
    # rounds without a floor
    S = np.minimum(levels, depth // 2) ** 2 // (4 * depth) + (levels == depth)
    lo = RationalScale(Fraction(1, 2)).fine_array(np.arange(1, 256, dtype=np.int64))
    want = region_max(S, 1, lo)
    with patch.object(np, "take", counted):
        assert region_max(S, 1, lo) == want
        free = len(rounds)
        rounds.clear()
        p, q = int(S[want[2]] - S[want[1]]), want[2] - want[1]
        assert region_max(S, 1, lo, floor=(p * 2 + 1, q * 2)) is None
    # one take for the boundary windows' numerators, one per round's gains
    assert free > len(rounds) == 2
    for a, settled in ((1, False), (256, True), (512, True)):
        lo = RationalScale(Fraction(1, 2)).fine_array(np.arange(a, 2 * a + 255, dtype=np.int64))
        _, m, j = region_max(S, a, lo)
        p, q = int(S[j] - S[m]), j - m
        for floor, skip in (((3 * p, 2 * q), settled), ((2 * p + 1, 2 * q), False)):
            work = _spoiled(depth)
            rounds.clear()
            with patch.object(np, "take", counted):
                assert region_max(S, a, lo, work, floor) is None
            assert len(rounds) == (0 if skip else 2), (a, floor)
            assert np.array_equal(work.ints[:3], _spoiled(depth).ints[:3]) == skip


@pytest.mark.parametrize("solve", [hull_slope_max, suffix_slope_max], ids=["hull", "shim"])
def test_suffix_slope_max_vs_brute(solve):
    # the tests' hull-sweep oracle and the library's one-row region_max shim
    rng = random.Random(7)
    for trial in range(30):
        depth = rng.randint(3, 60)
        S = [0]
        for _ in range(depth):
            S.append(S[-1] + rng.choice((0, 1)))
        queries = []
        for _ in range(rng.randint(1, 12)):
            m = rng.randint(0, depth - 1)
            lo = rng.randint(m + 1, depth)
            queries.append((m, lo))
        got = solve(S, queries)
        for (m, lo), (num, den, j) in zip(queries, got):
            best = max(Fraction(S[x] - S[m], x - m) for x in range(lo, depth + 1))
            assert Fraction(num, den) == best
            # smallest maximizing fine level
            jstar = min(
                x for x in range(lo, depth + 1) if Fraction(S[x] - S[m], x - m) == best
            )
            assert j == jstar
            assert Fraction(S[j] - S[m], j - m) == best


def test_runlen_table_vs_brute():
    rng = random.Random(13)
    for trial in range(30):
        mp = rng.randint(1, 12)
        pop = rng.sample(range(1 << mp), rng.randint(1, min(40, 1 << mp)))
        xs = sorted(pop)
        table = runlen_table(xs)
        for delta in range(1, mp + 1):
            groups: dict[int, int] = {}
            for x in xs:
                groups[x >> delta] = groups.get(x >> delta, 0) + 1
            want = max(groups.values())
            got = int(table[min(delta, len(table) - 1)])
            assert got == want, (xs, delta)


def test_run_table_build_peak_is_its_kept_size():
    # the build writes its blocks straight into the kept int32 table (2.1 MB
    # at geometric depth 1024), so its traced peak exceeds what it keeps by
    # its own working set, about 0.46 MB: a second table-sized array breaks
    # the bound
    t = geometric_sequence_tree(1024)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        runs = RunTable(t.gaps, len(t.leaves))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = runs.table.nbytes + runs.lut.nbytes
    assert peak <= kept + (1 << 20), (peak, kept)


def test_neighbor_table_keeps_counts_adjacency_and_gap_values():
    # numpy's own allocations after the build at geometric depth 512: the
    # int32 counts (1.05 MB), their lut, the adjacency and the gap values;
    # a second table-sized array, such as leftmost-witness starts, doubles
    # that
    t = geometric_sequence_tree(512)
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(numpy_only)
        nb = NeighborTable(t.leaves, t.gaps, t.depth)
        after = tracemalloc.take_snapshot().filter_traces(numpy_only)
    finally:
        tracemalloc.stop()
    kept = sum(st.size_diff for st in after.compare_to(before, "filename"))
    assert kept <= nb.table.nbytes + nb.lut.nbytes + nb.adjacent.nbytes + nb.u.nbytes, kept
