"""Shared fixtures, slow-but-independent oracles and per-node references.

The oracles recompute counts and window maxima by direct enumeration,
avoiding the library's range-count tables, region solver and numpy paths,
so estimator tests compare two genuinely different routes.
`hull_slope_max` is the exception: the offline convex-hull sweep for the
best slope from (m, S[m]) to any point of a suffix of S, in exact Python
integers, is the independent oracle of the library's one exact best-slope
solver, `windows.region_max`.  `reference_upper` replays the upper-spectrum
maximization per theta on it, so the estimators' parametric region solve
is checked against a hull sweep.
`oracle_fan_max` sends one `hull_slope_max` query per coarse level and
takes the argmax, the batch that one `region_max` call replaces;
`assert_region_floors` checks one region's solve against it, with floors
above, at and below its maximum, and `assert_floor_certificate` checks
that the solve's block certificate settles only floors strictly above it.
`oracle_composite_spectrum` and `oracle_composite_upper` evaluate a
schedule or composite one piece at a time, dividing every row of every
piece and solving each piece's region with no floor, the references of
the kernels that share each coarse level's width across the pieces and
carry the best value from piece to piece.
`assert_skipped_blocks_lose` divides out every window of the blocks the
fixed-ratio kernel's block path skips, the check of its key rule.
`oracle_extended_prefix` extends a component's own prefix array by
concatenation, and `oracle_origin_log_counts` sums every term of an
origin row over every level, exact zeros included: the references of the
composite's one-pass count arrays.
`ratio_fan_max` enumerates the main theorem's ratio fan one theta at a
time, the oracle of the all-theta brute side in `verify_main_theorem`.
`oracle_run_table` builds a `RunTable`'s arrays one distinct gap value at
a time, from dominance intervals found by scanning outward from each gap,
the reference of its chunked build and its stack pass; `run_count` reads
one count off a built table.
The schedule oracles build a two-phase schedule level by level and write
and parse schedule runs one run at a time with Python string formatting
and `int`, the references of the numpy run arrays in `constructions` and
`schedule`, of the byte writer `formats._run_bytes` and of the digit
gathers in `formats._run_numbers`; `RUNS_TOKEN` and `RUN_LINES` match a
whole run body, the reference of the grammar check `formats` reads off
the body's non-digit bytes.
`oracle_target_admissible` checks a polynomial target on its grid in
Fractions, the reference of the integer check in `target_from_poly`.

The per-node references (`local_count`, `max_alpha`) count one node or
window by bisecting a level; `embed`, `merge` and `materialize_composite`
build the tree of a composite set leaf by leaf.  No estimator uses them.
"""

from __future__ import annotations

import random
import re
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import log2
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from fds.dyadic import DyadicTree
from fds import schedule
from fds.schedule import (
    BranchingSchedule,
    CompositeSet,
    _kept_blocks,
    materialize,
    origin_log_counts,
    pieces,
)
from fds.constructions import TARGET_GRID, TwoPhaseParams, poly_eval, two_phase_schedule
from fds.windows import RationalScale, Workspace, _below_floor, ceil_div, region_max


# ----------------------------------------------------------------------
# per-node references


def levels(tree: DyadicTree) -> tuple[tuple[int, ...], ...]:
    """Every level of the tree, 0..depth."""
    return tuple(tree.level(m) for m in range(tree.depth + 1))


def v1_text(levels) -> str:
    """An fds-tree 1 file holding the given per-level index lists."""
    lines = ["fds-tree 1", f"depth {len(levels) - 1}"]
    lines += [f"{m}: " + " ".join(map(str, xs)) for m, xs in enumerate(levels)]
    return "\n".join(lines) + "\n"


def local_count(tree: DyadicTree, m: int, k: int, mp: int, neighbors: bool = False) -> int:
    """Level-mp nodes below the present level-m node k, the localized cover
    surrogate.

    With neighbors, nodes below k's present same-level neighbors count as
    well; the two modes bracket the count of a metric ball centered in the
    node within constant factors.
    """
    if not m < mp <= tree.depth:
        raise ValueError(f"fine level {mp} outside ({m}, {tree.depth}]")
    nodes = tree.level(m)
    i = bisect_left(nodes, k)
    if i == len(nodes) or nodes[i] != k:
        raise ValueError(f"node ({m}, {k}) not present")
    lo, hi = k, k + 1
    if neighbors:
        lo, hi = max(0, k - 1), min(1 << m, k + 2)
    # descendants of consecutive same-level nodes occupy one contiguous
    # index range; absent neighbors contribute nothing by prefix closure
    fine = tree.level(mp)
    shift = mp - m
    return bisect_left(fine, hi << shift) - bisect_left(fine, lo << shift)


def max_alpha(tree: DyadicTree, m: int, mp: int, neighbors: bool = False) -> tuple[float, int]:
    """(log2(max local_count) / (mp - m), witness node) over the present
    level-m nodes; ties to the smallest node."""
    if not 0 <= m < mp <= tree.depth:
        raise ValueError(f"need 0 <= m < mp <= {tree.depth}, got ({m}, {mp})")
    if not tree.level(m):
        raise ValueError(f"no nodes at level {m}")
    best, best_k = 0, None
    for k in tree.level(m):
        c = local_count(tree, m, k, mp, neighbors)
        if c > best:
            best, best_k = c, k
    return log2(best) / (mp - m), best_k


def assert_read_only(rep, fields) -> None:
    """Assigning or deleting each of `fields` and `_memo` raises
    AttributeError and leaves the set as it was."""
    before = {name: getattr(rep, name) for name in (*fields, "_memo")}
    for name, value in before.items():
        with pytest.raises(AttributeError):
            setattr(rep, name, value)
        with pytest.raises(AttributeError):
            delattr(rep, name)
        assert getattr(rep, name) is value


def embed(tree: DyadicTree, e: int) -> DyadicTree:
    """Scale by 2**-e and translate by 2**-e: level m index k maps to level
    m + e index 2**m + k, so the image sits in [2**-e, 2**-(e-1)) and the
    levels 0..e-1 hold the single index 0.  Needs e >= 1."""
    if e < 1:
        raise ValueError("shift must be >= 1 to stay inside [0, 1]")
    top = 1 << tree.depth
    return DyadicTree(tree.depth + e, [top + x for x in tree.leaves])


def merge(trees, include_origin: bool = False, depth: int | None = None) -> DyadicTree:
    """Per-level index union of several trees, at the largest input depth
    (or `depth` if larger).  A shorter input continues below its own depth
    along left endpoints, each leaf keeping its leftmost child.  With
    include_origin, index 0 is present at every level."""
    ts = list(trees)
    d = max([t.depth for t in ts] + [depth or 0])
    leaves = {0} if include_origin else set()
    for t in ts:
        leaves.update(x << (d - t.depth) for x in t.leaves)
    return DyadicTree(d, leaves)


def materialize_composite(cs: CompositeSet) -> DyadicTree:
    """The tree of a composite set: its components materialized, embedded
    at their shifts and merged at the composite's depth."""
    trees = [embed(materialize(s), e) for e, s in cs.components]
    return merge(trees, include_origin=cs.include_origin, depth=cs.depth)


# ----------------------------------------------------------------------
# oracles


def oracle_local_count(tree: DyadicTree, m: int, k: int, mp: int, neighbors: bool) -> int:
    """Count level-mp indices whose level-m ancestor is k (or a neighbor)."""
    want = {k}
    if neighbors:
        if k - 1 >= 0:
            want.add(k - 1)
        if k + 1 < (1 << m):
            want.add(k + 1)
    shift = mp - m
    return sum(1 for x in tree.level(mp) if (x >> shift) in want)


def oracle_window_alpha(tree: DyadicTree, m: int, mp: int, neighbors: bool = False):
    """(alpha, witness) for one window by scanning every present node."""
    best = 0
    best_k = None
    for k in tree.level(m):
        c = oracle_local_count(tree, m, k, mp, neighbors)
        if c > best:
            best, best_k = c, k
    return log2(best) / (mp - m), best_k


def oracle_tree_spectrum(
    tree: DyadicTree, theta: Fraction, lo: int, hi: int, neighbors: bool = False
) -> tuple[float, int, int, int]:
    """(value, m, m', node) over the exact-ratio windows: ties to the
    smallest m, then the smallest node."""
    p, q = theta.numerator, theta.denominator
    best = None
    for m in range(lo, hi + 1):
        mp = ceil_div(m * q, p)
        v, k = oracle_window_alpha(tree, m, mp, neighbors)
        if best is None or v > best[0]:
            best = (v, m, mp, k)
    return best


def oracle_tree_upper(
    tree: DyadicTree, theta: Fraction, lo: int, hi: int, neighbors: bool = False
) -> tuple[float, int, int, int]:
    """(value, m, m', node) over every window with m' >= ceil(m / theta):
    ties to the smallest m, then the smallest m', then the smallest node."""
    p, q = theta.numerator, theta.denominator
    best = None
    for m in range(lo, hi + 1):
        for mp in range(ceil_div(m * q, p), tree.depth + 1):
            v, k = oracle_window_alpha(tree, m, mp, neighbors)
            if best is None or v > best[0]:
                best = (v, m, mp, k)
    return best


def oracle_tree_box(tree: DyadicTree, lo: int, hi: int) -> float:
    return max(log2(len(tree.level(m))) / m for m in range(lo, hi + 1))


def oracle_schedule_spectrum(s: BranchingSchedule, theta: Fraction, lo: int, hi: int) -> float:
    p, q = theta.numerator, theta.denominator
    best = 0.0
    for m in range(lo, hi + 1):
        mp = ceil_div(m * q, p)
        v = (s.prefix(mp) - s.prefix(m)) / (mp - m)
        if v > best:
            best = v
    return best


def oracle_schedule_upper(s: BranchingSchedule, theta: Fraction, lo: int, hi: int) -> float:
    p, q = theta.numerator, theta.denominator
    best = 0.0
    for m in range(lo, hi + 1):
        sm = s.prefix(m)
        for mp in range(ceil_div(m * q, p), s.depth + 1):
            v = (s.prefix(mp) - sm) / (mp - m)
            if v > best:
                best = v
    return best


def _composite_node(rep, m: int, part: int) -> int:
    """The leftmost level-m node of a part: index 0 for a schedule and the
    origin node (part -1), 2**(m - e) for a component at shift e."""
    if part < 0 or isinstance(rep, BranchingSchedule):
        return 0
    return 1 << (m - rep.components[part][0])


def _origin_logs(rep, lo: int, hi: int):
    """(m, origin log counts) per coarse m in [lo, hi] below the last shift,
    one level at a time."""
    if isinstance(rep, BranchingSchedule) or not rep.components:
        return
    for m in range(lo, min(hi, rep.shifts[-1] - 1) + 1):
        yield m, origin_log_counts(rep, bisect_left(rep.shifts, m + 1))


def oracle_extended_prefix(cs: CompositeSet, i: int) -> np.ndarray:
    """Component i's own prefix array, sliced to the union's depth or
    concatenated with copies of its last count."""
    e, s = cs.components[i]
    span = cs.depth - e
    S = s.prefix_array()
    if span <= s.depth:
        return S[: span + 1]
    return np.concatenate([S, np.full(span - s.depth, S[-1], dtype=np.int64)])


def oracle_origin_log_counts(cs: CompositeSet, bucket: int, gaps: list | None = None) -> np.ndarray:
    """`origin_log_counts` as a full-row sum: every term is exponentiated
    and added on every level where it is present, exact zeros included.
    Each term's gaps to the level maximum are appended to `gaps` if given."""
    D = cs.depth
    stop = D + 1 if cs.include_origin else max(cs.shifts[-1] if cs.shifts else -1, 0)
    terms = [(e, oracle_extended_prefix(cs, i)[: D + 1 - e])
             for i, (e, _) in enumerate(cs.components) if i >= bucket]
    top = np.full(D + 1, -np.inf)
    for e, ex in terms:
        np.maximum(top[e:], ex, out=top[e:])
    np.maximum(top[:stop], 0.0, out=top[:stop])
    dead = np.isinf(top)
    top[dead] = 0.0
    total = np.zeros(D + 1)
    for lo, d in [(e, ex - top[e:]) for e, ex in terms] + [(0, -top[:stop])]:
        if gaps is not None:
            gaps.append(d)
        total[lo : lo + len(d)] += np.exp2(d)
    with np.errstate(divide="ignore"):
        logs = np.log2(total) + top
    logs[dead] = -np.inf
    return logs


def hull_slope_max(
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

    The independent oracle of `region_max`, which solves a whole region of
    coarse levels at once by parametric rounds, without a hull.
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


def reference_upper(rep, theta: Fraction, lo: int, hi: int) -> tuple[float, int, int]:
    """(value, m, m') of the upper spectrum at one theta over the clamped
    coarse range [lo, hi], for a schedule or a composite: one
    hull_slope_max sweep per schedule or component, ties to the smallest
    m, then the smallest m', then the origin node, then the lowest
    component."""
    scale = RationalScale(theta)
    pieces = [(0, rep.prefix_array())] if isinstance(rep, BranchingSchedule) else [
        (e, rep.extended_prefix(i)) for i, (e, _) in enumerate(rep.components)
    ]
    best = None  # (value, -m, -m', -part)
    for i, (e, S) in enumerate(pieces):
        if max(lo, e) > hi:
            continue
        queries = [(m - e, scale.fine(m) - e) for m in range(max(lo, e), hi + 1)]
        for (lm, _), (n, d, j) in zip(queries, hull_slope_max(S.tolist(), queries)):
            cand = (n / d, -(lm + e), -(j + e), -i)
            if best is None or cand > best:
                best = cand
    # the node holding the origin, as in composite_upper
    levels = np.arange(rep.depth + 1, dtype=np.float64)
    for m, logs in _origin_logs(rep, lo, hi):
        f = scale.fine(m)
        alpha = logs[f:] / (levels[f:] - m)
        k = int(np.argmax(alpha))
        cand = (float(alpha[k]), -m, -(f + k), 1)
        if best is None or cand > best:
            best = cand
    return best[0], -best[1], -best[2]


def oracle_composite_spectrum(rep, scale, lo: int, hi: int) -> tuple[float, int, int, int]:
    """`composite_spectrum` one piece at a time: per piece, every quotient
    of its coarse rows and one argmax, then one Python step per origin row;
    the best (value, -m, -m', -part) key wins, the origin node keyed 1."""
    fines = scale.fine_array(np.arange(lo, hi + 1, dtype=np.int64))
    best = None
    for part, e, S in pieces(rep):
        a = max(lo, e)
        if a > hi:
            continue
        mp = fines[a - lo :]
        alpha = (S[mp - e] - S[a - e : hi + 1 - e]) / (mp - np.arange(a, hi + 1))
        k = int(np.argmax(alpha))
        cand = (float(alpha[k]), -(a + k), -int(mp[k]), -part)
        if best is None or cand > best:
            best = cand
    for m, logs in _origin_logs(rep, lo, hi):
        mp = int(fines[m - lo])
        cand = (float(logs[mp]) / (mp - m), -m, -mp, 1)
        if best is None or cand > best:
            best = cand
    value, m, mp, part = best[0], -best[1], -best[2], -best[3]
    return value, m, mp, _composite_node(rep, m, part)


def assert_skipped_blocks_lose(rep, scale, lo: int, hi: int, found) -> bool:
    """Every window of every block that `schedule._kept_blocks` skips on
    [lo, hi] has a key strictly below that of `found`, the kernel's
    (value, m, m', node): each piece's windows are divided out in full
    and compared key by key, (value, -m, -m', -part) with the origin node
    keyed 1.  Returns False where the kernel folds every level: fewer
    than two pieces present, a range below `schedule.SKIP_LEVELS`, or
    samples that do not fit a workspace row."""
    parts = [p for p in pieces(rep) if p[1] <= hi]
    if len(parts) < 2 or hi + 1 - lo < schedule.SKIP_LEVELS:
        return False
    kept = _kept_blocks(parts, scale, lo, hi, rep.depth, Workspace(rep.depth))
    if kept is None:
        return False
    value, m, mp, node = found
    # a component's node is 2**(m - e); node 0 is the origin's
    part = -1 if node == 0 else rep.shifts.index(m - node.bit_length() + 1)
    best = (value, -m, -mp, 1 if part < 0 else -part)
    B = schedule.FLOOR_BLOCK
    levels = np.arange(lo, hi + 1)
    fines = scale.fine_array(levels)
    for r, (i, e, S) in enumerate(parts):
        live = (levels >= e) & ~np.repeat(kept[r], B)[: levels.size]
        ms, mps = levels[live], fines[live]
        alpha = (S[mps - e] - S[ms - e]) / (mps - ms)
        near = alpha >= value  # the others lose on their value alone
        for v, a, b in zip(alpha[near].tolist(), ms[near].tolist(), mps[near].tolist()):
            assert (v, -a, -b, -i) < best, (i, a, b, v, found[:3])
    return True


def oracle_composite_upper(rep, scale, lo: int, hi: int) -> tuple[float, int, int, int]:
    """`composite_upper` one piece at a time: a `region_max` solve per piece
    with no floor, then one Python step per origin row over its whole
    suffix of fine levels, with `oracle_composite_spectrum`'s keys."""
    fines = scale.fine_array(np.arange(lo, hi + 1, dtype=np.int64))
    best = None
    for part, e, S in pieces(rep):
        a = max(lo, e)
        if a > hi:
            continue
        v, lm, j = region_max(S, a - e, fines[a - lo :] - e)
        cand = (v, -(lm + e), -(j + e), -part)
        if best is None or cand > best:
            best = cand
    levels = np.arange(rep.depth + 1)
    for m, logs in _origin_logs(rep, lo, hi):
        f = int(fines[m - lo])
        alpha = logs[f:] / (levels[f:] - m)
        k = int(np.argmax(alpha))
        cand = (float(alpha[k]), -m, -(f + k), 1)
        if best is None or cand > best:
            best = cand
    value, m, mp, part = best[0], -best[1], -best[2], -best[3]
    return value, m, mp, _composite_node(rep, m, part)


@st.composite
def staircase_regions(draw, min_depth=8, max_depth=400):
    """(S, a, lo): the lattice staircase floor(g) of a strictly convex or
    concave curve g with slopes in [0, 1] over min_depth..max_depth
    levels, so S has many upper-hull vertices and the parametric solve its
    most rounds, and a ratio-rule region in a piece's local levels:
    lo[m - a] = ceil((m + e) / theta) - e."""
    n = draw(st.integers(min_value=min_depth, max_value=max_depth))
    v = draw(st.integers(min_value=1, max_value=64))
    u = draw(st.integers(min_value=1, max_value=v))  # curvature u / v
    w = draw(st.integers(min_value=0, max_value=v - u))  # linear slope w / v
    i = np.arange(n + 1, dtype=np.int64)
    bend = i * i if draw(st.booleans()) else 2 * n * i - i * i  # convex, concave
    S = (u * bend + 2 * n * w * i) // (2 * n * v)
    q = draw(st.integers(min_value=2, max_value=12))
    scale = RationalScale(Fraction(draw(st.integers(min_value=1, max_value=q - 1)), q))
    e = draw(st.integers(min_value=0, max_value=n // 4))
    top = scale.max_coarse(n + e)  # last global coarse level with fine(m) - e <= n
    assume(top >= max(e, 1))
    m0 = draw(st.integers(min_value=max(e, 1), max_value=top))
    m1 = draw(st.integers(min_value=m0, max_value=top))
    lo = scale.fine_array(np.arange(m0, m1 + 1, dtype=np.int64)) - e
    return S, m0 - e, lo


def oracle_fan_max(S, m, lo) -> tuple[float, int, int]:
    """(value, m, j*) of the best of one query per coarse level:
    `hull_slope_max` on every (m, lo) pair, then the first argmax, so
    ties go to the first query (the smallest m when m is ascending)."""
    queries = [(int(x), int(y)) for x, y in zip(m, lo)]
    answers = hull_slope_max([int(x) for x in S], queries)
    alpha = [n / d for n, d, _ in answers]
    k = alpha.index(max(alpha))
    return alpha[k], queries[k][0], answers[k][2]


def assert_region_floors(S, a, lo, k: int = 2) -> tuple[float, int, int]:
    """region_max of the region (a, lo) equals `oracle_fan_max`; a floor
    strictly above its maximum p/q gives None, and a floor equal to it, in
    lowest terms or scaled by k, or below it gives the same tuple.  Returns
    that tuple."""
    want = region_max(S, a, lo)
    assert want == oracle_fan_max(S, range(a, a + len(lo)), lo), (a, list(lo))
    _, m, j = want
    p, q = int(S[j] - S[m]), j - m
    for above in ((p * k + 1, q * k), (p + 1, q)):
        assert region_max(S, a, lo, floor=above) is None, (above, want)
    below = [(0, 1), (p * k - 1, q * k)] if p else [(0, 1)]
    for floor in [(p, q), (p * k, q * k), *below]:
        assert region_max(S, a, lo, floor=floor) == want, (floor, want)
    return want


def assert_floor_certificate(S, a, lo, floors=()) -> Fraction:
    """`region_max`'s block certificate, `windows._below_floor`, against
    `oracle_fan_max`: it never certifies the region's maximum p/q itself,
    in lowest terms or scaled, nor a floor below it; each of `floors` and
    of p/q * (1 + 2**-k), k = 0..10, that it certifies lies strictly above
    p/q; and `assert_region_floors` holds.  Returns p/q."""
    S, lo = np.asarray(S, dtype=np.int64), np.asarray(lo, dtype=np.int64)
    _, m, j = oracle_fan_max(S, range(a, a + lo.size), lo)
    p, q = int(S[j] - S[m]), j - m
    top = Fraction(p, q)
    for k in (1, 2, 7):
        assert not _below_floor(S, a, lo, p * k, q * k), (k, top)
    below = [top * (1 - Fraction(1, 1 << k)) for k in range(11)]
    above = [top * (1 + Fraction(1, 1 << k)) + Fraction(1, q << k) for k in range(11)]
    for floor in [*below, *above, *map(Fraction, floors)]:
        if _below_floor(S, a, lo, floor.numerator, floor.denominator):
            assert top < floor, (floor, top)
    assert_region_floors(S, a, lo)
    return top


def ratio_fan_max(rep, theta: Fraction, lo: int, hi: int, neighbors: bool = False) -> float:
    """Max exponent over all windows with ratio m/m' <= theta and coarse
    level m in the clamped range [lo, hi], enumerated per theta, coarse
    level first and piece by piece: the brute side of the upper identity
    one theta at a time."""
    scale = RationalScale(theta)
    depth = rep.depth
    best = -np.inf
    idx = np.arange(depth + 1, dtype=np.int64)
    if isinstance(rep, DyadicTree):
        runs = rep.neighbor_table() if neighbors else rep.run_table()
        for m in range(lo, hi + 1):
            j0 = scale.fine(m)
            logs = runs.logs(depth - idx[j0:], depth - m)
            best = max(best, float((logs / (idx[j0:] - m)).max()))
        return best
    for _, e, S in pieces(rep):
        for m in range(max(lo, e), hi + 1):
            j0 = scale.fine(m)
            best = max(best, float(((S[j0 - e :] - S[m - e]) / (idx[j0:] - m)).max()))
    for m, logs in _origin_logs(rep, lo, hi):
        j0 = scale.fine(m)
        best = max(best, float((logs[j0:] / (idx[j0:] - m)).max()))
    return best


def oracle_kept_pieces(parts, depth: int, lo: int, starts) -> list[list[bool]]:
    """The brute side's kept-piece mask by the greedy visit on whole rows:
    per coarse level m = lo + i, the present pieces (shift e <= m) go in
    order of their widest-window numerator S[depth - e] - S[m - e], largest
    first, ties to the lower index, and a piece is kept unless a piece
    already kept is at least as large at every fine level starts[i], ...,
    depth.  The reference of `spectra._kept_pieces`' one-rule mask."""
    out = []
    for i, f in enumerate(starts):
        m = lo + i
        rows = {q: [int(S[j - e] - S[m - e]) for j in range(f, depth + 1)]
                for q, (e, S) in enumerate(parts) if e <= m}
        kept = []
        for q in sorted(rows, key=lambda q: -rows[q][-1]):
            if not any(all(a >= b for a, b in zip(rows[p], rows[q])) for p in kept):
                kept.append(q)
        out.append([q in kept for q in range(len(parts))])
    return out


def oracle_log2_lut(table) -> np.ndarray:
    """The lookup a tree table keeps from a count to its math.log2 (-inf
    at 0): every count up to the largest, or only the counts it holds when
    it holds fewer entries than that (found by np.unique)."""
    lut = np.full(int(table.max()) + 1, -np.inf)
    held = np.unique(table) if table.size < lut.size else np.arange(lut.size)
    lut[held] = [log2(c) if c else -np.inf for c in held.tolist()]
    return lut


def oracle_dominance(gaps) -> tuple[np.ndarray, np.ndarray]:
    """Per gap, by scanning outward from it: the nearest strictly greater
    gap on the left (-1 if none) and the nearest greater-or-equal gap on
    the right (len(gaps) if none)."""
    g = [int(x) for x in gaps]
    n = len(g)
    left = [next((j for j in range(i - 1, -1, -1) if g[j] > v), -1) for i, v in enumerate(g)]
    right = [next((j for j in range(i + 1, n) if g[j] >= v), n) for i, v in enumerate(g)]
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


def oracle_run_table(gaps, leaves: int):
    """(u, base, table) of `RunTable(gaps, leaves)`, one Python
    iteration per distinct gap value u[b]: filter the gaps >= u[b], rank
    them, count the alive gaps inside every dominance interval, and keep
    the running maximum at the last gap of each value >= u[b]."""
    g = np.asarray(gaps, dtype=np.int64)
    left, right = oracle_dominance(g)
    order = np.argsort(g, kind="stable")
    u, first = np.unique(g[order], return_index=True)
    ends = np.append(first[1:], g.size) - 1
    left, right = left[order] + 1, right[order] + 1
    alive = np.arange(g.size)
    rk = np.full(g.size + 2, -1)
    blocks = []
    for b, (f, v) in enumerate(zip(first.tolist(), u.tolist())):
        alive = alive[g[alive] >= v]
        rk[alive + 1] = np.arange(alive.size)
        rk[-1] = alive.size
        inside = rk[right[f:]] - rk[left[f:]] - 1
        blocks.append(np.maximum.accumulate(inside)[ends[b:] - f])
    k = u.size
    sizes = k - np.arange(k + 1)
    base = np.concatenate(([0], np.cumsum(sizes[:-1]))) - np.arange(k + 1)
    table = np.concatenate(([min(leaves, 1)], *(1 + x for x in blocks))).astype(np.int32)
    return u, base, table


def run_count(runs, s: int, d: int) -> int:
    """The most level-s nodes below one node d levels up, read off a
    `RunTable` at its position for that window."""
    return int(runs.table[runs._pos(s, s + d)])


def random_schedule(rng: random.Random, max_depth: int = 18) -> BranchingSchedule:
    depth = rng.randint(2, max_depth)
    bias = rng.uniform(0.2, 0.8)
    cs = [2 if rng.random() < bias else 1 for _ in range(depth)]
    return BranchingSchedule([(1, c) for c in cs])


# ----------------------------------------------------------------------
# schedule oracles: one level or one run at a time


def oracle_two_phase_levels(p: TwoPhaseParams) -> list[int]:
    """Child counts c_1..c_depth of the two-phase schedule, level by level."""
    q = p.quiet_fraction
    cs = [1] * p.m0
    M = p.m0
    for _ in range(p.blocks):
        nxt = M * M
        L = nxt - M
        quiet = (q.numerator * L) // q.denominator
        active = L - quiet
        cs.extend([1] * quiet)
        tn, td = p.t.numerator, p.t.denominator
        prev = 0
        for a in range(1, active + 1):
            cur = (tn * a) // td
            cs.append(2 if cur > prev else 1)
            prev = cur
        M = nxt
    return cs


def oracle_runs(levels: list[int]) -> list[tuple[int, int]]:
    """Run-length encoding of per-level child counts, level by level."""
    runs: list[tuple[int, int]] = []
    for c in levels:
        if runs and runs[-1][1] == c:
            runs[-1] = (runs[-1][0] + 1, c)
        else:
            runs.append((1, c))
    return runs


def oracle_prefix(levels: list[int]) -> list[int]:
    """S[0..depth]: branching levels among 1..m, level by level."""
    out = [0]
    for c in levels:
        out.append(out[-1] + (c == 2))
    return out


def oracle_write_schedule(s: BranchingSchedule) -> str:
    lines = ["fds-schedule 1", f"depth {s.depth}"]
    lines.extend(f"{cnt} {c}" for cnt, c in s.runs)
    return "\n".join(lines) + "\n"


def oracle_write_composite(cs: CompositeSet) -> str:
    lines = ["fds-composite 1", f"origin {int(cs.include_origin)}"]
    lines.extend(
        f"component {e} runs:" + ",".join(f"{cnt}x{c}" for cnt, c in s.runs)
        for e, s in cs.components
    )
    return "\n".join(lines) + "\n"


# the run-body grammar of `formats` as full-body regexes: "<length>x<count>"
# tokens joined by "," (at least one) and "<length> <count>" run lines
# joined by "\n" (possibly none), ASCII digits only
RUNS_TOKEN = re.compile(r"[0-9]+x[0-9]+(?:,[0-9]+x[0-9]+)*")
RUN_LINES = re.compile(r"(?:[0-9]+ [0-9]+(?:\n[0-9]+ [0-9]+)*)?")


def oracle_parse_runs(body: str, sep: str, run_sep: str) -> list[tuple[int, int]]:
    """(length, count) per run of a well-formed run body, one run at a time:
    runs joined by `run_sep`, length and count joined by `sep`."""
    runs = []
    for part in body.split(run_sep):
        cnt, _, c = part.partition(sep)
        runs.append((int(cnt), int(c)))
    return runs


# ----------------------------------------------------------------------
# target admissibility in exact rationals, one grid point at a time


def oracle_target_admissible(coeffs) -> None:
    """The admissibility check of `target_from_poly` in Fractions: f(0) in
    (0, 1], then range, monotone, concave and growth cap on the grid
    k / TARGET_GRID, raising the same ValueError messages."""
    cs = [Fraction(c) for c in coeffs]
    f0 = poly_eval(cs, Fraction(0))
    if not 0 < f0 <= 1:
        raise ValueError(f"target f(0) must lie in (0, 1], got {f0}")
    vals = [poly_eval(cs, Fraction(k, TARGET_GRID)) for k in range(TARGET_GRID + 1)]
    if any(not 0 < v <= 1 for v in vals[1:]):
        raise ValueError("target leaves (0, 1] on [0, 1]")
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if any(d < 0 for d in diffs):
        raise ValueError("target is not non-decreasing on [0, 1]")
    if any(b > a for a, b in zip(diffs, diffs[1:])):
        raise ValueError("target is not concave on [0, 1]")
    if any(v > f0 * (1 + Fraction(k, TARGET_GRID)) for k, v in enumerate(vals)):
        raise ValueError("target exceeds the growth cap f(0) * (1 + theta)")


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while fn runs (numpy reports its arrays)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# fixtures (module-expensive sets built once per session)


@pytest.fixture(scope="session")
def twophase_48():
    return two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 3))
