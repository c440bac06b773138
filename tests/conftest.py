"""Shared fixtures, slow-but-independent oracles and per-node references.

The oracles recompute counts and window maxima by direct enumeration,
avoiding the library's range-count tables, region solver and numpy paths,
so estimator tests compare two genuinely different routes.
`reference_upper` is the exception: it replays the upper-spectrum
maximization per theta on the reference sweep `suffix_slope_max`, so the
estimators' parametric region solve is checked against a hull sweep.
`oracle_fan_max` sends one `suffix_slope_max` query per coarse level and
takes the argmax, the batch that one `region_max` call replaces.
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

import numpy as np
import pytest

from fds.dyadic import DyadicTree
from fds.schedule import (
    BranchingSchedule,
    CompositeSet,
    materialize,
    origin_log_counts,
    origin_rows,
    pieces,
)
from fds.constructions import TARGET_GRID, TwoPhaseParams, poly_eval, two_phase_schedule
from fds.windows import RationalScale, ceil_div, suffix_slope_max


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


def reference_upper(rep, theta: Fraction, lo: int, hi: int) -> tuple[float, int, int]:
    """(value, m, m') of the upper spectrum at one theta over the clamped
    coarse range [lo, hi], for a schedule or a composite: one
    suffix_slope_max sweep per schedule or component, ties to the smallest
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
        for (lm, _), (n, d, j) in zip(queries, suffix_slope_max(S.tolist(), queries)):
            cand = (n / d, -(lm + e), -(j + e), -i)
            if best is None or cand > best:
                best = cand
    if isinstance(rep, CompositeSet) and rep.components:
        # the node holding the origin, as in composite_upper
        levels = np.arange(rep.depth + 1, dtype=np.float64)
        for m in range(lo, min(hi, rep.shifts[-1] - 1) + 1):
            logs = origin_log_counts(rep, bisect_left(rep.shifts, m + 1))
            f = scale.fine(m)
            alpha = logs[f:] / (levels[f:] - m)
            k = int(np.argmax(alpha))
            cand = (float(alpha[k]), -m, -(f + k), 1)
            if best is None or cand > best:
                best = cand
    return best[0], -best[1], -best[2]


def oracle_fan_max(S, m, lo) -> tuple[float, int, int]:
    """(value, m, j*) of the best of one query per coarse level:
    `suffix_slope_max` on every (m, lo) pair, then the first argmax, so
    ties go to the first query (the smallest m when m is ascending)."""
    queries = [(int(x), int(y)) for x, y in zip(m, lo)]
    answers = suffix_slope_max([int(x) for x in S], queries)
    alpha = [n / d for n, d, _ in answers]
    k = alpha.index(max(alpha))
    return alpha[k], queries[k][0], answers[k][2]


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
        rows = runs.rank(depth - idx)
        for m in range(lo, hi + 1):
            j0 = scale.fine(m)
            logs = runs.logs[runs.at(rows[j0:], runs.rank(depth - m))]
            best = max(best, float((logs / (idx[j0:] - m)).max()))
        return best
    for _, e, S in pieces(rep):
        for m in range(max(lo, e), hi + 1):
            j0 = scale.fine(m)
            best = max(best, float(((S[j0 - e :] - S[m - e]) / (idx[j0:] - m)).max()))
    for m, logs in origin_rows(rep, lo, hi):
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
    """(u, base, table, logs) of `RunTable(gaps, leaves)`, one Python
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
    table = np.concatenate(([min(leaves, 1)], *(1 + x for x in blocks)))
    with np.errstate(divide="ignore"):
        logs = np.log2(table.astype(np.float64))
    return u, base, table, logs


def run_count(runs, s: int, d: int) -> int:
    """The most level-s nodes below one node d levels up, read off a
    `RunTable` through its rank and position lookups."""
    return int(runs.table[runs.at(runs.rank(s), runs.rank(s + d))])


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
