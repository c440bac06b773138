"""Dimension estimators and identity verifiers.

Every estimate is a maximum of window exponents over a finite fan of
scale pairs, reported together with the level range and the witness
window that achieved it.  The true dimensions are limits over R -> 0; the
range is exposed in every result so convergence can be studied by
widening it.  `_norm_range` is the one default-range policy, shared by
the library and the CLI: without an explicit range, m_hi = depth and
m_lo = max(1, min(floor(depth / 4), max m with ceil(m / theta_min) <= depth))
over the thetas the call evaluates (none for the box estimate, the
1 - eps ladder for quasi-Assouad).  For each theta the coarse range is
then clamped to [m_lo, min(m_hi, max m with ceil(m/theta) <= depth)] and
an empty clamp is a domain error.

Schedules and composites are read by the kernels of `schedule` on their
prefix counts.  The dispatch of each estimator call (`_dispatch`) lends
those kernels one `Workspace` when it solves something, so no theta and
no solve round allocates a depth-sized array.  Every
verifier but `verify_nthroot` reaches its estimates through the public
estimators, so it checks the functions the CLI calls; `verify_nthroot`
calls `_dispatch` itself, since no public estimator takes a root order.

Each set keeps the windows already solved on it in one memo entry,
"solved", that only this dispatch reads or writes, so the estimates a
session repeats on one object, and those its verifiers repeat, solve each
(mode, theta, coarse level) once.  The key is the mode (spectrum or
upper), the scale's p, q and root order n, the clamped top and the
neighbor mode; it maps each solved start lo to (value, m, m', node), a
tree's witness node included.  A query whose start is stored is served
whole.  Otherwise, when a stored start s lies above lo (every start of a
key is at most its top), the smallest such s is taken and only lo..s - 1
is solved: the windows of a coarse level do not depend on the range, so
the maximum over lo..top is the larger of the two results, and the lower
range wins a tie because every kernel breaks ties toward the smallest
m.  Otherwise lo..top is solved.  Every answer is stored under lo, up to
SOLVED_CAP results per set; past the cap answers are returned but not
kept.  The brute side of the main theorem (`_ratio_fan_maxima`) never
reads the store, and the box estimate, one division per level, is not
kept.

Trees are read through tables cached on the tree: the all-levels run
table, or with neighbor mode on (a node counted with its present
same-level neighbors) the neighbor count table, built once per tree, so
neither mode loops over the nodes of a level per window.  Only the
witness node of a solved window is counted from the gaps, once per
distinct window of a call.

The two sides of the main theorem read the windows in two different
orders:

- The upper estimate goes by fine level.  On a tree it gathers blocks of
  table entries for the whole grid at once: window (m, m') is admitted at
  theta iff m <= max_coarse(m'), so at each fine level the coarse levels
  live at theta are a prefix of the range, and one running maximum over
  them gives every theta its row maxima.  On a schedule or composite
  each piece's windows are one region, solved by `region_max` over every
  level, with the best exact value of the pieces before as its floor.
  Each origin bucket is one pass: at a fine level only the bucket's last
  row live there can win.  The fixed-ratio spectrum reads one window per
  coarse level m, and every piece present there has its width m' - m, so
  it keeps one running maximum of the pieces' integer numerators per
  level and divides once.
- The brute side goes by coarse level, for all thetas at once: every
  window (m, m') is the exact-ratio window of theta' = m / m', so a
  theta's value at row m is the maximum from its own fine level on, read
  as a suffix maximum from the fine levels of the thetas live at m.  One
  kernel, `_fan_kernel`, reads the rows it is given in full: at those fan
  starts and at the candidate columns after them.

  | input                      | rows in full            | columns                    |
  |----------------------------|-------------------------|----------------------------|
  | schedule, composite piece  | tops and sinks          | concave corners, depth     |
  | composite origin bucket    | its own                 | every level                |
  | tree, either neighbor mode | every row               | depth + 1 - u per gap u    |

  A schedule is the one piece at shift 0, and a piece's rows are those
  `_kept_pieces` keeps for it (a lone piece: every row where it is
  present).  The row rule: apart from each theta's clamped top, a piece's
  row is dropped where its own level branches and the row before is kept,
  else shortened where its next level is frozen and the next row is kept,
  else read in full as a sink.  On a schedule the sinks
  are the rows whose own level is frozen (or that are the first) and
  whose next level branches.  A shortened row reads its fan start and
  its corners below the next row's fan start.

  On a piece the numerator N(j) = S[j - e] - S[m - e] rises by 0 or 1 per
  level, so N <= j - m:
  along a branching stretch N and the width j - m both grow by one, so
  N / (j - m) does not decrease; along a frozen stretch N is fixed, so it
  does not increase.  The maximum from a fan start f on is therefore at
  f or at a concave corner after it, the last level of a branching run
  or the depth.  Rows m and m + 1 of a piece, both live at a theta, meet
  at every column j >= fine(m + 1) with N and w = j - m for row m:
  - if level m + 1 is frozen, row m + 1 reads N / (w - 1) >= N / w, so
    row m is shortened to its fan start and its corners below
    fine(m + 1).  A branching run that crosses fine(m + 1) ends at a
    corner that row m + 1 reads, and row m rises along it;
  - if level m + 1 branches, row m + 1 reads (N - 1) / (w - 1) <= N / w,
    so row m + 1 is dropped: row m reads those columns from its own fan
    start on.
  A row is shortened or dropped only toward a neighbour row kept for the
  same piece and never at a top, so every chain of dominance ends at a
  row read in full.  A tree count, with or without the neighbors, sees
  the fine level j only through the gaps wider than depth - j, so along
  a row it is fixed and >= 1 from one level depth + 1 - u of a gap value
  u to the next while the width grows: the maximum from f on is at f or
  at one of those levels after it.  Origin counts have no such stretches,
  so every level is a column.  Correctly rounded division is
  monotone, so each float maximum is bit for bit that over every window.
  At a window (m, j) every piece and the origin share the width, so the
  max of their quotients is the quotient of their largest numerator, and
  a composite's maximum is the max of its pieces' and buckets' maxima.
  A piece that a kept piece dominates pointwise over a whole row (exact
  integer tests, the greedy visit in leader rounds of `_kept_pieces`) is
  left out of that row, which cannot change it.

Both sides divide the same integer counts (or table entries) by the same
widths, so they meet the same floats, and a maximum is exact whatever
the order; the check still compares two independent reductions.  The
brute side reads prefix counts and tables only, never `region_max`: its
candidate rule is a fact about the counts, with no slope, no parameter
and no round of its own, while the upper side solves each piece over
every level and reads each origin bucket at every level.  A window that
either side drops or admits by mistake shows as a nonzero deviation.

Exactness contract: within one set representation all estimators read the
same exponent values (prefix differences, tree counts by `log2_counts`,
composite origin rows by numpy's log2), so the structural identities -
spectrum <= upper, upper non-decreasing in theta, and the upper/ratio-fan
identity - hold with zero tolerance; closed-form checks carry a tolerance.

One report rule serves every verifier (`_report`): a check is a list of
rows (deviation, own tolerance, witness), the own tolerance being `tol`
for a tolerance link and 0.0 for an exact one; `worst` is the largest
deviation before any tolerance, and the check passes iff every deviation
is at most its own tolerance.  A NaN `tol` is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Sequence

import numpy as np

from .dyadic import DyadicTree
from .schedule import (
    BranchingSchedule,
    CompositeSet,
    check_depth,
    composite_spectrum,
    composite_upper,
    origin_log_counts,
    origin_buckets,
    pieces,
)
from .windows import RationalScale, RootScale, Workspace, log2_counts, root_order

__all__ = [
    "SpectrumEstimate",
    "BoxEstimate",
    "QuasiAssouadEstimate",
    "VerificationReport",
    "estimate_spectrum",
    "estimate_upper",
    "estimate_box",
    "estimate_quasi_assouad",
    "verify_main_theorem",
    "verify_bound",
    "verify_chain",
    "verify_nthroot",
    "estimate_to_csv",
    "report_to_text",
]

SPECTRUM = "assouad-spectrum"
UPPER = "upper-spectrum"
# table entries one block of the tree upper kernel gathers at once
UPPER_BLOCK = 1 << 16
# entries one block of the brute side holds: a chunk's fine levels per
# theta, a block's candidate cells
FAN_PAIR_BLOCK = 1 << 16
# results one set's store of solved windows keeps, over all its keys
SOLVED_CAP = 1 << 12


@dataclass
class SpectrumEstimate:
    mode: str
    thetas: list[Fraction]
    values: list[float]
    m_range: tuple[int, int]
    witnesses: list[tuple[int, int, int]]  # (m, m_prime, node_index)


@dataclass
class BoxEstimate:
    value: float
    m_witness: int
    m_range: tuple[int, int]


@dataclass
class QuasiAssouadEstimate:
    epsilons: list[Fraction]
    values: list[float]
    witnesses: list[tuple[int, int, int]]
    headline: float
    m_range: tuple[int, int]
    trend: str


@dataclass
class VerificationReport:
    name: str
    passed: bool
    worst: float
    tol: float
    witnesses: list[str] = field(default_factory=list)


def _depth(rep, neighbors: bool = False) -> int:
    """Depth of a supported, non-empty set within the depth budget, checked
    before any per-level allocation; neighbor mode exists for trees only."""
    if not isinstance(rep, (DyadicTree, BranchingSchedule, CompositeSet)):
        raise TypeError(f"unsupported set representation {type(rep).__name__}")
    if neighbors and not isinstance(rep, DyadicTree):
        raise ValueError(
            f"neighbor mode applies to trees only, not to {type(rep).__name__}"
        )
    check_depth(rep.depth)
    if isinstance(rep, DyadicTree) and rep.is_empty():
        raise ValueError("cannot estimate dimensions of an empty tree")
    return rep.depth


def _norm_range(
    depth: int, m_range: tuple[int, int] | None, thetas: Sequence[Fraction] = ()
) -> tuple[int, int]:
    """The coarse range [m_lo, m_hi]: an explicit range is validated; the
    default starts at a quarter of the depth, lowered so the smallest theta
    still has an admissible window, and ends at the depth."""
    if m_range is None:
        lo = depth // 4
        if thetas:
            lo = min(lo, RationalScale(min(thetas)).max_coarse(depth))
        lo, hi = max(1, lo), depth
    else:
        lo, hi = int(m_range[0]), int(m_range[1])
    if not 1 <= lo <= hi <= depth:
        raise ValueError(f"coarse range [{lo}, {hi}] invalid for depth {depth}")
    return lo, hi


def _clamp(depth: int, scale, lo: int, hi: int) -> int:
    """The clamped coarse top min(hi, max_coarse(depth)), at least lo."""
    top = min(hi, scale.max_coarse(depth))
    if top < lo:
        raise ValueError(
            f"no admissible window: coarse level {lo} needs fine level "
            f"{scale.fine(lo)} beyond depth {depth}"
        )
    return top


def _grid(thetas: Sequence) -> list[Fraction]:
    out = sorted({Fraction(t) for t in thetas})
    if not out:
        raise ValueError("empty theta grid")
    if out[0] <= 0 or out[-1] >= 1:
        raise ValueError("theta grid must lie strictly inside (0, 1)")
    return out


def _resolve(rep, theta_grid: Sequence, m_range, neighbors: bool):
    """(depth, grid, lo, hi, his): the grid first, then the range it needs,
    then each theta's clamped coarse top (rising with theta)."""
    depth = _depth(rep, neighbors)
    grid = _grid(theta_grid)
    lo, hi = _norm_range(depth, m_range, grid)
    his = [_clamp(depth, RationalScale(th), lo, hi) for th in grid]
    return depth, grid, lo, hi, his


# ----------------------------------------------------------------------
# tree cores (both modes read a table cached on the tree through its `logs`:
# the all-levels run table with neighbor mode off, the neighbor table with
# it on; the window (m, mp) is fine level depth - mp below coarse level
# depth - m, counted up from the leaves)


def _tree_table(tree: DyadicTree, neighbors: bool):
    return tree.neighbor_table() if neighbors else tree.run_table()


def _tree_witness_node(tree: DyadicTree, m: int, mp: int, neighbors: bool) -> int:
    """Leftmost level-m node holding the most level-mp nodes (with those of
    its present neighbors whose cells touch it in neighbor mode)."""
    s = tree.depth - m
    # the gaps that split the leaves into level-m and into level-mp nodes;
    # each level-m split is a level-mp split, so level-m node k holds one
    # level-mp node per level-mp split from level-m split k - 1 (from the
    # first leaf for k = 0) to just before split k
    cuts = np.flatnonzero(tree.gaps > s)
    fine = np.flatnonzero(tree.gaps > tree.depth - mp)
    counts = np.diff(np.concatenate(([-1], np.searchsorted(fine, cuts), [fine.size])))
    if neighbors:
        near = tree.neighbor_table().adjacent[cuts] <= s
        left = counts[:-1] * near
        counts[:-1] += counts[1:] * near
        counts[1:] += left
    k = int(np.argmax(counts))
    return tree.leaves[int(cuts[k - 1]) + 1 if k else 0] >> s


def _tree_spectrum(tree, scale, lo, hi, neighbors) -> tuple[float, int, int]:
    marr = np.arange(lo, hi + 1, dtype=np.int64)
    mps = scale.fine_array(marr)
    vals = _tree_table(tree, neighbors).logs(tree.depth - mps, tree.depth - marr) / (mps - marr)
    k = int(np.argmax(vals))
    return float(vals[k]), int(marr[k]), int(mps[k])


def _tree_uppers(tree, scales, lo, his, neighbors) -> list[tuple[float, int, int]]:
    """Per scale of an ascending theta grid, (value, m, m') over every
    window (m, m') with lo <= m <= his[k] and m' >= ceil(m / theta): ties to
    the smallest m, then the smallest m'.  The tops his[k] need not rise
    with theta.

    Fine levels go in blocks of at most UPPER_BLOCK table entries.  At each
    fine level the coarse levels live at theta are a prefix of lo, ...,
    his[k], so one gather and one running maximum over the coarse levels
    serve every theta: each row's prefix maximum at its live count."""
    depth = tree.depth
    runs = _tree_table(tree, neighbors)
    ms = np.arange(lo, max(his) + 1)
    # coarse level m is live at theta from its fine level on
    fines = [scale.fine_array(ms[: hi - lo + 1]) for scale, hi in zip(scales, his)]
    step = max(1, UPPER_BLOCK // ms.size)
    best = [None] * len(scales)
    for a in range(min(int(f[0]) for f in fines), depth + 1, step):
        mps = np.arange(a, min(a + step, depth + 1))
        live = np.stack([np.searchsorted(f, mps, side="right") for f in fines])
        n = int(live.max())
        vals = runs.logs(depth - mps[:, None], depth - ms[None, :n])
        widths = mps[:, None] - ms[None, :n]
        # a width below one belongs to a window no theta admits
        np.divide(vals, np.maximum(widths, 1, out=widths), out=vals)
        prefix = np.maximum.accumulate(vals, axis=1, out=vals)
        tops = np.where(live > 0, prefix[np.arange(mps.size), live - 1], -np.inf)
        for k, row in enumerate(tops):
            if not live[k, -1]:
                continue
            v = row.max()
            if best[k] is not None and v < best[k][0]:
                continue
            hit = np.flatnonzero(row == v)
            # the first coarse level reaching v per hit row, then the
            # first hit row (smallest m') at the smallest of those
            first = np.argmax(prefix[hit] >= v, axis=1)
            j = int(np.argmin(first))
            cand = (float(v), -(lo + int(first[j])), -int(mps[hit[j]]))
            if best[k] is None or cand > best[k]:
                best[k] = cand
    return [(v, -m, -mp) for v, m, mp in best]


# ----------------------------------------------------------------------
# dispatch: every answer goes through the set's store of solved windows; a
# schedule or composite gets one workspace per call that solves something,
# made in `_solve`, after `_resolve` has checked the depth budget; trees
# read tables instead


def _solve(rep, mode, scales, lo, tops, neighbors) -> list[tuple]:
    """Per scale, (value, m, m', node) from the mode's kernels over the
    coarse levels lo..tops[k]; a tree's witness node is counted once per
    distinct window."""
    if isinstance(rep, DyadicTree):
        if mode == UPPER:
            found = _tree_uppers(rep, scales, lo, tops, neighbors)
        else:
            found = [_tree_spectrum(rep, sc, lo, hi, neighbors) for sc, hi in zip(scales, tops)]
        node = {w: _tree_witness_node(rep, *w, neighbors) for w in {(m, mp) for _, m, mp in found}}
        return [(v, m, mp, node[m, mp]) for v, m, mp in found]
    work = Workspace(rep.depth)
    kernel = composite_upper if mode == UPPER else composite_spectrum
    return [kernel(rep, sc, lo, hi, work) for sc, hi in zip(scales, tops)]


def _dispatch(rep, mode, scales, lo, his, neighbors) -> list[tuple]:
    """Per scale, (value, m, m', node) at the mode's rule (SPECTRUM: the
    fixed ratio; UPPER: every fine level from the scale's on, for an
    ascending grid) over the coarse levels lo..his[k], by the store rule
    of the module docstring: one `_solve` for every scale the set's store
    cannot serve whole."""
    store = rep._cached("solved", dict)
    keys = [(mode, sc.p, sc.q, sc.n, hi, neighbors) for sc, hi in zip(scales, his)]
    found = [None] * len(keys)
    todo = []  # (index, top of the solve, the stored result above it or None)
    for k, key in enumerate(keys):
        starts = store.get(key, {})
        found[k] = starts.get(lo)
        if found[k] is None:
            s = min((s for s in starts if s > lo), default=None)
            todo.append((k, his[k], None) if s is None else (k, s - 1, starts[s]))
    if todo:
        tops = [top for _, top, _ in todo]
        solved = _solve(rep, mode, [scales[k] for k, _, _ in todo], lo, tops, neighbors)
        room = SOLVED_CAP - sum(map(len, store.values()))
        for (k, _, above), got in zip(todo, solved):
            # on a tie the lower range's own witness, which has the smaller m
            if above is not None and above[0] > got[0]:
                got = above
            found[k] = got
            if room > 0:
                store.setdefault(keys[k], {})[lo] = got
                room -= 1
    return found


def _estimate(mode: str, rep, theta_grid, m_range, neighbors) -> SpectrumEstimate:
    """Per theta, the window maximum at the mode's rule over the clamped
    coarse range, as (value, m, m', node)."""
    _, grid, lo, hi, his = _resolve(rep, theta_grid, m_range, neighbors)
    found = _dispatch(rep, mode, [RationalScale(th) for th in grid], lo, his, neighbors)
    values = [v for v, *_ in found]
    wits = [tuple(w) for _, *w in found]
    return SpectrumEstimate(mode, grid, values, (lo, hi), wits)


def estimate_spectrum(
    rep,
    theta_grid: Sequence,
    m_range: tuple[int, int] | None = None,
    neighbors: bool = False,
) -> SpectrumEstimate:
    """Window exponent at the exact ratio rule m' = ceil(m / theta), per theta."""
    return _estimate(SPECTRUM, rep, theta_grid, m_range, neighbors)


def estimate_upper(
    rep,
    theta_grid: Sequence,
    m_range: tuple[int, int] | None = None,
    neighbors: bool = False,
) -> SpectrumEstimate:
    """Window exponent maximized over every fine level m' >= ceil(m / theta)."""
    return _estimate(UPPER, rep, theta_grid, m_range, neighbors)


def estimate_box(rep, m_range: tuple[int, int] | None = None) -> BoxEstimate:
    """max over m in range of log2(level count at m) / m."""
    depth = _depth(rep)
    lo, hi = _norm_range(depth, m_range)
    if isinstance(rep, DyadicTree):
        logs = log2_counts(rep.level_sizes(np.arange(lo, hi + 1)))
    elif isinstance(rep, BranchingSchedule):
        logs = rep.prefix_array()[lo : hi + 1]  # a schedule's log2 counts
    else:
        logs = origin_log_counts(rep, 0)[lo : hi + 1]  # level 0 holds the whole union
    vals = logs / np.arange(lo, hi + 1, dtype=np.float64)
    k = int(np.argmax(vals))
    return BoxEstimate(float(vals[k]), lo + k, (lo, hi))


def estimate_quasi_assouad(
    rep,
    epsilons: Sequence,
    m_range: tuple[int, int] | None = None,
    neighbors: bool = False,
) -> QuasiAssouadEstimate:
    """Upper-spectrum values at theta = 1 - eps for a shrinking eps ladder.

    The headline is the value at the smallest eps; the trend line reports
    the observed sequence without asserting monotonicity in eps.
    """
    eps = [Fraction(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    if any(not 0 < e < 1 for e in eps):
        raise ValueError("epsilons must lie strictly in (0, 1)")
    est = _estimate(UPPER, rep, [1 - e for e in eps], m_range, neighbors)
    order = {th: i for i, th in enumerate(est.thetas)}
    values = [est.values[order[1 - e]] for e in eps]
    wits = [est.witnesses[order[1 - e]] for e in eps]
    headline = values[min(range(len(eps)), key=lambda i: eps[i])]
    pairs = sorted(zip(eps, values), reverse=True)  # eps shrinking
    seq = [v for _, v in pairs]
    if all(a <= b for a, b in zip(seq, seq[1:])):
        kind = "non-decreasing"
    elif all(a >= b for a, b in zip(seq, seq[1:])):
        kind = "non-increasing"
    else:
        kind = "mixed"
    trend = f"{kind} as eps shrinks: " + ", ".join(
        f"eps={float(e):g}->{v!r}" for e, v in pairs
    )
    return QuasiAssouadEstimate(eps, values, wits, headline, est.m_range, trend)


# ----------------------------------------------------------------------
# ratio fan (the brute side of the upper identity).  Every window (m, m')
# is the exact-ratio window of theta' = m / m', so one pass over the widest
# fan serves every theta: per coarse level m, the exponents at the live
# thetas' fan starts and at the candidate columns after them, reduced by
# ratio into the running maximum of every theta still live at m.


def _kept_pieces(parts, depth: int, lo: int, starts: np.ndarray) -> np.ndarray:
    """(rows, pieces) bool: whether piece q's row at coarse level m = lo + i,
    over the fine levels starts[i], ..., depth, is read by the brute side.
    A piece left out of a row is dominated there pointwise by a kept one,
    so the row's largest numerator at every fine level, and every float
    made from it, is unchanged.

    This is the greedy visit: per row the present pieces go by their
    widest-window numerator S(depth - e) - S(m - e), largest first, ties to
    the lower index, and q is kept unless a piece already kept dominates
    it.  With G_q[j] = S_q[j - e_q] and c_q = S_q(m - e_q), l dominates q
    from f on iff max_{j >= f}(G_q[j] - G_l[j]) <= c_q - c_l, in integers.
    It runs in leader rounds, at most P: each row keeps its first open
    piece l and closes every open q that l dominates, read off one suffix
    maximum per (l, q) from the first such row's start.  A lone piece is
    kept on every row where it is present, after one round."""
    P, n = len(parts), starts.size
    # [i, q]: q's widest-window numerator at m = lo + i while q is open
    # there, else -1; prefix counts are at most the depth, so int32 holds it
    wide = np.empty((n, P), dtype=np.int32)
    for q, (e, S) in enumerate(parts):
        k = min(max(e - lo, 0), n)  # the rows below the shift lack q
        wide[:k, q] = -1
        wide[k:, q] = S[-1] - S[lo + k - e : lo + n - e]
    kept = np.zeros((n, P), dtype=bool)
    live = np.flatnonzero(wide.max(axis=1) >= 0)
    while live.size:
        lead = wide[live].argmax(axis=1)  # the first open piece in the order
        kept[live, lead] = True
        wide[live, lead] = -1
        for l in np.flatnonzero(np.bincount(lead)):
            el, Sl = parts[l]
            rl = live[lead == l]
            for q in np.flatnonzero((wide[rl] >= 0).any(axis=0)):
                eq, Sq = parts[q]
                r = rl[wide[rl, q] >= 0]
                f = int(starts[r[0]])
                d = Sq[f - eq : depth + 1 - eq] - Sl[f - el : depth + 1 - el]
                np.maximum.accumulate(d[::-1], out=d[::-1])
                m = lo + r
                wide[r[d[starts[r] - f] <= Sq[m - eq] - Sl[m - el]], q] = -1
        live = live[wide[live].max(axis=1) >= 0]
    return kept


def _fan_kernel(cols: np.ndarray, rows: np.ndarray, fill, scales, tops) -> np.ndarray:
    """Per scale (widest fan first), the max exponent over the windows
    (m, j) with m in rows at or below the scale's clamped top tops[t] and j
    at the scale's fine level of m or at an ascending candidate column
    after it; cols ends at the depth.  fill(i, n, js, out) writes the
    numerators of rows[i:i + n] at the levels js into out, where js is a
    suffix cols[c0:] of the columns or an (n, thetas) array of fan starts.

    Rows go in blocks of about FAN_PAIR_BLOCK cells, each filled with the
    exponents at the columns from its first row's widest fan start on.  A
    theta not live at a row (fine level past the depth) starts at the
    depth column, which every live fan holds, and the mask of tops drops
    it.  A block ends before the row that reaches its first column, so
    every width is positive.  One flat maximum.reduceat gives each fan's
    column maximum; with the fan-start values, a reversed running maximum
    along theta makes each a suffix maximum from its own start."""
    k = len(scales)
    # the widths subtract in float64: from int64 columns numpy casts through
    # a buffer, 2.5 times slower on one wide origin row
    fcols = cols.astype(np.float64)
    size = max(FAN_PAIR_BLOCK, cols.size)
    vals, widths = np.empty(size), np.empty(size)
    best = np.full(k, -np.inf)
    step = max(1, FAN_PAIR_BLOCK // k)
    for a in range(0, rows.size, step):
        ms = rows[a : a + step]
        fines = np.stack([scale.fine_array(ms) for scale in scales], axis=1)
        starts = np.minimum(fines, cols[-1])
        at = np.searchsorted(cols, starts)  # each fan's first column
        fan = np.empty(starts.shape)
        fill(a, ms.size, starts, fan)
        fan /= starts - ms[:, None]
        seg = np.empty_like(fan)
        # per row, the widest fan's first column and the rows below it
        firsts = at[:, 0].tolist()
        below = np.searchsorted(ms, cols[at[:, 0]]).tolist()
        i = 0
        while i < ms.size:
            c0 = firsts[i]
            c = cols.size - c0
            n = min(max(1, size // c), below[i] - i)
            block = vals[: n * c].reshape(n, c)
            width = widths[: n * c].reshape(n, c)
            fill(a + i, n, cols[c0:], block)
            np.subtract(fcols[c0:], ms[i : i + n, None], out=width)
            np.divide(block, width, out=block)
            # per row: its start, whose segment is dropped, then each fan's
            # first column
            idx = np.empty((n, k + 1), dtype=np.intp)
            idx[:, 0] = np.arange(0, n * c, c)
            np.subtract(at[i : i + n], c0 - idx[:, :1], out=idx[:, 1:])
            maxima = np.maximum.reduceat(block.ravel(), idx.ravel())
            seg[i : i + n] = maxima.reshape(n, k + 1)[:, 1:]
            i += n
        np.maximum(seg, fan, out=seg)
        seg = np.maximum.accumulate(seg[:, ::-1], axis=1)[:, ::-1]
        seg[ms[:, None] > tops] = -np.inf
        np.maximum(best, seg.max(axis=0), out=best)
    return best


def _piece_maxima(S: np.ndarray, e: int, rows: np.ndarray, scales, tops) -> np.ndarray:
    """Per scale (widest fan first), the max exponent of a piece with prefix
    counts S at shift e over its kept rows (ascending, in the union's
    levels), by the row rule of the module docstring.  Full rows go
    through `_fan_kernel` at the concave corners (the last level of each
    branching run, and the depth); per scale, the shortened rows live
    there, those below its top, are read in one pass."""
    rise = np.diff(S).astype(bool)  # [j - 1]: local level j branches
    # a row below the largest top ends below the depth, so its next level
    # exists
    branches = np.concatenate(([False], rise))
    own, up = branches[rows - e], branches[rows - e + 1]
    after = np.append(rows[1:] == rows[:-1] + 1, False)  # row m + 1 kept
    whole = np.isin(rows, tops)
    drop = own & np.append(False, after[:-1]) & ~whole
    short = ~up & after & ~whole & ~drop
    full, short = rows[~(drop | short)], rows[short]
    rise[:-1] &= ~rise[1:]
    rise[-1] = True
    corners = np.flatnonzero(rise) + 1
    # prefix counts stay below 2**53, so their floats and differences are
    # exact
    heads = S[corners].astype(np.float64)
    base = S[full - e].astype(np.float64)

    def fill(i, n, js, out):
        # a suffix of the columns reads the heads computed once per call
        top = heads[heads.size - js.size :] if js.ndim == 1 else S[js - e]
        np.subtract(top, base[i : i + n, None], out=out)

    cols = corners + e
    best = _fan_kernel(cols, full, fill, scales, tops)
    for t, (scale, hi) in enumerate(zip(scales, tops)):
        ms = short[: np.searchsorted(short, hi)]
        if not ms.size:
            break
        f, g = scale.fine_array(ms), scale.fine_array(ms + 1)
        c = S[ms - e]
        a, b = np.searchsorted(cols, f), np.searchsorted(cols, g)
        n = b - a
        r = np.repeat(np.arange(ms.size), n)
        j = np.arange(r.size) + np.repeat(a - (np.cumsum(n) - n), n)
        cells = (heads[j] - c[r]) / (cols[j] - ms[r])
        fan = (S[f - e] - c) / (f - ms)
        best[t] = max(best[t], fan.max(), cells.max(initial=-np.inf))
    return best


def _ratio_fan_maxima(rep, depth, grid, lo, his, neighbors) -> list[float]:
    """Per theta of the ascending grid, the max exponent over every window
    (m, m') with lo <= m <= his[k] and m' >= ceil(m / theta).  his[k],
    theta's clamped coarse top, rises with theta, so the thetas live at m
    (his >= m) are a suffix of the grid and the largest is live wherever
    any is.  A theta's value at row m is the max over its own fan start
    and everything after it, so it is a suffix maximum along the row read
    from the fan starts of the live thetas, widest first.

    This is the one place that knows the representation: it reads the
    rows and columns of the module docstring's table, once per piece and
    origin bucket of a composite, and takes the max of their maxima.  A
    tree's rows and an origin bucket's go whole to `_fan_kernel`; a tree's
    columns come from its table's gap values in either neighbor mode.
    Pieces a kept piece dominates from the widest fan's start on are left
    out of a row by the greedy visit in leader rounds (`_kept_pieces`);
    that start is at or below every live theta's, so they are dominated
    from every fan start too.  Each piece then reads its kept rows by the
    module docstring's row rule (`_piece_maxima`).  Nothing here reads the
    region solver of the upper side."""
    marr = np.arange(lo, his[-1] + 1, dtype=np.int64)
    scales = [RationalScale(th) for th in reversed(grid)]
    tops = np.array(his[::-1], dtype=np.int64)
    best = np.full(len(scales), -np.inf)
    if isinstance(rep, DyadicTree):
        runs = _tree_table(rep, neighbors)

        def fill(i, n, js, out):
            out[:] = runs.logs(depth - js, depth - marr[i : i + n, None])

        # a count changes only where a gap value u leaves the fine nodes' cut
        cols = np.append(depth + 1 - runs.u[runs.u > 1][::-1], depth)
        fans = [(cols, marr, fill)]
    else:
        fans = []
        parts = [(e, S) for _, e, S in pieces(rep)]
        kept = _kept_pieces(parts, depth, lo, scales[0].fine_array(marr))
        for q, (e, S) in enumerate(parts):
            rows = marr[kept[:, q]]
            if rows.size:
                np.maximum(best, _piece_maxima(S, e, rows, scales, tops), out=best)
        for start, stop, logs in origin_buckets(rep, lo, his[-1]):
            fans.append((np.arange(1, depth + 1), marr[start - lo : stop + 1 - lo],
                         lambda i, n, js, out, logs=logs: np.copyto(out, logs[js])))
    for cols, rows, fill in fans:
        np.maximum(best, _fan_kernel(cols, rows, fill, scales, tops), out=best)
    return best[::-1].tolist()


def _report(name: str, tol: float, rows) -> VerificationReport:
    """The report rule of the module docstring over rows (deviation, own
    tolerance, witness text); the witnesses are the rows that exceed their
    own tolerance."""
    rows = list(rows)
    worst = max((dev for dev, _, _ in rows), default=-np.inf)
    wits = [text for dev, own, text in rows if not dev <= own]
    return VerificationReport(name, not wits, float(worst), tol, wits)


def _tolerance(tol: float) -> float:
    if math.isnan(tol):
        raise ValueError("tolerance must not be NaN")
    return tol


def verify_main_theorem(
    rep,
    theta_grid: Sequence,
    m_range: tuple[int, int] | None = None,
    neighbors: bool = False,
) -> VerificationReport:
    """Upper estimate vs the max over all achievable window ratios <= theta.

    Both sides maximize over the identical finite window fan, so the
    deviation must be exactly zero.  The upper side is `estimate_upper`
    itself, on the resolved grid and range.  The brute side makes one pass
    over the widest fan, reduced by ratio for all thetas at once
    (`_ratio_fan_maxima`).  It reads the rows, pieces and candidate
    columns of the module docstring's brute side, which leave every row
    maximum bit for bit unchanged.

    The brute side never calls the region solver, which still solves over
    every level on the upper side, so the two stay independent.
    """
    depth, grid, lo, hi, his = _resolve(rep, theta_grid, m_range, neighbors)
    upper = estimate_upper(rep, grid, (lo, hi), neighbors)
    fan = _ratio_fan_maxima(rep, depth, grid, lo, his, neighbors)
    devs = [abs(lhs - rhs) for lhs, rhs in zip(upper.values, fan)]
    return _report("main-theorem", 0.0, (
        (dev, 0.0, f"theta={float(th):g} upper={lhs!r} ratio-fan={rhs!r} dev={dev!r}")
        for th, lhs, rhs, dev in zip(upper.thetas, upper.values, fan, devs)
    ))


def verify_bound(
    rep,
    theta_grid: Sequence,
    m_range: tuple[int, int] | None = None,
    tol: float = 0.05,
    neighbors: bool = False,
) -> VerificationReport:
    """spectrum(theta) <= box / (1 - theta) + tol on every grid point."""
    tol = _tolerance(tol)
    spec = estimate_spectrum(rep, theta_grid, m_range, neighbors)
    box = estimate_box(rep, spec.m_range)
    caps = [box.value / (1.0 - float(th)) for th in spec.thetas]
    return _report("bound", tol, (
        (v - cap, tol, f"theta={float(th):g} spectrum={v!r} bound={cap!r}")
        for th, v, cap in zip(spec.thetas, spec.values, caps)
    ))


def verify_chain(
    rep,
    theta_grid: Sequence,
    m_range: tuple[int, int] | None = None,
    tol: float = 0.05,
    epsilons: Sequence | None = None,
    neighbors: bool = False,
) -> VerificationReport:
    """The dimension chain at desk scale, per grid theta:

    box <= spectrum + tol, spectrum <= upper (exact), upper <= quasi-Assouad
    headline + tol, and upper non-decreasing along the grid (exact).
    Without epsilons the headline is the upper spectrum at the grid top,
    the quasi-Assouad value at eps = 1 - max(grid).
    """
    tol = _tolerance(tol)
    spec = estimate_spectrum(rep, theta_grid, m_range, neighbors)
    grid, m_range = spec.thetas, spec.m_range
    upper = estimate_upper(rep, grid, m_range, neighbors)
    box = estimate_box(rep, m_range).value
    qa = (upper.values[-1] if epsilons is None
          else estimate_quasi_assouad(rep, epsilons, m_range, neighbors).headline)

    def rows():
        for th, sv, uv in zip(grid, spec.values, upper.values):
            at = f"theta={float(th):g}: "
            yield box - sv, tol, f"{at}box {box!r} > spectrum {sv!r} + tol"
            yield sv - uv, 0.0, f"{at}spectrum {sv!r} > upper {uv!r}"
            yield uv - qa, tol, f"{at}upper {uv!r} > quasi-Assouad {qa!r} + tol"
        for (t1, u1), (t2, u2) in pairwise(zip(grid, upper.values)):
            yield u1 - u2, 0.0, (
                f"upper not monotone: theta={float(t1):g}->{u1!r}, "
                f"theta={float(t2):g}->{u2!r}"
            )

    return _report("chain", tol, rows())


def verify_nthroot(
    rep,
    theta_grid: Sequence,
    n_values: Sequence[int] = (2, 3),
    m_range: tuple[int, int] | None = None,
    tol: float = 0.05,
    neighbors: bool = False,
) -> VerificationReport:
    """spectrum(theta) <= spectrum(theta ** (1/n)) + tol for each n; at
    least one n, each in 1..MAX_ROOT_ORDER, checked before any estimate."""
    tol = _tolerance(tol)
    orders = [root_order(int(n)) for n in n_values]
    if not orders:
        raise ValueError("need at least one root order")
    spec = estimate_spectrum(rep, theta_grid, m_range, neighbors)
    lo, hi = spec.m_range
    # every (theta, n) root spectrum in one call, with one workspace
    cases = [(th, base, n) for th, base in zip(spec.thetas, spec.values) for n in orders]
    scales = [RootScale(th, n) for th, _, n in cases]
    his = [_clamp(rep.depth, sc, lo, hi) for sc in scales]
    roots = _dispatch(rep, SPECTRUM, scales, lo, his, neighbors)
    return _report("nthroot", tol, (
        (base - other, tol,
         f"theta={float(th):g} n={n}: spectrum {base!r} > root-spectrum {other!r} + tol")
        for (th, base, n), (other, *_) in zip(cases, roots)
    ))


# ----------------------------------------------------------------------
# serialization


def estimate_to_csv(est) -> str:
    """CSV per the output contract: theta,value,m_witness,mprime_witness."""
    lines = ["theta,value,m_witness,mprime_witness"]
    if isinstance(est, SpectrumEstimate):
        for th, v, (m, mp, _) in zip(est.thetas, est.values, est.witnesses):
            lines.append(f"{float(th)!r},{v!r},{m},{mp}")
    elif isinstance(est, BoxEstimate):
        lines.append(f",{est.value!r},{est.m_witness},")
    elif isinstance(est, QuasiAssouadEstimate):
        for e, v, (m, mp, _) in zip(est.epsilons, est.values, est.witnesses):
            lines.append(f"{float(1 - e)!r},{v!r},{m},{mp}")
    else:
        raise TypeError(f"cannot serialize {type(est).__name__}")
    return "\n".join(lines) + "\n"


def report_to_text(report: VerificationReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    lines = [f"CHECK {report.name} {status} worst={report.worst!r} tol={report.tol!r}"]
    if not report.passed:
        lines.extend(f"  witness {w}" for w in report.witnesses)
    return "\n".join(lines) + "\n"
