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
prefix counts.  The dispatch of each estimator call (`_spectra`,
`_uppers`) lends those kernels one `Workspace`, so no theta and no solve
round allocates a depth-sized array.  Every verifier reaches its estimates
through the public estimators, so it checks the functions the CLI calls.

Trees are read through tables cached on the tree: the all-levels run
table, or with neighbor mode on (a node counted with its present
same-level neighbors) the neighbor count table, built once per tree, so
neither mode loops over the nodes of a level per window.

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
  kernel, `_fan_kernel`, reads each row only at those fan starts and at
  the candidate columns after them:

  | input                      | rows          | columns                    |
  |----------------------------|---------------|----------------------------|
  | schedule, composite piece  | where kept    | concave corners, depth     |
  | composite origin bucket    | its own       | every level                |
  | tree, neighbor mode off    | every row     | depth + 1 - u per gap u    |
  | tree, neighbor mode on     | every row     | every level                |

  A schedule is the one piece at shift 0.  On a piece the numerator
  N(j) = S[j - e] - S[m - e] rises by 0 or 1 per level, so N <= j - m:
  along a branching stretch N and the width j - m both grow by one, so
  N / (j - m) does not decrease; along a frozen stretch N is fixed, so it
  does not increase.  The maximum from a fan start f on is therefore at
  f or at a concave corner after it, the last level of a branching run
  or the depth.  On a run table a row's numerator is fixed and >= 0
  while the fine rank is, and the width grows, so the maximum from f on
  is at f or at the first level of a later fine rank, depth + 1 - u for
  a gap value u.  Neighbor counts and origin counts have no such
  stretches, so every level is a column.  Correctly rounded division is
  monotone, so each float maximum is bit for bit that over every window.
  At a window (m, j) every piece and the origin share the width, so the
  max of their quotients is the quotient of their largest numerator, and
  a composite's maximum is the max of its pieces' and buckets' maxima.
  A piece that a kept piece dominates pointwise over a whole row (an
  exact integer test, `_kept_pieces`) is left out of that row, which
  cannot change it.

Both sides divide the same integer counts (or table entries) by the same
widths, so they meet the same floats, and a maximum is exact whatever
the order; the check still compares two independent reductions.  The
brute side reads prefix counts and tables only, never `region_max`: its
candidate rule is a fact about the counts, with no slope, no parameter
and no round of its own, while the upper side solves each piece over
every level and reads each origin bucket at every level.  A window that
either side drops or admits by mistake shows as a nonzero deviation.

Exactness contract: within one set representation all estimators read the
same exponent values (integer prefix differences or cached log tables),
so the structural identities - spectrum <= upper, upper non-decreasing in
theta, and the upper/ratio-fan identity - hold with zero tolerance, while
closed-form comparisons carry an explicit tolerance.

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

from .constructions import MAX_SCHEDULE_DEPTH
from .dyadic import DyadicTree
from .errors import BudgetError
from .schedule import (
    BranchingSchedule,
    CompositeSet,
    composite_spectrum,
    composite_upper,
    origin_log_counts,
    origin_buckets,
    pieces,
)
from .windows import RationalScale, RootScale, Workspace, root_order

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
# entries one block of the brute side holds: piece-pair differences of the
# dominance test, a chunk's fine levels per theta, a block's candidate cells
FAN_PAIR_BLOCK = 1 << 16


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
    if rep.depth > MAX_SCHEDULE_DEPTH:
        raise BudgetError(
            f"depth {rep.depth} exceeds the depth budget {MAX_SCHEDULE_DEPTH}"
        )
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
# tree cores (both modes read a table cached on the tree through the same
# rank/at/logs lookups: the all-levels run table with neighbor mode off, the
# neighbor table with it on; the window (m, mp) is level s = depth - mp at
# threshold s + d = depth - m)


def _tree_table(tree: DyadicTree, neighbors: bool):
    return tree.neighbor_table() if neighbors else tree.run_table()


def _tree_witness_node(tree: DyadicTree, m: int, mp: int, neighbors: bool) -> int:
    """Leftmost level-m node holding the most level-mp nodes (with its
    present neighbors in neighbor mode)."""
    s = tree.depth - m
    if neighbors:
        nb = tree.neighbor_table()
        return tree.leaves[int(nb.start[nb.at(tree.depth - mp, s)])] >> s
    g = tree.gaps
    # leaves split into level-m groups where a gap exceeds depth - m, and
    # into level-mp nodes where it exceeds depth - mp
    starts = np.flatnonzero(np.concatenate(([True], g > s)))
    nodes = np.concatenate(([1], g > tree.depth - mp)).astype(np.int64)
    k = int(np.argmax(np.add.reduceat(nodes, starts)))
    return tree.leaves[int(starts[k])] >> s


def _tree_spectrum(tree, scale, lo, hi, neighbors) -> tuple[float, int, int, int]:
    runs = _tree_table(tree, neighbors)
    marr = np.arange(lo, hi + 1, dtype=np.int64)
    mps = scale.fine_array(marr)
    idx = runs.at(runs.rank(tree.depth - mps), runs.rank(tree.depth - marr))
    vals = runs.logs[idx] / (mps - marr)
    k = int(np.argmax(vals))
    m, mp = int(marr[k]), int(mps[k])
    return float(vals[k]), m, mp, _tree_witness_node(tree, m, mp, neighbors)


def _tree_uppers(tree, scales, lo, his, neighbors) -> list[tuple[float, int, int, int]]:
    """Per scale of an ascending theta grid, (value, m, m', node) over every
    window (m, m') with lo <= m <= his[k] and m' >= ceil(m / theta): ties to
    the smallest m, then the smallest m', then the leftmost node.

    Fine levels go in blocks of at most UPPER_BLOCK table entries.  At each
    fine level the coarse levels live at theta are a prefix of lo, ...,
    his[k], so one gather and one running maximum over the coarse levels
    serve every theta: each row's prefix maximum at its live count."""
    depth = tree.depth
    runs = _tree_table(tree, neighbors)
    ms = np.arange(lo, his[-1] + 1)
    cols = runs.rank(depth - ms)
    # coarse level m is live at theta from its fine level on
    fines = [scale.fine_array(ms[: hi - lo + 1]) for scale, hi in zip(scales, his)]
    step = max(1, UPPER_BLOCK // ms.size)
    best = [None] * len(scales)
    for a in range(int(fines[-1][0]), depth + 1, step):
        mps = np.arange(a, min(a + step, depth + 1))
        live = np.stack([np.searchsorted(f, mps, side="right") for f in fines])
        n = int(live.max())
        vals = runs.logs[runs.at(runs.rank(depth - mps)[:, None], cols[None, :n])]
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
    return [
        (v, -m, -mp, _tree_witness_node(tree, -m, -mp, neighbors))
        for v, m, mp in best
    ]


# ----------------------------------------------------------------------
# dispatch: a schedule or composite gets one workspace per call, made here,
# after `_resolve` has checked the depth budget; trees read tables instead


def _spectra(rep, scales, lo, his, neighbors) -> list[tuple[float, int, int, int]]:
    """Per scale, (value, m, m', node) at its fixed ratio rule over the
    coarse levels lo..his[k]."""
    if isinstance(rep, DyadicTree):
        return [_tree_spectrum(rep, sc, lo, hi, neighbors) for sc, hi in zip(scales, his)]
    work = Workspace(rep.depth)
    return [composite_spectrum(rep, sc, lo, hi, work) for sc, hi in zip(scales, his)]


def _uppers(rep, scales, lo, his, neighbors) -> list[tuple[float, int, int, int]]:
    if isinstance(rep, DyadicTree):
        return _tree_uppers(rep, scales, lo, his, neighbors)
    work = Workspace(rep.depth)
    return [composite_upper(rep, sc, lo, hi, work) for sc, hi in zip(scales, his)]


def _estimate(mode: str, solve, rep, theta_grid, m_range, neighbors) -> SpectrumEstimate:
    """Per theta, the window maximum `solve` finds over the clamped coarse
    range, as (value, m, m', node)."""
    _, grid, lo, hi, his = _resolve(rep, theta_grid, m_range, neighbors)
    found = solve(rep, [RationalScale(th) for th in grid], lo, his, neighbors)
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
    return _estimate(SPECTRUM, _spectra, rep, theta_grid, m_range, neighbors)


def estimate_upper(
    rep,
    theta_grid: Sequence,
    m_range: tuple[int, int] | None = None,
    neighbors: bool = False,
) -> SpectrumEstimate:
    """Window exponent maximized over every fine level m' >= ceil(m / theta)."""
    return _estimate(UPPER, _uppers, rep, theta_grid, m_range, neighbors)


def estimate_box(rep, m_range: tuple[int, int] | None = None) -> BoxEstimate:
    """max over m in range of log2(level count at m) / m."""
    depth = _depth(rep)
    lo, hi = _norm_range(depth, m_range)
    if isinstance(rep, DyadicTree):
        logs = np.log2(rep.level_sizes(np.arange(lo, hi + 1)).astype(np.float64))
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
    est = _estimate(UPPER, _uppers, rep, [1 - e for e in eps], m_range, neighbors)
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


def _kept_pieces(parts, depth: int, lo: int, starts: np.ndarray) -> np.ndarray | None:
    """(rows, pieces) bool: whether piece q's row at coarse level lo + i,
    over the fine levels starts[i], ..., depth, is read by the brute side;
    None for fewer than two pieces, where nothing can be dropped.  A piece
    left out at a row is dominated there pointwise by a kept one, so the
    row's largest numerator at every fine level, and every float made from
    it, is unchanged.

    With G_q[j] = S_q[j - e_q] and c_q = S_q(m - e_q), a present piece p
    dominates q on [f, depth] iff D_pq(f) = max_{j >= f}(G_q[j] - G_p[j])
    <= c_q - c_p, all in integers.  Per row q is dropped iff a present p
    before it dominates it, p before q meaning a larger widest-window
    numerator S(depth - e) - c (ties to the lower index).  Dominance is
    transitive, so this is the greedy visit in that order that drops q iff
    a piece already kept dominates it: a kept piece stands for every piece
    it drops and two equal rows cannot drop each other.  Only the pairs
    p < q are subtracted: D_pq is the suffix maximum of G_q - G_p and D_qp
    minus its suffix minimum, read at the row starts and built in blocks of
    fine levels from the top down."""
    P = len(parts)
    if P < 2:
        return None
    ms = np.arange(lo, lo + starts.size, dtype=np.int64)
    present = ms[:, None] >= np.array([e for e, _ in parts], dtype=np.int64)
    kept = np.zeros_like(present)
    tops = np.array([S[-1] for _, S in parts])
    pi, qi = np.triu_indices(P, 1)
    lower = np.arange(P)[:, None] < np.arange(P)  # [p, q]: p < q
    step = max(1, FAN_PAIR_BLOCK // pi.size)
    # running max and min of G_q - G_p (p < q) above the current block
    most = np.full(pi.size, np.iinfo(np.int64).min)
    least = np.full(pi.size, np.iinfo(np.int64).max)
    f0, f1 = int(starts[0]), int(starts[-1])

    def levels(a, b):
        # [q, j - a] = G_q[j]; a piece reads its first level below its
        # shift, where no row that uses it starts
        return np.stack([
            S[a - e : b - e] if a >= e else S[np.maximum(np.arange(a - e, b - e), 0)]
            for e, S in parts
        ])

    def diffs(a, b):
        G = levels(a, b)
        return G[qi] - G[pi]  # [pair, j - a] = G_q[j] - G_p[j] for p < q

    # fine levels above the last row start: one plain maximum and minimum
    for a in range(f1 + 1, depth + 1, step):
        d = diffs(a, min(a + step, depth + 1))
        np.maximum(most, d.max(axis=1), out=most)
        np.minimum(least, d.min(axis=1), out=least)
    for b in range(f1 + 1, f0, -step):
        a = max(f0, b - step)
        d = diffs(a, b)[:, ::-1]
        top = np.maximum.accumulate(d, axis=1)[:, ::-1]
        bot = np.minimum.accumulate(d, axis=1)[:, ::-1]
        np.maximum(top, most[:, None], out=top)
        np.minimum(bot, least[:, None], out=bot)
        most, least = top[:, 0].copy(), bot[:, 0].copy()
        i0, i1 = np.searchsorted(starts, [a, b])
        # the diagonal D_qq = 0 is never used: q does not come before q
        at = starts[i0:i1] - a
        dom = np.zeros((P, P, at.size), dtype=np.int64)
        dom[pi, qi] = top[:, at]
        dom[qi, pi] = -bot[:, at]
        dom = dom.transpose(2, 0, 1)  # [i, p, q]
        c = levels(lo + i0, lo + i1).T  # [i, q] = c_q at m = lo + i0 + i
        wide = tops - c  # [i, q]: q's widest-window numerator
        wp, wq = wide[:, :, None], wide[:, None, :]
        before = (wp > wq) | ((wp == wq) & lower)  # [i, p, q]: p comes before q
        pb = present[i0:i1]
        hit = pb[:, :, None] & before & (dom <= c[:, None, :] - c[:, :, None])
        kept[i0:i1] = pb & ~hit.any(axis=1)
    return kept


def _fan_kernel(cols: np.ndarray, rows: np.ndarray, fill, scales, tops) -> np.ndarray:
    """Per scale (widest fan first), the max exponent over the windows
    (m, j) with m in rows at or below the scale's clamped top tops[t] and j
    at the scale's fine level of m or at an ascending candidate column
    after it; cols ends at the depth.  fill(i, n, js, out) writes the
    numerators of rows[i:i + n] at the levels js into out, where js is a
    suffix cols[c0:] of the columns or an (n, thetas) array of fan starts.

    Rows go in blocks of about FAN_PAIR_BLOCK cells, each filled with the
    exponents at the columns from its first row's widest fan start on,
    plus a -inf column that the first column of a theta not live at the
    row points to when its fine level passes the depth.  A block ends
    before the row that reaches its first column, so every width is
    positive.  One flat maximum.reduceat gives each fan's column maximum;
    with the fan-start values, a reversed running maximum along theta
    makes each a suffix maximum from its own start."""
    k = len(scales)
    ends = np.append(cols, cols[-1] + 1).astype(np.float64)
    size = max(FAN_PAIR_BLOCK, ends.size)
    vals, widths = np.empty(size), np.empty(size)
    best = np.full(k, -np.inf)
    step = max(1, FAN_PAIR_BLOCK // k)
    for a in range(0, rows.size, step):
        ms = rows[a : a + step]
        fines = np.stack([scale.fine_array(ms) for scale in scales], axis=1)
        at = np.searchsorted(cols, fines)  # each fan's first column
        # a fan start past the depth belongs to a theta not live at the row
        starts = np.minimum(fines, cols[-1])
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
            c = ends.size - c0
            n = min(max(1, size // c), below[i] - i)
            block = vals[: n * c].reshape(n, c)
            width = widths[: n * c].reshape(n, c)
            fill(a + i, n, cols[c0:], block[:, :-1])
            block[:, -1] = -np.inf
            np.subtract(ends[c0:], ms[i : i + n, None], out=width)
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


def _piece_fan(S: np.ndarray, e: int, rows: np.ndarray):
    """(columns, rows, fill) of a piece with prefix counts S at shift e:
    its concave corners, the last level of each branching run and the
    depth, in the union's levels."""
    rise = np.diff(S).astype(bool)  # [j - 1]: local level j branches
    rise[:-1] &= ~rise[1:]
    rise[-1] = True
    corners = np.flatnonzero(rise) + 1
    # prefix counts stay below 2**53, so their floats and differences are
    # exact
    heads, base = S[corners].astype(np.float64), S[rows - e].astype(np.float64)

    def fill(i, n, js, out):
        # a suffix of the columns reads the heads computed once per call
        top = heads[heads.size - js.size :] if js.ndim == 1 else S[js - e]
        np.subtract(top, base[i : i + n, None], out=out)

    return corners + e, rows, fill


def _ratio_fan_maxima(rep, depth, grid, lo, his, neighbors) -> list[float]:
    """Per theta of the ascending grid, the max exponent over every window
    (m, m') with lo <= m <= his[k] and m' >= ceil(m / theta).  his[k],
    theta's clamped coarse top, rises with theta, so the thetas live at m
    (his >= m) are a suffix of the grid and the largest is live wherever
    any is.  A theta's value at row m is the max over its own fan start
    and everything after it, so it is a suffix maximum along the row read
    from the fan starts of the live thetas, widest first.

    This is the one place that knows the representation: it hands
    `_fan_kernel` the candidate columns, rows and fill of the module
    docstring's table, once per piece and origin bucket of a composite,
    and takes the max of their maxima.  Pieces a kept piece dominates from
    the widest fan's start on are left out of a row (`_kept_pieces`); that
    start is at or below every live theta's, so they are dominated from
    every fan start too.  Nothing here reads the region solver of the
    upper side."""
    marr = np.arange(lo, his[-1] + 1, dtype=np.int64)
    scales = [RationalScale(th) for th in reversed(grid)]
    if isinstance(rep, DyadicTree):
        runs = _tree_table(rep, neighbors)
        ranks = runs.rank(depth - marr)

        def fill(i, n, js, out):
            np.take(runs.logs, runs.at(runs.rank(depth - js), ranks[i : i + n, None]), out=out)

        if neighbors:  # a neighbor count may change at any level
            cols = np.arange(1, depth + 1)
        else:  # a run-table count only where the fine rank does
            cols = np.append(depth + 1 - runs.u[runs.u > 1][::-1], depth)
        fans = [(cols, marr, fill)]
    else:
        parts = [(e, S) for _, e, S in pieces(rep)]
        kept = _kept_pieces(parts, depth, lo, scales[0].fine_array(marr))
        fans = []
        for q, (e, S) in enumerate(parts):
            rows = marr[marr >= e] if kept is None else marr[kept[:, q]]
            if rows.size:
                fans.append(_piece_fan(S, e, rows))
        for start, stop, logs in origin_buckets(rep, lo, his[-1]):
            fans.append((np.arange(1, depth + 1), marr[start - lo : stop + 1 - lo],
                         lambda i, n, js, out, logs=logs: np.copyto(out, logs[js])))
    tops = np.array(his[::-1], dtype=np.int64)
    best = np.full(len(scales), -np.inf)
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
    (`_ratio_fan_maxima`).  It reads each row at the fan starts and at the
    candidate columns of the module docstring's table, after which no
    exponent of the row can rise: the concave corners of a schedule or
    composite piece, the first level of each fine rank of a run table,
    and every level of a neighbor table or origin bucket.  Composite
    pieces that a kept piece dominates pointwise on a row are left out of
    it (an integer test on prefix counts that leaves every row maximum bit
    for bit unchanged).

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
    roots = _spectra(rep, scales, lo, his, neighbors)
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
