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
neither mode loops over the nodes of a level per window.  The two sides
of the main theorem read these tables in two different orders:

- The upper estimate goes by fine level, in blocks, for the whole grid at
  once.  Window (m, m') is admitted at theta iff m <= max_coarse(m'), so
  at each fine level the coarse levels live at theta are a prefix of the
  range; one gather per block and one running maximum over the coarse
  levels give every theta its row maxima as prefix maxima.
- The brute side goes by coarse level, in one pass over the widest fan:
  every window (m, m') is the exact-ratio window of theta' = m / m', so
  each coarse level's row of window exponents is computed once and
  reduced by ratio into the maximum of every theta whose clamped range
  holds m.  On a composite a row is the elementwise max over the pieces
  present at m; a piece whose row a kept piece dominates pointwise over
  the whole fan (an exact integer test, `_kept_pieces`) is left out of
  the max, which cannot change it.

Both sides divide the same table entries by the same widths, so they meet
the same floats, and a maximum is exact whatever the order; the check
still compares two independent reductions, one by prefix over coarse
levels and one by ratio segments over fine levels, so a window either
side drops or admits by mistake shows as a nonzero deviation.  The
dominance test reads only prefix counts, never the region solver, and
every window of every kept row is still enumerated, so the brute side
stays independent of the upper kernel.

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
    origin_rows,
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
# piece-pair differences one block of the brute side's dominance test holds
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


def _clamp(depth: int, scale, lo: int, hi: int) -> tuple[int, int]:
    top = scale.max_coarse(depth)
    hi_eff = min(hi, top)
    if hi_eff < lo:
        raise ValueError(
            f"no admissible window: coarse level {lo} needs fine level "
            f"{scale.fine(lo)} beyond depth {depth}"
        )
    return lo, hi_eff


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
    his = [_clamp(depth, RationalScale(th), lo, hi)[1] for th in grid]
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
# ratio-fan enumeration (the brute side of the upper identity).  Every
# window (m, m') is the exact-ratio window of theta' = m / m', so one pass
# over the widest fan computes each window once: per coarse level m, one
# row of exponents over m' >= fine(m) at the largest theta, reduced by
# ratio into the running maximum of every theta still live at m.


def _kept_pieces(parts, depth: int, lo: int, starts: np.ndarray) -> np.ndarray | None:
    """(rows, pieces) bool: whether piece q's row at coarse level lo + i,
    over the fine levels starts[i], ..., depth, enters the row maximum;
    None for fewer than two pieces, where nothing can be dropped.

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


def _fan_rows(rep, depth: int, lo: int, starts: np.ndarray, neighbors: bool):
    """fill(m, f, out): the exponent numerators of the windows (m, j) for
    j = f, ..., depth into out, for m in [lo, lo + len(starts) - 1] and f
    at or above starts[m - lo] - a tree table's log2 counts, or the
    elementwise max over the pieces with shift e <= m of S[j - e] - S[m - e]
    and over the origin node's log2 counts; a composite row keeps its
    pieces' maximum in one spare row of depth + 1 entries per call.

    A composite row skips every piece that `_kept_pieces` finds dominated
    on [starts[m - lo], depth] by a kept piece: the kept row is pointwise at
    least as large, so the elementwise max, and every float made from it,
    is unchanged.  Origin rows are never skipped.  A schedule has one piece
    and a tree none, so their rows skip nothing."""
    if isinstance(rep, DyadicTree):
        runs = _tree_table(rep, neighbors)
        ranks = runs.rank(depth - np.arange(depth + 1))  # fine rank per level
        by_rank = np.empty(depth + 1)

        def fill(m, f, out):
            runs.row(runs.rank(depth - m), by_rank)
            np.take(by_rank, ranks[f:], out=out)

        return fill
    ints = [(e, S) for _, e, S in pieces(rep)]
    kept = _kept_pieces(ints, depth, lo, starts)
    # prefix counts stay below 2**53, so they and their differences are
    # exact in float64; pieces ascend in shift.  The float copies are the
    # rows of one block, one allocation per call.
    parts = []
    for (e, S), row in zip(ints, np.empty((len(ints), depth + 1))):
        row = row[: S.size]
        row[:] = S
        parts.append((e, row))
    origin = dict(origin_rows(rep, lo, lo + starts.size - 1))
    spare = np.empty(depth + 1)

    def fill(m, f, out):
        dst = out
        use = parts if kept is None else [parts[k] for k in np.flatnonzero(kept[m - lo])]
        for e, S in use:
            if e > m:
                break
            np.subtract(S[f - e :], S[m - e], out=dst)
            if dst is not out:
                np.maximum(out, dst, out=out)
            dst = spare[: out.size]
        logs = origin.get(m)
        if logs is not None:
            if dst is out:
                np.copyto(out, logs[f:])
            else:
                np.maximum(out, logs[f:], out=out)

    return fill


def _ratio_fan_maxima(rep, depth, grid, lo, his, neighbors) -> list[float]:
    """Per theta of the ascending grid, the max exponent over every window
    (m, m') with lo <= m <= his[k] and m' >= ceil(m / theta), enumerated
    coarse level first.  his[k], theta's clamped coarse top, rises with
    theta, so the thetas live at m (his >= m) are a suffix of the grid and
    the largest is live wherever any is.  Dividing the row's max numerator
    by the fixed width m' - m gives the max of the quotients bit for bit,
    since rounding is monotone.  Each row is built by `_fan_rows`, which
    leaves out the composite pieces a kept piece dominates from the widest
    fan's start on; that start is at or below every live theta's, so the
    dropped pieces are dominated on every segment too.  Every row is built
    in one buffer of depth + 1 entries per call."""
    k = len(grid)
    top = his[-1]
    marr = np.arange(lo, top + 1, dtype=np.int64)
    # fine levels per m, largest theta first, so each row ascends; kept as
    # offsets from the widest fan's start
    offsets = np.stack([RationalScale(th).fine_array(marr) for th in reversed(grid)], axis=1)
    first = offsets[:, 0].copy()
    fill = _fan_rows(rep, depth, lo, first, neighbors)
    starts = first.tolist()
    offsets -= offsets[:, :1]
    live = (k - np.searchsorted(his, marr, side="left")).tolist()
    widths = np.arange(depth + 1, dtype=np.float64)
    buf = np.empty(depth + 1)
    best = np.full(k, -np.inf)
    for i, m in enumerate(range(lo, top + 1)):
        f, n = starts[i], live[i]
        row = buf[: depth + 1 - f]
        fill(m, f, row)
        np.divide(row, widths[f - m : depth + 1 - m], out=row)
        # segment maxima between the live thetas' fine levels, then the
        # running maximum from the narrowest fan (smallest theta) outward
        seg = np.maximum.reduceat(row, offsets[i, :n])
        tail = best[k - n :]
        np.maximum(tail, np.maximum.accumulate(seg[::-1]), out=tail)
    return best.tolist()


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

    Both sides maximize over the identical finite window fan, one through
    the optimized upper path and one by direct enumeration of every window
    in one pass over the widest fan, reduced by ratio for all thetas at
    once, so the deviation must be exactly zero.  On a composite the
    enumeration skips the rows of pieces that a kept piece dominates
    pointwise (an integer test on prefix counts that leaves every row
    maximum bit for bit unchanged); every window of every other row is
    still enumerated, independent of the region solver the upper path uses.
    The upper side is `estimate_upper` itself, on the resolved grid and
    range.
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
    """spectrum(theta) <= spectrum(theta ** (1/n)) + tol for each n; every
    n must lie in 1..MAX_ROOT_ORDER, checked before any estimate."""
    tol = _tolerance(tol)
    orders = [root_order(int(n)) for n in n_values]
    spec = estimate_spectrum(rep, theta_grid, m_range, neighbors)
    lo, hi = spec.m_range
    # every (theta, n) root spectrum in one call, with one workspace
    cases = [(th, base, n) for th, base in zip(spec.thetas, spec.values) for n in orders]
    scales = [RootScale(th, n) for th, _, n in cases]
    his = [_clamp(rep.depth, sc, lo, hi)[1] for sc in scales]
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
