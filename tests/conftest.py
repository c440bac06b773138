"""Shared fixtures and slow-but-independent oracles.

The oracles recompute counts and window maxima by direct enumeration,
avoiding the library's range-count tables, hull sweeps and numpy paths,
so estimator tests compare two genuinely different routes.
`reference_upper` is the exception: it replays the upper-spectrum
maximization per theta on the reference sweep `suffix_slope_max`, so the
estimators' suffix-hull trees are checked against the sweep they replace.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from math import log2

import numpy as np
import pytest

from fds.dyadic import DyadicTree
from fds.schedule import BranchingSchedule, CompositeSet, origin_log_counts
from fds.constructions import TwoPhaseParams, two_phase_schedule
from fds.windows import RationalScale, ceil_div, suffix_slope_max


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
    return sum(1 for x in tree.levels[mp] if (x >> shift) in want)


def oracle_window_alpha(tree: DyadicTree, m: int, mp: int, neighbors: bool = False):
    """(alpha, witness) for one window by scanning every present node."""
    best = 0
    best_k = None
    for k in tree.levels[m]:
        c = oracle_local_count(tree, m, k, mp, neighbors)
        if c > best:
            best, best_k = c, k
    return log2(best) / (mp - m), best_k


def oracle_tree_spectrum(tree: DyadicTree, theta: Fraction, lo: int, hi: int) -> float:
    p, q = theta.numerator, theta.denominator
    return max(
        oracle_window_alpha(tree, m, ceil_div(m * q, p))[0] for m in range(lo, hi + 1)
    )


def oracle_tree_upper(tree: DyadicTree, theta: Fraction, lo: int, hi: int) -> float:
    p, q = theta.numerator, theta.denominator
    best = 0.0
    for m in range(lo, hi + 1):
        for mp in range(ceil_div(m * q, p), tree.depth + 1):
            v = oracle_window_alpha(tree, m, mp)[0]
            if v > best:
                best = v
    return best


def oracle_tree_box(tree: DyadicTree, lo: int, hi: int) -> float:
    return max(log2(len(tree.levels[m])) / m for m in range(lo, hi + 1))


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


def random_schedule(rng: random.Random, max_depth: int = 18) -> BranchingSchedule:
    depth = rng.randint(2, max_depth)
    bias = rng.uniform(0.2, 0.8)
    cs = [2 if rng.random() < bias else 1 for _ in range(depth)]
    return BranchingSchedule([(1, c) for c in cs])


# ----------------------------------------------------------------------
# fixtures (module-expensive sets built once per session)


@pytest.fixture(scope="session")
def twophase_48():
    return two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 3))
