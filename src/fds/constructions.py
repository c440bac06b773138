"""Generators for the example sets.

Two-phase schedules realize the spectrum min{s/(1-theta), t}: within each
block (M, M**2] a quiet prefix of fraction 1 - s/t keeps one child per
interval, the remainder branches at density t, and the squared block
growth isolates blocks from one another.  Unions of such components at
dyadic shifts realize any admissible concave target spectrum; geometric
sequences give a canonical set with zero box-counting dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dyadic import DyadicTree
from .errors import BudgetError
from .schedule import (
    MAX_MATERIALIZE_NODES,
    MAX_SCHEDULE_DEPTH,
    BranchingSchedule,
    CompositeSet,
)

__all__ = [
    "TwoPhaseParams",
    "ConcaveTarget",
    "closed_form_u",
    "two_phase_schedule",
    "rational_enumeration",
    "concave_union",
    "finite_sup_oracle",
    "geometric_sequence_tree",
    "full_binary_tree",
    "left_path_tree",
    "poly_eval",
    "target_from_poly",
]

# polynomial targets are checked for admissibility at k / TARGET_GRID
TARGET_GRID = 256


@dataclass(frozen=True)
class TwoPhaseParams:
    """Parameters of a two-phase schedule: densities 0 < s < t <= 1, first
    block boundary m0 >= 2, and the number of squared-growth blocks."""

    s: Fraction
    t: Fraction
    m0: int = 4
    blocks: int = 3

    def __post_init__(self) -> None:
        s, t = Fraction(self.s), Fraction(self.t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "m0", int(self.m0))
        object.__setattr__(self, "blocks", int(self.blocks))
        if not 0 < s < t <= 1:
            raise ValueError(f"need 0 < s < t <= 1, got s={s}, t={t}")
        if self.m0 < 2:
            raise ValueError(f"first block boundary must be >= 2, got {self.m0}")
        if self.blocks < 1:
            raise ValueError(f"need at least one block, got {self.blocks}")

    @property
    def quiet_fraction(self) -> Fraction:
        return 1 - self.s / self.t


def closed_form_u(s, t, theta):
    """min{s / (1 - theta), t} for 0 < s < t <= 1 and theta in (0, 1).

    Exact when called with Fractions; floats propagate as floats.
    """
    if not 0 < s < t <= 1:
        raise ValueError(f"need 0 < s < t <= 1, got s={s}, t={t}")
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return min(s / (1 - theta), t)


def two_phase_schedule(p: TwoPhaseParams) -> BranchingSchedule:
    """Build the block schedule for (s, t).

    Levels 1..m0 are a quiet lead-in.  Block k covers (M_{k-1}, M_k] with
    M_k = M_{k-1}**2; its first floor(q * L) levels are quiet
    (q = 1 - s/t), and the active remainder branches exactly where
    floor(t * a) increments, so each block contributes floor(t * A)
    branching levels for active length A.
    """
    q = p.quiet_fraction
    tn, td = p.t.numerator, p.t.denominator
    bounds = [p.m0]
    for _ in range(p.blocks):
        nxt = bounds[-1] ** 2
        if nxt > MAX_SCHEDULE_DEPTH:
            raise BudgetError(
                f"block boundary {nxt} exceeds the depth budget {MAX_SCHEDULE_DEPTH}"
            )
        bounds.append(nxt)
    # the child count of level i + 1 at index i; the runs are read off
    # where it changes
    levels = np.ones(bounds[-1], dtype=np.int8)
    for M, nxt in zip(bounds, bounds[1:]):
        L = nxt - M
        quiet = (q.numerator * L) // q.denominator
        active = L - quiet
        a = np.arange(active + 1, dtype=np.int64)
        if max(tn * active, td) >= 1 << 63:
            a = a.astype(object)  # exact Python ints where int64 would wrap
        a *= tn
        a //= td  # floor(t * a)
        levels[M + quiet : nxt] += a[1:] > a[:-1]
    starts = np.flatnonzero(np.diff(levels, prepend=np.int8(0)))
    lengths = np.diff(starts, append=levels.size)
    return BranchingSchedule(np.array((lengths, levels[starts])).T)


def rational_enumeration(count: int) -> list[Fraction]:
    """First `count` rationals in (0, 1) in Calkin-Wilf breadth-first order.

    The tree enumerates every positive rational exactly once in lowest
    terms; entries below 1 are kept in encounter order.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    out: list[Fraction] = []
    queue: list[tuple[int, int]] = [(1, 1)]
    while True:
        nxt: list[tuple[int, int]] = []
        for a, b in queue:
            if a < b:
                out.append(Fraction(a, b))
                if len(out) == count:
                    return out
            nxt.append((a, a + b))
            nxt.append((a + b, b))
        queue = nxt


@dataclass(frozen=True)
class ConcaveTarget:
    """Sampled admissible target spectrum.

    Samples (q_i, f_i) must be consistent with a continuous, concave,
    non-decreasing f on [0, 1] with f(0) = f0 > 0 and f <= f0 * (1 + q):
    the piecewise-linear interpolant through (0, f0) and the sorted samples
    must be non-decreasing and concave, and each sample must respect the
    growth cap.
    """

    f0: Fraction
    samples: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        f0 = Fraction(self.f0)
        samples = tuple((Fraction(q), Fraction(f)) for q, f in self.samples)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "samples", samples)
        if not 0 < f0 <= 1:
            raise ValueError(f"f(0) must lie in (0, 1], got {f0}")
        qs = [q for q, _ in samples]
        if len(set(qs)) != len(qs):
            raise ValueError("sample abscissae must be pairwise distinct")
        for q, f in samples:
            if not 0 < q < 1:
                raise ValueError(f"sample abscissa {q} outside (0, 1)")
            if not 0 < f <= 1:
                raise ValueError(f"sample value {f} outside (0, 1]")
            if f > f0 * (1 + q):
                raise ValueError(f"sample ({q}, {f}) exceeds the growth cap f0*(1+q)")
        pts = sorted([(Fraction(0), f0), *samples])
        slopes = [
            (f2 - f1) / (q2 - q1) for (q1, f1), (q2, f2) in zip(pts, pts[1:])
        ]
        if any(sl < 0 for sl in slopes):
            raise ValueError("samples are not non-decreasing")
        if any(b > a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("samples are not concave")

    def pairs(self) -> list[tuple[Fraction, Fraction]]:
        """Component parameters (s_i, t_i) = (f_i * (1 - q_i), f_i)."""
        return [(f * (1 - q), f) for q, f in self.samples]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + Fraction(c)
    return acc


def target_from_poly(coeffs: Sequence[Fraction], count: int) -> ConcaveTarget:
    """Sample a polynomial target at the first `count` enumerated rationals.

    Admissibility (non-decreasing, concave, growth cap) is checked on a
    uniform grid of `TARGET_GRID` intervals before sampling.
    """
    cs = [Fraction(c) for c in coeffs]
    f0 = poly_eval(cs, Fraction(0))
    if not 0 < f0 <= 1:
        raise ValueError(f"target f(0) must lie in (0, 1], got {f0}")
    # every grid value p(k / G) times scale = lcm(denominators) * G**deg is
    # an integer: Horner in k with the weights c_i * scale / G**i
    G, deg = TARGET_GRID, len(cs) - 1
    lcm = math.lcm(*(c.denominator for c in cs))
    weights = [c.numerator * (lcm // c.denominator) * G ** (deg - i) for i, c in enumerate(cs)]
    vals = []
    for k in range(G + 1):
        acc = 0
        for w in reversed(weights):
            acc = acc * k + w
        vals.append(acc)
    scale = lcm * G**deg
    if any(not 0 < v <= scale for v in vals[1:]):
        raise ValueError("target leaves (0, 1] on [0, 1]")
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if any(d < 0 for d in diffs):
        raise ValueError("target is not non-decreasing on [0, 1]")
    if any(b > a for a, b in zip(diffs, diffs[1:])):
        raise ValueError("target is not concave on [0, 1]")
    # v / scale > f0 * (1 + k / G), with vals[0] = f0 * scale
    if any(v * G > vals[0] * (G + k) for k, v in enumerate(vals)):
        raise ValueError("target exceeds the growth cap f(0) * (1 + theta)")
    qs = rational_enumeration(count)
    return ConcaveTarget(f0, tuple((q, poly_eval(cs, q)) for q in qs))


def concave_union(
    target: ConcaveTarget,
    m0: int = 4,
    blocks: int = 3,
    shifts: Sequence[int] | None = None,
    shift_linear: int | None = None,
) -> CompositeSet:
    """Union of two-phase components realizing the target spectrum.

    Component i uses (s_i, t_i) = (f_i * (1 - q_i), f_i), so its phase
    transition sits at (q_i, f_i) and the finite supremum of the component
    spectra touches the target at every sampled q_i.  Default shifts are
    e_i = 2**i; `shift_linear=c` switches to e_i = c * i for small-depth
    experiments; explicit `shifts` replace both (ValueError with both).
    """
    n = len(target.samples)
    if shifts is not None and shift_linear is not None:
        raise ValueError("explicit shifts and a linear shift factor cannot both be given")
    if shifts is None:
        if shift_linear is not None:
            if shift_linear < 1:
                raise ValueError("linear shift factor must be >= 1")
            shifts = [shift_linear * (i + 1) for i in range(n)]
        else:
            shifts = [1 << (i + 1) for i in range(n)]
    shifts = [int(e) for e in shifts]
    if len(shifts) != n:
        raise ValueError(f"need {n} shifts, got {len(shifts)}")
    comps = []
    for e, (s, t) in zip(shifts, target.pairs()):
        if not 0 < s < t <= 1:
            raise ValueError(f"component parameters (s={s}, t={t}) are inadmissible")
        comps.append((e, two_phase_schedule(TwoPhaseParams(s, t, m0, blocks))))
    return CompositeSet(comps, include_origin=True)


def finite_sup_oracle(params: Sequence[tuple], theta):
    """max_i min{s_i / (1 - theta), t_i} over component parameter pairs."""
    pairs = list(params)
    if not pairs:
        raise ValueError("need at least one (s, t) pair")
    return max(closed_form_u(s, t, theta) for s, t in pairs)


def geometric_sequence_tree(depth: int) -> DyadicTree:
    """Skeleton of {0} union {2**-k : 1 <= k <= depth}.

    Level m holds index 0 plus the powers 2**(m-k) for k <= m, so its
    count is m + 1; localized counts grow only logarithmically in the
    window width.
    """
    if depth < 2:
        raise ValueError(f"need depth >= 2, got {depth}")
    return DyadicTree(depth, [0] + [1 << j for j in range(depth)])


def full_binary_tree(depth: int) -> DyadicTree:
    if depth < 0:
        raise ValueError("negative depth")
    if (1 << (depth + 1)) > MAX_MATERIALIZE_NODES:
        raise BudgetError(
            f"full tree of depth {depth} exceeds {MAX_MATERIALIZE_NODES} nodes"
        )
    return DyadicTree(depth, range(1 << depth))


def left_path_tree(depth: int) -> DyadicTree:
    if depth < 0:
        raise ValueError("negative depth")
    return DyadicTree(depth, [0])
