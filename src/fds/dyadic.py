"""Dyadic intervals and materialized set skeletons on [0, 1].

Scales are dyadic throughout: level m names interval width 2**-m, and a
compact subset of [0, 1] is represented by the sorted indices of the
level-m intervals that meet it, for every m up to a finite depth; a
valid skeleton is determined by its deepest level alone.  Index
counts stand in for covering numbers: a set of diameter 2**-m meets at
most two level-m intervals, and the exponents extracted from window
ratios are insensitive to bounded factors like that.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import log2
from typing import Iterable, Sequence

import numpy as np

from .windows import RunTable, leaf_gaps

__all__ = [
    "DyadicInterval",
    "WindowQuery",
    "DyadicTree",
    "Violation",
    "parent",
    "children",
    "neighbors",
    "validate",
    "level_count",
    "local_count",
    "max_alpha",
    "embed",
    "merge",
]


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The interval [index * 2**-level, (index + 1) * 2**-level)."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def width(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 1 << self.level)


@dataclass(frozen=True)
class WindowQuery:
    """A scale pair: coarse level m, fine level m_prime > m.

    Encodes R = 2**-m, r = 2**-m_prime; the ratio m / m_prime plays the
    role of the interpolation parameter.
    """

    m: int
    m_prime: int
    neighbor_mode: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.m < self.m_prime:
            raise ValueError(f"need m_prime > m >= 0, got ({self.m}, {self.m_prime})")

    @property
    def span(self) -> int:
        return self.m_prime - self.m


def parent(v: DyadicInterval) -> DyadicInterval:
    """The level v.level - 1 interval containing v."""
    if v.level < 1:
        raise ValueError("root interval has no parent")
    return DyadicInterval(v.level - 1, v.index >> 1)


def children(v: DyadicInterval) -> tuple[DyadicInterval, DyadicInterval]:
    """The two halves of v, one level down."""
    return (
        DyadicInterval(v.level + 1, 2 * v.index),
        DyadicInterval(v.level + 1, 2 * v.index + 1),
    )


def neighbors(v: DyadicInterval) -> tuple[DyadicInterval, ...]:
    """Same-level intervals adjacent to v, omitting any outside [0, 1]."""
    out = []
    if v.index > 0:
        out.append(DyadicInterval(v.level, v.index - 1))
    if v.index + 1 < (1 << v.level):
        out.append(DyadicInterval(v.level, v.index + 1))
    return tuple(out)


class DyadicTree:
    """The dyadic intervals meeting a compact set, stored as the deepest level.

    A valid tree is prefix closed (a present node's parent is present) and
    has no dangling node (every node above the deepest level has a present
    child), so level m is exactly the set of leaves (the level-depth
    indices) shifted right by depth - m.  A tree therefore holds three
    things: `depth`, the sorted tuple `leaves`, and the read-only int64
    array `gaps` of adjacent widths (a ^ b).bit_length(), each at most
    depth.  Two leaves fall into one level-m node exactly when every gap
    between them is at most depth - m, so level counts, `has`, run tables
    and witnesses all derive from the leaves and the gaps.

    `from_leaves(depth, leaves)` builds a tree from its deepest level.
    `DyadicTree(levels)` takes every level, sorts and deduplicates each,
    and raises ValueError naming the first missing-parent or dangling node.
    `level(m)` is cached per level; `levels` materialises every level once
    and is meant for tests and small trees.
    """

    __slots__ = ("depth", "leaves", "gaps", "_level", "_levels", "_runs")

    def __init__(self, levels: Iterable[Iterable[int]]):
        packed = _pack(levels)
        self._init(len(packed) - 1, packed[-1])
        for m, xs in enumerate(packed):
            if self._derive(m) != xs:
                v = _violations(packed)[0]
                if v.kind == "missing-parent":
                    raise ValueError(
                        f"prefix closure violated: ({v.level}, {v.index}) present, "
                        f"({v.level - 1}, {v.index >> 1}) absent"
                    )
                raise ValueError(
                    f"dangling node ({v.level}, {v.index}): no child at level {v.level + 1}"
                )
        self._level = dict(enumerate(packed))

    @classmethod
    def from_leaves(cls, depth: int, leaves: Iterable[int]) -> "DyadicTree":
        """The tree whose level-depth indices are `leaves`, sorted and
        deduplicated."""
        depth = int(depth)
        if depth < 0:
            raise ValueError(f"negative depth {depth}")
        xs = [int(x) for x in leaves]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            xs = sorted(set(xs))
        if xs and not (0 <= xs[0] and xs[-1].bit_length() <= depth):
            raise ValueError(f"leaf out of range at depth {depth}")
        t = cls.__new__(cls)
        t._init(depth, tuple(xs))
        return t

    def _init(self, depth: int, leaves: tuple[int, ...]) -> None:
        self.depth = depth
        self.leaves = leaves
        self.gaps = leaf_gaps(leaves)
        self.gaps.flags.writeable = False
        self._level: dict[int, tuple[int, ...]] = {}
        self._levels: tuple[tuple[int, ...], ...] | None = None
        self._runs: RunTable | None = None

    def _derive(self, m: int) -> tuple[int, ...]:
        s = self.depth - m
        xs = self.leaves
        if not xs:
            return ()
        keep = np.flatnonzero(self.gaps > s) + 1
        return (xs[0] >> s, *(xs[i] >> s for i in keep.tolist()))

    def level(self, m: int) -> tuple[int, ...]:
        """Sorted indices of level m: the leaves shifted right by depth - m,
        deduplicated."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} outside [0, {self.depth}]")
        xs = self._level.get(m)
        if xs is None:
            xs = self._level[m] = self._derive(m)
        return xs

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        if self._levels is None:
            self._levels = tuple(self.level(m) for m in range(self.depth + 1))
        return self._levels

    def level_sizes(self, ms) -> np.ndarray:
        """Node counts of the levels ms: 1 plus the gaps wider than depth - m
        (0 for a tree without leaves)."""
        ms = np.asarray(ms, dtype=np.int64)
        if not self.leaves:
            return np.zeros_like(ms)
        gs = np.sort(self.gaps)
        return 1 + gs.size - np.searchsorted(gs, self.depth - ms, side="right")

    def run_table(self) -> RunTable:
        """The all-levels run table of the leaf gaps, built once."""
        if self._runs is None:
            self._runs = RunTable(self.gaps, len(self.leaves))
        return self._runs

    def has(self, level: int, index: int) -> bool:
        if not 0 <= level <= self.depth:
            return False
        s = self.depth - level
        i = bisect_left(self.leaves, index << s)
        return i < len(self.leaves) and self.leaves[i] >> s == index

    def node_count(self) -> int:
        if not self.leaves:
            return 0
        return self.depth + 1 + int(self.gaps.sum())

    def is_empty(self) -> bool:
        return not self.leaves

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicTree)
            and self.depth == other.depth
            and self.leaves == other.leaves
        )

    def __hash__(self):
        return hash((self.depth, self.leaves))

    def __repr__(self) -> str:
        return f"DyadicTree(depth={self.depth}, nodes={self.node_count()})"


def _pack(levels: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Per level, the sorted distinct indices, bounds-checked; at least one
    level."""
    packed = []
    for m, idxs in enumerate(levels):
        xs = sorted({int(k) for k in idxs})
        if xs and not (0 <= xs[0] and xs[-1].bit_length() <= m):
            raise ValueError(f"index out of range at level {m}")
        packed.append(tuple(xs))
    return tuple(packed) or ((),)


@dataclass(frozen=True)
class Violation:
    kind: str  # "missing-parent" or "dangling"
    level: int
    index: int


def _violations(levels: Sequence[Sequence[int]]) -> list[Violation]:
    out: list[Violation] = []
    for m in range(1, len(levels)):
        above = set(levels[m - 1])
        for k in levels[m]:
            if k >> 1 not in above:
                out.append(Violation("missing-parent", m, k))
    for m in range(len(levels) - 1):
        below = {k >> 1 for k in levels[m + 1]}
        for k in levels[m]:
            if k not in below:
                out.append(Violation("dangling", m, k))
    return out


def validate(t: DyadicTree | Iterable[Iterable[int]]) -> list[Violation]:
    """All prefix-closure and dangling-node violations of a tree or of raw
    per-level index lists, empty when valid.  A DyadicTree is valid by
    construction; raw lists are what `DyadicTree(levels)` would reject."""
    return _violations(t.levels if isinstance(t, DyadicTree) else _pack(t))


def level_count(t: DyadicTree, m: int) -> int:
    """Number of level-m intervals meeting the set (global cover surrogate)."""
    if not 0 <= m <= t.depth:
        raise ValueError(f"level {m} outside [0, {t.depth}]")
    return int(t.level_sizes(m))


def _range_count(xs: tuple[int, ...], lo: int, hi: int) -> int:
    return bisect_left(xs, hi) - bisect_left(xs, lo)


def local_count(
    t: DyadicTree, v: DyadicInterval, m_prime: int, neighbor_mode: bool = False
) -> int:
    """Level-m_prime nodes below v, the localized cover surrogate.

    With neighbor_mode on, nodes below v's present same-level neighbors are
    counted as well; the two modes bracket the count of a metric ball
    centered in v within constant factors.
    """
    if not t.has(v.level, v.index):
        raise ValueError(f"node ({v.level}, {v.index}) not present")
    if not v.level < m_prime <= t.depth:
        raise ValueError(f"fine level {m_prime} outside ({v.level}, {t.depth}]")
    shift = m_prime - v.level
    lo = v.index
    hi = v.index + 1
    if neighbor_mode:
        lo = max(0, v.index - 1)
        hi = min(1 << v.level, v.index + 2)
    # Descendants of consecutive same-level nodes occupy one contiguous
    # index range; absent neighbors contribute nothing by prefix closure.
    return _range_count(t.level(m_prime), lo << shift, hi << shift)


def max_alpha(t: DyadicTree, w: WindowQuery) -> tuple[float, DyadicInterval]:
    """Window exponent: max over present level-m nodes v of
    log2(local_count(v, m_prime)) / (m_prime - m), with the witness node.

    Ties resolve to the smallest index.
    """
    if w.m_prime > t.depth:
        raise ValueError(f"fine level {w.m_prime} beyond depth {t.depth}")
    nodes = t.level(w.m)
    if not nodes:
        raise ValueError(f"no nodes at level {w.m}")
    fine = t.level(w.m_prime)
    shift = w.span
    best = 0
    best_k = nodes[0]
    if w.neighbor_mode:
        size = 1 << w.m
        for k in nodes:
            c = _range_count(fine, max(0, k - 1) << shift, min(size, k + 2) << shift)
            if c > best:
                best, best_k = c, k
    else:
        for k in nodes:
            c = _range_count(fine, k << shift, (k + 1) << shift)
            if c > best:
                best, best_k = c, k
    return log2(best) / shift, DyadicInterval(w.m, best_k)


def embed(t: DyadicTree, e: int) -> DyadicTree:
    """Scale by 2**-e and translate by 2**-e.

    Level m index k maps to level m + e index 2**m + k, so the image sits
    in [2**-e, 2**-(e-1)); ancestor levels 0..e-1 hold the single index 0.
    Requires e >= 1: a zero shift would land in [1, 2], outside the unit
    interval.
    """
    if e < 1:
        raise ValueError("shift must be >= 1 to stay inside [0, 1]")
    top = 1 << t.depth
    return DyadicTree.from_leaves(t.depth + e, [top + x for x in t.leaves])


def merge(
    trees: Iterable[DyadicTree], include_origin: bool = False, depth: int | None = None
) -> DyadicTree:
    """Per-level index union of several trees.

    The output depth is the maximum input depth (or `depth` if larger).  A
    shorter input is continued below its own depth along left endpoints
    (each leaf keeps its leftmost child), which preserves the represented
    set to its stated resolution while keeping the union free of dangling
    nodes.  With include_origin, index 0 is present at every level.
    """
    ts = list(trees)
    d = max([t.depth for t in ts], default=0)
    if depth is not None:
        d = max(d, depth)
    leaves: set[int] = {0} if include_origin else set()
    for t in ts:
        pad = d - t.depth
        leaves.update(x << pad for x in t.leaves)
    return DyadicTree.from_leaves(d, sorted(leaves))
