"""Materialized set skeletons on [0, 1], stored as their deepest level.

Scales are dyadic throughout: level m names interval width 2**-m, and a
compact subset of [0, 1] is represented by the sorted indices of the
level-m intervals that meet it, for every m up to a finite depth; a
valid skeleton is determined by its deepest level alone.  Index
counts stand in for covering numbers: a set of diameter 2**-m meets at
most two level-m intervals, and the exponents extracted from window
ratios are insensitive to bounded factors like that.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .windows import NeighborTable, RunTable, leaf_gaps

__all__ = ["DyadicTree"]


class SetValue:
    """Base of the set classes: a set is a value.

    No field can be assigned once `__init__` has assigned `_memo` (last),
    nor deleted, so a set never changes after it is built.  Every value
    derived from it, the windows `spectra` has solved on it included, is
    one entry of `_memo`, built on first use by `_cached`.  Equality and
    hashing compare the tuple each class's `_key()` returns.
    """

    __slots__ = ("_memo",)

    def __setattr__(self, name, value):
        if hasattr(self, "_memo"):
            raise AttributeError(f"{type(self).__name__} is read-only; build a new set")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only; build a new set")

    def _cached(self, key, build, *args):
        """The memo entry `key`, set to build(*args) on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(*args)
        return value

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class DyadicTree(SetValue):
    """The dyadic intervals meeting a compact set, stored as the deepest level.

    A valid tree is prefix closed (a present node's parent is present) and
    has no dangling node (every node above the deepest level has a present
    child), so level m is exactly the set of leaves (the level-depth
    indices) shifted right by depth - m.  A tree therefore holds three
    things: `depth`, the sorted tuple `leaves`, and the read-only int64
    array `gaps` of adjacent widths (a ^ b).bit_length(), each at most
    depth.  Two leaves fall into one level-m node exactly when every gap
    between them is at most depth - m, so level counts, run tables and
    witnesses all derive from the leaves and the gaps.

    `DyadicTree(depth, leaves)` sorts and deduplicates the leaves and
    raises ValueError for a negative depth or a leaf outside
    [0, 2**depth); every tree it builds is valid.  The fields are
    read-only: build a new tree to change one.  The run table and the
    neighbor table are built once, as entries of the tree's memo.
    """

    __slots__ = ("depth", "leaves", "gaps")

    def __init__(self, depth: int, leaves: Iterable[int]):
        depth = int(depth)
        if depth < 0:
            raise ValueError(f"negative depth {depth}")
        xs = [int(x) for x in leaves]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            xs = sorted(set(xs))
        if xs and not (0 <= xs[0] and xs[-1].bit_length() <= depth):
            raise ValueError(f"leaf out of range at depth {depth}")
        self.depth = depth
        self.leaves = tuple(xs)
        self.gaps = leaf_gaps(self.leaves)
        self.gaps.flags.writeable = False
        self._memo = {}

    def level(self, m: int) -> tuple[int, ...]:
        """Sorted indices of level m: the leaves shifted right by depth - m,
        deduplicated, derived on each call and not kept."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} outside [0, {self.depth}]")
        s = self.depth - m
        xs = self.leaves
        if not xs:
            return ()
        keep = np.flatnonzero(self.gaps > s) + 1
        return (xs[0] >> s, *(xs[i] >> s for i in keep.tolist()))

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
        return self._cached("runs", RunTable, self.gaps, len(self.leaves))

    def neighbor_table(self) -> NeighborTable:
        """The all-windows neighborhood count table, built once."""
        return self._cached("nbrs", NeighborTable, self.leaves, self.gaps, self.depth)

    def node_count(self) -> int:
        if not self.leaves:
            return 0
        return self.depth + 1 + int(self.gaps.sum())

    def is_empty(self) -> bool:
        return not self.leaves

    def _key(self) -> tuple:
        return self.depth, self.leaves

    def __repr__(self) -> str:
        return f"DyadicTree(depth={self.depth}, nodes={self.node_count()})"
