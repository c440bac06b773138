"""Interval arithmetic, tree structure and localized counting."""

from fractions import Fraction

import pytest

from fds.dyadic import (
    DyadicInterval,
    DyadicTree,
    WindowQuery,
    children,
    embed,
    level_count,
    local_count,
    max_alpha,
    merge,
    neighbors,
    parent,
    validate,
)
from fds.constructions import full_binary_tree, geometric_sequence_tree, left_path_tree

from conftest import oracle_local_count, oracle_window_alpha


def test_parent():
    assert parent(DyadicInterval(3, 5)) == DyadicInterval(2, 2)
    assert parent(DyadicInterval(1, 1)) == DyadicInterval(0, 0)
    with pytest.raises(ValueError):
        parent(DyadicInterval(0, 0))


def test_children():
    assert children(DyadicInterval(0, 0)) == (DyadicInterval(1, 0), DyadicInterval(1, 1))
    assert children(DyadicInterval(2, 3)) == (DyadicInterval(3, 6), DyadicInterval(3, 7))
    assert children(DyadicInterval(5, 0)) == (DyadicInterval(6, 0), DyadicInterval(6, 1))


def test_neighbors():
    assert neighbors(DyadicInterval(2, 0)) == (DyadicInterval(2, 1),)
    assert neighbors(DyadicInterval(2, 3)) == (DyadicInterval(2, 2),)
    assert neighbors(DyadicInterval(3, 4)) == (DyadicInterval(3, 3), DyadicInterval(3, 5))


def test_interval_geometry():
    v = DyadicInterval(3, 5)
    assert v.width == Fraction(1, 8)
    assert v.left == Fraction(5, 8)
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)


def test_validate_full_tree_clean():
    assert validate(full_binary_tree(3)) == []


def test_validate_missing_parent():
    levels = [[0], [0], [0, 3]]  # (2,3) present, (1,1) absent
    bad = validate(levels)
    kinds = {(v.kind, v.level, v.index) for v in bad}
    assert ("missing-parent", 2, 3) in kinds
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        DyadicTree(levels)


def test_validate_dangling():
    levels = [[0], [0, 1], [2]]  # (1,0) has no child at level 2
    bad = validate(levels)
    assert ("dangling", 1, 0) in {(v.kind, v.level, v.index) for v in bad}
    with pytest.raises(ValueError, match=r"dangling node \(1, 0\)"):
        DyadicTree(levels)


def test_level_count_full_and_path():
    assert level_count(full_binary_tree(4), 3) == 8
    assert level_count(left_path_tree(8), 7) == 1
    with pytest.raises(ValueError):
        level_count(left_path_tree(8), 9)


def test_level_count_geometric_by_enumeration():
    # oracle: place 0 and 2**-k (k = 1..10) into half-open level-10 bins
    depth = 10
    pts = [Fraction(0)] + [Fraction(1, 1 << k) for k in range(1, depth + 1)]
    bins = {(p * (1 << depth)).__floor__() for p in pts}
    t = geometric_sequence_tree(depth)
    assert level_count(t, depth) == len(bins) == 11
    assert validate(t) == []


def test_geometric_level_indices():
    t = geometric_sequence_tree(3)
    assert t.levels[3] == (0, 1, 2, 4)


def test_local_count_full_binary():
    t = full_binary_tree(6)
    v = DyadicInterval(2, 1)
    assert local_count(t, v, 5, neighbor_mode=False) == 8
    assert local_count(t, v, 5, neighbor_mode=True) == 24
    assert local_count(left_path_tree(8), DyadicInterval(2, 0), 6) == 1


def test_local_count_errors():
    t = full_binary_tree(4)
    with pytest.raises(ValueError):
        local_count(left_path_tree(4), DyadicInterval(2, 1), 3)  # absent node
    with pytest.raises(ValueError):
        local_count(t, DyadicInterval(2, 1), 7)  # beyond depth
    with pytest.raises(ValueError):
        local_count(t, DyadicInterval(2, 1), 2)  # not below the node


def test_local_count_matches_oracle():
    t = geometric_sequence_tree(12)
    for m in (1, 3, 5):
        for k in t.levels[m]:
            for mp in (m + 1, m + 3, 12):
                for nb in (False, True):
                    got = local_count(t, DyadicInterval(m, k), mp, nb)
                    want = oracle_local_count(t, m, k, mp, nb)
                    assert got == want, (m, k, mp, nb)


def test_max_alpha_examples():
    full = full_binary_tree(8)
    a, wit = max_alpha(full, WindowQuery(2, 6))
    assert a == 1.0 and wit.index == 0
    a, _ = max_alpha(left_path_tree(10), WindowQuery(3, 9))
    assert a == 0.0
    with pytest.raises(ValueError):
        max_alpha(DyadicTree([[]]), WindowQuery(0, 1))


def test_max_alpha_two_phase_matches_prefix_sums():
    from fds.constructions import TwoPhaseParams, two_phase_schedule
    from fds.schedule import materialize

    sched = two_phase_schedule(TwoPhaseParams(Fraction(1, 2), Fraction(1, 1), 4, 1))
    assert sched.depth == 16
    tree = materialize(sched)
    a, _ = max_alpha(tree, WindowQuery(8, 16))
    assert a == (sched.prefix(16) - sched.prefix(8)) / 8


def test_max_alpha_matches_oracle_on_geometric():
    t = geometric_sequence_tree(16)
    for m, mp in [(1, 5), (3, 11), (8, 16), (2, 16)]:
        for nb in (False, True):
            got, wit = max_alpha(t, WindowQuery(m, mp, nb))
            want, want_k = oracle_window_alpha(t, m, mp, nb)
            assert got == want
            assert wit.index == want_k


def test_embed_examples():
    root = DyadicTree([[0]])
    assert embed(root, 1).levels == ((0,), (1,))
    e3 = embed(root, 3)
    assert e3.levels == ((0,), (0,), (0,), (1,))
    full2 = full_binary_tree(2)
    assert embed(full2, 2).levels[4] == (4, 5, 6, 7)


def test_embed_preserves_level_counts():
    t = geometric_sequence_tree(8)
    e = embed(t, 3)
    assert validate(e) == []
    for m in range(t.depth + 1):
        assert level_count(e, m + 3) == level_count(t, m)


def test_merge_disjoint_counts_add():
    a = embed(full_binary_tree(3), 1)
    b = embed(full_binary_tree(3), 2)
    m = merge([a, b])
    assert level_count(m, 4) == level_count(a, 4) + level_count(b, 4)
    assert validate(m) == []


def test_merge_empty_with_origin_is_origin_path():
    m = merge([], include_origin=True, depth=5)
    assert m.levels == ((0,),) * 6


def test_merge_idempotent():
    t = geometric_sequence_tree(6)
    assert merge([t, t]) == t


def test_merge_pads_shorter_inputs():
    short = full_binary_tree(2)
    deep = left_path_tree(5)
    m = merge([short, deep])
    assert m.depth == 5
    assert validate(m) == []
    # the shorter tree continues along left endpoints
    assert level_count(m, 5) == 4
