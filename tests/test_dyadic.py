"""Tree structure, the v1 reader's validation and localized counting."""

from fractions import Fraction

import pytest

from fds.dyadic import DyadicTree
from fds.errors import FormatError
from fds.formats import parse_tree
from fds.constructions import full_binary_tree, geometric_sequence_tree, left_path_tree

from conftest import (
    assert_read_only,
    embed,
    levels,
    local_count,
    max_alpha,
    merge,
    oracle_local_count,
    oracle_window_alpha,
    v1_text,
)


def test_parent():
    # every level is exactly the parents of the level below it
    for t in (geometric_sequence_tree(9), full_binary_tree(4), left_path_tree(6)):
        for m in range(1, t.depth + 1):
            assert t.level(m - 1) == tuple(sorted({k >> 1 for k in t.level(m)}))
    assert DyadicTree(3, [5]).level(2) == (2,)


def test_children():
    t = DyadicTree(6, [0, 1, 2, 3])
    assert t.level(5) == (0, 1)  # the two halves of (4, 0)
    assert t.level(4) == (0,)
    assert DyadicTree(3, [6, 7]).level(2) == (3,)  # (2, 3) keeps both halves


def test_neighbors():
    # the neighbor count of an edge node omits the side outside [0, 1]
    t = full_binary_tree(5)
    assert local_count(t, 2, 0, 4, neighbors=True) == 8
    assert local_count(t, 2, 3, 4, neighbors=True) == 8
    assert local_count(t, 3, 4, 5, neighbors=True) == 12


def test_interval_geometry():
    # the constructor's leaf range and order checks
    with pytest.raises(ValueError):
        DyadicTree(2, [4])
    with pytest.raises(ValueError):
        DyadicTree(-1, [])
    with pytest.raises(ValueError):
        DyadicTree(3, [-1, 2])
    assert DyadicTree(3, [5, 1, 5]).leaves == (1, 5)
    assert DyadicTree(3, [7]).level(0) == (0,)


def test_tree_fields_are_read_only():
    t = full_binary_tree(4)
    t.level(2)
    t.run_table()
    assert_read_only(t, ["depth", "leaves", "gaps"])
    assert t == full_binary_tree(4) and t.level(2) == (0, 1, 2, 3)


def test_validate_full_tree_clean():
    t = full_binary_tree(3)
    assert parse_tree(v1_text(levels(t))) == t


def test_v1_parse_leaves_the_memo_empty():
    """The fds-tree 1 reader derives every level once to check it; the
    tree keeps none of them, before or after another `level` call."""
    t = full_binary_tree(6)
    parsed = parse_tree(v1_text(levels(t)))
    assert parsed == t and parsed._memo == {}
    assert parsed.level(3) == tuple(range(8)) and parsed._memo == {}


def test_validate_missing_parent():
    lv = [[0], [0], [0, 3]]  # (2,3) present, (1,1) absent
    with pytest.raises(FormatError, match=r"\(2, 3\)"):
        parse_tree(v1_text(lv))


def test_validate_dangling():
    lv = [[0], [0, 1], [2]]  # (1,0) has no child at level 2
    with pytest.raises(FormatError, match=r"dangling node \(1, 0\)"):
        parse_tree(v1_text(lv))


def test_level_count_full_and_path():
    assert int(full_binary_tree(4).level_sizes(3)) == 8
    assert int(left_path_tree(8).level_sizes(7)) == 1
    with pytest.raises(ValueError):
        left_path_tree(8).level(9)


def test_level_count_geometric_by_enumeration():
    # oracle: place 0 and 2**-k (k = 1..10) into half-open level-10 bins
    depth = 10
    pts = [Fraction(0)] + [Fraction(1, 1 << k) for k in range(1, depth + 1)]
    bins = {(p * (1 << depth)).__floor__() for p in pts}
    t = geometric_sequence_tree(depth)
    assert int(t.level_sizes(depth)) == len(bins) == 11
    assert t.level(depth) == tuple(sorted(bins))


def test_geometric_level_indices():
    t = geometric_sequence_tree(3)
    assert t.level(3) == (0, 1, 2, 4)


def test_local_count_full_binary():
    t = full_binary_tree(6)
    assert local_count(t, 2, 1, 5, neighbors=False) == 8
    assert local_count(t, 2, 1, 5, neighbors=True) == 24
    assert local_count(left_path_tree(8), 2, 0, 6) == 1


def test_local_count_errors():
    t = full_binary_tree(4)
    with pytest.raises(ValueError):
        local_count(left_path_tree(4), 2, 1, 3)  # absent node
    with pytest.raises(ValueError):
        local_count(t, 2, 1, 7)  # beyond depth
    with pytest.raises(ValueError):
        local_count(t, 2, 1, 2)  # not below the node


def test_local_count_matches_oracle():
    t = geometric_sequence_tree(12)
    for m in (1, 3, 5):
        for k in t.level(m):
            for mp in (m + 1, m + 3, 12):
                for nb in (False, True):
                    got = local_count(t, m, k, mp, nb)
                    want = oracle_local_count(t, m, k, mp, nb)
                    assert got == want, (m, k, mp, nb)


def test_max_alpha_examples():
    full = full_binary_tree(8)
    a, wit = max_alpha(full, 2, 6)
    assert a == 1.0 and wit == 0
    a, _ = max_alpha(left_path_tree(10), 3, 9)
    assert a == 0.0
    with pytest.raises(ValueError):
        max_alpha(DyadicTree(0, []), 0, 1)


def test_max_alpha_two_phase_matches_prefix_sums():
    from fds.constructions import TwoPhaseParams, two_phase_schedule
    from fds.schedule import materialize

    sched = two_phase_schedule(TwoPhaseParams(Fraction(1, 2), Fraction(1, 1), 4, 1))
    assert sched.depth == 16
    tree = materialize(sched)
    a, _ = max_alpha(tree, 8, 16)
    assert a == (sched.prefix(16) - sched.prefix(8)) / 8


def test_max_alpha_matches_oracle_on_geometric():
    t = geometric_sequence_tree(16)
    for m, mp in [(1, 5), (3, 11), (8, 16), (2, 16)]:
        for nb in (False, True):
            got, wit = max_alpha(t, m, mp, nb)
            want, want_k = oracle_window_alpha(t, m, mp, nb)
            assert got == want
            assert wit == want_k


def test_embed_examples():
    root = DyadicTree(0, [0])
    assert levels(embed(root, 1)) == ((0,), (1,))
    e3 = embed(root, 3)
    assert levels(e3) == ((0,), (0,), (0,), (1,))
    full2 = full_binary_tree(2)
    assert embed(full2, 2).level(4) == (4, 5, 6, 7)


def test_embed_preserves_level_counts():
    t = geometric_sequence_tree(8)
    e = embed(t, 3)
    for m in range(t.depth + 1):
        assert int(e.level_sizes(m + 3)) == int(t.level_sizes(m))
        assert e.level(m + 3) == tuple((1 << m) + k for k in t.level(m))


def test_merge_disjoint_counts_add():
    a = embed(full_binary_tree(3), 1)
    b = embed(full_binary_tree(3), 2)
    m = merge([a, b])
    assert int(m.level_sizes(4)) == int(a.level_sizes(4)) + int(b.level_sizes(4))
    assert m.level(4) == tuple(sorted(a.level(4) + b.level(4)))


def test_merge_empty_with_origin_is_origin_path():
    m = merge([], include_origin=True, depth=5)
    assert levels(m) == ((0,),) * 6


def test_merge_idempotent():
    t = geometric_sequence_tree(6)
    assert merge([t, t]) == t


def test_merge_pads_shorter_inputs():
    short = full_binary_tree(2)
    deep = left_path_tree(5)
    m = merge([short, deep])
    assert m.depth == 5
    assert m.level(2) == (0, 1, 2, 3)
    # the shorter tree continues along left endpoints
    assert int(m.level_sizes(5)) == 4
    assert m.level(5) == (0, 8, 16, 24)
