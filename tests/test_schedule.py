"""Schedule analytics, materialization and composite counting."""

import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

from fds import schedule
from fds.dyadic import DyadicTree, SetValue
from fds.errors import BudgetError
from fds.schedule import (
    MAX_MATERIALIZE_NODES,
    BranchingSchedule,
    CompositeSet,
    composite_spectrum,
    composite_upper,
    materialize,
    origin_log_counts,
)
from fds.constructions import (
    TwoPhaseParams,
    concave_union,
    full_binary_tree,
    target_from_poly,
    two_phase_schedule,
)
from fds.spectra import estimate_spectrum, estimate_upper, verify_main_theorem
from fds.windows import RationalScale, RootScale, Workspace, region_max

from conftest import (
    assert_read_only,
    assert_skipped_blocks_lose,
    local_count,
    materialize_composite,
    oracle_composite_spectrum,
    oracle_extended_prefix,
    oracle_origin_log_counts,
    oracle_schedule_spectrum,
    oracle_schedule_upper,
    random_schedule,
    traced_peak,
)


def test_run_normalization():
    s = BranchingSchedule([(2, 1), (1, 1), (3, 2)])
    assert s.runs == ((3, 1), (3, 2))
    assert s.depth == 6
    with pytest.raises(ValueError):
        BranchingSchedule([(0, 1)])
    with pytest.raises(ValueError):
        BranchingSchedule([(1, 3)])


def test_runs_are_read_only_int64_arrays():
    runs = np.array([[2, 1], [1, 1], [3, 2]], dtype=np.int64)
    s = BranchingSchedule(runs)
    merged = np.array([[2, 1], [3, 2]], dtype=np.int64)
    t = BranchingSchedule(merged)
    runs[0, 0] = merged[0, 0] = 99  # the schedule keeps its own copy, merged or not
    assert s.lengths.tolist() == [3, 3] and s.counts.tolist() == [1, 2]
    assert t.lengths.tolist() == [2, 3] and t.counts.tolist() == [1, 2]
    assert s.lengths.dtype == s.counts.dtype == np.int64
    with pytest.raises(ValueError):
        s.lengths[0] = 1
    with pytest.raises(ValueError):
        s.prefix_array()[0] = 1
    assert BranchingSchedule([]).depth == 0
    assert BranchingSchedule(runs) == BranchingSchedule([(100, 1), (3, 2)])
    assert hash(BranchingSchedule([(1, 2), (2, 2)])) == hash(BranchingSchedule([(3, 2)]))
    with pytest.raises(ValueError, match="pairs"):
        BranchingSchedule([(1, 2, 3)])


def test_validation_reports_first_offending_run():
    with pytest.raises(ValueError, match="^run length must be positive, got 0$"):
        BranchingSchedule([(3, 1), (0, 2), (2, 5), (-1, 1)])
    with pytest.raises(ValueError, match="^child count must be 1 or 2, got 5$"):
        BranchingSchedule([(3, 1), (2, 5), (0, 2)])
    with pytest.raises(ValueError, match="^run length must be positive, got -4$"):
        BranchingSchedule([(-4, 3)])


@pytest.mark.parametrize("runs", [
    [(2**63, 2)],
    [(2**62, 2), (2**62, 1)],  # the sum wraps
    [(2**62, 2), (2**62, 2)],  # merging the equal neighbours would wrap
    [(2**63 - 1, 1), (1, 2)],
])
def test_int64_overflow_rejected(runs):
    with pytest.raises(ValueError, match="int64"):
        BranchingSchedule(runs)


def test_prefix_counts():
    s = BranchingSchedule([(1, 2), (1, 2), (1, 1), (1, 2)])
    assert [s.prefix(m) for m in range(5)] == [0, 1, 2, 2, 3]
    assert list(s.prefix_array()) == [0, 1, 2, 2, 3]
    assert s.prefix(3) - s.prefix(2) == 0  # c_3 == 1
    assert s.prefix(4) - s.prefix(3) == 1  # c_4 == 2


def test_analytic_local_count_examples():
    # every level-m node has 2**(S[m'] - S[m]) descendants at level m'
    s = BranchingSchedule([(2, 2), (1, 1), (1, 2)])
    assert s.prefix(4) - s.prefix(1) == 2  # descendant count 4
    quiet = BranchingSchedule([(9, 1)])
    assert quiet.prefix(7) - quiet.prefix(2) == 0
    full = BranchingSchedule([(12, 2)])
    assert full.prefix(12) - full.prefix(0) == 12
    with pytest.raises(ValueError):
        s.prefix(9)


def test_analytic_alpha_examples():
    s = BranchingSchedule([(2, 2), (1, 1), (1, 2)])
    assert Fraction(s.prefix(4) - s.prefix(1), 4 - 1) == Fraction(2, 3)
    full = BranchingSchedule([(30, 2)])
    assert Fraction(full.prefix(17) - full.prefix(3), 17 - 3) == 1


def test_analytic_spectrum_trivial():
    half = [Fraction(1, 2)]
    full = BranchingSchedule([(64, 2)])
    assert estimate_spectrum(full, half, (4, 32)).values == [1.0]
    quiet = BranchingSchedule([(64, 1)])
    assert estimate_spectrum(quiet, half, (4, 32)).values == [0.0]
    with pytest.raises(ValueError):
        estimate_spectrum(full, half, (33, 40))  # 33/0.5 > 64


def test_analytic_spectrum_two_phase_full_range():
    sched = two_phase_schedule(TwoPhaseParams(Fraction(1, 2), Fraction(1, 1), 4, 3))
    theta = Fraction(1, 4)
    top = sched.depth // 4
    (value,) = estimate_spectrum(sched, [theta], (1, top)).values
    assert abs(value - Fraction(2, 3)) <= 0.05
    # the closed form min{s/(1-theta), t} evaluated directly
    assert Fraction(1, 2) / (1 - theta) == Fraction(2, 3)


def test_analytic_upper_dominates_and_matches_oracle():
    rng = random.Random(99)
    for _ in range(25):
        s = random_schedule(rng, max_depth=40)
        if s.depth < 6:
            continue
        lo, hi = 1, s.depth // 3
        if hi < lo:
            continue
        theta = Fraction(rng.randint(1, 8), 9)
        if hi > theta * s.depth:
            hi = int(theta * s.depth)
        if hi < lo:
            continue
        (spec,) = estimate_spectrum(s, [theta], (lo, hi)).values
        (up,) = estimate_upper(s, [theta], (lo, hi)).values
        assert up >= spec
        assert up == oracle_schedule_upper(s, theta, lo, hi)
        assert spec == oracle_schedule_spectrum(s, theta, lo, hi)


def test_upper_matches_exhaustive_oracle_at_reduced_depth():
    sched = two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 2))
    assert sched.depth == 256
    theta = Fraction(9, 10)
    lo, hi = 64, 230
    (up,) = estimate_upper(sched, [theta], (lo, hi)).values
    assert up == oracle_schedule_upper(sched, theta, lo, hi)
    assert abs(up - 0.8) <= 0.05


def test_materialize_examples():
    full = materialize(BranchingSchedule([(4, 2)]))
    assert int(full.level_sizes(4)) == 16
    path = materialize(BranchingSchedule([(6, 1)]))
    assert path.level(6) == (0,)
    mixed = materialize(BranchingSchedule([(1, 2), (1, 1), (1, 2)]))
    assert mixed.level(3) == (0, 1, 4, 5)
    with pytest.raises(BudgetError):
        materialize(BranchingSchedule([(40, 2)]))


def test_materialize_node_budget_boundary():
    """The budget counts the nodes below the root: a path of exactly
    MAX_MATERIALIZE_NODES levels is accepted, one level more is not, and
    runs far past the budget, branching or not, are rejected in closed
    form with the same message."""
    budget = MAX_MATERIALIZE_NODES
    assert budget == 1 << 22
    assert materialize(BranchingSchedule([(budget, 1)])).node_count() == budget + 1
    for runs in ([(budget + 1, 1)], [(1 << 62, 1)], [(21, 2), (3, 1)], [(2, 2), (1 << 40, 2)]):
        with pytest.raises(BudgetError, match=f"needs more than {budget} nodes"):
            materialize(BranchingSchedule(runs))


def test_oracle_equivalence_materialized():
    rng = random.Random(5)
    for _ in range(10):
        s = random_schedule(rng, max_depth=12)
        tree = materialize(s)
        for m in range(s.depth):
            for mp in range(m + 1, s.depth + 1):
                want = s.prefix(mp) - s.prefix(m)
                for k in tree.level(m):
                    got = local_count(tree, m, k, mp)
                    assert got == (1 << want)


def test_composite_validation():
    s = BranchingSchedule([(4, 1)])
    with pytest.raises(ValueError):
        CompositeSet([(0, s)])
    with pytest.raises(ValueError):
        CompositeSet([(2, s), (2, s)])
    cs = CompositeSet([(1, s), (3, s)])
    assert cs.depth == 7


def test_composite_single_component_shift_invariance():
    # global windows through the shifted copy carry unchanged exponents
    s = BranchingSchedule([(2, 2), (3, 1), (4, 2), (3, 1)])
    e = 3
    cs = CompositeSet([(e, s)], include_origin=False)
    theta = Fraction(1, 2)
    lo, hi = e, cs.depth // 2
    (value,) = estimate_spectrum(cs, [theta], (lo, hi)).values
    from fds.windows import RationalScale

    sc = RationalScale(theta)
    best = max(
        (s.prefix(min(sc.fine(m), cs.depth) - e) - s.prefix(m - e))
        / (sc.fine(m) - m)
        for m in range(lo, hi + 1)
    )
    assert value == best


def test_composite_two_quiet_components_zero():
    q = BranchingSchedule([(20, 1)])
    cs = CompositeSet([(2, q), (4, q)], include_origin=True)
    assert estimate_spectrum(cs, [Fraction(1, 2)], (5, 10)).values == [0.0]


def test_composite_matches_materialized_tree():
    # small union: composite analytics vs the fully expanded tree
    a = BranchingSchedule([(1, 2), (2, 1), (3, 2), (2, 1)])
    b = BranchingSchedule([(4, 1), (4, 2)])
    cs = CompositeSet([(1, a), (3, b)], include_origin=True)
    tree = materialize_composite(cs)
    grid = [Fraction(k, 10) for k in (2, 4, 6, 8)]
    for lo, hi in [(1, 4), (2, 5)]:
        es_c = estimate_spectrum(cs, grid, (lo, hi))
        es_t = estimate_spectrum(tree, grid, (lo, hi))
        for vc, vt in zip(es_c.values, es_t.values):
            assert vc == pytest.approx(vt, abs=1e-12)
        eu_c = estimate_upper(cs, grid, (lo, hi))
        eu_t = estimate_upper(tree, grid, (lo, hi))
        for vc, vt in zip(eu_c.values, eu_t.values):
            assert vc == pytest.approx(vt, abs=1e-12)


def test_composite_level_counts_match_tree():
    import math

    a = BranchingSchedule([(1, 2), (2, 1), (3, 2)])
    b = BranchingSchedule([(2, 1), (2, 2)])
    cs = CompositeSet([(1, a), (4, b)], include_origin=True)
    tree = materialize_composite(cs)
    logs = origin_log_counts(cs, 0)
    assert len(logs) == cs.depth + 1
    for m in range(cs.depth + 1):
        assert float(logs[m]) == pytest.approx(
            math.log2(int(tree.level_sizes(m))), abs=1e-12
        )


def test_composite_upper_dominates_spectrum():
    a = BranchingSchedule([(1, 2), (2, 1), (3, 2), (2, 1)])
    cs = CompositeSet([(2, a)], include_origin=True)
    for th in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        lo, hi = 1, int(th * cs.depth)
        sp = estimate_spectrum(cs, [th], (lo, hi))
        up = estimate_upper(cs, [th], (lo, hi))
        assert up.values[0] >= sp.values[0]


def test_composite_hashable():
    a = BranchingSchedule([(1, 2), (2, 1)])
    cs = CompositeSet([(1, a), (3, a)])
    same = CompositeSet([(1, BranchingSchedule([(1, 2), (2, 1)])), (3, a)])
    no_origin = CompositeSet([(1, a), (3, a)], include_origin=False)
    assert cs == same and hash(cs) == hash(same)
    assert cs != no_origin
    assert len({cs, same, no_origin}) == 2


def test_composite_rejects_a_component_that_is_not_a_schedule():
    s = BranchingSchedule([(4, 1)])
    for bad in (DyadicTree(4, [0, 3]), (1, 2)):
        with pytest.raises(TypeError, match=f"component 1 is a {type(bad).__name__}"):
            CompositeSet([(1, s), (2, bad)])


# ----------------------------------------------------------------------
# sets are values: read-only fields, one memo per set


def test_schedule_fields_are_read_only():
    s = BranchingSchedule([(2, 1), (3, 2)])
    s.prefix_array()
    assert_read_only(s, ["lengths", "counts", "depth"])
    assert s.runs == ((2, 1), (3, 2)) and s.prefix(5) == 3


def test_composite_fields_are_read_only():
    s = BranchingSchedule([(4, 2)])
    cs = CompositeSet([(1, s), (3, s)])
    assert cs.depth == 7 and cs.shifts == (1, 3)
    origin_log_counts(cs, 1)
    assert_read_only(cs, ["components", "include_origin", "depth", "shifts"])


def test_extended_prefix_is_read_only():
    """A component shallower than the union is extended past its depth in
    a new array, the memo entry every later caller reads: it is read-only
    like the prefix array that the deepest component reads, here one
    schedule at two shifts."""
    s = BranchingSchedule([(4, 2)])
    cs = CompositeSet([(1, s), (3, s)])
    for i in (0, 1):
        with pytest.raises(ValueError):
            cs.extended_prefix(i)[-1] = 99
        assert np.array_equal(cs.extended_prefix(i), oracle_extended_prefix(cs, i))
    assert cs.extended_prefix(0)[-1] == 4 and cs.extended_prefix(0).size == 7
    assert np.shares_memory(cs.extended_prefix(1), s.prefix_array())


def test_reassigning_a_field_cannot_leave_a_stale_answer():
    """Each assignment that used to leave a set answering for its old
    fields raises, and the set answers as a new equal set does."""
    half = [Fraction(1, 2)]
    s = BranchingSchedule([(12, 1)])
    cs = CompositeSet([(4, s), (8, s)])
    assert estimate_spectrum(cs, half, (4, 7)).values == [0.25]
    with pytest.raises(AttributeError):
        cs.include_origin = False
    no_origin = CompositeSet([(4, s), (8, s)], include_origin=False)
    assert estimate_spectrum(no_origin, half, (4, 7)).values == [0.0]
    assert estimate_spectrum(cs, half, (4, 7)).values == [0.25]

    t = full_binary_tree(6)
    assert estimate_upper(t, half).values == [1.0]
    with pytest.raises(AttributeError):
        t.leaves = (0,)
    assert estimate_upper(DyadicTree(6, [0]), half).values == [0.0]
    assert estimate_upper(t, half).values == [1.0]

    two = BranchingSchedule([(3, 1), (5, 2)])
    before, key = estimate_upper(two, half), hash(two)
    with pytest.raises(AttributeError):
        two.counts = np.array([1, 1], dtype=np.int64)
    assert estimate_upper(two, half) == before and hash(two) == key


def test_set_classes_hold_one_memo_slot():
    """Each set class's own slots are its public fields, and the one cache
    slot is the base's memo."""
    assert SetValue.__slots__ == ("_memo",)
    assert DyadicTree.__slots__ == ("depth", "leaves", "gaps")
    assert BranchingSchedule.__slots__ == ("lengths", "counts", "depth")
    assert CompositeSet.__slots__ == ("components", "include_origin", "depth", "shifts")
    for cls in (DyadicTree, BranchingSchedule, CompositeSet):
        assert cls.__mro__ == (cls, SetValue, object)


def test_equal_sets_stay_equal_as_their_memos_fill():
    """Sets built different ways are equal and hash equal, before and after
    one of them fills its memo, and their repr is the fields'."""
    a = BranchingSchedule([(1, 2), (2, 1)])
    cases = [
        (BranchingSchedule([(2, 1), (1, 1), (3, 2)]), BranchingSchedule([(3, 1), (3, 2)]),
         lambda s: s.prefix_array(), "BranchingSchedule(depth=6, runs=2)"),
        (DyadicTree(5, [9, 3, 9, 0]), DyadicTree(5, [0, 3, 9]),
         lambda t: (t.level(2), t.run_table(), t.neighbor_table()),
         "DyadicTree(depth=5, nodes=12)"),
        (CompositeSet([(1, a), (3, a)]),
         CompositeSet([(1, BranchingSchedule([(1, 2), (1, 1), (1, 1)])), (3, a)]),
         lambda cs: estimate_upper(cs, [Fraction(1, 2)]),
         "CompositeSet(components=2, depth=6, origin=True)"),
    ]
    for x, y, fill, text in cases:
        assert x == y and hash(x) == hash(y)
        fill(x)
        assert x._memo and not y._memo
        assert x == y and hash(x) == hash(y) and {x, y} == {y}
        assert repr(x) == repr(y) == text
    assert cases[0][0] != cases[1][0] and cases[1][0] != cases[2][0]


A_RUNS = [(1, 2), (2, 1), (3, 2), (2, 1)]
Q_RUNS = [(20, 1)]


@pytest.mark.parametrize("cs, m_range, spectrum, upper", [
    # components at shifts 1, 2, 3; the witness node is 2**(m - e) for a
    # component at shift e and 0 for the node holding the origin
    (CompositeSet([(1, BranchingSchedule(A_RUNS)), (2, BranchingSchedule(A_RUNS)),
                   (3, BranchingSchedule(A_RUNS))]), None,
     [(2, 7, 2), (2, 4, 0), (2, 3, 0)], [(2, 8, 1), (2, 4, 0), (2, 3, 0)]),
    (CompositeSet([(1, BranchingSchedule(A_RUNS)), (2, BranchingSchedule(A_RUNS)),
                   (3, BranchingSchedule(A_RUNS))]), (1, 11),
     [(1, 4, 0), (1, 2, 0), (1, 2, 0)], [(1, 4, 0), (1, 2, 0), (1, 2, 0)]),
    # two quiet components: every window has exponent 0, so ties go to the
    # smallest m, then m', then the lowest component
    (CompositeSet([(2, BranchingSchedule(Q_RUNS)), (4, BranchingSchedule(Q_RUNS))]), None,
     [(6, 20, 16), (6, 12, 16), (6, 9, 16)], [(6, 20, 16), (6, 12, 16), (6, 9, 16)]),
    (CompositeSet([(2, BranchingSchedule(Q_RUNS)), (4, BranchingSchedule(Q_RUNS))]), (1, 24),
     [(1, 4, 0), (1, 2, 0), (1, 2, 0)], [(1, 4, 0), (1, 2, 0), (1, 2, 0)]),
    (CompositeSet([(2, BranchingSchedule(Q_RUNS)), (4, BranchingSchedule(Q_RUNS))],
                  include_origin=False), None,
     [(6, 20, 16), (6, 12, 16), (6, 9, 16)], [(6, 20, 16), (6, 12, 16), (6, 9, 16)]),
    (CompositeSet([(2, BranchingSchedule(Q_RUNS)), (4, BranchingSchedule(Q_RUNS))],
                  include_origin=False), (1, 24),
     [(1, 4, 0), (1, 2, 0), (1, 2, 0)], [(1, 4, 0), (1, 2, 0), (1, 2, 0)]),
])
def test_composite_witness_windows_and_nodes(cs, m_range, spectrum, upper):
    grid = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    assert estimate_spectrum(cs, grid, m_range).witnesses == spectrum
    assert estimate_upper(cs, grid, m_range).witnesses == upper


@pytest.mark.parametrize("composite", [False, True])
def test_composite_spectrum_rejects_unclamped_range(composite):
    """A coarse top whose fine level lies past the depth raises instead of
    reading a clipped prefix count."""
    s = BranchingSchedule(A_RUNS)
    rep = CompositeSet([(1, s), (2, s)]) if composite else s
    work = Workspace(rep.depth)
    for scale in (RationalScale(Fraction(1, 2)), RootScale(Fraction(1, 2), 2)):
        hi = scale.max_coarse(rep.depth)
        composite_spectrum(rep, scale, 1, hi, work)
        for top in (hi + 1, rep.depth):
            with pytest.raises(ValueError, match="past depth"):
                composite_spectrum(rep, scale, 1, top, work)


@pytest.mark.parametrize("composite", [False, True, "union"])
def test_schedule_kernels_allocate_no_depth_sized_array(composite):
    """With its caller's workspace, one composite_spectrum call (the ratio
    scale, and root scales of orders 2 and 16, whose m**16 passes int64)
    and one composite_upper call over every coarse level that has a
    window (nearly the whole depth at theta = 0.99) peak below one
    int64 array of that region's size, itself below depth + 1 entries, on
    the depth-2**16 two-phase schedule, on a two-component union of it,
    whose origin node's rows enter the range, and on the blocks=3
    concave union of 8 components.  On both unions composite_spectrum
    reads only the blocks that can win at the ratio scale and at order 2;
    at order 16 the pieces keep more cells than one workspace row holds,
    and it folds."""
    s = two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 3))
    rep = _union(3) if composite == "union" else CompositeSet([(2, s), (4, s)]) if composite else s
    depth = rep.depth
    work = Workspace(depth)
    theta = Fraction(99, 100)
    calls = [
        (composite_spectrum, RationalScale(theta)),
        (composite_spectrum, RootScale(theta, 2)),
        (composite_spectrum, RootScale(theta, 16)),
        (composite_upper, RationalScale(theta)),
    ]
    read = []
    blocks = schedule._read_blocks

    def spy(*args):
        found = blocks(*args)
        read.append(found is not None)
        return found

    for kernel, scale in calls:
        hi = scale.max_coarse(depth)
        first = kernel(rep, scale, 1, hi, work)  # fills the set's own caches
        found = []
        with patch.object(schedule, "_read_blocks", spy):
            peak = traced_peak(lambda: found.append(kernel(rep, scale, 1, hi, work)))
        assert peak < 8 * hi < 8 * (depth + 1), (kernel.__name__, scale, peak)
        assert found == [first]
    assert read == ([True, True, False] if composite else [])


def test_composite_upper_origin_rows_read_the_fine_array():
    """The origin node's rows take their fine levels from the fine array
    of the whole range: a 9-theta upper estimate over every coarse level of
    the 8-component concave union, whose origin rows lie below its last
    shift 256, makes no scalar fine call."""
    cs = concave_union(target_from_poly([Fraction(2, 5), Fraction(2, 5), Fraction(-1, 5)], 8),
                       blocks=3)
    assert cs.shifts[-1] == 256
    calls = []
    fine = RootScale.fine

    def counted(self, m):
        calls.append(m)
        return fine(self, m)

    with patch.object(RootScale, "fine", counted):
        est = estimate_upper(cs, [Fraction(k, 10) for k in range(1, 10)], (1, cs.depth))
    assert calls == []
    assert est.witnesses[0][:2] == (6579, 65791)


def test_composite_upper_carries_the_best_fraction_as_floor():
    """Each piece's solve gets the best exact value of the pieces before it
    as its floor, the first piece and a schedule's one piece none: a piece
    below the floor returns None, and one that ties it its own first
    window of that value, which loses on its larger m."""
    full, flat = BranchingSchedule([(6, 2)]), BranchingSchedule([(6, 1)])
    calls = []

    def spy(S, a, lo, work=None, floor=None):
        found = region_max(S, a, lo, work, floor)
        calls.append((floor, found))
        return found

    half = RationalScale(Fraction(1, 2))
    cs = CompositeSet([(1, full), (3, flat), (5, full)], include_origin=False)
    with patch.object(schedule, "region_max", spy):
        assert composite_upper(cs, half, 1, 5, Workspace(cs.depth)) == (1.0, 1, 2, 1)
        assert calls == [(None, (1.0, 0, 1)), ((1, 1), None), ((1, 1), (1.0, 0, 5))]
        calls.clear()
        assert composite_upper(full, half, 1, 3, Workspace(full.depth)) == (1.0, 1, 2, 0)
        assert calls == [(None, (1.0, 1, 2))]


# ----------------------------------------------------------------------
# one count array per component, origin rows without exact zeros


def _union(blocks):
    target = target_from_poly([Fraction(2, 5), Fraction(2, 5), Fraction(-1, 5)], 8)
    return concave_union(target, blocks=blocks)


def test_union_upper_runs_rounds_only_where_a_piece_can_win():
    """The blocks=3 union's upper at theta 1/2 and 7/10 over (D/4, D) cuts
    16 piece regions, 14 of them with a floor.  Rounds run on the two
    first pieces, which have none, and on the one piece that raises its
    floor; the block certificate settles the other 13 with no take.
    Values and witnesses are pinned from the solve by rounds alone."""
    cs = _union(3)
    D = cs.depth
    takes, regions = [], []
    take = np.take

    def counted(*args, **kw):
        takes.append(1)
        return take(*args, **kw)

    def spy(S, a, lo, work=None, floor=None):
        takes.clear()
        found = region_max(S, a, lo, work, floor)
        regions.append((floor is None or found is not None, len(takes) > 0))
        return found

    with patch.object(np, "take", counted), patch.object(schedule, "region_max", spy):
        est = estimate_upper(cs, [Fraction(1, 2), Fraction(7, 10)], (D // 4, D))
    assert len(regions) == 16 and [can for can, _ in regions].count(False) == 13
    assert all(can == rounds for can, rounds in regions), regions
    assert est.values == [0.5478348439073515, 0.5778298121441116]
    assert est.witnesses == [(32769, 65538, 1 << 32767), (43803, 62594, 1 << 43795)]


def _ladder(D):
    """union-sweep's coarse ranges: (D/4, D), then each rung's new levels."""
    return [(D // 4, D), (D // 8, D // 4 - 1), (D // 16, D // 8 - 1), (D // 512, D // 16 - 1)]


def _ladder_scales(thetas):
    for theta in thetas:
        yield RationalScale(theta)
        yield RootScale(theta, 2)
        yield RootScale(theta, 16)


def _spy_read_blocks(read):
    blocks = schedule._read_blocks

    def spy(*args):
        found = blocks(*args)
        read.append(found is not None)
        return found

    return patch.object(schedule, "_read_blocks", spy)


def test_union_spectrum_block_path_matches_the_oracle_on_the_ladder():
    """The blocks=3 union's fixed-ratio spectrum on union-sweep's ladder,
    the partial rungs included, with the block path taken from one level
    on, over a 19-theta grid at the ratio rule and root orders 2 and 16:
    value, m, m' and node equal the per-piece oracle's, and every window
    of a skipped block loses to the result.  Most calls read blocks; the
    others keep more cells than one workspace row holds, and fold."""
    cs = _union(3)
    D = cs.depth
    work = Workspace(D)
    read = []
    with patch.object(schedule, "SKIP_LEVELS", 0), _spy_read_blocks(read):
        for scale in _ladder_scales(Fraction(k, 20) for k in range(1, 20)):
            for lo, hi in _ladder(D):
                hi = min(hi, scale.max_coarse(D))
                if hi < lo:
                    continue
                found = composite_spectrum(cs, scale, lo, hi, work)
                assert found == oracle_composite_spectrum(cs, scale, lo, hi), (scale, lo, hi)
                # a path that read blocks had its samples and their mask
                assert assert_skipped_blocks_lose(cs, scale, lo, hi, found) or not read[-1]
    assert sum(read) > 0.8 * len(read), (sum(read), len(read))


def test_union_spectrum_block_bound_changes_no_byte():
    """With a bound that skips nothing, the block path reads every cell of
    the blocks=3 union's two lowest rungs (8 pieces of about D/16 levels,
    within one workspace row) and returns the bytes of the skipping path
    and of the fold."""
    cs = _union(3)
    D = cs.depth
    work = Workspace(D)

    def never_skip(Sf, Sm, w, out):
        out.fill(np.inf)
        return out

    read = []
    for scale in _ladder_scales(Fraction(k, 10) for k in range(3, 10)):
        for lo, hi in _ladder(D)[2:]:
            hi = min(hi, scale.max_coarse(D))
            runs = []
            with patch.object(schedule, "SKIP_LEVELS", 0), _spy_read_blocks(read):
                runs.append(composite_spectrum(cs, scale, lo, hi, work))
                with patch.object(schedule, "_block_bounds", never_skip):
                    runs.append(composite_spectrum(cs, scale, lo, hi, work))
            with patch.object(schedule, "SKIP_LEVELS", D + 2):
                runs.append(composite_spectrum(cs, scale, lo, hi, work))
            assert len({(v.hex(), *w) for v, *w in runs}) == 1, (scale, lo, hi, runs)
    assert all(read) and len(read) == 2 * 2 * 3 * 7


def _mixed_run_composite(rng):
    """Up to 12 components of 0 to 5 runs of 3, 50 or 2,000 levels."""
    comps, e = [], 0
    for _ in range(rng.randint(1, 12)):
        e += rng.randint(1, 600)
        runs = [(rng.choice((3, 50, 2000)), rng.choice((1, 2))) for _ in range(rng.randint(0, 5))]
        comps.append((e, BranchingSchedule(runs)))
    return CompositeSet(comps, include_origin=rng.random() < 0.75)


def test_origin_rows_equal_the_full_row_sum():
    """Every bucket's origin row, -inf included, equals the sum of every
    term over every level: on random composites whose term gaps reach both
    below -1075 (exact zeros, skipped) and into [-1074, -1023] (subnormal
    powers, kept), and on the eight buckets of the blocks=2 union."""
    rng = random.Random(34)
    below = subnormal = 0
    for cs in [_mixed_run_composite(rng) for _ in range(120)] + [_union(2)]:
        for b in range(len(cs.components) + 1):
            gaps = []
            want = oracle_origin_log_counts(cs, b, gaps)
            assert np.array_equal(origin_log_counts(cs, b), want), (cs, b)
            for d in gaps:
                below += int(np.count_nonzero(d < -1075))
                subnormal += int(np.count_nonzero((d >= -1074) & (d <= -1023)))
    assert below and subnormal


def test_union_keeps_one_count_array_per_component():
    """Spectrum, upper and main-theorem calls on the blocks=2 union leave no
    prefix array on a component shallower than the union: its extended
    prefix is its only count array."""
    cs = _union(2)
    grid = [Fraction(1, 2), Fraction(7, 10)]
    estimate_spectrum(cs, grid)
    estimate_upper(cs, grid)
    verify_main_theorem(cs, grid)
    shallow = [s for e, s in cs.components if e + s.depth < cs.depth]
    assert len(shallow) == len(cs.components) - 1
    assert not any("prefix" in s._memo for s in shallow)


@pytest.mark.parametrize("cs", [
    _union(2),
    CompositeSet([(1, BranchingSchedule([])), (3, BranchingSchedule([(2, 2), (3, 1)]))]),
    CompositeSet([(1, BranchingSchedule([]))]),
], ids=["union", "zero-run", "zero-run-alone"])
def test_extended_prefix_equals_the_concatenation(cs):
    """Each extended prefix is read-only int64 and equals the component's
    own prefix array extended by concatenation."""
    for i in range(len(cs.components)):
        got = cs.extended_prefix(i)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, oracle_extended_prefix(cs, i)), i


def test_extended_prefixes_peak_at_their_own_size():
    """Building every extended prefix of a freshly built union peaks at the
    arrays it keeps, sum(span_i + 1) int64 counts, plus one component's
    scratch: a byte per level for its branching flags and 9 bytes per run
    (`np.repeat` copies the read-only run lengths), within a 64 KB margin:
    never a second copy of a component's counts (526 KB each)."""
    cs = _union(3)
    keep = 8 * sum(cs.depth - e + 1 for e, _ in cs.components)
    scratch = cs.depth + 9 * max(len(s.lengths) for _, s in cs.components)
    peak = traced_peak(lambda: [cs.extended_prefix(i) for i in range(len(cs.components))])
    assert peak < keep + scratch + 65536, (peak, keep, scratch)
