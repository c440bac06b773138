"""Schedule analytics, materialization and composite counting."""

import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

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
from fds.constructions import TwoPhaseParams, concave_union, target_from_poly, two_phase_schedule
from fds.spectra import estimate_spectrum, estimate_upper
from fds.windows import RationalScale, RootScale, Workspace

from conftest import (
    local_count,
    materialize_composite,
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


@pytest.mark.parametrize("composite", [False, True])
def test_schedule_kernels_allocate_no_depth_sized_array(composite):
    """With its caller's workspace, one composite_spectrum call (the ratio
    scale, and root scales of orders 2 and 16, whose m**16 passes int64)
    and one composite_upper call over every coarse level that has a
    window (nearly the whole depth at theta = 0.99) peak below one
    int64 array of that region's size, itself below depth + 1 entries, on
    the depth-2**16 two-phase schedule and on a two-component union of it,
    whose origin node's rows enter the range."""
    s = two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 3))
    rep = CompositeSet([(2, s), (4, s)]) if composite else s
    depth = rep.depth
    work = Workspace(depth)
    theta = Fraction(99, 100)
    calls = [
        (composite_spectrum, RationalScale(theta)),
        (composite_spectrum, RootScale(theta, 2)),
        (composite_spectrum, RootScale(theta, 16)),
        (composite_upper, RationalScale(theta)),
    ]
    for kernel, scale in calls:
        hi = scale.max_coarse(depth)
        first = kernel(rep, scale, 1, hi, work)  # fills the set's own caches
        found = []
        peak = traced_peak(lambda: found.append(kernel(rep, scale, 1, hi, work)))
        assert peak < 8 * hi < 8 * (depth + 1), (kernel.__name__, scale, peak)
        assert found == [first]


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
