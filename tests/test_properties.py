"""Property tests for the structural invariants."""

import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from math import log2
from unittest.mock import patch

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from fds.dyadic import DyadicTree
from fds.schedule import (
    BranchingSchedule,
    CompositeSet,
    composite_spectrum,
    composite_upper,
    materialize,
    pieces,
)
from fds.constructions import (
    TwoPhaseParams,
    concave_union,
    full_binary_tree,
    geometric_sequence_tree,
    left_path_tree,
    rational_enumeration,
    target_from_poly,
    two_phase_schedule,
)
from fds import formats, schedule, spectra, windows
from fds.errors import FormatError
from fds.formats import dump, load
from fds.spectra import (
    _ratio_fan_maxima,
    estimate_box,
    estimate_quasi_assouad,
    estimate_spectrum,
    estimate_upper,
)
from fds.windows import RationalScale, RootScale, RunTable, Workspace, region_max

from conftest import (
    RUN_LINES,
    RUNS_TOKEN,
    assert_dropped_blocks_lose,
    assert_floor_certificate,
    assert_region_floors,
    assert_skipped_blocks_lose,
    assert_skipped_levels_lose,
    assert_skipped_rows_lose,
    embed,
    levels,
    local_count,
    max_alpha,
    merge,
    oracle_composite_spectrum,
    oracle_composite_upper,
    oracle_fan_max,
    oracle_kept_pieces,
    oracle_log2_lut,
    oracle_parse_runs,
    oracle_prefix,
    oracle_run_table,
    oracle_runs,
    oracle_schedule_spectrum,
    oracle_schedule_upper,
    oracle_two_phase_levels,
    oracle_write_composite,
    oracle_write_schedule,
    oracle_tree_box,
    oracle_tree_spectrum,
    oracle_tree_upper,
    ratio_fan_max,
    reference_upper,
    run_count,
    staircase_regions,
)


@st.composite
def schedules(draw, max_depth=14):
    depth = draw(st.integers(min_value=2, max_value=max_depth))
    cs = draw(
        st.lists(st.sampled_from((1, 2)), min_size=depth, max_size=depth)
    )
    return BranchingSchedule([(1, c) for c in cs])


@st.composite
def trees(draw, max_depth=9, max_branching=None):
    """Random valid tree: materialize a schedule, then randomly prune
    right children while keeping one child per node.  With max_branching
    the schedule branches at no more levels than that, so deep trees stay
    small."""
    if max_branching is None:
        s = draw(schedules(max_depth))
    else:
        depth = draw(st.integers(min_value=2, max_value=max_depth))
        at = draw(st.sets(st.integers(min_value=0, max_value=depth - 1), max_size=max_branching))
        s = BranchingSchedule([(1, 2 if j in at else 1) for j in range(depth)])
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    t = materialize(s)
    prev = [0]
    for m in range(1, t.depth + 1):
        present = set(t.level(m))
        cur = []
        for k in prev:
            kids = [x for x in (2 * k, 2 * k + 1) if x in present]
            if len(kids) == 2 and rng.random() < 0.3:
                kids = [kids[rng.randrange(2)]]
            cur.extend(kids)
        prev = sorted(set(cur))
    return DyadicTree(t.depth, prev)


@settings(max_examples=60, deadline=None)
@given(trees(), st.integers(min_value=1, max_value=6))
def test_embed_preserves_validity_and_counts(t, e):
    out = embed(t, e)
    assert levels(out)[:e] == ((0,),) * e
    for m in range(t.depth + 1):
        assert int(out.level_sizes(m + e)) == int(t.level_sizes(m))
        assert out.level(m + e) == tuple((1 << m) + k for k in t.level(m))


@settings(max_examples=40, deadline=None)
@given(st.lists(trees(max_depth=7), min_size=0, max_size=3), st.booleans())
def test_merge_preserves_validity(ts, origin):
    shifted = [embed(t, i + 1) for i, t in enumerate(ts)]
    out = merge(shifted, include_origin=origin)
    # per-level union, shorter inputs continued along left endpoints
    for m in range(out.depth + 1):
        want = {0} if origin else set()
        for t in shifted:
            if m <= t.depth:
                want.update(t.level(m))
            else:
                want.update(x << (m - t.depth) for x in t.leaves)
        assert out.level(m) == tuple(sorted(want))


@settings(max_examples=60, deadline=None)
@given(trees(), st.data())
def test_local_count_neighbor_dominates(t, data):
    m = data.draw(st.integers(min_value=0, max_value=t.depth - 1))
    mp = data.draw(st.integers(min_value=m + 1, max_value=t.depth))
    k = data.draw(st.sampled_from(t.level(m)))
    off = local_count(t, m, k, mp, neighbors=False)
    on = local_count(t, m, k, mp, neighbors=True)
    assert on >= off >= 1


@settings(max_examples=60, deadline=None)
@given(trees())
def test_level_counts_monotone_and_doubling(t):
    sizes = t.level_sizes(range(t.depth + 1)).tolist()
    for m in range(1, t.depth + 1):
        assert sizes[m] <= 2 * sizes[m - 1]
        assert sizes[m] >= sizes[m - 1]


@settings(max_examples=60, deadline=None)
@given(trees(), st.data())
def test_max_alpha_in_unit_interval(t, data):
    m = data.draw(st.integers(min_value=0, max_value=t.depth - 1))
    mp = data.draw(st.integers(min_value=m + 1, max_value=t.depth))
    a, _ = max_alpha(t, m, mp)
    assert 0.0 <= a <= 1.0
    a_on, _ = max_alpha(t, m, mp, neighbors=True)
    assert a <= a_on <= 1.0 + log2(3) / (mp - m)


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data())
def test_analytic_alpha_bounds(s, data):
    m = data.draw(st.integers(min_value=0, max_value=s.depth - 1))
    mp = data.draw(st.integers(min_value=m + 1, max_value=s.depth))
    a = Fraction(s.prefix(mp) - s.prefix(m), mp - m)
    assert 0 <= a <= 1


@settings(max_examples=40, deadline=None)
@given(schedules(max_depth=24), st.data())
def test_upper_dominates_and_is_monotone(s, data):
    theta_idx = data.draw(st.integers(min_value=2, max_value=8))
    theta = Fraction(theta_idx, 10)
    hi = int(theta * s.depth)
    if hi < 1:
        return
    lo = data.draw(st.integers(min_value=1, max_value=hi))
    (spec,) = estimate_spectrum(s, [theta], (lo, hi)).values
    (up,) = estimate_upper(s, [theta], (lo, hi)).values
    assert spec <= up
    # a larger theta over the same base range never shrinks the upper max
    theta2 = Fraction(theta_idx + 1, 10)
    (up2,) = estimate_upper(s, [theta2], (lo, hi)).values
    assert up2 >= up


@settings(max_examples=25, deadline=None)
@given(schedules(max_depth=12))
def test_estimator_matches_analytic_ops_on_schedules(s):
    grid = [Fraction(1, 2), Fraction(3, 4)]
    lo, hi = 1, s.depth // 2
    if hi < lo:
        return
    est = estimate_spectrum(s, grid, (lo, hi))
    up = estimate_upper(s, grid, (lo, hi))
    for th, sv, uv in zip(est.thetas, est.values, up.values):
        hi_eff = min(hi, int(th * s.depth))
        assert sv == oracle_schedule_spectrum(s, th, lo, hi_eff)
        assert uv == oracle_schedule_upper(s, th, lo, hi_eff)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=60))
def test_rational_enumeration_properties(n):
    got = rational_enumeration(n)
    assert len(got) == n
    assert len(set(got)) == n
    assert all(0 < q < 1 for q in got)


@settings(max_examples=30, deadline=None)
@given(trees(max_depth=8), st.data())
def test_window_alpha_shift_invariant(t, data):
    e = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=0, max_value=t.depth - 1))
    mp = data.draw(st.integers(min_value=m + 1, max_value=t.depth))
    a, wit = max_alpha(t, m, mp)
    b, wit2 = max_alpha(embed(t, e), m + e, mp + e)
    assert a == b
    assert wit2 == wit + (1 << m)


@settings(max_examples=60, deadline=None)
@given(trees())
def test_leaf_storage_matches_levels(t):
    # every level by shifting the leaves, not through the gaps
    lv = [tuple(sorted({x >> (t.depth - m) for x in t.leaves})) for m in range(t.depth + 1)]
    assert levels(t) == tuple(lv)
    assert DyadicTree(t.depth, reversed(t.leaves)) == t
    assert t.node_count() == sum(len(xs) for xs in lv)
    runs = t.run_table()
    assert t.level_sizes(range(t.depth + 1)).tolist() == [len(xs) for xs in lv]
    for m, xs in enumerate(lv):
        s = t.depth - m
        for d in range(m + 1):
            # the most level-m nodes below one level-(m - d) ancestor
            want = max(Counter(x >> d for x in xs).values(), default=0)
            assert run_count(runs, s, d) == want, (m, d)


def _assert_run_table_matches_oracle(t):
    """u, base and table bit for bit against the one-value-at-a-time
    build, with chunks of one threshold, of five, and of the default size."""
    want = oracle_run_table(t.gaps, len(t.leaves))
    for block in (1, 5, windows.RUN_BLOCK):
        with patch.object(windows, "RUN_BLOCK", block):
            runs = RunTable(t.gaps, len(t.leaves))
        for got, ref in zip((runs.u, runs.base, runs.table), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape, block
            assert got.tobytes() == ref.tobytes(), block


@settings(max_examples=60, deadline=None)
@given(trees())
def test_run_table_matches_oracle(t):
    _assert_run_table_matches_oracle(t)


@pytest.mark.parametrize(
    "t",
    [
        DyadicTree(4, []),
        DyadicTree(4, [9]),
        left_path_tree(12),
        full_binary_tree(8),
        geometric_sequence_tree(64),
        geometric_sequence_tree(300),
        DyadicTree(70000, [0, 1, 3 << 69998]),
    ],
    ids=["empty", "one-leaf", "left-path-12", "full-8", "geometric-64", "geometric-300",
         "gaps-past-16-bits"],
)
def test_run_table_matches_oracle_fixed(t):
    _assert_run_table_matches_oracle(t)


def _assert_luts_are_math_log2(t):
    """Both tables hold int32 counts, and lut[c] is math.log2(c) bit for
    bit for every count c they hold (-inf at 0); the whole lookup equals
    the one found with np.unique."""
    for tab in (t.run_table(), t.neighbor_table()):
        assert tab.table.dtype == np.int32 and tab.lut[0] == -np.inf
        for c in np.unique(tab.table[tab.table > 0]).tolist():
            assert tab.lut[c] == log2(c), c
        assert np.array_equal(tab.lut, oracle_log2_lut(tab.table))


@settings(max_examples=60, deadline=None)
@given(trees())
def test_table_luts_are_math_log2(t):
    _assert_luts_are_math_log2(t)


def test_table_luts_are_math_log2_past_1621():
    # 1621 is the first count numpy's AVX-512 log2 rounds one ulp away
    _assert_luts_are_math_log2(DyadicTree(12, range(1621)))
    _assert_luts_are_math_log2(geometric_sequence_tree(300))


def test_table_luts_of_full_trees_hold_their_distinct_counts():
    """A full tree's tables hold fewer entries than their largest count, so
    their lookups cover only the counts held: unchanged from the ones
    np.unique finds."""
    for depth in range(1, 11):
        t = full_binary_tree(depth)
        assert t.run_table().table.size < 2**depth + 1
        _assert_luts_are_math_log2(t)
    tab = full_binary_tree(6).run_table()
    assert np.isfinite(tab.lut).sum() == np.unique(tab.table).size < tab.lut.size


def test_tree_table_build_leaves_numpy_ma_unimported():
    """np.unique imports numpy.ma on its first call (about 8 ms and 0.5 MB
    per process); a full tree's run table, which finds its distinct counts,
    leaves it out in a fresh interpreter."""
    code = ("import sys\n"
            "from fds.constructions import full_binary_tree\n"
            "before = 'numpy.ma' in sys.modules\n"
            "full_binary_tree(6).run_table()\n"
            "print(before, 'numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["False", "False"]


def _assert_tree_estimators_match_oracles(t, neighbors):
    """Values and witness (m, m', node) of one call over the whole grid
    against the set-scan oracles, ties to (value, -m, -m') and then the
    smallest node; the upper kernel also with one fine level per block, so
    ties meet across blocks."""
    tops = {th: t.depth * th.numerator // th.denominator
            for th in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))}
    grid = [th for th, hi in tops.items() if hi >= 1]

    def rows(est):
        got = est(t, grid, (1, t.depth), neighbors=neighbors)
        return [(v, *w) for v, w in zip(got.values, got.witnesses)]

    def want(oracle):
        return [oracle(t, th, 1, tops[th], neighbors) for th in grid]

    assert rows(estimate_spectrum) == want(oracle_tree_spectrum)
    assert rows(estimate_upper) == want(oracle_tree_upper)
    t = DyadicTree(t.depth, t.leaves)  # an empty store, so the kernel runs again
    with patch.object(spectra, "UPPER_BLOCK", 1):
        assert rows(estimate_upper) == want(oracle_tree_upper)


@settings(max_examples=30, deadline=None)
@given(trees(max_depth=8))
def test_tree_estimators_match_oracles(t):
    _assert_tree_estimators_match_oracles(t, neighbors=False)
    assert estimate_box(t, (1, t.depth)).value == oracle_tree_box(t, 1, t.depth)


@settings(max_examples=30, deadline=None)
@given(trees(max_depth=8))
def test_tree_neighbor_estimators_match_oracles(t):
    _assert_tree_estimators_match_oracles(t, neighbors=True)


def _assert_neighbor_table_matches_oracle(t):
    """Every window 0 <= m < m' <= depth: the neighbor table's best count
    and log2 against conftest's bisect count, and in both modes the
    estimators' witness node and the table's exponent against
    `max_alpha`, leftmost node on ties."""
    nb = t.neighbor_table()
    for m in range(t.depth):
        for mp in range(m + 1, t.depth + 1):
            fine, coarse = t.depth - mp, t.depth - m
            for neighbors, tab in ((False, t.run_table()), (True, nb)):
                alpha, k = max_alpha(t, m, mp, neighbors)
                node = spectra._tree_witness_node(t, m, mp, neighbors)
                assert (tab.logs(fine, coarse) / (mp - m), node) == (alpha, k), (m, mp, neighbors)
            assert int(nb.table[coarse, fine]) == local_count(t, m, k, mp, True), (m, mp)


@settings(max_examples=60, deadline=None)
@given(trees())
def test_neighbor_table_matches_bisect_oracle(t):
    _assert_neighbor_table_matches_oracle(t)


def test_neighbor_table_exhaustive_geometric_and_full():
    _assert_neighbor_table_matches_oracle(geometric_sequence_tree(64))
    t = full_binary_tree(8)
    _assert_neighbor_table_matches_oracle(t)
    nb = t.neighbor_table()
    for m in range(t.depth):
        for mp in range(m + 1, t.depth + 1):
            # the edge nodes 0 and 2**m - 1 have one neighbor inside [0, 1]
            # (none at m = 0); an interior node has two and wins from m = 2
            edge = min(2, 1 << m) << (mp - m)
            assert local_count(t, m, 0, mp, True) == edge
            assert local_count(t, m, (1 << m) - 1, mp, True) == edge
            assert int(nb.table[t.depth - m, t.depth - mp]) == min(3, 1 << m) << (mp - m)
            assert spectra._tree_witness_node(t, m, mp, True) == (0 if m < 2 else 1)


def _fan_case(data, depth: int, lo_cap: int | None = None):
    """(grid, lo, his): up to six thetas p/q with q <= 12, so that several
    often share a fine level, a coarse start lo every theta admits, and the
    tops his[k] = min(hi, max_coarse(theta_k)), which differ when hi is
    large."""
    pool = [Fraction(p, q) for q in range(2, 13) for p in range(1, q) if depth * p >= q]
    grid = sorted(set(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))))
    top = RationalScale(grid[0]).max_coarse(depth)
    lo = data.draw(st.integers(min_value=1, max_value=min(top, lo_cap or top)))
    hi = data.draw(st.integers(min_value=lo, max_value=depth))
    return grid, lo, [min(hi, RationalScale(th).max_coarse(depth)) for th in grid]


def _assert_fan_maxima_match_oracle(rep, grid, lo, his, neighbors=False):
    """The all-theta brute side equals the per-theta enumeration bit for bit."""
    got = _ratio_fan_maxima(rep, rep.depth, grid, lo, his, neighbors)
    want = [ratio_fan_max(rep, th, lo, h, neighbors) for th, h in zip(grid, his)]
    assert got == want, (grid, lo, his)


BLOCKS = (1, 7, 64, spectra.FAN_PAIR_BLOCK)


def _kernel_calls():
    """A wrapper for patching `spectra._fan_kernel`, and the candidate
    columns and rows of each call it sees."""
    kernel, seen = spectra._fan_kernel, []

    def wrapper(cols, rows, *args):
        seen.append((cols.tolist(), rows.tolist()))
        return kernel(cols, rows, *args)

    return wrapper, seen


@settings(max_examples=60, deadline=None)
@given(trees(), st.sampled_from(BLOCKS), st.data())
def test_fan_maxima_match_oracle_trees(t, block, data):
    """Both tree modes on every example, with blocks down to one cell, each
    in one kernel call on at most k + 1 columns for k distinct gaps."""
    case = _fan_case(data, t.depth)
    k = np.unique(t.gaps).size
    for neighbors in (False, True):
        wrapper, seen = _kernel_calls()
        with patch.object(spectra, "FAN_PAIR_BLOCK", block), \
                patch.object(spectra, "_fan_kernel", wrapper):
            _assert_fan_maxima_match_oracle(t, *case, neighbors)
        assert len(seen) == 1 and len(seen[0][0]) <= k + 1, neighbors


def test_fan_maxima_trees_read_their_candidate_columns():
    """Two leaves at depth 4096 (one gap value), four leaves with three
    distinct gaps, and a tree that branches at levels 6 to 9 only, read up
    to m = 2 at theta = 1/2, so that its best window (2, 9) lies at an
    interior column of odd level: in both modes where the neighbor table
    is small, the brute side equals the every-window oracle in one kernel
    call, which reads at most k + 1 columns for k distinct gaps."""
    grid = [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
    bent = materialize(BranchingSchedule([(5, 1), (4, 2), (55, 1)]))
    assert ratio_fan_max(bent, Fraction(1, 2), 1, 2) == 4 / 7
    cases = [(DyadicTree(4096, [0, 1]), grid, 4096),
             (DyadicTree(64, [0, 1, 4, 1024]), grid, 64),
             (bent, [Fraction(1, 2)], 2)]
    for t, g, hi in cases:
        k = np.unique(t.gaps).size
        his = [min(hi, RationalScale(th).max_coarse(t.depth)) for th in g]
        for neighbors in (False, True) if t.depth <= 64 else (False,):
            wrapper, seen = _kernel_calls()
            with patch.object(spectra, "_fan_kernel", wrapper):
                _assert_fan_maxima_match_oracle(t, g, 1, his, neighbors)
            assert len(seen) == 1 and len(seen[0][0]) <= k + 1, (t, neighbors)
    assert [np.unique(t.gaps).size for t, _, _ in cases[:2]] == [1, 3]


def _assert_tree_skips_lose(t, grid, lo, his, neighbors) -> tuple[int, int]:
    """Both tree kernels of one call, the upper (`_tree_uppers`) and the
    brute side: every fine level and row their count bounds skip holds only
    windows that lose to that theta's floor (the conftest oracles), every
    brute-side floor is attained, and with each bound patched to never
    skip the values and witnesses are the same.  Returns the numbers of
    fine levels and rows skipped."""
    upper_levels, rows_read = spectra._upper_levels, spectra._rows_read
    level_calls, row_calls = [], []

    def levels_spy(*args):
        keep = upper_levels(*args)
        level_calls.append(args[5][~keep])
        return keep

    def rows_spy(caps, ms, starts, fan, live, best):
        floor = np.maximum(best, np.where(live, fan, -np.inf).max(axis=0))
        read = rows_read(caps, ms, starts, fan, live, best)
        row_calls.append((ms[~read], starts[~read], live[~read], floor))
        return read

    def both():
        fresh = DyadicTree(t.depth, t.leaves)  # an empty store
        scales = [RationalScale(th) for th in grid]
        return (spectra._tree_uppers(fresh, scales, lo, his, neighbors),
                _ratio_fan_maxima(fresh, fresh.depth, grid, lo, his, neighbors))

    with patch.object(spectra, "_upper_levels", levels_spy), \
            patch.object(spectra, "_rows_read", rows_spy):
        got = both()
    never = {"_upper_levels": lambda *a: np.ones(a[5].size, dtype=bool),
             "_rows_read": lambda *a: np.ones(a[1].size, dtype=bool)}
    for name, fake in never.items():
        with patch.object(spectra, name, fake):
            assert both() == got, name
    for skipped in level_calls:
        assert_skipped_levels_lose(t, grid, lo, his, neighbors, skipped.tolist())
    fan = got[1][::-1]  # the kernel's order, widest fan first
    for ms, starts, live, floor in row_calls:
        assert all(f <= v for f, v in zip(floor.tolist(), fan) if f > -np.inf)
        assert_skipped_rows_lose(t, neighbors, ms, starts, live, floor)
    return (sum(s.size for s in level_calls), sum(c[0].size for c in row_calls))


@settings(max_examples=80, deadline=None)
@given(st.one_of(trees(max_depth=8), trees(max_depth=32, max_branching=8),
                 st.builds(geometric_sequence_tree, st.integers(min_value=8, max_value=48))),
       st.booleans(), st.sampled_from((1, spectra.UPPER_BLOCK)), st.sampled_from(BLOCKS),
       st.data())
def test_tree_skips_hold_only_losing_windows(t, neighbors, upper_block, fan_block, data):
    """The skips of both tree kernels by their count bounds, with one fine
    level per upper block or the default, and brute-side blocks down to one
    row; deep trees that branch at few levels, and geometric trees, make
    the brute side's rows long enough to take its row test."""
    case = _fan_case(data, t.depth)
    with patch.object(spectra, "UPPER_BLOCK", upper_block), \
            patch.object(spectra, "FAN_PAIR_BLOCK", fan_block):
        _assert_tree_skips_lose(t, *case, neighbors)


def test_tree_skips_skip_on_geometric_trees():
    """On a geometric tree both kernels do skip, in both neighbor modes,
    over the default range, at the default brute-side block and an upper
    block small enough for the level bounds to be taken, and the skipped
    windows all lose."""
    t = geometric_sequence_tree(40)
    grid = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    lo, hi = spectra._norm_range(t.depth, None, grid)
    his = [spectra._clamp(t.depth, RationalScale(th), lo, hi) for th in grid]
    for neighbors in (False, True):
        with patch.object(spectra, "UPPER_BLOCK", 64):
            skipped = _assert_tree_skips_lose(t, grid, lo, his, neighbors)
        assert min(skipped) > 0, (neighbors, skipped)


def test_row_floor_takes_only_live_fan_starts():
    """A theta's brute-side floor takes the fan starts of the rows where it
    is live only: past its top a row starts at the depth column, a window
    the theta does not admit.  Row 0 (live at both thetas) reaches the
    narrow theta's floor 0.05 with its bound 2 / 20 = 0.1, so it is read,
    though row 1's value at the narrow theta's clamped start is 5.0."""
    read = spectra._rows_read(
        caps=np.array([2.0, 8.0]), ms=np.array([10, 20]),
        starts=np.array([[15, 30], [25, 40]]), fan=np.array([[0.1, 0.05], [1.0, 5.0]]),
        live=np.array([[True, True], [True, False]]), best=np.full(2, -np.inf))
    assert read.tolist() == [True, True]


@settings(max_examples=60, deadline=None)
@given(trees())
def test_tree_counts_are_monotone_in_both_levels(t):
    """The fact both tree skips rest on: in either table a window's count
    does not decrease as its fine level m' rises or as its coarse level m
    falls, over every window 0 <= m < m' <= depth."""
    d = t.depth
    m, mp = np.triu_indices(d + 1, 1)
    for table in (t.run_table(), t.neighbor_table()):
        c = np.zeros((d + 1, d + 1), dtype=np.int64)  # [m, m'], 0 off the windows
        c[m, mp] = table.counts(d - mp, d - m)
        assert (c[m, mp] >= 1).all()
        finer = np.diff(c, axis=1)  # [m, x]: window (m, x + 1) less (m, x)
        coarser = np.diff(c, axis=0)  # [y, m']: window (y + 1, m') less (y, m')
        rows, cols = np.indices(finer.shape)
        assert (finer[rows < cols] >= 0).all()
        rows, cols = np.indices(coarser.shape)
        assert (coarser[rows + 1 < cols] <= 0).all()


@settings(max_examples=60, deadline=None)
@given(schedules(max_depth=24), st.data())
def test_fan_maxima_match_oracle_schedules(s, data):
    _assert_fan_maxima_match_oracle(s, *_fan_case(data, s.depth))


@st.composite
def run_schedules(draw, max_runs=30, max_length=24, min_runs=1):
    """Schedules of min_runs to max_runs alternating runs of up to
    max_length levels, so the concave corners (the last level of a
    branching run) are sparse among the levels."""
    lengths = draw(st.lists(st.integers(min_value=1, max_value=max_length),
                            min_size=min_runs, max_size=max_runs))
    c = draw(st.sampled_from((1, 2)))
    return BranchingSchedule([(n, 1 + (c + i) % 2) for i, n in enumerate(lengths)])


@settings(max_examples=60, deadline=None)
@given(run_schedules(), st.sampled_from(BLOCKS), st.data())
def test_corner_kernel_matches_oracle_run_schedules(s, block, data):
    """The schedule brute side, which reads only fan starts and concave
    corners, and along long frozen and branching runs shortens most rows
    toward the next one or drops them toward the one before, equals the
    every-window oracle bit for bit, with blocks down to one cell."""
    assume(s.depth >= 2)
    with patch.object(spectra, "FAN_PAIR_BLOCK", block):
        _assert_fan_maxima_match_oracle(s, *_fan_case(data, s.depth))


def test_corner_kernel_explicit_schedules():
    """One-run schedules (all branching: the depth is the only corner and
    every exponent is 1; all frozen: every exponent is 0), a corner at the
    depth, several corners, thetas near 1 (width 1 at a block's first
    cells) and distinct clamped tops, at every block size; the kernel
    reads a schedule only at its concave corners and the depth."""
    cases = [
        BranchingSchedule([(40, 2)]),
        BranchingSchedule([(40, 1)]),
        BranchingSchedule([(9, 1), (3, 2), (20, 1), (8, 2)]),
        BranchingSchedule([(3, 2), (5, 1), (4, 2), (9, 1), (7, 2), (12, 1)]),
    ]
    grids = [
        [Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)],
        [Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)],
    ]
    assert [RationalScale(th).max_coarse(40) for th in grids[0]] == [13, 20, 32]
    assert RationalScale(grids[1][-1]).fine(39) == 40
    for block in BLOCKS:
        for s in cases:
            wrapper, seen = _kernel_calls()
            with patch.object(spectra, "FAN_PAIR_BLOCK", block), \
                    patch.object(spectra, "_fan_kernel", wrapper):
                for grid in grids:
                    for lo, hi in ((1, s.depth), (1, s.depth // 2), (s.depth // 3, s.depth)):
                        his = [min(hi, RationalScale(th).max_coarse(s.depth)) for th in grid]
                        if his[0] >= lo:
                            _assert_fan_maxima_match_oracle(s, grid, lo, his)
            # the last level of each branching run, and the depth
            ends = np.cumsum(s.lengths)
            corners = sorted({*ends[s.counts == 2].tolist(), s.depth})
            assert seen and all(cols == corners for cols, _ in seen)
    his = [RationalScale(th).max_coarse(40) for th in grids[0]]
    assert _ratio_fan_maxima(cases[0], 40, grids[0], 1, his, False) == [1.0] * 3
    assert _ratio_fan_maxima(cases[1], 40, grids[0], 1, his, False) == [0.0] * 3


@settings(max_examples=60, deadline=None)
@given(schedules(max_depth=10), schedules(max_depth=10),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5),
       st.booleans(), st.data())
def test_fan_maxima_match_oracle_composites(a, b, e, gap, origin, data):
    """Two components, with or without the origin; the coarse range starts
    below the second shift, so that piece is skipped at its first levels;
    blocks down to one cell."""
    cs = CompositeSet([(e, a), (e + gap, b)], include_origin=origin)
    block = data.draw(st.sampled_from(BLOCKS))
    with patch.object(spectra, "FAN_PAIR_BLOCK", block):
        _assert_fan_maxima_match_oracle(cs, *_fan_case(data, cs.depth, lo_cap=e + gap - 1))


def test_fan_maxima_explicit_grids():
    """Fixed cases with the features the reduction must get right: two
    thetas sharing a fine level, distinct clamped tops, and a composite
    whose second shift lies inside the coarse range, with and without
    the origin."""
    grid = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 2), Fraction(4, 5)]
    assert RationalScale(grid[1]).fine(1) == RationalScale(grid[2]).fine(1) == 3
    s = BranchingSchedule([(3, 2), (5, 1), (4, 2), (9, 1), (7, 2), (12, 1)])
    his = [min(30, RationalScale(th).max_coarse(s.depth)) for th in grid]
    assert his == [13, 16, 17, 20, 30]
    _assert_fan_maxima_match_oracle(s, grid, 1, his)
    t = geometric_sequence_tree(64)
    his = [min(50, RationalScale(th).max_coarse(64)) for th in grid]
    for neighbors in (False, True):
        _assert_fan_maxima_match_oracle(t, grid, 1, his, neighbors)
    for origin in (False, True):
        cs = CompositeSet([(2, s), (9, BranchingSchedule([(6, 2), (6, 1)]))], origin)
        his = [RationalScale(th).max_coarse(cs.depth) for th in grid]
        assert 1 < 9 <= his[0]
        _assert_fan_maxima_match_oracle(cs, grid, 1, his)


@settings(max_examples=80, deadline=None)
@given(st.lists(schedules(max_depth=8), min_size=1, max_size=3), st.data())
def test_fan_maxima_match_oracle_many_components(pool, data):
    """Three to five components drawn from a pool of at most three
    schedules, so equal rows and chains of dominance through a kept piece
    are common; with or without the origin, the coarse range starting
    below the last shift, and fan-kernel blocks down to one row."""
    n = data.draw(st.integers(min_value=3, max_value=5))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    shifts = np.cumsum(gaps).tolist()
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in shifts],
                      include_origin=data.draw(st.booleans()))
    block = data.draw(st.sampled_from((1, 50, spectra.FAN_PAIR_BLOCK)))
    with patch.object(spectra, "FAN_PAIR_BLOCK", block):
        _assert_fan_maxima_match_oracle(cs, *_fan_case(data, cs.depth, lo_cap=shifts[-1] - 1))


def _kept_rows(cs, lo, starts):
    """The brute side's kept-piece mask for rows lo, lo + 1, ... starting at
    the given fine levels."""
    parts = [(e, S) for _, e, S in pieces(cs)]
    return spectra._kept_pieces(parts, cs.depth, lo, np.array(starts, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(st.lists(schedules(max_depth=8), min_size=1, max_size=3), st.data())
def test_kept_pieces_match_greedy_oracle(pool, data):
    """The leader rounds give the greedy visit over whole rows, for two to
    six components from a pool of at most three schedules, so equal rows
    and chains of dominance are common; the rows start at the fine levels
    of the widest theta."""
    n = data.draw(st.integers(min_value=2, max_value=6))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    shifts = np.cumsum(gaps).tolist()
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in shifts],
                      include_origin=data.draw(st.booleans()))
    grid, lo, his = _fan_case(data, cs.depth, lo_cap=shifts[-1])
    scale = RationalScale(grid[-1])
    starts = [scale.fine(m) for m in range(lo, his[-1] + 1)]
    parts = [(e, S) for _, e, S in pieces(cs)]
    kept = _kept_rows(cs, lo, starts)
    assert kept.tolist() == oracle_kept_pieces(parts, cs.depth, lo, starts)


def _union(count, **kw):
    return concave_union(target_from_poly([Fraction(2, 5), Fraction(2, 5), Fraction(-1, 5)],
                                          count), blocks=2, **kw)


def test_kept_pieces_match_greedy_oracle_on_unions():
    """Past six pieces: the 8-component union over every row of a 7-theta
    default-range call, and a 16-component union with linear shifts over
    20-row windows, one of them crossing its last shift."""
    grid = [Fraction(k, 10) for k in range(3, 10)]
    cs = _union(8)
    depth, grid, lo, _, his = spectra._resolve(cs, grid, None, False)
    scale = RationalScale(grid[-1])
    starts = [scale.fine(m) for m in range(lo, his[-1] + 1)]
    parts = [(e, S) for _, e, S in pieces(cs)]
    assert len(parts) == 8 and len(starts) > 300
    assert _kept_rows(cs, lo, starts).tolist() == oracle_kept_pieces(parts, depth, lo, starts)
    cs = _union(16, shift_linear=64)
    parts = [(e, S) for _, e, S in pieces(cs)]
    assert len(parts) == 16 and parts[-1][0] == 1024
    for lo in (320, 700, 1014):
        starts = [scale.fine(m) for m in range(lo, lo + 20)]
        assert (_kept_rows(cs, lo, starts).tolist()
                == oracle_kept_pieces(parts, cs.depth, lo, starts))


def test_kept_pieces_keep_a_lone_piece_where_it_is_present():
    """One piece, a schedule's or a one-component union's, is kept on
    exactly the rows at or past its shift, with rows below the shift, rows
    from it on, and a flat piece whose widest numerators are all 0."""
    two_phase = two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 3, 2))
    for sched in (two_phase, BranchingSchedule([(16, 1)])):
        for rep in (sched, CompositeSet([(5, sched)]), CompositeSet([(5, sched)], False)):
            e = 0 if rep is sched else 5
            for lo in (1, 5, 7):
                starts = [RationalScale(Fraction(9, 10)).fine(m) for m in range(lo, lo + 5)]
                kept = _kept_rows(rep, lo, starts)
                assert kept.tolist() == [[m >= e] for m in range(lo, lo + 5)]


def test_fan_rows_equal_flat_components_keep_the_lowest():
    """Identical all-flat components tie exactly on every row: the lowest
    present piece is kept and every other one is dropped against it, with
    and without the origin, whose rows lie inside the range."""
    flat = BranchingSchedule([(6, 1)])
    for origin in (False, True):
        cs = CompositeSet([(1, flat), (2, flat), (4, flat)], include_origin=origin)
        kept = _kept_rows(cs, 1, range(2, 9))
        assert kept.tolist() == [[True, False, False]] * 7
        grid = [Fraction(1, 2), Fraction(9, 10)]
        his = [RationalScale(th).max_coarse(cs.depth) for th in grid]
        _assert_fan_maxima_match_oracle(cs, grid, 1, his)


def test_fan_rows_without_dominance_keep_every_piece():
    """Early, late and middle branching: no row is dominated by another on
    [m + 1, depth], so every present piece is kept; the maxima match the
    oracle with and without the origin rows below the last shift."""
    early = BranchingSchedule([(4, 2), (8, 1)])
    late = BranchingSchedule([(6, 1), (6, 2)])
    middle = BranchingSchedule([(3, 1), (3, 2), (6, 1)])
    grid = [Fraction(1, 2), Fraction(9, 10)]
    for origin in (False, True):
        cs = CompositeSet([(1, early), (2, late), (3, middle)], include_origin=origin)
        assert _kept_rows(cs, 3, [4, 5]).all()
        _assert_fan_maxima_match_oracle(cs, grid, 3, [4, 4])
        his = [RationalScale(th).max_coarse(cs.depth) for th in grid]
        _assert_fan_maxima_match_oracle(cs, grid, 1, his)


@settings(max_examples=80, deadline=None)
@given(st.lists(run_schedules(max_runs=8, max_length=12), min_size=1, max_size=3),
       st.booleans(), st.sampled_from(BLOCKS), st.data())
def test_row_rule_matches_oracle_run_composites(pool, origin, block, data):
    """One to four components of long runs, drawn from a pool of at most
    three, with or without the origin: the row rule runs on the rows
    `_kept_pieces` keeps for each piece, so a row is shortened or dropped
    only toward a neighbour row kept for the same piece."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    shifts = np.cumsum(gaps).tolist()
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in shifts],
                      include_origin=origin)
    with patch.object(spectra, "FAN_PAIR_BLOCK", block):
        _assert_fan_maxima_match_oracle(cs, *_fan_case(data, cs.depth))


@settings(max_examples=60, deadline=None)
@given(st.lists(run_schedules(max_runs=8, max_length=12), min_size=1, max_size=3),
       st.data())
def test_region_max_matches_oracle_on_run_composite_pieces(pool, data):
    """Every piece region of a composite of long-run schedules, as
    `composite_upper` cuts it: region_max against the per-level oracle,
    with floors above, at and below its own maximum, and with the best
    fraction of the pieces before as its floor."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in np.cumsum(gaps).tolist()])
    q = data.draw(st.integers(min_value=2, max_value=12))
    scale = RationalScale(Fraction(data.draw(st.integers(min_value=1, max_value=q - 1)), q))
    top = scale.max_coarse(cs.depth)
    assume(top >= 1)
    lo = data.draw(st.integers(min_value=1, max_value=top))
    hi = data.draw(st.integers(min_value=lo, max_value=top))
    fines = scale.fine_array(np.arange(lo, hi + 1, dtype=np.int64))
    floor = None
    for _, e, S in pieces(cs):
        a = max(lo, e)
        if a > hi:
            break
        region = (S, a - e, fines[a - lo :] - e)
        _, m, j = assert_region_floors(*region)
        value = Fraction(int(S[j] - S[m]), j - m)
        if floor is not None:
            got = region_max(*region, floor=(floor.numerator, floor.denominator))
            assert got == (None if value < floor else region_max(*region))
        floor = value if floor is None else max(floor, value)


@settings(max_examples=40, deadline=None)
@given(st.lists(run_schedules(max_runs=40, max_length=40, min_runs=16), min_size=1, max_size=3),
       st.data())
def test_floor_certificate_is_sound_on_run_composite_pieces(pool, data):
    """Every piece region of a composite of long-run schedules several
    certificate blocks deep, as `composite_upper` cuts it: the block
    certificate settles no floor at or below the oracle maximum, and
    every floor it settles, the best fraction of the pieces before and
    drawn ones included, lies strictly above it."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n))
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in np.cumsum(gaps).tolist()])
    q = data.draw(st.integers(min_value=2, max_value=12))
    scale = RationalScale(Fraction(data.draw(st.integers(min_value=1, max_value=q - 1)), q))
    top = scale.max_coarse(cs.depth)
    assume(top >= 1)
    lo = data.draw(st.integers(min_value=1, max_value=top))
    fines = scale.fine_array(np.arange(lo, top + 1, dtype=np.int64))
    drawn = data.draw(st.lists(st.fractions(0, 1, max_denominator=1 << 20), max_size=4))
    floor = None
    for _, e, S in pieces(cs):
        a = max(lo, e)
        if a > top:
            break
        region = (S, a - e, fines[a - lo :] - e)
        value = assert_floor_certificate(*region, drawn + ([floor] if floor is not None else []))
        floor = value if floor is None else max(floor, value)


def _run_piece_regions(pool, data):
    """Every piece region (S, a, lo) of a drawn composite of `pool`'s
    schedules at a drawn ratio theta and range, as `composite_upper` cuts
    it."""
    n = data.draw(st.integers(min_value=1, max_value=3))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n))
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in np.cumsum(gaps).tolist()])
    q = data.draw(st.integers(min_value=2, max_value=12))
    scale = RationalScale(Fraction(data.draw(st.integers(min_value=1, max_value=q - 1)), q))
    top = scale.max_coarse(cs.depth)
    assume(top >= 1)
    lo = data.draw(st.integers(min_value=1, max_value=top))
    hi = data.draw(st.integers(min_value=lo, max_value=top))
    fines = scale.fine_array(np.arange(lo, hi + 1, dtype=np.int64))
    regions = []
    for _, e, S in pieces(cs):
        a = max(lo, e)
        if a > hi:
            break
        regions.append((S, a - e, fines[a - lo :] - e))
    return regions


def _keep_every_block(blocks, p, q):
    return np.ones(blocks.row_first.size, dtype=bool), np.ones(blocks.col_first.size, dtype=bool)


def _assert_bound_pass_exact(S, a, lo):
    """At blocks of 1, 2, 3, 4 and FLOOR_BLOCK levels, with no floor and
    with floors above, at and below the region's maximum: region_max
    equals the per-level oracle, values and witnesses; every bound pass
    drops only windows strictly below its value (and, at the start,
    boundary windows below v0); and with the bound pass keeping every
    block the results and the takes, one for the boundary windows and one
    per round, are the same, but where the pass alone settles a floor
    above the maximum with no take."""
    take, takes = np.take, []

    def counted(*args, **kw):
        takes.append(1)
        return take(*args, **kw)

    def solve(floor):
        takes.clear()
        with patch.object(np, "take", counted):
            return region_max(S, a, lo, floor=floor), len(takes)

    for block in (1, 2, 3, 4, windows.FLOOR_BLOCK):
        with patch.object(windows, "FLOOR_BLOCK", block):
            _, m, j = assert_region_floors(S, a, lo)
            p, q = int(S[j] - S[m]), j - m
            for floor in (None, (2 * p + 1, 2 * q), (p, q), (max(2 * p - 1, 0), 2 * q)):
                got, rounds = solve(floor)
                assert assert_dropped_blocks_lose(S, a, lo, floor) == got
                with patch.object(windows._Blocks, "kept", _keep_every_block):
                    every, every_rounds = solve(floor)
                assert every == got, (block, floor)
                assert rounds == every_rounds or (got is None and rounds == 0), (block, floor)


@settings(max_examples=60, deadline=None)
@given(st.lists(run_schedules(max_runs=24, max_length=24, min_runs=4), min_size=1, max_size=3),
       st.data())
def test_bound_pass_is_exact_on_run_composite_pieces(pool, data):
    """`_assert_bound_pass_exact` on every piece region of a composite of
    run schedules, as `composite_upper` cuts it."""
    for region in _run_piece_regions(pool, data):
        _assert_bound_pass_exact(*region)


@settings(max_examples=60, deadline=None)
@given(staircase_regions(min_depth=8, max_depth=300))
def test_bound_pass_is_exact_on_curve_staircases(case):
    """`_assert_bound_pass_exact` on curve staircases, whose solves take
    the most rounds."""
    _assert_bound_pass_exact(*case)


@settings(max_examples=40, deadline=None)
@given(st.lists(run_schedules(max_runs=40, max_length=40, min_runs=16), min_size=1, max_size=3),
       st.data())
def test_composite_spectrum_block_path_on_run_composites(pool, data):
    """Composites of long-run schedules, several blocks of FLOOR_BLOCK
    levels deep, with or without the origin, with the block path taken
    from one level on, at the ratio rule and root orders 2 and 16: the
    fixed-ratio kernel equals its per-piece oracle, witnesses included,
    and every window of a skipped block loses to the result."""
    n = data.draw(st.integers(min_value=2, max_value=4))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n))
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in np.cumsum(gaps).tolist()],
                      include_origin=data.draw(st.booleans()))
    q = data.draw(st.integers(min_value=2, max_value=12))
    theta = Fraction(data.draw(st.integers(min_value=1, max_value=q - 1)), q)
    scale = _scale(data.draw(st.sampled_from((1, 2, 16))), theta)
    top = scale.max_coarse(cs.depth)
    assume(top >= 1)
    lo = data.draw(st.integers(min_value=1, max_value=top))
    hi = data.draw(st.integers(min_value=lo, max_value=top))
    with patch.object(schedule, "SKIP_LEVELS", 0):
        found = composite_spectrum(cs, scale, lo, hi, Workspace(cs.depth))
        assert found == oracle_composite_spectrum(cs, scale, lo, hi)
        assert_skipped_blocks_lose(cs, scale, lo, hi, found)


@settings(max_examples=60, deadline=None)
@given(staircase_regions(min_depth=256, max_depth=1500),
       st.lists(st.fractions(0, 1, max_denominator=1 << 20), max_size=4))
def test_floor_certificate_is_sound_on_deep_staircases(case, drawn):
    """Curve staircases of 256 to 1500 levels, 4 to 24 certificate
    blocks: the block certificate settles only floors strictly above the
    oracle maximum, never the maximum itself, and region_max keeps its
    floor rule."""
    assert_floor_certificate(*case, drawn)


def test_row_rule_reads_first_row_sinks_and_tops_in_full():
    """Levels 1-3 branch, 4-8 are frozen, 9-12 branch, 13-21 are frozen and
    22-28 branch.  Over rows 1..20 the first row (whose next level
    branches), the sink 8 (the last frozen level before a branching one)
    and the top 20 are read in full; 2, 3 and 9..12 are dropped, and the
    other frozen-next rows are shortened.  A top inside a frozen stretch is
    read in full too; from row 4 on the first row is shortened, and up to
    row 24 the sink 21 is read in full and 22..23 are dropped."""
    s = BranchingSchedule([(3, 2), (5, 1), (4, 2), (9, 1), (7, 2), (12, 1)])
    grid = [Fraction(1, 2), Fraction(3, 5)]
    for lo, his, full in ((1, [20, 20], [1, 8, 20]), (1, [16, 20], [1, 8, 16, 20]),
                          (4, [17, 24], [8, 17, 21, 24])):
        wrapper, seen = _kernel_calls()
        with patch.object(spectra, "_fan_kernel", wrapper):
            _assert_fan_maxima_match_oracle(s, grid, lo, his)
        assert [rows for _, rows in seen] == [full], (lo, his)


def test_row_rule_reads_one_row_on_the_two_phase_benchmark_shape():
    """The main-theorem call of the two-phase CLI benchmark (theta 1/2, 3/5,
    7/10 over m 16384..18432, one frozen stretch) reads one row of 2,049
    in full, its top; the check still finds no deviation."""
    s = two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 3))
    grid = [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)]
    wrapper, seen = _kernel_calls()
    with patch.object(spectra, "_fan_kernel", wrapper):
        report = spectra.verify_main_theorem(s, grid, (16384, 18432))
    assert [rows for _, rows in seen] == [[18432]]
    assert report.passed and report.worst == 0.0


def test_brute_side_never_calls_the_region_solver(monkeypatch):
    """With `region_max` raising wherever the upper side could reach it, the
    brute side of a schedule and of a composite with the origin still
    equals the every-window oracle, while the upper side fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("region_max called")

    monkeypatch.setattr(windows, "region_max", refuse)
    monkeypatch.setattr(schedule, "region_max", refuse)
    s = BranchingSchedule([(3, 2), (5, 1), (4, 2), (9, 1), (7, 2), (12, 1)])
    cs = CompositeSet([(2, s), (9, BranchingSchedule([(6, 2), (6, 1)]))], include_origin=True)
    grid = [Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]
    for rep in (s, cs):
        his = [RationalScale(th).max_coarse(rep.depth) for th in grid]
        _assert_fan_maxima_match_oracle(rep, grid, 1, his)
        with pytest.raises(AssertionError, match="region_max called"):
            estimate_upper(rep, grid, (1, his[-1]))


def _assert_upper_witnesses(rep, grid, lo, his):
    """estimate_upper over the whole grid in one call gives, per theta, the
    (value, m, m') of the per-theta hull_slope_max replay; max(his) as
    the range top clamps every theta to its own his entry again."""
    est = estimate_upper(rep, grid, (lo, max(his)))
    assert est.thetas == grid
    got = [(v, m, mp) for v, (m, mp, _) in zip(est.values, est.witnesses)]
    assert got == [reference_upper(rep, th, lo, h) for th, h in zip(grid, his)], (grid, lo, his)


@settings(max_examples=60, deadline=None)
@given(schedules(max_depth=24), st.data())
def test_upper_witnesses_match_reference_schedules(s, data):
    _assert_upper_witnesses(s, *_fan_case(data, s.depth))


@settings(max_examples=60, deadline=None)
@given(schedules(max_depth=10), schedules(max_depth=10),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5),
       st.booleans(), st.data())
def test_upper_witnesses_match_reference_composites(a, b, e, gap, origin, data):
    """Two components, with or without the origin; the coarse range starts
    below the second shift."""
    cs = CompositeSet([(e, a), (e + gap, b)], include_origin=origin)
    _assert_upper_witnesses(cs, *_fan_case(data, cs.depth, lo_cap=e + gap - 1))


def test_upper_witnesses_explicit():
    """A fully branching schedule (every window is 1, so the witness is the
    first window (lo, fine(lo))), a flat tail, and one-level regions: a
    schedule range lo == hi, and a composite whose second piece enters at
    the range top."""
    grid = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(4, 5)]
    full = BranchingSchedule([(40, 2)])
    est = estimate_upper(full, grid, (3, 40))
    for th, v, (m, mp, node) in zip(grid, est.values, est.witnesses):
        assert (v, m, mp, node) == (1.0, 3, RationalScale(th).fine(3), 0)
    his = [min(40, RationalScale(th).max_coarse(40)) for th in grid]
    _assert_upper_witnesses(full, grid, 3, his)
    tail = BranchingSchedule([(3, 2), (5, 1), (4, 2), (2, 1), (1, 2), (30, 1)])
    his = [RationalScale(th).max_coarse(tail.depth) for th in grid]
    _assert_upper_witnesses(tail, grid, 1, his)
    _assert_upper_witnesses(tail, grid, 6, [6] * len(grid))
    for origin in (False, True):
        cs = CompositeSet([(2, tail), (9, BranchingSchedule([(6, 2), (6, 1)]))], origin)
        assert RationalScale(grid[0]).max_coarse(cs.depth) >= 9
        _assert_upper_witnesses(cs, grid, 4, [9] * len(grid))


def _scale(order: int, theta: Fraction):
    return RationalScale(theta) if order == 1 else RootScale(theta, order)


def _assert_kernels_match_oracles(rep, scale, lo, hi):
    """Both composite kernels give the full (value, m, m', node) of their
    per-piece oracles, on one workspace lent to both."""
    work = Workspace(rep.depth)
    for kernel, oracle in ((composite_spectrum, oracle_composite_spectrum),
                           (composite_upper, oracle_composite_upper)):
        assert kernel(rep, scale, lo, hi, work) == oracle(rep, scale, lo, hi), kernel.__name__


def _composite_case(pool, data):
    """(composite, scale, lo, hi): one to five components from a pool of
    at most three schedules, so equal schedules at different shifts (ties
    across parts) are common, with or without the origin, at the ratio
    rule and root orders 2 and 16; the coarse range starts anywhere up to
    the last shift, often below the first."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    shifts = np.cumsum(gaps).tolist()
    cs = CompositeSet([(e, data.draw(st.sampled_from(pool))) for e in shifts],
                      include_origin=data.draw(st.booleans()))
    q = data.draw(st.integers(min_value=2, max_value=12))
    theta = Fraction(data.draw(st.integers(min_value=1, max_value=q - 1)), q)
    scale = _scale(data.draw(st.sampled_from((1, 2, 16))), theta)
    top = scale.max_coarse(cs.depth)
    assume(top >= 1)
    lo = data.draw(st.one_of(st.integers(1, shifts[0]), st.integers(1, shifts[-1])))
    lo = min(lo, top)
    hi = data.draw(st.integers(min_value=lo, max_value=top))
    return cs, scale, lo, hi


@settings(max_examples=120, deadline=None)
@given(st.lists(schedules(max_depth=10), min_size=1, max_size=3), st.data())
def test_composite_kernels_match_per_piece_oracles(pool, data):
    """Both kernels against their per-piece oracles on `_composite_case`."""
    _assert_kernels_match_oracles(*_composite_case(pool, data))


def _never_skip(Sf, Sm, w, out):
    """A block bound that keeps every block where its piece is present."""
    out.fill(np.inf)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(schedules(max_depth=10), min_size=1, max_size=3), st.data())
def test_composite_spectrum_block_path_matches_oracles(pool, data):
    """The body above with the fixed-ratio kernel's block path taken from
    one level on and blocks of 2 to 4 levels, so small composites span
    many blocks: both kernels still match their oracles, every skipped
    window loses to the result, and a bound that skips nothing returns
    the same bytes."""
    case = _composite_case(pool, data)
    block = data.draw(st.integers(min_value=2, max_value=4))
    with patch.object(schedule, "SKIP_LEVELS", 0), patch.object(schedule, "FLOOR_BLOCK", block):
        _assert_kernels_match_oracles(*case)
        found = composite_spectrum(*case, Workspace(case[0].depth))
        assert_skipped_blocks_lose(*case, found)
        with patch.object(schedule, "_block_bounds", _never_skip):
            again = composite_spectrum(*case, Workspace(case[0].depth))
    assert again[0].hex() == found[0].hex() and again[1:] == found[1:]


def test_composite_kernels_explicit_ties():
    """Equal schedules at different shifts tie at a shared coarse level
    and go to the lower component; a bare schedule is the one piece.
    Every case at every scale kind, with and without the origin, with
    ranges from below the first shift and from the last one."""
    full = BranchingSchedule([(6, 2)])
    cs = CompositeSet([(1, full), (3, full)], include_origin=False)
    work = Workspace(cs.depth)
    half = RationalScale(Fraction(1, 2))
    # at m = 3 both pieces read three branching levels over width 3
    assert composite_spectrum(cs, half, 3, 3, work) == (1.0, 3, 6, 1 << 2)
    assert composite_upper(cs, half, 3, 3, work) == (1.0, 3, 6, 1 << 2)
    step = BranchingSchedule([(4, 2), (8, 1)])
    quiet = BranchingSchedule([(2, 1), (3, 2), (7, 1)])
    reps = [step, full]
    for origin in (False, True):
        reps += [CompositeSet([(2, step), (5, step)], origin),
                 CompositeSet([(1, full), (3, full), (4, quiet)], origin),
                 CompositeSet([(3, quiet), (4, step), (6, quiet), (7, step), (9, step)], origin)]
    for rep in reps:
        last = rep.shifts[-1] if isinstance(rep, CompositeSet) else 1
        for order in (1, 2, 16):
            for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
                scale = _scale(order, theta)
                top = scale.max_coarse(rep.depth)
                for lo in sorted({1, min(last, top)}):
                    _assert_kernels_match_oracles(rep, scale, lo, top)


def test_composite_upper_origin_bucket_edges():
    """The one pass per origin bucket against the per-row oracle at the
    bucket's edges.  Frozen components make the origin node's summed counts
    win: a bucket whose log count is 0 from its fan start on (every window
    0, so the witness is (lo, fine(lo)) at node 0), the one-row bucket [2, 2],
    a range starting at 7 inside the bucket [6, 8], and the bucket [3, 39]
    cut by the clamped top 38 at theta = 9/10."""
    frozen = BranchingSchedule([(8, 1)])
    slow = BranchingSchedule([(3, 1), (1, 2), (4, 1)])
    zero = CompositeSet([(5, frozen)], include_origin=False)
    for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        scale = RationalScale(theta)
        for lo in (1, 2, 4):
            found = composite_upper(zero, scale, lo, 4, Workspace(zero.depth))
            assert found == (0.0, lo, scale.fine(lo), 0)
            _assert_kernels_match_oracles(zero, scale, lo, 4)
    cuts = BranchingSchedule([(30, 1), (1, 2), (3, 1)])
    for origin in (False, True):
        rows = CompositeSet([(2, frozen), (3, slow), (5, frozen), (6, slow), (9, frozen)], origin)
        cut = CompositeSet([(2, frozen), (3, cuts), (40, BranchingSchedule([(3, 2)]))], origin)
        for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
            scale = RationalScale(theta)
            found = composite_upper(rows, scale, 2, 2, Workspace(rows.depth))
            assert found[1::2] == (2, 0)  # the one-row bucket's origin window wins
            _assert_kernels_match_oracles(rows, scale, 2, 2)
            top = scale.max_coarse(rows.depth)
            for lo, hi in ((1, min(8, top)), (1, top), (7, min(8, top)), (7, top)):
                if lo <= hi:
                    _assert_kernels_match_oracles(rows, scale, lo, hi)
        scale = RationalScale(Fraction(9, 10))
        assert scale.max_coarse(cut.depth) == 38
        for lo in (1, 3, 30, 38):
            _assert_kernels_match_oracles(cut, scale, lo, 38)
        assert composite_upper(cut, scale, 30, 38, Workspace(cut.depth))[1::2] == (38, 0)


@settings(max_examples=150, deadline=None)
@given(staircase_regions())
def test_region_max_on_curve_staircases(case):
    """region_max against one hull_slope_max query per coarse level,
    within its round cap (depth - a) - min(lo[m - a] - m) + 2: counted as
    the takes less one, one for the boundary windows and one per round."""
    S, a, lo = case
    take, takes = np.take, []

    def counted(*args, **kw):
        takes.append(1)
        return take(*args, **kw)

    with patch.object(np, "take", counted):
        got = region_max(S, a, lo)
    assert got == oracle_fan_max(S, range(a, a + lo.size), lo)
    cap = (len(S) - 1 - a) - int((lo - np.arange(a, a + lo.size)).min()) + 2
    assert 1 <= len(takes) - 1 <= cap, (len(takes), cap)


@st.composite
def fine_level_cases(draw):
    """A scale, coarse levels up to 2**21 in ascending or random order, and
    whether to lend a workspace.  Theta is a float's exact binary fraction
    in [1/16, 1) (denominator at most 2**56), drawn freely or as a decimal
    k/d, or k/2**42, or (a/b)**n times 1 or 1 +- 2**-s: a root that puts
    many fine levels on an integer or within 2**-20 of one, on either side;
    every fine level stays below 2**62."""
    n = draw(st.integers(min_value=1, max_value=16))
    kind = draw(st.sampled_from(["float", "decimal", "binary", "power"]))
    if kind == "power":
        b = draw(st.integers(min_value=2, max_value=50))
        s = draw(st.integers(min_value=42, max_value=90))
        nudge = Fraction(2**s + draw(st.sampled_from([-1, 0, 1])), 2**s)
        theta = Fraction(draw(st.integers(min_value=1, max_value=b - 1)), b) ** n * nudge
    elif kind == "float":
        theta = Fraction(draw(st.floats(min_value=1 / 16, max_value=1, exclude_max=True)))
    elif kind == "decimal":
        d = draw(st.integers(min_value=2, max_value=100))
        theta = Fraction(draw(st.integers(min_value=-(-d // 16), max_value=d - 1)) / d)
    else:
        theta = Fraction(draw(st.integers(min_value=3, max_value=2**42 - 1)), 2**42)
    scale = RationalScale(theta) if n == 1 and draw(st.booleans()) else RootScale(theta, n)
    top = draw(st.sampled_from([2**8, 2**16, 2**21]))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=top))
        marr = np.arange(start, min(start + draw(st.integers(0, 1000)), top + 1))
    else:
        marr = np.array(draw(st.lists(st.integers(0, top), max_size=60)), dtype=np.int64)
        if draw(st.booleans()):
            marr.sort()
    return scale, marr.astype(np.int64), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(fine_level_cases())
def test_fine_array_matches_scalar_fine(case):
    """fine_array equals the exact scalar fine entry by entry, with and
    without a lent workspace, whichever path each entry takes."""
    scale, marr, lend = case
    work = Workspace(max(marr.size, 1)) if lend else None
    got = scale.fine_array(marr, work)
    assert got.dtype == np.int64
    assert got.tolist() == [scale.fine(m) for m in marr.tolist()]


@st.composite
def thetas(draw):
    """A decimal k/d or a float's exact binary fraction, at least 2**-20,
    so fine levels of m up to 2**21 fit int64."""
    if draw(st.booleans()):
        d = draw(st.integers(min_value=2, max_value=1000))
        return Fraction(draw(st.integers(min_value=1, max_value=d - 1)), d)
    return Fraction(draw(st.floats(min_value=2**-20, max_value=1, exclude_max=True)))


@st.composite
def root_rules(draw):
    """(theta, n): n in 1..16 and theta from `thetas` or an exact n-th
    power (a/b)**n, whose fine levels land on integers."""
    n = draw(st.integers(min_value=1, max_value=16))
    if draw(st.integers(min_value=0, max_value=2)):
        return draw(thetas()), n
    b = draw(st.integers(min_value=2, max_value=40))
    return Fraction(draw(st.integers(min_value=1, max_value=b - 1)), b) ** n, n


LEVELS = st.integers(min_value=0, max_value=2**21)


@settings(max_examples=300, deadline=None)
@given(root_rules(), LEVELS, LEVELS)
def test_root_scale_meets_its_definition(rule, m, depth):
    """fine(m) is the smallest z with z**n * p >= m**n * q, and
    max_coarse(depth) the largest m with fine(m) <= depth, that is with
    m**n * q <= depth**n * p."""
    theta, n = rule
    p, q = theta.numerator, theta.denominator
    sc = RootScale(theta, n)
    z = sc.fine(m)
    assert z**n * p >= m**n * q and (z == 0 or (z - 1) ** n * p < m**n * q)
    top = sc.max_coarse(depth)
    assert top**n * q <= depth**n * p < (top + 1) ** n * q
    assert sc.fine(top) <= depth < sc.fine(top + 1)


@settings(max_examples=100, deadline=None)
@given(thetas(), st.lists(LEVELS, max_size=40), LEVELS)
def test_rational_scale_is_root_scale_of_order_one(theta, ms, depth):
    """RationalScale(theta) and RootScale(theta, 1) agree with each other
    and with the ceil- and floor-division of the rational rule."""
    p, q = theta.numerator, theta.denominator
    rational, root = RationalScale(theta), RootScale(theta, 1)
    want = [-(-m * q // p) for m in ms]
    assert [rational.fine(m) for m in ms] == [root.fine(m) for m in ms] == want
    assert rational.max_coarse(depth) == root.max_coarse(depth) == depth * p // q
    marr = np.array(ms, dtype=np.int64)
    assert rational.fine_array(marr).tolist() == root.fine_array(marr).tolist() == want


# ----------------------------------------------------------------------
# schedule run arrays against the level-by-level and run-by-run oracles


@st.composite
def two_phase_params(draw):
    """0 < s < t <= 1 with small and int64-overflowing denominators of t."""
    td = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**70), st.integers(2**62, 2**70)))
    t = Fraction(draw(st.integers(1, td)), td)
    v = draw(st.integers(2, 1000))
    s = t * Fraction(draw(st.integers(1, v - 1)), v)
    return TwoPhaseParams(s, t, draw(st.integers(2, 12)), draw(st.integers(1, 2)))


@st.composite
def long_run_schedules(draw, min_size=0):
    """Schedules from arbitrary runs, long ones included; neighbours with
    equal counts are merged by the constructor."""
    runs = draw(st.lists(st.tuples(st.integers(1, 10**17), st.sampled_from((1, 2))),
                         min_size=min_size, max_size=12))
    return BranchingSchedule(runs)


@settings(max_examples=60, deadline=None)
@given(two_phase_params())
def test_two_phase_runs_and_prefix_match_oracle(p):
    sched = two_phase_schedule(p)
    levels = oracle_two_phase_levels(p)
    assert sched.runs == tuple(oracle_runs(levels))
    assert sched.prefix_array().tolist() == oracle_prefix(levels)
    assert sched.depth == len(levels)


def _round_trip(obj, oracle_text: str):
    """load(dump(obj)), checking the written bytes against the oracle's."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.fds")
        dump(obj, path)
        with open(path, encoding="ascii") as fh:
            assert fh.read() == oracle_text
        return load(path)


@settings(max_examples=60, deadline=None)
@given(two_phase_params())
def test_two_phase_dump_matches_oracle_writer(p):
    sched = two_phase_schedule(p)
    assert _round_trip(sched, oracle_write_schedule(sched)) == sched


@settings(max_examples=60, deadline=None)
@given(long_run_schedules())
def test_schedule_round_trip_matches_oracles(s):
    text = oracle_write_schedule(s)
    assert _round_trip(s, text) == s
    body = text.split("\n", 2)[2].rstrip("\n")
    assert s.runs == tuple(oracle_parse_runs(body, " ", "\n") if body else ())


@settings(max_examples=40, deadline=None)
@given(st.lists(long_run_schedules(min_size=1), min_size=0, max_size=4),
       st.lists(st.integers(1, 2**40), min_size=4, max_size=4, unique=True),
       st.booleans())
def test_composite_round_trip_matches_oracles(scheds, shifts, origin):
    cs = CompositeSet(zip(sorted(shifts), scheds), include_origin=origin)
    text = oracle_write_composite(cs)
    assert _round_trip(cs, text) == cs
    for line, (_, s) in zip(text.splitlines()[2:], cs.components):
        body = line.split()[2].removeprefix("runs:")
        assert s.runs == tuple(oracle_parse_runs(body, "x", ","))


# the last and first length of every decimal width up to 19 digits
WIDTH_EDGES = [n for w in range(1, 19) for n in (10**w - 1, 10**w)] + [2**63 - 1]


def _alternating(lengths) -> BranchingSchedule:
    return BranchingSchedule([(n, 1 + i % 2) for i, n in enumerate(lengths)])


@pytest.mark.parametrize("n", WIDTH_EDGES)
def test_writers_match_oracles_at_every_decimal_width(n):
    """Each width edge alone and between one-digit runs, in a schedule file
    and an inline run list, written and read back."""
    scheds = [_alternating([n])]
    if n < 2**63 - 1:
        scheds.append(_alternating([3, n, 7]))
    for s in scheds:
        assert _round_trip(s, oracle_write_schedule(s)) == s
        for cs in (CompositeSet([(1, s)]), CompositeSet([(1, s), (5, _alternating([9, 1]))])):
            assert _round_trip(cs, oracle_write_composite(cs)) == cs


def test_writers_match_oracles_on_all_widths_mixed():
    """Every width below 19 digits in one run list, between one-digit runs."""
    lengths = [m for n in WIDTH_EDGES[:-1] for m in (n, 1 + n % 9)]
    s = _alternating(lengths)
    assert _round_trip(s, oracle_write_schedule(s)) == s
    cs = CompositeSet([(2, s), (3, _alternating([2**63 - 1]))], include_origin=False)
    assert _round_trip(cs, oracle_write_composite(cs)) == cs


# bytes a run-body mutant draws from: digits, both grammars' separators,
# and near misses (sign, underscore, tab, a non-ASCII digit)
BODY_BYTES = tuple("0123456789") + (" ", "\n", "x", ",", "-", "_", "\t", "\u0663")


@st.composite
def mutated_run_bodies(draw):
    """(body, inline): a well-formed run-line or inline run body with one
    byte inserted, deleted or replaced.  Numbers are small, zero-padded, or
    near 2**63, so a mutant can also reach the int64 bound."""
    inline = draw(st.booleans())
    inner, sep = ("x", ",") if inline else (" ", "\n")
    number = st.one_of(
        st.integers(0, 30).map(str),
        st.tuples(st.integers(1, 3), st.integers(0, 9)).map(lambda t: "0" * t[0] + str(t[1])),
        st.integers(2**62, 2**63 - 1).map(str),
    )
    runs = draw(st.lists(st.tuples(number, number), min_size=1, max_size=5))
    body = sep.join(f"{a}{inner}{b}" for a, b in runs)
    kind = draw(st.sampled_from(("insert", "delete", "replace")))
    at = draw(st.integers(0, len(body) - (kind != "insert")))
    byte = draw(st.sampled_from(BODY_BYTES))
    tail = body[at + (kind != "insert") :]
    return body[:at] + ("" if kind == "delete" else byte) + tail, inline


@settings(max_examples=400, deadline=None)
@given(mutated_run_bodies())
def test_run_body_parser_matches_grammar_oracle(case):
    """The numpy grammar check accepts a mutated body exactly when the
    full-body regex does; then its numbers are the oracle's (or the first
    one past int64 is named), else the error names the part after the
    longest well-formed prefix."""
    body, inline = case
    data = body.encode("ascii", "replace")
    inner, sep = ("x", ",") if inline else (" ", "\n")
    grammar, prefix, what = (
        (RUNS_TOKEN, formats._RUNS_PREFIX, "run token") if inline
        else (RUN_LINES, formats._RUN_LINES_PREFIX, "run line")
    )
    if grammar.fullmatch(body) is None:
        assert formats._run_numbers(data, inner, sep) is None
        part = body[prefix.match(body).end() :].split(sep, 1)[0]
        with pytest.raises(FormatError) as exc:
            formats._parse_runs(body, inner, sep)
        assert str(exc.value) == f"bad {what} {part!r}"
        return
    runs = oracle_parse_runs(body, inner, sep)
    tokens = [tok for run in body.split(sep) for tok in run.split(inner)]
    past = [t for t in tokens if len(t) > 19] or [t for t in tokens if int(t) >= 2**63]
    if past:
        with pytest.raises(FormatError) as exc:
            formats._run_numbers(data, inner, sep)
        assert str(exc.value) == f"number {past[0]} exceeds the int64 range"
    else:
        assert formats._run_numbers(data, inner, sep).tolist() == [list(r) for r in runs]


# every line break str.splitlines knows, whitespace that is not one (ASCII
# and not), and ordinary characters
LINE_CHARS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029", " ", "\t", "\x1f", "\xa0", "\u3000", "a", "7", "x", ",", "\u0663")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LINE_CHARS), max_size=40).map("".join))
def test_line_spans_cut_where_lines_does(text):
    """The composite parser's line positions give the lines of `_lines`:
    cut where str.splitlines cuts, trailing whitespace dropped, blank
    lines left out."""
    assert [text[a:b] for a, b in formats._line_spans(text)] == formats._lines(text)


def test_valid_run_bodies_load_without_a_regex(tmp_path, monkeypatch):
    """The prefix regexes serve error messages only: well-formed schedule
    and composite files load with them disabled."""

    class Unused:
        def match(self, body):
            raise AssertionError("a prefix regex ran on a well-formed body")

    monkeypatch.setattr(formats, "_RUNS_PREFIX", Unused())
    monkeypatch.setattr(formats, "_RUN_LINES_PREFIX", Unused())
    s = two_phase_schedule(TwoPhaseParams(Fraction(2, 5), Fraction(4, 5), 4, 2))
    cs = CompositeSet([(2, s), (5, BranchingSchedule([(3, 1), (2, 2)]))])
    for obj in (s, cs):
        dump(obj, str(tmp_path / "x.fds"))
        assert load(str(tmp_path / "x.fds")) == obj


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.sampled_from((1, 2))), max_size=12))
def test_schedule_arrays_match_per_level_oracle(runs):
    """Merged runs, prefix counts and prefix(m) from arbitrary runs."""
    s = BranchingSchedule(np.array(runs, dtype=np.int64).reshape(-1, 2))
    levels = [c for n, c in runs for _ in range(n)]
    assert s.runs == tuple(oracle_runs(levels))
    S = oracle_prefix(levels)
    assert s.prefix_array().tolist() == S
    assert [s.prefix(m) for m in range(s.depth + 1)] == S
    assert s.lengths.dtype == s.counts.dtype == np.int64
    assert not s.lengths.flags.writeable and not s.counts.flags.writeable


@st.composite
def lenient_schedule_texts(draw):
    """(schedule, text): the text `write_schedule` writes, or a variant
    with blank lines, trailing blanks, CR LF or another line break that
    str.splitlines cuts at, a missing final line break, or leading zeros."""
    runs = draw(st.lists(st.tuples(st.integers(1, 40), st.sampled_from((1, 2))), max_size=8))
    s = BranchingSchedule(np.array(runs, dtype=np.int64).reshape(-1, 2))
    lines = ["fds-schedule 1", f"depth {s.depth}", *(f"{n} {c}" for n, c in s.runs)]
    if draw(st.booleans()):
        k = draw(st.integers(1, len(lines) - 1))
        lines[k] = lines[k].replace(" ", " " + "0" * draw(st.integers(1, 2)), 1)
    lines = [ln + draw(st.sampled_from(("", "", " ", "\t", "  "))) for ln in lines]
    breaks = st.sampled_from(("\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n \n", "\x1c", " "))
    text = "".join(ln + draw(breaks) for ln in lines)
    return s, text[: len(text) - draw(st.sampled_from((0, 0, 1)))]


@settings(max_examples=200, deadline=None)
@given(lenient_schedule_texts())
def test_lenient_schedule_texts_parse_as_the_written_one(case):
    """The written text, read without the line split, and each lenient
    variant, read line by line, give equal schedules."""
    s, text = case
    assert formats.parse_schedule(formats.write_schedule(s)) == s
    assert formats.parse_schedule(text) == s


# ----------------------------------------------------------------------
# the store of solved windows: a ladder of starts on one object gives what
# fresh objects give


def _fresh(rep):
    """An equal set with an empty store of solved windows."""
    if isinstance(rep, DyadicTree):
        return DyadicTree(rep.depth, rep.leaves)
    if isinstance(rep, BranchingSchedule):
        return BranchingSchedule(np.stack([rep.lengths, rep.counts], axis=1))
    return CompositeSet(rep.components, rep.include_origin)


def _stored_answers(rep, grid, lo, hi, neighbors):
    """Values and witnesses of every estimator the store serves, at one
    coarse range: the spectrum, the upper spectrum, the quasi-Assouad
    ladder and the root spectra of `verify_nthroot`."""
    out = []
    for fn in (estimate_spectrum, estimate_upper):
        est = fn(rep, grid, (lo, hi), neighbors)
        out.append((est.values, est.witnesses))
    qa = estimate_quasi_assouad(rep, [1 - th for th in grid], (lo, hi), neighbors)
    out.append((qa.values, qa.witnesses))
    scales = [RootScale(th, n) for th in grid for n in (2, 3)]
    his = [min(hi, sc.max_coarse(rep.depth)) for sc in scales]
    out.append(spectra._dispatch(rep, spectra.SPECTRUM, scales, lo, his, neighbors))
    return out


def _assert_store_ladder(rep, data, neighbors=False):
    """A descending ladder of coarse starts to one top, then one of them
    again, on one object: every answer bit-equal to a fresh object's."""
    grid = _fan_case(data, rep.depth)[0]
    top = RationalScale(grid[0]).max_coarse(rep.depth)
    starts = sorted(set(data.draw(st.lists(st.integers(1, top), min_size=1, max_size=4))),
                    reverse=True)
    starts.append(data.draw(st.sampled_from(starts)))
    hi = data.draw(st.integers(starts[0], rep.depth))
    for lo in starts:
        got = _stored_answers(rep, grid, lo, hi, neighbors)
        assert got == _stored_answers(_fresh(rep), grid, lo, hi, neighbors), (grid, lo, hi)
    assert rep._memo["solved"]


@settings(max_examples=40, deadline=None)
@given(run_schedules(max_runs=12, max_length=8), st.data())
def test_store_ladder_on_schedules(s, data):
    assume(s.depth >= 2)
    _assert_store_ladder(s, data)


@settings(max_examples=40, deadline=None)
@given(st.lists(run_schedules(max_runs=6, max_length=6), min_size=1, max_size=3),
       st.booleans(), st.data())
def test_store_ladder_on_composites(pool, origin, data):
    """One to three components, with or without the origin; starts reach
    below the shifts, into the origin buckets."""
    gaps = data.draw(st.lists(st.integers(1, 3), min_size=len(pool), max_size=len(pool)))
    cs = CompositeSet(zip(np.cumsum(gaps).tolist(), pool), include_origin=origin)
    assume(cs.depth >= 2)
    _assert_store_ladder(cs, data)


@settings(max_examples=30, deadline=None)
@given(trees(max_depth=8), st.booleans(), st.data())
def test_store_ladder_on_trees(t, neighbors, data):
    _assert_store_ladder(t, data, neighbors)


@settings(max_examples=60, deadline=None)
@given(trees(max_depth=8), st.booleans(), st.sampled_from((1, 7, spectra.UPPER_BLOCK)),
       st.data())
def test_tree_uppers_take_tops_in_any_order(t, neighbors, block, data):
    """Per-theta tops that need not rise with theta, as the store's partial
    solves pass them, against the every-window oracle, with blocks down to
    one fine level."""
    grid, lo, _ = _fan_case(data, t.depth)
    his = [data.draw(st.integers(lo, RationalScale(th).max_coarse(t.depth))) for th in grid]
    with patch.object(spectra, "UPPER_BLOCK", block):
        got = spectra._tree_uppers(t, [RationalScale(th) for th in grid], lo, his, neighbors)
    assert got == [oracle_tree_upper(t, th, lo, h, neighbors)[:3] for th, h in zip(grid, his)]


def test_tree_uppers_read_a_lower_theta_past_the_top_thetas_top():
    """A path to level 6, full below: only windows from level 6 on reach
    1.0, so a theta whose top passes the largest theta's top must read
    those coarse levels."""
    t = DyadicTree(12, range(64))
    grid = [Fraction(1, 2), Fraction(3, 4)]
    his = [6, 3]
    got = spectra._tree_uppers(t, [RationalScale(th) for th in grid], 1, his, False)
    assert got == [oracle_tree_upper(t, th, 1, h)[:3] for th, h in zip(grid, his)]
    assert got[0][:2] == (1.0, 6)
