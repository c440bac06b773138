"""Estimators and verifiers across the three set representations."""

from fractions import Fraction
from math import log2

import numpy as np
import pytest

from fds.constructions import (
    TwoPhaseParams,
    closed_form_u,
    full_binary_tree,
    geometric_sequence_tree,
    left_path_tree,
    target_from_poly,
    concave_union,
    two_phase_schedule,
)
from fds import formats, schedule, spectra
from fds.dyadic import DyadicTree
from fds.schedule import BranchingSchedule
from fds.spectra import (
    estimate_box,
    estimate_quasi_assouad,
    estimate_spectrum,
    estimate_to_csv,
    estimate_upper,
    report_to_text,
    verify_bound,
    verify_chain,
    verify_main_theorem,
    verify_nthroot,
)
from fds.windows import RationalScale, RootScale

from conftest import (
    DEEP_PAIR,
    deep_pair_upper,
    max_alpha,
    oracle_tree_spectrum,
    oracle_tree_upper,
    ratio_fan_max,
    reference_upper,
)

F = Fraction
GRID = [F(k, 10) for k in range(1, 10)]


def test_full_binary_and_path_extremes():
    full = full_binary_tree(12)
    est = estimate_spectrum(full, GRID, (1, 12))
    assert est.values == [1.0] * 9
    up = estimate_upper(full, GRID, (1, 12))
    assert up.values == [1.0] * 9
    path = left_path_tree(64)
    est = estimate_spectrum(path, GRID, (6, 64))
    assert est.values == [0.0] * 9
    up = estimate_upper(path, GRID, (6, 64))
    assert up.values == [0.0] * 9


def test_spectrum_two_phase_tracks_closed_form(twophase_48):
    est = estimate_spectrum(twophase_48, GRID, (1024, 65536))
    for th, v in zip(est.thetas, est.values):
        assert abs(v - float(closed_form_u(F(2, 5), F(4, 5), th))) <= 0.05


def test_upper_dominates_spectrum_everywhere(twophase_48):
    grid = [F(k, 10) for k in range(3, 10)]
    sp = estimate_spectrum(twophase_48, grid, (16384, 65536))
    up = estimate_upper(twophase_48, grid, (16384, 65536))
    assert all(u >= s for s, u in zip(sp.values, up.values))
    assert all(a <= b for a, b in zip(up.values, up.values[1:]))


def test_upper_two_phase_near_t(twophase_48):
    up = estimate_upper(twophase_48, [F(9, 10)], (16384, 65536))
    assert abs(up.values[0] - 0.8) <= 0.05


@pytest.mark.parametrize("s, rounds", [("0.395", 19), ("0.394", 22)])
def test_upper_two_phase_grid_rounds(s, rounds, monkeypatch):
    """The CLI benchmark's upper estimate: t = 0.8 at depth 65536, 19
    thetas 0.05..0.95 over m 1024..65536.  For each theta <= 1/2 the
    maximum is reached in the top row b, at its boundary window or at
    its first column from which S stays at S[depth] (the depth for
    s = 0.395, whose last level branches, and 65535 for s = 0.394, whose
    last level is frozen, unless the boundary lies past it), so those
    solves start at the maximum and take one round.
    The rounds in all, counted as the takes less the solves (one take per
    solve for its boundary windows, one per round for the gains), are 19
    and 22, against 25 and 26 from the boundary windows alone."""
    rep = two_phase_schedule(TwoPhaseParams(F(s), F("0.8"), 4, 3))
    grid = [F(k, 20) for k in range(1, 20)]
    takes, solves = [], []
    take, solve = np.take, schedule.region_max

    def counted_take(*args, **kw):
        takes.append(1)
        return take(*args, **kw)

    def counted_solve(*args, **kw):
        solves.append(1)
        return solve(*args, **kw)

    monkeypatch.setattr(np, "take", counted_take)
    monkeypatch.setattr(schedule, "region_max", counted_solve)
    up = estimate_upper(rep, grid, (1024, 65536))
    assert len(solves) == 19 and len(takes) - len(solves) == rounds
    S = rep.prefix_array()
    last = int(np.flatnonzero(S == S[-1])[0])
    for th, value in zip(grid, up.values):
        if th <= F(1, 2):
            b = RationalScale(th).max_coarse(65536)
            f = RationalScale(th).fine(b)
            assert value == max((S[j] - S[b]) / (j - b) for j in (f, max(f, last))), th


def test_tree_estimators_match_oracle():
    t = geometric_sequence_tree(48)
    grid = [F(3, 10), F(1, 2), F(7, 10)]
    sp = estimate_spectrum(t, grid, (8, 48))
    up = estimate_upper(t, grid, (8, 48))
    for th, s_got, u_got in zip(grid, sp.values, up.values):
        hi = min(48, int(th * 48))
        assert s_got == oracle_tree_spectrum(t, th, 8, hi)[0]
        assert u_got == oracle_tree_upper(t, th, 8, hi)[0]


def _upper_rows(t, grid, neighbors=False):
    est = estimate_upper(t, grid, neighbors=neighbors)
    return [(v, *w) for v, w in zip(est.values, est.witnesses)]


def test_tree_upper_block_boundaries(monkeypatch):
    """One fine level per block gives the default block's values and
    witnesses, ties included (on new trees, whose stores are empty)."""
    eighths = [F(k, 8) for k in range(1, 8)]

    def cases():
        return [(geometric_sequence_tree(64), GRID, False),
                (geometric_sequence_tree(64), GRID, True),
                (full_binary_tree(8), eighths, False)]

    default = [_upper_rows(*case) for case in cases()]
    monkeypatch.setattr(spectra, "UPPER_BLOCK", 1)
    assert [_upper_rows(*case) for case in cases()] == default
    full = full_binary_tree(8)
    # every window of the full tree ties at 1.0: the first coarse level
    # and its first admitted fine level win
    lo = estimate_upper(full, eighths).m_range[0]
    assert default[2] == [
        (1.0, lo, RationalScale(th).fine(lo), 0) for th in eighths
    ]


def test_tree_upper_grid_in_one_call():
    both = estimate_upper(geometric_sequence_tree(512), GRID)
    for k, th in enumerate(GRID):
        one = estimate_upper(geometric_sequence_tree(512), [th], both.m_range)
        assert (one.values, one.witnesses) == ([both.values[k]], [both.witnesses[k]])


def test_tree_neighbor_mode_estimates():
    t = geometric_sequence_tree(32)
    grid = [F(1, 2)]
    off = estimate_spectrum(t, grid, (8, 16), neighbors=False)
    on = estimate_spectrum(t, grid, (8, 16), neighbors=True)
    assert on.values[0] >= off.values[0]
    up_on = estimate_upper(t, grid, (8, 16), neighbors=True)
    assert up_on.values[0] >= on.values[0]
    # exact, witnesses included, against the set-scan oracles
    for th in (F(1, 3), F(1, 2), F(3, 4)):
        hi = min(16, 32 * th.numerator // th.denominator)
        for est, oracle in ((estimate_spectrum, oracle_tree_spectrum),
                            (estimate_upper, oracle_tree_upper)):
            got = est(t, [th], (8, 16), neighbors=True)
            assert (got.values[0], *got.witnesses[0]) == oracle(t, th, 8, hi, True)


def test_tree_counts_read_one_log2_rule():
    """1621 is the first count that numpy's AVX-512 log2 rounds one ulp
    away from math.log2.  Its window on a 1621-leaf tree reads
    math.log2(1621) / 11 bit for bit in the spectrum, the upper estimate
    and the brute side, with neighbors off and on, and so does the box
    at the leaf level of the same leaves at depth 11."""
    want = log2(1621) / 11
    t = DyadicTree(12, range(1621))
    for neighbors in (False, True):
        for est in (estimate_spectrum, estimate_upper):
            assert est(t, [F(1, 12)], (1, 1), neighbors=neighbors).values == [want]
        assert spectra._ratio_fan_maxima(t, 12, [F(1, 12)], 1, [1], neighbors) == [want]
    assert estimate_box(DyadicTree(11, range(1621)), (11, 11)).value == want


def test_deep_pair_upper_closed_form(tmp_path):
    """The library's upper estimate on the 37-byte depth-100,000 file, at
    theta = 1/2 and then on the grid k/10, in well under a second per call:
    the fine levels below the leaves never reach their floors.  The grid
    call solves theta = 1/2 only below the stored start, where every
    window ties at 0, so only the floor's own level is read.  Neighbor
    mode is left out: its table is quadratic in depth, 37 GiB here."""
    path = tmp_path / "pair.fds"
    path.write_text(DEEP_PAIR)
    assert path.stat().st_size == 37
    tree = formats.load(str(path))
    for grid in ([F(1, 2)], GRID):
        est = estimate_upper(tree, grid)
        assert [(v, m, mp) for v, (m, mp, _) in zip(est.values, est.witnesses)] == [
            deep_pair_upper(th) for th in grid]


def test_estimate_box_examples(twophase_48):
    assert estimate_box(full_binary_tree(12), (6, 12)).value == 1.0
    assert estimate_box(left_path_tree(32), (8, 32)).value == 0.0
    geo = geometric_sequence_tree(1024)
    assert estimate_box(geo, (512, 1024)).value <= 0.02
    assert abs(estimate_box(twophase_48, (16384, 65536)).value - 0.4) <= 0.001


def test_witness_reproducibility(twophase_48):
    t = geometric_sequence_tree(64)
    grid = [F(2, 5), F(7, 10)]
    for est in (estimate_spectrum(t, grid, (8, 40)), estimate_upper(t, grid, (8, 40))):
        for v, (m, mp, node) in zip(est.values, est.witnesses):
            a, wit = max_alpha(t, m, mp)
            assert a == v
            assert wit == node
    est = estimate_spectrum(twophase_48, [F(1, 2)], (1024, 65536))
    (m, mp, _), = est.witnesses
    S = twophase_48.prefix_array()
    assert int(S[mp] - S[m]) / (mp - m) == est.values[0]


def test_quasi_assouad_full_and_path():
    eps = [F(1, 10), F(1, 20), F(1, 50)]
    full = full_binary_tree(12)
    qa = estimate_quasi_assouad(full, eps, (1, 12))
    assert qa.values == [1.0] * 3 and qa.headline == 1.0
    path = left_path_tree(256)
    qa = estimate_quasi_assouad(path, eps, (25, 256))
    assert qa.headline == 0.0
    assert "eps=0.02" in qa.trend


@pytest.mark.parametrize("values, kind", [
    ([0.5, 0.5, 0.75], "non-decreasing"),
    ([0.75, 0.5, 0.5], "non-increasing"),
    ([0.5, 0.75, 0.625], "mixed"),
])
def test_quasi_assouad_trend_kinds(monkeypatch, values, kind):
    """The trend line names the shape of the values as eps shrinks.  The
    upper estimate is patched: a set's own upper spectrum never falls as
    theta = 1 - eps rises, so only patched values reach the other kinds."""

    def fake(mode, rep, thetas, m_range, neighbors):
        grid = sorted(thetas)
        return spectra.SpectrumEstimate(mode, grid, values, (1, 2), [(1, 2, 0)] * len(grid))

    monkeypatch.setattr(spectra, "_estimate", fake)
    qa = estimate_quasi_assouad(None, [F(1, 20), F(1, 10), F(1, 50)])
    assert qa.values == [values[1], values[0], values[2]] and qa.headline == values[2]
    assert qa.trend == (f"{kind} as eps shrinks: eps=0.1->{values[0]!r}, "
                        f"eps=0.05->{values[1]!r}, eps=0.02->{values[2]!r}")


def test_repeated_epsilons_and_orders_count_once(twophase_48, monkeypatch):
    """A repeated eps counts once, at its first occurrence, as a repeated
    theta does in a grid: the same estimate, CSV rows and trend line as
    without the repeat.  A repeated root order is checked once: the root
    spectra are solved for two orders per theta, not three."""
    m_range = (16384, 20000)
    once = estimate_quasi_assouad(twophase_48, [F(1, 20), F(1, 10)], m_range)
    twice = estimate_quasi_assouad(twophase_48, [F(1, 20), "0.1", F(1, 10), "1/20"], m_range)
    assert twice == once and twice.epsilons == [F(1, 20), F(1, 10)]
    assert estimate_to_csv(twice) == estimate_to_csv(once)
    assert twice.trend.count("eps=0.1->") == 1
    sizes = []
    dispatch = spectra._dispatch
    monkeypatch.setattr(spectra, "_dispatch",
                        lambda rep, mode, scales, *a: sizes.append(len(scales)) or dispatch(rep, mode, scales, *a))
    grid = [F(1, 2), F(7, 10)]
    reports = [verify_nthroot(twophase_48, grid, n, m_range, 0.05) for n in ((2, 2, 3), (2, 3))]
    assert reports[0] == reports[1]
    assert sizes == [2, 4, 2, 4]


def test_quasi_assouad_two_phase(twophase_48):
    qa = estimate_quasi_assouad(twophase_48, [F(1, 10), F(1, 20), F(1, 50)], (16384, 65536))
    assert abs(qa.headline - 0.8) <= 0.05
    with pytest.raises(ValueError):
        estimate_quasi_assouad(twophase_48, [], (16384, 65536))


def test_clamped_range_error_messages(twophase_48):
    with pytest.raises(ValueError, match="beyond depth"):
        estimate_spectrum(twophase_48, [F(1, 10)], (16384, 65536))
    with pytest.raises(ValueError, match="invalid for depth"):
        estimate_spectrum(twophase_48, GRID, (0, 65536))


def test_norm_range_default_policy():
    from fds.spectra import _norm_range

    # floor(depth * min theta) >= depth // 4 keeps depth // 4
    assert _norm_range(64, None) == (16, 64)
    assert _norm_range(64, None, [F(1, 4), F(1, 2)]) == (16, 64)
    # a smaller floor(depth * min theta) lowers m_lo to it
    assert _norm_range(64, None, [F(1, 2), F(1, 10)]) == (6, 64)
    assert _norm_range(3, None) == (1, 3)
    # floor(depth * min theta) = 0: m_lo stays 1 and the clamp has no window
    assert _norm_range(8, None, [F(1, 10)]) == (1, 8)
    with pytest.raises(ValueError, match="no admissible window"):
        estimate_spectrum(left_path_tree(8), [F(1, 10)])
    # an explicit range is validated and kept as given
    assert _norm_range(64, (2, 9), [F(1, 10)]) == (2, 9)
    for bad in ((0, 64), (10, 65), (5, 4)):
        with pytest.raises(ValueError, match="invalid for depth"):
            _norm_range(64, bad, [F(1, 2)])


def test_verify_main_theorem_exact_everywhere(twophase_48):
    sets = [
        full_binary_tree(10),
        left_path_tree(40),
        geometric_sequence_tree(96),
        BranchingSchedule([(3, 2), (5, 1), (7, 2), (9, 1), (12, 2)]),
    ]
    for rep in sets:
        r = verify_main_theorem(rep, [F(3, 10), F(3, 5), F(9, 10)], (1, rep.depth))
        assert r.passed and r.worst == 0.0
    r = verify_main_theorem(twophase_48, GRID, (3277, 4096))
    assert r.passed and r.worst == 0.0


def test_verify_bound_examples(twophase_48):
    assert verify_bound(full_binary_tree(12), GRID, (1, 12), 0.0).passed
    assert verify_bound(left_path_tree(64), GRID, (6, 64), 0.05).passed
    r = verify_bound(twophase_48, [F(k, 20) for k in range(1, 20)], (1024, 65536), 0.05)
    assert r.passed
    # the bound is attained (within tol) while theta <= 1 - s/t
    est = estimate_spectrum(twophase_48, [F(1, 4), F(2, 5), F(1, 2)], (1024, 65536))
    box = estimate_box(twophase_48, (1024, 65536)).value
    for th, v in zip(est.thetas, est.values):
        assert abs(v - box / (1 - float(th))) <= 0.05


def test_verify_chain_all_sets(twophase_48):
    grid7 = [F(k, 10) for k in range(3, 10)]
    assert verify_chain(full_binary_tree(12), GRID, (1, 12), 0.05).passed
    assert verify_chain(left_path_tree(256), GRID, (25, 256), 0.05).passed
    assert verify_chain(twophase_48, grid7, (16384, 65536), 0.05).passed
    geo = geometric_sequence_tree(256)
    r = verify_chain(
        geo,
        [F(3, 10), F(2, 5), F(1, 2), F(3, 5)],
        (64, 256),
        0.05,
        epsilons=[F(1, 2), F(9, 20), F(2, 5)],
    )
    assert r.passed


def test_verify_chain_failure_carries_witness():
    # an adversarial tolerance forces failure; witnesses name the link
    geo = geometric_sequence_tree(128)
    r = verify_chain(geo, [F(1, 2)], (32, 128), tol=-1.0)
    assert not r.passed
    assert r.witnesses
    text = report_to_text(r)
    assert text.startswith("CHECK chain FAIL")
    assert "witness" in text


@pytest.mark.parametrize("case", ["geometric", "geometric-neighbors", "two-phase", "union"])
def test_verify_chain_default_headline_is_the_grid_top(case, monkeypatch):
    """Without epsilons the chain's quasi-Assouad headline is the upper
    spectrum at the grid top: the report equals the one with the single
    rung eps = 1 - max(grid), and no quasi-Assouad estimate is made."""
    rep = {
        "geometric": lambda: geometric_sequence_tree(128),
        "geometric-neighbors": lambda: geometric_sequence_tree(128),
        "two-phase": lambda: two_phase_schedule(TwoPhaseParams(F(2, 5), F(4, 5), blocks=2)),
        "union": lambda: concave_union(target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4),
                                       blocks=2),
    }[case]()
    nb = case == "geometric-neighbors"
    grid = [F(k, 10) for k in range(3, 10)]
    explicit = verify_chain(rep, grid, None, 0.05, [1 - grid[-1]], nb)
    monkeypatch.setattr(spectra, "estimate_quasi_assouad", None)
    assert verify_chain(rep, grid, None, 0.05, None, nb) == explicit


def test_verify_nthroot(twophase_48):
    assert verify_nthroot(full_binary_tree(12), GRID, (2, 3), (1, 12), 0.0).passed
    assert verify_nthroot(left_path_tree(64), GRID, (2, 3), (6, 64), 0.0).passed
    grid = [F(3, 10), F(3, 5), F(9, 10)]
    r = verify_nthroot(twophase_48, grid, (2, 3), (16384, 65536), 0.05)
    assert r.passed
    # closed-form spot check at theta = 0.3, n = 2
    base = closed_form_u(0.4, 0.8, 0.3)
    other = closed_form_u(0.4, 0.8, 0.3**0.5)
    assert base == pytest.approx(0.5714, abs=1e-3)
    assert other == pytest.approx(0.8, abs=1e-9)
    assert base <= other


def test_nthroot_at_order_16_calls_the_scalar_fine_rarely(twophase_48, monkeypatch):
    """At n = 16 every m**n passes int64, yet only an entry whose float seed
    lies within its error bound of an integer reaches the scalar
    RootScale.fine: far fewer calls than coarse levels the check reads."""
    calls = []
    fine = RootScale.fine
    monkeypatch.setattr(RootScale, "fine", lambda self, m: calls.append(m) or fine(self, m))
    grid = [F(k, 10) for k in range(3, 10)]
    assert verify_nthroot(twophase_48, grid, (16,), (16384, 65536), 0.05).passed
    depth = twophase_48.depth
    entries = sum(min(65536, RootScale(th, 16).max_coarse(depth)) - 16383 for th in grid)
    assert entries > 300_000
    assert len(calls) * 1000 < entries


def _root_spectrum(rep, theta, n, lo, hi):
    """The exact-ratio spectrum at theta ** (1/n) from the set's public
    tables: one window per coarse level of the clamped range."""
    scale = RootScale(theta, n)
    ms = np.arange(lo, min(hi, scale.max_coarse(rep.depth)) + 1)
    fs = scale.fine_array(ms)
    if isinstance(rep, DyadicTree):
        nums = rep.run_table().logs(rep.depth - fs, rep.depth - ms)
    else:
        S = rep.prefix_array()
        nums = S[fs] - S[ms]
    return float((nums / (fs - ms)).max())


CHAIN_EPS = [F(1, 2), F(1, 5), F(1, 10)]


def _raw_rows(check, rep, grid, m_range, tol):
    """(deviation, own tolerance) per link of a check, recomputed from the
    public estimates: tolerance links carry tol, exact links 0.0."""
    spec = estimate_spectrum(rep, grid, m_range)
    lo, hi = spec.m_range
    if check == "main-theorem":
        up = estimate_upper(rep, grid, m_range)
        his = [min(hi, RationalScale(th).max_coarse(rep.depth)) for th in up.thetas]
        return [
            (abs(u - ratio_fan_max(rep, th, lo, h)), 0.0)
            for th, u, h in zip(up.thetas, up.values, his)
        ]
    if check == "bound":
        box = estimate_box(rep, (lo, hi)).value
        return [(v - box / (1 - float(th)), tol) for th, v in zip(spec.thetas, spec.values)]
    if check == "nthroot":
        return [
            (v - _root_spectrum(rep, th, n, lo, hi), tol)
            for th, v in zip(spec.thetas, spec.values)
            for n in (2, 3)
        ]
    up = estimate_upper(rep, grid, (lo, hi)).values
    box = estimate_box(rep, (lo, hi)).value
    qa = estimate_quasi_assouad(rep, CHAIN_EPS, (lo, hi)).headline
    rows = []
    for sv, uv in zip(spec.values, up):
        rows += [(box - sv, tol), (sv - uv, 0.0), (uv - qa, tol)]
    return rows + [(u1 - u2, 0.0) for u1, u2 in zip(up, up[1:])]


@pytest.mark.parametrize("check", ["main-theorem", "bound", "chain", "nthroot"])
def test_report_rule(check, twophase_48):
    """worst is the largest raw deviation, before any tolerance, and a check
    passes iff every deviation is at most its own tolerance."""
    sets = [
        (geometric_sequence_tree(128), [F(1, 10), F(3, 10), F(1, 2), F(9, 10)], None),
        (twophase_48, [F(3, 10), F(3, 5), F(9, 10)], (3277, 4096)),
    ]
    for rep, grid, m_range in sets:
        for tol in (0.05, -0.01):
            r = {
                "main-theorem": lambda: verify_main_theorem(rep, grid, m_range),
                "bound": lambda: verify_bound(rep, grid, m_range, tol),
                "chain": lambda: verify_chain(rep, grid, m_range, tol, CHAIN_EPS),
                "nthroot": lambda: verify_nthroot(rep, grid, (2, 3), m_range, tol),
            }[check]()
            raw = _raw_rows(check, rep, grid, m_range, tol)
            assert r.worst == max(dev for dev, _ in raw)
            assert r.passed == all(dev <= own for dev, own in raw)
            assert len(r.witnesses) == sum(dev > own for dev, own in raw)


def test_geometric_four_quantities_small_and_ordered(geo_tree_256=None):
    geo = geometric_sequence_tree(1024)
    grid = [F(3, 10), F(2, 5), F(1, 2), F(3, 5)]
    rng = (256, 1024)
    box = estimate_box(geo, rng).value
    sp = estimate_spectrum(geo, grid, rng)
    up = estimate_upper(geo, grid, rng)
    qa = estimate_quasi_assouad(geo, [F(1, 2), F(9, 20), F(2, 5)], rng)
    tol = 0.05
    quantities = [box, max(sp.values), max(up.values), qa.headline]
    assert all(v <= 0.1 for v in quantities)
    assert box <= min(sp.values) + tol
    assert all(s <= u for s, u in zip(sp.values, up.values))
    assert max(up.values) <= qa.headline + tol


def test_coarse_grid_spectrum_lower_bounds_upper(twophase_48):
    # maximizing the exact-ratio spectrum over a coarse grid of ratios
    # below theta can only lower-bound the upper estimate; the gap is
    # expected, not a defect
    theta = F(1, 2)
    up = estimate_upper(twophase_48, [theta], (2048, 65536)).values[0]
    coarse = [F(k, 8) for k in range(1, 5)]  # ratios <= 1/2
    best = max(estimate_spectrum(twophase_48, coarse, (2048, 65536)).values)
    assert best <= up


def test_composite_chain_and_bound():
    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4)
    cs = concave_union(target, m0=8, blocks=2, shifts=[2, 4, 8, 16])
    grid7 = [F(k, 10) for k in range(3, 10)]
    assert verify_chain(cs, grid7, (1024, cs.depth), 0.05).passed
    assert verify_bound(cs, grid7, (1024, cs.depth), 0.05).passed
    assert verify_main_theorem(cs, grid7, (1024, 2048)).passed
    assert verify_nthroot(cs, [F(3, 10), F(3, 5)], (2, 3), (1024, cs.depth), 0.05).passed


def test_csv_round_formatting(twophase_48):
    est = estimate_spectrum(twophase_48, [F(1, 2)], (1024, 65536))
    text = estimate_to_csv(est)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,value,m_witness,mprime_witness"
    cells = lines[1].split(",")
    assert cells[0] == "0.5"
    assert float(cells[1]) == est.values[0]
    box = estimate_box(twophase_48, (16384, 65536))
    btext = estimate_to_csv(box)
    assert btext.strip().split("\n")[1].startswith(",")
    assert btext.strip().split("\n")[1].endswith(",")


def test_report_text_pass_line():
    r = verify_bound(full_binary_tree(12), GRID, (1, 12), 0.0)
    text = report_to_text(r)
    assert text.startswith("CHECK bound PASS worst=")
    assert "tol=" in text


def _assert_upper_matches_reference(rep, grid, lo, hi):
    est = estimate_upper(rep, grid, (lo, hi))
    for th, v, (m, mp, _) in zip(est.thetas, est.values, est.witnesses):
        top = min(hi, rep.depth * th.numerator // th.denominator)
        assert (v, m, mp) == reference_upper(rep, th, lo, top), th


def test_upper_matches_reference_sweep_two_phase(twophase_48):
    """The README two-phase set on its README grid and range."""
    _assert_upper_matches_reference(twophase_48, [F(k, 20) for k in range(1, 20)], 1024, 65536)


def test_upper_matches_reference_sweep_union():
    """The 8-component README union; lo below the deepest shift brings the
    node holding the origin into the fan."""
    cs = concave_union(target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 8))
    lo = cs.depth // 512
    assert lo < cs.shifts[-1]
    _assert_upper_matches_reference(cs, [F(3, 10), F(9, 10)], lo, cs.depth)


def test_neighbor_mode_rejected_off_trees(twophase_48):
    cs = concave_union(target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4), m0=8, blocks=2,
                       shifts=[2, 4, 8, 16])
    grid = [F(1, 2)]
    for rep in (twophase_48, cs):
        lo = rep.depth // 4
        calls = (
            lambda: estimate_spectrum(rep, grid, (lo, rep.depth), neighbors=True),
            lambda: estimate_upper(rep, grid, (lo, rep.depth), neighbors=True),
            lambda: estimate_quasi_assouad(rep, [F(1, 10)], (lo, rep.depth), neighbors=True),
            lambda: verify_main_theorem(rep, grid, (lo, lo + 8), neighbors=True),
            lambda: verify_bound(rep, grid, (lo, rep.depth), neighbors=True),
            lambda: verify_chain(rep, grid, (lo, rep.depth), neighbors=True),
            lambda: verify_nthroot(rep, grid, (2,), (lo, rep.depth), neighbors=True),
        )
        for call in calls:
            with pytest.raises(ValueError, match="neighbor mode"):
                call()


def test_empty_tree_rejected_everywhere():
    """An empty tree has no window to maximize: every estimator and
    verifier rejects it instead of reporting -inf or a PASS."""
    from fds.formats import parse_tree

    empty = parse_tree("fds-tree 2\ndepth 8\nleaves 0\n")
    grid = [F(1, 2)]
    for nb in (False, True):
        for call in (
            lambda: estimate_spectrum(empty, grid, neighbors=nb),
            lambda: estimate_upper(empty, grid, neighbors=nb),
            lambda: estimate_quasi_assouad(empty, [F(1, 10)], neighbors=nb),
            lambda: verify_main_theorem(empty, grid, neighbors=nb),
            lambda: verify_bound(empty, grid, neighbors=nb),
            lambda: verify_chain(empty, grid, neighbors=nb),
            lambda: verify_nthroot(empty, grid, (2,), neighbors=nb),
            lambda: estimate_box(empty),
        ):
            with pytest.raises(ValueError, match="empty tree"):
                call()


def test_estimators_reject_bad_inputs_by_name(twophase_48):
    with pytest.raises(TypeError, match="^unsupported set representation object$"):
        estimate_spectrum(object(), GRID)
    with pytest.raises(ValueError, match="^empty theta grid$"):
        estimate_spectrum(twophase_48, [])
    with pytest.raises(ValueError, match=r"^theta grid must lie strictly inside \(0, 1\)$"):
        estimate_upper(twophase_48, [F(1, 2), F(1)])
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        estimate_to_csv(object())


def test_nthroot_needs_a_root_order_before_any_estimate(twophase_48, monkeypatch):
    """No root order is an error, not a pass over no rows: raised before
    the set is read or any estimate runs."""
    monkeypatch.setattr(spectra, "estimate_spectrum", lambda *a, **k: pytest.fail("estimated"))
    for rep in (twophase_48, object()):
        with pytest.raises(ValueError, match="^need at least one root order$"):
            verify_nthroot(rep, GRID, n_values=[])


# ----------------------------------------------------------------------
# the store of solved windows (module docstring of `spectra`)


def _small_union():
    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4)
    return concave_union(target, m0=4, blocks=2, shifts=[2, 4, 8, 16])


def _stored_count(rep) -> int:
    return sum(map(len, rep._memo["solved"].values()))


def _spy(monkeypatch, names):
    """Wrap spectra's kernels `names`; returns the list of (name, lo, top)
    per call, top being the list of tops for `_tree_uppers`."""
    calls = []
    for name in names:
        kernel = getattr(spectra, name)

        def wrapper(rep, scale, lo, hi, *rest, kernel=kernel, name=name):
            calls.append((name, lo, hi))
            return kernel(rep, scale, lo, hi, *rest)

        monkeypatch.setattr(spectra, name, wrapper)
    return calls


def test_repeated_verifiers_on_one_union_solve_nothing(monkeypatch):
    """A second verify_chain and verify_bound on the same union are served
    by its store: neither composite kernel runs, and the reports are the
    first ones."""
    cs = _small_union()
    grid = [F(k, 10) for k in range(3, 10)]
    first = [verify_chain(cs, grid, None, 0.05), verify_bound(cs, grid, None, 0.05)]
    calls = _spy(monkeypatch, ["composite_spectrum", "composite_upper"])
    assert [verify_chain(cs, grid, None, 0.05), verify_bound(cs, grid, None, 0.05)] == first
    assert calls == []


@pytest.mark.parametrize("make, estimate, kernel", [
    (_small_union, estimate_spectrum, "composite_spectrum"),
    (_small_union, estimate_upper, "composite_upper"),
    (lambda: geometric_sequence_tree(64), estimate_spectrum, "_tree_spectrum"),
    (lambda: geometric_sequence_tree(64), estimate_upper, "_tree_uppers"),
])
def test_a_lower_start_solves_only_the_levels_below_the_stored_one(make, estimate, kernel,
                                                                    monkeypatch):
    """After a query from coarse level s, one from lo < s to the same top
    runs the kernel over lo..s - 1 alone, and answers as a fresh set does;
    the same query again runs nothing."""
    rep, theta = make(), F(1, 2)
    hi = RationalScale(theta).max_coarse(rep.depth)
    lo, s = 3, hi // 2
    estimate(rep, [theta], (s, hi))
    calls = _spy(monkeypatch, [kernel])
    got = estimate(rep, [theta], (lo, hi))
    top = [s - 1] if kernel == "_tree_uppers" else s - 1
    assert calls == [(kernel, lo, top)]
    calls.clear()
    again = estimate(rep, [theta], (lo, hi))
    assert calls == []
    assert (got.values, got.witnesses) == (again.values, again.witnesses)
    fresh = estimate(make(), [theta], (lo, hi))
    assert (got.values, got.witnesses) == (fresh.values, fresh.witnesses)


def test_store_keys_stay_apart():
    """One set's store keeps a root scale apart from the ratio rule at the
    same theta and top, the upper spectrum apart from the spectrum, and
    neighbor mode on apart from off: each answer is a fresh set's, and
    differs from the other one of its pair."""
    theta = F(1, 2)

    def spectrum(rep, scale):
        return spectra._dispatch(rep, spectra.SPECTRUM, [scale], 4, [64], False)

    def estimate(fn, neighbors=False):
        def values_and_witnesses(rep):
            est = fn(rep, [theta], (2, 6), neighbors)
            return est.values, est.witnesses
        return values_and_witnesses

    pairs = [
        (lambda rep: spectrum(rep, RationalScale(theta)),
         lambda rep: spectrum(rep, RootScale(theta, 2)), _small_union),
        (estimate(estimate_spectrum), estimate(estimate_upper),
         lambda: two_phase_schedule(TwoPhaseParams(F(2, 5), F(4, 5), 4, 2))),
        (estimate(estimate_upper), estimate(estimate_upper, True), lambda: full_binary_tree(12)),
    ]
    for first, second, make in pairs:
        rep = make()
        a, b = first(rep), second(rep)
        assert a != b
        assert (a, b) == (first(make()), second(make()))
        assert len(rep._memo["solved"]) == 2 and _stored_count(rep) == 2


def test_store_stops_at_its_cap(monkeypatch):
    """Past SOLVED_CAP results a set stores nothing more, and its answers
    are still a fresh set's."""
    monkeypatch.setattr(spectra, "SOLVED_CAP", 5)
    cs = _small_union()
    grid = [F(1, 3), F(1, 2), F(3, 4)]
    for lo in (40, 20, 9, 3, 20):
        for fn in (estimate_spectrum, estimate_upper):
            got = fn(cs, grid, (lo, 80))
            assert _stored_count(cs) <= 5
            assert got == fn(_small_union(), grid, (lo, 80))
    assert _stored_count(cs) == 5
