"""Generators: two-phase schedules, rational enumeration, concave unions,
sanity trees."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fds.constructions import (
    ConcaveTarget,
    TwoPhaseParams,
    closed_form_u,
    concave_union,
    finite_sup_oracle,
    full_binary_tree,
    geometric_sequence_tree,
    left_path_tree,
    poly_eval,
    rational_enumeration,
    target_from_poly,
    two_phase_schedule,
)
from fds.errors import BudgetError

from conftest import (
    max_alpha,
    oracle_runs,
    oracle_schedule_spectrum,
    oracle_target_admissible,
    oracle_two_phase_levels,
)

F = Fraction


def test_closed_form_values():
    assert closed_form_u(F(2, 5), F(4, 5), F(1, 2)) == F(4, 5)
    assert closed_form_u(F(1, 5), F(9, 10), F(9, 10)) == F(9, 10)
    # theta -> 0 limit is s
    assert closed_form_u(F(3, 10), F(7, 10), F(1, 10**6)) == pytest.approx(0.3, abs=1e-5)
    with pytest.raises(ValueError):
        closed_form_u(F(4, 5), F(2, 5), F(1, 2))
    with pytest.raises(ValueError):
        closed_form_u(F(2, 5), F(4, 5), F(0))


def test_two_phase_params_validation():
    with pytest.raises(ValueError):
        TwoPhaseParams(F(4, 5), F(2, 5))
    with pytest.raises(ValueError):
        TwoPhaseParams(F(2, 5), F(4, 5), m0=1)
    p = TwoPhaseParams(F(2, 5), F(4, 5))
    assert p.quiet_fraction == F(1, 2)


def test_two_phase_block_structure():
    # s=0.5, t=1.0, m0=4, 2 blocks: active regions branch fully
    sched = two_phase_schedule(TwoPhaseParams(F(1, 2), F(1), 4, 2))
    assert sched.depth == 256
    # block 2 = (16, 256], quiet (16, 136], active (136, 256]
    assert sched.prefix(136) - sched.prefix(16) == 0
    assert sched.prefix(256) - sched.prefix(136) == 120  # window exponent 1


def test_two_phase_beatty_counts():
    sched = two_phase_schedule(TwoPhaseParams(F(2, 5), F(4, 5), 4, 3))
    # per block, branch count = floor(t * active length)
    M = 4
    t = F(4, 5)
    q = F(1, 2)
    for _ in range(3):
        nxt = M * M
        L = nxt - M
        quiet = (q.numerator * L) // q.denominator
        active = L - quiet
        got = sched.prefix(nxt) - sched.prefix(M)
        assert got == (t.numerator * active) // t.denominator
        M = nxt


def test_two_phase_spectrum_against_exhaustive_windows():
    sched = two_phase_schedule(TwoPhaseParams(F(1, 5), F(9, 10), 4, 3))
    theta = F(1, 2)
    lo, hi = 1024, sched.depth // 2
    brute = oracle_schedule_spectrum(sched, theta, lo, hi)
    assert abs(brute - float(closed_form_u(F(1, 5), F(9, 10), theta))) <= 0.05


def test_two_phase_depth_budget():
    with pytest.raises(BudgetError):
        two_phase_schedule(TwoPhaseParams(F(2, 5), F(4, 5), 4, 4))


@pytest.mark.parametrize("s, t, m0", [
    # t's numerator times the active length (about 2**19) passes 2**63
    (F(1, 4), F(2**45 + 1, 2**46), 1024),
    # t's denominator alone passes 2**63
    (F(1, 2**70), F(3, 2**64 + 1), 64),
    (F(1, 3), F(2**64 - 1, 2**64), 64),
])
def test_two_phase_exact_past_int64(s, t, m0):
    """floor(t * a) stays exact where t's numerator times the block length,
    or its denominator, exceeds the int64 range."""
    p = TwoPhaseParams(s, t, m0, 1)
    assert p.t.numerator * (m0 * m0) >= 2**63 or p.t.denominator >= 2**63
    sched = two_phase_schedule(p)
    levels = oracle_two_phase_levels(p)
    assert sched.runs == tuple(oracle_runs(levels))
    assert sched.prefix(sched.depth) == sum(c == 2 for c in levels)


def test_long_run_density_approaches_s():
    for k in (1, 2, 3):
        sched = two_phase_schedule(TwoPhaseParams(F(2, 5), F(4, 5), 4, k))
        density = F(sched.prefix(sched.depth), sched.depth)
        assert abs(float(density) - 0.4) <= 0.4 / (2**k)


def test_rational_enumeration():
    assert rational_enumeration(1) == [F(1, 2)]
    assert rational_enumeration(3) == [F(1, 2), F(1, 3), F(2, 3)]
    got = rational_enumeration(40)
    assert len(set(got)) == 40
    assert all(0 < q < 1 for q in got)
    assert all(q.denominator > q.numerator >= 1 for q in got)
    with pytest.raises(ValueError):
        rational_enumeration(0)


def test_concave_target_validation():
    ConcaveTarget(F(2, 5), ((F(1, 2), F(11, 20)), (F(1, 4), F(39, 80))))
    with pytest.raises(ValueError):  # duplicate abscissae
        ConcaveTarget(F(2, 5), ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    with pytest.raises(ValueError):  # decreasing
        ConcaveTarget(F(2, 5), ((F(1, 2), F(1, 5)),))
    with pytest.raises(ValueError):  # convex kink
        ConcaveTarget(F(2, 5), ((F(1, 4), F(41, 100)), (F(1, 2), F(3, 5))))
    with pytest.raises(ValueError):  # growth cap
        ConcaveTarget(F(1, 10), ((F(1, 2), F(1, 2)),))


def test_target_from_poly_admissibility():
    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4)
    assert target.f0 == F(2, 5)
    assert target.samples[0] == (F(1, 2), F(11, 20))
    with pytest.raises(ValueError):  # decreasing on [0, 1]
        target_from_poly([F(1, 2), F(-1, 4)], 4)
    with pytest.raises(ValueError):  # convex
        target_from_poly([F(1, 4), F(0), F(1, 4)], 4)
    with pytest.raises(ValueError):  # f(0) = 0
        target_from_poly([F(0), F(1, 2)], 4)


def _verdict(check, coeffs):
    """The ValueError message of check(coeffs), or None when it passes."""
    try:
        check(coeffs)
    except ValueError as exc:
        return str(exc)
    return None


def _target_verdict(coeffs):
    # one sample, at 1/2, a grid point: its own checks follow from the grid's
    return _verdict(lambda cs: target_from_poly(cs, 1), coeffs)


CAP = "target exceeds the growth cap f(0) * (1 + theta)"


@pytest.mark.parametrize("coeffs, message", [
    ([F(1)], None),  # the value 1 everywhere, zero slope
    ([F(1, 2), F(1, 2)], None),  # the value 1 at theta = 1; growth cap met exactly
    ([F(2, 5), F(2, 5)], None),  # growth cap met at every grid point
    ([F(2, 5), F(1, 5)], None),  # equal successive slopes
    ([F(1, 2), F(1, 4), F(-1, 8)], None),  # slope zero at theta = 1
    ([F(1, 2), F(1, 2), F(1, 2 * 256**2)], "target leaves (0, 1] on [0, 1]"),
    ([F(1, 2), F(1, 4), F(-1, 8) - F(1, 1000)], "target is not non-decreasing on [0, 1]"),
    ([F(2, 5), F(1, 5), F(1, 10**5)], "target is not concave on [0, 1]"),
    ([F(2, 5), F(2, 5) + F(1, 1000), F(-1, 1000)], CAP),  # met at 0 and 1 only
    ([F(0), F(1, 2)], "target f(0) must lie in (0, 1], got 0"),
])
def test_target_check_edges(coeffs, message):
    assert _verdict(oracle_target_admissible, coeffs) == message
    assert _target_verdict(coeffs) == message


def test_target_check_matches_fraction_oracle():
    """Random small-rational polynomials of degree up to 3 get the oracle's
    verdict and message, and every verdict occurs."""
    rng = random.Random(19)
    seen = Counter()
    for _ in range(300):
        d = rng.randint(1, 12)
        coeffs = [F(rng.randint(-1, d), d), F(rng.randint(-2, 2 * d), 2 * d),
                  F(rng.randint(-d, 1), 2 * d), F(rng.randint(-2, 2), 4 * d)]
        coeffs = coeffs[: rng.randint(1, 4)]
        message = _verdict(oracle_target_admissible, coeffs)
        assert _target_verdict(coeffs) == message, coeffs
        seen[message and message.split(",")[0]] += 1
    assert len(seen) == 6, seen


def test_concave_union_component_parameters():
    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4)
    pairs = target.pairs()
    # s_i/(1 - q_i) = t_i exactly: phase transition sits at theta = q_i
    for (q, f), (s, t) in zip(target.samples, pairs):
        assert s / (1 - q) == t == f
        assert 0 < s < t <= F(3, 5)
    cs = concave_union(target, m0=4, blocks=2)
    assert [e for e, _ in cs.components] == [2, 4, 8, 16]
    assert cs.include_origin
    cs_lin = concave_union(target, m0=4, blocks=2, shift_linear=3)
    assert [e for e, _ in cs_lin.components] == [3, 6, 9, 12]


def test_single_sample_union_parameters():
    target = ConcaveTarget(F(2, 5), ((F(1, 2), F(11, 20)),))
    (s, t), = target.pairs()
    assert (s, t) == (F(11, 40), F(11, 20))


def test_finite_sup_oracle():
    pairs = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 8).pairs()
    assert finite_sup_oracle(pairs, F(1, 2)) == F(11, 20)
    one = [(F(2, 5), F(4, 5))]
    assert finite_sup_oracle(one, F(1, 4)) == closed_form_u(F(2, 5), F(4, 5), F(1, 4))
    # monotone in the number of components
    prev = F(0)
    for count in (1, 2, 4, 8):
        sub = pairs[:count]
        val = finite_sup_oracle(sub, F(3, 10))
        assert val >= prev
        prev = val
    with pytest.raises(ValueError):
        finite_sup_oracle([], F(1, 2))


def test_finite_sup_touches_target_at_enumerated_rationals():
    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 8)
    pairs = target.pairs()
    for q, f in target.samples:
        assert finite_sup_oracle(pairs, q) == f


def test_finite_sup_below_target_everywhere():
    coeffs = [F(2, 5), F(2, 5), F(-1, 5)]
    pairs = target_from_poly(coeffs, 8).pairs()
    for k in range(1, 64):
        th = F(k, 64)
        assert finite_sup_oracle(pairs, th) <= poly_eval(coeffs, th)


def test_geometric_tree_shape():
    t = geometric_sequence_tree(12)
    assert t.level(3) == (0, 1, 2, 4)
    for m in range(1, 13):
        assert int(t.level_sizes(m)) == m + 1
    with pytest.raises(ValueError):
        geometric_sequence_tree(1)


def test_geometric_logarithmic_windows():
    from math import log2

    t = geometric_sequence_tree(64)
    for m in (4, 8, 16, 32):
        a, _ = max_alpha(t, m, 2 * m)
        assert a <= log2(m + 2) / m


def test_sanity_trees():
    assert int(full_binary_tree(10).level_sizes(10)) == 1024
    assert int(left_path_tree(10).level_sizes(10)) == 1
    with pytest.raises(BudgetError):
        full_binary_tree(40)


def test_report_uniform_count_constant():
    """Measure the uniform constant C with localized counts <= C * (R/r)**u
    at the window's own ratio, on a materialized two-phase set.

    The constant is construction-specific; it is reported for reference and
    only sanity-bounded here.
    """
    from fds.schedule import materialize

    s, t = F(2, 5), F(4, 5)
    sched = two_phase_schedule(TwoPhaseParams(s, t, 4, 1))  # depth 16
    tree = materialize(sched)
    worst = 0.0
    for m in range(1, tree.depth):
        for mp in range(m + 1, tree.depth + 1):
            a, _ = max_alpha(tree, m, mp)
            u = float(closed_form_u(s, t, F(m, mp)))
            ratio = 2.0 ** ((a - u) * (mp - m))
            worst = max(worst, ratio)
    print(f"measured uniform count constant: {worst:.3f}")
    assert worst < 64.0


class _Target:
    """A target that skips ConcaveTarget's checks: one sample whose
    component parameters have s = t."""

    samples = ((F(1, 2), F(1, 2)),)

    def pairs(self):
        return [(F(1, 2), F(1, 2))]


TARGET = ConcaveTarget(F(2, 5), ((F(1, 2), F(11, 20)), (F(1, 4), F(39, 80))))


@pytest.mark.parametrize("build, message", [
    (lambda: TwoPhaseParams(F(2, 5), F(4, 5), 4, 0), "need at least one block, got 0"),
    (lambda: ConcaveTarget(F(0), ()), "f(0) must lie in (0, 1], got 0"),
    (lambda: ConcaveTarget(F(1, 2), ((F(1), F(1, 2)),)), "sample abscissa 1 outside (0, 1)"),
    (lambda: ConcaveTarget(F(1, 2), ((F(1, 2), F(0)),)), "sample value 0 outside (0, 1]"),
    (lambda: concave_union(TARGET, shift_linear=0), "linear shift factor must be >= 1"),
    (lambda: concave_union(TARGET, shifts=[2]), "need 2 shifts, got 1"),
    (lambda: concave_union(_Target()), "component parameters (s=1/2, t=1/2) are inadmissible"),
    (lambda: full_binary_tree(-1), "negative depth"),
    (lambda: left_path_tree(-1), "negative depth"),
])
def test_generator_error_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
