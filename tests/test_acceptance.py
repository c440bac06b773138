"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the check lines.
Closed forms serve as oracles throughout; structural identities are held
to zero tolerance, closed-form comparisons to the stated tolerances.
"""

import random
import time
from fractions import Fraction

import pytest

from fds.cli import main as cli_main
from fds.constructions import (
    TwoPhaseParams,
    closed_form_u,
    concave_union,
    finite_sup_oracle,
    full_binary_tree,
    geometric_sequence_tree,
    left_path_tree,
    poly_eval,
    target_from_poly,
    two_phase_schedule,
)
from fds.formats import dump, load
from fds.schedule import BranchingSchedule, materialize
from fds.spectra import (
    estimate_box,
    estimate_quasi_assouad,
    estimate_spectrum,
    estimate_to_csv,
    verify_bound,
    verify_chain,
    verify_main_theorem,
    verify_nthroot,
)

from conftest import local_count

F = Fraction
GRID_19 = [F(k, 20) for k in range(1, 20)]
GRID_9 = [F(k, 10) for k in range(1, 10)]
GRID_7 = [F(k, 10) for k in range(3, 10)]

TWO_PHASE_PARAMS = [
    (F(2, 5), F(4, 5)),
    (F(1, 5), F(9, 10)),
    (F(1, 2), F(1, 1)),
]


def check(name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CHECK {name} {status} {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def two_phase_sets():
    return {
        (s, t): two_phase_schedule(TwoPhaseParams(s, t, 4, 3))
        for s, t in TWO_PHASE_PARAMS
    }


@pytest.fixture(scope="module")
def geo_tree():
    return geometric_sequence_tree(1024)


@pytest.fixture(scope="module")
def union_small():
    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4)
    return concave_union(target, m0=8, blocks=2, shifts=[2, 4, 8, 16])


def _random_run_schedule(rng: random.Random, max_depth: int) -> BranchingSchedule:
    depth = rng.randint(64, max_depth)
    runs = []
    total = 0
    while total < depth:
        n = min(rng.randint(1, 32), depth - total)
        runs.append((n, rng.choice((1, 2))))
        total += n
    return BranchingSchedule(runs)


def test_c1_upper_identity(two_phase_sets):
    """Upper estimate equals the ratio-fan maximum exactly, everywhere."""
    t0 = time.time()
    rng = random.Random(20260809)
    worst = 0.0
    for _ in range(50):
        s = _random_run_schedule(rng, 4096)
        lo = max(1, s.depth // 16)
        r = verify_main_theorem(s, GRID_9, (lo, s.depth))
        worst = max(worst, r.worst)
        assert r.passed, f"depth={s.depth} runs={len(s.runs)}"
    for sched in two_phase_sets.values():
        r = verify_main_theorem(sched, GRID_9, (3277, 4915))
        worst = max(worst, r.worst)
        assert r.passed
    elapsed = time.time() - t0
    check(
        "acceptance-1-upper-identity",
        worst == 0.0 and elapsed < 60,
        f"worst={worst!r} tol=0.0 time={elapsed:.1f}s budget=60s",
    )


def test_c1_readme_set_upper_identity_budget(two_phase_sets):
    """The README set (s=2/5, t=4/5, depth 65536) over 19 thetas and m in
    1024:65536: the upper estimate equals the ratio-fan maximum exactly,
    with each row's fan starts and concave corners read once for all
    thetas, within budget."""
    t0 = time.time()
    r = verify_main_theorem(two_phase_sets[(F(2, 5), F(4, 5))], GRID_19, (1024, 65536))
    elapsed = time.time() - t0
    check(
        "acceptance-1-readme-set-upper-identity",
        r.passed and r.worst == 0.0 and elapsed < 15,
        f"worst={r.worst!r} tol=0.0 time={elapsed:.1f}s budget=15s",
    )


def test_c1_union_upper_identity_budget():
    """The 8-component concave union (blocks 3, depth 65792) over 7 thetas
    (0.3:0.9) on the default range: the upper estimate equals the ratio-fan
    maximum exactly, with every window of every row the dominance test
    keeps enumerated once for all thetas, within budget."""
    cs = concave_union(target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 8), blocks=3)
    t0 = time.time()
    r = verify_main_theorem(cs, GRID_7)
    elapsed = time.time() - t0
    check(
        "acceptance-1-union-upper-identity",
        r.passed and r.worst == 0.0 and elapsed < 8,
        f"worst={r.worst!r} tol=0.0 time={elapsed:.1f}s budget=8s",
    )


def test_union_setup_budget(tmp_path):
    """Representation build: the 8-component concave union (blocks 3,
    depth 65792, about 29k runs per component) is built, written and read
    back within budget, through the schedules' run arrays."""
    path = str(tmp_path / "cu.fds")
    t0 = time.perf_counter()
    cs = concave_union(target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 8), blocks=3)
    dump(cs, path)
    back = load(path)
    elapsed = time.perf_counter() - t0
    check(
        "acceptance-1-union-setup",
        back == cs and cs.depth == 65792 and elapsed < 0.5,
        f"depth={cs.depth} time={elapsed:.2f}s budget=0.5s",
    )


def test_c1_neighbor_upper_identity_budget():
    """Neighbor mode on the depth-512 geometric tree: the upper estimate
    equals the ratio-fan maximum exactly over 9 thetas, within budget."""
    t0 = time.time()
    r = verify_main_theorem(geometric_sequence_tree(512), GRID_9, neighbors=True)
    elapsed = time.time() - t0
    check(
        "acceptance-1-neighbor-upper-identity",
        r.passed and r.worst == 0.0 and elapsed < 10,
        f"worst={r.worst!r} tol=0.0 time={elapsed:.1f}s budget=10s",
    )


def test_c2_two_phase_closed_form(two_phase_sets):
    """Spectrum tracks min{s/(1-theta), t} within 0.05 on a 19-point grid."""
    t0 = time.time()
    worst = 0.0
    for (s, t), sched in two_phase_sets.items():
        est = estimate_spectrum(sched, GRID_19, (1024, 65536))
        for th, v in zip(est.thetas, est.values):
            dev = abs(v - float(closed_form_u(s, t, th)))
            worst = max(worst, dev)
    elapsed = time.time() - t0
    check(
        "acceptance-2-two-phase-closed-form",
        worst <= 0.05 and elapsed < 30,
        f"worst={worst:.4f} tol=0.05 time={elapsed:.1f}s budget=30s",
    )


def test_c3_oracle_equivalence():
    """Analytic counts equal materialized counts for every window and node."""
    t0 = time.time()
    rng = random.Random(17)
    mismatches = 0
    windows = 0
    for _ in range(100):
        depth = rng.randint(2, 18)
        bias = rng.uniform(0.2, 0.7)
        sched = BranchingSchedule(
            [(1, 2 if rng.random() < bias else 1) for _ in range(depth)]
        )
        tree = materialize(sched)
        for m in range(depth):
            for mp in range(m + 1, depth + 1):
                windows += 1
                want = 1 << (sched.prefix(mp) - sched.prefix(m))
                for k in tree.level(m):
                    if local_count(tree, m, k, mp) != want:
                        mismatches += 1
    elapsed = time.time() - t0
    check(
        "acceptance-3-oracle-equivalence",
        mismatches == 0 and elapsed < 60,
        f"mismatches={mismatches} windows={windows} time={elapsed:.1f}s budget=60s",
    )


def test_c4_box_bound(two_phase_sets, geo_tree, union_small):
    """spectrum <= box/(1-theta) + 0.05 everywhere; equality on two-phase
    sets while theta <= 1 - s/t."""
    cases = [
        (full_binary_tree(12), GRID_9, (1, 12)),
        (left_path_tree(256), GRID_9, (25, 256)),
        (geo_tree, [F(3, 10), F(2, 5), F(1, 2), F(3, 5), F(7, 10)], (256, 1024)),
        (union_small, GRID_7, (1024, union_small.depth)),
    ] + [(sched, GRID_19, (1024, 65536)) for sched in two_phase_sets.values()]
    worst = -1.0
    for rep, grid, rng_ in cases:
        r = verify_bound(rep, grid, rng_, 0.05)
        worst = max(worst, r.worst)
        assert r.passed, type(rep).__name__
    worst_eq = 0.0
    for (s, t), sched in two_phase_sets.items():
        est = estimate_spectrum(sched, GRID_19, (1024, 65536))
        box = estimate_box(sched, (1024, 65536)).value
        for th, v in zip(est.thetas, est.values):
            if th <= 1 - s / t:
                worst_eq = max(worst_eq, abs(v - box / (1 - float(th))))
    check(
        "acceptance-4-box-bound",
        worst <= 0.05 and worst_eq <= 0.05,
        f"worst={worst:.4f} equality-worst={worst_eq:.4f} tol=0.05",
    )


def test_c5_dimension_chain(two_phase_sets, geo_tree, union_small):
    """box <= spectrum <= upper <= quasi-Assouad with tol 0.05; the
    spectrum <= upper and upper-monotone links at tol 0."""
    cases = [
        (full_binary_tree(12), GRID_9, (1, 12), None),
        (left_path_tree(256), GRID_9, (25, 256), None),
        (
            geo_tree,
            [F(3, 10), F(2, 5), F(1, 2), F(3, 5)],
            (256, 1024),
            [F(1, 2), F(9, 20), F(2, 5)],
        ),
        (union_small, GRID_7, (1024, union_small.depth), None),
    ] + [
        (sched, GRID_7, (16384, 65536), [F(1, 10), F(1, 20), F(1, 50)])
        for sched in two_phase_sets.values()
    ]
    worst = -1.0
    for rep, grid, rng_, eps in cases:
        r = verify_chain(rep, grid, rng_, 0.05, epsilons=eps)
        worst = max(worst, r.worst)
        assert r.passed, (type(rep).__name__, r.witnesses[:3])
    check("acceptance-5-dimension-chain", worst <= 0.05, f"worst={worst:.4f} tol=0.05")


def test_c6_nthroot(two_phase_sets, geo_tree, union_small):
    """spectrum(theta) <= spectrum(theta**(1/n)) + 0.05 for n in {2, 3}."""
    cases = [
        (full_binary_tree(12), GRID_9, (1, 12)),
        (left_path_tree(256), GRID_9, (25, 256)),
        (geo_tree, [F(3, 10), F(1, 2), F(7, 10)], (256, 1024)),
        (union_small, GRID_7, (1024, union_small.depth)),
    ] + [
        (sched, [F(3, 10), F(3, 5), F(9, 10)], (16384, 65536))
        for sched in two_phase_sets.values()
    ]
    worst = -1.0
    for rep, grid, rng_ in cases:
        r = verify_nthroot(rep, grid, (2, 3), rng_, 0.05)
        worst = max(worst, r.worst)
        assert r.passed, type(rep).__name__
    check("acceptance-6-nthroot", worst <= 0.05, f"worst={worst:.4f} tol=0.05")


def test_c7_concave_target_union():
    """Eight-component union tracks the finite supremum of component
    spectra within 0.05 and touches the target exactly at each sampled
    rational."""
    coeffs = [F(2, 5), F(2, 5), F(-1, 5)]
    # admissibility of f(x) = 0.4 + 0.4 x - 0.2 x**2, verified analytically:
    # f(0) = 0.4 > 0; f'(x) = 0.4 - 0.4 x >= 0 on [0, 1]; f'' = -0.4 < 0;
    # f(0)(1 + x) - f(x) = 0.2 x**2 >= 0.
    assert poly_eval(coeffs, F(0)) == F(2, 5) > 0
    assert coeffs[1] + 2 * coeffs[2] == F(0)  # f'(1) = 0, so f' >= 0 on [0, 1]
    assert coeffs[2] < 0
    target = target_from_poly(coeffs, 8)
    pairs = target.pairs()
    exact = all(finite_sup_oracle(pairs, q) == f for q, f in target.samples)
    assert finite_sup_oracle(pairs, F(1, 2)) == F(11, 20)
    cs = concave_union(target, m0=4, blocks=3)
    est = estimate_spectrum(cs, GRID_19, (1024, cs.depth))
    worst = max(
        abs(v - float(finite_sup_oracle(pairs, th)))
        for th, v in zip(est.thetas, est.values)
    )
    gap = max(
        float(poly_eval(coeffs, F(k, 128)) - finite_sup_oracle(pairs, F(k, 128)))
        for k in range(1, 128)
    )
    check(
        "acceptance-7-concave-target-union",
        worst <= 0.05 and exact,
        f"worst={worst:.4f} tol=0.05 exact-touch={exact} "
        f"residual-gap={gap:.4f} (reported, shrinks with more components)",
    )


def test_c8_quasi_assouad_corollaries(two_phase_sets, geo_tree):
    """Quasi-Assouad agrees with the spectrum near theta = 1 on a two-phase
    set, and both box and quasi-Assouad estimates vanish on the geometric
    sequence (the null-equivalence instance)."""
    sched = two_phase_sets[(F(2, 5), F(4, 5))]
    sp = estimate_spectrum(sched, [F(49, 50)], (16384, 65536)).values[0]
    qa = estimate_quasi_assouad(
        sched, [F(1, 10), F(1, 20), F(1, 50)], (16384, 65536)
    ).headline
    dev = abs(sp - qa)
    # at depth 1024 the admissible window widths keep log2(count)/width
    # above 0.05 for theta beyond ~0.8, so the geometric eps ladder stops
    # at theta = 0.6 where the quantization floor sits below the tolerance
    box = estimate_box(geo_tree, (256, 1024)).value
    qa_geo = estimate_quasi_assouad(
        geo_tree, [F(1, 2), F(9, 20), F(2, 5)], (256, 1024)
    ).headline
    check(
        "acceptance-8-quasi-assouad-corollaries",
        dev <= 0.03 and box <= 0.05 and qa_geo <= 0.05,
        f"two-phase |spectrum(0.98)-headline|={dev:.4f} tol=0.03; "
        f"geometric box={box:.4f} qa={qa_geo:.4f} tol=0.05",
    )


def test_c9_determinism_and_round_trip(tmp_path, capsys, two_phase_sets):
    """Byte-identical outputs across repeats; file round trips preserve
    every estimate exactly."""
    csvs = []
    svgs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        sched_path = workdir / "set.fds"
        args = [
            "construct", "two-phase", "--s", "0.4", "--t", "0.8",
            "--m0", "4", "--blocks", "2", "-o", str(sched_path),
        ]
        assert cli_main(args) == 0
        out = workdir / "spec.csv"
        assert cli_main([
            "estimate", "-i", str(sched_path), "--theta-grid", "0.1:0.9:0.1",
            "--m-range", "16:256", "-o", str(out),
        ]) == 0
        csvs.append(out.read_bytes())
        svg = workdir / "spec.svg"
        assert cli_main([
            "plot", str(out), "--overlay-u", "0.4,0.8", "-o", str(svg)
        ]) == 0
        svgs.append(svg.read_bytes())
    capsys.readouterr()
    byte_identical = csvs[0] == csvs[1] and svgs[0] == svgs[1]

    round_trip_ok = True
    sched = two_phase_sets[(F(2, 5), F(4, 5))]
    p = tmp_path / "tp.fds"
    dump(sched, str(p))
    direct = estimate_to_csv(estimate_spectrum(sched, GRID_19, (1024, 65536)))
    loaded = estimate_to_csv(estimate_spectrum(load(str(p)), GRID_19, (1024, 65536)))
    round_trip_ok &= direct == loaded

    geo = geometric_sequence_tree(128)
    p = tmp_path / "geo.fds"
    dump(geo, str(p))
    direct = estimate_to_csv(estimate_spectrum(geo, GRID_7, (16, 128)))
    loaded = estimate_to_csv(estimate_spectrum(load(str(p)), GRID_7, (16, 128)))
    round_trip_ok &= direct == loaded

    target = target_from_poly([F(2, 5), F(2, 5), F(-1, 5)], 4)
    cs = concave_union(target, m0=8, blocks=2, shifts=[2, 4, 8, 16])
    p = tmp_path / "cu.fds"
    dump(cs, str(p))
    direct = estimate_to_csv(estimate_spectrum(cs, GRID_7, (512, cs.depth)))
    loaded = estimate_to_csv(estimate_spectrum(load(str(p)), GRID_7, (512, cs.depth)))
    round_trip_ok &= direct == loaded

    check(
        "acceptance-9-determinism-round-trip",
        byte_identical and round_trip_ok,
        f"byte-identical={byte_identical} round-trip-exact={round_trip_ok}",
    )
