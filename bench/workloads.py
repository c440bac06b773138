"""The benchmark's workloads and the checks on their outputs.

Each workload turns a seed into one member of a fixed family of inputs of
equal size, then runs passes.  A pass is the whole pipeline from set-up
(build and write the set) to the plotted spectrum; its outputs are checked
after the last timed call, so the checks cost no pass time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import statistics
from fractions import Fraction
from time import perf_counter

import fds
import fds.cli
from fds import formats

# Seed-selected families.  Members differ in their parameters, not in size:
# the depth is fixed, run counts stay within about 2% and the closed-form
# deviation within about 2%, so a seed changes the input but not the amount
# of work or the accuracy expected.
TWO_PHASE_S = ("0.393", "0.394", "0.395", "0.396", "0.397", "0.398", "0.399", "0.4")
TWO_PHASE_T = "0.8"
UNION_TARGETS = (
    "0.4,0.4,-0.2",
    "0.401,0.4,-0.2",
    "0.402,0.401,-0.2",
    "0.402,0.4,-0.199",
    "0.403,0.402,-0.201",
    "0.401,0.401,-0.2",
    "0.404,0.402,-0.2",
    "0.403,0.4,-0.2",
)
GEOMETRIC_OFFSETS = tuple(Fraction(k, 800) for k in range(8))

# Speed scaling.  On a shared machine the speed of identical work drifts by
# +-20% within a minute and by more between runs minutes apart.  Every
# operation is bracketed by a fixed pure-Python loop; the faster of its two
# times (one of them may catch an interrupt), divided by REF_SECONDS, is the
# machine's slowdown at that moment, and the operation's time divided by
# that factor is its time at nominal speed.  Raw times are kept beside the
# scaled ones.
REF_ITERATIONS = 40_000
REF_SECONDS = 0.003  # the loop's time at nominal speed; only sets the scale

CSV_HEADER = "theta,value,m_witness,mprime_witness"
TOLERANCE_CHECKS = ("chain", "bound", "nthroot")


def grid_points(spec: str) -> list[Fraction]:
    start, stop, step = (Fraction(p) for p in spec.split(":"))
    out = []
    while start <= stop:
        out.append(start)
        start += step
    return out


def reference_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return perf_counter() - t0


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("ascii")).hexdigest()


class Pass:
    """Timings, operation counts, check results and output digests of one pass."""

    def __init__(self):
        self.times = {"setup": 0.0, "estimate": 0.0, "verify": 0.0, "output": 0.0}
        # label -> (kind, seconds, reference-loop seconds around the call)
        self.ops: dict[str, tuple[str, float, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks_failed = 0
        self.closed_form_dev = float("nan")
        self.set_file_bytes = 0
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def call(self, kind: str, label: str, fn, *args):
        """Time one operation; an exception fails the operation, not the run.

        Labels are unique within a pass, so the same operation can be
        compared across passes."""
        self.attempted += 1
        ref = reference_loop()
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark records the failure and goes on
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = perf_counter() - t0
            ref = min(ref, reference_loop())
            self.times[kind] += dt
            self.ops[label] = (kind, dt, ref)

    def scaled(self, kind: str | None = None) -> dict[str, float]:
        """label -> time at nominal speed, for operations of one kind or all."""
        return {label: dt * REF_SECONDS / ref
                for label, (k, dt, ref) in self.ops.items() if kind is None or k == kind}

    def slowdown(self) -> float:
        """The pass's median slowdown against nominal speed."""
        return statistics.median(ref for _, _, ref in self.ops.values()) / REF_SECONDS

    def summary(self) -> dict:
        return {
            "times": self.times,
            "ops": self.ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks_failed": self.checks_failed,
            "closed_form_dev": self.closed_form_dev,
            "set_file_bytes": self.set_file_bytes,
            "problems": self.problems,
            "digests": self.digests,
        }


def parse_csv(p: Pass, label: str, text: str | None, rows: int) -> list[tuple[str, float]]:
    """(theta cell, value) per row of a spectrum CSV; a bad CSV fails the pass."""
    if text is None:
        return []
    lines = text.splitlines()
    out = []
    try:
        if lines[0] != CSV_HEADER:
            raise ValueError("bad header")
        for ln in lines[1:]:
            theta, value, m, mp = ln.split(",")
            int(m)
            if mp:
                int(mp)
            out.append((theta, float(value)))
    except (IndexError, ValueError) as exc:
        p.fail(f"{label}: unparsable CSV ({exc})")
        return []
    if len(out) != rows:
        p.fail(f"{label}: {len(out)} rows, expected {rows}")
    return out


def parse_report(p: Pass, label: str, text: str | None, names: list[str]) -> dict[str, tuple[bool, float]]:
    """name -> (passed, worst) per CHECK line of a verification report."""
    if text is None:
        return {}
    out = {}
    for ln in text.splitlines():
        if ln.startswith("  witness "):
            continue
        toks = ln.split()
        try:
            if len(toks) != 5 or toks[0] != "CHECK" or toks[2] not in ("PASS", "FAIL"):
                raise ValueError(ln)
            worst = float(toks[3].removeprefix("worst="))
            float(toks[4].removeprefix("tol="))
        except ValueError as exc:
            p.fail(f"{label}: unparsable report line {exc}")
            return {}
        out[toks[1]] = (toks[2] == "PASS", worst)
    if sorted(out) != sorted(names):
        p.fail(f"{label}: report covers {sorted(out)}, expected {sorted(names)}")
    return out


def check_reports(p: Pass, label: str, results: dict[str, tuple[bool, float]]) -> bool:
    """Tolerance FAILs count as checks_failed; a main-theorem deviation is an error."""
    for name, (passed, worst) in results.items():
        if name == "main-theorem":
            if not passed or worst != 0.0:
                p.fail(f"{label}: main-theorem identity broken, worst={worst!r}")
        elif not passed:
            p.checks_failed += 1
    return all(passed for passed, _ in results.values())


def check_identities(p: Pass, label: str, spec, upper) -> None:
    """spectrum <= upper on the shared grid and upper non-decreasing in theta."""
    if not spec or not upper:
        return
    if [t for t, _ in spec] != [t for t, _ in upper]:
        p.fail(f"{label}: spectrum and upper grids differ")
        return
    for (theta, sv), (_, uv) in zip(spec, upper):
        if sv > uv:
            p.fail(f"{label}: spectrum {sv!r} > upper {uv!r} at theta={theta}")
    for (t1, u1), (t2, u2) in zip(upper, upper[1:]):
        if u1 > u2:
            p.fail(f"{label}: upper not monotone, {t1}->{u1!r} > {t2}->{u2!r}")


class CliWorkload:
    """The README pipeline through fds.cli.main, one command at a time.

    Every command reloads the set file, as separate CLI invocations do.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, p: Pass, kind: str, label: str, argv: list[str], expect=(0,)):
        """Run one command; returns (exit code, stdout) or None when it failed."""
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return fds.cli.main(argv)

        rc = p.call(kind, label, run)
        if rc is None:
            return None
        if rc not in expect:
            p.fail(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
            return None
        return rc, out.getvalue()

    def setup(self, p: Pass) -> None:
        for i, argv in enumerate(self.construct_commands()):
            self.cli(p, "setup", f"construct {i}", argv)

    def run_pass(self, p: Pass) -> None:
        self.setup(p)
        est = [("spectrum", "spec.csv"), ("upper", "upper.csv"), ("box", "box.csv"), ("qa", "qa.csv")]
        for mode, out in est:
            self.cli(p, "estimate", f"estimate {mode}",
                     ["estimate", "--mode", mode, "-i", self.set_path,
                      *self.estimate_args(mode), "-o", self.path(out)])
        reports = []
        for label, argv, names in self.verify_commands():
            reports.append((label, self.cli(p, "verify", f"verify {label}", argv, expect=(0, 1)), names))
        self.cli(p, "output", "plot", ["plot", self.path("spec.csv"), self.path("upper.csv"),
                                       *self.overlay_args(), "-o", self.path("plot.svg")])

        p.set_file_bytes = sum(os.path.getsize(f) for f in self.set_files() if os.path.exists(f))
        texts = {}
        for _, out in est:
            texts[out] = self.read(out)
        texts["plot.svg"] = self.read("plot.svg")
        n = len(grid_points(self.grid))
        spec = parse_csv(p, "spec.csv", texts["spec.csv"], n)
        upper = parse_csv(p, "upper.csv", texts["upper.csv"], n)
        parse_csv(p, "box.csv", texts["box.csv"], 1)
        parse_csv(p, "qa.csv", texts["qa.csv"], 3)
        check_identities(p, "estimate", spec, upper)
        if spec:
            p.closed_form_dev = max(abs(v - self.known(Fraction(t))) for t, v in spec)
        for label, res, names in reports:
            if res is None:
                continue
            rc, text = res
            texts[label] = text
            passed = check_reports(p, label, parse_report(p, label, text, names))
            if rc != (0 if passed else 1):
                p.fail(f"{label}: exit {rc} disagrees with its report")
        for name, text in texts.items():
            if text is not None:
                p.digests[name] = sha256(text)

    def read(self, name: str) -> str | None:
        try:
            with open(self.path(name), encoding="ascii") as fh:
                return fh.read()
        except OSError:
            return None


class TwoPhaseCli(CliWorkload):
    name = "two-phase-cli"

    def __init__(self, workdir: str, seed: int, tiny: bool):
        super().__init__(workdir)
        self.s = random.Random(seed).choice(TWO_PHASE_S)
        self.t = TWO_PHASE_T
        self.blocks = 2 if tiny else 3
        depth = 4 ** (2 ** self.blocks)
        self.set_path = self.path("tp.fds")
        self.grid = "0.05:0.95:0.05"
        self.est_range = f"{depth // 64}:{depth}" if not tiny else f"8:{depth}"
        self.verify_range = f"{depth // 4}:{depth}"
        self.main_range = f"{depth // 4}:{depth // 4 + depth // 32}"
        self.params = {"s": self.s, "t": self.t, "m0": 4, "blocks": self.blocks, "depth": depth}

    def construct_commands(self):
        return [["construct", "two-phase", "--s", self.s, "--t", self.t, "--m0", "4",
                 "--blocks", str(self.blocks), "-o", self.set_path]]

    def set_files(self):
        return [self.set_path]

    def estimate_args(self, mode):
        grid = [] if mode in ("box", "qa") else ["--theta-grid", self.grid]
        return [*grid, "--m-range", self.est_range]

    def verify_commands(self):
        common = ["verify", "-i", self.set_path]
        return [
            ("tolerance", [*common, "--check", ",".join(TOLERANCE_CHECKS), "--theta-grid",
                           "0.3:0.9:0.1", "--m-range", self.verify_range, "--tol", "0.05"],
             list(TOLERANCE_CHECKS)),
            ("main-theorem", [*common, "--check", "main-theorem", "--theta-grid", "0.5:0.7:0.1",
                              "--m-range", self.main_range], ["main-theorem"]),
        ]

    def overlay_args(self):
        return ["--overlay-u", f"{self.s},{self.t}"]

    def known(self, theta: Fraction) -> float:
        return float(fds.closed_form_u(Fraction(self.s), Fraction(self.t), theta))


class GeometricCli(CliWorkload):
    name = "geometric-cli"

    def __init__(self, workdir: str, seed: int, tiny: bool):
        super().__init__(workdir)
        off = random.Random(seed).choice(GEOMETRIC_OFFSETS)
        self.depth = 32 if tiny else 512
        self.nb_depth = 16 if tiny else 128
        self.set_path = self.path("geo.fds")
        self.nb_path = self.path("geo-nb.fds")
        self.grid = f"{Fraction(1, 10) + off}:{Fraction(9, 10) + off}:1/10"
        self.params = {"depth": self.depth, "neighbors_depth": self.nb_depth,
                       "theta_grid": self.grid}

    def construct_commands(self):
        return [["construct", "geometric", "--depth", str(self.depth), "-o", self.set_path],
                ["construct", "geometric", "--depth", str(self.nb_depth), "-o", self.nb_path]]

    def set_files(self):
        return [self.set_path, self.nb_path]

    def estimate_args(self, mode):
        # no --m-range: the CLI's default range policy is part of the workload
        return ["--theta-grid", self.grid]

    def verify_commands(self):
        grid = ["--theta-grid", self.grid]
        return [
            ("tolerance", ["verify", "-i", self.set_path, "--check", ",".join(TOLERANCE_CHECKS),
                           *grid, "--tol", "0.05"], list(TOLERANCE_CHECKS)),
            ("main-theorem", ["verify", "-i", self.set_path, "--check", "main-theorem", *grid],
             ["main-theorem"]),
            ("main-theorem-neighbors", ["verify", "-i", self.nb_path, "--check", "main-theorem",
                                        "--neighbors", "on", *grid], ["main-theorem"]),
        ]

    def overlay_args(self):
        return []

    def known(self, theta: Fraction) -> float:
        return 0.0


class UnionSweep:
    """A library session: build, dump and load the concave union once, then
    a convergence study over widening coarse ranges on that one object."""

    name = "union-sweep"

    def __init__(self, workdir: str, seed: int, tiny: bool):
        self.workdir = workdir
        self.coeffs = random.Random(seed).choice(UNION_TARGETS)
        self.blocks = 2 if tiny else 3
        self.components = 8
        self.set_path = os.path.join(workdir, "cu.fds")
        self.grid = [Fraction(k, 10) for k in range(3, 10)]
        self.upper_grid = [Fraction(1, 2), Fraction(7, 10)]
        self.params = {"target": self.coeffs, "components": self.components, "blocks": self.blocks}

    def setup(self, p: Pass):
        coeffs = [Fraction(c) for c in self.coeffs.split(",")]
        target = p.call("setup", "target_from_poly", fds.target_from_poly, coeffs, self.components)
        cs = target and p.call("setup", "concave_union", lambda: fds.concave_union(target, blocks=self.blocks))
        if cs is not None:
            p.call("setup", "dump", formats.dump, cs, self.set_path)
            cs = p.call("setup", "load", formats.load, self.set_path)
        return target, cs

    def run_pass(self, p: Pass) -> None:
        target, cs = self.setup(p)
        if cs is None:
            return
        D = cs.depth
        # the last rung reaches below the deepest shift, so windows from the
        # node holding the origin enter the fan
        ladder = [D // 4, D // 8, D // 16, D // 512]
        lo, narrow = ladder[0], D // 32
        est = lambda label, fn, *a: p.call("estimate", label, fn, cs, *a)  # noqa: E731
        ver = lambda label, fn, *a: p.call("verify", label, fn, cs, *a)  # noqa: E731
        spec = {a: est(f"spectrum lo={a}", fds.estimate_spectrum, self.grid, (a, D)) for a in ladder}
        upper = {a: est(f"upper lo={a}", fds.estimate_upper, self.upper_grid, (a, D)) for a in ladder[:2]}
        box = {a: est(f"box lo={a}", fds.estimate_box, (a, D)) for a in ladder}
        qa = est("qa", fds.estimate_quasi_assouad, [Fraction(1, 10), Fraction(1, 20)], (D // 2, D // 2 + narrow))
        reports = {
            "chain": ver("chain", fds.verify_chain, self.upper_grid, (lo, D), 0.05),
            "bound": ver("bound", fds.verify_bound, self.grid, (lo, D), 0.05),
            "nthroot": ver("nthroot", fds.verify_nthroot, self.upper_grid, (2, 3), (lo, lo + narrow // 4), 0.05),
            "main-theorem": ver("main-theorem", fds.verify_main_theorem, [Fraction(1, 2)], (lo, lo + narrow // 8)),
        }
        texts = {}
        estimates = [(f"spec-{a}.csv", e) for a, e in spec.items()]
        estimates += [(f"upper-{a}.csv", e) for a, e in upper.items()]
        estimates += [(f"box-{a}.csv", e) for a, e in box.items()] + [("qa.csv", qa)]
        for name, e in estimates:
            if e is not None:
                texts[name] = p.call("output", f"csv {name}", fds.spectra.estimate_to_csv, e)
        for name, r in reports.items():
            if r is not None:
                texts[f"{name}.txt"] = p.call("output", f"report {name}", fds.spectra.report_to_text, r)
        pairs = target.pairs()
        compared = spec[ladder[2]]  # the origin rung's short windows swamp the comparison
        if compared is not None:
            samples = [k / 200 for k in range(1, 200)]
            series = [("spectrum", [(float(t), v) for t, v in zip(compared.thetas, compared.values)]),
                      ("finite sup", [(x, float(fds.finite_sup_oracle(pairs, Fraction(x)))) for x in samples])]
            texts["plot.svg"] = p.call("output", "plot", fds.svg.render_plot, series)
        for name, text in texts.items():
            if text is not None:
                p.call("output", f"write {name}", self.write, name, text)

        p.set_file_bytes = os.path.getsize(self.set_path)
        n = len(self.grid)
        rows = {name: parse_csv(p, name, text, n if name.startswith("spec") else
                                len(self.upper_grid) if name.startswith("upper") else
                                2 if name == "qa.csv" else 1)
                for name, text in texts.items() if name.endswith(".csv")}
        for a in upper:
            sub = [r for r in rows.get(f"spec-{a}.csv", []) if Fraction(r[0]) in self.upper_grid]
            check_identities(p, f"lo={a}", sub, rows.get(f"upper-{a}.csv"))
        for name, r in reports.items():
            if r is not None:
                check_reports(p, name, {r.name: (r.passed, r.worst)})
        if compared is not None:
            p.closed_form_dev = max(abs(v - float(fds.finite_sup_oracle(pairs, t)))
                                    for t, v in zip(compared.thetas, compared.values))
        for name, text in texts.items():
            if text is not None:
                p.digests[name] = sha256(text)

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.workdir, name), "w", encoding="ascii") as fh:
            fh.write(text)


WORKLOADS = {w.name: w for w in (TwoPhaseCli, GeometricCli, UnionSweep)}
