"""Benchmark of the fds pipeline: construct -> estimate -> verify -> plot.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, so nothing needs installing.  One process, one thread.  The run
first sets up the workload's input several times (the median is setup_s),
then repeats whole passes until S seconds have gone, at least two.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 passes
alternate untraced and traced, and it prints the per-layer metrics of the
traced passes (medians) plus the tracing overhead.

End-to-end times are scaled to nominal machine speed (see REF_SECONDS in
workloads.py): each operation's time is divided by the slowdown a fixed
reference loop shows just before and after it.  A time metric is the sum,
over the operations of a pass, of each operation's median scaled time in
the run; setup_s is the median scaled set-up time.  Raw wall-clock medians
and every per-pass figure are kept in the details file.

Every pass checks its outputs: exit codes, the zero-tolerance identities,
that CSVs and reports parse, and that every output's sha256 is the same in
every pass.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Details (environment, seed,
per-pass figures, digests, and for traced runs the spans) are written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

MIN_PASSES = 2
# Before every pass the set-up also runs on its own, for at least this long
# and at least once, so that a 30 ms set-up has many samples spread over
# the whole run and a steady median.
SETUP_SECONDS = 0.25


def environment() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def typical(passes, kind=None) -> float:
    """Sum over operations (of one kind, or all) of their median scaled time."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for label, t in p.scaled(kind).items():
            times.setdefault(label, []).append(t)
    return sum(statistics.median(v) for v in times.values())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's self-check")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "fds")):
        print(f"error: no fds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracer import METRICS, Tracer, median_metrics
    from workloads import WORKLOADS, Pass

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed, args.scale == "tiny")
        tracer = Tracer() if args.trace else None
        start = perf_counter()
        setups, passes, traced = [], [], []
        while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
            t0 = perf_counter()
            while True:
                p = Pass()
                wl.setup(p)
                setups.append(p)
                if perf_counter() - t0 >= SETUP_SECONDS:
                    break
            p = Pass()
            on = tracer is not None and len(passes) % 2 == 1
            if on:
                tracer.install(len(passes))
            try:
                wl.run_pass(p)
            finally:
                if on:
                    tracer.uninstall()
            passes.append(p)
            traced.append(on)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    # outputs must be byte-identical in every pass of the run
    mismatches = []
    for name in sorted({n for p in passes for n in p.digests}):
        if len({p.digests.get(name) for p in passes}) > 1:
            mismatches.append(f"{name}: sha256 differs between passes")
    attempted = sum(p.attempted for p in setups + passes)
    failed = sum(p.failed for p in setups + passes) + len(mismatches)
    med = statistics.median
    untraced = [p for p, on in zip(passes, traced) if not on]
    end_to_end = {
        "setup_s": med([sum(p.scaled("setup").values()) for p in setups + passes]),
        "estimate_s": typical(untraced, "estimate"),
        "verify_s": typical(untraced, "verify"),
        "pass_s": typical(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "set_file_bytes": med([p.set_file_bytes for p in passes]),
        "closed_form_dev": med([p.closed_form_dev for p in passes]),
        "checks_failed": med([p.checks_failed for p in passes]),
        "error_rate": failed / attempted,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if tracer is None:
        reported = {k: end_to_end[k] for k in units if k in end_to_end}
    else:
        layer = median_metrics([tracer.pass_metrics(i, passes[i].slowdown())
                                for i, on in enumerate(traced) if on])
        layer["spectra.checks_failed"] = end_to_end["checks_failed"]
        layer["run.error_rate"] = end_to_end["error_rate"]
        layer["trace.overhead_s"] = (
            typical([p for p, on in zip(passes, traced) if on]) - end_to_end["pass_s"])
        reported = {k: layer[k] for k in units if k in layer}
    problems = [msg for p in setups + passes for msg in p.problems] + mismatches

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.scale == "tiny" else "")
    record = {
        "workload": args.workload,
        "why": whys.get(args.workload),
        "seed": args.seed,
        "scale": args.scale,
        "params": wl.params,
        "seconds": args.seconds,
        "environment": environment(),
        "passes": len(passes),
        "median_slowdown": med([p.slowdown() for p in passes]),
        "setup_samples": len(setups) + len(passes),
        "end_to_end": end_to_end,
        "raw_medians": {
            "setup_s": med([p.times["setup"] for p in setups + passes]),
            "estimate_s": med([p.times["estimate"] for p in untraced]),
            "verify_s": med([p.times["verify"] for p in untraced]),
            "pass_s": med([sum(p.times.values()) for p in untraced]),
        },
        "metrics": reported,
        "layer_targets": {k: v[2] for k, v in METRICS.items()} if tracer else None,
        "unwrapped": tracer.missing if tracer else None,
        "problems": problems,
        "pass_details": [dict(p.summary(), traced=on) for p, on in zip(passes, traced)],
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, tag + "-spans.json"))

    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"# {tag}: {len(passes)} passes, params {wl.params}, "
          f"checks_failed={end_to_end['checks_failed']:g}, "
          f"error_rate={end_to_end['error_rate']:g}; details in .bench_out/{tag}.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
