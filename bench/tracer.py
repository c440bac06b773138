"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions and methods that each layer of the
`fds` package exposes, from outside the package: every module attribute
of `fds.*` that is the original object is replaced by a wrapper, so names
imported with `from .x import y` are covered as well.  Spans (name, start,
end, parent, pass id) are kept in memory and written out when the run
ends; the per-layer metrics are computed from them per traced pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

# Per-layer metrics: name -> (unit, better, the end-to-end metric it should
# move and on which workload).  BENCHMARK.json lists the same names.
METRICS = {
    "cli.self_s": ("s", "lower", "pass_s, every workload (predicted negligible)"),
    "cli.errors": ("1/call", "lower", "error_rate"),
    "formats.load.s": ("s", "lower", "estimate_s, verify_s on geometric-cli; ~0 elsewhere"),
    "formats.load.calls": ("count", "lower", "estimate_s, verify_s on geometric-cli"),
    "formats.load.bytes": ("bytes", "lower", "estimate_s, verify_s, peak_rss_mb on geometric-cli"),
    "formats.dump.s": ("s", "lower", "setup_s, mainly on geometric-cli"),
    "formats.dump.bytes": ("bytes", "lower", "set_file_bytes, mainly on geometric-cli"),
    "formats.errors": ("1/call", "lower", "error_rate"),
    "constructions.build.s": ("s", "lower", "setup_s, mainly on geometric-cli"),
    "constructions.errors": ("1/call", "lower", "error_rate"),
    "dyadic.tree_init.s": ("s", "lower", "estimate_s, verify_s, peak_rss_mb on geometric-cli; ~0 elsewhere"),
    "dyadic.tree_nodes": ("count", "lower", "peak_rss_mb on geometric-cli; 0 elsewhere"),
    "dyadic.errors": ("1/call", "lower", "error_rate"),
    "schedule.prefix_array.s": ("s", "lower", "estimate_s on two-phase-cli (rebuilt per command)"),
    "schedule.prefix_array.calls": ("count", "lower", "estimate_s on two-phase-cli"),
    "schedule.prefix_array.hit_ratio": ("1", "higher", "estimate_s; near 1 on union-sweep"),
    "schedule.extended_prefix.s": ("s", "lower", "estimate_s, verify_s on union-sweep"),
    "schedule.origin_log_counts.s": ("s", "lower", "estimate_s, verify_s on union-sweep"),
    "schedule.composite_spectrum.s": ("s", "lower", "estimate_s, verify_s on union-sweep"),
    "schedule.composite_upper.s": ("s", "lower", "estimate_s, verify_s on union-sweep"),
    "schedule.composite_upper.calls": ("count", "lower", "estimate_s, verify_s on union-sweep"),
    "schedule.composite_upper.self_s": ("s", "lower", "estimate_s, verify_s on union-sweep"),
    "schedule.errors": ("1/call", "lower", "error_rate"),
    "windows.suffix_slope_max.s": ("s", "lower", "estimate_s, verify_s on union-sweep and two-phase-cli; not geometric-cli"),
    "windows.suffix_slope_max.calls": ("count", "lower", "estimate_s, verify_s on union-sweep and two-phase-cli"),
    "windows.suffix_slope_max.queries": ("count", "lower", "estimate_s, verify_s on union-sweep and two-phase-cli"),
    "windows.suffix_slope_max.points": ("count", "lower", "estimate_s, verify_s on union-sweep and two-phase-cli"),
    "windows.runlen_table.s": ("s", "lower", "estimate_s, verify_s on geometric-cli only"),
    "windows.runlen_table.calls": ("count", "lower", "estimate_s, verify_s on geometric-cli only"),
    "windows.runlen_table.indices": ("count", "lower", "estimate_s, verify_s on geometric-cli only"),
    "windows.RootScale.fine_array.s": ("s", "lower", "verify_s (nthroot) on union-sweep"),
    "windows.errors": ("1/call", "lower", "error_rate"),
    "spectra.estimate_spectrum.s": ("s", "lower", "estimate_s"),
    "spectra.estimate_upper.s": ("s", "lower", "estimate_s"),
    "spectra.estimate_box.s": ("s", "lower", "estimate_s"),
    "spectra.estimate_quasi_assouad.s": ("s", "lower", "estimate_s"),
    "spectra.verify_main_theorem.s": ("s", "lower", "verify_s"),
    "spectra.verify_chain.s": ("s", "lower", "verify_s"),
    "spectra.verify_bound.s": ("s", "lower", "verify_s"),
    "spectra.verify_nthroot.s": ("s", "lower", "verify_s"),
    "spectra.brute.self_s": ("s", "lower", "verify_s on two-phase-cli and union-sweep"),
    "spectra.fan_windows": ("count", "lower", "verify_s on two-phase-cli and union-sweep"),
    "spectra.neighbors.s": ("s", "lower", "verify_s on geometric-cli"),
    "spectra.checks_failed": ("count", "lower", "checks_failed (>= 1 on geometric-cli: chain at small theta)"),
    "spectra.errors": ("1/call", "lower", "error_rate"),
    "output.s": ("s", "lower", "pass_s, every workload (predicted negligible)"),
    "output.bytes": ("bytes", "lower", "pass_s, every workload (predicted negligible)"),
    "output.errors": ("1/call", "lower", "error_rate"),
    "run.error_rate": ("1", "lower", "error_rate (failed over attempted operations)"),
    "trace.spans": ("count", "lower", "tracing overhead"),
    "trace.overhead_s": ("s", "lower", "traced pass_s minus untraced pass_s"),
}

LAYERS = ("cli", "formats", "constructions", "dyadic", "schedule", "windows", "spectra", "output")


def _size(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is None:
        path = args[0]
    return {"bytes": os.path.getsize(path)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _tree_nodes(args, kwargs, result):
    return {"nodes": args[0].node_count()}


def _slope_queries(args, kwargs, result):
    return {"queries": len(args[1]), "points": len(args[0])}


def _runlen_indices(args, kwargs, result):
    return {"indices": len(args[0])}


def _fan_counter(verify_main_theorem):
    """Counter of the windows the ratio-fan enumeration visits: the sum over
    theta and coarse m in the clamped range of the fine levels fine(m)..depth."""
    from fractions import Fraction

    from fds.windows import RationalScale

    sig = inspect.signature(verify_main_theorem)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        depth = bound.arguments["rep"].depth
        m_range = bound.arguments["m_range"]
        lo, hi = m_range if m_range is not None else (max(1, depth // 4), depth)
        total = 0
        for th in {Fraction(t) for t in bound.arguments["theta_grid"]}:
            scale = RationalScale(th)
            for m in range(lo, min(hi, scale.max_coarse(depth)) + 1):
                total += depth - scale.fine(m) + 1
        return {"windows": total}

    return count


class Tracer:
    """Installs wrappers around the layers' public entry points while a
    traced pass runs, and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen_prefix: dict[int, object] = {}

    # -- installation -------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, metric key, counter) per entry point."""
        import fds.cli
        import fds.constructions as con
        import fds.dyadic as dy
        import fds.formats as fm
        import fds.schedule as sc
        import fds.spectra as sp
        import fds.svg as sv
        import fds.windows as wi

        out = [
            (fds.cli, "main", "cli.main", "cli", None),
            (fm, "load", "formats.load", "formats.load", _size),
            (fm, "dump", "formats.dump", "formats.dump", _size),
            (dy.DyadicTree, "__init__", "dyadic.tree_init", "dyadic.tree_init", _tree_nodes),
            (sc.BranchingSchedule, "prefix_array", "schedule.prefix_array", "schedule.prefix_array", None),
            (sc.CompositeSet, "extended_prefix", "schedule.extended_prefix", "schedule.extended_prefix", None),
            (sc, "origin_log_counts", "schedule.origin_log_counts", "schedule.origin_log_counts", None),
            (sc, "composite_spectrum", "schedule.composite_spectrum", "schedule.composite_spectrum", None),
            (sc, "composite_upper", "schedule.composite_upper", "schedule.composite_upper", None),
            (wi, "suffix_slope_max", "windows.suffix_slope_max", "windows.suffix_slope_max", _slope_queries),
            (wi, "runlen_table", "windows.runlen_table", "windows.runlen_table", _runlen_indices),
            (wi.RootScale, "fine_array", "windows.RootScale.fine_array", "windows.RootScale.fine_array", None),
            (sp, "estimate_to_csv", "output.estimate_to_csv", "output", _text_bytes),
            (sp, "report_to_text", "output.report_to_text", "output", _text_bytes),
            (sv, "render_plot", "output.render_plot", "output", _text_bytes),
        ]
        for name in ("two_phase_schedule", "concave_union", "target_from_poly",
                     "geometric_sequence_tree"):
            out.append((con, name, f"constructions.{name}", "constructions.build", None))
        for name in ("estimate_spectrum", "estimate_upper", "estimate_box",
                     "estimate_quasi_assouad", "verify_chain", "verify_bound",
                     "verify_nthroot"):
            out.append((sp, name, f"spectra.{name}", f"spectra.{name}", None))
        vmt = getattr(sp, "verify_main_theorem", None)
        out.append((sp, "verify_main_theorem", "spectra.verify_main_theorem",
                    "spectra.verify_main_theorem", vmt and _fan_counter(vmt)))
        return out

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._seen_prefix = {}
        for owner, attr, name, key, count in self._targets():
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(orig, name, key, count)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [
                    (mod, n)
                    for mod in list(sys.modules.values())
                    if getattr(mod, "__name__", "").partition(".")[0] == "fds"
                    for n, v in list(vars(mod).items())
                    if v is orig
                ]
            for site, n in sites:
                self._undo.append((site, n, orig))
                setattr(site, n, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            site, n, orig = self._undo.pop()
            setattr(site, n, orig)

    def _wrap(self, fn, name, key, count):
        layer = name.partition(".")[0]
        spans = self.spans
        stack = self._stack
        neighbors_sig = inspect.signature(fn) if layer == "spectra" else None
        is_prefix = name == "schedule.prefix_array"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "key": key, "layer": layer,
                    "parent": stack[-1] if stack else -1, "pass": self.pass_id,
                    "error": None}
            if neighbors_sig is not None:
                bound = neighbors_sig.bind(*args, **kwargs)
                span["neighbors"] = bool(bound.arguments.get("neighbors", False))
            if is_prefix:
                span["hit"] = id(args[0]) in self._seen_prefix
                self._seen_prefix[id(args[0])] = args[0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------

    def pass_metrics(self, pass_id: int, slowdown: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass (without the run-level ones);
        times are divided by the pass's slowdown, as end-to-end times are."""
        index = {i: s for i, s in enumerate(self.spans) if s["pass"] == pass_id}
        child_time: dict[int, float] = {}
        for i, s in index.items():
            if s["parent"] >= 0:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

        m = {name: 0.0 for name in METRICS}
        calls = {layer: 0 for layer in LAYERS}
        errors = {layer: 0 for layer in LAYERS}
        prefix_hits = 0
        for i, s in index.items():
            dur = s["end"] - s["start"]
            self_s = dur - child_time.get(i, 0.0)
            key, layer = s["key"], s["layer"]
            counts = s.get("counts", {})
            calls[layer] += 1
            errors[layer] += s["error"] is not None
            top = not self._has_ancestor(s, "key", key)
            if key == "cli":
                m["cli.self_s"] += self_s
            elif key == "output":
                if top:
                    m["output.s"] += dur
                m["output.bytes"] += counts.get("bytes", 0)
            elif top and f"{key}.s" in m:
                m[f"{key}.s"] += dur
            if key in ("formats.load", "formats.dump"):
                m[f"{key}.bytes"] += counts.get("bytes", 0)
            if key == "formats.load":
                m["formats.load.calls"] += 1
            elif key == "dyadic.tree_init":
                m["dyadic.tree_nodes"] += counts.get("nodes", 0)
            elif key == "schedule.prefix_array":
                m["schedule.prefix_array.calls"] += 1
                prefix_hits += s["hit"]
            elif key == "schedule.composite_upper":
                m["schedule.composite_upper.calls"] += 1
                m["schedule.composite_upper.self_s"] += self_s
            elif key == "windows.suffix_slope_max":
                m["windows.suffix_slope_max.calls"] += 1
                m["windows.suffix_slope_max.queries"] += counts.get("queries", 0)
                m["windows.suffix_slope_max.points"] += counts.get("points", 0)
            elif key == "windows.runlen_table":
                m["windows.runlen_table.calls"] += 1
                m["windows.runlen_table.indices"] += counts.get("indices", 0)
            elif key == "spectra.verify_main_theorem":
                m["spectra.brute.self_s"] += self_s
                m["spectra.fan_windows"] += counts.get("windows", 0)
            if s.get("neighbors") and not self._has_ancestor(s, "layer", "spectra"):
                m["spectra.neighbors.s"] += dur
        if m["schedule.prefix_array.calls"]:
            m["schedule.prefix_array.hit_ratio"] = prefix_hits / m["schedule.prefix_array.calls"]
        for layer in LAYERS:
            m[f"{layer}.errors"] = errors[layer] / calls[layer] if calls[layer] else 0.0
        m["trace.spans"] = float(len(index))
        for name, (unit, _, _) in METRICS.items():
            if unit == "s":
                m[name] /= slowdown
        return m

    def _has_ancestor(self, s, field: str, value: str) -> bool:
        """Whether a span enclosing s has the given key or layer; nested
        calls of one entry point count once."""
        p = s["parent"]
        while p >= 0:
            if self.spans[p][field] == value:
                return True
            p = self.spans[p]["parent"]
        return False

    def write(self, path: str) -> None:
        keep = ("name", "start", "end", "parent", "pass", "error")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"missing": self.missing,
                       "spans": [{k: s[k] for k in keep} | ({"counts": s["counts"]} if "counts" in s else {})
                                 for s in self.spans]}, fh)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
