"""Command-line front-end: construct sets, run estimators and verifiers,
emit CSV and SVG.

Exit codes: 0 success or all checks pass, 1 verification failure, 2 usage
or parse error, 3 I/O error.  Identical configurations produce identical
output bytes.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .constructions import (
    ConcaveTarget,
    TwoPhaseParams,
    concave_union,
    full_binary_tree,
    geometric_sequence_tree,
    left_path_tree,
    target_from_poly,
    two_phase_schedule,
)
from .errors import BudgetError, FormatError
from . import formats
from .schedule import BranchingSchedule, materialize
from . import spectra
from .svg import render_plot
from .windows import root_order

__all__ = ["main"]

DEFAULT_GRID = "0.1:0.9:0.1"
DEFAULT_EPSILONS = "0.1,0.05,0.02"
# most points a --theta-grid may expand to
MAX_GRID_POINTS = 10_000


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def parse_theta_grid(spec: str) -> list[Fraction]:
    """Parse "start:stop:step" into an inclusive ascending grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"theta grid must be start:stop:step, got {spec!r}")
    start, stop, step = (_parse_fraction(p) for p in parts)
    if step <= 0:
        raise ValueError("theta grid step must be positive")
    if not (0 < start <= stop < 1):
        raise ValueError("theta grid must lie strictly inside (0, 1)")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"theta grid {spec!r} has {count} points, more than {MAX_GRID_POINTS}"
        )
    return [start + i * step for i in range(count)]


def parse_count(text, flag: str, default: int | None = None) -> int | None:
    """A non-negative integer option value, or `default` when the option
    is unset: ASCII digits only, the rule of the file headers, so signs,
    spaces, underscores and non-ASCII digits are rejected rather than read
    by Python's lenient int()."""
    if text is None:
        return default
    text = str(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{flag} needs ASCII digits, got {text!r}")
    return int(text)


def _counts(spec, flag: str) -> list[int]:
    """A comma-separated list of parse_count values."""
    return [parse_count(tok, flag) for tok in str(spec).split(",")]


def parse_m_range(spec: str) -> tuple[int, int]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"m range must be lo:hi, got {spec!r}")
    return parse_count(parts[0], "--m-range"), parse_count(parts[1], "--m-range")


def read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"bad config line {raw.rstrip()!r}")
            out[key.strip()] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fds",
        description="Construct dyadic sets with prescribed Assouad-type "
        "spectra; estimate and cross-verify their dimensions.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", "-i", default=None)
    common.add_argument("--output", "-o", default=None)
    common.add_argument("--theta-grid", default=None, metavar="A:B:C")
    common.add_argument("--m-range", default=None, metavar="LO:HI")
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--neighbors", choices=("on", "off"), default=None)
    common.add_argument("--config", default=None)

    con = sub.add_parser("construct", parents=[common], help="generate a set file")
    con.add_argument(
        "generator",
        choices=("two-phase", "concave-union", "geometric", "full", "path", "from-schedule"),
    )
    con.add_argument("--s", default=None)
    con.add_argument("--t", default=None)
    con.add_argument("--m0", default=None)
    con.add_argument("--blocks", default=None)
    con.add_argument("--depth", default=None)
    con.add_argument("--target", default=None, help="polynomial coefficients c0,c1,...")
    con.add_argument("--components", default=None)
    con.add_argument("--shifts", default=None, help="explicit comma-separated shifts")
    con.add_argument("--shift-linear", default=None)

    est = sub.add_parser("estimate", parents=[common], help="estimate a dimension")
    est.add_argument("--mode", choices=("spectrum", "upper", "box", "qa"), default="spectrum")
    est.add_argument("--epsilons", default=None, help="comma-separated, e.g. 0.1,0.05,0.02")

    ver = sub.add_parser("verify", parents=[common], help="run identity checks")
    ver.add_argument("--check", action="append", default=None, help="repeatable; default all")
    ver.add_argument("--epsilons", default=None)
    ver.add_argument("--n-values", default="2,3")

    plo = sub.add_parser("plot", parents=[common], help="render CSVs as one SVG")
    plo.add_argument("csvs", nargs="*")
    plo.add_argument("--overlay-u", default=None, metavar="S,T")
    plo.add_argument("--overlay-poly", default=None, metavar="C0,C1,...")
    return ap


_CONFIG_KEYS = {
    "s",
    "t",
    "m0",
    "blocks",
    "target",
    "samples",
    "shifts",
    "depth",
    "theta-grid",
    "m-range",
    "tol",
    "neighbors",
    "epsilons",
}


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset CLI options from the config file; flags win."""
    if not getattr(args, "config", None):
        return
    cfg = read_config(args.config)
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def _load_input(args) -> formats.SetLike:
    if not args.input:
        raise ValueError("--input is required")
    return formats.load(args.input)


def _run_config(args):
    """(theta grid, coarse range or None, tol, neighbors, epsilons) for an
    estimate/verify invocation; the library picks the default range."""
    eps_spec = getattr(args, "epsilons", None)
    return (
        parse_theta_grid(args.theta_grid or DEFAULT_GRID),
        parse_m_range(args.m_range) if args.m_range is not None else None,
        float(args.tol) if args.tol is not None else 0.05,
        (args.neighbors or "off") == "on",
        [_parse_fraction(tok) for tok in str(eps_spec).split(",")] if eps_spec else [],
    )


def cmd_construct(args) -> int:
    gen = args.generator
    out = args.output
    if not out:
        raise ValueError("--output is required")
    m0 = parse_count(args.m0, "--m0", 4)
    blocks = parse_count(args.blocks, "--blocks", 3)
    if gen == "two-phase":
        if args.s is None or args.t is None:
            raise ValueError("two-phase needs --s and --t")
        params = TwoPhaseParams(
            _parse_fraction(str(args.s)),
            _parse_fraction(str(args.t)),
            m0,
            blocks,
        )
        sched = two_phase_schedule(params)
        formats.dump(sched, out)
        print(f"wrote {out}: fds-schedule depth={sched.depth} runs={len(sched.lengths)}")
    elif gen == "concave-union":
        samples = getattr(args, "samples", None)
        if args.target is not None:
            coeffs = [_parse_fraction(tok) for tok in str(args.target).split(",")]
            count = parse_count(args.components, "--components", 8)
            target = target_from_poly(coeffs, count)
        elif samples is not None:
            # explicit sample list: "<f0>;<q>:<f>,<q>:<f>,..."
            head, _, body = str(samples).partition(";")
            pts = []
            for tok in body.split(","):
                q, _, f = tok.partition(":")
                pts.append((_parse_fraction(q), _parse_fraction(f)))
            target = ConcaveTarget(_parse_fraction(head), tuple(pts))
        else:
            raise ValueError("concave-union needs --target c0,c1,... or samples=")
        cs = concave_union(
            target,
            m0=m0,
            blocks=blocks,
            shifts=_counts(args.shifts, "--shifts") if args.shifts else None,
            shift_linear=parse_count(args.shift_linear, "--shift-linear"),
        )
        formats.dump(cs, out)
        print(
            f"wrote {out}: fds-composite components={len(cs.components)} depth={cs.depth}"
        )
    elif gen in ("geometric", "full", "path"):
        depth = parse_count(args.depth, "--depth", {"geometric": 256, "full": 10, "path": 64}[gen])
        tree = {
            "geometric": geometric_sequence_tree,
            "full": full_binary_tree,
            "path": left_path_tree,
        }[gen](depth)
        formats.dump(tree, out)
        print(f"wrote {out}: fds-tree depth={tree.depth} nodes={tree.node_count()}")
    elif gen == "from-schedule":
        obj = _load_input(args)
        if not isinstance(obj, BranchingSchedule):
            raise ValueError("from-schedule needs an fds-schedule input")
        tree = materialize(obj)
        formats.dump(tree, out)
        print(f"wrote {out}: fds-tree depth={tree.depth} nodes={tree.node_count()}")
    return 0


def cmd_estimate(args) -> int:
    rep = _load_input(args)
    if not args.output:
        raise ValueError("--output is required")
    grid, m_range, _, nb, epsilons = _run_config(args)
    mode = args.mode
    if mode in ("spectrum", "upper"):
        fn = spectra.estimate_spectrum if mode == "spectrum" else spectra.estimate_upper
        est = fn(rep, grid, m_range, nb)
        summary = (
            f"{mode}: {len(est.values)} grid points, "
            f"min={min(est.values)!r} max={max(est.values)!r}"
        )
    elif mode == "box":
        if nb:
            raise ValueError("box mode has no neighbor variant")
        est = spectra.estimate_box(rep, m_range)
        summary = f"box: value={est.value!r} witness m={est.m_witness}"
    else:
        eps = epsilons or [_parse_fraction(tok) for tok in DEFAULT_EPSILONS.split(",")]
        est = spectra.estimate_quasi_assouad(rep, eps, m_range, nb)
        summary = f"qa: headline={est.headline!r} ({est.trend})"
    text = spectra.estimate_to_csv(est)
    with open(args.output, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"{summary} -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    rep = _load_input(args)
    grid, m_range, tol, nb, epsilons = _run_config(args)
    # the calls read n_values, parsed once the check names are known good
    checks = {
        "main-theorem": lambda: spectra.verify_main_theorem(rep, grid, m_range, nb),
        "bound": lambda: spectra.verify_bound(rep, grid, m_range, tol, nb),
        "chain": lambda: spectra.verify_chain(rep, grid, m_range, tol, epsilons or None, nb),
        "nthroot": lambda: spectra.verify_nthroot(rep, grid, n_values, m_range, tol, nb),
    }
    names = [tok.strip() for c in args.check or checks for tok in c.split(",")]
    unknown = [c for c in names if c not in checks]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; choose from {tuple(checks)}")
    n_values = [root_order(n) for n in _counts(args.n_values, "--n-values")]
    reports = [checks[name]() for name in names]
    for rep_ in reports:
        sys.stdout.write(spectra.report_to_text(rep_))
    return 0 if all(r.passed for r in reports) else 1


def _read_csv_series(path: str) -> list[tuple[float, float]]:
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "theta,value,m_witness,mprime_witness":
        raise FormatError(f"{path}: not a spectrum CSV")
    pts = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 4:
            raise FormatError(f"{path}: bad row {ln!r}")
        try:
            theta = float(cells[0]) if cells[0] else 0.0
            value = float(cells[1])
        except ValueError as exc:
            raise FormatError(f"{path}: bad row {ln!r}") from exc
        pts.append((theta, value))
    if not pts:
        raise FormatError(f"{path}: empty CSV body")
    return pts


def cmd_plot(args) -> int:
    out = args.output
    if not out:
        raise ValueError("--output is required")
    paths = list(args.csvs)
    if args.input:
        paths.insert(0, args.input)
    if not paths:
        raise ValueError("plot needs at least one CSV input")
    series = []
    for p in paths:
        label = p.rsplit("/", 1)[-1]
        series.append((label, _read_csv_series(p)))
    samples = [k / 200 for k in range(1, 200)]
    if args.overlay_u:
        toks = str(args.overlay_u).split(",")
        if len(toks) != 2:
            raise ValueError(f"--overlay-u needs exactly two values S,T, got {args.overlay_u!r}")
        s_tok, t_tok = toks
        from .constructions import closed_form_u

        s, t = float(_parse_fraction(s_tok)), float(_parse_fraction(t_tok))
        series.append(
            (f"u(s={s_tok},t={t_tok})", [(x, closed_form_u(s, t, x)) for x in samples])
        )
    if args.overlay_poly:
        coeffs = [float(_parse_fraction(tok)) for tok in str(args.overlay_poly).split(",")]
        def poly(x: float) -> float:
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc
        series.append(("target f", [(x, poly(x)) for x in samples]))
    text = render_plot(series)
    with open(out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"wrote {out}: {len(series)} series")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _merge_config(args)
        if args.subcommand == "construct":
            return cmd_construct(args)
        if args.subcommand == "estimate":
            return cmd_estimate(args)
        if args.subcommand == "verify":
            return cmd_verify(args)
        return cmd_plot(args)
    except (ValueError, BudgetError) as exc:  # includes FormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
