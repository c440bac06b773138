"""Command-line front-end: construct sets, run estimators and verifiers,
emit CSV and SVG.

Exit codes: 0 success or all checks pass, 1 verification failure, 2 usage
or parse error, 3 I/O error.  Identical configurations produce identical
output bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import cache, partial, reduce

from .constructions import (
    ConcaveTarget,
    TwoPhaseParams,
    closed_form_u,
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
NEIGHBORS = ("on", "off")


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


def parse_count(text: str, flag: str) -> int:
    """A non-negative integer option value: ASCII digits only, the rule of
    the file headers, so signs, spaces, underscores and non-ASCII digits
    are rejected rather than read by Python's lenient int()."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{flag} needs ASCII digits, got {text!r}")
    return int(text)


def _counts(spec: str, flag: str) -> list[int]:
    """A comma-separated list of parse_count values."""
    return [parse_count(tok, flag) for tok in spec.split(",")]


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


def _fractions(spec: str) -> list[Fraction]:
    return [_parse_fraction(tok) for tok in spec.split(",")]


def _tol(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--tol needs a number, got {text!r}") from None


def _neighbors(text: str) -> bool:
    if text not in NEIGHBORS:
        raise ValueError(f"--neighbors needs one of {NEIGHBORS}, got {text!r}")
    return text == "on"


def _samples(spec: str) -> ConcaveTarget:
    """An explicit concave target "<f0>;<q>:<f>,<q>:<f>,..."."""
    head, _, body = spec.partition(";")
    pts = [tok.partition(":")[::2] for tok in body.split(",")]
    return ConcaveTarget(_parse_fraction(head), tuple(tuple(map(_parse_fraction, p)) for p in pts))


def _overlay_u(spec: str) -> list[tuple[str, float]]:
    toks = spec.split(",")
    if len(toks) != 2:
        raise ValueError(f"--overlay-u needs exactly two values S,T, got {spec!r}")
    return [(tok, float(_parse_fraction(tok))) for tok in toks]


# Every option by its long name: the converter its text goes through, from a
# flag or a config key alike, then its flag's short forms and argparse
# keywords (None: a config key with no flag).
_OPTIONS = {
    "input": (str, ("-i",), {}),
    "output": (str, ("-o",), {}),
    "theta-grid": (parse_theta_grid, (), {"metavar": "A:B:C"}),
    "m-range": (parse_m_range, (), {"metavar": "LO:HI"}),
    "tol": (_tol, (), {}),
    "neighbors": (_neighbors, (), {"choices": NEIGHBORS}),
    "s": (_parse_fraction, (), {}),
    "t": (_parse_fraction, (), {}),
    "m0": (partial(parse_count, flag="--m0"), (), {}),
    "blocks": (partial(parse_count, flag="--blocks"), (), {}),
    "depth": (partial(parse_count, flag="--depth"), (), {}),
    "target": (_fractions, (), {"help": "polynomial coefficients c0,c1,..."}),
    "components": (partial(parse_count, flag="--components"), (), {}),
    "shifts": (partial(_counts, flag="--shifts"), (), {"help": "explicit comma-separated shifts"}),
    "shift-linear": (partial(parse_count, flag="--shift-linear"), (), {}),
    "samples": (_samples, (), None),
    "epsilons": (_fractions, (), {"help": "comma-separated, e.g. 0.1,0.05,0.02"}),
    "n-values": (lambda spec: [root_order(n) for n in _counts(spec, "--n-values")], (), {}),
    "overlay-u": (_overlay_u, (), {"metavar": "S,T"}),
    "overlay-poly": (lambda spec: list(map(float, _fractions(spec))), (),
                     {"metavar": "C0,C1,..."}),
}
# options that name files: flags only, never config keys or library arguments
_FILES = ("input", "output")
# pairs of options one command cannot take together: explicit samples
# replace the polynomial target and its sample count
_CONFLICTS = (("samples", "target"), ("samples", "components"))

# The one table of which options apply: subcommand -> variant -> the options
# it reads.  A variant is a construct generator, an estimate mode or a verify
# check; verify reads what any selected check reads.  `_build_parser` gives
# each subparser only the flags some variant of it reads, so argparse rejects
# the others, and _options rejects a flag or config key the variant ignores.
_RUN = ("input", "theta-grid", "m-range", "neighbors")
_TREE = ("output", "depth")
_APPLIES = {
    "construct": {
        "two-phase": ("output", "s", "t", "m0", "blocks"),
        "concave-union": ("output", "target", "components", "samples", "m0", "blocks",
                          "shifts", "shift-linear"),
        "geometric": _TREE,
        "full": _TREE,
        "path": _TREE,
        "from-schedule": ("input", "output"),
    },
    "estimate": {
        "spectrum": (*_RUN, "output"),
        "upper": (*_RUN, "output"),
        # The one documented exception: box and qa take their range from no
        # theta grid, yet accept --theta-grid (checked, unused).  Box also
        # takes --neighbors only to accept off and reject on by name.
        "box": (*_RUN, "output"),
        "qa": (*_RUN, "output", "epsilons"),
    },
    "verify": {
        "main-theorem": _RUN,
        "bound": (*_RUN, "tol"),
        "chain": (*_RUN, "tol", "epsilons"),
        "nthroot": (*_RUN, "tol", "n-values"),
    },
    "plot": {"plot": ("input", "output", "overlay-u", "overlay-poly")},
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Each subparser declares its own
    argument, the flags some variant of it reads, then --config; no prefix
    of a flag stands for it, so only the table's names get past."""
    ap = argparse.ArgumentParser(
        prog="fds", description="Construct dyadic sets with prescribed Assouad-type "
        "spectra; estimate and cross-verify their dimensions.", allow_abbrev=False)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)
    add("construct", help="generate a set file").add_argument(
        "generator", choices=tuple(_APPLIES["construct"]))
    add("estimate", help="estimate a dimension").add_argument(
        "--mode", choices=tuple(_APPLIES["estimate"]), default="spectrum")
    add("verify", help="run identity checks").add_argument(
        "--check", action="append", help="repeatable; default all")
    add("plot", help="render CSVs as one SVG").add_argument("csvs", nargs="*")
    for name, parser in sub.choices.items():
        reads = set().union(*_APPLIES[name].values())
        for opt, (_, short, kw) in _OPTIONS.items():
            if opt in reads and kw is not None:
                parser.add_argument(f"--{opt}", *short, **kw)
        parser.add_argument("--config")
    return ap


def _variants(args) -> tuple[str, list[str]]:
    """The command as the user named it, and its variants in the table,
    each once, in the order first named."""
    if args.subcommand == "construct":
        return f"construct {args.generator}", [args.generator]
    if args.subcommand == "estimate":
        return f"estimate --mode {args.mode}", [args.mode]
    if args.subcommand == "plot":
        return "plot", ["plot"]
    checks = _APPLIES["verify"]
    names = [tok.strip() for c in args.check or checks for tok in c.split(",")]
    unknown = [c for c in names if c not in checks]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; choose from {tuple(checks)}")
    return f"verify --check {','.join(names)}", list(dict.fromkeys(names))


def _options(args, label: str, variants: list[str]) -> dict:
    """The converted value of every option given as a flag or config key
    (a flag wins over the config file), by long name.  An option none of
    the variants reads, an empty value, or two options of a `_CONFLICTS`
    pair is an error naming them."""
    if args.config == "":
        raise ValueError("--config needs a value")
    cfg = read_config(args.config) if args.config is not None else {}
    unknown = sorted(key for key in cfg if key not in _OPTIONS or key in _FILES)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    given = {key: (text, f"config key {key!r}") for key, text in cfg.items()}
    for name in _OPTIONS:
        text = getattr(args, name.replace("-", "_"), None)
        if text is not None:
            given[name] = (text, f"--{name}")
    reads = set().union(*(_APPLIES[args.subcommand][v] for v in variants))
    ignored = [src for name, (_, src) in given.items() if name not in reads]
    if ignored:
        raise ValueError(f"{label} does not read {', '.join(ignored)}")
    for a, b in _CONFLICTS:
        if a in given and b in given:
            raise ValueError(f"{label} cannot take {given[a][1]} and {given[b][1]} together")
    opts = {}
    for name, (text, src) in given.items():
        if not text:
            raise ValueError(f"{src} needs a value")
        opts[name] = _OPTIONS[name][0](text)
    if "theta-grid" in reads and "theta-grid" not in opts:
        opts["theta-grid"] = parse_theta_grid(DEFAULT_GRID)
    return opts


def _kwargs(opts: dict, names) -> dict:
    """The given options among `names`, but files, as library keyword arguments."""
    return {n.replace("-", "_"): opts[n] for n in names if n in opts and n not in _FILES}


def _required(opts: dict, name: str):
    if name not in opts:
        raise ValueError(f"--{name} is required")
    return opts[name]


def cmd_construct(opts: dict, gen: str) -> int:
    out = _required(opts, "output")
    if gen == "two-phase":
        if "s" not in opts or "t" not in opts:
            raise ValueError("two-phase needs --s and --t")
        params = TwoPhaseParams(opts["s"], opts["t"], **_kwargs(opts, ("m0", "blocks")))
        sched = two_phase_schedule(params)
        formats.dump(sched, out)
        print(f"wrote {out}: fds-schedule depth={sched.depth} runs={len(sched.lengths)}")
    elif gen == "concave-union":
        if "target" in opts:
            target = target_from_poly(opts["target"], opts.get("components", 8))
        elif "samples" in opts:
            target = opts["samples"]
        else:
            raise ValueError("concave-union needs --target c0,c1,... or samples=")
        cs = concave_union(target, **_kwargs(opts, ("m0", "blocks", "shifts", "shift-linear")))
        formats.dump(cs, out)
        print(f"wrote {out}: fds-composite components={len(cs.components)} depth={cs.depth}")
    else:
        if gen == "from-schedule":
            obj = formats.load(_required(opts, "input"))
            if not isinstance(obj, BranchingSchedule):
                raise ValueError("from-schedule needs an fds-schedule input")
            tree = materialize(obj)
        else:
            build = {"geometric": geometric_sequence_tree, "full": full_binary_tree,
                     "path": left_path_tree}[gen]
            tree = build(opts.get("depth", {"geometric": 256, "full": 10, "path": 64}[gen]))
        formats.dump(tree, out)
        print(f"wrote {out}: fds-tree depth={tree.depth} nodes={tree.node_count()}")
    return 0


def cmd_estimate(opts: dict, mode: str) -> int:
    rep = formats.load(_required(opts, "input"))
    out = _required(opts, "output")
    kw = _kwargs(opts, _APPLIES["estimate"][mode])
    if mode in ("spectrum", "upper"):
        fn = spectra.estimate_spectrum if mode == "spectrum" else spectra.estimate_upper
        est = fn(rep, **kw)
        lo, hi = min(est.values), max(est.values)
        summary = f"{mode}: {len(est.values)} grid points, min={lo!r} max={hi!r}"
    else:
        del kw["theta_grid"]
        if mode == "box":
            if kw.pop("neighbors", False):
                raise ValueError("box mode has no neighbor variant")
            est = spectra.estimate_box(rep, **kw)
            summary = f"box: value={est.value!r} witness m={est.m_witness}"
        else:
            kw.setdefault("epsilons", DEFAULT_EPSILONS.split(","))
            est = spectra.estimate_quasi_assouad(rep, **kw)
            summary = f"qa: headline={est.headline!r} ({est.trend})"
    with open(out, "w", encoding="ascii") as fh:
        fh.write(spectra.estimate_to_csv(est))
    print(f"{summary} -> {out}")
    return 0


def cmd_verify(opts: dict, names: list[str]) -> int:
    rep = formats.load(_required(opts, "input"))
    checks = _APPLIES["verify"]
    # looked up per call, so a wrapper installed on spectra sees each check
    reports = [getattr(spectra, "verify_" + n.replace("-", "_"))(rep, **_kwargs(opts, checks[n]))
               for n in names]
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
        if not (math.isfinite(theta) and math.isfinite(value)):
            raise FormatError(f"{path}: bad row {ln!r}")
        pts.append((theta, value))
    if not pts:
        raise FormatError(f"{path}: empty CSV body")
    return pts


def cmd_plot(opts: dict, csvs: list[str]) -> int:
    out = _required(opts, "output")
    paths = [opts["input"], *csvs] if "input" in opts else list(csvs)
    if not paths:
        raise ValueError("plot needs at least one CSV input")
    series = [(p.rsplit("/", 1)[-1], _read_csv_series(p)) for p in paths]
    samples = [k / 200 for k in range(1, 200)]
    if "overlay-u" in opts:
        (s_tok, s), (t_tok, t) = opts["overlay-u"]
        series.append(
            (f"u(s={s_tok},t={t_tok})", [(x, closed_form_u(s, t, x)) for x in samples])
        )
    if "overlay-poly" in opts:
        coeffs = opts["overlay-poly"][::-1]
        series.append(("target f", [
            (x, reduce(lambda acc, c: acc * x + c, coeffs, 0.0)) for x in samples
        ]))
    text = render_plot(series)
    with open(out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"wrote {out}: {len(series)} series")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        label, variants = _variants(args)
        opts = _options(args, label, variants)
        if args.subcommand == "construct":
            return cmd_construct(opts, args.generator)
        if args.subcommand == "estimate":
            return cmd_estimate(opts, args.mode)
        if args.subcommand == "verify":
            return cmd_verify(opts, variants)
        return cmd_plot(opts, args.csvs)
    except (ValueError, BudgetError) as exc:  # includes FormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
