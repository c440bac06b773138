"""Versioned text formats for trees, schedules and composites.

fds-tree 2        "depth <D>", "leaves <N>", then N lines with one leaf
                  (a level-D index) each, in lowercase hex without prefix,
                  strictly ascending and below 2**D.  A valid tree is
                  determined by its leaves; this is the version written.
fds-tree 1        one line per level: "<level>: <i> <i> ...", indices in
                  decimal, sorted ascending.  Still read; parsing rejects
                  prefix-closure violations and dangling nodes (a node
                  above the deepest level without a child), and a
                  non-empty tree needs a line for every level.
fds-schedule 1    run lines "<count> <c>" (one space) with c in {1, 2},
                  counts positive and summing to the declared depth.
fds-composite 1   "origin <0|1>" then one "component <shift> <spec>" line
                  per component, where <spec> is either an inline run list
                  "runs:<count>x<c>,<count>x<c>,..." (at least one run, no
                  spaces) or a path to an fds-schedule file (resolved
                  relative to the composite file).

Every decimal number - run lengths and child counts, the depth, leaves
and shift fields, and the level and index tokens of fds-tree 1 - is ASCII
digits only: no sign, underscore, surrounding space or non-ASCII digit.
Run numbers are also below 2**63.
"""

from __future__ import annotations

import os
import re
from typing import Union

import numpy as np

from .dyadic import DyadicTree
from .errors import FormatError
from .schedule import BranchingSchedule, CompositeSet

__all__ = [
    "write_tree",
    "write_schedule",
    "write_composite",
    "dump",
    "load",
]

SetLike = Union[DyadicTree, BranchingSchedule, CompositeSet]


_HEX = re.compile(r"[0-9a-f]+")
# the longest well-formed prefix of a run body, read only to name the part
# of a rejected body: "<length>x<count>," tokens and "<length> <count>\n"
# run lines
_RUNS_PREFIX = re.compile(r"(?:[0-9]+x[0-9]+,)*")
_RUN_LINES_PREFIX = re.compile(r"(?:[0-9]+ [0-9]+\n)*")
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def write_tree(t: DyadicTree) -> str:
    head = f"fds-tree 2\ndepth {t.depth}\nleaves {len(t.leaves)}\n"
    return head + "".join(f"{x:x}\n" for x in t.leaves)


def _run_tokens(s: BranchingSchedule, template: str) -> list[str]:
    """template.format(length, count) per run, each distinct run formatted
    once and looked up by index."""
    # key 2 * length + (count - 1) fits uint64 for every int64 length
    keys, inv = np.unique(
        s.lengths.astype(np.uint64) * 2 + (s.counts == 2), return_inverse=True
    )
    tokens = [template.format(k >> 1, (k & 1) + 1) for k in keys.tolist()]
    return np.array(tokens, dtype=object)[inv].tolist()


def write_schedule(s: BranchingSchedule) -> str:
    lines = ["fds-schedule 1", f"depth {s.depth}", *_run_tokens(s, "{} {}")]
    return "\n".join(lines) + "\n"


def _inline_runs(s: BranchingSchedule) -> str:
    return "runs:" + ",".join(_run_tokens(s, "{}x{}"))


def write_composite(cs: CompositeSet) -> str:
    lines = ["fds-composite 1", f"origin {int(cs.include_origin)}"]
    lines.extend(f"component {e} {_inline_runs(s)}" for e, s in cs.components)
    return "\n".join(lines) + "\n"


def dump(obj: SetLike, path: str) -> None:
    if isinstance(obj, DyadicTree):
        text = write_tree(obj)
    elif isinstance(obj, BranchingSchedule):
        text = write_schedule(obj)
    elif isinstance(obj, CompositeSet):
        text = write_composite(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _lines(text: str) -> list[str]:
    return [ln.rstrip() for ln in text.splitlines() if ln.strip()]


def _decimal(tok: str, what: str) -> int:
    """The value of a decimal field outside the run body: ASCII digits
    only, like a run number."""
    if not (tok.isascii() and tok.isdigit()):
        raise FormatError(f"bad {what}")
    return int(tok)


def _count_line(line: str, key: str) -> int:
    """The non-negative integer of a "<key> <n>" line."""
    toks = line.split()
    if len(toks) != 2 or toks[0] != key:
        raise FormatError(f"missing {key} line")
    return _decimal(toks[1], f"{key} line")


def parse_tree(text: str) -> DyadicTree:
    lines = _lines(text)
    if not lines or lines[0] not in ("fds-tree 1", "fds-tree 2"):
        raise FormatError("not an fds-tree file")
    depth = _count_line(lines[1] if len(lines) > 1 else "", "depth")
    if lines[0] == "fds-tree 2":
        return _parse_leaves(lines[2:], depth)
    return _parse_levels(lines[2:], depth)


def _parse_leaves(lines: list[str], depth: int) -> DyadicTree:
    count = _count_line(lines[0] if lines else "", "leaves")
    body = lines[1:]
    if len(body) != count:
        raise FormatError(f"leaves line declares {count}, file has {len(body)}")
    for tok in body:
        if not _HEX.fullmatch(tok):
            raise FormatError(f"bad leaf {tok!r}")
    xs = [int(tok, 16) for tok in body]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise FormatError("leaves not strictly ascending")
    if xs and xs[-1].bit_length() > depth:
        raise FormatError(f"leaf {xs[-1]:x} out of range at depth {depth}")
    return DyadicTree(depth, xs)


def _parse_levels(lines: list[str], depth: int) -> DyadicTree:
    if not lines:
        return DyadicTree(depth, [])
    # checked before anything is allocated per level
    if len(lines) != depth + 1:
        raise FormatError(
            f"{len(lines)} level lines for depth {depth}; a non-empty tree "
            f"has one per level"
        )
    levels: list[list[int] | None] = [None] * (depth + 1)
    for ln in lines:
        head, _, rest = ln.partition(":")
        what = f"level line {ln!r}"
        m = _decimal(head, what)
        xs = [_decimal(tok, what) for tok in rest.split()]
        if m > depth:
            raise FormatError(f"level {m} outside depth {depth}")
        if levels[m] is not None:
            raise FormatError(f"duplicate level line for level {m}")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise FormatError(f"indices at level {m} not strictly ascending")
        if xs and xs[-1].bit_length() > m:
            raise FormatError(f"index out of range at level {m}")
        levels[m] = xs
    # a valid tree is fixed by its deepest level; any other level that
    # differs from the one derived from it shows a violation
    tree = DyadicTree(depth, levels[depth])
    if any(tree.level(m) != tuple(xs) for m, xs in enumerate(levels)):
        _raise_first_violation(levels)
    return tree


def _raise_first_violation(levels: list[list[int]]) -> None:
    """The first missing parent, top down, else the first dangling node."""
    for m in range(1, len(levels)):
        above = set(levels[m - 1])
        for k in levels[m]:
            if k >> 1 not in above:
                raise FormatError(
                    f"prefix closure violated: ({m}, {k}) present, "
                    f"({m - 1}, {k >> 1}) absent"
                )
    for m in range(len(levels) - 1):
        below = {k >> 1 for k in levels[m + 1]}
        for k in levels[m]:
            if k not in below:
                raise FormatError(f"dangling node ({m}, {k}): no child at level {m + 1}")


def _run_numbers(body: str, inner: str, sep: str) -> np.ndarray | None:
    """The numbers of a non-empty run body as an (n, 2) int64 array, or None
    when the body breaks the grammar: n >= 1 runs joined by `sep`, each two
    ASCII digit runs joined by `inner`.

    The grammar is read off the non-digit bytes alone: there are 2n - 1 of
    them, no two adjacent, neither end of the body is one, and they
    alternate inner, sep, inner, ...  The digit runs between them are then
    parsed grouped by width, one gather and one dot product per width.
    FormatError for a number with more than 19 digits or at least 2**63, so
    no value wraps.
    """
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    cut = np.flatnonzero(b - np.uint8(48) > 9)  # wraps below "0"
    if (
        cut.size % 2 == 0
        or cut[0] == 0
        or cut[-1] == b.size - 1
        or (cut.size > 1 and np.diff(cut).min() == 1)
        or (b[cut[::2]] != ord(inner)).any()
        or (b[cut[1::2]] != ord(sep)).any()
    ):
        return None
    starts = np.concatenate(([0], cut + 1))
    width = np.append(cut, b.size) - starts
    wide = np.flatnonzero(width > 19)
    if not wide.size:
        # first digits: the value of every one-digit number
        values = (b[starts] - np.uint8(48)).astype(np.uint64)
        present = np.flatnonzero(np.bincount(width))
        for w in present[present > 1].tolist():
            at = np.flatnonzero(width == w)
            digits = b[starts[at, None] + np.arange(w)] - np.uint8(48)
            # the k-th digit from a number's end weighs 10**k; 19 digits fit uint64
            values[at] = digits.astype(np.uint64) @ _POW10[w - 1 :: -1]
        wide = np.flatnonzero(values >= 1 << 63)
    if wide.size:
        i, w = int(starts[wide[0]]), int(width[wide[0]])
        raise FormatError(f"number {body[i:i + w]} exceeds the int64 range")
    return values.astype(np.int64).reshape(-1, 2)


def _parse_runs(body: str, inner: str, sep: str, prefix, what: str) -> BranchingSchedule:
    """The schedule of a run body, checked and parsed in numpy by
    `_run_numbers`.  A grammar error names the first part, split at `sep`,
    after the longest well-formed prefix."""
    runs = _run_numbers(body, inner, sep)
    if runs is None:
        part = body[prefix.match(body).end() :].split(sep, 1)[0]
        raise FormatError(f"bad {what} {part!r}")
    try:
        return BranchingSchedule(runs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_schedule(text: str) -> BranchingSchedule:
    lines = _lines(text)
    if not lines or lines[0] != "fds-schedule 1":
        raise FormatError("not an fds-schedule file")
    depth = _count_line(lines[1] if len(lines) > 1 else "", "depth")
    body = "\n".join(lines[2:])
    # unlike an inline run list, a schedule file may hold no run line
    sched = (
        _parse_runs(body, " ", "\n", _RUN_LINES_PREFIX, "run line")
        if body
        else BranchingSchedule(np.empty((0, 2), dtype=np.int64))
    )
    if sched.depth != depth:
        raise FormatError(f"run lengths sum to {sched.depth}, declared {depth}")
    return sched


def parse_composite(text: str, base_dir: str = ".") -> CompositeSet:
    lines = _lines(text)
    if not lines or lines[0] != "fds-composite 1":
        raise FormatError("not an fds-composite file")
    if len(lines) < 2 or not lines[1].startswith("origin "):
        raise FormatError("missing origin line")
    token = lines[1].split()[1]
    if token not in ("0", "1"):
        raise FormatError(f"origin flag must be 0 or 1, got {token!r}")
    origin = token == "1"
    comps = []
    for ln in lines[2:]:
        toks = ln.split(maxsplit=2)
        if len(toks) != 3 or toks[0] != "component":
            raise FormatError(f"bad component line {ln!r}")
        shift = _decimal(toks[1], f"shift in {ln!r}")
        spec = toks[2]
        if spec.startswith("runs:"):
            body = spec[len("runs:") :]
            sched = _parse_runs(body, "x", ",", _RUNS_PREFIX, "run token")
        else:
            sub = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
            with open(sub, encoding="ascii") as fh:
                sched = parse_schedule(fh.read())
        comps.append((shift, sched))
    try:
        return CompositeSet(comps, include_origin=origin)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load(path: str) -> SetLike:
    """Read any fds set file, dispatching on its header line."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    head = text.splitlines()[0].strip() if text.strip() else ""
    if head in ("fds-tree 1", "fds-tree 2"):
        return parse_tree(text)
    if head == "fds-schedule 1":
        return parse_schedule(text)
    if head == "fds-composite 1":
        return parse_composite(text, os.path.dirname(os.path.abspath(path)))
    raise FormatError(f"unrecognized set file header {head!r}")
