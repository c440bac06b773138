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

`load` picks the format by the first line, cut at the first line break
`str.splitlines` knows and stripped of surrounding whitespace, read from
the file's first 4096 characters; a component file must be an
fds-schedule.  A file of another kind is not read further.  Run bodies
are written and read whole in numpy: `_run_bytes` lays out the bytes of
every run at once, and `_run_numbers` checks the grammar on the non-digit
bytes and gathers the digits.  The tests' oracles write and parse one run
at a time with Python strings, as the reference for both.
"""

from __future__ import annotations

import os
import re
from heapq import merge
from typing import Iterator, Union

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
# every character str.splitlines cuts a line at
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_BREAKS}]")
# the first three whitespace-separated tokens of a line, as str.split
# finds them, the third only by where it starts
_COMPONENT = re.compile(r"\s*(\S+)\s+(\S+)\s+")
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
# how every written schedule text starts, up to its depth's digits
_SCHEDULE_HEAD = "fds-schedule 1\ndepth "


def write_tree(t: DyadicTree) -> str:
    head = f"fds-tree 2\ndepth {t.depth}\nleaves {len(t.leaves)}\n"
    return head + "".join(f"{x:x}\n" for x in t.leaves)


def _run_bytes(s: BranchingSchedule, inner: str, sep: str) -> np.ndarray:
    """One "<length><inner><count><sep>" per run, as one ASCII uint8 array."""
    lengths = s.lengths
    # a run takes its length's digits plus 3 bytes.  Each // 10 that leaves
    # a length nonzero adds a digit, the next one leftwards
    ends = np.full(lengths.size, 4, dtype=np.int64)
    higher = []  # (runs, their digit) for the tens, the hundreds, ...
    at = np.flatnonzero(lengths >= 10)
    rest = lengths[at] // 10
    while at.size:
        ends[at] += 1
        rest, digit = np.divmod(rest, 10)
        higher.append((at, digit))
        live = np.flatnonzero(rest)
        at, rest = at[live], rest[live]
    np.cumsum(ends, out=ends)
    out = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    ends -= 1
    out[ends] = ord(sep)
    # one byte per run, first each count's digit, then each length's last
    byte = np.empty(lengths.size, dtype=np.uint8)
    ends -= 1
    np.add(s.counts, 48, out=byte, casting="unsafe")
    out[ends] = byte
    ends -= 1
    out[ends] = ord(inner)
    ends -= 1
    np.remainder(lengths, 10, out=byte, casting="unsafe")
    byte += 48
    out[ends] = byte
    for k, (at, digit) in enumerate(higher, 1):
        out[ends[at] - k] = digit + 48
    return out


def write_schedule(s: BranchingSchedule) -> str:
    body = str(_run_bytes(s, " ", "\n"), "ascii")
    return f"fds-schedule 1\ndepth {s.depth}\n{body}"


def write_composite(cs: CompositeSet) -> str:
    """ValueError for a component without runs, which no inline run list
    can hold."""
    parts = [f"fds-composite 1\norigin {int(cs.include_origin)}\n"]
    for e, s in cs.components:
        if not s.lengths.size:
            raise ValueError(f"component at shift {e} has no runs to write")
        body = _run_bytes(s, "x", ",")
        body[-1] = ord("\n")  # the line ends with the last run
        parts += (f"component {e} runs:", str(body, "ascii"))
    return "".join(parts)


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


def _line_spans(text: str) -> Iterator[tuple[int, int]]:
    """(start, stop) in text of each line of `_lines(text)`, found with one
    str.find per line break and no copy of a line that ends in a
    non-whitespace character."""

    def finds(c):
        at = text.find(c)
        while at >= 0:
            yield at
            at = text.find(c, at + 1)

    start = 0
    for brk in merge(*map(finds, _BREAKS), [len(text)]):
        stop = brk
        if stop > start and text[stop - 1].isspace():
            stop = start + len(text[start:stop].rstrip())
        if stop > start:
            yield start, stop
        start = brk + 1


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


def _run_numbers(body, inner: str, sep: str) -> np.ndarray | None:
    """The numbers of a run body, given as bytes, as an (n, 2) int64 array,
    or None when the body breaks the grammar: n >= 1 runs joined by `sep`,
    each two ASCII digit runs joined by `inner`.

    The grammar is read off the non-digit bytes alone: there are 2n - 1 of
    them, no two adjacent, neither end of the body is one, and they
    alternate inner, sep, inner, ...  A byte outside ASCII is none of
    these, so the grammar rejects it.  One gather of first digits gives
    every one-digit number; the longer ones are parsed grouped by width,
    one gather and one dot product per width.
    FormatError for a number with more than 19 digits or at least 2**63, so
    no value wraps.
    """
    b = np.frombuffer(body, dtype=np.uint8)
    if not b.size:
        return None
    other = b - np.uint8(48) > 9  # wraps below "0"
    if other[0] or other[-1] or (other[1:] & other[:-1]).any():
        return None
    cut = np.flatnonzero(other)
    if (
        cut.size % 2 == 0
        or (b[cut[::2]] != ord(inner)).any()
        or (b[cut[1::2]] != ord(sep)).any()
    ):
        return None
    # first digits: the value of every one-digit number; lengths (numbers
    # 0, 2, 4, ...) then counts, so each column of the result is contiguous
    n = (cut.size + 1) // 2
    values = np.empty(2 * n, dtype=np.int64)
    values[0] = b[0]
    values[1:n] = b[1:][cut[1::2]]
    values[n:] = b[1:][cut[::2]]
    values -= 48
    # digits followed by a digit; a number's first one heads the number
    pair = np.flatnonzero(~(other[:-1] | other[1:]))
    if pair.size:
        lead = np.flatnonzero(other[pair - 1] | (pair == 0))
        head = pair[lead]
        width = np.diff(lead, append=pair.size) + 1
        past = np.flatnonzero(width > 19)
        if not past.size:
            num = np.searchsorted(cut, head)  # the numbers they head
            at = (num >> 1) + (num & 1) * n
            for w in np.flatnonzero(np.bincount(width)).tolist():
                sel = np.flatnonzero(width == w)
                digits = b[head[sel, None] + np.arange(w)] - np.uint8(48)
                # the k-th digit from a number's end weighs 10**k; 19 digits fit uint64
                v = digits.astype(np.uint64) @ _POW10[w - 1 :: -1]
                if w == 19:  # the only width that reaches 2**63
                    past = sel[v >= 1 << 63]
                    if past.size:
                        break
                values[at[sel]] = v
        if past.size:
            i, w = int(head[past[0]]), int(width[past[0]])
            raise FormatError(f"number {str(body[i:i + w], 'ascii')} exceeds the int64 range")
    return values.reshape(2, n).T


def _parse_runs(
    text: str, inner: str, sep: str, prefix, what: str, span=None, data=None
) -> BranchingSchedule:
    """The schedule of the run body text[start:stop] for span (start, stop),
    all of text by default, checked and parsed in numpy by `_run_numbers`
    on the same span of data, the text's bytes with one "?" for each
    character outside ASCII (made here when not given).  A grammar error
    names the first part, split at `sep`, after the longest well-formed
    prefix."""
    start, stop = span or (0, len(text))
    if data is None:
        data = text.encode("ascii", "replace")
    runs = _run_numbers(memoryview(data)[start:stop], inner, sep)
    if runs is None:
        body = text[start:stop]
        part = body[prefix.match(body).end() :].split(sep, 1)[0]
        raise FormatError(f"bad {what} {part!r}")
    return _schedule(runs)


def _schedule(runs: np.ndarray) -> BranchingSchedule:
    try:
        return BranchingSchedule(runs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _canonical_schedule(text: str) -> tuple[int, np.ndarray] | None:
    """(depth, runs) of a schedule text in the form `write_schedule` writes,
    read without splitting it into lines, else None: the header line
    exactly, a "depth <digits>" line, then run lines whose bytes, less one
    final line break, pass `_run_numbers`."""
    if not text.startswith(_SCHEDULE_HEAD):
        return None
    start = len(_SCHEDULE_HEAD)
    brk = text.find("\n", start)
    digits = text[start:brk]
    if brk < 0 or not (digits.isascii() and digits.isdigit()):
        return None
    stop = len(text) - text.endswith("\n")
    runs = _run_numbers(memoryview(text.encode("ascii", "replace"))[brk + 1 : stop], " ", "\n")
    return None if runs is None else (int(digits), runs)


def parse_schedule(text: str) -> BranchingSchedule:
    """The schedule of an fds-schedule text.  A text in the written form
    goes straight to `_run_numbers` (`_canonical_schedule`); any other,
    with blank lines, trailing blanks or other line breaks, is read line
    by line, with the same result and every error text."""
    canonical = _canonical_schedule(text)
    if canonical is not None:
        depth, runs = canonical
        sched = _schedule(runs)
    else:
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
    """The set of an fds-composite file.  Its lines are read as positions
    in the text (`_line_spans`), and each inline run body goes to
    `_run_numbers` as a view of the one byte copy of the file."""
    spans = list(_line_spans(text))
    lines = [text[a:b] for a, b in spans[:2]]
    if not lines or lines[0] != "fds-composite 1":
        raise FormatError("not an fds-composite file")
    if len(lines) < 2 or not lines[1].startswith("origin "):
        raise FormatError("missing origin line")
    token = lines[1].split()[1]
    if token not in ("0", "1"):
        raise FormatError(f"origin flag must be 0 or 1, got {token!r}")
    origin = token == "1"
    data = text.encode("ascii", "replace")  # one byte per character
    comps = []
    for start, stop in spans[2:]:
        toks = _COMPONENT.match(text, start, stop)
        if toks is None or toks[1] != "component":
            raise FormatError(f"bad component line {text[start:stop]!r}")
        try:
            shift = _decimal(toks[2], "shift")
        except FormatError:  # the line's repr is built only on error
            raise FormatError(f"bad shift in {text[start:stop]!r}") from None
        spec = toks.end()
        if text.startswith("runs:", spec, stop):
            span = (spec + len("runs:"), stop)
            sched = _parse_runs(text, "x", ",", _RUNS_PREFIX, "run token", span, data)
        else:
            sub = text[spec:stop]
            sub = sub if os.path.isabs(sub) else os.path.join(base_dir, sub)
            _, body = _read(sub, ("fds-schedule 1",), f"component file {sub!r} has header")
            sched = parse_schedule(body)
        comps.append((shift, sched))
    try:
        return CompositeSet(comps, include_origin=origin)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _read(path: str, heads: tuple[str, ...], error: str) -> tuple[str, str]:
    """(header, text) of the file at path, its header read from the first
    4096 characters: one not in heads raises FormatError(f"{error} {head!r}")
    before the rest of the file is read."""
    with open(path, encoding="ascii") as fh:
        text = fh.read(4096)
        head = _LINE_BREAK.split(text, 1)[0].strip()
        if head not in heads:
            raise FormatError(f"{error} {head!r}")
        return head, text + fh.read()


def load(path: str) -> SetLike:
    """Read any fds set file, dispatching on its header line."""
    head, text = _read(path, ("fds-tree 1", "fds-tree 2", "fds-schedule 1", "fds-composite 1"),
                       "unrecognized set file header")
    if head == "fds-schedule 1":
        return parse_schedule(text)
    if head == "fds-composite 1":
        return parse_composite(text, os.path.dirname(os.path.abspath(path)))
    return parse_tree(text)
