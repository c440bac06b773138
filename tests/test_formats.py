"""Set file round trips and rejection of malformed input."""

import pytest

from fds.cli import main
from fds.constructions import full_binary_tree, geometric_sequence_tree, left_path_tree
from fds.dyadic import DyadicTree
from fds.errors import FormatError
from fds.formats import (
    dump,
    load,
    parse_composite,
    parse_schedule,
    parse_tree,
    write_composite,
    write_schedule,
    write_tree,
)
from fds.schedule import BranchingSchedule, CompositeSet

from conftest import levels, traced_peak, v1_text


def test_tree_round_trip(tmp_path):
    t = geometric_sequence_tree(12)
    path = tmp_path / "geo.fds"
    dump(t, str(path))
    assert load(str(path)) == t
    text = path.read_text()
    assert text.splitlines()[0] == "fds-tree 2"
    assert text.splitlines()[1] == "depth 12"


def test_schedule_round_trip(tmp_path):
    s = BranchingSchedule([(3, 1), (5, 2), (2, 1)])
    path = tmp_path / "s.fds"
    dump(s, str(path))
    assert load(str(path)) == s
    assert path.read_text() == "fds-schedule 1\ndepth 10\n3 1\n5 2\n2 1\n"


def test_composite_round_trip(tmp_path):
    cs = CompositeSet(
        [(2, BranchingSchedule([(4, 2)])), (5, BranchingSchedule([(3, 1), (3, 2)]))],
        include_origin=True,
    )
    path = tmp_path / "c.fds"
    dump(cs, str(path))
    assert load(str(path)) == cs


def test_composite_with_schedule_path(tmp_path):
    s = BranchingSchedule([(6, 2)])
    dump(s, str(tmp_path / "inner.fds"))
    (tmp_path / "c.fds").write_text(
        "fds-composite 1\norigin 0\ncomponent 3 inner.fds\n"
    )
    cs = load(str(tmp_path / "c.fds"))
    assert cs == CompositeSet([(3, s)], include_origin=False)


def test_tree_rejects_prefix_violation():
    bad = "fds-tree 1\ndepth 2\n0: 0\n1: 0\n2: 3\n"
    with pytest.raises(FormatError, match="prefix closure"):
        parse_tree(bad)


def test_tree_rejects_malformed():
    with pytest.raises(FormatError):
        parse_tree("fds-tree 2\ndepth 1\n")
    with pytest.raises(FormatError):
        parse_tree("fds-tree 1\n")
    with pytest.raises(FormatError):
        parse_tree("fds-tree 1\ndepth 1\n0: 0\n1: 1 0\n")  # unsorted
    with pytest.raises(FormatError):
        parse_tree("fds-tree 1\ndepth 1\n0: 0\n1: 0 0\n")  # duplicate
    with pytest.raises(FormatError):
        parse_tree("fds-tree 1\ndepth 1\n0: 0\n1: 5\n")  # out of range
    with pytest.raises(FormatError):
        parse_tree("fds-tree 1\ndepth 1\n3: 0\n")  # level beyond depth


@pytest.mark.parametrize(
    "tree", [geometric_sequence_tree(20), full_binary_tree(6), left_path_tree(9)]
)
def test_tree_v1_loads_equal_to_v2_round_trip(tree, tmp_path):
    path = tmp_path / "v1.fds"
    path.write_text(v1_text(levels(tree)))
    old = load(str(path))
    assert old == tree
    assert parse_tree(write_tree(old)) == old


def test_tree_v2_text():
    assert write_tree(geometric_sequence_tree(3)) == (
        "fds-tree 2\ndepth 3\nleaves 4\n0\n1\n2\n4\n"
    )
    empty = DyadicTree(5, [])
    assert write_tree(empty) == "fds-tree 2\ndepth 5\nleaves 0\n"
    assert parse_tree(write_tree(empty)) == empty


@pytest.mark.parametrize(
    "text",
    [
        "fds-tree 2\ndepth 3\n1\n",  # no leaves line
        "fds-tree 2\ndepth 3\nleaves 3\n1\n2\n",  # count mismatch
        "fds-tree 2\ndepth 3\nleaves 1\n1\n2\n",  # count mismatch
        "fds-tree 2\ndepth 3\nleaves 2\n2\n1\n",  # unsorted
        "fds-tree 2\ndepth 3\nleaves 2\n1\n1\n",  # duplicate
        "fds-tree 2\ndepth 3\nleaves 1\n8\n",  # 8 >= 2**3
        "fds-tree 2\ndepth 3\nleaves 1\nx\n",  # not hex
        "fds-tree 2\ndepth 3\nleaves 1\n0x1\n",  # not bare hex
        "fds-tree 2\ndepth 3\nleaves 1\n-1\n",
    ],
)
def test_tree_v2_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_tree(text)


def test_tree_v1_rejects_dangling():
    with pytest.raises(FormatError, match="dangling node \\(1, 1\\)"):
        parse_tree("fds-tree 1\ndepth 2\n0: 0\n1: 0 1\n2: 0\n")


def test_tree_v1_checks_level_lines_before_allocating():
    # a root without children at depth 10**6: rejected by the line count
    with pytest.raises(FormatError, match="level lines"):
        parse_tree("fds-tree 1\ndepth 1000000\n0: 0\n")


def test_deep_tree_round_trip(tmp_path):
    t = DyadicTree(15000, [1 << 14999])
    path = tmp_path / "deep.fds"
    dump(t, str(path))
    assert load(str(path)) == t
    assert t.node_count() == 15001


def test_schedule_rejects_malformed():
    with pytest.raises(FormatError):
        parse_schedule("fds-schedule 1\ndepth 4\n2 1\n")  # sums to 2, not 4
    with pytest.raises(FormatError):
        parse_schedule("fds-schedule 1\ndepth 2\n2 3\n")  # bad child count
    with pytest.raises(FormatError):
        parse_schedule("fds-schedule 1\ndepth 2\ntwo 1\n")


def test_composite_rejects_malformed():
    with pytest.raises(FormatError):
        parse_composite("fds-composite 1\norigin 2\n")
    with pytest.raises(FormatError):
        parse_composite("fds-composite 1\norigin 1\ncomponent x runs:1x2\n")
    with pytest.raises(FormatError):
        parse_composite(
            "fds-composite 1\norigin 1\ncomponent 3 runs:1x2\ncomponent 2 runs:1x2\n"
        )  # shifts not increasing


def test_load_rejects_unknown_header(tmp_path):
    p = tmp_path / "x.fds"
    p.write_text("not a set file\n")
    with pytest.raises(FormatError, match="unrecognized"):
        load(str(p))


@pytest.mark.parametrize("junk", [
    b"junk\n" + b"0123456789abcdef\n" * (1 << 19),
    b"fds-schedule" + b"\x00" * (8 << 20),  # one 8 MB line
])
def test_other_files_are_rejected_on_a_bounded_read(junk, tmp_path, capsys):
    """An 8 MB file of another kind raises FormatError from its first line,
    before the rest is read, whether loaded itself or named by a composite
    (a component file must be an fds-schedule file, so a tree is rejected
    too): tracemalloc peaks below 1 MB, and `fds estimate` exits 2.  The
    one long header line is quoted by the first 64 characters of its repr."""
    (tmp_path / "junk.bin").write_bytes(junk)
    dump(full_binary_tree(3), str(tmp_path / "tree.fds"))
    quote = "'junk'" if junk.startswith(b"junk\n") else "'fds-schedule" + r"\x00" * 12 + r"\x0..."
    cases = [("junk.bin", f"unrecognized set file header {quote}")]
    for name, got in (("junk.bin", quote), ("tree.fds", "'fds-tree 2'")):
        comp = tmp_path / f"c-{name}"
        comp.write_text(f"fds-composite 1\norigin 1\ncomponent 2 {name}\n")
        cases.append((comp.name, f"component file {str(tmp_path / name)!r} has header {got}"))
    for name, message in cases:
        path = str(tmp_path / name)
        errors = []

        def attempt():
            try:
                load(path)
            except FormatError as exc:
                errors.append(str(exc))

        assert traced_peak(attempt) < 1 << 20
        assert errors == [message]
        assert main(["estimate", "-i", path, "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_rejected_header_quote_is_bounded(tmp_path):
    """8 KB of NULs, loaded or named by a composite, is quoted by the first
    64 characters of its header's repr, marked cut, not by 16 KB of it."""
    (tmp_path / "nul.bin").write_bytes(b"\x00" * (8 << 10))
    (tmp_path / "c.fds").write_text("fds-composite 1\norigin 1\ncomponent 2 nul.bin\n")
    quote = "'" + r"\x00" * 15 + r"\x0..."
    cases = [("nul.bin", "unrecognized set file header"),
             ("c.fds", f"component file {str(tmp_path / 'nul.bin')!r} has header")]
    for name, error in cases:
        with pytest.raises(FormatError) as exc:
            load(str(tmp_path / name))
        assert str(exc.value) == f"{error} {quote}"
        assert len(str(exc.value).replace(str(tmp_path), "")) < 200


def test_writers_are_deterministic():
    """Fixed texts, so a writer that varies across runs or versions fails."""
    assert write_tree(geometric_sequence_tree(8)) == (
        "fds-tree 2\ndepth 8\nleaves 9\n0\n1\n2\n4\n8\n10\n20\n40\n80\n"
    )
    s = BranchingSchedule([(3, 1), (5, 2), (12, 1)])
    assert write_schedule(s) == "fds-schedule 1\ndepth 20\n3 1\n5 2\n12 1\n"
    cs = CompositeSet([(2, s), (25, BranchingSchedule([(100, 2), (7, 1)]))])
    assert write_composite(cs) == (
        "fds-composite 1\norigin 1\n"
        "component 2 runs:3x1,5x2,12x1\ncomponent 25 runs:100x2,7x1\n"
    )


def test_composite_without_runs_is_not_written(tmp_path):
    """An inline run list needs a run: dump raises before the file opens."""
    cs = CompositeSet([(1, BranchingSchedule([])), (3, BranchingSchedule([(4, 2)]))])
    with pytest.raises(ValueError, match="^component at shift 1 has no runs to write$"):
        write_composite(cs)
    path = tmp_path / "c.fds"
    with pytest.raises(ValueError, match="shift 1"):
        dump(cs, str(path))
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="shift 1"):
        dump(cs, str(path))
    assert path.read_text() == "kept\n"


# LF set files and variants that differ only in line breaks and trailing
# header space; the reader treats them alike
SCHEDULE_TEXT = "fds-schedule 1\ndepth 10\n3 1\n5 2\n2 1\n"
COMPOSITE_TEXT = "fds-composite 1\norigin 1\ncomponent 2 runs:4x2\ncomponent 5 runs:3x1,3x2\n"
LINE_BREAK_VARIANTS = [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "\x0c", 1),
    lambda t: t.replace("\n", "  \n", 1),
]
UNRECOGNIZED = [
    lambda t: "\n" + t,  # a leading blank line
    lambda t: " \t\n  \n",  # whitespace only
]


@pytest.mark.parametrize("text", [SCHEDULE_TEXT, COMPOSITE_TEXT])
def test_load_header_line_breaks(text, tmp_path):
    path = tmp_path / "x.fds"
    path.write_bytes(text.encode("ascii"))
    expected = load(str(path))
    for variant in LINE_BREAK_VARIANTS:
        path.write_bytes(variant(text).encode("ascii"))
        assert load(str(path)) == expected
    for variant in UNRECOGNIZED:
        path.write_bytes(variant(text).encode("ascii"))
        with pytest.raises(FormatError) as exc:
            load(str(path))
        assert str(exc.value) == "unrecognized set file header ''"


def test_tree_v1_reports_first_missing_parent_before_dangling():
    # (1, 1) dangles and (3, 6) misses its parent (2, 3): missing parents
    # are reported first, top down
    text = "fds-tree 1\ndepth 3\n0: 0\n1: 0 1\n2: 0\n3: 0 6\n"
    with pytest.raises(FormatError) as exc:
        parse_tree(text)
    assert str(exc.value) == "prefix closure violated: (3, 6) present, (2, 3) absent"


@pytest.mark.parametrize("token, part", [
    ("runs:1_0x1", "1_0x1"),
    ("runs:+3x2", "+3x2"),
    ("runs: 1x2", " 1x2"),
    ("runs:3x2,", ""),
    ("runs:1x2,,1x1", ""),
    ("runs:1x2,3x-1", "3x-1"),
    ("runs:", ""),
    ("runs:1x2,٣x1", "٣x1"),  # a non-ASCII digit
])
def test_runs_token_accepts_ascii_digits_only(token, part):
    text = f"fds-composite 1\norigin 1\ncomponent 2 {token}\n"
    with pytest.raises(FormatError) as exc:
        parse_composite(text)
    assert str(exc.value) == f"bad run token {part!r}"


@pytest.mark.parametrize("lines, bad", [
    ("1_0 1", "1_0 1"),
    ("2 1\n+3 2", "+3 2"),
    ("2 1\n 1 2", " 1 2"),
    ("2 1\n1  2", "1  2"),
    ("2 1\n1\t2", "1\t2"),
    ("2 1\n1 2 3", "1 2 3"),
    ("2 1\n1x2", "1x2"),
])
def test_schedule_run_lines_accept_ascii_digits_only(lines, bad):
    with pytest.raises(FormatError) as exc:
        parse_schedule(f"fds-schedule 1\ndepth 3\n{lines}\n")
    assert str(exc.value) == f"bad run line {bad!r}"


def test_run_errors_report_first_offending_run():
    with pytest.raises(FormatError, match="^run length must be positive, got 0$"):
        parse_composite("fds-composite 1\norigin 1\ncomponent 2 runs:3x1,0x2,2x5\n")
    with pytest.raises(FormatError, match="^child count must be 1 or 2, got 5$"):
        parse_schedule("fds-schedule 1\ndepth 5\n3 1\n2 5\n0 2\n")
    with pytest.raises(FormatError, match="^child count must be 1 or 2, got 0$"):
        parse_schedule("fds-schedule 1\ndepth 5\n3 0\n")


@pytest.mark.parametrize("text, match", [
    ("fds-composite 1\norigin 1\ncomponent 2 runs:99999999999999999999999x2\n",
     "number 99999999999999999999999 exceeds the int64 range"),
    ("fds-composite 1\norigin 1\ncomponent 2 runs:9223372036854775808x2\n",
     "number 9223372036854775808 exceeds the int64 range"),
    ("fds-schedule 1\ndepth 9\n4611686018427387904 2\n4611686018427387904 1\n",
     "run lengths sum past the int64 range"),
    ("fds-schedule 1\ndepth 9\n3 18446744073709551618\n",
     "number 18446744073709551618 exceeds the int64 range"),
])
def test_run_numbers_past_int64_rejected(text, match):
    parse = parse_schedule if text.startswith("fds-schedule") else parse_composite
    with pytest.raises(FormatError, match=match):
        parse(text)


@pytest.mark.parametrize("text", [
    "fds-composite 1\norigin 1\ncomponent 1_0 runs:1x2\n",
    "fds-composite 1\norigin 1\ncomponent +2 runs:1x2\n",
    "fds-schedule 1\ndepth +1_0\n10 1\n",
    "fds-schedule 1\ndepth ３\n3 1\n",  # a full-width digit
    "fds-tree 2\ndepth +3\nleaves 1\n0\n",
    "fds-tree 2\ndepth ３\nleaves 1\n0\n",
    "fds-tree 2\ndepth 3\nleaves +1\n0\n",
    "fds-tree 1\ndepth 1_0\n",
    "fds-tree 1\ndepth 1\n+0: 0\n1: 0\n",
    "fds-tree 1\ndepth 1\n0: 0\n1: -0\n",
    "fds-tree 1\ndepth 1\n0: 0\n1: ٠\n",  # a non-ASCII digit
])
def test_header_numbers_accept_ascii_digits_only(text):
    parse = {"fds-tree": parse_tree, "fds-schedule": parse_schedule}.get(
        text.split()[0], parse_composite
    )
    with pytest.raises(FormatError, match="^bad "):
        parse(text)


def test_largest_int64_run_length_parses():
    s = parse_schedule("fds-schedule 1\ndepth 9223372036854775807\n9223372036854775807 1\n")
    assert s.depth == 2**63 - 1 and s.runs == ((2**63 - 1, 1),)
    assert parse_composite("fds-composite 1\norigin 0\ncomponent 1 runs:0007x2,1x1\n") == (
        CompositeSet([(1, BranchingSchedule([(7, 2), (1, 1)]))], include_origin=False)
    )


@pytest.mark.parametrize("parse, text, message", [
    (parse_tree, "fds-schedule 1\ndepth 4\n4 1\n", "not an fds-tree file"),
    (parse_tree, "fds-tree 1\ndepth 1\n0: 0\n5: 0\n", "level 5 outside depth 1"),
    (parse_tree, "fds-tree 1\ndepth 1\n0: 0\n0: 0\n", "duplicate level line for level 0"),
    (parse_schedule, "fds-tree 2\ndepth 1\nleaves 0\n", "not an fds-schedule file"),
    (parse_composite, "fds-schedule 1\ndepth 0\n", "not an fds-composite file"),
    (parse_composite, "fds-composite 1\n", "missing origin line"),
    (parse_composite, "fds-composite 1\nshift 1\n", "missing origin line"),
    (parse_composite, "fds-composite 1\norigin 1 junk\n", "missing origin line"),
    (parse_composite, "fds-composite 1\norigin\n", "missing origin line"),
    (parse_composite, "fds-composite 1\norigin x\n", "origin flag must be 0 or 1, got 'x'"),
    (parse_composite, "fds-composite 1\norigin 1\ncomponent 2\n",
     "bad component line 'component 2'"),
])
def test_parsers_name_the_malformed_part(parse, text, message):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_v1_tree_without_level_lines_is_empty():
    tree = parse_tree("fds-tree 1\ndepth 3\n")
    assert tree == DyadicTree(3, []) and tree.is_empty()
    assert tree.level_sizes([0, 3]).tolist() == [0, 0] and tree.node_count() == 0


def test_dump_rejects_other_objects(tmp_path):
    path = tmp_path / "x.fds"
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        dump(object(), str(path))
    assert not path.exists()


def test_written_schedules_load_without_the_line_split(tmp_path, monkeypatch):
    """A file `write_schedule` wrote, on its own or named by a composite,
    loads without `_lines`; a lenient one still takes it."""
    import fds.formats as formats

    s = BranchingSchedule([(3, 1), (5, 2), (2, 1), (7, 2)])
    calls = []
    lines = formats._lines
    monkeypatch.setattr(formats, "_lines", lambda text: calls.append(text) or lines(text))
    dump(s, str(tmp_path / "s.fds"))
    (tmp_path / "c.fds").write_text("fds-composite 1\norigin 1\ncomponent 2 s.fds\n")
    assert load(str(tmp_path / "s.fds")) == s
    assert load(str(tmp_path / "c.fds")) == CompositeSet([(2, s)])
    assert calls == []
    lenient = write_schedule(s).replace("\n", "\r\n")
    assert parse_schedule(lenient) == s and calls == [lenient]
