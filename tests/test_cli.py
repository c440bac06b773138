"""CLI subcommands, exit codes, config merging, and output determinism."""

import os
from math import log2

import pytest

from fds.cli import MAX_GRID_POINTS, main, parse_m_range, parse_theta_grid
from fds import formats
from fds.dyadic import DyadicTree
from fds.errors import BudgetError, FormatError
from fds.schedule import MAX_SCHEDULE_DEPTH, BranchingSchedule, CompositeSet, origin_log_counts
from fds.svg import render_plot

from test_formats import COMPOSITE_TEXT, LINE_BREAK_VARIANTS, SCHEDULE_TEXT, UNRECOGNIZED


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_theta_grid():
    from fractions import Fraction

    grid = parse_theta_grid("0.1:0.9:0.1")
    assert grid == [Fraction(k, 10) for k in range(1, 10)]
    assert parse_theta_grid("0.05:0.95:0.05") == [
        Fraction(k, 20) for k in range(1, 20)
    ]
    with pytest.raises(ValueError):
        parse_theta_grid("0:0.9:0.1")
    with pytest.raises(ValueError):
        parse_theta_grid("0.1:0.9:0")
    with pytest.raises(ValueError):
        parse_theta_grid("0.1:0.9")
    assert len(parse_theta_grid("1/20000:1/2:1/20000")) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="10001 points"):
        parse_theta_grid("1/20000:10001/20000:1/20000")
    # a start past the stop is named as such, not as a range outside (0, 1)
    with pytest.raises(ValueError, match="^theta grid start 0.9 exceeds its stop 0.1$"):
        parse_theta_grid("0.9:0.1:0.1")
    assert parse_m_range("16:64") == (16, 64)
    for spec in (" 1_0:+3_2", "16:-64", "1:\u0664"):
        with pytest.raises(ValueError, match="--m-range needs ASCII digits"):
            parse_m_range(spec)


def test_huge_theta_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "full.fds"
    assert run(["construct", "full", "--depth", "8", "-o", str(path)], capsys)[0] == 0
    code, out, err = run(["estimate", "--mode", "upper", "-i", str(path),
                          "--theta-grid", "0.1:0.9:1/1000000000000",
                          "-o", str(tmp_path / "upper.csv")], capsys)
    assert code == 2 and out == "" and not (tmp_path / "upper.csv").exists()
    assert "800000000001 points, more than 10000" in err


TWO_PHASE = ["construct", "two-phase", "--s", "0.4", "--t", "0.8"]
UNION = ["construct", "concave-union", "--target", "0.4,0.4,-0.2", "--m0", "4",
         "--blocks", "2"]


@pytest.mark.parametrize("flag, lenient, bad, digits, argv", [
    ("--m-range", " 1_0:+3_2", " 1_0", "10:32",
     ["estimate", "--mode", "upper", "-i", "{set}", "--theta-grid", "0.5:0.9:0.1"]),
    ("--m0", "+4", "+4", "4", [*TWO_PHASE, "--blocks", "2"]),
    ("--blocks", " 2", " 2", "2", [*TWO_PHASE, "--m0", "4"]),
    ("--depth", "1_0", "1_0", "10", ["construct", "full"]),
    ("--components", "\u0662", "\u0662", "2", UNION),
    ("--shift-linear", "+3", "+3", "3", [*UNION, "--components", "2"]),
    ("--shifts", "2, 4", " 4", "2,4", [*UNION, "--components", "2"]),
    ("--n-values", "2,-3", "-3", "2,3", ["verify", "--check", "nthroot", "-i", "{set}",
                                         "--theta-grid", "0.5:0.9:0.1", "--m-range", "10:32"]),
])
def test_integer_flags_take_ascii_digits_only(tmp_path, capsys, flag, lenient, bad, digits, argv):
    """Values Python's int() reads (a sign, spaces, underscores, non-ASCII
    digits) exit 2 naming the flag and the token; the digits-only form of
    the same command succeeds."""
    tree = tmp_path / "geo.fds"
    assert run(["construct", "geometric", "--depth", "64", "-o", str(tree)], capsys)[0] == 0
    argv = [tok.replace("{set}", str(tree)) for tok in argv]
    out = tmp_path / "out"
    to = [] if argv[0] == "verify" else ["-o", str(out)]
    code, text, err = run([*argv, flag, lenient, *to], capsys)
    assert code == 2 and text == "" and not out.exists()
    assert f"error: {flag} needs ASCII digits, got {bad!r}" in err
    assert run([*argv, flag, digits, *to], capsys)[0] == 0


def test_n_values_above_max_root_order_exit_2(tmp_path, capsys):
    """An order beyond windows.MAX_ROOT_ORDER exits 2 naming the value,
    before any check runs, as the library's RootScale rejects it; the
    largest allowed order runs."""
    tree = tmp_path / "geo.fds"
    assert run(["construct", "geometric", "--depth", "32", "-o", str(tree)], capsys)[0] == 0
    argv = ["verify", "--check", "main-theorem,nthroot", "-i", str(tree)]
    code, out, err = run([*argv, "--n-values", "2,99999"], capsys)
    assert code == 2 and out == ""
    assert "error: root order must lie in [1, 16], got 99999" in err
    code, out, _ = run([*argv, "--n-values", "2,16"], capsys)
    assert code == 0 and "CHECK nthroot PASS" in out


def test_integer_config_keys_take_ascii_digits_only(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("s = 0.4\nt = 0.8\nm0 = +4\n")
    code, _, err = run([*TWO_PHASE, "--config", str(cfg), "-o", str(tmp_path / "x.fds")], capsys)
    assert code == 2 and "--m0 needs ASCII digits, got '+4'" in err


def test_construct_two_phase_depth(tmp_path, capsys):
    out = tmp_path / "set.fds"
    code, text, _ = run(
        ["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--m0", "4",
         "--blocks", "3", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert "depth=65536" in text
    sched = formats.load(str(out))
    assert isinstance(sched, BranchingSchedule)
    assert sched.depth == 65536


def test_construct_full_and_estimate(tmp_path, capsys):
    out = tmp_path / "full.fds"
    code, text, _ = run(["construct", "full", "--depth", "10", "-o", str(out)], capsys)
    assert code == 0 and "nodes=2047" in text
    tree = formats.load(str(out))
    assert len(tree.level(10)) == 1024
    csv = tmp_path / "full.csv"
    code, text, _ = run(
        ["estimate", "--mode", "spectrum", "-i", str(out), "--theta-grid",
         "0.1:0.9:0.1", "--m-range", "1:10", "-o", str(csv)],
        capsys,
    )
    assert code == 0
    rows = csv.read_text().strip().split("\n")
    assert len(rows) == 10
    assert all(row.split(",")[1] == "1.0" for row in rows[1:])


def test_estimate_upper_path_zero(tmp_path, capsys):
    out = tmp_path / "p.fds"
    run(["construct", "path", "--depth", "64", "-o", str(out)], capsys)
    csv = tmp_path / "p.csv"
    code, _, _ = run(
        ["estimate", "--mode", "upper", "-i", str(out), "--theta-grid",
         "0.1:0.9:0.1", "--m-range", "6:64", "-o", str(csv)],
        capsys,
    )
    assert code == 0
    assert all(r.split(",")[1] == "0.0" for r in csv.read_text().strip().split("\n")[1:])


def test_construct_concave_union(tmp_path, capsys):
    out = tmp_path / "cu.fds"
    code, text, _ = run(
        ["construct", "concave-union", "--target", "0.4,0.4,-0.2",
         "--components", "8", "--m0", "4", "--blocks", "2", "-o", str(out)],
        capsys,
    )
    assert code == 0 and "components=8" in text
    cs = formats.load(str(out))
    assert len(cs.components) == 8


def test_construct_from_schedule(tmp_path, capsys):
    sched = tmp_path / "s.fds"
    run(["construct", "two-phase", "--s", "0.5", "--t", "1", "--m0", "4",
         "--blocks", "1", "-o", str(sched)], capsys)
    tree = tmp_path / "t.fds"
    code, text, _ = run(
        ["construct", "from-schedule", "-i", str(sched), "-o", str(tree)], capsys
    )
    assert code == 0 and "fds-tree" in text


def test_verify_command_exit_codes(tmp_path, capsys):
    out = tmp_path / "full.fds"
    run(["construct", "full", "--depth", "12", "-o", str(out)], capsys)
    code, text, _ = run(
        ["verify", "-i", str(out), "--check", "main-theorem", "--theta-grid",
         "0.1:0.9:0.1", "--m-range", "1:12"],
        capsys,
    )
    assert code == 0
    assert "CHECK main-theorem PASS worst=0.0" in text
    code, text, _ = run(
        ["verify", "-i", str(out), "--check", "bound", "--tol", "0",
         "--theta-grid", "0.1:0.9:0.1", "--m-range", "1:12"],
        capsys,
    )
    assert code == 0
    # forced failure -> exit 1
    code, text, _ = run(
        ["verify", "-i", str(out), "--check", "bound", "--tol", "-2",
         "--theta-grid", "0.1:0.9:0.1", "--m-range", "1:12"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in text
    # unknown check -> exit 2
    code, _, err = run(["verify", "-i", str(out), "--check", "nope"], capsys)
    assert code == 2 and "unknown checks" in err


def test_usage_and_io_exit_codes(tmp_path, capsys):
    code, _, err = run(
        ["construct", "two-phase", "--t", "0.8", "-o", str(tmp_path / "x.fds")],
        capsys,
    )
    assert code == 2 and "needs --s and --t" in err
    code, _, err = run(
        ["estimate", "-i", str(tmp_path / "missing.fds"), "-o", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == 3
    code, _, err = run(
        ["construct", "two-phase", "--s", "0.9", "--t", "0.8", "-o",
         str(tmp_path / "x.fds")],
        capsys,
    )
    assert code == 2


def test_plot_command(tmp_path, capsys):
    sched = tmp_path / "s.fds"
    run(["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--m0", "4",
         "--blocks", "2", "-o", str(sched)], capsys)
    csv = tmp_path / "s.csv"
    run(["estimate", "-i", str(sched), "--theta-grid", "0.1:0.9:0.1",
         "--m-range", "16:256", "-o", str(csv)], capsys)
    svg = tmp_path / "s.svg"
    code, text, _ = run(
        ["plot", str(csv), "--overlay-u", "0.4,0.8", "-o", str(svg)], capsys
    )
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<polyline") == 2
    # malformed CSV -> exit 2
    bad = tmp_path / "bad.csv"
    bad.write_text("theta,value,m_witness,mprime_witness\n")
    code, _, err = run(["plot", str(bad), "-o", str(svg)], capsys)
    assert code == 2 and "empty CSV body" in err
    bad.write_text("nope\n")
    code, _, _ = run(["plot", str(bad), "-o", str(svg)], capsys)
    assert code == 2


def test_plot_overlay_arguments_exit_2(tmp_path, capsys):
    """Malformed overlay values are usage errors (exit 2), not crashes."""
    csv = tmp_path / "c.csv"
    csv.write_text("theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n")
    svg = tmp_path / "c.svg"
    for flag, value, message in (
        ("--overlay-u", "1/0,1", "error: bad rational '1/0'"),
        ("--overlay-poly", "1,1/0", "error: bad rational '1/0'"),
        ("--overlay-u", "0.4,0.8,0.9", "--overlay-u needs exactly two values S,T"),
    ):
        code, _, err = run(["plot", str(csv), flag, value, "-o", str(svg)], capsys)
        assert code == 2 and message in err, (flag, value, err)
        assert "Traceback" not in err
    assert not svg.exists()


def test_plot_constant_polyline_level(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    csv.write_text(
        "theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n0.8,1.0,1,2\n"
    )
    svg = tmp_path / "c.svg"
    code, _, _ = run(["plot", str(csv), "-o", str(svg)], capsys)
    assert code == 0
    # constant 1.0 renders at the top axis height (y = 30.000 with 5% margins)
    assert 'points="184.000,30.000 616.000,30.000"' in svg.read_text()


def test_plot_label_is_escaped(tmp_path, capsys):
    """A CSV file name with XML markup characters is the series label: the
    SVG parses as XML and its text keeps the name."""
    from xml.dom import minidom

    csv = tmp_path / "a&b<c>.csv"
    csv.write_text("theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n")
    svg = tmp_path / "x.svg"
    assert run(["plot", str(csv), "-o", str(svg)], capsys)[0] == 0
    texts = minidom.parse(str(svg)).getElementsByTagName("text")
    assert texts[-1].firstChild.data == "a&b<c>.csv"


def test_plot_label_keeps_non_ascii_characters(tmp_path, capsys):
    """A CSV file name outside ASCII is the series label too: it goes out
    as XML character references, exit 0, and the parsed text keeps it."""
    from xml.dom import minidom

    csv = tmp_path / "\u00e9.csv"
    csv.write_text("theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n")
    svg = tmp_path / "x.svg"
    assert run(["plot", str(csv), "-o", str(svg)], capsys)[0] == 0
    assert ">&#233;.csv</text>" in svg.read_text(encoding="ascii")
    texts = minidom.parse(str(svg)).getElementsByTagName("text")
    assert texts[-1].firstChild.data == "\u00e9.csv"


def test_plot_label_replaces_what_xml_cannot_carry(tmp_path, capsys):
    """A control character or an undecodable byte (a lone surrogate in
    Python) in a CSV file name becomes U+FFFD in the label, so the SVG
    still parses as XML."""
    from xml.dom import minidom

    for name, want in (("a\x01b.csv", "a\ufffdb.csv"),
                       (os.fsdecode(b"n\xe9.csv"), "n\ufffd.csv")):
        csv = tmp_path / name
        csv.write_text("theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n")
        svg = tmp_path / "x.svg"
        assert run(["plot", str(csv), "-o", str(svg)], capsys)[0] == 0
        texts = minidom.parse(str(svg)).getElementsByTagName("text")
        assert texts[-1].firstChild.data == want


def test_neighbor_modes_write_one_log2_per_count(tmp_path, capsys):
    """The level-1 node of a 1621-leaf depth-12 tree holds 1621 leaves and
    has no present neighbor, so both modes read log2(1621) / 11 through
    math.log2 and write the same bytes; numpy's AVX-512 log2 rounds 1621
    one ulp off."""
    tree = tmp_path / "t.fds"
    formats.dump(DyadicTree(12, range(1621)), str(tree))
    rows = []
    for mode in ("off", "on"):
        csv = tmp_path / f"{mode}.csv"
        code, _, _ = run(["estimate", "--mode", "spectrum", "-i", str(tree), "--theta-grid",
                          "1/12:1/12:1/12", "--m-range", "1:1", "--neighbors", mode,
                          "-o", str(csv)], capsys)
        assert code == 0
        rows.append(csv.read_bytes())
    assert rows[0] == rows[1]
    assert rows[0].splitlines()[1] == f"0.08333333333333333,{log2(1621) / 11!r},1,12".encode()


@pytest.mark.parametrize("row", ["nan,0.5,1,5", "inf,0.5,1,5", "0.2,nan,1,5", "0.2,-inf,1,5"])
def test_plot_rejects_non_finite_cells(tmp_path, capsys, row):
    """A theta or value that is not finite is a bad row, exit 2, no SVG."""
    csv = tmp_path / "c.csv"
    csv.write_text(f"theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n{row}\n")
    svg = tmp_path / "c.svg"
    code, out, err = run(["plot", str(csv), "-o", str(svg)], capsys)
    assert (code, out, err) == (2, "", f"error: {csv}: bad row {row!r}\n")
    assert not svg.exists()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# two-phase defaults\ns = 0.4\n\nt = 0.8\nm0 = 4\nblocks = 2  # small\n")
    out = tmp_path / "set.fds"
    code, text, _ = run(
        ["construct", "two-phase", "--config", str(cfg), "-o", str(out)], capsys
    )
    assert code == 0 and "depth=256" in text
    # CLI flags override config values
    code, text, _ = run(
        ["construct", "two-phase", "--config", str(cfg), "--blocks", "1",
         "-o", str(out)],
        capsys,
    )
    assert code == 0 and "depth=16" in text
    cfg.write_text("bogus = 1\n")
    code, _, err = run(
        ["construct", "two-phase", "--config", str(cfg), "-o", str(out)], capsys
    )
    assert code == 2 and "unknown config keys" in err


def test_config_samples_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 0.4;1/2:0.55,1/4:0.4875\nm0 = 8\nblocks = 2\n")
    out = tmp_path / "cu.fds"
    code, text, _ = run(
        ["construct", "concave-union", "--config", str(cfg), "--shifts", "2,4",
         "-o", str(out)],
        capsys,
    )
    assert code == 0 and "components=2" in text
    cs = formats.load(str(out))
    assert [e for e, _ in cs.components] == [2, 4]


def test_workers_flag_rejected(tmp_path, capsys):
    sched = tmp_path / "s.fds"
    run(["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--m0", "4",
         "--blocks", "2", "-o", str(sched)], capsys)
    code, _, _ = run(
        ["estimate", "-i", str(sched), "--theta-grid", "0.1:0.9:0.1",
         "--m-range", "16:256", "--workers", "3", "-o", str(tmp_path / "w.csv")],
        capsys,
    )
    assert code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 3\n")
    code, _, err = run(
        ["estimate", "-i", str(sched), "--config", str(cfg), "-o", str(tmp_path / "w.csv")],
        capsys,
    )
    assert code == 2 and "unknown config keys" in err


def _schedule_and_union(tmp_path, capsys):
    sched = tmp_path / "s.fds"
    union = tmp_path / "cu.fds"
    assert run(["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--m0", "4",
                "--blocks", "2", "-o", str(sched)], capsys)[0] == 0
    assert run(["construct", "concave-union", "--target", "0.4,0.4,-0.2", "--components",
                "2", "--m0", "4", "--blocks", "2", "-o", str(union)], capsys)[0] == 0
    return sched, union


@pytest.mark.parametrize("command", [
    ["estimate", "--mode", "spectrum"],
    ["estimate", "--mode", "upper"],
    ["estimate", "--mode", "qa"],
    ["verify", "--check", "main-theorem"],
])
def test_neighbors_flag_rejected_off_trees(tmp_path, capsys, command):
    for path in _schedule_and_union(tmp_path, capsys):
        argv = [*command, "-i", str(path), "--theta-grid", "0.5:0.7:0.1",
                "--m-range", "64:72"]
        if command[0] != "verify":
            argv += ["-o", str(tmp_path / "nb.csv")]
        assert run(argv + ["--neighbors", "off"], capsys)[0] == 0
        code, _, err = run(argv + ["--neighbors", "on"], capsys)
        assert code == 2 and "neighbor mode" in err


def test_neighbors_config_key_rejected_off_trees(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("neighbors = on\ntheta-grid = 0.5:0.7:0.1\nm-range = 64:256\n")
    for path in _schedule_and_union(tmp_path, capsys):
        code, _, err = run(
            ["estimate", "-i", str(path), "--config", str(cfg), "-o", str(tmp_path / "nb.csv")],
            capsys,
        )
        assert code == 2 and "neighbor mode" in err
    tree = tmp_path / "full.fds"
    run(["construct", "full", "--depth", "10", "-o", str(tree)], capsys)
    code, _, _ = run(
        ["estimate", "-i", str(tree), "--config", str(cfg), "--m-range", "2:6",
         "-o", str(tmp_path / "nb.csv")],
        capsys,
    )
    assert code == 0


def test_estimate_qa_mode(tmp_path, capsys):
    out = tmp_path / "full.fds"
    run(["construct", "full", "--depth", "12", "-o", str(out)], capsys)
    csv = tmp_path / "qa.csv"
    code, text, _ = run(
        ["estimate", "--mode", "qa", "-i", str(out), "--epsilons", "0.1,0.05,0.02",
         "--m-range", "1:12", "-o", str(csv)],
        capsys,
    )
    assert code == 0 and "headline=1.0" in text
    rows = csv.read_text().strip().split("\n")
    assert len(rows) == 4


def test_repeated_epsilons_and_n_values_count_once(tmp_path, capsys):
    """`--epsilons 0.1,0.1` writes one CSV row and one trend entry, the
    output of `--epsilons 0.1`; `--n-values 2,2` checks n = 2 once."""
    tree = tmp_path / "full.fds"
    run(["construct", "full", "--depth", "12", "-o", str(tree)], capsys)
    outputs = []
    for eps in ("0.1,0.1", "0.1"):
        csv = tmp_path / "qa.csv"
        code, text, _ = run(["estimate", "--mode", "qa", "-i", str(tree), "--epsilons", eps,
                             "--m-range", "1:12", "-o", str(csv)], capsys)
        assert code == 0 and text.count("eps=0.1->") == 1
        outputs.append((text, csv.read_text()))
    assert outputs[0] == outputs[1] and len(outputs[0][1].splitlines()) == 2
    reports = [run(["verify", "--check", "nthroot", "-i", str(tree), "--n-values", n], capsys)
               for n in ("2,2", "2")]
    assert reports[0] == reports[1] and reports[0][0] == 0


def _library_csv(path, mode, grid="0.1:0.9:0.1"):
    """The library's CSV for one estimate mode, with its default range."""
    from fds import spectra

    rep = formats.load(str(path))
    thetas = parse_theta_grid(grid)
    est = {
        "spectrum": lambda: spectra.estimate_spectrum(rep, thetas),
        "upper": lambda: spectra.estimate_upper(rep, thetas),
        "box": lambda: spectra.estimate_box(rep),
        "qa": lambda: spectra.estimate_quasi_assouad(rep, ["0.1", "0.05", "0.02"]),
    }[mode]()
    return spectra.estimate_to_csv(est)


@pytest.mark.parametrize("mode", ["spectrum", "upper", "box", "qa"])
def test_default_range_matches_library(tmp_path, capsys, mode):
    """Without --m-range the CLI leaves the range to the library: box on a
    depth-64 path scans m >= 64 // 4 even though the grid reaches 0.1."""
    path = tmp_path / "p.fds"
    run(["construct", "path", "--depth", "64", "-o", str(path)], capsys)
    csv = tmp_path / "p.csv"
    code, text, _ = run(["estimate", "--mode", mode, "-i", str(path), "--theta-grid",
                         "0.1:0.9:0.1", "-o", str(csv)], capsys)
    assert code == 0
    assert csv.read_text() == _library_csv(path, mode)
    if mode == "box":
        assert "witness m=16" in text


def test_default_range_union_fine_grid(tmp_path, capsys):
    """The library default fits the smallest theta, as the CLI's does: the
    19-point grid on the 8-component union needs m_lo <= depth / 20."""
    path = tmp_path / "cu.fds"
    run(["construct", "concave-union", "--target", "0.4,0.4,-0.2", "--components", "8",
         "-o", str(path)], capsys)
    csv = tmp_path / "cu.csv"
    code, _, _ = run(["estimate", "--mode", "upper", "-i", str(path), "--theta-grid",
                      "0.05:0.95:0.05", "-o", str(csv)], capsys)
    assert code == 0
    assert csv.read_text() == _library_csv(path, "upper", "0.05:0.95:0.05")


def test_box_rejects_neighbors_on(tmp_path, capsys):
    tree = tmp_path / "full.fds"
    run(["construct", "full", "--depth", "10", "-o", str(tree)], capsys)
    argv = ["estimate", "--mode", "box", "-i", str(tree), "-o", str(tmp_path / "b.csv")]
    assert run(argv + ["--neighbors", "off"], capsys)[0] == 0
    code, _, err = run(argv + ["--neighbors", "on"], capsys)
    assert code == 2 and "box mode has no neighbor variant" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("neighbors = on\n")
    code, _, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 2 and "box mode has no neighbor variant" in err


def test_empty_tree_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.fds"
    path.write_text("fds-tree 2\ndepth 8\nleaves 0\n")
    for mode in ("spectrum", "upper", "box", "qa", None):
        command = ["estimate", "--mode", mode] if mode else ["verify"]
        argv = [*command, "-i", str(path)]
        if mode:
            argv += ["-o", str(tmp_path / "e.csv")]
        for extra in ([], ["--neighbors", "on"]):
            code, out, err = run(argv + extra, capsys)
            want = "box mode has no neighbor variant" if mode == "box" and extra else "empty tree"
            assert code == 2 and out == "" and want in err, (mode, extra)


# run numbers or run-length sums past int64: rejected while parsing
INT64_OVERFLOW = [
    "fds-composite 1\norigin 1\ncomponent 1 runs:99999999999999999999999x2\n",
    "fds-composite 1\norigin 1\ncomponent 1 runs:4611686018427387904x2,4611686018427387904x1\n",
    "fds-schedule 1\ndepth 18446744073709551616\n" + "999999999999999999 2\n999999999999999999 1\n" * 5,
]


@pytest.mark.parametrize("text", [
    "fds-schedule 1\ndepth 1099511627776\n1099511627776 2\n",
    "fds-tree 2\ndepth 1099511627776\nleaves 1\n0\n",
    "fds-composite 1\norigin 1\ncomponent 1099511627776 runs:4x2\n",
    *INT64_OVERFLOW,
])
def test_depth_budget_before_allocation(tmp_path, capsys, text):
    """A short file declaring depth 2**40 fails on the depth budget before
    any depth-length array is allocated, in the library and the CLI.  A run
    number or run-length sum past int64 fails while parsing, never wrapping
    into a small depth."""
    from fds import spectra
    from fds.errors import BudgetError

    path = tmp_path / "deep.fds"
    path.write_text(text)
    if text in INT64_OVERFLOW:
        with pytest.raises(FormatError, match="int64 range"):
            formats.load(str(path))
        for command in (["estimate", "--mode", "upper"], ["estimate", "--mode", "box"], ["verify"]):
            to = ["-o", str(tmp_path / "d.csv")] if command[0] != "verify" else []
            code, out, err = run([*command, "-i", str(path), "--theta-grid", "0.5:0.5:0.1",
                                  *to], capsys)
            assert code == 2 and out == "" and err.startswith("error: ")
            assert "int64 range" in err and "Traceback" not in err
        return
    rep = formats.load(str(path))
    grid = ["0.5"]
    for call in (
        lambda: spectra.estimate_spectrum(rep, grid),
        lambda: spectra.estimate_upper(rep, grid),
        lambda: spectra.estimate_box(rep),
        lambda: spectra.estimate_quasi_assouad(rep, ["0.1"]),
        lambda: spectra.verify_main_theorem(rep, grid),
        lambda: spectra.verify_bound(rep, grid),
        lambda: spectra.verify_chain(rep, grid),
        lambda: spectra.verify_nthroot(rep, grid),
    ):
        with pytest.raises(BudgetError, match="depth budget"):
            call()
    for command in (["estimate", "--mode", "upper"], ["estimate", "--mode", "box"], ["verify"]):
        to = ["-o", str(tmp_path / "d.csv")] if command[0] != "verify" else []
        code, _, err = run([*command, "-i", str(path), "--theta-grid", "0.5:0.5:0.1",
                            *to], capsys)
        assert code == 2 and "depth budget" in err


def test_count_arrays_check_the_depth_budget_before_allocation():
    """Every count array of a set deeper than the depth budget raises
    BudgetError naming the budget before it is allocated (depth 2**40
    would take 8 TiB): a schedule's prefix and prefix array, the extended
    prefix of a deep component and of a shallow one in a deep union, and
    the origin row of a union whose one shallow component lies at shift
    2**40.  That component's own counts stay within the budget."""
    deep = BranchingSchedule([(1 << 40, 2)])
    shallow = BranchingSchedule([(4, 2)])
    union = CompositeSet([(1, shallow), (2, deep)])
    far = CompositeSet([(1 << 40, shallow)])
    for call in (
        lambda: deep.prefix(5),
        deep.prefix_array,
        lambda: union.extended_prefix(0),
        lambda: union.extended_prefix(1),
        lambda: origin_log_counts(far, 0),
    ):
        with pytest.raises(BudgetError, match=f"exceeds the depth budget {MAX_SCHEDULE_DEPTH}"):
            call()
    assert far.extended_prefix(0).tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("token", ["1_0x1", "+3x2", " 1x2", "3x2,", "1x2,,1x1"])
def test_run_grammar_rejected_in_cli(tmp_path, capsys, token):
    """Run tokens take ASCII digits only: Python's lenient int() forms
    exit 2 on every command that loads the set."""
    path = tmp_path / "cu.fds"
    path.write_text(f"fds-composite 1\norigin 1\ncomponent 2 runs:{token}\n")
    for command in (["estimate", "--mode", "upper"], ["verify"]):
        to = ["-o", str(tmp_path / "e.csv")] if command[0] != "verify" else []
        code, out, err = run([*command, "-i", str(path), *to], capsys)
        assert code == 2 and out == "" and "bad run token" in err


def test_header_numbers_rejected_in_cli(tmp_path, capsys):
    path = tmp_path / "set.fds"
    path.write_text("fds-composite 1\norigin 1\ncomponent 1_0 runs:1x2\n")
    code, out, err = run(["verify", "-i", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: bad ")


def test_verify_rejects_nan_tolerance(tmp_path, capsys):
    path = tmp_path / "geo.fds"
    run(["construct", "geometric", "--depth", "64", "-o", str(path)], capsys)
    for check in ("bound", "chain", "nthroot", "main-theorem,bound"):
        code, out, err = run(["verify", "-i", str(path), "--check", check, "--tol", "nan"], capsys)
        assert code == 2 and out == "" and "NaN" in err, check


NEIGHBOR_CSV = {
    "spectrum": """theta,value,m_witness,mprime_witness
0.1,0.10801648174379151,6,60
0.2,0.1981203125901445,6,30
0.3,0.29196163151788135,6,20
0.4,0.39832916674679514,6,15
0.5,0.5283208335737187,6,12
0.6,0.701838730514401,6,10
0.7,0.861654166907052,6,9
0.8,1.160964047443681,6,8
0.9,2.0,6,7
""",
    "qa": """theta,value,m_witness,mprime_witness
0.9,1.160964047443681,16,18
0.95,2.0,16,17
0.98,2.0,16,17
""",
}
NEIGHBOR_CSV["upper"] = NEIGHBOR_CSV["spectrum"]
RUN_CSV = {
    "upper": """theta,value,m_witness,mprime_witness
0.1,0.10706221691712334,6,60
0.2,0.1934940079072802,6,30
0.3,0.27906361397203705,6,20
0.4,0.3691031216541514,6,15
0.5,0.4678924870096007,6,12
0.6,0.5804820237218405,6,10
0.7,0.6666666666666666,6,9
0.8,0.792481250360578,6,8
0.9,1.0,6,7
""",
    "qa": """theta,value,m_witness,mprime_witness
0.9,0.792481250360578,16,18
0.95,1.0,16,17
0.98,1.0,16,17
""",
}
NEIGHBOR_SUMMARY = {
    "spectrum": "spectrum: 9 grid points, min=0.10801648174379151 max=2.0",
    "upper": "upper: 9 grid points, min=0.10801648174379151 max=2.0",
    "qa": "qa: headline=2.0 (non-decreasing as eps shrinks: eps=0.1->1.160964047443681, "
          "eps=0.05->2.0, eps=0.02->2.0)",
}
NEIGHBOR_REPORT = """CHECK main-theorem PASS worst=0.0 tol=0.0
CHECK chain FAIL worst=0.35987600526580915 tol=0.05
  witness theta=0.1: box 0.4678924870096007 > spectrum 0.10801648174379151 + tol
  witness theta=0.2: box 0.4678924870096007 > spectrum 0.1981203125901445 + tol
  witness theta=0.3: box 0.4678924870096007 > spectrum 0.29196163151788135 + tol
  witness theta=0.4: box 0.4678924870096007 > spectrum 0.39832916674679514 + tol
CHECK nthroot PASS worst=0.0 tol=0.05
CHECK bound PASS worst=-0.37645620706726257 tol=0.05
"""


def test_neighbor_mode_output_bytes(tmp_path, capsys):
    """Neighbor-mode CSVs, summaries and reports on the depth-64 geometric
    tree, byte for byte (the default range; chain fails at small theta)."""
    path = tmp_path / "geo.fds"
    assert run(["construct", "geometric", "--depth", "64", "-o", str(path)], capsys)[0] == 0
    grid = ["--theta-grid", "0.1:0.9:0.1", "--neighbors", "on"]
    for mode in ("spectrum", "upper", "qa"):
        csv = tmp_path / f"{mode}.csv"
        code, text, _ = run(["estimate", "--mode", mode, "-i", str(path), *grid,
                             "-o", str(csv)], capsys)
        assert code == 0
        assert text == f"{NEIGHBOR_SUMMARY[mode]} -> {csv}\n"
        assert csv.read_text() == NEIGHBOR_CSV[mode]
    code, text, _ = run(["verify", "-i", str(path), "--check",
                         "main-theorem,chain,nthroot,bound", *grid], capsys)
    assert code == 1
    assert text == NEIGHBOR_REPORT


def test_run_mode_output_bytes(tmp_path, capsys):
    """Run-mode upper and qa CSVs on the depth-64 geometric tree, byte for
    byte (the default range)."""
    path = tmp_path / "geo.fds"
    assert run(["construct", "geometric", "--depth", "64", "-o", str(path)], capsys)[0] == 0
    for mode, csv_text in RUN_CSV.items():
        csv = tmp_path / f"{mode}.csv"
        code, _, _ = run(["estimate", "--mode", mode, "-i", str(path),
                          "--theta-grid", "0.1:0.9:0.1", "-o", str(csv)], capsys)
        assert code == 0
        assert csv.read_text() == csv_text


# Per symbolic set: each estimate mode's summary line and CSV, the report of
# `verify` with every check, and that of nthroot at n = 2, 3, 5, all with
# the default grid and range.
SET_PINS = {
    "two-phase": {
        "construct": ["two-phase", "--s", "0.4", "--t", "0.8", "--blocks", "2"],
        "spectrum": (
            "spectrum: 9 grid points, min=0.40444444444444444 max=0.8421052631578947",
            """theta,value,m_witness,mprime_witness
0.1,0.40444444444444444,25,250
0.2,0.46568627450980393,51,255
0.3,0.5280898876404494,76,254
0.4,0.6209150326797386,102,255
0.5,0.75,128,256
0.6,0.8061224489795918,147,245
0.7,0.8135593220338984,137,196
0.8,0.8157894736842105,152,190
0.9,0.8421052631578947,167,186
""",
        ),
        "upper": (
            "upper: 9 grid points, min=0.4155844155844156 max=0.8421052631578947",
            """theta,value,m_witness,mprime_witness
0.1,0.4155844155844156,25,256
0.2,0.4682926829268293,51,256
0.3,0.5333333333333333,76,256
0.4,0.6233766233766234,102,256
0.5,0.75,128,256
0.6,0.8085106382978723,137,231
0.7,0.8135593220338984,137,196
0.8,0.8205128205128205,137,176
0.9,0.8421052631578947,137,156
""",
        ),
        "box": (
            "box: value=0.390625 witness m=256",
            """theta,value,m_witness,mprime_witness
,0.390625,256,
""",
        ),
        "qa": (
            "qa: headline=1.0 (non-decreasing as eps shrinks: eps=0.1->0.8421052631578947, "
            "eps=0.05->0.8888888888888888, eps=0.02->1.0)",
            """theta,value,m_witness,mprime_witness
0.9,0.8421052631578947,137,156
0.95,0.8888888888888888,137,146
0.98,1.0,137,140
""",
        ),
        "verify": """CHECK main-theorem PASS worst=0.0 tol=0.0
CHECK bound PASS worst=-0.022594975490196068 tol=0.05
CHECK chain PASS worst=0.0 tol=0.05
CHECK nthroot PASS worst=-0.010204081632653073 tol=0.05
""",
        "nthroot": "CHECK nthroot PASS worst=-0.010204081632653073 tol=0.05\n",
    },
    "concave-union": {
        "construct": ["concave-union", "--target", "0.4,0.4,-0.2", "--components", "4",
                      "--blocks", "2"],
        "spectrum": (
            "spectrum: 9 grid points, min=0.3662551440329218 max=0.6666666666666666",
            """theta,value,m_witness,mprime_witness
0.1,0.3662551440329218,27,270
0.2,0.39814814814814814,54,270
0.3,0.455026455026455,81,270
0.4,0.5131578947368421,101,253
0.5,0.5148514851485149,101,202
0.6,0.5567010309278351,145,242
0.7,0.575,185,265
0.8,0.5918367346938775,194,243
0.9,0.6666666666666666,27,30
""",
        ),
        "upper": (
            "upper: 9 grid points, min=0.36885245901639346 max=0.6666666666666666",
            """theta,value,m_witness,mprime_witness
0.1,0.36885245901639346,27,271
0.2,0.4009216589861751,54,271
0.3,0.45789473684210524,81,271
0.4,0.5131578947368421,101,253
0.5,0.5169491525423728,117,235
0.6,0.5588235294117647,147,249
0.7,0.575,184,264
0.8,0.5961538461538461,203,255
0.9,0.6666666666666666,27,30
""",
        ),
        "box": (
            "box: value=0.33587589723875316 witness m=271",
            """theta,value,m_witness,mprime_witness
,0.33587589723875316,271,
""",
        ),
        "qa": (
            "qa: headline=0.75 (non-decreasing as eps shrinks: eps=0.1->0.6190476190476191, "
            "eps=0.05->0.6428571428571429, eps=0.02->0.75)",
            """theta,value,m_witness,mprime_witness
0.9,0.6190476190476191,189,210
0.95,0.6428571428571429,196,210
0.98,0.75,141,145
""",
        ),
        "verify": """CHECK main-theorem PASS worst=0.0 tol=0.0
CHECK bound PASS worst=-0.0069402973434705695 tol=0.05
CHECK chain PASS worst=0.0 tol=0.05
CHECK nthroot PASS worst=0.023809523809523725 tol=0.05
""",
        "nthroot": "CHECK nthroot PASS worst=0.023809523809523725 tol=0.05\n",
    },
}


@pytest.mark.parametrize("name", SET_PINS)
def test_symbolic_set_output_bytes(tmp_path, capsys, name):
    """Every estimate mode and every check on a depth-256 two-phase
    schedule and a depth-272 four-component concave union, byte for byte."""
    pins = SET_PINS[name]
    path = tmp_path / "set.fds"
    assert run(["construct", *pins["construct"], "-o", str(path)], capsys)[0] == 0
    for mode in ("spectrum", "upper", "box", "qa"):
        summary, csv_text = pins[mode]
        csv = tmp_path / f"{mode}.csv"
        code, text, _ = run(["estimate", "--mode", mode, "-i", str(path), "-o", str(csv)], capsys)
        assert code == 0
        assert text == f"{summary} -> {csv}\n"
        assert csv.read_text() == csv_text
    assert run(["verify", "-i", str(path)], capsys)[:2] == (0, pins["verify"])
    assert run(["verify", "-i", str(path), "--check", "nthroot", "--n-values", "2,3,5"],
               capsys)[:2] == (0, pins["nthroot"])


def test_union_origin_rows_output_bytes(tmp_path, capsys):
    """The four-component union (shifts 2 to 16, depth 272) over coarse
    levels 1 to 40, where the origin node's rows below the last shift enter
    the upper spectrum: its CSVs, and main-theorem's exact 0.0 next to a
    failing chain check, byte for byte."""
    path = tmp_path / "u.fds"
    assert run(["construct", "concave-union", "--target", "0.4,0.4,-0.2", "--components", "4",
                "--blocks", "2", "-o", str(path)], capsys)[0] == 0
    pins = {
        "upper": ("upper: 9 grid points, min=0.3699186991869919 max=1.0", """theta,value,m_witness,mprime_witness
0.1,0.3699186991869919,25,271
0.2,0.396240625180289,1,5
0.3,0.5283208335737187,1,4
0.4,0.5283208335737187,1,4
0.5,1.0,1,2
0.6,1.0,1,2
0.7,1.0,1,2
0.8,1.0,1,2
0.9,1.0,1,2
"""),
        "qa": ("qa: headline=1.0 (non-decreasing as eps shrinks: eps=0.1->1.0, eps=0.05->1.0, "
               "eps=0.02->1.0)", """theta,value,m_witness,mprime_witness
0.9,1.0,1,2
0.95,1.0,1,2
0.98,1.0,1,2
"""),
    }
    for mode, (summary, csv_text) in pins.items():
        csv = tmp_path / f"{mode}.csv"
        assert run(["estimate", "--mode", mode, "-i", str(path), "--m-range", "1:40",
                    "-o", str(csv)], capsys)[:2] == (0, f"{summary} -> {csv}\n")
        assert csv.read_text() == csv_text
    assert run(["verify", "--check", "main-theorem,chain", "-i", str(path), "--m-range", "1:40"],
               capsys)[:2] == (1, """CHECK main-theorem PASS worst=0.0 tol=0.0
CHECK chain FAIL worst=0.1337448559670782 tol=0.05
  witness theta=0.1: box 0.5 > spectrum 0.3662551440329218 + tol
  witness theta=0.2: box 0.5 > spectrum 0.396240625180289 + tol
""")


# Each command line gives options its command variant does not read: the
# flags that argparse rejects (the subcommand declares no such flag) and the
# ones the option table rejects (some other variant of it reads them).
IGNORED_FLAGS = [
    ("estimate --mode upper -i {set} -o {out}", ["--tol", "0.1"]),
    ("estimate --mode spectrum -i {set} -o {out}", ["--epsilons", "0.1"]),
    ("verify --check main-theorem -i {set}", ["--tol", "0.1", "--epsilons", "0.1"]),
    ("verify --check bound -i {set}", ["--epsilons", "0.1"]),
    ("verify --check bound -i {set}", ["--n-values", "4"]),
    ("verify --check bound -i {set}", ["-o", "{out}"]),
    ("construct geometric -o {out}", ["--s", "0.3", "--blocks", "2"]),
    ("construct geometric -o {out}", ["--m-range", "1:2", "--neighbors", "on"]),
    ("construct two-phase --s 0.4 --t 0.8 -o {out}", ["--depth", "5"]),
    ("construct two-phase --s 0.4 --t 0.8 -o {out}", ["-i", "{set}"]),
    ("construct concave-union --target 0.4,0.4,-0.2 -o {out}", ["--s", "0.3"]),
    ("plot {csv} -o {out}", ["--neighbors", "on"]),
    ("plot {csv} -o {out}", ["--tol", "3", "--theta-grid", "0.1:0.2:0.1"]),
]
LONG = {"-i": "--input", "-o": "--output"}


def _ignored_case(tmp_path, capsys, command, extra):
    """(argv without the ignored options, the ignored options as given, their
    long names, the output path) for one IGNORED_FLAGS row."""
    paths = {"set": tmp_path / "geo.fds", "csv": tmp_path / "a.csv", "out": tmp_path / "out"}
    assert run(["construct", "geometric", "--depth", "16", "-o", str(paths["set"])],
               capsys)[0] == 0
    paths["csv"].write_text("theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n")
    argv, extra = ([tok.format(**paths) for tok in toks] for toks in (command.split(), extra))
    return argv, extra, [LONG.get(tok, tok) for tok in extra[::2]], paths["out"]


@pytest.mark.parametrize("command, extra", IGNORED_FLAGS)
def test_ignored_flag_exits_2(tmp_path, capsys, command, extra):
    """A flag the command variant does not read exits 2 naming it, before
    any output; the same command line without it runs."""
    argv, extra, flags, out = _ignored_case(tmp_path, capsys, command, extra)
    code, text, err = run([*argv, *extra], capsys)
    assert code == 2 and text == "" and not out.exists(), err
    for flag, given in zip(flags, extra[::2]):
        # argparse names the flag as given, the option table by its long name
        assert flag in err or f"{given} " in err, (flag, err)
    assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("command, extra", IGNORED_FLAGS)
def test_ignored_config_key_exits_2(tmp_path, capsys, command, extra):
    """The config-file form of each ignored flag exits 2 naming the key:
    as a key the variant does not read, or as an unknown key (input and
    output are never config keys)."""
    argv, extra, flags, out = _ignored_case(tmp_path, capsys, command, extra)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in zip(flags, extra[1::2])))
    code, text, err = run([*argv, "--config", str(cfg)], capsys)
    assert code == 2 and text == "" and not out.exists(), err
    for flag in flags:
        assert repr(flag[2:]) in err, (flag, err)


@pytest.mark.parametrize("value", ["ON", "maybe"])
def test_config_values_take_flag_choices(tmp_path, capsys, value):
    """A config value goes through the flag's conversion and choices:
    `neighbors = ON` exits 2 as `--neighbors ON` does, rather than running
    with neighbor mode off."""
    tree = tmp_path / "geo.fds"
    assert run(["construct", "geometric", "--depth", "64", "-o", str(tree)], capsys)[0] == 0
    argv = ["estimate", "--mode", "upper", "-i", str(tree), "-o", str(tmp_path / "u.csv")]
    assert run([*argv, "--neighbors", value], capsys)[0] == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"neighbors = {value}\n")
    code, out, err = run([*argv, "--config", str(cfg)], capsys)
    assert code == 2 and out == "" and "neighbors" in err
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("argv, option", [
    (["estimate", "--mode", "upper", "-i", "{set}", "-o", "{out}", "--theta-grid", ""],
     "--theta-grid"),
    (["estimate", "--mode", "qa", "-i", "{set}", "-o", "{out}", "--epsilons", ""], "--epsilons"),
    (["verify", "--check", "chain", "-i", "{set}", "--epsilons", ""], "--epsilons"),
    (["construct", "concave-union", "--target", "0.4,0.4,-0.2", "-o", "{out}", "--shifts", ""],
     "--shifts"),
    (["plot", "{csv}", "-o", "{out}", "--overlay-u", ""], "--overlay-u"),
    (["plot", "{csv}", "-o", "{out}", "--overlay-poly", ""], "--overlay-poly"),
    (["estimate", "--mode", "upper", "-i", "{set}", "-o", "{out}", "--config", "{cfg}"],
     "config key 'theta-grid'"),
    (["estimate", "--mode", "upper", "-i", "{set}", "-o", "{out}", "--config", ""],
     "--config"),
])
def test_empty_values_exit_2(tmp_path, capsys, argv, option):
    """An empty option value exits 2 naming the option instead of falling
    back to the default (a grid, an epsilon ladder, shifts) or dropping an
    overlay."""
    paths = {"set": tmp_path / "geo.fds", "csv": tmp_path / "a.csv", "out": tmp_path / "out",
             "cfg": tmp_path / "run.cfg"}
    assert run(["construct", "geometric", "--depth", "16", "-o", str(paths["set"])],
               capsys)[0] == 0
    paths["csv"].write_text("theta,value,m_witness,mprime_witness\n0.2,1.0,1,5\n")
    paths["cfg"].write_text("theta-grid =\n")
    code, out, err = run([tok.format(**paths) for tok in argv], capsys)
    assert code == 2 and out == "" and f"error: {option} needs a value" in err
    assert not paths["out"].exists()


@pytest.mark.parametrize("flags, names", [
    (["--components", "3"], ("config key 'samples'", "--components")),
    (["--target", "0.4,0.4,-0.2"], ("config key 'samples'", "--target")),
])
def test_samples_conflicts_exit_2(tmp_path, capsys, flags, names):
    """A `samples` config key replaces the polynomial target and its sample
    count, so --target or --components next to it exits 2 naming both
    instead of being ignored or silently winning."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 0.4;1/2:0.55,1/4:0.4875\n")
    out = tmp_path / "cu.fds"
    argv = ["construct", "concave-union", "--config", str(cfg), "-o", str(out)]
    code, text, err = run([*argv, *flags], capsys)
    assert code == 2 and text == "" and not out.exists()
    assert all(name in err for name in names), err
    assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("cfg_text, flags, names", [
    ("", ["--shifts", "2,4,8", "--shift-linear", "5"], ("--shifts", "--shift-linear")),
    ("shifts = 2,4,8\n", ["--shift-linear", "5"], ("config key 'shifts'", "--shift-linear")),
    ("shift-linear = 5\n", ["--shifts", "2,4,8"], ("--shifts", "config key 'shift-linear'")),
])
def test_shift_conflicts_exit_2(tmp_path, capsys, cfg_text, flags, names):
    """Explicit shifts replace the linear shift rule, so --shifts and
    --shift-linear, as flags or config keys, exit 2 naming both instead of
    dropping --shift-linear; each alone builds the union."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "cu.fds"
    argv = ["construct", "concave-union", "--target", "0.4,0.4,-0.2", "--components", "3",
            "--config", str(cfg), "-o", str(out)]
    code, text, err = run([*argv, *flags], capsys)
    assert code == 2 and text == "" and not out.exists()
    assert all(name in err for name in names), err
    for k in range(0, len(flags), 2):
        cfg.write_text("")
        assert run([*argv, *flags[k : k + 2]], capsys)[0] == 0


@pytest.mark.parametrize("abbrev", [
    ["construct", "--m", "4"],
    ["construct", "--bl", "2"],
    ["estimate", "--th", "0.5:0.9:0.1"],
    ["verify", "--ch", "main-theorem"],
    ["plot", "--overlay-p", "0.4,0.4,-0.2"],
])
def test_flag_abbreviations_exit_2(tmp_path, capsys, abbrev):
    """A prefix of a flag is not that flag on any subcommand: `--m`, `--bl`,
    `--th`, `--ch` and `--overlay-p` exit 2, writing nothing, rather than
    run as the full flag, which exits 0."""
    tp, csv, out = tmp_path / "tp.fds", tmp_path / "spec.csv", tmp_path / "out"
    run(["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--blocks", "2", "-o", str(tp)],
        capsys)
    assert run(["estimate", "-i", str(tp), "--theta-grid", "0.5:0.9:0.1", "--m-range", "64:256",
                "-o", str(csv)], capsys)[0] == 0
    argv = {
        "construct": ["construct", "two-phase", "--s", "0.4", "--t", "0.8", "-o", str(out)],
        "estimate": ["estimate", "-i", str(tp), "--m-range", "64:256", "-o", str(out)],
        "verify": ["verify", "-i", str(tp), "--theta-grid", "0.5:0.7:0.1", "--m-range", "64:72"],
        "plot": ["plot", str(csv), "-o", str(out)],
    }[abbrev[0]]
    code, text, _ = run([*argv, *abbrev[1:]], capsys)
    assert code == 2 and text == "" and not out.exists()
    full = {"--m": "--m0", "--bl": "--blocks", "--th": "--theta-grid", "--ch": "--check",
            "--overlay-p": "--overlay-poly"}[abbrev[1]]
    assert run([*argv, full, abbrev[2]], capsys)[0] == 0


def _readme_commands():
    """The `fds ...` command lines of the README's CLI section."""
    import pathlib
    import shlex

    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("fds ")]


def test_documented_command_lines_run(tmp_path, capsys, monkeypatch):
    """Every README command line, then the command-line shapes of the
    bench's CLI workloads (bench/workloads.py, at its tiny scale, with
    --theta-grid given to box and qa), exit 0."""
    monkeypatch.chdir(tmp_path)
    readme = _readme_commands()
    assert len(readme) == 7
    for argv in readme:
        assert run(argv, capsys)[0] == 0, argv
    grid = ["--theta-grid", "81/800:721/800:1/10"]
    bench = [
        ["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--m0", "4", "--blocks", "2",
         "-o", "tp.fds"],
        *(["estimate", "--mode", mode, "-i", "tp.fds", *([] if mode in ("box", "qa") else
          ["--theta-grid", "0.05:0.95:0.05"]), "--m-range", "8:256", "-o", f"tp-{mode}.csv"]
          for mode in ("spectrum", "upper", "box", "qa")),
        ["verify", "-i", "tp.fds", "--check", "chain,bound,nthroot", "--theta-grid",
         "0.3:0.9:0.1", "--m-range", "64:256", "--tol", "0.05"],
        ["verify", "-i", "tp.fds", "--check", "main-theorem", "--theta-grid", "0.5:0.7:0.1",
         "--m-range", "64:72"],
        ["plot", "tp-spectrum.csv", "tp-upper.csv", "--overlay-u", "0.4,0.8", "-o", "tp.svg"],
        ["construct", "geometric", "--depth", "32", "-o", "geo.fds"],
        ["construct", "geometric", "--depth", "16", "-o", "geo-nb.fds"],
        *(["estimate", "--mode", mode, "-i", "geo.fds", *grid, "-o", f"geo-{mode}.csv"]
          for mode in ("spectrum", "upper", "box", "qa")),
        ["verify", "-i", "geo.fds", "--check", "main-theorem", *grid],
        ["verify", "-i", "geo-nb.fds", "--check", "main-theorem", "--neighbors", "on", *grid],
        ["plot", "geo-spectrum.csv", "geo-upper.csv", "-o", "geo.svg"],
    ]
    for argv in bench:
        assert run(argv, capsys)[0] == 0, argv
    # the geometric tolerance checks run; chain fails on the finite-depth box
    assert run(["verify", "-i", "geo.fds", "--check", "chain,bound,nthroot", *grid, "--tol",
                "0.05"], capsys)[0] in (0, 1)


def test_config_keys_are_the_flags_a_variant_reads(tmp_path, capsys):
    """A flag's long name is a config key wherever the variant reads the
    flag, e.g. `components` for concave-union and `n-values` for nthroot."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("components = 2\nm0 = 4\nblocks = 2\n")
    union = tmp_path / "cu.fds"
    code, text, _ = run(["construct", "concave-union", "--target", "0.4,0.4,-0.2",
                         "--config", str(cfg), "-o", str(union)], capsys)
    assert code == 0 and "components=2" in text
    cfg.write_text("n-values = 2\ntheta-grid = 0.5:0.5:0.1\n")
    code, text, _ = run(["verify", "--check", "nthroot", "-i", str(union), "--config", str(cfg)],
                        capsys)
    assert code == 0 and text.startswith("CHECK nthroot PASS")


@pytest.mark.parametrize("text", [SCHEDULE_TEXT, COMPOSITE_TEXT])
def test_cli_header_line_breaks(text, tmp_path, capsys):
    """Set files that differ from the LF file only in line breaks or header
    space estimate alike; a blank or whitespace-only first line exits 2."""
    path, csv = tmp_path / "x.fds", tmp_path / "box.csv"
    argv = ["estimate", "--mode", "box", "-i", str(path), "-o", str(csv)]
    path.write_bytes(text.encode("ascii"))
    assert run(argv, capsys)[0] == 0
    expected = csv.read_text()
    for variant in LINE_BREAK_VARIANTS:
        path.write_bytes(variant(text).encode("ascii"))
        csv.unlink()
        assert run(argv, capsys)[0] == 0 and csv.read_text() == expected
    for variant in UNRECOGNIZED:
        path.write_bytes(variant(text).encode("ascii"))
        csv.unlink(missing_ok=True)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and not csv.exists()
        assert err == "error: unrecognized set file header ''\n"


def test_chain_default_headline_needs_no_lower_rung(tmp_path, capsys):
    """Chain without --epsilons reads its quasi-Assouad headline off the
    upper estimate at the grid top, so a range on which theta = 0.45 (half
    the grid top) has no admissible window still runs; an explicit ladder
    is still validated."""
    tp = tmp_path / "tp.fds"
    run(["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--blocks", "2", "-o", str(tp)],
        capsys)
    argv = ["verify", "-i", str(tp), "--check", "chain", "--theta-grid", "0.5:0.9:0.1",
            "--m-range", "120:256"]
    assert run(argv, capsys) == (0, "CHECK chain PASS worst=0.0 tol=0.05\n", "")
    assert run([*argv, "--epsilons", "0.1,2"], capsys) == (
        2, "", "error: epsilons must lie strictly in (0, 1)\n")


@pytest.mark.parametrize("checks, once", [
    (["--check", "chain,chain"], "chain"),
    (["--check", "chain", "--check", "chain"], "chain"),
    (["--check", "bound,chain", "--check", "bound"], "bound,chain"),
])
def test_check_named_twice_runs_once(tmp_path, capsys, monkeypatch, checks, once):
    """A check named more than once runs once, in the order first named."""
    from fds import spectra

    tp = tmp_path / "tp.fds"
    run(["construct", "two-phase", "--s", "0.4", "--t", "0.8", "--blocks", "2", "-o", str(tp)],
        capsys)
    argv = ["verify", "-i", str(tp), "--theta-grid", "0.5:0.9:0.1", "--m-range", "64:256"]
    expected = run([*argv, "--check", once], capsys)
    calls = []
    chain = spectra.verify_chain
    monkeypatch.setattr(spectra, "verify_chain", lambda *a, **k: calls.append(1) or chain(*a, **k))
    assert run([*argv, *checks], capsys) == expected
    assert expected[0] == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["construct", "geometric", "--depth", "16", "-o", "g.fds"],
    ["estimate", "--mode", "upper", "-i", "g.fds", "-o", "u.csv"],
    ["verify", "-i", "g.fds", "--check", "main-theorem,chain", "--tol", "1"],
    ["plot", "u.csv", "-o", "p.svg"],
])
def test_main_leaves_no_cyclic_garbage(tmp_path, capsys, monkeypatch, argv):
    """The parser is built once per process, so after a warm-up call a
    successful command leaves nothing for the cyclic collector to free."""
    import gc

    monkeypatch.chdir(tmp_path)
    for setup in (["construct", "geometric", "--depth", "16", "-o", "g.fds"],
                  ["estimate", "--mode", "upper", "-i", "g.fds", "-o", "u.csv"], argv):
        assert run(setup, capsys)[0] == 0
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert code == 0 and garbage == 0


# `fds -h` and `fds <subcommand> -h` at 80 columns, byte for byte
HELP = {
    '': (
        'usage: fds [-h] {construct,estimate,verify,plot} ...\n'
        '\n'
        'Construct dyadic sets with prescribed Assouad-type spectra; estimate and\n'
        'cross-verify their dimensions.\n'
        '\n'
        'positional arguments:\n'
        '  {construct,estimate,verify,plot}\n'
        '    construct           generate a set file\n'
        '    estimate            estimate a dimension\n'
        '    verify              run identity checks\n'
        '    plot                render CSVs as one SVG\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    'construct': (
        'usage: fds construct [-h] [--input INPUT] [--output OUTPUT] [--s S] [--t T]\n'
        '                     [--m0 M0] [--blocks BLOCKS] [--depth DEPTH]\n'
        '                     [--target TARGET] [--components COMPONENTS]\n'
        '                     [--shifts SHIFTS] [--shift-linear SHIFT_LINEAR]\n'
        '                     [--config CONFIG]\n'
        '                     {two-phase,concave-union,geometric,full,path,from-schedule}\n'
        '\n'
        'positional arguments:\n'
        '  {two-phase,concave-union,geometric,full,path,from-schedule}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT, -i INPUT\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --s S\n'
        '  --t T\n'
        '  --m0 M0\n'
        '  --blocks BLOCKS\n'
        '  --depth DEPTH\n'
        '  --target TARGET       polynomial coefficients c0,c1,...\n'
        '  --components COMPONENTS\n'
        '  --shifts SHIFTS       explicit comma-separated shifts\n'
        '  --shift-linear SHIFT_LINEAR\n'
        '  --config CONFIG\n'
    ),
    'estimate': (
        'usage: fds estimate [-h] [--mode {spectrum,upper,box,qa}] [--input INPUT]\n'
        '                    [--output OUTPUT] [--theta-grid A:B:C] [--m-range LO:HI]\n'
        '                    [--neighbors {on,off}] [--epsilons EPSILONS]\n'
        '                    [--config CONFIG]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --mode {spectrum,upper,box,qa}\n'
        '  --input INPUT, -i INPUT\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --theta-grid A:B:C\n'
        '  --m-range LO:HI\n'
        '  --neighbors {on,off}\n'
        '  --epsilons EPSILONS   comma-separated, e.g. 0.1,0.05,0.02\n'
        '  --config CONFIG\n'
    ),
    'verify': (
        'usage: fds verify [-h] [--check CHECK] [--input INPUT] [--theta-grid A:B:C]\n'
        '                  [--m-range LO:HI] [--tol TOL] [--neighbors {on,off}]\n'
        '                  [--epsilons EPSILONS] [--n-values N_VALUES]\n'
        '                  [--config CONFIG]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --check CHECK         repeatable; default all\n'
        '  --input INPUT, -i INPUT\n'
        '  --theta-grid A:B:C\n'
        '  --m-range LO:HI\n'
        '  --tol TOL\n'
        '  --neighbors {on,off}\n'
        '  --epsilons EPSILONS   comma-separated, e.g. 0.1,0.05,0.02\n'
        '  --n-values N_VALUES\n'
        '  --config CONFIG\n'
    ),
    'plot': (
        'usage: fds plot [-h] [--input INPUT] [--output OUTPUT] [--overlay-u S,T]\n'
        '                [--overlay-poly C0,C1,...] [--config CONFIG]\n'
        '                [csvs ...]\n'
        '\n'
        'positional arguments:\n'
        '  csvs\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --input INPUT, -i INPUT\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --overlay-u S,T\n'
        '  --overlay-poly C0,C1,...\n'
        '  --config CONFIG\n'
    ),
}


@pytest.mark.parametrize("sub", list(HELP))
def test_help_bytes(capsys, monkeypatch, sub):
    """`-h` of the program and of every subcommand prints the same bytes,
    however many commands the process has parsed before."""
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert run([sub, "-h"] if sub else ["-h"], capsys) == (0, HELP[sub], "")


# files the error-site commands read, named by their placeholders
ERROR_FILES = {
    "s.fds": "fds-schedule 1\ndepth 4\n2 1\n2 2\n",
    "t.fds": "fds-tree 2\ndepth 2\nleaves 1\n0\n",
    "bad.cfg": "s = 0.4\nm0 4\n",
    "three.csv": "theta,value,m_witness,mprime_witness\n0.5,0.7,1\n",
    "word.csv": "theta,value,m_witness,mprime_witness\n0.5,abc,1,2\n",
    "f0.cfg": "samples = 0;1/2:1/2\n",
    "abscissa.cfg": "samples = 1/2;1:1/2\n",
    "value.cfg": "samples = 1/2;1/2:0\n",
    "level.fds": "fds-tree 1\ndepth 1\n0: 0\n5: 0\n",
    "twice.fds": "fds-tree 1\ndepth 1\n0: 0\n0: 0\n",
    "empty-v1.fds": "fds-tree 1\ndepth 3\n",
    "no-origin.fds": "fds-composite 1\n",
    "component.fds": "fds-composite 1\norigin 1\ncomponent 2\n",
}


@pytest.mark.parametrize("argv, message", [
    # options, config lines and the commands' own checks
    (["estimate", "-i", "{s.fds}", "--m-range", "1:2:3", "-o", "{out}"],
     "m range must be lo:hi, got '1:2:3'"),
    ([*TWO_PHASE, "--config", "{bad.cfg}", "-o", "{out}"], "bad config line 'm0 4'"),
    (["verify", "--check", "bound", "-i", "{s.fds}", "--tol", "abc"],
     "--tol needs a number, got 'abc'"),
    (TWO_PHASE, "--output is required"),
    (["construct", "concave-union", "-o", "{out}"],
     "concave-union needs --target c0,c1,... or samples="),
    (["construct", "from-schedule", "-i", "{t.fds}", "-o", "{out}"],
     "from-schedule needs an fds-schedule input"),
    (["plot", "{three.csv}", "-o", "{out}"], "{three.csv}: bad row '0.5,0.7,1'"),
    (["plot", "{word.csv}", "-o", "{out}"], "{word.csv}: bad row '0.5,abc,1,2'"),
    (["plot", "-o", "{out}"], "plot needs at least one CSV input"),
    # generators
    ([*TWO_PHASE, "--blocks", "0", "-o", "{out}"], "need at least one block, got 0"),
    (["construct", "concave-union", "--config", "{f0.cfg}", "-o", "{out}"],
     "f(0) must lie in (0, 1], got 0"),
    (["construct", "concave-union", "--config", "{abscissa.cfg}", "-o", "{out}"],
     "sample abscissa 1 outside (0, 1)"),
    (["construct", "concave-union", "--config", "{value.cfg}", "-o", "{out}"],
     "sample value 0 outside (0, 1]"),
    ([*UNION, "--shift-linear", "0", "-o", "{out}"], "linear shift factor must be >= 1"),
    ([*UNION, "--components", "2", "--shifts", "2", "-o", "{out}"], "need 2 shifts, got 1"),
    # set files
    (["estimate", "-i", "{level.fds}", "-o", "{out}"], "level 5 outside depth 1"),
    (["estimate", "-i", "{twice.fds}", "-o", "{out}"], "duplicate level line for level 0"),
    (["estimate", "-i", "{empty-v1.fds}", "-o", "{out}"],
     "cannot estimate dimensions of an empty tree"),
    (["estimate", "-i", "{no-origin.fds}", "-o", "{out}"], "missing origin line"),
    (["estimate", "-i", "{component.fds}", "-o", "{out}"],
     "bad component line 'component 2'"),
])
def test_error_sites_exit_2(tmp_path, capsys, argv, message):
    """Each rejected command exits 2 with exactly its error line, prints
    nothing on stdout and writes no output file."""
    names = {"out": tmp_path / "out"}
    for name, text in ERROR_FILES.items():
        names[name] = tmp_path / name
        names[name].write_text(text)

    def fill(text):
        for name, path in names.items():
            text = text.replace("{" + name + "}", str(path))
        return text

    assert run([fill(tok) for tok in argv], capsys) == (2, "", f"error: {fill(message)}\n")
    assert not names["out"].exists()


def test_render_plot_needs_a_series():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        render_plot([])
