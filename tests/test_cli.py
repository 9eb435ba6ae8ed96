"""End-to-end command-line behavior, including the exit-code contract."""

import hashlib
import json
import subprocess
import sys
import time

import pytest
from support import transformed, zz_level

from bricks import cli
from bricks.cli import build_parser, main
from bricks.constructions import fixture
from bricks.fileformats import emit_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def zz_file(tmp_path, capsys):
    path = tmp_path / "zz.bricks"
    code, _, _ = run(capsys, "build", "zz-immersed", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def zze_file(tmp_path, capsys):
    path = tmp_path / "zze.bricks"
    code, _, _ = run(capsys, "build", "zz-embedded", "-o", str(path))
    assert code == 0
    return str(path)


class TestValidate:
    def test_immersed_exits_one_and_lists_overlaps(self, capsys, zz_file):
        code, doc, _ = run_json(capsys, "validate", zz_file)
        assert code == 1
        assert doc["properly_joined"] is False
        kinds = {rec["kind"] for rec in doc["improper_pairs"]}
        assert kinds == {"volume-overlap"}

    def test_embedded_exits_zero(self, capsys, zze_file):
        code, doc, _ = run_json(capsys, "validate", zze_file)
        assert code == 0
        assert doc["properly_joined"] is True
        assert doc["brick_count"] == 14

    def test_truncated_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.bricks"
        bad.write_text("brick a 0 0 0 1 0\n")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/path.bricks")
        assert code == 2


class TestGraph:
    def test_corner_list_for_single_cube(self, capsys, tmp_path):
        path = tmp_path / "cube.bricks"
        run(capsys, "build", "cube", "-o", str(path))
        code, doc, _ = run_json(capsys, "graph", str(path))
        assert code == 0
        assert doc["corners"] == ["b0"]
        assert doc["cornerless"] is False

    def test_column_min_degree(self, capsys, tmp_path):
        path = tmp_path / "col.bricks"
        run(capsys, "build", "column-3", "-o", str(path))
        code, doc, _ = run_json(capsys, "graph", str(path))
        assert doc["min_degree"] == 1

    def test_assert_cornerless_on_refined_embedded(self, capsys, tmp_path, zze_file):
        refined = tmp_path / "refined.bricks"
        code, _, _ = run(capsys, "refine", zze_file, "--standard-zz", "-o", str(refined))
        assert code == 0
        code, doc, _ = run_json(capsys, "graph", str(refined), "--assert-cornerless")
        assert code == 0
        assert doc["cornerless"] is True

    def test_assert_cornerless_fails_on_corners(self, capsys, zz_file):
        code, doc, _ = run_json(capsys, "graph", zz_file, "--assert-cornerless")
        assert code == 1
        assert len(doc["corners"]) == 10


class TestRefine:
    def test_standard_zz_yields_56_bricks(self, capsys, tmp_path, zz_file):
        out_path = tmp_path / "refined.bricks"
        code, _, _ = run(capsys, "refine", zz_file, "--standard-zz", "-o", str(out_path))
        assert code == 0
        code, doc, _ = run_json(capsys, "validate", str(out_path))
        assert doc["brick_count"] == 56

    def test_empty_schedule_is_byte_identical(self, capsys, zz_file):
        code, out1, _ = run(capsys, "refine", zz_file)
        assert code == 0
        with open(zz_file, "r", encoding="utf-8") as handle:
            assert out1 == handle.read()

    def test_schedule_file(self, capsys, tmp_path, zz_file):
        sched = tmp_path / "s.schedule"
        sched.write_text("C1 octasect\nX1 quarter\n")
        code, out, _ = run(capsys, "refine", zz_file, "--schedule", str(sched))
        assert code == 0
        brick_lines = [l for l in out.splitlines() if l.startswith("brick ")]
        assert len(brick_lines) == 20  # 8 kept + 8 octants + 4 quarters

    def test_unknown_label_in_schedule(self, capsys, tmp_path, zz_file):
        sched = tmp_path / "s.schedule"
        sched.write_text("nope octasect\n")
        code, _, err = run(capsys, "refine", zz_file, "--schedule", str(sched))
        assert code == 2
        assert "unknown" in err

    def test_ambiguous_quarter_reports_brick(self, capsys, tmp_path):
        path = tmp_path / "cube.bricks"
        run(capsys, "build", "cube", "-o", str(path))
        sched = tmp_path / "s.schedule"
        sched.write_text("b0 quarter\n")
        code, _, err = run(capsys, "refine", str(path), "--schedule", str(sched))
        assert code == 2
        assert "b0" in err

    def test_bad_split_names_brick_and_fractions(self, capsys, tmp_path):
        path = tmp_path / "cube.bricks"
        run(capsys, "build", "cube", "-o", str(path))
        sched = tmp_path / "s.schedule"
        sched.write_text("b0 split 0 1/2,1/2\n")
        code, _, err = run(capsys, "refine", str(path), "--schedule", str(sched))
        assert code == 2
        assert err == (f"error: {path}: brick 'b0': fractions 1/2, 1/2 must be "
                       "strictly increasing within (0, 1)\n")


class TestGenus:
    def test_embedded_genus_three(self, capsys, zze_file):
        code, doc, _ = run_json(capsys, "genus", zze_file)
        assert code == 0
        assert doc["chi"] == -4 and doc["genus"] == 3

    def test_ring_genus_one_with_oracle(self, capsys, tmp_path):
        path = tmp_path / "ring.bricks"
        run(capsys, "build", "ring-3x3", "-o", str(path))
        code, doc, _ = run_json(capsys, "genus", str(path), "--oracle")
        assert code == 0
        assert doc["genus"] == 1
        assert doc["oracle_chi"] == 0 and doc["oracle_agrees"] is True

    def test_cube_genus_zero(self, capsys, tmp_path):
        path = tmp_path / "cube.bricks"
        run(capsys, "build", "cube", "-o", str(path))
        code, doc, _ = run_json(capsys, "genus", str(path))
        assert doc["genus"] == 0

    def test_oracle_rejects_skew_input(self, capsys, zz_file):
        code, _, err = run(capsys, "genus", zz_file, "--oracle")
        assert code == 2
        assert "rectilinear" in err

    def test_genus_reason_on_pinched_input(self, capsys, tmp_path):
        path = tmp_path / "pinch.bricks"
        path.write_text(
            "brick a 0 0 0 1 0 0 0 1 0 0 0 1\n"
            "brick b 1 1 1 1 0 0 0 1 0 0 0 1\n"
        )
        code, doc, _ = run_json(capsys, "genus", str(path))
        assert code == 0
        assert doc["genus"] is None
        assert "genus_unavailable" in doc


class TestTableChi:
    def test_builtin_tables(self, capsys, tmp_path):
        t1 = tmp_path / "t1.table"
        t1.write_text("ring-quarter 4 20 40 16\narch 2 30 66 32\nbuttress 8 0 4 4\n")
        code, doc, _ = run_json(capsys, "table-chi", str(t1))
        assert code == 0
        assert (doc["V"], doc["E"], doc["F"]) == (140, 324, 160)
        assert doc["chi"] == -24 and doc["genus"] == 13

        t2 = tmp_path / "t2.table"
        t2.write_text("cube 4 8 12 3\nconnector 6 0 4 4\n")
        code, doc, _ = run_json(capsys, "table-chi", str(t2))
        assert (doc["V"], doc["E"], doc["F"]) == (32, 72, 36)
        assert doc["chi"] == -4 and doc["genus"] == 3

    def test_empty_table_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.table"
        empty.write_text("# nothing\n")
        code, _, _ = run(capsys, "table-chi", str(empty))
        assert code == 2


class TestBuild:
    def test_counts(self, capsys):
        code, out, err = run(capsys, "build", "zz-immersed")
        assert code == 0
        assert out.count("brick ") == 10
        code, out, _ = run(capsys, "build", "zz-embedded")
        assert out.count("brick ") == 14

    def test_cube_side_six_cites_the_gap(self, capsys):
        code, _, err = run(capsys, "build", "zz-immersed", "--cube-side", "6")
        assert code == 2
        assert "5" in err and "gap" in err

    def test_fractional_cube_side(self, capsys):
        code, out, _ = run(capsys, "build", "zz-immersed", "--cube-side", "7/2")
        assert code == 0
        assert out.count("brick ") == 10

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "build", "not-a-fixture")
        assert code == 2

    def test_default_cube_side_is_four(self, capsys):
        for name in ("zz-immersed", "zz-embedded"):
            assert run(capsys, "build", name) == run(
                capsys, "build", name, "--cube-side", "4")

    @pytest.mark.parametrize("argv", [
        ["cube", "--cube-side", "3"],
        ["random-3", "--cube-side", "-1"],
        ["block-2x2x2", "--cube-side", "4"],
    ])
    def test_cube_side_on_a_fixture_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "build", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: --cube-side applies only to zz-immersed and zz-embedded"]


class TestExportObj:
    def test_cube(self, capsys, tmp_path):
        path = tmp_path / "cube.bricks"
        run(capsys, "build", "cube", "-o", str(path))
        code, out, _ = run(capsys, "export-obj", str(path))
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("v ")) == 8
        assert sum(1 for l in out.splitlines() if l.startswith("f ")) == 6

    def test_exposed_only_face_count(self, capsys, zze_file):
        code, doc, _ = run_json(capsys, "genus", zze_file)
        expected = doc["F"]
        code, out, _ = run(capsys, "export-obj", zze_file, "--exposed-only")
        assert sum(1 for l in out.splitlines() if l.startswith("f ")) == expected


class TestDeterminism:
    def test_identical_reports_across_runs(self, capsys, zz_file):
        results = [run(capsys, "validate", zz_file) for _ in range(2)]
        assert results[0] == results[1]
        meshes = [run(capsys, "export-obj", zz_file)[1] for _ in range(2)]
        assert meshes[0] == meshes[1]


# A det-1 integer shear that moves every axis off-axis.
SHEAR = ((1, 1, 0), (0, 1, -1), (1, 1, 1))

# sha256 of stdout of validate, graph and genus on each input, recorded
# before parse_complex, Vec3 and Brick took int-only shortcuts, which must
# print the same bytes.
CLI_DIGESTS = {
    "random-7": {
        "validate": "f5971c3cb66c01c4c71dadc5ea7d3575f57550c6efbaff6a78b00d888e1867a0",
        "graph": "1945fd0115fd193bd8b9335c4f11f4cf751c547772b1cd423f925a4129a17a5e",
        "genus": "8e89f6287c80ea37f0f368c12dd17d2d521e7275713372fa09399e39c1bf911f",
    },
    "block-3x3x3": {
        "validate": "2f3a6c512d1d6bf9bef30a9b94e43124db653f7208282c960c870ee65010a65e",
        "graph": "b2e7517e45113a3b40540af29db83cb9ccf9d6bf3285d56d89fb120712edd8d8",
        "genus": "ac148cfc400b1f072c2e9c25416e5943d82b1ff68940c4c90bbe78123aeef178",
    },
    "sheared-random-7": {
        "validate": "5b47b5a70c5ad6e06b29a80ab616ec4df72a67535cede1ef3852c30b4fa8cc75",
        "graph": "1945fd0115fd193bd8b9335c4f11f4cf751c547772b1cd423f925a4129a17a5e",
        "genus": "8e89f6287c80ea37f0f368c12dd17d2d521e7275713372fa09399e39c1bf911f",
    },
    "zz-embedded-refined": {
        "validate": "926a4cec0fa2581a959531a78de0f88e186ffb53936b85b317861a8dc133eafe",
        "graph": "5952d31d5171c79efedd44200da82c8375069a1c4e3fd61478eb17be808ff2c1",
        "genus": "56309024f3ae1cdd16a1aac97475205575eb39de9255dcb698eb1f7919090092",
    },
    "zz-embedded-side-3": {
        "validate": "bb9f7be756b22b0a53c19c952037f9e6c4b8e6a8073387c9aa35e4f4c26992eb",
        "graph": "7cbb33c537080903e1282d4886510b554b91c94abd85e2c206cc0a0e872e694d",
        "genus": "692a5bf85258e454586eebdada9f8f731c772badffeb2bea0cd61cf3c9a9050e",
    },
}


def digest_input(name: str) -> str:
    if name == "sheared-random-7":
        return emit_complex(transformed(fixture("random-7"), SHEAR))
    if name == "zz-embedded-refined":
        return emit_complex(zz_level(4, 1))
    if name == "zz-embedded-side-3":
        return emit_complex(zz_level(3))
    return emit_complex(fixture(name))


@pytest.mark.parametrize("name", [
    "random-7", "block-3x3x3", "sheared-random-7", "zz-embedded-refined",
    "zz-embedded-side-3",
])
def test_report_bytes_are_pinned(capsys, tmp_path, name):
    path = tmp_path / f"{name}.bricks"
    path.write_text(digest_input(name))
    digests = {}
    for command in ("validate", "graph", "genus"):
        code, out, _ = run(capsys, command, str(path))
        assert code == 0
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == CLI_DIGESTS[name]


# sha256 of the file that refine --standard-zz writes from zz-embedded refined
# once (72 -> 416 bricks), by cube side: ints at side 4, and at side 3
# Fractions that halving makes from Fractions. Recorded before Vec3.scale and
# Brick construction skipped Fraction arithmetic where products are integral,
# which must write the same bytes.
REFINE_DIGESTS = {
    4: "bd7fbf577647fdea2e9dd758e4033f544ecaaee51d171683629ecfeb699e07cf",
    3: "f840b253f945db397ddc532236fdc6f770ffa97cf3b148e8183c3606624170b2",
}


@pytest.mark.parametrize("side", [4, 3])
def test_refine_bytes_are_pinned(capsys, tmp_path, side):
    source, written = tmp_path / "in.bricks", tmp_path / "out.bricks"
    source.write_text(emit_complex(zz_level(side, 1)))
    code, _, _ = run(capsys, "refine", str(source), "--standard-zz", "-o", str(written))
    assert code == 0
    assert hashlib.sha256(written.read_bytes()).hexdigest() == REFINE_DIGESTS[side]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["graph", "{bad}"],
        ["genus", "{bad}"],
        ["export-obj", "{bad}"],
        ["table-chi", "{bad}"],
        ["refine", "{good}", "--schedule", "{bad}"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_utf8_input_exits_two(capsys, tmp_path, argv):
    # the bad byte 0xe9 is on line 3 as wc -l counts lines: the form feed
    # ends no line, and the column counts the two-byte "é" as one character
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"brick a 0 0 0 1 0 0 0 1 0 0 0 1\x0c\n\n# caf\xc3\xa9 \xe9\n")
    good = tmp_path / "good.bricks"
    good.write_text("brick a 0 0 0 1 0 0 0 1 0 0 0 1\n")
    code, _, err = run(
        capsys, *(a.format(bad=bad, good=good) for a in argv)
    )
    assert code == 2
    assert err == f"error: {bad}: line 3, column 8: invalid UTF-8 byte 0xe9\n"


@pytest.mark.parametrize("token", ["0.5", "1e3", "1_000", "+3"])
def test_scalar_outside_the_grammar_exits_two_with_line_and_column(
    capsys, tmp_path, token
):
    path = tmp_path / "bad.bricks"
    path.write_text(
        "brick a 0 0 0 1 0 0 0 1 0 0 0 1\n"
        f"brick b 1 0 {token} 1 0 0 0 1 0 0 0 1\n"
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "line 2, column 13:" in err and repr(token) in err
    assert "Traceback" not in err


def test_huge_scalar_gives_one_short_error_line(capsys, tmp_path):
    path = tmp_path / "bad.bricks"
    path.write_text(
        "brick a 0 0 0 1 0 0 0 1 0 0 0 1\n"
        f"brick b 1 0 {'1' * 4400} 1 0 0 0 1 0 0 0 1\n"
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: line 2, column 13: ")
    assert len(line) - len(str(path)) < 200


LONG = "x" * 5000
CUBE_LINE = "brick a 0 0 0 1 0 0 0 1 0 0 0 1\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("validate", f"{LONG} 0 0 0\n"),
        ("validate", f"brick {LONG} 0 0 0 1 0 0 0 1 0 0 0 1\n" * 2),
        ("validate", f"brick {LONG} 0 0 0 1 0 0 0 1 0 1 1 0\n"),
        ("schedule", f"a {LONG}\n"),
        ("schedule", f"{LONG} keep\n" * 2),
        ("table-chi", f"{LONG} 0 8 12 6\n"),
        ("table-chi", f"cube 1 8 12 {LONG}\n"),
    ],
    ids=[
        "unknown-directive",
        "duplicate-brick-id",
        "zero-volume-brick-id",
        "bad-schedule-operator",
        "duplicate-schedule-entry",
        "piece-row-label",
        "piece-row-integer",
    ],
)
def test_long_token_gives_one_short_error_line(capsys, tmp_path, command, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    good = tmp_path / "good.bricks"
    good.write_text(CUBE_LINE)
    if command == "schedule":
        argv = ["refine", str(good), "--schedule", str(bad)]
    else:
        argv = [command, str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {bad}: line ")
    assert f"'{LONG[:20]}'... (5000 characters)" in line
    assert len(line) - len(str(bad)) < 200


@pytest.mark.parametrize(
    "bricks, schedule, argv",
    [
        (CUBE_LINE, f"{LONG} keep\n", ["refine", "--schedule"]),
        (f"brick {LONG} 0 0 0 1 0 0 0 1 0 0 0 1\n", f"{LONG} quarter\n",
         ["refine", "--schedule"]),
        (f"brick {LONG} 0 0 0 1 0 0 1 1 0 0 0 1\n", None, ["genus", "--oracle"]),
    ],
    ids=["unknown-label", "no-longest-generator", "not-rectilinear"],
)
def test_long_label_gives_one_short_error_line(capsys, tmp_path, bricks, schedule,
                                               argv):
    path = tmp_path / "long.bricks"
    path.write_text(bricks)
    extra = []
    if schedule is not None:
        extra = [str(tmp_path / "long.schedule")]
        (tmp_path / "long.schedule").write_text(schedule)
    command, *options = argv
    code, out, err = run(capsys, command, str(path), *options, *extra)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert f"'{LONG[:20]}'... (5000 characters)" in line
    assert len(line) - len(str(path)) < 200


def test_many_unknown_labels_give_one_short_error_line(capsys, tmp_path):
    good = tmp_path / "good.bricks"
    good.write_text(CUBE_LINE)
    schedule = tmp_path / "many.schedule"
    schedule.write_text("".join(f"label{i} keep\n" for i in range(1000)))
    code, out, err = run(capsys, "refine", str(good), "--schedule", str(schedule))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line == (
        f"error: {good}: schedule references unknown labels "
        "['label0', 'label1', 'label10'] and 997 more"
    )


def test_many_split_fractions_give_one_short_error_line(capsys, tmp_path):
    good = tmp_path / "good.bricks"
    good.write_text(CUBE_LINE)
    schedule = tmp_path / "many.schedule"
    schedule.write_text("a split 0 " + ",".join(["1/2"] * 1000) + "\n")
    code, out, err = run(capsys, "refine", str(good), "--schedule", str(schedule))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert len(line.encode()) - len(str(good).encode()) < 200
    assert line == (
        f"error: {good}: brick 'a': fractions 1/2, 1/2, 1/2 and 997 more must be "
        "strictly increasing within (0, 1)"
    )


def test_long_split_fractions_give_one_short_error_line(capsys, tmp_path):
    good = tmp_path / "good.bricks"
    good.write_text(CUBE_LINE)
    schedule = tmp_path / "long.schedule"
    fraction = "1/" + "9" * 4000
    schedule.write_text(f"a split 0 {fraction},{fraction}\n")
    code, out, err = run(capsys, "refine", str(good), "--schedule", str(schedule))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert len(line.encode()) - len(str(good).encode()) < 200
    quoted = f"{fraction[:20]!r}... (4002 characters)"
    assert line == (
        f"error: {good}: brick 'a': fractions {quoted}, {quoted} must be "
        "strictly increasing within (0, 1)"
    )


@pytest.mark.parametrize(
    "name", [LONG, "random-" + "7" * 5000], ids=["unknown-fixture", "random-seed"]
)
def test_long_build_name_gives_one_short_error_line(capsys, name):
    code, out, err = run(capsys, "build", name)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert f"{name[:20]!r}... ({len(name)} characters)" in line
    # the list of known fixture names takes about 150 characters
    assert len(line) < 250


def test_oracle_memory_is_bounded_by_the_input(tmp_path):
    """One brick of side 100000 is one cell of the complex's grid, so the
    oracle runs in a 400 MB address space."""
    path = tmp_path / "big.bricks"
    path.write_text("brick A 0 0 0  100000 0 0  0 100000 0  0 0 100000\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))\n"
        "from bricks.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "genus", str(path), "--oracle"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["oracle_chi"] == 2 and doc["oracle_agrees"] is True


def test_oracle_over_the_cell_budget_exits_two(capsys, tmp_path):
    path = tmp_path / "over.bricks"
    path.write_text(
        "brick box 0 0 0 100 0 0 0 100 0 0 0 100\n"
        + "".join(f"brick d{i} {i} {i} {i} 1 0 0 0 1 0 0 0 1\n" for i in range(100))
    )
    code, out, err = run(capsys, "genus", str(path), "--oracle")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: --oracle: ") and "over the budget" in line


def identical_cubes_text(n: int) -> str:
    return "".join(f"brick c{i} 0 0 0  1 0 0  0 1 0  0 0 1\n" for i in range(n))


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["graph"], ["genus"], ["refine", "--standard-zz"],
     ["export-obj", "--exposed-only"]],
    ids=lambda argv: argv[0],
)
def test_over_the_pair_budget_exits_two_with_one_line(capsys, tmp_path, argv):
    """All pairs of 220 identical cubes meet, 24,090 of them, past their
    budget of 24,080 classified pairs."""
    path = tmp_path / "same.bricks"
    path.write_text(identical_cubes_text(220))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {path}: 220 bricks need more than the budget of 24080 pair "
        "classifications"]


def test_many_identical_bricks_are_refused_in_bounded_time_and_memory(tmp_path):
    """1,000 identical cubes, a 41 KB file, meet in 499,500 pairs; validate
    stops at the budget of 74,000 instead of classifying and printing them
    all, which takes seconds and about a gigabyte."""
    path = tmp_path / "same.bricks"
    path.write_text(identical_cubes_text(1000))
    rss = tmp_path / "maxrss"
    script = (
        "import resource, sys\n"
        "from bricks.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "with open(sys.argv[1], 'w') as f:\n"
        "    f.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))\n"
        "sys.exit(code)\n"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script, str(rss), "validate", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 30
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and "the budget of 74000 pair" in line
    assert int(rss.read_text()) < 200_000  # KiB


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "zz-embedded", "--cube-side", "1e3"],
    ],
    ids=lambda argv: argv[-2],
)
def test_scalar_option_outside_the_grammar_exits_two(capsys, tmp_path, argv):
    cube = tmp_path / "cube.bricks"
    cube.write_text("brick a 0 0 0 1 0 0 0 1 0 0 0 1\n")
    code, out, err = run(capsys, *(a.format(cube=cube) for a in argv))
    assert code == 2
    assert out == ""
    assert "error: " in err and "'1e3'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "zz-embedded"],
        ["refine", "{cube}", "--standard-zz"],
        ["export-obj", "{cube}"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    cube = tmp_path / "cube.bricks"
    cube.write_text("brick a 0 0 0 1 0 0 0 1 0 0 0 1\n")
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *(a.format(cube=cube) for a in argv),
                         "-o", str(target))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot write {target}: ")
    assert "No such file or directory" in line


def test_consecutive_calls_start_from_fresh_options(capsys, tmp_path):
    """main builds its parser once; an option given to one call is not seen
    by the next."""
    path = tmp_path / "ring.bricks"
    run(capsys, "build", "ring-3x3", "-o", str(path))
    code, doc, _ = run_json(capsys, "genus", str(path), "--oracle")
    assert code == 0 and doc["oracle_agrees"] is True
    code, doc, _ = run_json(capsys, "genus", str(path))
    assert code == 0 and doc["genus"] == 1
    assert "oracle_chi" not in doc and "oracle_agrees" not in doc


def test_call_after_a_usage_error_succeeds(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["genus"])
    assert exc.value.code == 2
    assert "the following arguments are required: input" in capsys.readouterr().err
    path = tmp_path / "cube.bricks"
    code, _, err = run(capsys, "build", "cube", "-o", str(path))
    assert code == 0 and err == "cube: 1 bricks\n"
    code, doc, _ = run_json(capsys, "genus", str(path))
    assert code == 0 and doc["chi"] == 2


# A number whose decimal form has more digits than Python's int-to-str limit
# (4,300 by default) cannot be printed without raising that limit for the
# whole process, so a command that would print one exits 2 instead.
NINES = "9" * 4300
WHOLE_EDGE = (f"brick a {NINES} 0 0 {NINES} 0 0 0 1 0 0 0 1\n"
              f"brick b {NINES} 1 1 {NINES} 0 0 0 1 0 0 0 1\n")
TOO_LONG = "a value has more digits than Python's int-to-str limit allows"
has_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter prints ints of any length")


@pytest.mark.parametrize(
    "command, text, message",
    [
        pytest.param("validate", WHOLE_EDGE, TOO_LONG, marks=has_digit_limit),
        pytest.param("export-obj", WHOLE_EDGE, TOO_LONG, marks=has_digit_limit),
        ("export-obj", f"brick a 1{'0' * 400}/3 0 0 1 0 0 0 1 0 0 0 1\n",
         "a coordinate lies beyond the largest float"),
        pytest.param("table-chi", f"piece {NINES[:4000]} {NINES[:4000]} 0 0\n",
                     TOO_LONG, marks=has_digit_limit),
        pytest.param("table-chi", f"piece {NINES[:4000]} {NINES[:4000]} "
                     f"{NINES[:4000]} 0\n", TOO_LONG, marks=has_digit_limit),
    ],
    ids=["whole-edge-contact", "whole-edge-vertex", "float-overflow",
         "odd-chi", "long-vertex-count"],
)
def test_number_too_long_to_print_exits_two_with_one_line(capsys, tmp_path, command,
                                                         text, message):
    """The whole-edge contact of two 4,300-digit bricks ends at x = 2N, 4,301
    digits; 10^400/3 has no float; a piece row of two 4,000-digit counts
    has V = K^2, 8,000 digits, and an odd chi of as many."""
    path = tmp_path / "hostile.txt"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {path}: {message}"]


def test_tied_long_generators_are_named_not_their_squared_lengths(capsys, tmp_path):
    """Quartering a brick with two equal longest generators fails naming
    them; their squared lengths, 6,000 digits here, are not printed."""
    side = "9" * 3000
    path = tmp_path / "square.bricks"
    path.write_text(f"brick a 0 0 0 {side} 0 0 0 {side} 0 0 0 1\n")
    code, out, err = run(capsys, "refine", str(path), "--standard-zz")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {path}: brick 'a' has no strictly longest generator "
        "(generators 0, 1 tie); pass long_dir explicitly"]


@has_digit_limit
def test_installed_command_exits_two_on_a_number_too_long_to_print(tmp_path):
    path = tmp_path / "edge.bricks"
    path.write_text(WHOLE_EDGE)
    done = subprocess.run(
        [sys.executable, "-m", "bricks.cli", "validate", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [f"error: {path}: {TOO_LONG}"]


@pytest.mark.parametrize(
    "command, text, line, column, message",
    [
        ("table-chi", "cube 4 x 12 3\n", 1, 8, "bad integer in piece row: 'x'"),
        ("validate", CUBE_LINE + "   frob 1 2\n", 2, 4, "unknown directive 'frob'"),
        ("schedule", "a keep\n  a keep\n", 2, 3, "duplicate schedule entry for 'a'"),
        ("schedule", "a  frobnicate\n", 1, 4, "bad schedule operator 'frobnicate'"),
        ("validate", "name a\n" + CUBE_LINE + "name  b\n", 3, 7, "second name 'b'"),
        ("table-chi", "cube +4 8 12 3\n", 1, 6, "bad integer in piece row: '+4'"),
        ("table-chi", "cube 4 1_2 12 3\n", 1, 8, "bad integer in piece row: '1_2'"),
        ("table-chi", "cube 4 8 \u0668 3\n", 1, 10,
         "bad integer in piece row: '\u0668'"),
        ("table-chi", "cube 4 -8 12 3\n", 1, 1, "negative count in row 'cube'"),
    ],
    ids=["piece-row-integer", "indented-directive", "repeated-label",
         "schedule-operator", "second-name", "piece-count-plus",
         "piece-count-underscore", "piece-count-arabic-indic", "piece-count-negative"],
)
def test_error_column_points_at_its_token(capsys, tmp_path, command, text, line,
                                          column, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    good = tmp_path / "good.bricks"
    good.write_text(CUBE_LINE)
    if command == "schedule":
        argv = ["refine", str(good), "--schedule", str(bad)]
    else:
        argv = [command, str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {bad}: line {line}, column {column}: {message}"]


@pytest.mark.parametrize("side", ["-4", "0"])
def test_non_positive_cube_side_exits_two_naming_the_side(capsys, side):
    code, out, err = run(capsys, "build", "zz-embedded", "--cube-side", side)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: cube side {side} must be positive"]


SQUARE_LINE = "brick a 0 0 0 2 0 0 0 2 0 0 0 1\n"  # two tied longest generators
SKEW_LINE = "brick a 0 0 0 1 1 0 0 1 0 0 0 1\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["validate"], "brick a 0 0 0 1 0 0\n"),
        (["graph"], "brick a 0 0 0 1 0 0\n"),
        (["genus"], "brick a 0 0 0 1 0 0\n"),
        (["genus", "--oracle"], SKEW_LINE),
        (["refine", "--standard-zz"], SQUARE_LINE),
        (["export-obj", "--exposed-only"],
         f"brick a 1{'0' * 400}/3 0 0 1 0 0 0 1 0 0 0 1\n"),
        (["table-chi"], "# no rows\n"),
    ],
    ids=["validate", "graph", "genus", "genus-oracle", "refine", "export-obj",
         "table-chi"],
)
def test_every_error_of_a_command_that_reads_a_file_names_it(capsys, tmp_path, argv,
                                                              text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: ")


def test_every_command_resolves_to_its_function(capsys, monkeypatch, tmp_path):
    """main finds cmd_<name> in the module at call time, so a wrapper set on
    the module afterwards sees the call (the benchmark's tracer relies on it)."""
    sub = build_parser()._subparsers._group_actions[0]
    for name in sub.choices:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
    calls = []
    unwrapped = cli.cmd_genus

    def counting(args):
        calls.append(args.input)
        return unwrapped(args)

    monkeypatch.setattr(cli, "cmd_genus", counting)
    path = tmp_path / "cube.bricks"
    path.write_text(CUBE_LINE)
    code, doc, _ = run_json(capsys, "genus", str(path))
    assert code == 0 and doc["genus"] == 0
    assert calls == [str(path)]
