"""File formats: brick complexes, piece tables, schedules, OBJ export."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bricks.complexes import ComplexError, brick_complex, validate
from bricks.constructions import (
    fixture,
    table_buttressed_octahedron,
    table_zz,
    zz_embedded,
    zz_immersed,
)
from bricks.fileformats import (
    ParseError,
    emit_complex,
    export_obj,
    parse_complex,
    parse_piece_table,
    parse_schedule,
    _decimal,
    _parse_scalar,
)
from bricks.geometry import Brick, GeometryError, Vec3, brick_from_box
from bricks.refinement import Keep, Octasect, QuarterLengthwise, SplitAt
from bricks.surface import surface_stats


class TestComplexRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["cube", "column-3", "ring-3x3", "zz-immersed", "zz-embedded", "random-3"],
    )
    def test_parse_emit_identity_on_canonical_form(self, name):
        c = fixture(name)
        text = emit_complex(c)
        again = emit_complex(parse_complex(text))
        assert text == again

    def test_roundtrip_preserves_reports_and_stats(self):
        c = zz_immersed()
        parsed = parse_complex(emit_complex(c))
        assert validate(parsed).properly_joined == validate(c).properly_joined
        assert surface_stats(parsed, validate(parsed)).as_tuple() == surface_stats(
            c, validate(c)
        ).as_tuple()

    def test_fractions_survive(self):
        c = brick_complex(
            [brick_from_box((0, 0, 0), (Fraction(1, 2), Fraction(3, 7), 1), "f")],
            name="fractions",
        )
        parsed = parse_complex(emit_complex(c))
        assert parsed.bricks == c.bricks

    def test_emit_parse_gives_an_equal_complex(self):
        c = brick_complex(
            sorted(zz_embedded().bricks + fixture("random-3").bricks,
                   key=lambda b: b.id)
            + [brick_from_box((9, 9, 9), (Fraction(19, 2), 10, 11), "z/f.1")],
            name="zz+random-3",
        )
        assert parse_complex(emit_complex(c)) == c

    @pytest.mark.parametrize(
        "label",
        ["two words", "a#b", "#", "a\x1cb", "a\u2028b", "a\n", "\t", ""],
    )
    def test_name_and_labels_must_read_back_as_one_token(self, label):
        with pytest.raises(ComplexError, match="one token"):
            brick_complex([brick_from_box((0, 0, 0), (1, 1, 1), label)])
        if label:  # an empty name is written as no name line
            with pytest.raises(ComplexError, match="one token"):
                brick_complex(
                    [brick_from_box((0, 0, 0), (1, 1, 1), "a")], name=label
                )

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=6), st.text(max_size=6))
    @example("", "a")
    @example("n#", "a")
    @example("n", "a\x1cb")
    def test_every_accepted_name_and_label_round_trips(self, name, label):
        try:
            c = brick_complex(
                [brick_from_box((0, 0, 0), (1, 1, 1), label)], name=name
            )
        except ComplexError:
            return
        assert parse_complex(emit_complex(c)) == c


class TestComplexParseErrors:
    def test_truncated_brick_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_complex("name t\nbrick a 0 0 0 1 0 0\n")

    def test_duplicate_id(self):
        text = (
            "brick a 0 0 0 1 0 0 0 1 0 0 0 1\n"
            "brick a 5 0 0 1 0 0 0 1 0 0 0 1\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_complex(text)

    @pytest.mark.parametrize("second", ["u", "t"])
    def test_second_name_line(self, second):
        # the last name used to win silently
        text = f"name t\nbrick a 0 0 0 1 0 0 0 1 0 0 0 1\n  name  {second}\n"
        with pytest.raises(ParseError,
                           match=rf"^line 3, column 9: second name '{second}'$"):
            parse_complex(text)

    def test_zero_volume_brick(self):
        with pytest.raises(ParseError, match="zero volume"):
            parse_complex("brick a 0 0 0 1 0 0 0 1 0 1 1 0\n")

    def test_bad_scalar_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_complex("brick a 0 0 zero 1 0 0 0 1 0 0 0 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="directive"):
            parse_complex("cube a 0 0 0\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no bricks"):
            parse_complex("# nothing here\n")

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028", "\x85"], ids=ascii)
    def test_lines_end_at_newline_only(self, sep):
        # str.splitlines() also ends a line at each sep; wc -l and grep -n
        # do not, and a sep is whitespace between tokens
        text = (f"brick a 0 0 0 1 0 0 0 1 0 0 0 1{sep}\n"
                f"brick b 1 0 0.5 1 0 0 0 1{sep}0 0 0 1\n")
        with pytest.raises(ParseError, match=r"^line 2, column 13: "):
            parse_complex(text)
        assert parse_complex(text.replace("0.5", "0")).labels == ("a", "b")

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# header\nname t\n\nbrick a 0 0 0 1 0 0 0 1 0 0 0 1  # unit\n"
        assert len(parse_complex(text)) == 1


class TestPieceTableFormat:
    def test_parses_the_builtin_tables_as_text(self):
        text = "cube 4 8 12 3\nconnector 6 0 4 4\n"
        assert parse_piece_table(text) == table_zz()
        text = "ring-quarter 4 20 40 16\narch 2 30 66 32\nbuttress 8 0 4 4\n"
        assert parse_piece_table(text) == table_buttressed_octahedron()

    def test_bad_row_width(self):
        with pytest.raises(ParseError):
            parse_piece_table("cube 4 8 12\n")

    def test_bad_integer(self):
        with pytest.raises(ParseError):
            parse_piece_table("cube 4 8 12 x\n")

    def test_negative_count(self):
        with pytest.raises(ParseError):
            parse_piece_table("cube 4 -8 12 3\n")

    @pytest.mark.parametrize("count", ["+4", "1_2", "\u0668", "--4", "-", "4.0"],
                             ids=ascii)
    def test_count_is_ascii_digits(self, count):
        # int() alone takes the first three
        for column, text in ((6, f"cube {count} 8 12 3\n"),
                             (13, f"cube 4 8 12 {count}\n")):
            with pytest.raises(ParseError, match=rf"^line 1, column {column}: "
                                                 "bad integer in piece row: "):
                parse_piece_table(text)

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_piece_table("# just a comment\n")


class TestScheduleFormat:
    def test_all_operators(self):
        text = (
            "a keep\n"
            "b octasect\n"
            "c quarter\n"
            "d quarter 2\n"
            "e split 0 1/4,1/2\n"
        )
        ops = parse_schedule(text)
        assert ops["a"] == Keep()
        assert ops["b"] == Octasect()
        assert ops["c"] == QuarterLengthwise(None)
        assert ops["d"] == QuarterLengthwise(2)
        assert ops["e"] == SplitAt(0, (Fraction(1, 4), Fraction(1, 2)))

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_schedule("a keep\na octasect\n")

    def test_bad_operator(self):
        with pytest.raises(ParseError):
            parse_schedule("a explode\n")

    def test_bad_direction(self):
        with pytest.raises(ParseError):
            parse_schedule("a quarter 3\n")


class TestObjExport:
    def test_cube_mesh(self):
        mesh = export_obj(fixture("cube"))
        lines = mesh.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 8
        assert sum(1 for l in lines if l.startswith("f ")) == 6

    def test_zz_immersed_full_quad_count(self):
        mesh = export_obj(zz_immersed())
        assert sum(1 for l in mesh.splitlines() if l.startswith("f ")) == 60

    def test_exposed_only_matches_surface_face_count(self):
        c = zz_embedded()
        r = validate(c)
        mesh = export_obj(c, r)
        quads = sum(1 for l in mesh.splitlines() if l.startswith("f "))
        assert quads == surface_stats(c, r).face_count

    def test_deterministic(self):
        assert export_obj(zz_immersed()) == export_obj(zz_immersed())


class TestDecimal:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1, 2), "0.5"),
            (Fraction(-3, 4), "-0.75"),
            (Fraction(7, 1), "7"),
            (Fraction(1, 5), "0.2"),
            (Fraction(1, 8), "0.125"),
        ],
    )
    def test_exact_decimals(self, value, expected):
        assert _decimal(value) == expected

    def test_non_decimal_denominator_uses_float_repr(self):
        assert _decimal(Fraction(1, 3)) == repr(1 / 3)

    @settings(max_examples=50, deadline=None)
    @given(
        st.fractions(
            min_value=-(10**6), max_value=10**6, max_denominator=10**6
        )
    )
    def test_decimal_value_faithful(self, q):
        text = _decimal(q)
        assert abs(Fraction(text) - q) <= abs(q) * Fraction(1, 10**12)


# --- hostile input -----------------------------------------------------------

GOOD_SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"])
SCALAR_TOKENS = GOOD_SCALARS | st.sampled_from(
    ["1/0", "0.5", "1e3", "1_000", "+3", "x"]
)
TOKENS = (
    st.sampled_from(
        ["name", "brick", "a", "b", "keep", "octasect", "quarter", "split",
         "0,1/2", "1/3,2/3", "#", "\t"]
    )
    | SCALAR_TOKENS
    | st.text(max_size=4)
)
BRICK_LINES = st.builds(
    lambda label, nums: " ".join(["brick", label, *nums]),
    st.sampled_from(["a", "b", "c"]),
    st.lists(GOOD_SCALARS, min_size=12, max_size=12)
    | st.lists(SCALAR_TOKENS, min_size=12, max_size=12),
)
LINES = st.lists(
    BRICK_LINES | st.lists(TOKENS, max_size=6).map(" ".join), max_size=5
).map("\n".join)


@pytest.mark.parametrize(
    "parse", [parse_complex, parse_schedule, parse_piece_table],
    ids=lambda f: f.__name__,
)
@settings(max_examples=120, deadline=None)
@given(text=st.text() | LINES)
def test_parsers_raise_only_typed_errors(parse, text):
    try:
        parse(text)
    except (ParseError, ComplexError, GeometryError):
        pass


# --- integer rows -------------------------------------------------------------
#
# parse_complex reads a brick row of 12 ASCII integers through int() in one
# step and any other row token by token through scalar(); both ways must give
# the same brick, or the same error at the same line and column.

INT_TOKENS = st.sampled_from(["0", "1", "-1", "2", "-0", "007", "-3"])
FRACTION_TOKENS = st.sampled_from(["4/2", "1/2", "-3/4"])
BAD_TOKENS = st.sampled_from([
    "\u0663", "\uff13",  # Arabic-Indic and fullwidth 3: int() takes them
    "+3", "1_0",  # int() takes these too
    "9" * 4301,  # past int()'s digit limit, where there is one
])


def brick_rows(tokens):
    """Rows 'brick a' and 12 scalars drawn from tokens, then a comment."""
    return st.builds(lambda nums, sep: sep.join(["brick", "a", *nums]) + "  # row",
                     st.lists(tokens, min_size=12, max_size=12),
                     st.sampled_from([" ", "  ", "\t"]))


def typed_brick(brick: Brick):
    """The brick's id and coordinates, each with its type."""
    points = (brick.origin, *brick.generators)
    return brick.id, [[(type(c), c) for c in p] for p in points]


def per_token(raw: str):
    """What the brick row raw on line 2 gives read token by token with
    scalar(): typed_brick of its brick, or (message, line, column) of the
    ParseError for the first bad token or for the brick."""
    toks = raw.split("#")[0].split()
    try:
        nums = [_parse_scalar(t, 2, raw, i) for i, t in enumerate(toks[2:], start=2)]
        points = (Vec3(*nums[k:k + 3]) for k in (0, 3, 6, 9))
        return typed_brick(Brick(toks[1], *points))
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    except GeometryError as exc:
        return f"line 2, column 1: {exc}", 2, 1


@settings(max_examples=300, deadline=None)
@given(brick_rows(INT_TOKENS)
       | brick_rows(INT_TOKENS | FRACTION_TOKENS)
       | brick_rows(INT_TOKENS | FRACTION_TOKENS | BAD_TOKENS))
@example("brick a -0 007 0 1 0 0 0 1 0 0 0 1")
@example("brick a 1 1/2 -3 2 0 0 0 4/2 0 0 0 1")
@example(f"brick a 0 {'9' * 4301} 0 1 0 0 0 1 0 0 0 1")
@example("brick a 0 0 \u0663 1 0 0 0 1 0 0 0 1")
@example("brick\ta\t0\t0\t0\t1\t0\t0\t0\t1_0\t0\t0\t0\t1")
def test_integer_rows_parse_as_token_by_token(raw):
    expected = per_token(raw)
    try:
        got = typed_brick(parse_complex(f"name t\n{raw}\n").bricks[0])
    except ParseError as exc:
        got = str(exc), exc.line, exc.column
    assert got == expected
