"""Splitting operators: exactness, labeling, and schedule application."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bricks.complexes import brick_complex, validate
from bricks.constructions import fixture, zz_immersed
from bricks.geometry import Brick, ContactKind, brick_from_box, classify_contact, vec3
from bricks.refinement import (
    Octasect,
    QuarterLengthwise,
    RefinementError,
    SplitAt,
    apply_schedule,
    is_cube_shaped,
    octasect,
    quarter_lengthwise,
    split_many,
    standard_zz_schedule,
    two_opposite_covered,
)

UNIT = brick_from_box((0, 0, 0), (1, 1, 1), "unit")
HALF = Fraction(1, 2)


class TestSplitAt:
    """split_many with a single fraction: the SplitAt operator's base case."""

    def test_unit_cube_halves(self):
        lo, hi = split_many(UNIT, 0, [HALF])
        assert lo.u == vec3(HALF, 0, 0) and hi.u == vec3(HALF, 0, 0)
        assert hi.origin == vec3(HALF, 0, 0)
        assert lo.id == "unit/s0" and hi.id == "unit/s1"

    def test_skew_halving_is_linear(self):
        b = Brick("s", vec3(0, 0, 0), vec3(10, 20, 20), vec3(0, 10, 0), vec3(0, 0, 10))
        lo, hi = split_many(b, 0, [HALF])
        assert lo.u == vec3(5, 10, 10) and hi.u == vec3(5, 10, 10)

    def test_children_share_a_whole_face(self):
        lo, hi = split_many(UNIT, 2, [Fraction(1, 3)])
        assert classify_contact(lo, hi).kind is ContactKind.WHOLE_FACE

    @pytest.mark.parametrize("t", [0, 1, Fraction(3, 2), -1])
    def test_bad_fraction_rejected(self, t):
        with pytest.raises(RefinementError):
            split_many(UNIT, 0, [t])

    def test_fraction_given_as_text_rejected_naming_the_brick(self):
        a = brick_from_box((0, 0, 0), (1, 1, 1), "a")
        with pytest.raises(RefinementError, match="brick 'a'"):
            split_many(a, 0, ["1/2"])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    )
    def test_volume_conserved(self, direction, t):
        b = Brick("s", vec3(1, 2, 3), vec3(4, 1, 0), vec3(0, 3, 1), vec3(1, 0, 5))
        lo, hi = split_many(b, direction, [t])
        assert lo.det + hi.det == b.det


class TestOctasect:
    def test_unit_cube(self):
        children = octasect(UNIT)
        assert len(children) == 8
        assert {c.id for c in children} == {
            f"unit/{a}{b}{d}" for a in "01" for b in "01" for d in "01"
        }
        for c in children:
            assert c.u == vec3(HALF, 0, 0)
            assert c.det == Fraction(1, 8)

    def test_rectangular_box(self):
        b = brick_from_box((0, 0, 0), (2, 4, 6), "r")
        for c in octasect(b):
            assert (c.u, c.v, c.w) == (vec3(1, 0, 0), vec3(0, 2, 0), vec3(0, 0, 3))

    def test_children_have_three_sibling_adjacencies(self):
        children = octasect(UNIT)
        for c in children:
            touching = sum(
                1
                for o in children
                if o is not c
                and classify_contact(c, o).kind is ContactKind.WHOLE_FACE
            )
            assert touching == 3

    def test_volume_conserved(self):
        b = Brick("s", vec3(0, 0, 0), vec3(3, 1, 0), vec3(0, 2, 1), vec3(1, 0, 4))
        assert sum(c.det for c in octasect(b)) == b.det


class TestQuarterLengthwise:
    def test_long_bar(self):
        b = brick_from_box((0, 0, 0), (10, 1, 1), "bar")
        children = quarter_lengthwise(b)
        assert len(children) == 4
        for c in children:
            assert c.u == vec3(10, 0, 0)
            assert c.v == vec3(0, HALF, 0) and c.w == vec3(0, 0, HALF)

    def test_cube_tie_is_an_error(self):
        with pytest.raises(RefinementError):
            quarter_lengthwise(UNIT)

    def test_explicit_direction_overrides_tie(self):
        children = quarter_lengthwise(UNIT, long_dir=2)
        assert all(c.w == vec3(0, 0, 1) for c in children)

    def test_skew_connector_long_direction(self):
        b = Brick(
            "conn", vec3(15, 15, 25), vec3(10, 20, 20), vec3(0, 10, 0), vec3(0, 0, 10)
        )
        assert b.u.norm2() == 900
        children = quarter_lengthwise(b)
        for c in children:
            assert c.u == vec3(10, 20, 20)
            assert c.v == vec3(0, 5, 0) and c.w == vec3(0, 0, 5)

    def test_children_have_two_sibling_adjacencies(self):
        b = brick_from_box((0, 0, 0), (10, 1, 1), "bar")
        children = quarter_lengthwise(b)
        for c in children:
            touching = sum(
                1
                for o in children
                if o is not c
                and classify_contact(c, o).kind is ContactKind.WHOLE_FACE
            )
            assert touching == 2


class TestApplySchedule:
    def test_standard_zz_yields_56(self):
        c = zz_immersed()
        refined = apply_schedule(c, standard_zz_schedule(c))
        assert len(refined) == 56

    def test_empty_schedule_is_identity(self):
        c = fixture("column-3")
        assert apply_schedule(c, {}).bricks == c.bricks

    def test_single_cube_octasect_preserves_volume(self):
        c = fixture("cube")
        refined = apply_schedule(c, {c.labels[0]: Octasect()})
        assert len(refined) == 8
        assert sum(b.det for b in refined.bricks) == 1

    def test_unknown_label_rejected(self):
        with pytest.raises(RefinementError):
            apply_schedule(fixture("cube"), {"nope": Octasect()})

    def test_split_at_op(self):
        c = fixture("cube")
        refined = apply_schedule(
            c, {c.labels[0]: SplitAt(0, (Fraction(1, 4), HALF))}
        )
        assert len(refined) == 3
        assert sum(b.det for b in refined.bricks) == 1

    def test_float_split_fraction_rejected_naming_the_parent(self):
        # a float once reached the child's coordinates, and the error named a/s0
        c = brick_complex([brick_from_box((0, 0, 0), (1, 1, 1), "a")])
        with pytest.raises(RefinementError, match="brick 'a':"):
            apply_schedule(c, {"a": SplitAt(0, (0.5,))})

    def test_bad_split_fractions_rejected(self):
        c = fixture("cube")
        for fractions in [(HALF, HALF), (Fraction(3, 4), HALF), (0,), (2,)]:
            with pytest.raises(RefinementError):
                apply_schedule(c, {c.labels[0]: SplitAt(0, tuple(fractions))})

    @pytest.mark.parametrize(
        "name", ["column-3", "ring-3x3", "block-2x2x2", "cross", "bar-chain-3"]
    )
    def test_proper_joining_preserved_on_fixtures(self, name):
        c = fixture(name)
        assert validate(c).properly_joined
        refined = apply_schedule(c, standard_zz_schedule(c))
        assert validate(refined).properly_joined
        assert sum(b.det for b in refined.bricks) == sum(
            b.det for b in c.bricks
        )


# -1 would index from the end, 7 and 5 past it; True would pass for 1
BAD_DIRECTIONS = [-1, 3, 7, True, 1.0, "1"]


class TestDirectionsRejected:
    @pytest.mark.parametrize("direction", BAD_DIRECTIONS, ids=repr)
    def test_split_many(self, direction):
        with pytest.raises(RefinementError, match="split direction must be 0, 1 or 2"):
            split_many(UNIT, direction, [HALF])

    @pytest.mark.parametrize("direction", BAD_DIRECTIONS, ids=repr)
    def test_quarter_lengthwise(self, direction):
        with pytest.raises(RefinementError, match="quarter direction must be 0, 1 or 2"):
            quarter_lengthwise(UNIT, direction)

    @pytest.mark.parametrize(
        "op", [SplitAt(-1, (HALF,)), SplitAt(7, (HALF,)), QuarterLengthwise(-2),
               QuarterLengthwise(5), QuarterLengthwise(True)], ids=repr)
    def test_apply_schedule(self, op):
        c = fixture("cube")
        with pytest.raises(RefinementError, match="direction must be 0, 1 or 2"):
            apply_schedule(c, {c.labels[0]: op})

    def test_an_empty_split_checks_its_direction_too(self):
        with pytest.raises(RefinementError):
            split_many(UNIT, -1, [])


class TestTwoOppositeCovered:
    def test_column_middle_only(self):
        c = fixture("column-3")
        cov = two_opposite_covered(c, validate(c))
        assert list(cov.values()).count(True) == 1

    def test_single_brick_false(self):
        c = fixture("cube")
        assert two_opposite_covered(c, validate(c)) == {c.labels[0]: False}

    def test_zz_immersed_all_true(self):
        c = zz_immersed()
        assert all(two_opposite_covered(c, validate(c)).values())


def test_cube_shape_detection():
    assert is_cube_shaped(UNIT)
    assert not is_cube_shaped(brick_from_box((0, 0, 0), (1, 1, 2), "t"))
    skewcube = Brick("sk", vec3(0, 0, 0), vec3(2, 1, 0), vec3(0, 2, 1), vec3(1, 0, 2))
    assert is_cube_shaped(skewcube)
