"""Exact primitives and contact classification.

The classifier is checked against two independent oracles: a brute-force
half-resolution rasterization of box intersections, and vertex enumeration
over all triples of defining planes for skew pairs.
"""

import copy
import dataclasses
import pickle
import sys
import threading
from fractions import Fraction
from itertools import permutations, product
from math import ceil, floor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bricks.complexes import BrickComplex, validate
from bricks.fileformats import ParseError, emit_complex, parse_complex
from bricks.geometry import (
    DISJOINT,
    EDGE_CODES,
    FACE_CYCLES,
    Brick,
    ContactKind,
    GeometryError,
    Vec3,
    _affine_dim,
    _classify_from_vertices,
    _extents,
    _intersection_vertices,
    _shape,
    _slab_coordinates,
    brick_from_box,
    classify_contact,
    det3,
    format_scalar,
    scalar,
    vec3,
)
from bricks.refinement import (
    _grid,
    expand,
    is_cube_shaped,
    long_direction,
    standard_zz_schedule,
)
from support import (
    fresh,
    inside,
    mirrored,
    planes,
    primitive,
    triple_enumeration_vertices,
    typed,
    zz_level,
)


def box(lo, hi, label="b"):
    return brick_from_box(lo, hi, label)


UNIT = box((0, 0, 0), (1, 1, 1), "unit")


class TestScalar:
    def test_parse(self):
        assert scalar("3/4") == Fraction(3, 4)
        assert scalar("-2") == -2
        assert scalar(Fraction(4, 2)) == 2
        assert isinstance(scalar(Fraction(4, 2)), int)

    def test_rejects_floats_and_junk(self):
        with pytest.raises(GeometryError):
            scalar(0.5)
        with pytest.raises(GeometryError):
            scalar(True)
        with pytest.raises(GeometryError):
            scalar(type("Half", (Fraction,), {})(1, 2))
        with pytest.raises(GeometryError):
            scalar("a/b")
        with pytest.raises(GeometryError):
            scalar("1/0")

    @pytest.mark.parametrize(
        "text", ["0.5", "1e3", "1_000", "+3", " 3", "3/", "/3", "1/-2", "\u0663"]
    )
    def test_accepts_only_integers_and_n_over_d(self, text):
        with pytest.raises(GeometryError):
            scalar(text)

    def test_digit_limit_is_a_geometry_error(self):
        with pytest.raises(GeometryError):
            scalar("1" * 5000)

    @pytest.mark.parametrize(
        "token", ["1" * 4400, "1" * 4000 + "x", "1/" + "0" * 500],
        ids=["digit-limit", "bad-tail", "zero-denominator"])
    def test_long_token_is_quoted_by_head_and_length(self, token):
        with pytest.raises(GeometryError) as info:
            scalar(token)
        message = str(info.value)
        assert len(message) < 200
        assert f"'{token[:20]}'... ({len(token)} characters)" in message

    @pytest.mark.parametrize("text, value", [
        ("7", 7), ("-0", 0), ("007", 7), ("4/2", 2), ("-6/3", -2), ("1/2", Fraction(1, 2))])
    def test_integral_values_parse_to_int(self, text, value):
        parsed = scalar(text)
        assert parsed == value
        assert type(parsed) is type(value)

    def test_format(self):
        assert format_scalar(Fraction(1, 2)) == "1/2"
        assert format_scalar(Fraction(-3, 6)) == "-1/2"
        assert format_scalar(7) == "7"
        assert format_scalar(Fraction(6, 3)) == "2"


# --- every path that makes a brick ------------------------------------------
#
# The constructor, a parsed row (ASCII integers, or n/d scalars), a _grid
# child, dataclasses.replace, pickle and deepcopy all run Brick.__init__.

PATHS = ("constructor", "parse-row", "parse-nd-row", "grid", "replace", "pickle",
         "deepcopy")

# (origin, u, v, w) as vec3 arguments: int and Fraction coordinates, each
# with det(u, v, w) > 0 and < 0
PATH_INPUTS = (
    ((1, 2, 3), (2, 0, 0), (0, 3, 0), (0, 0, 1)),
    ((0, -1, 5), (2, 1, 0), (1, 0, 4), (0, 3, 1)),
    (("1/2", 0, "-7/3"), ("3/2", 0, 0), (0, "1/3", 0), (0, 0, 5)),
    ((0, "5/4", 1), (1, 0, "1/2"), (0, 2, 0), (0, 0, "-3/2")),
)


class Half(Fraction):
    """A Fraction subclass: no exact coordinate."""


def brick_row(fields, nd: bool) -> str:
    """A brick line of fields; with nd, every scalar written n/d, so the row
    is not read as ASCII integers."""
    scalars = [Fraction(c) for k in ("origin", "u", "v", "w") for c in fields[k]]
    text = (f"{c.numerator}/{c.denominator}" if nd else format_scalar(c) for c in scalars)
    return f"brick {fields['id']} " + " ".join(text)


def made_by(path: str, fields: dict) -> Brick:
    """A brick of fields (id, origin, u, v, w) made along path. Pickle,
    deepcopy and _grid start from a brick whose fields were set past its
    checks, as a tampered or corrupted one would be."""
    if path == "constructor":
        return Brick(**fields)
    if path == "replace":
        return dataclasses.replace(UNIT, **fields)
    if path.startswith("parse"):
        return parse_complex(brick_row(fields, path == "parse-nd-row")).bricks[0]
    source = Brick("p", vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
    vars(source).update(fields)
    if path == "pickle":
        return pickle.loads(pickle.dumps(source))
    if path == "deepcopy":
        return copy.deepcopy(source)
    vars(source)["id"] = fields["id"].removesuffix("/c")
    return _grid(source, ((), (), ()), lambda cell: "c")[0]


class TestBrick:
    def test_unit_cube_from_box(self):
        assert UNIT.origin == vec3(0, 0, 0)
        assert UNIT.generators == (vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))

    def test_paper_center_cube(self):
        b = box((28, 38, 48), (32, 42, 52), "C1")
        center = b.origin + (b.u + b.v + b.w).scale(Fraction(1, 2))
        assert center == vec3(30, 40, 50)
        assert b.det == 64

    def test_degenerate_box_rejected(self):
        with pytest.raises(GeometryError):
            box((0, 0, 0), (0, 1, 1))
        with pytest.raises(GeometryError):
            box((0, 0, 0), (1, 1, 0))

    def test_degenerate_box_error_quotes_a_long_label_short(self):
        label = "x" * 5000
        with pytest.raises(GeometryError) as info:
            box((0, 0, 0), (0, 1, 1), label)
        message = str(info.value)
        assert "\n" not in message and len(message) < 250
        assert "(5000 characters)" in message

    def test_non_str_id_rejected(self):
        # the id is checked first, so a zero-volume brick gets the same error
        with pytest.raises(GeometryError, match="must be a str, not int"):
            Brick(5, vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 1, 0))
        with pytest.raises(GeometryError, match="must be a str, not int"):
            Brick(5, vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
        with pytest.raises(GeometryError, match="degenerate box for brick 5"):
            box((0, 0, 0), (0, 1, 1), 5)

    @pytest.mark.parametrize("origin, u", [
        (Vec3(0.0, 0, 0), vec3(1, 0, 0)),
        (vec3(0, 0, 0), Vec3(0.5, 0, 0)),
        (vec3(0, 0, 0), Vec3(True, 0, 0)),
        ((0, 0, 0), vec3(1, 0, 0)),
    ], ids=["float-origin", "float-generator", "bool", "tuple-origin"])
    def test_inexact_coordinates_rejected(self, origin, u):
        with pytest.raises(GeometryError):
            Brick("x", origin, u, vec3(0, 1, 0), vec3(0, 0, 1))

    def test_zero_volume_rejected(self):
        with pytest.raises(GeometryError):
            Brick("z", vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 1, 0))

    def test_canonicalization_flips_negative_det(self):
        b = Brick("n", vec3(0, 0, 0), vec3(0, 1, 0), vec3(1, 0, 0), vec3(0, 0, 1))
        assert b.det > 0
        assert set(b.vertices) == set(UNIT.vertices)

    def test_unit_cube_vertices_are_binary_points(self):
        assert list(UNIT.vertices) == [
            vec3(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        ]
        assert len(UNIT.edge_index) == 12
        assert len({UNIT.face_polygon(f) for f in range(6)}) == 6

    def test_skew_vertex_sum(self):
        b = Brick("s", vec3(0, 0, 0), vec3(10, 20, 20), vec3(0, 10, 0), vec3(0, 0, 10))
        assert b.vertices[7] == vec3(10, 30, 30)

    def test_every_face_has_four_vertices_and_edges(self):
        b = Brick("s", vec3(1, 2, 3), vec3(2, 1, 0), vec3(0, 3, 1), vec3(1, 0, 4))
        for f in range(6):
            poly = b.face_polygon(f)
            assert len(set(poly)) == 4
            for k in range(4):
                seg = tuple(sorted((poly[k], poly[(k + 1) % 4])))
                assert seg in b.edge_index

    @pytest.mark.parametrize("gens", [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((2, 1, 0), (0, 3, 1), (1, 0, 4)),
        ((0, 0, -3), ("1/2", 0, 0), (0, 2, 0)),
    ], ids=["unit", "det-flipped", "skew", "negative-fractional"])
    def test_element_tables_follow_the_generators_and_faces_wind_outward(self, gens):
        """Edge group k runs along generator k; face 2k + side holds the
        vertices whose generator-k coefficient is side, and its corner cycle
        has an outward normal."""
        b = Brick("s", vec3(1, 2, 3), *(vec3(*g) for g in gens))
        vs = b.vertices
        for e, (i, j) in enumerate(EDGE_CODES):
            assert vs[j] == vs[i] + b.generators[e // 4]
        center = b.origin + (b.u + b.v + b.w).scale(Fraction(1, 2))
        for f, cycle in enumerate(FACE_CYCLES):
            assert {c >> (2 - f // 2) & 1 for c in cycle} == {f % 2}
            p = b.face_polygon(f)
            assert (p[1] - p[0]).cross(p[3] - p[0]).dot(p[0] - center) > 0

    @pytest.mark.parametrize("path", PATHS)
    def test_every_path_makes_the_same_brick(self, path):
        """Equal bricks, the same scalar types, det > 0 and v, w swapped
        exactly when det(u, v, w) < 0; only the five fields are held until a
        cached attribute is read, also after pickle or deepcopy of a brick
        that had read them."""
        flips = []
        for origin, u, v, w in PATH_INPUTS:
            o, u, v, w = vec3(*origin), vec3(*u), vec3(*v), vec3(*w)
            b = made_by(path, {"id": "p/c", "origin": o, "u": u, "v": v, "w": w})
            flipped = det3(u, v, w) < 0
            flips.append(flipped)
            expected = ("p/c", o, u, *((w, v) if flipped else (v, w)))
            assert type(b) is Brick
            assert with_types((b.id, b.origin, b.u, b.v, b.w)) == with_types(expected)
            assert set(vars(b)) == {"id", "origin", "u", "v", "w"}
            assert b.det > 0 and b.det == abs(det3(u, v, w))
            assert b == Brick(*expected) and hash(b) == hash(Brick(*expected))
            assert b.vertices == direct_geometry(b)[3]
            if path in ("pickle", "deepcopy"):  # a copy leaves the cache behind
                copied = (pickle.loads(pickle.dumps(b)) if path == "pickle"
                          else copy.deepcopy(b))
                assert "vertices" in vars(b)
                assert set(vars(copied)) == {"id", "origin", "u", "v", "w"}
                assert with_types(copied.vertices) == with_types(b.vertices)
        assert flips == [False, True, False, True]

    @pytest.mark.parametrize("path", PATHS)
    def test_every_path_refuses_the_same_inputs(self, path):
        """A bool, float or Fraction-subclass coordinate (or twelve bools), an
        origin or generator that is not a Vec3, an id that is not a str and
        zero volume raise GeometryError, as a ParseError's cause from a parsed
        row. A row of text holds only numbers, and _grid formats a child's
        label and scales its generators (True * 1 is 1), so those paths get
        the bad values they can hold."""
        cube = {"id": "p/c", "origin": vec3(0, 0, 0), "u": vec3(1, 0, 0),
                "v": vec3(0, 1, 0), "w": vec3(0, 0, 1)}
        types = "Vec3s of ints and Fractions"
        bad = [({"w": vec3(1, 1, 0)}, "zero volume")]
        if not path.startswith("parse"):
            for origin, w in [(Vec3(True, 0, 0), Vec3(0, 0, True)),
                              (Vec3(0.0, 0, 0), Vec3(0, 0, 1.0)),
                              (Vec3(Half(1, 2), 0, 0), Vec3(0, 0, Half(1, 2))),
                              ((0, 0, 0), (0, 0, 1))]:
                bad.append(({"origin": origin}, types))
                if path != "grid":
                    bad.append(({"w": w}, types))
            bad.append(({k: Vec3(*map(bool, p)) for k, p in cube.items() if k != "id"},
                        types))
            if path != "grid":
                bad.append(({"id": 5}, "must be a str, not int"))
        for fields, message in bad:
            with pytest.raises((GeometryError, ParseError)) as info:
                made_by(path, dict(cube, **fields))
            error = info.value.__cause__ if path.startswith("parse") else info.value
            assert type(error) is GeometryError and message in str(error)

    @pytest.mark.parametrize("name", ["_frame", "vertices", "edge_index", "aabb", "box",
                                      "det"])
    def test_cached_attribute_is_kept_in_the_instance_dict(self, name):
        """The first read stores the value in the brick's __dict__; the
        second returns that same object, equal to a fresh brick's."""
        for b in (Brick("s", vec3("1/2", 0, 1), vec3(2, 1, 0), vec3(0, 3, 1), vec3(1, 0, 4)),
                  box((0, "1/3", 0), (2, 1, 1), "r")):
            assert name not in vars(b)
            first = getattr(b, name)
            assert vars(b)[name] is first
            assert getattr(b, name) is first
            assert first == getattr(fresh(b), name)

    def test_threads_reading_fresh_bricks_get_the_serial_values(self):
        """Four threads, more than the host's cores, read _frame and vertices
        of the same fresh bricks at once, thread switches forced often: each
        gets what one thread reading other fresh copies gets, and all get the
        same objects, which stay cached."""
        source = zz_level(3, 1).bricks
        serial = [(b._frame, b.vertices) for b in map(fresh, source)]
        bricks = [fresh(b) for b in source]
        start, results = threading.Barrier(4, timeout=60), [None] * 4

        def read(k):
            start.wait()
            results[k] = [(b._frame, b.vertices) for b in bricks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert with_types(got) == with_types(serial)
        for b, *reads in zip(bricks, *results):
            assert all(first is b._frame and second is b.vertices for first, second in reads)


coords = st.integers(min_value=0, max_value=6)

# Skew pairs the edge clip must get right, as (a, b) for @example. LATTICE
# is a det 1 shear of the unit cube; its translates by lattice vectors tile
# space, so their edges meet each other's slab planes only at t = 0 or 1.
LATTICE = (vec3(1, 0, 0), vec3(1, 1, 0), vec3(1, 1, 1))
SKEW = (vec3(2, 1, 0), vec3(0, 2, 1), vec3(1, 0, 2))
SKEW_QUARTER = tuple(g.scale(Fraction(1, 4)) for g in SKEW)
SKEW_EXAMPLES = {
    # the AABBs overlap in a box of positive volume, the bricks are disjoint
    "aabb-overlap-disjoint": (
        Brick("a", vec3(1, 1, 0), *LATTICE), Brick("b", vec3(2, 0, 0), *LATTICE)
    ),
    "lattice-shared-face": (
        Brick("a", vec3(0, 0, 0), *LATTICE), Brick("b", vec3(1, 0, 0), *LATTICE)
    ),
    # edges cross slab planes at t = 1/3 and 2/3
    "fractional-crossings": (
        Brick("a", vec3(0, 0, 0), *SKEW), Brick("b", vec3(1, 1, 1), *SKEW)
    ),
    # the same pair with 2^k-denominator coordinates: the clip's t-bounds
    # have Fraction numerators and denominators
    "dyadic-coordinates": (
        Brick("a", vec3("1/2", 0, "-1/4"), *SKEW_QUARTER),
        Brick("b", vec3("3/4", "1/4", 0), *SKEW_QUARTER),
    ),
    # the AABBs overlap; a lies within every slab of b, but b lies beyond a
    # slab of a, so only the second order rejects
    "second-order-slab-reject": (
        Brick("a", vec3(-2, 1, 2), vec3(0, -1, 2), vec3(2, -1, 0), vec3(1, 2, -1)),
        Brick("b", vec3(1, 0, 1), vec3(-2, 0, 1), vec3(1, 0, -2), vec3(-2, -2, -2)),
    ),
    # an edge of a enters b's slabs at t = 4/11, 3/7 and 2/3 in turn: each
    # later bound has the smaller numerator, so only cross-multiplying keeps it
    "later-entry-smaller-numerator": (
        Brick("a", vec3(1, -2, 1), vec3(1, 1, 0), vec3(1, -2, -1), vec3(-1, 2, -2)),
        Brick("b", vec3(1, -1, -1), vec3(-1, 1, 2), vec3(0, -1, -2), vec3(-2, -2, 1)),
    ),
    # edges of a cross planes of b's slabs with negative rate exactly at the
    # edge's ends: leaving at t = 0 and entering at t = 1
    "negative-rate-exact-end": (
        Brick("a", vec3(0, 1, 0), vec3(-2, 1, 0), vec3(2, 1, 1), vec3(2, 2, -1)),
        Brick("b", vec3(-1, -1, 2), vec3(-2, 2, 2), vec3(2, 2, 0), vec3(1, 2, -2)),
    ),
}


def skew_examples(test):
    for a, b in SKEW_EXAMPLES.values():
        test = example(a, b)(test)
    return test


# Pairs not of one frame whose bounding boxes are 1/3 apart, for
# @example: the classifier does not test bounding boxes, so the slabs or the
# clip must find them disjoint
APART_EXAMPLES = {
    # a lies beyond a slab of b
    "slab-reject": (
        Brick("a", vec3(-2, 0, 1), vec3(2, 0, 0), vec3(2, -2, 1), vec3(-1, -2, -1)),
        Brick("b", vec3("22/3", -1, 1), vec3(-1, 1, 2), vec3(-2, 2, -1), vec3(-2, -1, 1)),
    ),
    # each lies within every slab of the other: no face normal separates
    # them, and every edge clips to nothing
    "empty-clip": (
        Brick("a", vec3(-2, 0, 1), vec3(1, 2, 0), vec3(1, 1, 2), vec3(1, 2, -1)),
        Brick("b", vec3(0, -1, "16/3"), vec3(-1, 2, -2), vec3(-2, 0, 1), vec3(-1, 0, 1)),
    ),
}


# Frames for co-framed pairs: bricks whose generators share three directions
FRAMES = {
    "axis-aligned": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "unimodular": ((1, 0, 0), (1, 1, 0), (1, 1, 1)),
    "non-unimodular": ((2, 1, 0), (-1, 0, 1), (0, 0, 1)),
    "det-1": ((0, 1, 1), (1, 0, 0), (0, 0, 1)),
}


def framed(label, frame, lo, hi, order=(0, 1, 2), negate=()):
    """The brick lo <= c <= hi in the coordinates c of p = sum c_k D_k over
    the frame D, its generators listed in `order` and those in `negate`
    reversed (the origin moves to the generator's far end)."""
    d = [vec3(*f) for f in frame]
    origin = d[0].scale(lo[0]) + d[1].scale(lo[1]) + d[2].scale(lo[2])
    gens = [d[k].scale(scalar(hi[k]) - scalar(lo[k])) for k in range(3)]
    for k in negate:
        origin, gens[k] = origin + gens[k], gens[k].scale(-1)
    return Brick(label, origin, *(gens[k] for k in order))


def framed_pair(frame, b_lo, b_hi, order, negate):
    """The frame's unit brick, and b with permuted or negated generators."""
    return (framed("a", FRAMES[frame], (0, 0, 0), (1, 1, 1)),
            framed("b", FRAMES[frame], b_lo, b_hi, order, negate))


HALF = Fraction(1, 2)
# one co-framed pair per contact kind
COFRAMED_EXAMPLES = {
    # the AABBs overlap in a box of positive volume
    ContactKind.DISJOINT: framed_pair(
        "non-unimodular", (0, 1, -2), (1, 2, -1), (2, 0, 1), (1,)),
    ContactKind.POINT: framed_pair("det-1", (1, 1, 1), (2, 2, 2), (1, 2, 0), (0, 2)),
    ContactKind.WHOLE_EDGE: framed_pair(
        "unimodular", (1, 1, 0), (2, 2, 1), (2, 1, 0), (2,)),
    ContactKind.PARTIAL_EDGE: framed_pair(
        "non-unimodular", (1, 1, 0), (2, 2, 2), (0, 2, 1), (0, 1)),
    ContactKind.WHOLE_FACE: framed_pair(
        "axis-aligned", (1, 0, 0), (2, 1, 1), (1, 2, 0), (1,)),
    ContactKind.PARTIAL_FACE: framed_pair("det-1", (1, 0, 0), (2, HALF, 1), (2, 0, 1), (0,)),
    ContactKind.VOLUME_OVERLAP: framed_pair(
        "non-unimodular", (HALF, 0, 0), (3 * HALF, 1, 1), (1, 0, 2), (2,)),
}


def coframed_examples(test):
    for pair in COFRAMED_EXAMPLES.values():
        test = example(pair)(test)
    return test


@st.composite
def coframed_pairs(draw):
    """Two bricks of one frame: each generator a frame direction scaled by
    +-1, +-2 or +-1/2, in any order; half-integer origins, and half the time
    b moved so that one of its vertices is one of a's."""
    frame = draw(st.sampled_from(sorted(FRAMES.values())))

    def brick(label):
        gens = [vec3(*f).scale(draw(st.sampled_from((1, 2, HALF, -1, -2, -HALF))))
                for f in frame]
        origin = vec3(*(Fraction(draw(st.integers(-4, 4)), 2) for _ in range(3)))
        return Brick(label, origin, *draw(st.permutations(gens)))

    a, b = brick("a"), brick("b")
    if draw(st.booleans()):
        shift = a.vertices[draw(st.integers(0, 7))] - b.vertices[draw(st.integers(0, 7))]
        b = Brick("b", b.origin + shift, b.u, b.v, b.w)
    return a, b


@st.composite
def grid_boxes(draw, label="b"):
    lo = [draw(coords) for _ in range(3)]
    hi = []
    for c in lo:
        h = draw(st.integers(min_value=c + 1, max_value=7))
        hi.append(h)
    return box(tuple(lo), tuple(hi), label)


@st.composite
def small_bricks(draw, label="s"):
    origin = vec3(*[draw(st.integers(-2, 2)) for _ in range(3)])
    gens = [vec3(*[draw(st.integers(-2, 2)) for _ in range(3)]) for _ in range(3)]
    assume(det3(*gens) != 0)
    return Brick(label, origin, *gens)


@st.composite
def apart_pairs(draw):
    """Two small bricks not of one frame, b moved along an axis until its
    bounding box starts 1/3 beyond a's."""
    a, b = draw(small_bricks("a")), draw(small_bricks("b"))
    assume(a._frame[0] != b._frame[0])
    axis = draw(st.integers(0, 2))
    gap = a.aabb[axis][1] - b.aabb[axis][0] + Fraction(1, 3)
    shift = Vec3(*(gap if k == axis else 0 for k in range(3)))
    return a, Brick("b", b.origin + shift, b.u, b.v, b.w)


class TestClassifyExamples:
    def test_whole_face(self):
        c = classify_contact(UNIT, box((1, 0, 0), (2, 1, 1)))
        assert c.kind is ContactKind.WHOLE_FACE
        assert (c.face_a, c.face_b) == (1, 0)  # +u face of A, -u face of B

    def test_identical_bricks_overlap(self):
        c = classify_contact(UNIT, box((0, 0, 0), (1, 1, 1), "other"))
        assert c.kind is ContactKind.VOLUME_OVERLAP

    def test_corner_touch(self):
        c = classify_contact(UNIT, box((1, 1, 1), (2, 2, 2)))
        assert c.kind is ContactKind.POINT
        assert c.points == (vec3(1, 1, 1),)

    def test_partial_edge(self):
        c = classify_contact(UNIT, box((1, 1, 0), (2, 2, 2)))
        assert c.kind is ContactKind.PARTIAL_EDGE

    def test_whole_edge(self):
        c = classify_contact(UNIT, box((1, 1, 0), (2, 2, 1)))
        assert c.kind is ContactKind.WHOLE_EDGE
        assert c.points == (vec3(1, 1, 0), vec3(1, 1, 1))

    def test_partial_face(self):
        c = classify_contact(UNIT, box((1, 0, 0), (2, Fraction(1, 2), 1)))
        assert c.kind is ContactKind.PARTIAL_FACE

    def test_disjoint(self):
        assert classify_contact(UNIT, box((3, 3, 3), (4, 4, 4))).kind is ContactKind.DISJOINT

    def test_skew_examples(self):
        kinds = {
            name: classify_contact(a, b).kind
            for name, (a, b) in SKEW_EXAMPLES.items()
        }
        assert kinds == {
            "aabb-overlap-disjoint": ContactKind.DISJOINT,
            "lattice-shared-face": ContactKind.WHOLE_FACE,
            "fractional-crossings": ContactKind.VOLUME_OVERLAP,
            "dyadic-coordinates": ContactKind.VOLUME_OVERLAP,
            "second-order-slab-reject": ContactKind.DISJOINT,
            "later-entry-smaller-numerator": ContactKind.VOLUME_OVERLAP,
            "negative-rate-exact-end": ContactKind.VOLUME_OVERLAP,
        }
        for name in ("aabb-overlap-disjoint", "second-order-slab-reject"):
            a, b = SKEW_EXAMPLES[name]
            assert all(
                max(alo, blo) < min(ahi, bhi)
                for (alo, ahi), (blo, bhi) in zip(a.aabb, b.aabb)
            )
        a, b = SKEW_EXAMPLES["second-order-slab-reject"]
        assert _slab_coordinates(a, b) is not None
        assert _slab_coordinates(b, a) is None
        a, b = SKEW_EXAMPLES["fractional-crossings"]
        assert vec3(1, "7/3", "5/3") in _intersection_vertices(a, b)
        a, b = SKEW_EXAMPLES["dyadic-coordinates"]
        assert vec3("3/4", "7/12", "1/6") in _intersection_vertices(a, b)

    def test_apart_examples(self):
        for name, (a, b) in APART_EXAMPLES.items():
            assert a._frame[0] != b._frame[0]
            assert any(ahi < blo or bhi < alo
                       for (alo, ahi), (blo, bhi) in zip(a.aabb, b.aabb))
            assert (_slab_coordinates(a, b) is None) == (name == "slab-reject")
        a, b = APART_EXAMPLES["empty-clip"]
        assert _slab_coordinates(b, a) is not None
        assert _intersection_vertices(a, b) == []

    def test_coframed_examples(self):
        contacts = {kind: classify_contact(a, b)
                    for kind, (a, b) in COFRAMED_EXAMPLES.items()}
        assert {kind: c.kind for kind, c in contacts.items()} == {
            kind: kind for kind in ContactKind}
        a, b = COFRAMED_EXAMPLES[ContactKind.DISJOINT]
        assert all(max(alo, blo) < min(ahi, bhi)
                   for (alo, ahi), (blo, bhi) in zip(a.aabb, b.aabb))
        assert contacts[ContactKind.POINT].points == (vec3(1, 1, 2),)
        assert contacts[ContactKind.WHOLE_EDGE].points == (
            vec3(2, 1, 0), vec3(3, 2, 1))
        face = contacts[ContactKind.WHOLE_FACE]
        assert (face.face_a, face.face_b) == (1, 2)  # +u face of a, +v face of b

    def test_skew_whole_face(self):
        # two copies of the same skew brick stacked along w share a whole face
        a = Brick("a", vec3(0, 0, 0), vec3(2, 1, 0), vec3(0, 2, 1), vec3(1, 0, 2))
        b = Brick("b", vec3(1, 0, 2), vec3(2, 1, 0), vec3(0, 2, 1), vec3(1, 0, 2))
        c = classify_contact(a, b)
        assert c.kind is ContactKind.WHOLE_FACE
        assert (c.face_a, c.face_b) == (5, 4)


def rasterized_dim(a: Brick, b: Brick) -> int:
    """Spec oracle: sample the closed intersection on the half-integer grid
    of [0, 8]^3 and read the dimension off the per-axis extent pattern.

    The grid is sampled in doubled integer coordinates, and only at grid
    points inside both AABBs: no point outside them lies in both bricks.
    """
    a2, b2 = (Brick(x.id, x.origin.scale(2), *(g.scale(2) for g in x.generators))
              for x in (a, b))
    axes = [
        range(max(ceil(alo), ceil(blo), 0), min(floor(ahi), floor(bhi), 16) + 1)
        for (alo, ahi), (blo, bhi) in zip(a2.aabb, b2.aabb)
    ]
    pa, pb = planes(a2), planes(b2)
    pts = [p for p in (vec3(*q) for q in product(*axes)) if inside(pa, p) and inside(pb, p)]
    if not pts:
        return -1
    return sum(
        1 for axis in range(3) if len({p[axis] for p in pts}) > 1
    )


DIM_OF_KIND = {
    ContactKind.DISJOINT: -1,
    ContactKind.POINT: 0,
    ContactKind.WHOLE_EDGE: 1,
    ContactKind.PARTIAL_EDGE: 1,
    ContactKind.WHOLE_FACE: 2,
    ContactKind.PARTIAL_FACE: 2,
    ContactKind.VOLUME_OVERLAP: 3,
}


class TestClassifyProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid_boxes("a"), grid_boxes("b"))
    def test_box_dim_matches_rasterization_oracle(self, a, b):
        assert DIM_OF_KIND[classify_contact(a, b).kind] == rasterized_dim(a, b)

    @settings(max_examples=60, deadline=None)
    @given(grid_boxes("a"), grid_boxes("b"))
    def test_symmetry_boxes(self, a, b):
        assert classify_contact(a, b) == mirrored(classify_contact(b, a))

    @settings(max_examples=25, deadline=None)
    @given(small_bricks("a"), small_bricks("b"))
    @skew_examples
    def test_symmetry_skew(self, a, b):
        assert classify_contact(a, b) == mirrored(classify_contact(b, a))

    @settings(max_examples=25, deadline=None)
    @given(apart_pairs())
    @example(APART_EXAMPLES["slab-reject"])
    @example(APART_EXAMPLES["empty-clip"])
    def test_bounding_boxes_apart_is_disjoint(self, pair):
        a, b = pair
        assert classify_contact(a, b) == DISJOINT
        assert classify_contact(b, a) == DISJOINT

    @settings(max_examples=30, deadline=None)
    @given(
        grid_boxes("a"),
        grid_boxes("b"),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    )
    def test_translation_invariance(self, a, b, t):
        shift = vec3(*t)
        a2 = Brick(a.id, a.origin + shift, a.u, a.v, a.w)
        b2 = Brick(b.id, b.origin + shift, b.u, b.v, b.w)
        c1, c2 = classify_contact(a, b), classify_contact(a2, b2)
        assert c1.kind is c2.kind
        assert (c1.face_a, c1.face_b) == (c2.face_a, c2.face_b)
        assert c2.points == tuple(p + shift for p in c1.points)

    @settings(max_examples=40, deadline=None)
    @given(small_bricks())
    def test_canonical_det_positive(self, b):
        assert b.det > 0


@settings(max_examples=25, deadline=None)
@given(small_bricks("a"), small_bricks("b"))
@skew_examples
def test_intersection_vertices_match_triple_oracle(a, b):
    ours = _intersection_vertices(a, b)
    oracle = triple_enumeration_vertices(a, b)
    assert ours == oracle
    assert _affine_dim(ours) == _affine_dim(oracle)


def clip_contact(a: Brick, b: Brick):
    verts = _intersection_vertices(a, b)
    return _classify_from_vertices(a, b, _affine_dim(verts), verts)


@settings(max_examples=200, deadline=None)
@given(coframed_pairs())
@coframed_examples
def test_coframed_intervals_match_clip(pair):
    """A co-framed pair is classified from frame intervals; the edge clip
    decides it independently, in both orders, down to the scalar types of
    the contact points."""
    a, b = pair
    assert a._frame[0] == b._frame[0]
    for x, y in ((a, b), (b, a)):
        assert typed(classify_contact(x, y)) == typed(clip_contact(x, y))


# b's interval on one frame coordinate against a's [0, 3]: apart below,
# touching below, overlapping in part, equal, strictly inside, touching above
# and apart above
RELATIONS = ((-2, -1), (-1, 0), (-1, 1), (0, 3), (1, 2), (3, 4), (4, 5))


def relation_table():
    """(a, b) in the non-unimodular frame for each of the 343 combinations of
    RELATIONS on the three frame coordinates, b under one generator order
    and sign; then for the 21 cases that vary one coordinate and keep the
    other two equal, b under each of the 6 orders and 8 sign patterns. a
    reverses the two frame directions that the first b keeps, so in each
    slot one of the two bricks runs against the frame."""
    frame, equal = FRAMES["non-unimodular"], RELATIONS[3]
    a = framed("a", frame, *zip(*[equal] * 3), (1, 2, 0), (0, 2))
    for relation in product(RELATIONS, repeat=3):
        yield a, framed("b", frame, *zip(*relation), (2, 0, 1), (1,))
    for k, varied in product(range(3), RELATIONS):
        relation = [varied if i == k else equal for i in range(3)]
        for order, signs in product(permutations(range(3)), product((0, 1), repeat=3)):
            negate = [i for i in range(3) if signs[i]]
            yield a, framed("b", frame, *zip(*relation), order, negate)


def test_coframed_relation_table_matches_clip():
    """Every combination of interval relations, and every generator order and
    sign of a brick, so every (j, flip) of each slot, reaches the co-framed
    classifier; in both orders it agrees with the edge clip. Construction
    keeps det > 0, so the 48 orders and signs give 24 bricks' turns."""
    pairs = list(relation_table())
    assert len(pairs) == 343 + 21 * 48
    turns = {b._frame[2] for _, b in pairs}
    assert len(turns) == 24
    assert all(len({t[k:k + 2] for t in turns}) == 6 for k in (0, 2, 4))
    kinds = set()
    for a, b in pairs:
        assert a._frame[0] == b._frame[0]
        for x, y in ((a, b), (b, a)):
            contact = classify_contact(x, y)
            assert typed(contact) == typed(clip_contact(x, y))
            kinds.add(contact.kind)
    assert kinds == set(ContactKind)


# Bricks of the unimodular frame, given by their frame coordinates, met in
# turn by one axis-aligned brick: apart, touching and overlapping it
MEMO_PARTNERS = {
    ContactKind.DISJOINT: [((2, 0, HALF), (3, 1, 3 * HALF)),
                           ((Fraction(7, 3), 0, 0), (3, 1, 1)),
                           ((0, 0, -1), (1, 1, -HALF))],
    ContactKind.POINT: [((1, 0, 1), (2, 1, 2)), ((HALF, HALF, 1), (1, 1, 2))],
    ContactKind.PARTIAL_EDGE: [((2, -1, HALF), (3, 0, 3 * HALF))],
    ContactKind.PARTIAL_FACE: [((1, -1, 0), (2, 0, HALF))],
    ContactKind.VOLUME_OVERLAP: [((HALF, 0, 0), (3 * HALF, 1, 1))],
}


def test_one_brick_meets_many_of_another_frame():
    """Extents are cached per generator triple and frame: classifying a brick
    in turn against bricks of one other frame gives what fresh copies give,
    and each triple fills one entry for its own frame (through _shape) and
    one for the other frame, which a moved copy shares."""
    a = Brick("a", vec3(0, 0, HALF), vec3(2, 0, 0), vec3(0, 2, 0), vec3(0, 0, 2))
    partners = [(kind, framed("b", FRAMES["unimodular"], lo, hi))
                for kind, boxes in MEMO_PARTNERS.items() for lo, hi in boxes]
    _shape.cache_clear()
    _extents.cache_clear()
    for kind, b in partners:
        for x, y in ((a, b), (b, a)):
            contact = classify_contact(x, y)
            assert contact == classify_contact(fresh(x), fresh(y))
            assert contact.kind is kind
            assert _intersection_vertices(x, y) == triple_enumeration_vertices(x, y)
    entries = _extents.cache_info().currsize
    assert entries == 2 * (1 + len({b.generators for _, b in partners}))
    moved = Brick("m", a.origin + vec3(7, -3, HALF), *a.generators)
    hits = _extents.cache_info().hits
    classify_contact(moved, partners[0][1])
    assert _extents.cache_info().currsize == entries
    assert _extents.cache_info().hits == hits + 1


def test_validate_with_shared_bricks_matches_a_fresh_parse():
    """Two complexes share Brick objects, so the second validate starts with
    the extents the first one kept; it must equal a validate from scratch."""
    bricks = fresh(zz_level(4, 1)).bricks
    assert validate(BrickComplex(bricks[:36])).contacts
    report = validate(BrickComplex(bricks))
    assert report == validate(parse_complex(emit_complex(BrickComplex(bricks))))


# --- the shape cache --------------------------------------------------------
#
# Bricks with equal generators share one cached shape, and 2 == Fraction(2, 1)
# makes triples with integral Fractions equal to their int twins; whichever
# twin fills the entry, each brick must read what these formulas give.


def exact(q):
    """q as Vec3 arithmetic gives it: an int when integral."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def direct_geometry(b: Brick):
    """(det, _frame, aabb, vertices, box) of b from their definitions: box
    is the aabb if each generator has exactly one non-zero component."""
    vertices = tuple(
        Vec3(*(exact(o + x * du + y * dv + z * dw)
               for o, du, dv, dw in zip(b.origin, b.u, b.v, b.w)))
        for x, y, z in product((0, 1), repeat=3))
    aabb = tuple((min(p[i] for p in vertices), max(p[i] for p in vertices))
                 for i in range(3))
    dirs = [primitive(g) for g in b.generators]
    key = tuple(sorted(dirs))
    row, turns = (), ()
    for k in range(3):
        n = key[(k + 1) % 3].cross(key[(k + 2) % 3])
        j = dirs.index(key[k])
        heights = [exact(n.dot(p)) for p in vertices]
        row += min(heights), max(heights)
        turns += j, n.dot(b.generators[j]) < 0
    rectilinear = all(sum(1 for c in g if c != 0) == 1 for g in b.generators)
    box = aabb if rectilinear else None
    return exact(det3(*b.generators)), (key, row, turns), aabb, vertices, box


def with_types(value):
    """value with each scalar paired with its type."""
    if type(value) in (int, Fraction):
        return (type(value), value)
    if isinstance(value, tuple):
        return tuple(map(with_types, value))
    return value


def twin(g: Vec3) -> Vec3:
    """g with each integral component's type swapped between int and Fraction."""
    return Vec3(*(c if Fraction(c).denominator != 1
                  else Fraction(c) if type(c) is int else c.numerator for c in g))


COMPONENTS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([Fraction(2, 1), Fraction(-1, 1), Fraction(0, 1)]),
)
VECTORS = st.builds(Vec3, COMPONENTS, COMPONENTS, COMPONENTS)


@settings(max_examples=200, deadline=None)
@given(VECTORS, VECTORS, VECTORS, VECTORS, VECTORS, st.booleans())
@example(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0),
         Vec3(Fraction(2, 1), 0, 0), False)
@example(Vec3(0, 0, 0), Vec3(Fraction(2, 1), 0, 0), Vec3(0, Fraction(2, 1), 1),
         Vec3(0, 0, 2), Vec3(Fraction(1, 2), 0, -1), True)
@example(Vec3(0, 0, -3), Vec3(Fraction(1, 2), 0, 0), Vec3(0, 2, 0),
         Vec3(1, Fraction(-1, 3), 0), Vec3(0, 0, 0), False)
def test_shared_shape_matches_direct_formulas(u, v, w, o1, o2, twin_first):
    """Two bricks of equal generators, one with each integral component's
    type swapped, built in either order on an empty cache: det, _frame, aabb,
    vertices and box equal their direct formulas in value and type. The
    triple may have det < 0, which construction turns into v, w swapped."""
    assume(det3(u, v, w) != 0)
    _shape.cache_clear()
    triples = [(u, v, w), tuple(map(twin, (u, v, w)))]
    if twin_first:
        triples.reverse()
    bricks = [Brick("a", o1, *triples[0]), Brick("b", o2, *triples[1])]
    assert _shape.cache_info().currsize == 0
    for b in bricks:
        assert b.det > 0
        got = (b.det, b._frame, b.aabb, b.vertices, b.box)
        assert with_types(got) == with_types(direct_geometry(b))
    assert _shape.cache_info().currsize == 1
    # the box offsets are normalized at the source: an int-origin brick adds
    # its origin to them with no demotion
    offsets = tuple((exact(lo - o), exact(hi - o))
                    for o, (lo, hi) in zip(bricks[0].origin, bricks[0].aabb))
    assert with_types(_shape(u, v, w)[2]) == with_types(offsets)


def test_shape_cache_stays_bounded():
    """More distinct generator triples than the cache holds keep it at its
    bound; bricks whose shapes were evicted validate as a fresh parse."""
    bound = _shape.cache_info().maxsize
    bricks = tuple(
        Brick(f"s{i}", vec3(i, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0),
              vec3(0, i, 1))
        for i in range(bound + 100))
    complex = BrickComplex(bricks)
    report = validate(complex)
    assert _shape.cache_info().currsize <= bound
    assert len(report.contacts) == len(bricks) - 1
    assert report == validate(parse_complex(emit_complex(complex)))


# --- the extents cache ------------------------------------------------------
#
# Bricks with equal generators share one entry of _extents per frame, and
# int and integral-Fraction twins are equal keys; whichever twin fills it,
# each brick must read what the definitions give and classify alike.


def extents_from_definitions(x: Brick, key):
    """Per slab of the frame key: (n, min, max, n.(p - o) at x's vertices p
    in vertex-code order, n.g per generator g of x), o the origin and n the
    cross product of the slab's other two frame directions."""
    vertices = direct_geometry(x)[3]
    out = []
    for k in range(3):
        n = key[(k + 1) % 3].cross(key[(k + 2) % 3])
        side = tuple(exact(n.dot(p) - n.dot(x.origin)) for p in vertices)
        rates = tuple(exact(n.dot(g)) for g in x.generators)
        out.append((n, min(side), max(side), side, rates))
    return tuple(out)


@st.composite
def skew_pairs(draw):
    """Two bricks not of one frame, their origins and generators drawn from
    VECTORS; half the time b is moved so that one of its vertices is one of
    a's."""
    def brick(label):
        gens = [draw(VECTORS) for _ in range(3)]
        assume(det3(*gens) != 0)
        return Brick(label, draw(VECTORS), *gens)

    a, b = brick("a"), brick("b")
    assume(a._frame[0] != b._frame[0])
    if draw(st.booleans()):
        shift = a.vertices[draw(st.integers(0, 7))] - b.vertices[draw(st.integers(0, 7))]
        b = Brick("b", b.origin + shift, b.u, b.v, b.w)
    return a, b


@settings(max_examples=80, deadline=None)
@given(skew_pairs(), st.booleans())
@example(SKEW_EXAMPLES["second-order-slab-reject"], False)
@example(SKEW_EXAMPLES["negative-rate-exact-end"], True)
@example((Brick("a", vec3("1/2", 0, "-1/4"), *SKEW_QUARTER),
          Brick("b", vec3("3/4", "1/4", 0), *(g.scale(HALF) for g in LATTICE))),
         False)
@example((Brick("a", vec3(0, 0, 0), vec3(Fraction(2, 1), 0, 0), vec3(1, 1, 0),
                vec3(0, 0, 1)),
          Brick("b", vec3(1, 0, 0), vec3(1, 1, 0), vec3(0, 1, 1), vec3(1, 0, 1))),
         True)
def test_shared_extents_match_direct_formulas(pair, twin_first):
    """A skew pair and its twin, each integral generator component's type
    swapped, classified in both orders on empty caches, the twins first or
    last: each triple fills one entry for its own frame and one for the
    other brick's, each equal to its definition in value and type, and both
    pairs give equal contacts, scalar types included."""
    twins = tuple(Brick(x.id, x.origin, *map(twin, x.generators)) for x in pair)
    _shape.cache_clear()
    _extents.cache_clear()
    contacts = []
    for a, b in (twins, pair) if twin_first else (pair, twins):
        contacts.append((typed(classify_contact(a, b)), typed(classify_contact(b, a))))
    assert contacts[0] == contacts[1]
    assert _extents.cache_info().currsize == 4
    for x in pair:
        for key in (y._frame[0] for y in pair):
            got = _extents(x.u, x.v, x.w, key)
            assert with_types(got) == with_types(extents_from_definitions(x, key))
    assert _extents.cache_info().currsize == 4


def test_refined_zz_levels_fill_one_entry_per_triple_and_frame():
    """Every refinement level of zz-embedded has 11 generator triples and
    11 frames, so a fresh validate of the 2,688-brick level fills at most
    121 entries however many skew pairs it classifies; the cache has the
    shape cache's bound."""
    assert _extents.cache_info().maxsize == _shape.cache_info().maxsize
    c = fresh(zz_level(4, 3))
    assert len(c) == 2688
    assert len({b.generators for b in c}) == len({b._frame[0] for b in c}) == 11
    _extents.cache_clear()
    assert validate(c).properly_joined
    assert 0 < _extents.cache_info().currsize <= 121


# --- Vec3.scale ---------------------------------------------------------------
#
# scale forms each product as an exact quotient, a Fraction only where it is
# not integral; it must give what multiplying and demoting gives.

INT_VECTORS = st.builds(Vec3, *[st.integers(-10**6, 10**6)] * 3)
FACTORS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.sampled_from([Fraction(2, 1), Fraction(-3, 1), Fraction(0, 1)]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(VECTORS, INT_VECTORS), FACTORS)
@example(Vec3(3, 1, -5), HALF)  # odd components stay Fractions
@example(Vec3(7, -9, 2), Fraction(-2, 3))
@example(Vec3(Fraction(3, 7), Fraction(-5, 3), 2), Fraction(-21, 5))
@example(Vec3(Fraction(3, 2), Fraction(2, 1), -4), Fraction(-1, 2))
@example(Vec3(Fraction(5, 9), 0, 1), 9)
def test_scale_matches_the_demoting_product(v, k):
    got = v.scale(k)
    assert type(got) is Vec3
    assert with_types(got) == with_types(Vec3(*(exact(c * k) for c in v)))


@pytest.mark.parametrize("side", [4, 3])
def test_refined_children_have_the_demoting_products_types(side):
    """Octants and quarters of zz-embedded and of its first refinement, in
    their cell order: each cut generator is halved and each child's origin
    moved by the halves of its cell, as multiplying and demoting gives, so
    side 3 gets Fractions where they are not integral, and side 4 ints."""
    fractional = False
    for parent in (*zz_level(side, 0), *zz_level(side, 1)):
        op = standard_zz_schedule(BrickComplex((parent,)))[parent.id]
        cut = [True] * 3 if is_cube_shaped(parent) else [
            k != long_direction(parent) for k in range(3)]
        halves = [Vec3(*(exact(c * HALF) for c in g)) for g in parent.generators]
        expected = []
        for cell in product(*((0, 1) if c else (0,) for c in cut)):
            origin = parent.origin
            for k in (k for k in range(3) if cell[k]):
                origin = Vec3(*(exact(p + q) for p, q in zip(origin, halves[k])))
            gens = [halves[k] if cut[k] else g for k, g in enumerate(parent.generators)]
            expected.append((origin, *gens))
        children = expand(parent, op)
        got = [(c.origin, c.u, c.v, c.w) for c in children]
        assert with_types(got) == with_types(expected)
        fractional |= any(type(x) is Fraction for c in got for p in c for x in p)
    assert fractional == (side == 3)
