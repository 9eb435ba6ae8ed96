"""Exact rational 3D primitives: scalars, vectors, parallelepiped bricks,
and pairwise contact classification.

Every predicate in this module is computed over exact rationals (Python ints
and ``fractions.Fraction``); no floating point is used anywhere. Whole-face /
whole-edge equality is an exact question, and midpoint splits introduce
denominators of 2, so exactness is not optional.

Two bricks whose generators share three directions are co-framed (two
axis-aligned boxes are the special case). Along the normal of each pair of
frame directions each brick is an interval, so a co-framed pair is decided
from three interval overlaps, the oriented-box reduction of Gottschalk, Lin
& Manocha (OBBTree, 1996), here unrolled on two rows of six interval ends;
contact points are picked from the vertices into a Contact built without
its frozen __init__.
Each brick's slabs come from its frame: one per pair of frame directions,
with that pair's cross product as normal. A pair of another kind is
disjoint if one brick lies beyond a slab of the other (its extent along the
slab's normal ends below the slab or starts above it). Else each brick's
edges are clipped to the other's slabs, with t-bounds kept as integer-style
numerator/denominator pairs compared by cross-multiplying, giving exactly
the vertices of a ∩ b (none iff disjoint); the contact kind follows from
their affine dimension.
``classify_contact`` is total and tests no bounding box: it answers any
pair, boxes apart or not, and its callers choose which pairs to ask about.

Slab data come from one table, ``_extents``, per generator triple and
frame: each slab's normal and the extents of the brick placed at the
origin. Bricks with equal generators share one shape: frame key, own-frame
entry, AABB and vertex offsets and det, each brick adding its origin. Both
are thread-safe ``functools.lru_cache``s of 1024 immutable entries, and
their values are normalized (an integral value is an int). An int plus a
normalized value is normalized, so a brick with an all-int origin adds it
with no ``_norm``, Vec3 sums and differences of ints skip it too, and
Vec3.scale makes a Fraction only for a product that is not integral.

Within one ``complexes.validate`` pass, skew contacts are memoized by
translation. Moving both bricks by t keeps the kind and the face indices and
moves each contact point by t (sorted points stay sorted), so a skew pair is
keyed by both generator triples and the offset between the origins, and a
repeat of a key is answered from its first pair, the points moved. The memo
is a ``contextvars.ContextVar`` that the pass sets and resets: one memo per
pass and per thread or context, nothing shared, and none outside a pass.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

Scalar = Union[int, Fraction]
_EXACT_TYPES = frozenset((int, Fraction))


class GeometryError(ValueError):
    """Degenerate or non-exact geometric input."""


def _norm(q: Scalar) -> Scalar:
    # keep integral values as plain ints: faster arithmetic, cleaner output
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def _ints(v) -> bool:
    # an int plus a normalized value is normalized: no _norm needed
    return type(v[0]) is type(v[1]) is type(v[2]) is int


_SCALAR_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _quoted(token: str) -> str:
    """repr of a token; a long one by its head and length, so that an error
    line stays short."""
    if type(token) is not str or len(token) <= 40:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def scalar(value) -> Scalar:
    """Coerce an int, Fraction, or "n" / "n/d" string to an exact scalar.

    Floats, bools and Fraction subclasses are refused. Strings are ASCII
    digits with an optional leading "-" (no decimals, exponents, "+" or "_");
    Python's int digit limit bounds their length.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if type(value) is Fraction:  # exact type: skips the ABC instance check
        return _norm(value)
    if isinstance(value, str):
        reason = "expected an integer or n/d"
        if _SCALAR_TEXT.fullmatch(value):
            try:
                return int(value) if "/" not in value else _norm(Fraction(value))
            except ZeroDivisionError as exc:
                reason = str(exc)
            except ValueError:  # the only one left: int()'s digit limit
                reason = "more digits than int allows"
        raise GeometryError(f"cannot parse scalar {_quoted(value)}: {reason}")
    raise GeometryError(f"not an exact scalar: {value!r}")


def format_scalar(q: Scalar) -> str:
    """Render a scalar as an exact decimal-free token: "5" or "-3/4".

    A scalar with more digits than Python's int-to-str limit allows raises
    GeometryError, not str()'s bare ValueError."""
    try:
        return str(q)  # a Fraction of denominator 1 prints as its numerator
    except ValueError:
        raise GeometryError("a value has more digits than Python's "
                            "int-to-str limit allows") from None


class Vec3(NamedTuple):
    """An exact 3-vector; also used for points (Point3 is an alias).

    Arithmetic demotes integral Fractions back to plain ints, which keeps
    the hot predicates in fast integer arithmetic whenever inputs are
    integral. A sum or difference whose three results are ints needs no
    demotion: it is built by tuple.__new__, with no _norm and no call of the
    Python-level __new__, and equals the demoting path's in value and type.
    """

    x: Scalar
    y: Scalar
    z: Scalar

    def __add__(self, other: "Vec3") -> "Vec3":
        x, y, z = self.x + other.x, self.y + other.y, self.z + other.z
        if type(x) is type(y) is type(z) is int:
            return tuple.__new__(Vec3, (x, y, z))
        return Vec3(_norm(x), _norm(y), _norm(z))

    def __sub__(self, other: "Vec3") -> "Vec3":
        x, y, z = self.x - other.x, self.y - other.y, self.z - other.z
        if type(x) is type(y) is type(z) is int:
            return tuple.__new__(Vec3, (x, y, z))
        return Vec3(_norm(x), _norm(y), _norm(z))

    def scale(self, k: Scalar) -> "Vec3":
        """self * k, each c * k the exact quotient of the numerators' product
        by the denominators': a Fraction only where it is not integral."""
        n, d = k.numerator, k.denominator
        out = []
        for c in self:
            p, q = c.numerator * n, c.denominator * d
            out.append(Fraction(p, q) if p % q else p // q)
        return tuple.__new__(Vec3, out)

    def dot(self, other: "Vec3") -> Scalar:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return tuple.__new__(Vec3, (
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        ))

    def norm2(self) -> Scalar:
        """Squared Euclidean length (exact)."""
        return self.dot(self)


Point3 = Vec3


def vec3(x, y, z) -> Vec3:
    return Vec3(scalar(x), scalar(y), scalar(z))


def det3(a: Vec3, b: Vec3, c: Vec3) -> Scalar:
    return a.dot(b.cross(c))


# --- canonical element tables -------------------------------------------
#
# Vertex code 0..7 packs the generator coefficients (a, b, c) as a*4+b*2+c,
# which is exactly lexicographic order on (a, b, c). Edge and face orderings
# are derived from the codes so that element indices are stable everywhere.

VERTEX_COEFFS = tuple(product((0, 1), repeat=3))

# The frame key of a rectilinear brick: the three unit axes, sorted.
_AXIS_FRAME = ((0, 0, 1), (0, 1, 0), (1, 0, 0))

# Generator k's bit in a code is 4 >> k. Edge group k joins each code c
# without that bit to c with it.
EDGE_CODES = tuple((c, c | 4 >> k)
                   for k in range(3) for c in range(8) if not c & 4 >> k)

# Face index 2*k + side for generator k; side 0 contains the origin. With bi,
# bj the bits of generators k+1, k+2 (mod 3), corner cycles are oriented so
# the quad normal points out of the brick (assuming det(u, v, w) > 0, which
# construction guarantees).
FACE_CYCLES = tuple(
    face
    for bk, bi, bj in ((4, 2, 1), (2, 1, 4), (1, 4, 2))
    for face in ((0, bj, bi | bj, bi), (bk, bk | bi, bk | bi | bj, bk | bj))
)


# --- the brick ------------------------------------------------------------


@dataclass(frozen=True, init=False)
class Brick:
    """A parallelepiped: an origin plus three independent generator vectors.

    Stored canonically with det(u, v, w) > 0; construction swaps v and w if
    needed (this preserves the point set). Zero volume is rejected, and so
    are an id that is not a str and an origin or generator that is not a
    Vec3 of ints and Fractions. __init__ (for dataclasses.replace, pickle
    and copy too) checks once and sets the fields in the instance __dict__,
    where values fixed by them are cached on first read.
    """

    id: str
    origin: Point3
    u: Vec3
    v: Vec3
    w: Vec3

    def __init__(self, id: str, origin: Point3, u: Vec3, v: Vec3, w: Vec3):
        if type(id) is not str:
            raise GeometryError(f"brick id must be a str, not {type(id).__name__}")
        # exact types, not isinstance: a bool is an int, but True is no coordinate
        if not (type(origin) is type(u) is type(v) is type(w) is Vec3
                and _EXACT_TYPES.issuperset(map(type, (*origin, *u, *v, *w)))):
            raise GeometryError(f"brick {_quoted(id)}: origin and generators "
                                "must be Vec3s of ints and Fractions")
        d = det3(u, v, w)
        if d == 0:
            raise GeometryError(f"brick {_quoted(id)} has zero volume")
        state = self.__dict__
        state["id"], state["origin"], state["u"] = id, origin, u
        state["v"], state["w"] = (v, w) if d > 0 else (w, v)

    def __reduce__(self):  # through __init__, without the cache
        return Brick, (self.id, self.origin, self.u, self.v, self.w)

    @property
    def generators(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.u, self.v, self.w)

    @cached_property
    def det(self) -> Scalar:
        return _shape(self.u, self.v, self.w)[4]

    @cached_property
    def vertices(self) -> tuple[Point3, ...]:
        ox, oy, oz = self.origin
        offsets = _shape(self.u, self.v, self.w)[3]
        if _ints(self.origin):
            return tuple([tuple.__new__(Vec3, (ox + x, oy + y, oz + z))
                          for x, y, z in offsets])
        return tuple(Vec3(_norm(ox + x), _norm(oy + y), _norm(oz + z))
                     for x, y, z in offsets)

    @cached_property
    def edge_index(self) -> dict[tuple[Point3, Point3], int]:
        """Edge index of each of the 12 edges, keyed by its sorted end points."""
        vs = self.vertices
        return {tuple(sorted((vs[a], vs[b]))): i
                for i, (a, b) in enumerate(EDGE_CODES)}

    def face_polygon(self, face_index: int) -> tuple[Point3, ...]:
        """Corner cycle of a face, oriented outward."""
        vs = self.vertices
        return tuple(vs[c] for c in FACE_CYCLES[face_index])

    @cached_property
    def aabb(self) -> tuple[tuple[Scalar, Scalar], ...]:
        ends = _shape(self.u, self.v, self.w)[2]
        if _ints(self.origin):
            return tuple([(c + lo, c + hi) for c, (lo, hi) in zip(self.origin, ends)])
        return tuple((_norm(c + lo), _norm(c + hi))
                     for c, (lo, hi) in zip(self.origin, ends))

    @cached_property
    def box(self) -> Optional[tuple[tuple[Scalar, Scalar], ...]]:
        """Axis intervals if the brick is rectilinear, else None.

        Rectilinear means every generator is parallel to a coordinate axis
        (the point set is then an axis-aligned box), so its frame key is
        the three unit axes.
        """
        return self.aabb if self._frame[0] == _AXIS_FRAME else None

    @cached_property
    def _frame(self):
        """(key, row, turns): row (lo0, hi0, lo1, hi1, lo2, hi2) holds slab k
        of the brick's own frame (_shape) moved to its origin, the brick being
        the points p with lok <= n.p <= hik for the normal n of that _extents
        entry; turns is _shape's shared (j0, flip0, j1, flip1, j2, flip2)."""
        key, slabs, _, _, _, turns = _shape(self.u, self.v, self.w)
        o = self.origin
        row = [base + end for n, *ends, _, _ in slabs
               for base in [n.dot(o)] for end in ends]
        return key, tuple(row if _ints(o) else map(_norm, row)), turns


@lru_cache(maxsize=1024)
def _shape(u: Vec3, v: Vec3, w: Vec3):
    """What a brick owes to its generators alone, computed once per triple:
    (key, slabs, box, offsets, det, turns). The key is the frame D: the
    generator directions as primitive integer vectors, first non-zero entry
    positive, sorted. slabs is _extents(u, v, w, key), the brick's slabs in
    its own frame, turns per slab (j, n.g_j < 0) for the generator j not
    orthogonal to its normal n, box per axis the sums of the generators'
    negative and positive components, offsets the 8 vertices less the origin
    in vertex-code order. Equal triples share an entry (2 == Fraction(2, 1)),
    so what a brick reads from it is normalized, an integral value an int:
    then it does not depend on which triple filled the entry."""
    dirs = []
    for g in (u, v, w):
        m = lcm(*(c.denominator for c in g))
        ints = [c.numerator * (m // c.denominator) for c in g]
        q = gcd(*ints) * (1 if next(c for c in ints if c) > 0 else -1)
        dirs.append(Vec3(*(c // q for c in ints)))
    key = tuple(sorted(dirs))
    box = tuple((_norm(sum(c for c in cs if c < 0)),
                 _norm(sum(c for c in cs if c > 0))) for cs in zip(u, v, w))
    offsets = tuple(u.scale(a) + v.scale(b) + w.scale(c) for a, b, c in VERTEX_COEFFS)
    slabs = _extents(u, v, w, key)  # per slab one rate is not 0: its index and sign
    turns = sum(((list(map(bool, r)).index(True), sum(r) < 0) for *_, r in slabs), ())
    return key, slabs, box, offsets, _norm(det3(u, v, w)), turns


@lru_cache(maxsize=1024)
def _extents(u: Vec3, v: Vec3, w: Vec3, key):
    """The slab table, the only code that computes slab data: per slab k of
    the frame key, (n, min, max, n.p at the 8 vertices in vertex-code order,
    n.g for u, v, w) for the normal n = key[k+1] x key[k+2] and the brick
    u, v, w placed at the origin, normalized as _shape's values are."""
    out = []
    for k in range(3):
        n = key[(k + 1) % 3].cross(key[(k + 2) % 3])
        ru, rv, rw = rates = tuple(_norm(n.dot(g)) for g in (u, v, w))
        side = tuple(_norm(a * ru + b * rv + c * rw) for a, b, c in VERTEX_COEFFS)
        out.append((n, min(side), max(side), side, rates))
    return tuple(out)


def brick_from_box(min_corner, max_corner, id: str) -> Brick:
    """Axis-aligned brick spanning [min, max]; extents must be positive."""
    lo = vec3(*min_corner) if not isinstance(min_corner, Vec3) else min_corner
    hi = vec3(*max_corner) if not isinstance(max_corner, Vec3) else max_corner
    ext = hi - lo
    if ext.x <= 0 or ext.y <= 0 or ext.z <= 0:
        raise GeometryError(
            f"degenerate box for brick {_quoted(id)}: extents {ext} must be positive"
        )
    return Brick(
        id, lo, Vec3(ext.x, 0, 0), Vec3(0, ext.y, 0), Vec3(0, 0, ext.z)
    )


# --- contact classification ------------------------------------------------


class ContactKind(Enum):
    DISJOINT = "disjoint"
    POINT = "point"
    WHOLE_EDGE = "whole-edge"
    WHOLE_FACE = "whole-face"
    VOLUME_OVERLAP = "volume-overlap"
    PARTIAL_FACE = "partial-face"
    PARTIAL_EDGE = "partial-edge"


# read per contact: a global costs about 7 ns, ContactKind.POINT about 110 ns
_POINT, _WHOLE_EDGE, _WHOLE_FACE = (ContactKind.POINT, ContactKind.WHOLE_EDGE,
                                     ContactKind.WHOLE_FACE)
# a tuple, so Contact.improper compares by identity and never calls Enum.__hash__
_IMPROPER_KINDS = (ContactKind.VOLUME_OVERLAP, ContactKind.PARTIAL_FACE,
                   ContactKind.PARTIAL_EDGE)
IMPROPER_KINDS = frozenset(_IMPROPER_KINDS)


@dataclass(frozen=True, slots=True)
class Contact:
    """Classification of the intersection of a brick pair.

    points carries the contact point (POINT) or the segment endpoints
    (WHOLE_EDGE); face_a / face_b are the face indices of a whole-face
    contact, relative to the pair order used at classification time.
    """

    kind: ContactKind
    points: tuple[Point3, ...] = ()
    face_a: Optional[int] = None
    face_b: Optional[int] = None

    @property
    def improper(self) -> bool:
        return self.kind in _IMPROPER_KINDS


def _slotted(cls):
    """cls(x, y, z) for a frozen slotted dataclass cls, without its generated
    __init__: slots are set through their member descriptors, any past z to None."""
    new, given = object.__new__, fields(cls)
    if any(f.default is not None for f in given[3:]):
        raise TypeError(f"{cls.__name__}: a field past the third has a default other than None")
    set_x, set_y, set_z, *rest = [getattr(cls, f.name).__set__ for f in given]
    def make(x, y, z=None):
        record = new(cls)
        set_x(record, x)
        set_y(record, y)
        set_z(record, z)
        for set_none in rest:
            set_none(record, None)
        return record
    return make


_new_contact = _slotted(Contact)  # a POINT or WHOLE_EDGE contact: kind, points
DISJOINT = Contact(ContactKind.DISJOINT)
# shared: improper contacts by the dimension of a ∩ b, whole faces by 6fa + fb
_IMPROPER = (None, Contact(ContactKind.PARTIAL_EDGE), Contact(ContactKind.PARTIAL_FACE),
             Contact(ContactKind.VOLUME_OVERLAP))
_WHOLE_FACES = tuple(Contact(_WHOLE_FACE, (), *divmod(f, 6))
                     for f in range(36))


def _slab_coordinates(x: Brick, y: Brick):
    """x in y's slab coordinates: per slab of y's frame, (lo, hi, n.p at x's
    8 vertices in vertex-code order, n.g for x's 3 generators), the values
    those of x placed at the origin (_extents) and lo, hi moved by -n.o for
    x's origin o. None if x lies beyond a slab, all its values below lo or
    all above hi: x is then in an open half-space that misses y.
    """
    key, row, _ = y._frame
    o, out = x.origin, []
    for lo, hi, (n, least, most, side, rates) in zip(
            row[::2], row[1::2], _extents(x.u, x.v, x.w, key)):
        base = n.dot(o)
        lo, hi = lo - base, hi - base
        if most < lo or least > hi:
            return None
        out.append((lo, hi, side, rates))
    return out


def _clip(x: Brick, slabs):
    """Yield the ends of the part of each edge of x inside y, given x in y's
    slab coordinates (the caller has already rejected a pair in which one
    brick lies beyond a slab of the other): the edge p + t*g, t in [0, 1],
    clipped to lo <= n.p <= hi (Liang-Barsky). The t-bounds are numerators
    over positive denominators, compared by cross-multiplying; a Fraction is
    built only for a point where a slab plane is crossed at 0 < t < 1.
    """
    vs, gens = x.vertices, x.generators
    for e, (i, j) in enumerate(EDGE_CODES):
        k = e // 4  # edges are grouped by generator: vs[j] == vs[i] + gens[k]
        n0, d0, n1, d1 = 0, 1, 1, 1  # t in [n0/d0, n1/d1]
        for lo, hi, side, rates in slabs:
            s, d = side[i], rates[k]
            # inside for enter/d <= t <= leave/d; if d == 0 (edge parallel
            # to the slab) the test below is lo <= s <= hi and t is unclipped
            enter, leave = (lo - s, hi - s) if d >= 0 else (s - hi, s - lo)
            d = abs(d)
            if leave < 0 or enter > d:
                break
            if enter * d0 > n0 * d:
                n0, d0 = enter, d
            if leave * d1 < n1 * d:
                n1, d1 = leave, d
        else:
            if n0 * d1 <= n1 * d0:
                for n, d in ((n0, d0), (n1, d1)):
                    if n == 0 or n == d:
                        yield vs[j] if n else vs[i]
                    else:
                        yield vs[i] + gens[k].scale(Fraction(n, d))


def _intersection_vertices(a: Brick, b: Brick) -> list[Point3]:
    """Vertices of the convex polytope a ∩ b, exactly; empty iff disjoint.

    Each vertex lies on an edge of one brick (two of its three facet planes
    are that brick's) and ends the edge's part inside the other brick; each
    such end is a brick vertex or on an edge and a transversal plane.
    """
    ab = _slab_coordinates(a, b)
    ba = ab and _slab_coordinates(b, a)
    if not ba:
        return []
    return sorted({*_clip(a, ab), *_clip(b, ba)})


def _affine_dim(points) -> int:
    if not points:
        return -1
    p0 = points[0]
    diffs = [p - p0 for p in points[1:] if p != p0]
    if not diffs:
        return 0
    d1 = diffs[0]
    normal = None
    for d in diffs[1:]:
        c = d1.cross(d)
        if any(c):
            normal = c
            break
    if normal is None:
        return 1
    for d in diffs:
        if normal.dot(d) != 0:
            return 3
    return 2


def _classify_from_vertices(a: Brick, b: Brick, dim: int, verts) -> Contact:
    if dim < 0:
        return DISJOINT
    if dim == 0:
        return _new_contact(_POINT, (verts[0],))
    if dim == 1:
        seg = (verts[0], verts[-1])  # verts sorted and collinear
        if seg in a.edge_index and seg in b.edge_index:
            return _new_contact(_WHOLE_EDGE, seg)
        return Contact(ContactKind.PARTIAL_EDGE)
    if dim == 2:
        vset = frozenset(verts)
        fa = next((f for f in range(6) if frozenset(a.face_polygon(f)) == vset), None)
        fb = next((f for f in range(6) if frozenset(b.face_polygon(f)) == vset), None)
        if fa is not None and fb is not None:
            return Contact(_WHOLE_FACE, (), fa, fb)
        return Contact(ContactKind.PARTIAL_FACE)
    return Contact(ContactKind.VOLUME_OVERLAP)


def _coframed_contact(a: Brick, b: Brick) -> Contact:
    """Classify a ∩ b for bricks of one frame from their rows, slot by slot:
    the first slot whose intervals are apart is DISJOINT, and each one where
    they only touch fixes a's generator there to one end, which gives face
    indices and the vertex codes of contact points (a contact without any is shared)."""
    _, (al0, ah0, al1, ah1, al2, ah2), turns = a._frame
    _, (bl0, bh0, bl1, bh1, bl2, bh2), b_turns = b._frame
    if bh0 < al0 or bl0 > ah0 or bh1 < al1 or bl1 > ah1 or bh2 < al2 or bl2 > ah2:
        return DISJOINT
    up0, up1, up2 = bl0 == ah0, bl1 == ah1, bl2 == ah2  # b starts where a ends
    t0, t1, t2 = up0 or bh0 == al0, up1 or bh1 == al1, up2 or bh2 == al2  # only touch
    dim = 3 - t0 - t1 - t2
    if dim == 3 or dim != ((al0 == bl0 and ah0 == bh0) + (al1 == bl1 and ah1 == bh1)
                           + (al2 == bl2 and ah2 == bh2)):  # an open slot not equal
        return _IMPROPER[dim]
    if dim == 2:  # side 1 of a face is the end that its generator j reaches
        k, up = (0, up0) if t0 else (2, up1) if t1 else (4, up2)
        return _WHOLE_FACES[12 * turns[k] + 6 * (up != turns[k + 1])
                            + 2 * b_turns[k] + (up == b_turns[k + 1])]
    (j0, f0, j1, f1, j2, f2), vs = turns, a.vertices
    code = ((t0 and up0 != f0) << 2 - j0 | (t1 and up1 != f1) << 2 - j1
            | (t2 and up2 != f2) << 2 - j2)
    if dim == 1:
        p, q = vs[code], vs[code | 4 >> (j2 if t0 and t1 else j1 if t0 else j0)]
        return _new_contact(_WHOLE_EDGE, (p, q) if p < q else (q, p))
    return _new_contact(_POINT, (vs[code],))


def _skew_contact(a: Brick, b: Brick) -> Contact:
    verts = _intersection_vertices(a, b)
    return _classify_from_vertices(a, b, _affine_dim(verts), verts)


# (a.u, a.v, a.w, b.u, b.v, b.w, b.origin - a.origin) -> (a.origin, contact)
# of the first skew pair of that key in the current validate pass; None
# outside a pass
_skew_memo: ContextVar[Optional[dict]] = ContextVar("_skew_memo", default=None)


@contextmanager
def _skew_memo_scope():
    """Memoize skew contacts by translation until the block exits."""
    token = _skew_memo.set({})
    try:
        yield
    finally:
        _skew_memo.reset(token)


def classify_contact(a: Brick, b: Brick) -> Contact:
    """Classify a ∩ b per the proper-joining taxonomy.

    Total on valid bricks; symmetric up to mirrored face indices. Exact: a
    co-framed pair is decided from its frame intervals, any other pair from
    the vertices of a ∩ b that the edge clip finds. Inside a validate pass a
    skew pair that repeats an earlier one up to translation is answered from
    the pass's memo, its contact points moved; outside a pass, and for
    co-framed pairs, every call classifies afresh.
    """
    if a._frame[0] == b._frame[0]:
        return _coframed_contact(a, b)
    memo = _skew_memo.get()
    if memo is None:
        return _skew_contact(a, b)
    key = (a.u, a.v, a.w, b.u, b.v, b.w, b.origin - a.origin)
    hit = memo.get(key)
    if hit is None:
        contact = _skew_contact(a, b)
        memo[key] = a.origin, contact
        return contact
    origin, contact = hit
    if not contact.points:
        return contact
    t = a.origin - origin  # a contact with points is a POINT or a WHOLE_EDGE
    return _new_contact(contact.kind, tuple(p + t for p in contact.points))
