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
& Manocha (OBBTree, 1996); contact points are picked from the vertices.
Each brick's slabs come from its frame: one per pair of frame directions,
with that pair's cross product as normal. A pair of another kind is
disjoint if one brick lies beyond a slab of the other (its extent along the
slab's normal ends below the slab or starts above it). A brick keeps its
extents per frame, so it is projected onto each frame once, however many
bricks of that frame it meets. Else each brick's edges are clipped to the
other's slabs, with t-bounds kept as integer-style numerator/denominator
pairs compared by cross-multiplying, giving exactly the vertices of a ∩ b
(none iff disjoint); the contact kind follows from their affine dimension.
``classify_contact`` is total and tests no bounding box: it answers any
pair, boxes apart or not, and its callers choose which pairs to ask about.

Bricks with equal generators share one cached shape: the frame, the slab
rates, the AABB and vertex offsets and det, so a brick's own values are its
origin plus the shape's. The cache is a thread-safe ``functools.lru_cache``
of at most 1024 generator triples, and it holds immutable values only.

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
from dataclasses import dataclass
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


def _norm(q: Fraction) -> Scalar:
    # keep integral values as plain ints: faster arithmetic, cleaner output
    return q.numerator if q.denominator == 1 else q


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
    """Render a scalar as an exact decimal-free token: "5" or "-3/4"."""
    return str(q)  # a Fraction of denominator 1 prints as its numerator


class Vec3(NamedTuple):
    """An exact 3-vector; also used for points (Point3 is an alias).

    Arithmetic demotes integral Fractions back to plain ints, which keeps
    the hot predicates in fast integer arithmetic whenever inputs are
    integral.
    """

    x: Scalar
    y: Scalar
    z: Scalar

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(
            _norm_s(self.x + other.x),
            _norm_s(self.y + other.y),
            _norm_s(self.z + other.z),
        )

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(
            _norm_s(self.x - other.x),
            _norm_s(self.y - other.y),
            _norm_s(self.z - other.z),
        )

    def scale(self, k: Scalar) -> "Vec3":
        return Vec3(_norm_s(self.x * k), _norm_s(self.y * k), _norm_s(self.z * k))

    def dot(self, other: "Vec3") -> Scalar:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> Scalar:
        """Squared Euclidean length (exact)."""
        return self.dot(self)


Point3 = Vec3


def _norm_s(q: Scalar) -> Scalar:
    return _norm(q) if type(q) is Fraction else q


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


def opposite_face(face_index: int) -> int:
    return face_index ^ 1


# --- the brick ------------------------------------------------------------


@dataclass(frozen=True)
class Brick:
    """A parallelepiped: an origin plus three independent generator vectors.

    Stored canonically with det(u, v, w) > 0; construction swaps v and w if
    needed (this preserves the point set). Zero volume is rejected, and so
    are an id that is not a str and an origin or generator that is not a
    Vec3 of ints and Fractions.
    """

    id: str
    origin: Point3
    u: Vec3
    v: Vec3
    w: Vec3

    def __post_init__(self):
        if type(self.id) is not str:
            raise GeometryError(f"brick id must be a str, not {type(self.id).__name__}")
        o, u, v, w = self.origin, self.u, self.v, self.w
        # exact types, not isinstance: a bool is an int, but True is no coordinate
        if not (type(o) is type(u) is type(v) is type(w) is Vec3
                and _EXACT_TYPES.issuperset(map(type, (*o, *u, *v, *w)))):
            raise GeometryError(f"brick {_quoted(self.id)}: origin and generators "
                                "must be Vec3s of ints and Fractions")
        d = det3(u, v, w)
        if d == 0:
            raise GeometryError(f"brick {_quoted(self.id)} has zero volume")
        if d < 0:
            object.__setattr__(self, "v", w)
            object.__setattr__(self, "w", v)

    @property
    def generators(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.u, self.v, self.w)

    @cached_property
    def det(self) -> Scalar:
        return _shape(self.u, self.v, self.w)[4]

    @cached_property
    def vertices(self) -> tuple[Point3, ...]:
        o = self.origin
        return tuple(o + off for off in _shape(self.u, self.v, self.w)[3])

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
    def face_vertex_sets(self) -> tuple[frozenset, ...]:
        vs = self.vertices
        return tuple(frozenset(vs[c] for c in cyc) for cyc in FACE_CYCLES)

    @cached_property
    def aabb(self) -> tuple[tuple[Scalar, Scalar], ...]:
        ends = _shape(self.u, self.v, self.w)[2]
        return tuple((_norm_s(c + lo), _norm_s(c + hi))
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
        """(key, slots) of _shape, each slot's rate bounds moved to this
        brick's origin: the brick is the points p with lo <= n.p <= hi in
        all three slots (n, lo, hi, j, flip)."""
        key, slots = _shape(self.u, self.v, self.w)[:2]
        out = []
        for n, lo, hi, j, flip in slots:
            base = n.dot(self.origin)
            out.append((n, _norm_s(base + lo), _norm_s(base + hi), j, flip))
        return key, tuple(out)

    @cached_property
    def _along(self) -> dict:
        """Frame key -> this brick's extents, filled by _slab_coordinates."""
        return {}


@lru_cache(maxsize=1024)
def _shape(u: Vec3, v: Vec3, w: Vec3):
    """What a brick owes to its generators alone, computed once per triple:
    (key, slots, box, offsets, det). The key is the frame D: the generator
    directions as primitive integer vectors, first non-zero entry positive,
    sorted. Slot k is (n, min(r, 0), max(r, 0), j, r < 0) for
    n = D[k+1] x D[k+2], generator j the one parallel to D[k] and r = n.g_j.
    box holds per axis the sums of the generators' negative and positive
    components, offsets the 8 vertices less the origin in vertex-code order.
    Equal triples share an entry (2 == Fraction(2, 1)), so what a brick
    reads from it is normalized, an integral value an int: then it does not
    depend on which triple filled the entry."""
    gens = (u, v, w)
    dirs = []
    for g in gens:
        m = lcm(*(c.denominator for c in g))
        ints = [c.numerator * (m // c.denominator) for c in g]
        q = gcd(*ints) * (1 if next(c for c in ints if c) > 0 else -1)
        dirs.append(Vec3(*(c // q for c in ints)))
    key = tuple(sorted(dirs))
    slots = []
    for k in range(3):
        n = key[(k + 1) % 3].cross(key[(k + 2) % 3])
        j = dirs.index(key[k])
        rate = n.dot(gens[j])
        slots.append((n, min(rate, 0), max(rate, 0), j, rate < 0))
    box = tuple((sum(c for c in cs if c < 0), sum(c for c in cs if c > 0))
                for cs in zip(u, v, w))
    offsets = tuple(u.scale(a) + v.scale(b) + w.scale(c) for a, b, c in VERTEX_COEFFS)
    return key, tuple(slots), box, offsets, _norm_s(det3(u, v, w))


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


IMPROPER_KINDS = frozenset(
    {ContactKind.VOLUME_OVERLAP, ContactKind.PARTIAL_FACE, ContactKind.PARTIAL_EDGE}
)


@dataclass(frozen=True)
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
        return self.kind in IMPROPER_KINDS

    def mirrored(self) -> "Contact":
        """The same contact seen with the argument order swapped."""
        return Contact(self.kind, self.points, self.face_b, self.face_a)


DISJOINT = Contact(ContactKind.DISJOINT)


def _slab_coordinates(x: Brick, y: Brick):
    """x in y's slab coordinates: per slab of y's frame, (lo, hi, n.p at x's
    8 vertices in vertex-code order, n.g for x's 3 generators). None if x
    lies beyond a slab, all its values below lo or all above hi: x is then
    in an open half-space that misses y. x keeps its extents per frame: the
    first brick of y's frame fills x._along[key], per normal (min, max,
    values, rates) from 12 dot products; later ones only compare min, max.
    """
    key, slots = y._frame
    along = x._along.get(key)
    if along is None:
        o, gens = x.origin, x.generators
        along = []
        for n, _, _, _, _ in slots:
            base = n.dot(o)
            ru, rv, rw = rates = (n.dot(gens[0]), n.dot(gens[1]), n.dot(gens[2]))
            side = [base, base + rw]
            side += [s + rv for s in side]
            side += [s + ru for s in side]
            along.append((min(side), max(side), tuple(side), rates))
        along = x._along[key] = tuple(along)
    out = []
    for (_, lo, hi, _, _), (least, most, side, rates) in zip(slots, along):
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
        return Contact(ContactKind.POINT, points=(verts[0],))
    if dim == 1:
        seg = (verts[0], verts[-1])  # verts sorted and collinear
        if seg in a.edge_index and seg in b.edge_index:
            return Contact(ContactKind.WHOLE_EDGE, points=seg)
        return Contact(ContactKind.PARTIAL_EDGE)
    if dim == 2:
        vset = frozenset(verts)
        fa = next(
            (i for i, s in enumerate(a.face_vertex_sets) if s == vset), None
        )
        fb = next(
            (i for i, s in enumerate(b.face_vertex_sets) if s == vset), None
        )
        if fa is not None and fb is not None:
            return Contact(ContactKind.WHOLE_FACE, face_a=fa, face_b=fb)
        return Contact(ContactKind.PARTIAL_FACE)
    return Contact(ContactKind.VOLUME_OVERLAP)


def _coframed_contact(a: Brick, b: Brick) -> Contact:
    """Classify a ∩ b for bricks of one frame from their frame intervals: an
    empty overlap is DISJOINT, and each slot that only touches fixes a's
    generator in that slot to one end, which gives face indices and the
    vertex codes of the contact points."""
    open_j, whole, code, fa, fb = [], True, 0, None, None
    for (_, alo, ahi, ja, fla), (_, blo, bhi, jb, flb) in zip(a._frame[1], b._frame[1]):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return DISJOINT
        if lo < hi:
            open_j.append(ja)
            whole = whole and alo == blo and ahi == bhi
        else:  # side 1 is the end that generator j reaches
            sa, sb = (lo == ahi) != fla, (lo == bhi) != flb
            code |= sa << (2 - ja)
            fa, fb = 2 * ja + sa, 2 * jb + sb
    vs, dim = a.vertices, len(open_j)
    if dim == 3:
        return Contact(ContactKind.VOLUME_OVERLAP)
    if dim == 2:
        if whole:
            return Contact(ContactKind.WHOLE_FACE, face_a=fa, face_b=fb)
        return Contact(ContactKind.PARTIAL_FACE)
    if dim == 1:
        if whole:
            p, q = vs[code], vs[code | 4 >> open_j[0]]
            return Contact(ContactKind.WHOLE_EDGE, points=(min(p, q), max(p, q)))
        return Contact(ContactKind.PARTIAL_EDGE)
    return Contact(ContactKind.POINT, points=(vs[code],))


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
    t = a.origin - origin
    return Contact(contact.kind, tuple(p + t for p in contact.points),
                   contact.face_a, contact.face_b)
