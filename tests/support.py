"""Helpers that several test modules share, each defined once here.

Test modules import them as `from support import ...`: pytest puts tests/ on
sys.path. zz_level's complexes are built once and shared by every test that
asks for one, already validated if another test validated them, so a test
only reads them. A test that counts or intercepts the work of building or
validating a complex builds its own, or validates a fresh() copy.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm

from bricks.complexes import BrickComplex, PairContact, ValidationReport
from bricks.constructions import zz_embedded
from bricks.geometry import (
    Brick,
    Contact,
    ContactKind,
    Vec3,
    _affine_dim,
    _classify_from_vertices,
    _intersection_vertices,
    classify_contact,
    det3,
    vec3,
)
from bricks.refinement import apply_schedule, standard_zz_schedule

# --- typed records ------------------------------------------------------------


def typed(contact):
    """The contact with each coordinate of its points paired with its type."""
    return (contact.kind, contact.face_a, contact.face_b,
            [[(type(c), c) for c in p] for p in contact.points])


def typed_report(report):
    return [(pc.a, pc.b, typed(pc.contact)) for pc in report.contacts]


def mirrored(contact):
    """The same contact seen with the argument order swapped."""
    return Contact(contact.kind, contact.points, contact.face_b, contact.face_a)


# --- complexes ----------------------------------------------------------------


def fresh(x):
    """An equal copy of a brick or a complex with nothing cached: a complex
    without its report, of bricks without vertices, frame or AABB."""
    if type(x) is Brick:
        return Brick(x.id, x.origin, x.u, x.v, x.w)
    return BrickComplex(tuple(map(fresh, x)), name=x.name)


def affine(m, t=(0, 0, 0)):
    """The point map p -> m p + t, m given by its rows."""
    shift = vec3(*t)
    return lambda p: vec3(*(sum(r[k] * p[k] for k in range(3)) for r in m)) + shift


def transformed(c: BrickComplex, m, t=(0, 0, 0)) -> BrickComplex:
    """c under p -> m p + t: each origin mapped, each generator by m alone,
    the labels and the name kept."""
    point, vector = affine(m, t), affine(m)
    return BrickComplex(
        tuple(Brick(b.id, point(b.origin), *map(vector, b.generators)) for b in c),
        name=c.name,
    )


def refined(c: BrickComplex) -> BrickComplex:
    """c after one standard ZZ refinement, built afresh."""
    return apply_schedule(c, standard_zz_schedule(c))


def standard_chain(c: BrickComplex, times: int):
    """(parent, refined) for each of times standard refinements of c, built
    afresh."""
    out = []
    for _ in range(times):
        parent, c = c, refined(c)
        out.append((parent, c))
    return out


@cache
def zz_level(side=4, times=0) -> BrickComplex:
    """zz-embedded of this cube side refined times times, each level refined
    from the one before; shared, so only read it."""
    return zz_embedded(side) if times == 0 else refined(zz_level(side, times - 1))


# --- oracles ------------------------------------------------------------------


def clip_contact(a: Brick, b: Brick) -> Contact:
    """a ∩ b decided by the edge clip alone, from the vertices it finds."""
    verts = _intersection_vertices(a, b)
    return _classify_from_vertices(a, b, _affine_dim(verts), verts)


def classified_report(complex: BrickComplex, pairs=None,
                      classify=classify_contact) -> ValidationReport:
    """validate's report from classifying the index pairs given, all
    n(n-1)/2 if None, each outside a pass so that no memo answers it and
    in index order, the contact mirrored where validate, which classifies in
    label order, would have swapped the pair; sorted as validate sorts."""
    bricks = complex.bricks
    records = []
    for i, j in combinations(range(len(bricks)), 2) if pairs is None else pairs:
        contact = classify(bricks[i], bricks[j])
        if contact.kind is ContactKind.DISJOINT:
            continue
        a, b = bricks[i].id, bricks[j].id
        if a > b:
            a, b = b, a
            contact = mirrored(contact)
        records.append(PairContact(a, b, contact))
    records.sort(key=lambda pc: (pc.a, pc.b))
    return ValidationReport(bricks, contacts=tuple(records))


def planes(brick: Brick):
    """Per generator k: (n, lo, hi), with n = g_{k+1} x g_{k+2} and p in the
    brick iff lo <= n.p <= hi in all three; n.g_k = det > 0, so the range is
    [n.o, n.o + det]. Written here so that the oracles share no slab code
    with the classifier."""
    o, gens = brick.origin, brick.generators
    out = []
    for k in range(3):
        n = gens[(k + 1) % 3].cross(gens[(k + 2) % 3])
        out.append((n, n.dot(o), n.dot(o) + brick.det))
    return out


def inside(brick_planes, p) -> bool:
    """Closed containment of p in the brick with these planes."""
    return all(lo <= n.dot(p) <= hi for n, lo, hi in brick_planes)


def triple_enumeration_vertices(a: Brick, b: Brick):
    """Independent oracle: every vertex of the intersection polytope lies on
    three defining planes with independent normals; enumerate all triples of
    the 12 planes and filter by the inequalities."""
    pa, pb = planes(a), planes(b)
    found = set()
    # a triple of planes with two parallel normals meets in no single point,
    # so each triple takes one plane from each of three slabs
    for (n1, *d1), (n2, *d2), (n3, *d3) in combinations(pa + pb, 3):
        det = det3(n1, n2, n3)
        if det == 0:
            continue
        # Cramer's rule, exact: p = (x n2 x n3 + y n3 x n1 + z n1 x n2) / det
        # solves n1.p = x, n2.p = y and n3.p = z
        crossed = n2.cross(n3), n3.cross(n1), n1.cross(n2)
        for ds in product(d1, d2, d3):
            p = vec3(*(sum(d * c[k] for d, c in zip(ds, crossed)) / Fraction(det)
                       for k in range(3)))
            if inside(pa, p) and inside(pb, p):
                found.add(p)
    return sorted(found)


def primitive(g: Vec3) -> Vec3:
    """g's direction as a primitive integer vector, first non-zero entry
    positive."""
    m = lcm(*(Fraction(c).denominator for c in g))
    ints = [int(c * m) for c in g]
    q = gcd(*ints) if next(c for c in ints if c) > 0 else -gcd(*ints)
    return Vec3(*(c // q for c in ints))
