"""The nerve theorem as an Euler characteristic oracle for skew complexes.

Bricks are closed convex sets, so by the nerve theorem (Borsuk 1948; Leray)
the union of a complex has chi = sum of (-1)^(|S|+1) over the sets S of
bricks with a non-empty common intersection. If the union is a 3-manifold
with boundary, the boundary has twice its chi. So on a properly joined
complex whose exposed surface is a manifold, surface_stats(...).chi must be
twice that sum.

Nothing here shares code with the classifier's frames or slab extents: a
pair's intersection is what triple_enumeration_vertices finds from the
test-local planes, and a larger set's is that of the set less its last
brick, clipped by that brick's six half-spaces and pruned to its extreme
points by an exact hull. A set grows only by a brick that meets each of its
members. The corpus is zz-embedded, whose 14 bricks have 11 frames, its
refinement, and refinements that leave out whole parents, so that handles
break and chi varies.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product

from bricks.complexes import brick_complex, validate
from bricks.constructions import zz_embedded
from bricks.geometry import Brick, Vec3
from bricks.refinement import apply_schedule, standard_zz_schedule
from bricks.surface import surface_stats
from test_geometry import planes, primitive, triple_enumeration_vertices


def bounds(b: Brick):
    """Per axis, the least and greatest coordinate of b's corners."""
    corners = [b.origin + b.u.scale(x) + b.v.scale(y) + b.w.scale(z)
               for x, y, z in product((0, 1), repeat=3)]
    return [(min(p[k] for p in corners), max(p[k] for p in corners)) for k in range(3)]


def extreme(points) -> list[Vec3]:
    """The extreme points, sorted, of points of affine dimension at most 2:
    the two ends of a segment, or the corners of a polygon by a monotone
    chain hull (Andrew 1979) of its projection along an axis the plane's
    normal does not lie in."""
    points = sorted(set(points))
    p0 = points[0]
    normal = next((c for q, r in combinations(points[1:], 2)
                   if any(c := (q - p0).cross(r - p0))), None)
    if normal is None:  # collinear: lexicographic order runs along the line
        return points[:1] + points[1:][-1:]
    assert all(normal.dot(q - p0) == 0 for q in points), "a 3-d intersection"
    i, j = [k for k in range(3) if k != next(k for k in range(3) if normal[k])]
    points.sort(key=lambda p: (p[i], p[j]))

    def chain(ps):
        out = []
        for p in ps:
            while len(out) > 1 and ((out[-1][i] - out[-2][i]) * (p[j] - out[-2][j])
                                    - (out[-1][j] - out[-2][j]) * (p[i] - out[-2][i])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return sorted(chain(points) + chain(points[::-1]))


def clip(points, brick_planes) -> list[Vec3]:
    """The extreme points of conv(points) inside a brick, [] if none: per
    half-space, the points inside it and the crossings of every chord
    between a point inside and one outside, pruned."""
    for n, lo, hi in brick_planes:
        for sign, bound in ((1, lo), (-1, hi)):
            f = [sign * (n.dot(p) - bound) for p in points]  # inside iff >= 0
            if min(f) >= 0:
                continue
            if max(f) < 0:
                return []
            cut = [p + (q - p).scale(Fraction(fp, fp - fq))
                   for (p, fp), (q, fq) in combinations(zip(points, f), 2)
                   if fp * fq < 0]
            points = extreme([p for p, fp in zip(points, f) if fp >= 0] + cut)
    return points


@cache
def meet(a: Brick, b: Brick) -> tuple:
    """The vertices of a ∩ b, () if disjoint."""
    return tuple(triple_enumeration_vertices(a, b))


def nerve_chi(bricks) -> int:
    """chi of the union: the nerve's alternating count of meeting sets."""
    bricks = list(bricks)
    box = [bounds(b) for b in bricks]
    near = [set() for _ in bricks]
    meets = {}
    for i, j in combinations(range(len(bricks)), 2):
        if all(alo <= bhi and blo <= ahi
               for (alo, ahi), (blo, bhi) in zip(box[i], box[j])):
            if points := meet(bricks[i], bricks[j]):
                meets[i, j] = list(points)
                near[i].add(j)
                near[j].add(i)
    cuts = [planes(b) for b in bricks]
    chi = len(bricks) - len(meets)
    grow = [((i, j), points, near[i] & near[j]) for (i, j), points in meets.items()]
    while grow:
        s, points, common = grow.pop()
        for c in common:
            if c > s[-1] and (inside := clip(points, cuts[c])):
                chi += (-1) ** len(s)  # (-1)^(|S|+1) for S = s + (c,)
                grow.append(((*s, c), inside, common & near[c]))
    return chi


def test_extreme_points_and_clip():
    p = lambda *c: Vec3(*c)
    square = [p(0, 0, 0), p(2, 0, 0), p(2, 2, 0), p(0, 2, 0), p(1, 1, 0), p(1, 0, 0)]
    assert extreme(square) == sorted(square[:4])
    assert extreme([p(0, 0, 0), p(1, 1, 1), p(3, 3, 3), p(1, 1, 1)]) == [
        p(0, 0, 0), p(3, 3, 3)]
    unit = Brick("c", p(1, 1, -1), p(2, 0, 0), p(0, 2, 0), p(0, 0, 2))
    assert clip(sorted(square[:4]), planes(unit)) == [
        p(1, 1, 0), p(1, 2, 0), p(2, 1, 0), p(2, 2, 0)]
    assert clip([p(0, 0, 0), p(2, 2, 0)], planes(unit)) == [p(1, 1, 0), p(2, 2, 0)]
    assert clip([p(0, 0, 0)], planes(unit)) == []


def test_nerve_of_a_cube_block_and_a_ring():
    """A 2x2x2 block is a ball (chi 1), a ring of 8 cubes a solid torus (0);
    the 8 cubes of the block all meet at its centre."""
    cube = lambda x, y, z: Brick(f"c{x}{y}{z}", Vec3(x, y, z), Vec3(1, 0, 0),
                                 Vec3(0, 1, 0), Vec3(0, 0, 1))
    assert nerve_chi(cube(*c) for c in product((0, 1), repeat=3)) == 1
    ring = [c for c in product(range(3), range(3), (0,)) if c != (1, 1, 0)]
    assert nerve_chi(cube(*c) for c in ring) == 0


def refined(parents):
    return apply_schedule(parents, standard_zz_schedule(parents))


def without(complex, labels):
    return brick_complex([b for b in complex if b.id not in labels],
                         name=f"{complex.name}-{'-'.join(labels)}")


# parents whose children are left out of the refinement: none (chi -4), an
# x connector or a z segment (-2), two x connectors (0), two z segments that
# leave one handle (-2) or split the object in two (0, two components), three
# that leave a ball (2), four that leave three balls and tori (4)
DROPPED = [(), ("X1",), ("Z2b",), ("X1", "X2"), ("Z1a", "Z1b"), ("Z2a", "Z2c"),
           ("C1", "X3", "Z1a"), ("C2", "X3", "Z1a", "Z2b")]


def corpus():
    """zz-embedded at sides 4 and 7/2, each refined with the parents of
    DROPPED left out: 18 complexes, the 7/2 ones on Fraction coordinates."""
    for side in (4, Fraction(7, 2)):
        zz = zz_embedded(side)
        yield zz
        for labels in DROPPED:
            yield refined(without(zz, labels))


def frames(c) -> set:
    """The complex's frames: each brick's generator directions, made
    primitive, sorted."""
    return {tuple(sorted(primitive(g) for g in b.generators)) for b in c}


def test_nerve_agrees_with_surface_stats_on_multi_frame_complexes():
    checked, multi_frame, chis = 0, 0, set()
    for c in corpus():
        report = validate(c)
        assert report.properly_joined, c.name
        stats = surface_stats(c, report)
        if not (stats.edge_manifold and stats.vertex_manifold):
            continue
        assert stats.chi == 2 * nerve_chi(c), c.name
        checked += 1
        multi_frame += len(frames(c)) > 1
        chis.add(stats.chi)
    assert checked == multi_frame == 18
    assert chis == {-4, -2, 0, 2, 4}
