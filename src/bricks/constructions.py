"""Builders for the cornerless objects and for the test fixture corpus.

The ZZ-object is a thickened K4: four staggered cubes joined by two
axis-monotone Hamiltonian paths of square-section connectors, one path
routed along x and one along z. The 10-brick version self-intersects; in
the 14-brick version the z path is zig-zagged into seven segments whose
bends dodge the x path.

Published data: the four cube centers. Cube side, connector sections, and
the zig-zag bend positions are derived; the builders assert every derived
claim (proper joining, covering, connectivity, Euler characteristic) before
returning. See scripts/derive_zz_geometry.py for how the bends were found
and why a shorter zig-zag cannot work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from .complexes import (
    BrickComplex,
    brick_complex,
    brick_graph,
    component_count,
    validate,
)
from .geometry import Brick, Point3, Scalar, Vec3, _quoted, brick_from_box, vec3
from .refinement import two_opposite_covered
from .surface import PieceRow, PieceTable, surface_stats


class ConstructionError(ValueError):
    """Parameters violate a builder invariant."""


PAPER_CENTERS: tuple[Point3, ...] = (
    vec3(30, 40, 50),
    vec3(60, 10, 40),
    vec3(10, 20, 30),
    vec3(55, 30, 10),
)

DEFAULT_CUBE_SIDE = 4


@dataclass(frozen=True)
class ZZParams:
    cube_side: Scalar = DEFAULT_CUBE_SIDE
    centers: tuple[Point3, Point3, Point3, Point3] = PAPER_CENTERS


def _cube(label: str, center: Point3, side: Scalar) -> Brick:
    h = Fraction(side, 2)
    lo = vec3(center.x - h, center.y - h, center.z - h)
    hi = vec3(center.x + h, center.y + h, center.z + h)
    return brick_from_box(lo, hi, label)


def _face_min_corner(center: Point3, side: Scalar, axis: int, positive: bool) -> Point3:
    h = Fraction(side, 2)
    corner = [center.x - h, center.y - h, center.z - h]
    if positive:
        corner[axis] += side
    return vec3(*corner)


def _prism(label: str, axis: int, start: Point3, end: Point3, side: Scalar) -> Brick:
    """Square-section connector from one 4-side face min-corner to another.

    Both end faces are perpendicular to `axis`; the long generator is the
    corner-to-corner displacement, so each end face coincides exactly with
    the neighboring face it covers.
    """
    cross = [Vec3(0, 0, 0), Vec3(0, 0, 0)]
    others = [a for a in range(3) if a != axis]
    for slot, a in enumerate(others):
        comps = [0, 0, 0]
        comps[a] = side
        cross[slot] = Vec3(*comps)
    long = end - start
    return Brick(label, start, long, cross[0], cross[1])


def _paths(params: ZZParams):
    """The two axis-monotone Hamiltonian paths over the four cubes.

    x path: cubes by ascending x. z path: cubes by descending z. Together
    they must cover all six K4 edges (no shared pair).
    """
    centers = params.centers
    side = params.cube_side
    labels = [f"C{i + 1}" for i in range(4)]

    def ordered(axis: int, reverse: bool):
        order = sorted(range(4), key=lambda i: centers[i][axis], reverse=reverse)
        for ia, ib in zip(order, order[1:]):
            gap = abs(centers[ib][axis] - centers[ia][axis])
            if gap <= side:
                raise ConstructionError(
                    f"cube side {side} must be smaller than the "
                    f"{'xyz'[axis]}-gap {gap} between centers "
                    f"{labels[ia]} and {labels[ib]}"
                )
        return order

    x_order = ordered(0, reverse=False)
    z_order = ordered(2, reverse=True)
    x_edges = {frozenset(p) for p in zip(x_order, x_order[1:])}
    z_edges = {frozenset(p) for p in zip(z_order, z_order[1:])}
    if x_edges & z_edges:
        raise ConstructionError(
            "x and z paths share a cube pair; centers do not induce "
            "two edge-disjoint Hamiltonian paths"
        )
    return labels, x_order, z_order


# Zig-zag geometry for the embedded version. The two straight tube paths
# cross in four pairs (X2-Z1 at the first cube, X3-Z2 at the second, X1-Z2
# at the third, X2-Z3 at the fourth); these crossings are structural: each
# cube's x-covering and z-covering tubes leave through the same spatial
# octant. Exhaustive search (scripts/derive_zz_geometry.py) shows no pair of
# single-joint replacements clears them, so the whole z path is zig-zagged
# instead: each z connector becomes a chain of skew segments meeting at
# square bend faces perpendicular to z. A bend face is a whole face of both
# neighboring segments, so the chain stays properly joined and every segment
# keeps two opposite (end) faces covered.
#
# Each bend square below is its min corner, anchored at a cube face corner
# plus an offset in units of cube_side/4, so the construction scales.
# "from" anchors at the upper cube's bottom-face corner, "to" at the lower
# cube's top-face corner.
ZIGZAG_BENDS = {
    "Z1": (("from", (0, -8, -4)),),
    "Z2": (("from", (0, -4, -1)), ("to", (0, -4, 1))),
    "Z3": (("to", (0, -5, 6)),),
}


def _chain(
    params: ZZParams, label: str, axis: int, i: int, j: int, bends
) -> list[Brick]:
    """Connector from cube i to cube j along `axis` (i before j on the path):
    a chain of segments from i's face to j's through the bend squares
    bends.get(label, ()), one straight segment if there are none."""
    centers, side = params.centers, params.cube_side
    forward = centers[j][axis] > centers[i][axis]
    start = _face_min_corner(centers[i], side, axis, positive=forward)
    end = _face_min_corner(centers[j], side, axis, positive=not forward)
    waypoints = [start]
    for anchor, offset in bends.get(label, ()):
        base = start if anchor == "from" else end
        waypoints.append(base + Vec3(*offset).scale(Fraction(side, 4)))
    waypoints.append(end)
    suffixes = "abc" if len(waypoints) > 2 else ("",)
    return [_prism(label + s, axis, p, q, side)
            for s, p, q in zip(suffixes, waypoints, waypoints[1:])]


def _zz(params: ZZParams, name: str, bends) -> BrickComplex:
    """The four cubes, then the x path's connectors and the z path's, each
    a chain through its bends."""
    labels, x_order, z_order = _paths(params)
    bricks = [
        _cube(labels[i], params.centers[i], params.cube_side) for i in range(4)
    ]
    for path, axis, order in (("X", 0, x_order), ("Z", 2, z_order)):
        for n, (i, j) in enumerate(zip(order, order[1:])):
            bricks += _chain(params, f"{path}{n + 1}", axis, i, j, bends)
    return brick_complex(bricks, name=name)


def zz_immersed(params: ZZParams = ZZParams()) -> BrickComplex:
    """The 10-brick self-intersecting ZZ-object.

    Four cubes at the staggered centers plus six skew connectors: the
    x-monotone path covers each cube's two x faces or one of them, the
    z-monotone path the rest, so every brick ends up with two opposite
    faces covered. The two tubes pass through each other, so validation
    reports volume overlaps.
    """
    return _zz(params, "zz-immersed", {})


def zz_embedded(params: ZZParams = ZZParams()) -> BrickComplex:
    """The 14-brick embedded (non-self-intersecting) ZZ-object.

    The x path keeps its three straight connectors; the z path is zig-zagged
    into seven segments (one bend under the first cube, two bends on the
    long middle run, one bend over the last cube) that dodge the x path.
    The builder asserts proper joining, the two-opposite-faces covering,
    graph connectivity, and chi = -4; it raises naming the first improper
    pair if the stored bends do not work for the given parameters.
    """
    result = _zz(params, "zz-embedded", ZIGZAG_BENDS)
    report = validate(result)
    if not report.properly_joined:
        pc = report.improper_pairs[0]
        raise ConstructionError(
            f"zig-zag offsets fail for these parameters: {pc.a} vs {pc.b} "
            f"is {pc.contact.kind.value}"
        )
    coverage = two_opposite_covered(result, report)
    if not all(coverage.values()):
        missing = sorted(k for k, ok in coverage.items() if not ok)
        raise ConstructionError(
            f"bricks without a covered opposite face pair: {missing}"
        )
    if component_count(brick_graph(result, report)) != 1:
        raise ConstructionError("brick graph is not connected")
    stats = surface_stats(result, report)
    if stats.chi != -4:
        raise ConstructionError(f"expected chi -4, got {stats.chi}")
    return result


def table_buttressed_octahedron() -> PieceTable:
    """Per-piece boundary counts of the published 52-brick genus-13 object."""
    return PieceTable(
        rows=(
            PieceRow("ring-quarter", 4, 20, 40, 16),
            PieceRow("arch", 2, 30, 66, 32),
            PieceRow("buttress", 8, 0, 4, 4),
        )
    )


def table_zz() -> PieceTable:
    """Per-piece boundary counts of the 10-brick ZZ-object."""
    return PieceTable(
        rows=(
            PieceRow("cube", 4, 8, 12, 3),
            PieceRow("connector", 6, 0, 4, 4),
        )
    )


# --- fixture corpus ---------------------------------------------------------


def _cells_complex(cells, name: str) -> BrickComplex:
    bricks = [
        brick_from_box((x, y, z), (x + 1, y + 1, z + 1), f"b{n}")
        for n, (x, y, z) in enumerate(sorted(cells))
    ]
    return brick_complex(bricks, name=name)


def random_rectilinear(
    seed: int, max_bricks: int = 40, grid: int = 8
) -> BrickComplex:
    """Seeded connected polycube of unit bricks inside a grid^3 box.

    Unit cubes on a grid are automatically properly joined, which makes
    these complexes a free corpus for the voxel-oracle equivalence test.
    """
    rng = random.Random(seed)
    target = rng.randint(2, max_bricks)
    start = tuple(rng.randrange(grid) for _ in range(3))
    cells = {start}
    frontier = [start]
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    while len(cells) < target and frontier:
        base = rng.choice(frontier)
        dx, dy, dz = rng.choice(steps)
        cell = (base[0] + dx, base[1] + dy, base[2] + dz)
        if all(0 <= c < grid for c in cell) and cell not in cells:
            cells.add(cell)
            frontier.append(cell)
    return _cells_complex(cells, f"random-{seed}")


def _ring_cells():
    return [(x, y, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1)]


_FIXTURES = {
    "cube": lambda: _cells_complex([(0, 0, 0)], "cube"),
    "column-3": lambda: _cells_complex([(0, 0, z) for z in range(3)], "column-3"),
    "column-5": lambda: _cells_complex([(0, 0, z) for z in range(5)], "column-5"),
    "ring-3x3": lambda: _cells_complex(_ring_cells(), "ring-3x3"),
    "block-2x2x2": lambda: _cells_complex(
        [(x, y, z) for x in range(2) for y in range(2) for z in range(2)],
        "block-2x2x2",
    ),
    "block-3x3x3": lambda: _cells_complex(
        [(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
        "block-3x3x3",
    ),
    "slab-3x3": lambda: _cells_complex(
        [(x, y, 0) for x in range(3) for y in range(3)], "slab-3x3"
    ),
    "cross": lambda: _cells_complex(
        [(1, 1, z) for z in range(3)]
        + [(0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1)],
        "cross",
    ),
    "shell-3x3x3": lambda: _cells_complex(
        [
            (x, y, z)
            for x in range(3)
            for y in range(3)
            for z in range(3)
            if (x, y, z) != (1, 1, 1)
        ],
        "shell-3x3x3",
    ),
    "bar-chain-3": lambda: brick_complex(
        [
            brick_from_box((0, 0, 3 * k), (1, 1, 3 * (k + 1)), f"bar{k}")
            for k in range(3)
        ],
        name="bar-chain-3",
    ),
    "zz-immersed": zz_immersed,
    "zz-embedded": zz_embedded,
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def fixture(name: str) -> BrickComplex:
    """Deterministic named test complexes; 'random-<seed>' is seeded."""
    if name in _FIXTURES:
        return _FIXTURES[name]()
    if name.startswith("random-"):
        try:
            seed = int(name.split("-", 1)[1])
        except ValueError:
            raise ConstructionError(
                f"bad random fixture seed in {_quoted(name)}"
            ) from None
        return random_rectilinear(seed)
    raise ConstructionError(
        f"unknown fixture {_quoted(name)}; known: {', '.join(fixture_names())} "
        "or random-<seed>"
    )
