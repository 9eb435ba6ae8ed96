"""Exposed-face boundary complex: V/E/F counts, Euler characteristic,
manifold and connectivity checks, genus, plus two independent calculators
(a voxel oracle for rectilinear complexes and a per-piece table).

Vertices and edges are identified across bricks ONLY through proper
contacts (whole-face, whole-edge, point), closed transitively. Improper
pairs contribute no identifications: a self-intersecting object is counted
abstractly, which is exactly what makes its Euler characteristic equal to
that of the embedded version.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional

from .complexes import BrickComplex, ValidationReport
from .geometry import FACE_CYCLES, FACE_EDGE_INDICES, ContactKind, _quoted


class TopologyError(ValueError):
    """Raised when a requested topological quantity is undefined."""


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, k):
        if k not in self.parent:
            self.parent[k] = k
        return k

    def find(self, k):
        self.add(k)
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:  # path compression
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


@dataclass(frozen=True)
class SurfaceStats:
    """Counts of the exposed boundary complex and derived topology flags.

    genus is present only when the surface is edge- and vertex-manifold and
    connected; then chi = 2 - 2*genus. Otherwise genus_reason says why not.
    """

    vertex_count: int
    edge_count: int
    face_count: int
    chi: int
    surface_components: int
    edge_manifold: bool
    vertex_manifold: bool
    genus: Optional[int]
    genus_reason: Optional[str] = None

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.vertex_count, self.edge_count, self.face_count, self.chi)


def genus_from_chi(chi: int, components: int = 1, manifold: bool = True) -> int:
    """Genus g with chi = 2 - 2g for a closed connected orientable surface."""
    if not manifold:
        raise TopologyError("genus undefined: surface is not a manifold")
    if components != 1:
        raise TopologyError(
            f"genus undefined: surface has {components} components, not 1"
        )
    if chi % 2 != 0:
        raise TopologyError(f"genus undefined: chi = {chi} is odd")
    if chi > 2:
        raise TopologyError(f"genus undefined: chi = {chi} exceeds 2")
    return (2 - chi) // 2


def _genus_and_reason(
    chi: int, components: int = 1, manifold: bool = True
) -> tuple[Optional[int], Optional[str]]:
    """genus_from_chi, or None and the reason the genus is undefined."""
    try:
        return genus_from_chi(chi, components, manifold), None
    except TopologyError as exc:
        return None, str(exc)


def covered_faces(report: ValidationReport) -> set[tuple[str, int]]:
    out = set()
    for pc in report.whole_face_contacts():
        out.add((pc.a, pc.contact.face_a))
        out.add((pc.b, pc.contact.face_b))
    return out


def exposed_faces(
    complex: BrickComplex, report: ValidationReport
) -> list[tuple[str, int]]:
    """Faces covered by no whole-face contact, in complex order.

    Proper joining guarantees a face is covered entirely or not at all.
    """
    report.check_matches(complex)
    covered = covered_faces(report)
    return [
        (b.id, f)
        for b in complex.bricks
        for f in range(6)
        if (b.id, f) not in covered
    ]


def surface_stats(complex: BrickComplex, report: ValidationReport) -> SurfaceStats:
    """V, E, F, chi and manifold/connectivity flags of the exposed complex.

    Faces are the exposed brick faces. Edges and vertices are brick elements
    incident to at least one exposed face, identified across bricks through
    proper contacts only (the shared face's boundary for whole-face contacts,
    the edge and its endpoints for whole-edge contacts, coincident vertices
    for point contacts), closed transitively.
    """
    report.check_matches(complex)
    bricks = complex.bricks
    index = {b.id: i for i, b in enumerate(bricks)}

    vertex_uf = UnionFind()
    edge_uf = UnionFind()
    for bi in range(len(bricks)):
        for vc in range(8):
            vertex_uf.add((bi, vc))
        for ec in range(12):
            edge_uf.add((bi, ec))

    def union_edge_by_points(bi, bj, p, q):
        seg = (p, q) if p <= q else (q, p)
        ei = bricks[bi].edge_index.get(seg)
        ej = bricks[bj].edge_index.get(seg)
        if ei is not None and ej is not None:
            edge_uf.union((bi, ei), (bj, ej))

    def union_vertex_by_point(bi, bj, p):
        vi = bricks[bi].vertex_index.get(p)
        vj = bricks[bj].vertex_index.get(p)
        if vi is not None and vj is not None:
            vertex_uf.union((bi, vi), (bj, vj))

    for pc in report.contacts:
        c = pc.contact
        bi, bj = index[pc.a], index[pc.b]
        if c.kind is ContactKind.WHOLE_FACE:
            cycle = bricks[bi].face_polygon(c.face_a)
            for p in cycle:
                union_vertex_by_point(bi, bj, p)
            for k in range(4):
                union_edge_by_points(bi, bj, cycle[k], cycle[(k + 1) % 4])
        elif c.kind is ContactKind.WHOLE_EDGE:
            p, q = c.points
            union_edge_by_points(bi, bj, p, q)
            union_vertex_by_point(bi, bj, p)
            union_vertex_by_point(bi, bj, q)
        elif c.kind is ContactKind.POINT:
            union_vertex_by_point(bi, bj, c.points[0])
        # improper contacts identify nothing: the count stays abstract

    exposed = [(index[label], f) for label, f in exposed_faces(complex, report)]

    vertex_roots = set()
    edge_faces: dict[tuple, list[tuple[int, int]]] = {}
    for bi, f in exposed:
        for vc in FACE_CYCLES[f]:
            vertex_roots.add(vertex_uf.find((bi, vc)))
        for ec in FACE_EDGE_INDICES[f]:
            edge_faces.setdefault(edge_uf.find((bi, ec)), []).append((bi, f))

    v_count = len(vertex_roots)
    e_count = len(edge_faces)
    f_count = len(exposed)
    chi = v_count - e_count + f_count

    edge_manifold = all(len(faces) == 2 for faces in edge_faces.values())

    face_uf = UnionFind()
    for bi, f in exposed:
        face_uf.add((bi, f))
    for faces in edge_faces.values():
        for other in faces[1:]:
            face_uf.union(faces[0], other)
    components = len({face_uf.find(face) for face in exposed})

    vertex_manifold = _vertex_umbrellas_are_cycles(exposed, vertex_uf, edge_uf)

    genus, genus_reason = _genus_and_reason(
        chi, components, edge_manifold and vertex_manifold
    )

    return SurfaceStats(
        vertex_count=v_count,
        edge_count=e_count,
        face_count=f_count,
        chi=chi,
        surface_components=components,
        edge_manifold=edge_manifold,
        vertex_manifold=vertex_manifold,
        genus=genus,
        genus_reason=genus_reason,
    )


def _vertex_umbrellas_are_cycles(exposed, vertex_uf, edge_uf) -> bool:
    """Around every counted vertex, the exposed faces must form one cycle.

    A node is a (face, corner) incidence at the vertex; its two wings are
    the face's boundary edges at that corner. The umbrella is a single
    cycle iff every wing edge class occurs exactly twice and the nodes are
    connected through shared wings.
    """
    umbrellas: dict[tuple, list[tuple]] = {}
    for bi, f in exposed:
        cycle = FACE_CYCLES[f]
        edge_ids = FACE_EDGE_INDICES[f]
        for pos, vc in enumerate(cycle):
            vroot = vertex_uf.find((bi, vc))
            prev_edge = edge_uf.find((bi, edge_ids[(pos - 1) % 4]))
            next_edge = edge_uf.find((bi, edge_ids[pos]))
            umbrellas.setdefault(vroot, []).append(
                ((bi, f, pos), prev_edge, next_edge)
            )

    for nodes in umbrellas.values():
        wing_count: dict[tuple, int] = {}
        for _, e1, e2 in nodes:
            wing_count[e1] = wing_count.get(e1, 0) + 1
            wing_count[e2] = wing_count.get(e2, 0) + 1
        if any(count != 2 for count in wing_count.values()):
            return False
        uf = UnionFind()
        by_wing: dict[tuple, list] = {}
        for node, e1, e2 in nodes:
            uf.add(node)
            by_wing.setdefault(e1, []).append(node)
            by_wing.setdefault(e2, []).append(node)
        for members in by_wing.values():
            for other in members[1:]:
                uf.union(members[0], other)
        roots = {uf.find(node) for node, _, _ in nodes}
        if len(roots) != 1:
            return False
    return True


# --- per-piece Euler characteristic tables ---------------------------------


@dataclass(frozen=True)
class PieceRow:
    label: str
    multiplicity: int
    vertices: int
    edges: int
    faces: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError(
                f"multiplicity must be >= 1 in row {_quoted(self.label)}"
            )
        if min(self.vertices, self.edges, self.faces) < 0:
            raise ValueError(f"negative count in row {_quoted(self.label)}")


@dataclass(frozen=True)
class PieceTable:
    rows: tuple[PieceRow, ...]


@dataclass(frozen=True)
class TableTotals:
    vertex_count: int
    edge_count: int
    face_count: int
    chi: int
    genus: Optional[int]
    genus_reason: Optional[str] = None


def piece_table_chi(table: PieceTable) -> TableTotals:
    """Sum multiplicity-weighted per-piece counts; genus assumes the caller
    knows the surface is a connected manifold (as the published tables do)."""
    if not table.rows:
        raise ValueError("empty piece table")
    v = sum(r.multiplicity * r.vertices for r in table.rows)
    e = sum(r.multiplicity * r.edges for r in table.rows)
    f = sum(r.multiplicity * r.faces for r in table.rows)
    chi = v - e + f
    return TableTotals(v, e, f, chi, *_genus_and_reason(chi))


# --- voxel oracle -----------------------------------------------------------


# bounds the oracle's time and memory: a million cells take about 5 s, 150 MB
CELL_BUDGET = 1_000_000


class VoxelError(ValueError):
    """Input voxel_chi refuses: a skew brick, or more cells than CELL_BUDGET."""


def voxel_chi(complex: BrickComplex) -> int:
    """V - E + F of the voxelized boundary of a rectilinear complex.

    Rasterizes the union on the complex's own grid: each box coordinate is
    replaced by its index among the distinct ones on its axis, a monotone map
    that keeps chi. Counts the squares between occupied and empty cells with
    their grid edges and grid points. Independent of surface_stats: a
    brute-force oracle for properly joined rectilinear complexes.
    """
    for b in complex.bricks:
        if b.box is None:
            raise VoxelError(f"brick {_quoted(b.id)} is not rectilinear")
    grid = [sorted({x for b in complex.bricks for x in b.box[a]}) for a in range(3)]
    index = [{c: i for i, c in enumerate(coords)} for coords in grid]
    spans = [
        [(index[a][lo], index[a][hi]) for a, (lo, hi) in enumerate(b.box)]
        for b in complex.bricks
    ]
    cells = sum(prod(hi - lo for lo, hi in span) for span in spans)
    if cells > CELL_BUDGET:
        raise VoxelError(
            f"bricks cover {cells} cells of the grid, over the budget of {CELL_BUDGET}"
        )
    occupied = set()
    for span in spans:
        occupied.update(product(*(range(lo, hi) for lo, hi in span)))

    squares = set()
    for (x, y, z) in occupied:
        for axis, delta in ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)):
            n = [x, y, z]
            n[axis] += delta
            if tuple(n) in occupied:
                continue
            corner = [x, y, z]
            if delta == 1:
                corner[axis] += 1
            squares.add((axis, tuple(corner)))

    edges = set()
    points = set()
    for axis, corner in squares:
        s_axis, t_axis = [a for a in range(3) if a != axis]
        for ds in (0, 1):
            for dt in (0, 1):
                p = list(corner)
                p[s_axis] += ds
                p[t_axis] += dt
                points.add(tuple(p))
        for edge_axis, off_axis in ((s_axis, t_axis), (t_axis, s_axis)):
            for off in (0, 1):
                p = list(corner)
                p[off_axis] += off
                edges.add((edge_axis, tuple(p)))

    return len(points) - len(edges) + len(squares)
