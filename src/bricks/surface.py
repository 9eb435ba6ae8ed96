"""Exposed-face boundary complex: V/E/F counts, Euler characteristic,
manifold and connectivity checks, genus, plus two independent calculators
(a voxel oracle for rectilinear complexes and a per-piece table).

For each properly joined pair (whole face, whole edge or point), the
vertices and edges the two bricks share are identified, closed
transitively. Improper pairs identify nothing: a self-intersecting object is
counted abstractly, which is exactly what makes its Euler characteristic
equal to that of the embedded version. A vertex is keyed by its exact point
and an edge by its sorted pair of end points. A key that no improper pair
shares is one class: the bricks that share it meet pairwise, and all those
pairs are proper, so the rule identifies them all. Each brick's 6-bit mask
of covered faces indexes tables of its exposed faces, their corners and
sides; one pass over the bricks, skipping fully covered ones, numbers vertex
elements, gives each edge element an int id, and joins faces and wings in
union-finds over int lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional

from .complexes import BrickComplex, ValidationReport, _find, _union
from .geometry import FACE_CYCLES, ContactKind, GeometryError, _quoted, format_scalar


class TopologyError(ValueError):
    """Raised when a requested topological quantity is undefined."""


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
    """Genus g with chi = 2 - 2g for a closed connected orientable surface.

    A chi that is not an int, is odd or exceeds 2 raises TopologyError,
    quoting an int chi if it can be printed."""
    if type(chi) is not int:
        raise TopologyError(
            f"genus undefined: chi is a {type(chi).__name__}, not an int")
    if not manifold:
        raise TopologyError("genus undefined: surface is not a manifold")
    if components != 1:
        raise TopologyError(
            f"genus undefined: surface has {components} components, not 1"
        )
    if chi % 2 != 0 or chi > 2:
        try:
            shown = f"chi = {format_scalar(chi)}"
        except GeometryError:  # too long to print
            shown = "chi"
        raise TopologyError(
            f"genus undefined: {shown} {'is odd' if chi % 2 else 'exceeds 2'}")
    return (2 - chi) // 2


def _genus_and_reason(
    chi: int, components: int = 1, manifold: bool = True
) -> tuple[Optional[int], Optional[str]]:
    """genus_from_chi, or None and the reason the genus is undefined."""
    try:
        return genus_from_chi(chi, components, manifold), None
    except TopologyError as exc:
        return None, str(exc)


# per face, its sides (corner, next corner) in cycle order, the first side
# ending at the cycle's first corner
_SIDES = tuple(tuple(zip(cycle[-1:] + cycle[:-1], cycle)) for cycle in FACE_CYCLES)
# per 6-bit mask of covered faces: the exposed faces, and the corners they
# meet in the order the faces first meet them
_EXPOSED = tuple(
    (faces, tuple(dict.fromkeys(c for f in faces for c in FACE_CYCLES[f])))
    for faces in (tuple(f for f in range(6) if not m >> f & 1) for m in range(64)))


def _face_masks(report: ValidationReport) -> dict[str, int]:
    """Per label of a brick with a covered face, the mask whose bit f is set
    when a whole-face contact covers face f."""
    masks, whole_face = {}, ContactKind.WHOLE_FACE
    for pc in report.contacts:
        contact = pc.contact
        if contact.kind is whole_face:
            masks[pc.a] = masks.get(pc.a, 0) | 1 << contact.face_a
            masks[pc.b] = masks.get(pc.b, 0) | 1 << contact.face_b
    return masks


def exposed_faces(
    complex: BrickComplex, report: ValidationReport
) -> list[tuple[str, int]]:
    """Faces covered by no whole-face contact, in complex order.

    Proper joining guarantees a face is covered entirely or not at all.
    """
    report.check_matches(complex)
    masks = _face_masks(report)
    return [(b.id, f) for b in complex.bricks for f in _EXPOSED[masks.get(b.id, 0)][0]]


def _joined(parent: list, a: int, b: int) -> bool:
    """Join a's and b's classes in a forest kept in a list, halving paths
    (Tarjan and van Leeuwen 1984); True iff they were two classes before."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a == b:
        return False
    parent[b] = a
    return True


def surface_stats(complex: BrickComplex, report: ValidationReport) -> SurfaceStats:
    """V, E, F, chi and manifold/connectivity flags of the exposed complex.

    Faces are the exposed brick faces. Edges and vertices are brick elements
    incident to at least one exposed face. For each properly joined pair, the
    vertices and edges the two bricks share are identified, closed
    transitively; improper pairs identify nothing. A vertex is keyed by its
    point and an edge by its sorted end points. The bricks that share a key
    meet pairwise, so validate lists each pair of them, and a key that no
    improper pair shares is one class. At a key that one does share, each
    brick's element is its own class, joined through the proper pairs that
    share the key and have a brick in some improper pair; two bricks in
    none are both properly joined to a brick at the key that is in one.
    Each brick's mask of covered faces (bit f for face f, set by a
    whole-face contact) indexes _EXPOSED, its exposed faces and the corners
    they meet; a brick with all six covered (mask 63) is skipped unread.
    Those corners' vertex elements are numbered in the order the faces first
    meet them, and each exposed face's sides come from _SIDES. An edge
    element gets the next int id e: its key is the sorted pair of its ends'
    numbers, or its class at a key an improper pair shares. Its wings
    (vertex, edge) are 2e at its lower-numbered end and 2e + 1 at the other.

    Union-finds over int lists join, face by face, the faces on each edge
    and the two wings at each face corner. Components are F minus the face
    merges. A wing lies on every face of its edge, so if every edge has two
    faces (edge-manifold), the 4F wings fall into 4F minus the link merges
    classes, and the surface is vertex-manifold iff that is V: the faces
    around each vertex form one cycle.
    """
    report.check_matches(complex)
    improper = report.improper_pairs
    split, parent = set(), {}
    if improper:
        by_id = {b.id: b for b in complex.bricks}
        shared = lambda label: {*by_id[label].vertices, *by_id[label].edge_index}
        split = set().union(*(shared(pc.a) & shared(pc.b) for pc in improper))
        in_improper = {label for pc in improper for label in (pc.a, pc.b)}
        for pc in report.contacts:
            if (pc.a in in_improper or pc.b in in_improper) and not pc.contact.improper:
                for key in shared(pc.a) & shared(pc.b) & split:
                    _union(parent, (key, pc.a), (key, pc.b))

    masks = _face_masks(report)
    number, edge_id = {}, {}  # per vertex key its number, per edge key its id
    first, count = [], []  # per edge id: its first face, its number of faces
    faces, wings = [], []  # the union-find parents of faces and of wings
    face_merges = link_merges = 0
    numbered = [0] * 8  # per corner of a brick, the number of its vertex
    for b in complex.bricks:
        label = b.id
        exposed, corners = _EXPOSED[masks.get(label, 0)]
        if not exposed:
            continue
        vs = b.vertices
        for c in corners:
            p = vs[c]
            if split and p in split:
                p = _find(parent, (p, label))
            numbered[c] = number.setdefault(p, len(number))
        for f in exposed:
            face = len(faces)
            faces.append(face)
            starts = []  # per side, its wing at the corner it starts from
            for c, d in _SIDES[f]:
                m, n = numbered[c], numbered[d]
                key = (m, n) if m < n else (n, m)
                if split:
                    side = (vs[c], vs[d]) if vs[c] < vs[d] else (vs[d], vs[c])
                    if side in split:
                        key = _find(parent, (side, label))
                e = edge_id.get(key)
                if e is None:
                    e = edge_id[key] = len(first)
                    first.append(face)
                    count.append(1)
                    wings += (2 * e, 2 * e + 1)
                else:
                    count[e] += 1
                    face_merges += _joined(faces, first[e], face)
                starts.append(2 * e + (m > n))
            # the corner a side starts from ends the side before it
            s0, s1, s2, s3 = starts
            link_merges += (_joined(wings, s3 ^ 1, s0) + _joined(wings, s0 ^ 1, s1)
                            + _joined(wings, s1 ^ 1, s2) + _joined(wings, s2 ^ 1, s3))

    v_count, e_count, f_count = len(number), len(first), len(faces)
    chi = v_count - e_count + f_count
    edge_manifold = all(n == 2 for n in count)
    vertex_manifold = edge_manifold and 4 * f_count - link_merges == v_count
    components = f_count - face_merges
    return SurfaceStats(v_count, e_count, f_count, chi, components, edge_manifold,
                        vertex_manifold, *_genus_and_reason(
                            chi, components, edge_manifold and vertex_manifold))


# --- per-piece Euler characteristic tables ---------------------------------


@dataclass(frozen=True)
class PieceRow:
    label: str
    multiplicity: int
    vertices: int
    edges: int
    faces: int

    def __post_init__(self):
        counts = (self.multiplicity, self.vertices, self.edges, self.faces)
        if any(type(n) is not int for n in counts):  # bool included
            raise ValueError(f"non-int count in row {_quoted(self.label)}")
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
