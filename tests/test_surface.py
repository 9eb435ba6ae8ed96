"""Boundary complex counting: V, E, F, chi, manifold flags, genus, the
voxel oracle, and the per-piece tables."""

import functools
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bricks.complexes import brick_complex, brick_graph, validate
from bricks.constructions import (
    fixture,
    fixture_names,
    random_rectilinear,
    table_buttressed_octahedron,
    table_zz,
    zz_embedded,
    zz_immersed,
)
from bricks.geometry import (
    EDGE_CODES,
    FACE_CYCLES,
    Brick,
    Vec3,
    brick_from_box,
    det3,
)
from bricks.refinement import Octasect, apply_schedule, standard_zz_schedule
from bricks.surface import (
    PieceRow,
    PieceTable,
    SurfaceStats,
    TopologyError,
    VoxelError,
    exposed_faces,
    genus_from_chi,
    piece_table_chi,
    surface_stats,
    voxel_chi,
)
from support import affine, transformed, zz_level


def stats_of(c):
    return surface_stats(c, validate(c))


@functools.cache
def polycube_and_oracles(seed):
    """random_rectilinear(seed) with its report, stats and voxel chi."""
    c = random_rectilinear(seed)
    return c, validate(c), stats_of(c), voxel_chi(c)


class TestExposedFaces:
    def test_single_cube(self):
        c = fixture("cube")
        assert len(exposed_faces(c, validate(c))) == 6

    def test_two_glued_cubes(self):
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((1, 0, 0), (2, 1, 1), "b"),
            ]
        )
        assert len(exposed_faces(c, validate(c))) == 10

    def test_zz_immersed_exposure_counts(self):
        c = zz_immersed()
        per_brick = {label: 0 for label in c.labels}
        for label, _ in exposed_faces(c, validate(c)):
            per_brick[label] += 1
        for cube in ("C1", "C2", "C3", "C4"):
            assert per_brick[cube] == 3
        for conn in ("X1", "X2", "X3", "Z1", "Z2", "Z3"):
            assert per_brick[conn] == 4


class TestSurfaceStats:
    def test_single_cube(self):
        s = stats_of(fixture("cube"))
        assert s.as_tuple() == (8, 12, 6, 2)
        assert s.genus == 0
        assert s.edge_manifold and s.vertex_manifold
        assert s.surface_components == 1

    def test_zz_immersed_reproduces_published_counts(self):
        s = stats_of(zz_immersed())
        assert s.as_tuple() == (32, 72, 36, -4)

    def test_zz_embedded_genus_three(self):
        s = stats_of(zz_embedded())
        assert s.chi == -4
        assert s.edge_manifold and s.vertex_manifold
        assert s.surface_components == 1
        assert s.genus == 3

    def test_square_ring_genus_one(self):
        ring = fixture("ring-3x3")
        # oracle first: direct voxel count fixes the expected value
        assert voxel_chi(ring) == 0
        s = stats_of(ring)
        assert s.chi == 0
        assert s.genus == 1

    def test_corner_touching_cubes_are_pinched(self):
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((1, 1, 1), (2, 2, 2), "b"),
            ]
        )
        s = stats_of(c)
        assert s.as_tuple() == (15, 24, 12, 3)
        assert s.edge_manifold
        assert not s.vertex_manifold
        assert s.genus is None

    def test_edge_touching_cubes_are_not_edge_manifold(self):
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((1, 1, 0), (2, 2, 1), "b"),
            ]
        )
        s = stats_of(c)
        assert s.as_tuple() == (14, 23, 12, 3)
        assert not s.edge_manifold
        assert s.genus is None

    def test_improper_pair_identifies_nothing(self):
        # a partial-face pair sharing one whole edge and its two end points:
        # the shared elements are counted once per brick
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((1, 0, 0), (2, 2, 1), "b"),
            ]
        )
        assert not validate(c).properly_joined
        assert stats_of(c).as_tuple() == (16, 24, 12, 4)

    def test_improper_pair_rejoined_through_a_proper_brick(self):
        # a and b overlap in volume; c shares a whole face with each, which
        # joins the four points and four edges at x = 0 that a and b share
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((0, 0, 0), (2, 1, 1), "b"),
                brick_from_box((-1, 0, 0), (0, 1, 1), "c"),
            ]
        )
        assert not validate(c).properly_joined
        s = stats_of(c)
        assert s.as_tuple() == (16, 28, 15, 3)
        assert not s.edge_manifold
        assert s.surface_components == 1

    def test_disconnected_surfaces_counted(self):
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((3, 3, 3), (4, 4, 4), "b"),
            ]
        )
        s = stats_of(c)
        assert s.surface_components == 2
        assert s.chi == 4
        assert s.genus is None

    def test_genus_reason_says_why_genus_is_undefined(self):
        assert stats_of(fixture("cube")).genus_reason is None
        pinched = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((1, 1, 1), (2, 2, 2), "b"),
            ]
        )
        assert "not a manifold" in stats_of(pinched).genus_reason
        apart = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((3, 3, 3), (4, 4, 4), "b"),
            ]
        )
        assert "2 components" in stats_of(apart).genus_reason

    def test_cavity_adds_a_component(self):
        shell = fixture("shell-3x3x3")
        s = stats_of(shell)
        assert s.surface_components == 2
        assert s.chi == 4
        assert s.chi == voxel_chi(shell)


class TestGenusFromChi:
    def test_sphere(self):
        assert genus_from_chi(2) == 0

    def test_paper_values(self):
        assert genus_from_chi(-4) == 3
        assert genus_from_chi(-24) == 13

    def test_odd_chi_rejected(self):
        with pytest.raises(TopologyError):
            genus_from_chi(3)

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            genus_from_chi(4, components=2)

    def test_non_manifold_rejected(self):
        with pytest.raises(TopologyError):
            genus_from_chi(0, manifold=False)

    def test_chi_above_two_rejected(self):
        with pytest.raises(TopologyError):
            genus_from_chi(4)

    @pytest.mark.parametrize("chi", [-4.0, Fraction(-4)], ids=["float", "Fraction"])
    def test_chi_not_an_int_rejected(self, chi):
        # each once gave the float or Fraction genus 3
        with pytest.raises(TopologyError, match="not an int"):
            genus_from_chi(chi)


class TestPieceTables:
    def test_buttressed_octahedron_table(self):
        totals = piece_table_chi(table_buttressed_octahedron())
        assert (totals.vertex_count, totals.edge_count, totals.face_count) == (
            140,
            324,
            160,
        )
        assert totals.chi == -24
        assert totals.genus == 13

    def test_zz_table(self):
        totals = piece_table_chi(table_zz())
        assert (totals.vertex_count, totals.edge_count, totals.face_count) == (
            32,
            72,
            36,
        )
        assert totals.chi == -4
        assert totals.genus == 3

    def test_single_cube_row(self):
        totals = piece_table_chi(PieceTable((PieceRow("cube", 1, 8, 12, 6),)))
        assert totals.chi == 2 and totals.genus == 0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            piece_table_chi(PieceTable(()))

    def test_odd_chi_reports_reason(self):
        totals = piece_table_chi(PieceTable((PieceRow("odd", 1, 1, 0, 0),)))
        assert totals.genus is None
        assert "odd" in totals.genus_reason

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints ints of any length")
    @pytest.mark.parametrize("extra, reason", [(0, "is odd"), (1, "exceeds 2")])
    def test_chi_too_long_to_print_reports_reason(self, extra, reason):
        """chi = K(K + extra), K of 4,000 digits: too long to print, so the
        reason does not quote it."""
        k = int("9" * 4000)
        totals = piece_table_chi(PieceTable((PieceRow("p", k + extra, k, 0, 0),)))
        assert totals.chi == (k + extra) * k
        assert totals.genus is None
        assert totals.genus_reason == f"genus undefined: chi {reason}"

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError):
            PieceRow("r", 0, 1, 1, 1)
        with pytest.raises(ValueError):
            PieceRow("r", 1, -1, 1, 1)

    @pytest.mark.parametrize("counts", [(1.5, 8, 12, 6), (True, 8, 12, 6),
                                        (1, True, 12, 6), (1, 8, 12, 6.0)],
                             ids=["float-multiplicity", "bool-multiplicity",
                                  "bool-vertices", "float-faces"])
    def test_count_not_an_int_rejected(self, counts):
        with pytest.raises(ValueError, match="non-int count"):
            PieceRow("x", *counts)


class TestVoxelOracle:
    def test_unit_cube(self):
        assert voxel_chi(fixture("cube")) == 2

    def test_two_cube_box(self):
        c = brick_complex(
            [
                brick_from_box((0, 0, 0), (1, 1, 1), "a"),
                brick_from_box((1, 0, 0), (2, 1, 1), "b"),
            ]
        )
        assert voxel_chi(c) == 2

    def test_ring(self):
        assert voxel_chi(fixture("ring-3x3")) == 0

    def test_finer_resolution_agrees(self):
        c = fixture("block-2x2x2")
        octasected = apply_schedule(c, {label: Octasect() for label in c.labels})
        assert voxel_chi(c) == voxel_chi(octasected) == 2

    def test_skew_brick_rejected(self):
        with pytest.raises(VoxelError):
            voxel_chi(zz_immersed())

    def test_non_integral_coordinates_rejected(self):
        c = brick_complex([brick_from_box((0, 0, 0), (Fraction(1, 2), 1, 1), "a")])
        assert voxel_chi(c) == 2

    def test_bad_resolution_rejected(self):
        """A 100^3 box cut by the grid lines of 100 unit cubes on its
        diagonal covers 100^3 + 100 cells: over the budget."""
        c = brick_complex(
            [brick_from_box((0, 0, 0), (100, 100, 100), "box")]
            + [brick_from_box((i, i, i), (i + 1,) * 3, f"d{i}") for i in range(100)]
        )
        with pytest.raises(VoxelError, match="1000100 cells"):
            voxel_chi(c)

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_octasected_polycubes_match_surface_stats(self, seed):
        c = random_rectilinear(seed)
        refined = apply_schedule(c, {label: Octasect() for label in c.labels})
        assert stats_of(refined).chi == voxel_chi(refined)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 50),
        st.fractions(Fraction(1, 30), 30, max_denominator=30),
        st.tuples(*[st.fractions(-50, 50, max_denominator=30)] * 3),
    )
    def test_invariant_under_scaling_and_translation(self, seed, k, shift):
        c, _, _, chi = polycube_and_oracles(seed)
        moved = brick_complex(
            brick_from_box(
                [k * lo + t for (lo, _), t in zip(b.box, shift)],
                [k * hi + t for (_, hi), t in zip(b.box, shift)],
                b.id,
            )
            for b in c
        )
        assert voxel_chi(moved) == chi


class TestOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_chi_matches_voxel_on_random_polycubes(self, seed):
        c = random_rectilinear(seed)
        assert validate(c).properly_joined
        assert stats_of(c).chi == voxel_chi(c)

    @pytest.mark.parametrize(
        "name",
        ["cube", "column-3", "column-5", "ring-3x3", "block-2x2x2",
         "block-3x3x3", "slab-3x3", "cross", "shell-3x3x3", "bar-chain-3"],
    )
    def test_chi_matches_voxel_on_fixtures(self, name):
        c = fixture(name)
        assert stats_of(c).chi == voxel_chi(c)

    # integer shears of det +1 and -1 that move at least one axis off-axis,
    # so every unit cube becomes a skew brick and each pair takes the skew
    # path
    SHEARS = {
        "x+=y": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        "triangular": ((1, 1, 1), (0, 1, 1), (0, 0, 1)),
        "mixed": ((1, 0, 0), (-1, 1, 0), (2, -1, 1)),
        "det-1": ((0, 1, 1), (1, 0, 0), (0, 0, 1)),
    }
    # Brick swaps v and w when det < 0, which swaps faces 2, 3 with 4, 5
    FACE_SWAP = (0, 1, 4, 5, 2, 3)

    @pytest.mark.parametrize("shear", sorted(SHEARS))
    def test_shear_preserves_contacts_graph_and_counts(self, shear):
        self.check_transform(self.SHEARS[shear], skew=True)

    @pytest.mark.parametrize("k", [2, Fraction(1, 3)], ids=str)
    def test_scaling_preserves_contacts_graph_and_counts(self, k):
        m = tuple(tuple(k if r == c else 0 for c in range(3)) for r in range(3))
        self.check_transform(m, skew=False)

    def check_transform(self, m, skew):
        """Seeds 1-50 of random_rectilinear, moved by the matrix m, keep every
        contact (kind, faces, moved points), arc, V/E/F/chi/genus, and chi
        equals voxel_chi of the unmoved complex and, when the moved bricks
        are rectilinear, of the moved one."""
        flip = det3(*(Vec3(*row) for row in m)) < 0

        def face(f):
            return self.FACE_SWAP[f] if flip and f is not None else f

        apply = affine(m)
        for seed in range(1, 51):
            c, report, stats, chi = polycube_and_oracles(seed)
            moved = transformed(c, m)
            assert all((b.box is None) == skew for b in moved)
            moved_report = validate(moved)
            assert len(report.contacts) == len(moved_report.contacts)
            for pc, mpc in zip(report.contacts, moved_report.contacts):
                assert (pc.a, pc.b) == (mpc.a, mpc.b)
                assert pc.contact.kind is mpc.contact.kind
                assert (face(pc.contact.face_a), face(pc.contact.face_b)) == (
                    mpc.contact.face_a, mpc.contact.face_b)
                assert {apply(p) for p in pc.contact.points} == set(
                    mpc.contact.points)
            assert brick_graph(c, report).arcs == brick_graph(
                moved, moved_report).arcs
            moved_stats = stats_of(moved)
            assert moved_stats.as_tuple() == stats.as_tuple()
            assert moved_stats.genus == stats.genus
            assert moved_stats.chi == chi
            if not skew:
                assert voxel_chi(moved) == chi


def _class_count(groups):
    """Number of classes of the members of groups, two members being in one
    class when a chain of groups joins them (a flood fill)."""
    groups_of = {}
    for g in groups:
        for m in g:
            groups_of.setdefault(m, []).append(g)
    seen, count = set(), 0
    for start in groups_of:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for g in groups_of[stack.pop()]:
                for m in g:
                    if m not in seen:
                        seen.add(m)
                        stack.append(m)
    return count


def grid_manifold_oracle(cells):
    """(edge_manifold, vertex_manifold, surface_components) of the boundary
    of a union of unit grid cells, from its grid squares alone.

    A grid edge is non-manifold iff it borders 4 boundary squares. A grid
    point is manifold iff every edge at it borders 2 squares and its squares
    form one link through those edges. Components are squares joined
    through shared edges.
    """
    squares = []
    for cell in cells:
        for axis, side in product(range(3), (0, 1)):
            n = list(cell)
            n[axis] += 2 * side - 1
            if tuple(n) not in cells:
                squares.append(frozenset(
                    p for p in product(*((x, x + 1) for x in cell))
                    if p[axis] == cell[axis] + side
                ))
    squares_on = {}
    for sq in squares:
        for p, q in combinations(sorted(sq), 2):
            if sum(a != b for a, b in zip(p, q)) == 1:
                squares_on.setdefault((p, q), []).append(sq)
    edges_at = {}
    for e in squares_on:
        for p in e:
            edges_at.setdefault(p, []).append(e)
    edge_manifold = all(len(s) != 4 for s in squares_on.values())
    vertex_manifold = all(
        all(len(squares_on[e]) == 2 for e in es)
        and _class_count(squares_on[e] for e in es) == 1
        for es in edges_at.values()
    )
    return edge_manifold, vertex_manifold, _class_count(squares_on.values())


def random_cells(seed):
    """A seeded non-empty random subset of the cells of the 4^3 box, at a
    density drawn from [0.05, 0.95]."""
    rng = random.Random(seed)
    density = rng.uniform(0.05, 0.95)
    cells = set()
    while not cells:
        cells = {p for p in product(range(4), repeat=3) if rng.random() < density}
    return cells


class TestManifoldOracle:
    """edge_manifold, vertex_manifold and surface_components of unit-cube
    complexes against grid_manifold_oracle, which sees no contact and no
    brick element."""

    def check(self, complexes):
        seen = {"edge": 0, "vertex-only": 0, "components": 0}
        for c in complexes:
            s = stats_of(c)
            cells = {tuple(lo for lo, _ in b.box) for b in c}
            got = (s.edge_manifold, s.vertex_manifold, s.surface_components)
            assert got == grid_manifold_oracle(cells), c.name
            seen["edge"] += not s.edge_manifold
            seen["vertex-only"] += s.edge_manifold and not s.vertex_manifold
            seen["components"] += s.surface_components > 1
        return seen

    def test_random_polycubes(self):
        seen = self.check(
            random_rectilinear(seed, max_bricks=60, grid=4) for seed in range(1, 201)
        )
        assert seen["edge"] >= 50 and seen["vertex-only"] >= 5

    def test_random_cell_subsets(self):
        seen = self.check(
            brick_complex(
                (brick_from_box(p, tuple(x + 1 for x in p), f"c{i}")
                 for i, p in enumerate(sorted(random_cells(seed)))),
                name=f"cells-{seed}",
            )
            for seed in range(1, 201)
        )
        assert seen["components"] >= 50 and seen["vertex-only"] >= 2


def reference_surface_stats(c, r):
    """surface_stats by the identification rule itself: a union-find over
    (label, code) that joins, for each proper pair, every vertex and every
    edge the two bricks share, each found by its points."""
    parent = {}

    def find(k):
        while k in parent:
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    by_id = {b.id: b for b in c}
    vertex_index = {b.id: {p: i for i, p in enumerate(b.vertices)} for b in c}
    for pc in r.contacts:
        if pc.contact.improper:
            continue
        for kind, ia, ib in (
            ("v", vertex_index[pc.a], vertex_index[pc.b]),
            ("e", by_id[pc.a].edge_index, by_id[pc.b].edge_index),
        ):
            for key in ia.keys() & ib.keys():
                union((kind, pc.a, ia[key]), (kind, pc.b, ib[key]))

    edge_code = {frozenset(e): i for i, e in enumerate(EDGE_CODES)}
    exposed = exposed_faces(c, r)
    vertices, wings, edge_faces = set(), set(), {}
    for face in exposed:
        label, f = face
        cyc = FACE_CYCLES[f]
        es = [find(("e", label, edge_code[frozenset((cyc[i], cyc[(i + 1) % 4]))]))
              for i in range(4)]
        for e in es:
            edge_faces.setdefault(e, []).append(face)
        for pos, vc in enumerate(cyc):
            v = find(("v", label, vc))
            vertices.add(v)
            wings.update(((v, es[pos - 1]), (v, es[pos])))
            union(("w", v, es[pos - 1]), ("w", v, es[pos]))
    for faces in edge_faces.values():
        for other in faces[1:]:
            union(("f", faces[0]), ("f", other))

    chi = len(vertices) - len(edge_faces) + len(exposed)
    edge_manifold = all(len(faces) == 2 for faces in edge_faces.values())
    vertex_manifold = edge_manifold and len(
        {find(("w", *w)) for w in wings}) == len(vertices)
    components = len({find(("f", face)) for face in exposed})
    try:
        genus, reason = genus_from_chi(
            chi, components, edge_manifold and vertex_manifold), None
    except TopologyError as exc:
        genus, reason = None, str(exc)
    return SurfaceStats(len(vertices), len(edge_faces), len(exposed), chi,
                        components, edge_manifold, vertex_manifold, genus, reason)


def overlapping_boxes(seed):
    """2-9 seeded random boxes with half-integer corners in [0, 3]^3; most
    such complexes have an improper pair."""
    rng = random.Random(seed)
    bricks = []
    for i in range(rng.randint(2, 9)):
        lo = [rng.randrange(6) for _ in range(3)]
        hi = [rng.randint(x + 1, 6) for x in lo]
        bricks.append(brick_from_box([Fraction(x, 2) for x in lo],
                                     [Fraction(x, 2) for x in hi], f"b{i}"))
    return brick_complex(bricks, name=f"boxes-{seed}")


# an integer shear of det 1 that takes the x and y axes off-axis, so every
# unit cube becomes a skew brick
SHEAR = ((1, 1, 0), (0, 1, 1), (1, 0, 0))


class TestReferenceIdentification:
    """surface_stats against reference_surface_stats, which applies the
    transitive rule pair by pair."""

    def check(self, complexes):
        seen = {"improper": 0, "vertex": 0, "edge": 0,
                "not edge-manifold": 0, "pinched": 0}
        for c in complexes:
            r = validate(c)
            s = surface_stats(c, r)
            assert s == reference_surface_stats(c, r), c.name
            seen["not edge-manifold"] += not s.edge_manifold
            seen["pinched"] += s.edge_manifold and not s.vertex_manifold
            by_id = {b.id: b for b in c}
            shared = [
                (set(by_id[pc.a].vertices) & set(by_id[pc.b].vertices),
                 by_id[pc.a].edge_index.keys() & by_id[pc.b].edge_index.keys())
                for pc in r.improper_pairs
            ]
            seen["improper"] += bool(shared)
            seen["vertex"] += any(vs for vs, _ in shared)
            seen["edge"] += any(es for _, es in shared)
        return seen

    def test_fixtures_and_zz_immersed(self):
        zz = zz_immersed()
        self.check([*(fixture(n) for n in fixture_names()), zz,
                    apply_schedule(zz, standard_zz_schedule(zz))])

    def test_random_polycubes(self):
        self.check(random_rectilinear(seed) for seed in range(1, 51))

    def test_overlapping_boxes(self):
        seen = self.check(overlapping_boxes(seed) for seed in range(1, 601))
        assert seen["improper"] >= 450
        assert seen["vertex"] >= 350 and seen["edge"] >= 180

    def test_sheared_polycubes(self):
        """The skew path: every brick has off-axis generators, and on a
        4^3 grid many polycubes meet themselves along edges or at points."""
        seen = self.check(
            transformed(random_rectilinear(seed, max_bricks=60, grid=4), SHEAR)
            for seed in range(1, 201)
        )
        assert seen["not edge-manifold"] >= 50 and seen["pinched"] >= 5

    def test_refined_zz_embedded(self):
        refined = zz_level(4, 1)
        assert len(refined) == 72 and len({b._frame[0] for b in refined}) == 11
        self.check([refined])


def test_stats_do_not_depend_on_brick_order_labels_or_generator_order():
    """surface_stats numbers vertex elements in the order it meets them, so
    a complex with its bricks shuffled, relabelled and their generators
    rotated (which reorders each brick's faces) must give equal stats."""
    rng = random.Random(1701)
    complexes = [
        *(fixture(n) for n in fixture_names()),
        *(random_rectilinear(seed) for seed in range(1, 31)),
        *(overlapping_boxes(seed) for seed in range(1, 201)),
    ]
    for c in complexes:
        bricks = list(c)
        rng.shuffle(bricks)
        labels = rng.sample(range(10**6), len(bricks))
        moved = []
        for label, b in zip(labels, bricks):
            k = rng.randrange(3)
            gens = (b.u, b.v, b.w)
            moved.append(Brick(f"q{label}", b.origin, *gens[k:], *gens[:k]))
        assert stats_of(brick_complex(moved)) == stats_of(c), c.name


class TestRefinementInvariance:
    @pytest.mark.parametrize(
        "name", ["cube", "column-3", "ring-3x3", "block-2x2x2", "bar-chain-3"]
    )
    def test_chi_unchanged_by_standard_schedule(self, name):
        c = fixture(name)
        before = stats_of(c).chi
        refined = apply_schedule(c, standard_zz_schedule(c))
        assert stats_of(refined).chi == before

    def test_chi_unchanged_for_both_zz_objects(self):
        for build in (zz_immersed, zz_embedded):
            c = build()
            refined = apply_schedule(c, standard_zz_schedule(c))
            assert stats_of(refined).chi == stats_of(c).chi == -4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_chi_parity_on_manifold_surfaces(seed):
    s = stats_of(random_rectilinear(seed))
    if s.edge_manifold and s.vertex_manifold:
        assert s.chi % 2 == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_manifold_without_edge_or_point_contacts(seed):
    from bricks.geometry import ContactKind

    c = random_rectilinear(seed)
    r = validate(c)
    touchy = {ContactKind.WHOLE_EDGE, ContactKind.POINT}
    if r.properly_joined and not any(pc.contact.kind in touchy for pc in r.contacts):
        assert stats_of(c).edge_manifold
