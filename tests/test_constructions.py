"""The ZZ builders, their derived geometry, and the fixture corpus."""

from fractions import Fraction
import hashlib
import subprocess
import sys

import pytest

from bricks.complexes import brick_graph, component_count, corners, validate
from bricks.constructions import (
    ConstructionError,
    fixture,
    fixture_names,
    random_rectilinear,
    table_buttressed_octahedron,
    table_zz,
    zz_embedded,
    zz_immersed,
)
from bricks.fileformats import emit_complex
from bricks.geometry import ContactKind, vec3
from bricks.refinement import two_opposite_covered
from bricks.surface import surface_stats
from support import zz_level


class TestZZImmersed:
    def test_ten_bricks(self):
        c = zz_immersed()
        assert len(c) == 10
        assert c.labels == ("C1", "C2", "C3", "C4", "X1", "X2", "X3", "Z1", "Z2", "Z3")

    def test_cube_positions_follow_published_centers(self):
        c = zz_immersed()
        centers = [
            b.origin + (b.u + b.v + b.w).scale(Fraction(1, 2))
            for b in c.bricks[:4]
        ]
        assert centers == [
            vec3(30, 40, 50),
            vec3(60, 10, 40),
            vec3(10, 20, 30),
            vec3(55, 30, 10),
        ]

    def test_first_x_connector_spans_the_two_cube_faces(self):
        # face-corner to face-corner arithmetic from the published centers
        (conn,) = [b for b in zz_immersed().bricks if b.id == "X1"]
        assert conn.origin == vec3(12, 18, 28)
        assert conn.u == vec3(16, 20, 20)
        assert conn.v == vec3(0, 4, 0) and conn.w == vec3(0, 0, 4)

    def test_self_intersecting(self):
        r = validate(zz_immersed())
        overlaps = [
            pc for pc in r.improper_pairs
            if pc.contact.kind is ContactKind.VOLUME_OVERLAP
        ]
        assert overlaps
        assert {(pc.a, pc.b) for pc in overlaps} == {
            ("X1", "Z2"), ("X2", "Z1"), ("X2", "Z3"), ("X3", "Z2"),
        }

    def test_every_cube_has_three_covered_faces_with_an_opposite_pair(self):
        c = zz_immersed()
        r = validate(c)
        covered = {label: set() for label in c.labels}
        for pc in r.contacts:
            if pc.contact.kind is ContactKind.WHOLE_FACE:
                covered[pc.a].add(pc.contact.face_a)
                covered[pc.b].add(pc.contact.face_b)
        for cube in ("C1", "C2", "C3", "C4"):
            faces = covered[cube]
            assert len(faces) == 3
            assert any(f ^ 1 in faces for f in faces)

    def test_all_bricks_two_opposite_covered(self):
        c = zz_immersed()
        assert all(two_opposite_covered(c, validate(c)).values())

    def test_two_cubes_per_path_are_intermediates(self):
        c = zz_immersed()
        covered = {label: set() for label in c.labels}
        for pc in validate(c).contacts:
            if pc.contact.kind is ContactKind.WHOLE_FACE:
                covered[pc.a].add(pc.contact.face_a)
                covered[pc.b].add(pc.contact.face_b)
        # face indices 0/1 are the x pair, 4/5 the z pair for box bricks
        x_mid = [cu for cu in ("C1", "C2", "C3", "C4") if {0, 1} <= covered[cu]]
        z_mid = [cu for cu in ("C1", "C2", "C3", "C4") if {4, 5} <= covered[cu]]
        assert len(x_mid) == 2 and len(z_mid) == 2
        assert set(x_mid).isdisjoint(z_mid)

    def test_cube_side_five_or_more_rejected(self):
        for side in (5, 6, Fraction(11, 2)):
            with pytest.raises(ConstructionError, match="gap"):
                zz_immersed(side)


class TestZZEmbedded:
    def test_fourteen_bricks_properly_joined(self):
        c = zz_embedded()
        assert len(c) == 14
        assert validate(c).properly_joined

    def test_covering_connectivity_and_genus(self):
        c = zz_embedded()
        r = validate(c)
        assert all(two_opposite_covered(c, r).values())
        assert component_count(brick_graph(c, r)) == 1
        s = surface_stats(c, r)
        assert s.chi == -4
        assert s.edge_manifold and s.vertex_manifold
        assert s.surface_components == 1
        assert s.genus == 3

    def test_refined_object_is_cornerless(self):
        refined = zz_level(4, 1)
        assert len(refined) == 72
        g = brick_graph(refined, validate(refined))
        assert g.min_degree >= 4
        assert corners(g) == []

    def test_degree_multisets_match_immersed_on_shared_roles(self):
        immersed = zz_immersed()
        embedded = zz_embedded()
        gi = brick_graph(immersed, validate(immersed))
        ge = brick_graph(embedded, validate(embedded))
        for cube in ("C1", "C2", "C3", "C4"):
            assert gi.degree[cube] == ge.degree[cube] == 3
        for conn in ("X1", "X2", "X3"):
            assert gi.degree[conn] == ge.degree[conn] == 2

    @pytest.mark.parametrize("side", [3.0, "3", True], ids=["float", "str", "bool"])
    def test_cube_side_not_int_or_fraction_rejected(self, side):
        with pytest.raises(ConstructionError, match="cube side"):
            zz_embedded(side)


# sha256 of emit_complex of each ZZ object at three cube sides; the straight
# connectors and the zig-zag chains come from one builder, and these pin its
# output to what the two builders it replaced emitted
ZZ_DIGESTS = {
    ("zz_immersed", 4): "a0be4764f4476059b324d8886b952c5f1687f3bdbe6c7fb6ad0b68801b9cb7e2",
    ("zz_embedded", 4): "5a28a348b74111123a8864c496818bea7aa4cec45e266f3a3191d4e4a8f46d89",
    ("zz_immersed", 3): "aa790d4bc41df4362d93cb3fec76c1d0cd9f8e3d3f32777d365421e09c69a32d",
    ("zz_embedded", 3): "f2a7ef406c7f0068f2d837d259c7f4f891b2df636d96b4af46e3998efdfd81a8",
    ("zz_immersed", Fraction(7, 2)):
        "469464a2a31d76334bc433ca8374cb050b8b2714cc137938cabbc6453c9f1d6b",
    ("zz_embedded", Fraction(7, 2)):
        "fb468da33b1d31ac05497c7739df3087583b8d133f004d52b8fb1ad88c331671",
}
ZZ_LABELS = {
    "zz_immersed": ("C1", "C2", "C3", "C4", "X1", "X2", "X3", "Z1", "Z2", "Z3"),
    "zz_embedded": ("C1", "C2", "C3", "C4", "X1", "X2", "X3",
                    "Z1a", "Z1b", "Z2a", "Z2b", "Z2c", "Z3a", "Z3b"),
}


@pytest.mark.parametrize("build, side", list(ZZ_DIGESTS),
                         ids=lambda v: str(v).replace("/", "_"))
def test_zz_objects_emit_pinned_text_in_pinned_order(build, side):
    c = {"zz_immersed": zz_immersed, "zz_embedded": zz_embedded}[build](side)
    assert hashlib.sha256(emit_complex(c).encode()).hexdigest() == ZZ_DIGESTS[build, side]
    assert c.labels == ZZ_LABELS[build]


class TestTables:
    def test_buttressed_octahedron_rows(self):
        rows = table_buttressed_octahedron().rows
        assert [(r.multiplicity, r.vertices, r.edges, r.faces) for r in rows] == [
            (4, 20, 40, 16),
            (2, 30, 66, 32),
            (8, 0, 4, 4),
        ]

    def test_zz_rows(self):
        rows = table_zz().rows
        assert [(r.multiplicity, r.vertices, r.edges, r.faces) for r in rows] == [
            (4, 8, 12, 3),
            (6, 0, 4, 4),
        ]


class TestFixtures:
    def test_ring_has_eight_cubes(self):
        assert len(fixture("ring-3x3")) == 8

    def test_column_degrees(self):
        c = fixture("column-3")
        g = brick_graph(c, validate(c))
        assert sorted(g.degree.values()) == [1, 1, 2]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConstructionError):
            fixture("no-such-thing")
        with pytest.raises(ConstructionError):
            fixture("random-notanumber")

    def test_random_fixture_deterministic(self):
        a, b = fixture("random-7"), fixture("random-7")
        assert a.bricks == b.bricks
        assert len(a) <= 40

    def test_random_bricks_fit_grid(self):
        c = random_rectilinear(123, max_bricks=40, grid=8)
        for b in c.bricks:
            for lo, hi in b.box:
                assert 0 <= lo < hi <= 8

    def test_all_named_fixtures_build(self):
        for name in fixture_names():
            assert len(fixture(name)) >= 1

    @pytest.mark.parametrize("name", ["random-1_2", "random-+4", "random- 7",
                                      "random-\u0668", "random-007", "random--0"])
    def test_random_seed_not_as_python_prints_it_rejected(self, name):
        # int() takes each of these, and the complex built was named otherwise
        with pytest.raises(ConstructionError, match="bad random fixture seed"):
            fixture(name)

    def test_every_accepted_name_is_the_name_built(self):
        names = fixture_names() + ["random-0", "random--3"]
        for name in names + [f"random-{seed}" for seed in range(51)]:
            assert fixture(name).name == name


@pytest.mark.parametrize("max_bricks, grid, name", [
    (1, 8, "max_bricks"),
    (40, 0, "grid"),
    (9, 2, "grid"),
])
def test_random_rectilinear_rejects_bad_parameters(max_bricks, grid, name):
    with pytest.raises(ConstructionError, match=name):
        random_rectilinear(1, max_bricks=max_bricks, grid=grid)


def test_random_rectilinear_past_the_grid_raises_instead_of_hanging():
    # a target past the grid's 8 cells could never be reached, so the walk
    # used to spin forever: run it where a hang is a timeout
    script = ("from bricks.constructions import ConstructionError, random_rectilinear\n"
              "try:\n"
              "    random_rectilinear(1, max_bricks=100, grid=2)\n"
              "except ConstructionError as e:\n"
              "    print(e)\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert "grid 2" in done.stdout and "max_bricks 100" in done.stdout


# sha256 of emit_complex of random_rectilinear at seeds 1-20 under each
# keyword set in order, as emitted before the parameter checks came in:
# they raise before the first draw, so a valid call's output does not move
RANDOM_KWARGS = ({}, {"max_bricks": 60, "grid": 4}, {"max_bricks": 8, "grid": 2},
                 {"max_bricks": 2, "grid": 2})
RANDOM_DIGEST = "af1b6fa6550a330eaa12555a3c5cef7289fda6378f9c7ff8282531280be91b4c"


def test_random_rectilinear_output_is_pinned():
    h = hashlib.sha256()
    for kwargs in RANDOM_KWARGS:
        for seed in range(1, 21):
            h.update(emit_complex(random_rectilinear(seed, **kwargs)).encode())
    assert h.hexdigest() == RANDOM_DIGEST
