"""Affine invariance as an oracle for multi-frame complexes.

An invertible rational affine map f(p) = M p + t sends each brick to a brick
and a ∩ b to f(a ∩ b). So a validation report keeps, per label pair, its
contact kind, and each contact point p becomes f(p). A Brick is stored with
det > 0, so under a map with det M < 0 construction swaps two generators and
face indices may change: whole faces are compared as the sets of their
mapped corners. The brick graph, V/E/F, chi and genus do not change.

The corpus is zz-embedded refined once, 72 bricks in frames that its
construction builds, taken to frames and denominators that no other test
builds. At cube side 4 it goes under four maps: one with entries of
denominators 3, 5 and 7, one of det -1, a unimodular integer shear and an
integer map of det 3, each with a rational translation; at sides 3 and 7/2,
whose coordinates are Fractions, under the first two. Random polycubes go
under every map, and the chi of each image must equal the voxel chi of the
original. Scalings p -> kp of the two ZZ objects stand for the ZZ objects
built from scaled centers.

Every map keeps a point contact, so reading one as DISJOINT drops the same
contacts before and after each map and passes the tests above. A two-frame
pinch, two bricks that meet only at one corner, is checked against fixed
values instead.
"""

from fractions import Fraction
from functools import cache

import pytest

from bricks.complexes import brick_complex, brick_graph, validate
from bricks.constructions import random_rectilinear, zz_embedded, zz_immersed
from bricks.geometry import (
    IMPROPER_KINDS,
    Brick,
    ContactKind,
    brick_from_box,
    det3,
    vec3,
)
from bricks.surface import surface_stats, voxel_chi
from support import affine, transformed, zz_level

F = Fraction

MAPS = {
    "denominators-3-5-7": (((1, F(1, 3), 0), (0, 1, F(2, 5)), (F(1, 7), 0, 1)),
                           (F(1, 2), F(-2, 3), F(5, 7))),
    "det-minus-1": (((1, 2, 0), (0, -1, 0), (0, 1, 1)),
                    (F(1, 3), F(1, 4), F(-1, 5))),
    "unimodular": (((1, 1, 0), (0, 1, 1), (1, 1, 1)),
                   (F(2, 3), -1, F(1, 2))),
    "det-3": (((2, 1, 0), (0, 1, 1), (1, 0, 1)),
              (F(-1, 2), F(3, 4), 2)),
}
RATIONAL = ("denominators-3-5-7", "det-minus-1")
CASES = [(4, name) for name in MAPS] + [
    (side, name) for side in (3, F(7, 2)) for name in RATIONAL]
CASE_IDS = [name if side == 4 else f"side-{side}-{name}".replace("/", "_")
            for side, name in CASES]


def mapped(c, name):
    return transformed(c, *MAPS[name])


def scaled(c, k):
    return transformed(c, ((k, 0, 0), (0, k, 0), (0, 0, k)))


@cache
def image(name, side=4):
    return mapped(zz_level(side, 1), name)


def test_maps_are_invertible_with_the_stated_determinants_and_denominators():
    dets = {name: det3(*(vec3(*r) for r in m)) for name, (m, _) in MAPS.items()}
    assert dets == {"denominators-3-5-7": F(107, 105), "det-minus-1": -1,
                    "unimodular": 1, "det-3": 3}
    # the integer maps move every axis off-axis
    for name in ("unimodular", "det-3"):
        m = MAPS[name][0]
        assert all(sum(1 for r in m if r[k]) > 1 for k in range(3))
    coordinates = [x for b in image("denominators-3-5-7")
                   for p in (b.origin, *b.generators) for x in p]
    for d in (3, 5, 7):
        assert any(type(x) is Fraction and x.denominator % d == 0
                   for x in coordinates)
    # a map with det < 0 makes construction swap two generators of each brick
    for b, c in zip(zz_level(4, 1), image("det-minus-1")):
        assert c.v == affine(MAPS["det-minus-1"][0])(b.w)


@pytest.mark.parametrize("side, name", CASES, ids=CASE_IDS)
def test_contacts_map_to_contacts(side, name):
    before, after = validate(zz_level(side, 1)), validate(image(name, side))
    assert [(pc.a, pc.b, pc.contact.kind) for pc in after.contacts] == [
        (pc.a, pc.b, pc.contact.kind) for pc in before.contacts]
    kinds = {pc.contact.kind for pc in before.contacts}
    assert kinds == {ContactKind.POINT, ContactKind.WHOLE_EDGE, ContactKind.WHOLE_FACE}
    f = affine(*MAPS[name])
    old = {b.id: b for b in zz_level(side, 1)}
    new = {b.id: b for b in image(name, side)}
    for pc, qc in zip(before.contacts, after.contacts):
        x, y = pc.contact, qc.contact
        assert set(map(f, x.points)) == set(y.points)
        if x.kind is ContactKind.WHOLE_FACE:
            for label, face, mapped_face in ((pc.a, x.face_a, y.face_a),
                                             (pc.b, x.face_b, y.face_b)):
                assert (set(map(f, old[label].face_polygon(face)))
                        == set(new[label].face_polygon(mapped_face)))


@pytest.mark.parametrize("side, name", CASES, ids=CASE_IDS)
def test_graph_and_topology_do_not_change(side, name):
    c, d = zz_level(side, 1), image(name, side)
    g, h = brick_graph(c, validate(c)), brick_graph(d, validate(d))
    assert (h.nodes, h.arcs) == (g.nodes, g.arcs)
    s, t = surface_stats(c, validate(c)), surface_stats(d, validate(d))
    counts = (s.vertex_count, s.edge_count, s.face_count, s.chi, s.genus)
    assert (t.vertex_count, t.edge_count, t.face_count, t.chi, t.genus) == counts
    assert (s.chi, s.genus) == (-4, 3)


@pytest.mark.parametrize("name", MAPS)
def test_mapped_polycubes_keep_the_voxel_chi(name):
    for seed in range(1, 21):
        c = random_rectilinear(seed)
        d = mapped(c, name)
        assert surface_stats(d, validate(d)).chi == voxel_chi(c)


def test_scaled_zz_embedded_stays_properly_joined_with_its_counts():
    c = zz_embedded()
    counts = surface_stats(c, validate(c)).as_tuple()
    for k in (2, F(1, 2), F(3, 4)):
        d = scaled(c, k)
        r = validate(d)
        assert r.properly_joined
        assert surface_stats(d, r).as_tuple() == counts


def test_scaled_zz_immersed_keeps_every_pair_kind():
    def kinds(c):
        return {(pc.a, pc.b): pc.contact.kind for pc in validate(c).contacts}

    base = kinds(zz_immersed())
    assert set(base.values()) & IMPROPER_KINDS
    assert kinds(scaled(zz_immersed(), F(2, 3))) == base


def pinch():
    """Two bricks of two frames that meet only at their corner (1, 1, 1)."""
    return brick_complex(
        [brick_from_box((0, 0, 0), (1, 1, 1), "a"),
         Brick("b", vec3(1, 1, 1), vec3(1, 1, 0), vec3(0, 1, 0), vec3(0, 0, 1))],
        name="pinch",
    )


@pytest.mark.parametrize("name", [None, *MAPS],
                         ids=lambda name: name or "as-built")
def test_two_frame_pinch_meets_at_one_point_under_every_map(name):
    c = pinch() if name is None else mapped(pinch(), name)
    corner = vec3(1, 1, 1) if name is None else affine(*MAPS[name])(vec3(1, 1, 1))
    report = validate(c)
    assert [(pc.contact.kind, pc.contact.points) for pc in report.contacts] == [
        (ContactKind.POINT, (corner,))]
    s = surface_stats(c, report)
    assert (s.vertex_count, s.edge_count, s.face_count, s.chi) == (15, 24, 12, 3)
    assert s.surface_components == 2
    assert s.edge_manifold and not s.vertex_manifold
