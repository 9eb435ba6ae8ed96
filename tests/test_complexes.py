"""Complex validation, the brick graph, degrees, and corners."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bricks.complexes import (
    BrickComplex,
    ComplexError,
    StaleReportError,
    ValidationReport,
    brick_complex,
    brick_graph,
    component_count,
    corners,
    degree_histogram,
    validate,
)
from bricks.constructions import fixture, zz_immersed
from bricks.geometry import ContactKind, brick_from_box
from bricks.refinement import apply_schedule, standard_zz_schedule


def cubes_at(*cells):
    return brick_complex(
        brick_from_box(c, tuple(x + 1 for x in c), f"b{i}")
        for i, c in enumerate(cells)
    )


def test_duplicate_labels_rejected():
    b = brick_from_box((0, 0, 0), (1, 1, 1), "x")
    with pytest.raises(ComplexError):
        brick_complex([b, b])


def test_two_glued_cubes_properly_joined():
    r = validate(cubes_at((0, 0, 0), (1, 0, 0)))
    assert r.properly_joined
    assert len(r.contacts) == 1
    assert r.contacts[0].contact.kind is ContactKind.WHOLE_FACE


def test_coincident_cubes_improper():
    c = brick_complex(
        [
            brick_from_box((0, 0, 0), (1, 1, 1), "a"),
            brick_from_box((0, 0, 0), (1, 1, 1), "b"),
        ]
    )
    r = validate(c)
    assert not r.properly_joined
    assert [pc.contact.kind for pc in r.improper_pairs] == [ContactKind.VOLUME_OVERLAP]


def test_zz_immersed_improper_with_volume_overlap():
    r = validate(zz_immersed())
    assert not r.properly_joined
    assert any(
        pc.contact.kind is ContactKind.VOLUME_OVERLAP for pc in r.improper_pairs
    )


def test_single_brick_graph():
    c = fixture("cube")
    g = brick_graph(c, validate(c))
    assert g.nodes == c.labels and g.arcs == ()
    assert g.degree[c.labels[0]] == 0
    assert corners(g) == list(c.labels)
    assert degree_histogram(g) == {0: 1}


def test_column_path_graph():
    c = fixture("column-3")
    g = brick_graph(c, validate(c))
    assert sorted(g.degree.values()) == [1, 1, 2]
    assert degree_histogram(g) == {1: 2, 2: 1}


def test_zz_immersed_degrees():
    c = zz_immersed()
    g = brick_graph(c, validate(c))
    for label in ("C1", "C2", "C3", "C4"):
        assert g.degree[label] == 3
    for label in ("X1", "X2", "X3", "Z1", "Z2", "Z3"):
        assert g.degree[label] == 2
    assert corners(g) == sorted(c.labels)


def test_refined_zz_is_cornerless():
    c = zz_immersed()
    refined = apply_schedule(c, standard_zz_schedule(c))
    assert len(refined) == 56
    g = brick_graph(refined, validate(refined))
    assert corners(g) == []
    assert min(degree_histogram(g)) >= 4


def test_stale_report_rejected():
    a, b = fixture("cube"), fixture("column-3")
    with pytest.raises(StaleReportError):
        brick_graph(b, validate(a))


def test_repeated_pair_report_rejected():
    c = cubes_at((0, 0, 0), (1, 0, 0))
    report = validate(c)
    (pc,) = report.whole_face_contacts()
    doubled = ValidationReport(labels=report.labels, contacts=(pc, pc))
    with pytest.raises(StaleReportError, match="twice"):
        brick_graph(c, doubled)


def test_component_count():
    joined = cubes_at((0, 0, 0), (1, 0, 0))
    split = cubes_at((0, 0, 0), (4, 4, 4))
    assert component_count(brick_graph(joined, validate(joined))) == 1
    assert component_count(brick_graph(split, validate(split))) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_validation_permutation_invariant(seed):
    rng = random.Random(seed)
    base = fixture(f"random-{seed % 50}")
    shuffled_bricks = list(base.bricks)
    rng.shuffle(shuffled_bricks)
    shuffled = BrickComplex(tuple(shuffled_bricks), name=base.name)
    r1, r2 = validate(base), validate(shuffled)
    assert r1.properly_joined == r2.properly_joined
    g1 = brick_graph(base, r1)
    g2 = brick_graph(shuffled, r2)
    assert sorted(g1.degree.values()) == sorted(g2.degree.values())
    assert {(pc.a, pc.b, pc.contact.kind) for pc in r1.contacts} == {
        (pc.a, pc.b, pc.contact.kind) for pc in r2.contacts
    }
