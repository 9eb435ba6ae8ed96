"""Complex validation, the brick graph, degrees, and corners."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bricks import complexes
from bricks.complexes import (
    PAIR_BUDGET,
    BrickComplex,
    ComplexError,
    PairBudgetError,
    PairContact,
    StaleReportError,
    ValidationReport,
    _aabb_meeting_pairs,
    brick_complex,
    brick_graph,
    component_count,
    corners,
    degree_histogram,
    validate,
)
from bricks.constructions import (
    fixture,
    fixture_names,
    random_rectilinear,
    zz_embedded,
    zz_immersed,
)
from bricks.geometry import (
    Brick,
    Contact,
    ContactKind,
    GeometryError,
    brick_from_box,
    classify_contact,
    det3,
    vec3,
)
from bricks.fileformats import emit_complex, export_obj, parse_complex
from bricks.refinement import (
    apply_schedule,
    standard_zz_schedule,
    two_opposite_covered,
)
from bricks.surface import exposed_faces, surface_stats
from support import (
    classified_report,
    refined,
    standard_chain,
    transformed,
    typed_report,
    zz_level,
)


def cubes_at(*cells):
    return brick_complex(
        brick_from_box(c, tuple(x + 1 for x in c), f"b{i}")
        for i, c in enumerate(cells)
    )


def test_duplicate_labels_rejected():
    b = brick_from_box((0, 0, 0), (1, 1, 1), "x")
    with pytest.raises(ComplexError):
        brick_complex([b, b])


def test_non_str_brick_id_or_name_is_a_typed_error():
    cube = (vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
    with pytest.raises(GeometryError, match="must be a str"):
        brick_complex([Brick(5, *cube)])
    with pytest.raises(ComplexError, match="must be a str, not int"):
        brick_complex([Brick("a", *cube)], name=7)


@pytest.mark.parametrize("items", [["a"], [None], "ab"])
def test_non_brick_item_is_a_typed_error(items):
    with pytest.raises(ComplexError, match="must be a Brick"):
        brick_complex(items)


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


def test_improper_pairs_are_computed_once_and_stay_out_of_equality_and_repr():
    r = validate(zz_immersed())
    copy = ValidationReport(r.bricks, r.contacts)
    text = repr(copy)
    assert r.improper_pairs is r.improper_pairs
    assert r == copy and repr(r) == text
    assert copy.improper_pairs == r.improper_pairs and repr(copy) == text


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


@pytest.mark.parametrize(
    "consumer",
    [brick_graph, exposed_faces, surface_stats, two_opposite_covered, export_obj],
    ids=lambda f: f.__name__,
)
def test_report_of_other_bricks_with_the_same_labels_rejected(consumer):
    glued = cubes_at((0, 0, 0), (1, 0, 0))
    apart = cubes_at((0, 0, 0), (2, 0, 0))
    assert glued.labels == apart.labels
    with pytest.raises(StaleReportError):
        consumer(apart, validate(glued))


def test_report_passes_for_the_same_bricks():
    c = fixture("column-3")
    report = validate(c)
    renamed = BrickComplex(c.bricks, name="other")
    reparsed = parse_complex(emit_complex(c))
    assert report.bricks is renamed.bricks and report.bricks is not reparsed.bricks
    for other in (renamed, reparsed):
        assert brick_graph(other, report) == brick_graph(c, report)
        assert surface_stats(other, report) == surface_stats(c, report)


def test_validate_is_memoized_per_complex(monkeypatch):
    # properly joined, so apply_schedule validates the refined complex too
    c = zz_embedded()
    assert validate(c) is validate(c)
    refined = apply_schedule(c, standard_zz_schedule(c))
    calls = []

    def counting(a, b):
        calls.append((a.id, b.id))
        return classify_contact(a, b)

    monkeypatch.setattr("bricks.complexes.classify_contact", counting)
    validate(refined)
    assert calls == []
    validate(BrickComplex(refined.bricks))
    assert calls


def test_repeated_pair_report_rejected():
    c = cubes_at((0, 0, 0), (1, 0, 0))
    report = validate(c)
    (pc,) = report.whole_face_contacts()
    doubled = ValidationReport(report.bricks, contacts=(pc, pc))
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


class TestSlottedRecords:
    """Contact and PairContact are frozen dataclasses with __slots__: no
    per-instance dict, yet immutable, hashable and picklable as before."""

    SKEW = {
        # one frame, Fraction coordinates: every pair co-framed
        "sheared-polycube": lambda: transformed(
            random_rectilinear(3),
            ((1, Fraction(1, 2), 0), (0, 1, Fraction(1, 3)), (0, 0, 1))),
        # eleven frames: co-framed and skew pairs
        "zz-embedded-7/2": lambda: zz_embedded(Fraction(7, 2)),
    }

    def test_no_instance_dict_and_frozen_fields(self):
        contact = Contact(ContactKind.POINT, (vec3(0, 0, 0),))
        pc = PairContact("a", "b", contact)
        for record in (contact, pc):
            assert not hasattr(record, "__dict__")
            for name in (f.name for f in dataclasses.fields(record)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)

    def test_equal_values_hash_equally(self):
        def make():
            p, q = vec3(0, 0, Fraction(1, 2)), vec3(1, 0, Fraction(1, 2))
            return PairContact("a", "b", Contact(ContactKind.WHOLE_EDGE, (p, q)))

        first, second = make(), make()
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert hash(first.contact) == hash(second.contact)
        assert len({first, second}) == 1

    @pytest.mark.parametrize("name", sorted(SKEW))
    def test_skew_report_survives_pickle_and_deepcopy(self, name):
        c = self.SKEW[name]()
        assert any(b.box is None for b in c)
        report = validate(c)
        assert any(pc.contact.face_a is not None for pc in report.contacts)
        assert any(type(x) is Fraction
                   for pc in report.contacts for p in pc.contact.points for x in p)
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert copied == report
            assert typed_report(copied) == typed_report(report)
            assert copied.bricks == report.bricks


# an integer shear of det 1 that takes every axis but x off-axis
SHEAR = ((1, 1, 1), (0, 1, 1), (0, 0, 1))


class TestBroadPhaseMatchesBruteForce:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        c = fixture(name)
        assert validate(c) == classified_report(c)

    def test_random_polycubes(self):
        for seed in range(1, 51):
            c = random_rectilinear(seed)
            assert validate(c) == classified_report(c)

    @pytest.mark.parametrize("times", [0, 1, 2])
    def test_refined_zz_embedded(self, times):
        c = zz_level(4, times)
        assert validate(c) == classified_report(c)

    def test_zz_immersed(self):
        c = zz_immersed()
        assert validate(c) == classified_report(c)

    def test_sheared_polycubes(self):
        for seed in range(1, 21):
            c = transformed(random_rectilinear(seed), SHEAR)
            assert all(b.box is None for b in c)
            assert validate(c) == classified_report(c)


halves = st.integers(0, 8).map(lambda k: Fraction(k, 2))


@st.composite
def sweep_complexes(draw):
    """Bricks that stress the sweep: boxes on the half-integer grid (ties in
    x-low; AABBs that meet in a plane, an edge or a point), bars spanning the
    whole x range past many others, and skew bricks, whose AABBs can overlap
    while the bricks are disjoint."""
    bricks = []
    for i in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(["box", "box", "bar", "skew"]))
        if kind == "skew":
            gens = [vec3(*(draw(st.integers(-2, 2)) for _ in range(3)))
                    for _ in range(3)]
            assume(det3(*gens) != 0)
            origin = vec3(*(draw(halves) for _ in range(3)))
            bricks.append(Brick(f"k{i}", origin, *gens))
            continue
        lo = [draw(halves) for _ in range(3)]
        hi = [x + Fraction(draw(st.integers(1, 4)), 2) for x in lo]
        if kind == "bar":
            lo[0], hi[0] = 0, 8
        bricks.append(brick_from_box(lo, hi, f"{kind}{i}"))
    return brick_complex(bricks)


@settings(max_examples=80, deadline=None)
@given(sweep_complexes())
# x-high of one brick equals x-low of the other, and they meet in a face, an
# edge or a point; then two lattice bricks whose AABBs overlap in volume
@example(cubes_at((0, 0, 0), (1, 0, 0)))
@example(cubes_at((0, 0, 0), (1, 1, 0)))
@example(cubes_at((0, 0, 0), (1, 1, 1)))
@example(brick_complex([
    Brick("a", vec3(1, 1, 0), vec3(1, 0, 0), vec3(1, 1, 0), vec3(1, 1, 1)),
    Brick("b", vec3(2, 0, 0), vec3(1, 0, 0), vec3(1, 1, 0), vec3(1, 1, 1)),
]))
def test_broad_phase_matches_brute_force_on_sweep_stressing_bricks(c):
    assert validate(c) == classified_report(c)


def aabbs_meet(a: Brick, b: Brick) -> bool:
    return all(lo <= hi2 and lo2 <= hi
               for (lo, hi), (lo2, hi2) in zip(a.aabb, b.aabb))


def brute_force_aabb_pairs(bricks) -> set:
    return {(i, j) for i, j in combinations(range(len(bricks)), 2)
            if aabbs_meet(bricks[i], bricks[j])}


@st.composite
def boxes(draw):
    """Boxes whose corners lie on a grid of step 1 or 1/3, so coordinates
    are ints, Fractions or both, many x-lows are equal, and boxes share
    faces, edges and corners."""
    step = draw(st.sampled_from([1, Fraction(1, 3)]))
    bricks = []
    for i in range(draw(st.integers(2, 14))):
        lo = [draw(st.integers(0, 4)) for _ in range(3)]
        hi = [x + draw(st.integers(1, 2)) for x in lo]
        bricks.append(brick_from_box([x * step for x in lo], [x * step for x in hi],
                                     f"b{i}"))
    return tuple(bricks)


def scan_case(*boxes):
    return tuple(brick_from_box(lo, hi, f"b{i}") for i, (lo, hi) in enumerate(boxes))


UNIT = ((0, 0, 0), (1, 1, 1))
THIRD = Fraction(1, 3)


@settings(max_examples=300, deadline=None)
@given(boxes())
# boxes that meet only where x-high equals x-low, y-high y-low or z-high z-low,
# the box that sorts first lying below or above the other; boxes apart in y
# only, and in z only; three equal boxes
@example(scan_case(UNIT, ((1, 0, 0), (2, 1, 1))))
@example(scan_case(UNIT, ((0, 1, 0), (1, 2, 1))))
@example(scan_case(UNIT, ((0, 0, 1), (1, 1, 2))))
@example(scan_case(((0, 1, 0), (1, 2, 1)), ((1, 0, 0), (2, 1, 1))))
@example(scan_case(((0, 0, 1), (1, 1, 2)), ((1, 0, 0), (2, 1, 1))))
@example(scan_case(UNIT, ((0, 2, 0), (1, 3, 1))))
@example(scan_case(UNIT, ((0, 0, 2), (1, 1, 3))))
@example(scan_case(((0, 0, 0), (THIRD, 1, 1)), ((THIRD, 1, 1), (1, 2, 2))))
@example(scan_case(UNIT, UNIT, UNIT))
def test_aabb_scan_matches_brute_force(bricks):
    pairs = list(_aabb_meeting_pairs(bricks))
    assert all(i < j for i, j in pairs) and len(set(pairs)) == len(pairs)
    assert set(pairs) == brute_force_aabb_pairs(bricks)


def test_broad_phase_classifies_only_contacts_on_a_unit_cube_block(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a.id, b.id))
        return classify_contact(a, b)

    monkeypatch.setattr("bricks.complexes.classify_contact", counting)
    report = validate(cubes_at(*product(range(10), repeat=3)))
    # 2,700 whole faces, 4,860 whole edges and 2,916 points
    assert len(calls) == len(report.contacts) == 10_476


# --- the pair budget --------------------------------------------------------


def pair_budget(n: int) -> int:
    per_brick, base = PAIR_BUDGET
    return per_brick * n + base


def identical_cubes(n: int) -> BrickComplex:
    return brick_complex(brick_from_box((0, 0, 0), (1, 1, 1), f"c{i}")
                         for i in range(n))


def test_pair_budget_refuses_the_first_pair_past_it(monkeypatch):
    """All n(n-1)/2 pairs of n identical cubes meet: 219 cubes classify
    23,871 pairs, within their budget of 24,016; 220 cubes would classify
    24,090, past their 24,080, so validate raises before the 24,081st."""
    assert pair_budget(219) == 24_016 and pair_budget(220) == 24_080
    assert len(validate(identical_cubes(219)).improper_pairs) == 219 * 218 // 2
    calls = []

    def counting(a, b):
        calls.append(None)
        return classify_contact(a, b)

    monkeypatch.setattr("bricks.complexes.classify_contact", counting)
    with pytest.raises(PairBudgetError,
                       match="^220 bricks need more than the budget of 24080 pair"):
        validate(identical_cubes(220))
    assert len(calls) == 24_080
    assert issubclass(PairBudgetError, ValueError)


def test_suite_complexes_classify_at_most_half_the_pair_budget(monkeypatch):
    """The budget refuses none of the complexes the suite builds, with half
    of it to spare. n bricks classify at most n(n-1)/2 pairs, which settles
    every complex of at most 133 bricks (the fixtures, the random polycubes
    and test_surface's overlapping boxes, 2 to 9 each); the larger ones are
    counted as they validate, through their lineage where apply_schedule
    refined a properly joined input, and by their sweep as a fresh parse
    would validate them.
    The worst is the sweep of zz-embedded refined three times, 74,611 pairs
    for 2,688 bricks."""
    shares = []
    classified = complexes._classified

    def counting(bricks, pairs):
        pairs = list(pairs)
        shares.append(len(pairs) / pair_budget(len(bricks)))
        return classified(bricks, pairs)

    monkeypatch.setattr(complexes, "_classified", counting)
    small = [
        *(fixture(name) for name in fixture_names()),
        *(random_rectilinear(seed) for seed in range(1, 51)),
        *(random_rectilinear(seed, max_bricks=60, grid=4) for seed in range(1, 201)),
        zz_immersed(),
    ]
    assert all(n * (n - 1) // 2 <= pair_budget(n) // 2 for n in range(134))
    assert max(map(len, small)) <= 133
    large = [cubes_at(*product(range(10), repeat=3)), refined(zz_immersed())]
    for side, times in ((4, 3), (3, 2), (Fraction(7, 2), 2)):
        chain = standard_chain(zz_embedded(side), times)
        large += [chain[0][0], *(c for _, c in chain)]
    for c in large:
        validate(c)
        sweep = sum(1 for _ in _aabb_meeting_pairs(c.bricks))
        shares.append(sweep / pair_budget(len(c)))
        if len(c) == 2688:
            assert sweep == 74_611
    assert len(shares) > len(large) and max(shares) <= 0.5
