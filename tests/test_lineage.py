"""The lineage pair source that apply_schedule validates its output with.

Every child lies inside its parent, so a pair of children whose parents are
disjoint is DISJOINT, and so is a pair in which one child misses its
parents' contact. When the input is properly joined, apply_schedule
validates its output once through the lineage, classifying only the sibling
pairs its cuts let meet and the remaining children of touching parents, and
returns it without the lineage. These tests check that report, and the
sweep of an improper input's output, against a full validate of a fresh
copy of the same bricks, down to scalar types, on standard and random
schedules and on rational frames; check that the lineage classifies no more
pairs than that validate; and put floors on what the corpus exercises: each
reason a pair is skipped and each kind of parent contact.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from bricks import refinement
from bricks.complexes import (
    BrickComplex,
    PairBudgetError,
    _aabb_meeting_pairs,
    validate,
)
from bricks.constructions import (
    random_rectilinear,
    zz_embedded,
    zz_immersed,
)
from bricks.geometry import Brick, ContactKind, classify_contact, vec3
from bricks.refinement import (
    Keep,
    Octasect,
    QuarterLengthwise,
    SplitAt,
    _lineage_pairs,
    apply_schedule,
    is_cube_shaped,
    long_direction,
    standard_zz_schedule,
)
from support import affine, standard_chain, transformed, typed_report, zz_level

HALF = Fraction(1, 2)
FRACTIONS = sorted({Fraction(n, d) for d in (2, 3, 4, 5) for n in range(1, d)})
# affine maps (linear part, translation): integer shears of det +1 and -1
# that move every axis off-axis but one, and a rational map of det -103/105,
# with denominators 3, 5 and 7, that moves every axis off-axis and translates
# by a rational vector
SHEARS = {
    "det+1": (((1, 1, 1), (0, 1, 1), (0, 0, 1)), (0, 0, 0)),
    "det-1": (((0, 1, 1), (1, 0, 0), (0, 0, 1)), (0, 0, 0)),
    "rational": (((0, Fraction(2, 5), 1), (Fraction(1, 3), 1, 0),
                  (1, 0, Fraction(-1, 7))),
                 (HALF, Fraction(-2, 3), Fraction(3, 11))),
}


def with_overlap(c: BrickComplex) -> BrickComplex:
    """c and a brick overlapping its first one in volume. The complex is then
    improper, so apply_schedule leaves its refinement unvalidated, however
    improper that is, and validate sweeps it later."""
    b = c.bricks[0]
    shift = (b.u + b.v + b.w).scale(HALF)
    extra = Brick("overlap", b.origin + shift, b.u, b.v, b.w)
    return BrickComplex((*c.bricks, extra), name=c.name)


def random_schedule(rng: random.Random, c: BrickComplex) -> dict:
    """Keep, octasect, quarter or split each brick, at random."""
    schedule = {}
    for b in c:
        kind = rng.randrange(4)
        if kind == 1:
            schedule[b.id] = Octasect()
        elif kind == 2:
            schedule[b.id] = QuarterLengthwise(rng.randrange(3))
        elif kind == 3:
            cuts = sorted(rng.sample(FRACTIONS, rng.randint(1, 3)))
            schedule[b.id] = SplitAt(rng.randrange(3), tuple(cuts))
        else:
            schedule[b.id] = Keep()
    return schedule


def uniform_schedule(rng: random.Random, c: BrickComplex) -> dict:
    """One operator for every brick, so a polycube stays properly joined
    and apply_schedule validates its refinement itself."""
    op = rng.choice([
        Octasect(),
        QuarterLengthwise(rng.randrange(3)),
        SplitAt(rng.randrange(3), tuple(sorted(rng.sample(FRACTIONS, 2)))),
    ])
    return dict.fromkeys(c.labels, op)


def sheared_standard_chain(c: BrickComplex, shear, times: int):
    """standard_chain of c under the affine map shear, an (m, t) of SHEARS.
    A shear changes which bricks are cube-shaped and which generator is
    longest, so each step takes its schedule from the unsheared complex,
    each quarter direction carried to the sheared brick's generator that is
    the image of the long one."""
    apply = affine(shear[0])
    sc, out = transformed(c, *shear), []
    for _ in range(times):
        schedule = {}
        for b, sb in zip(c, sc):
            if is_cube_shaped(b):
                schedule[b.id] = Octasect()
            else:
                long = apply(b.generators[long_direction(b)])
                schedule[b.id] = QuarterLengthwise(sb.generators.index(long))
        refined = apply_schedule(sc, schedule)
        out.append((sc, refined))
        c, sc = apply_schedule(c, standard_zz_schedule(c)), refined
    return out


def zz(side):
    return zz_embedded(side)


def polycubes(transform=lambda c: c):
    rng = random.Random(7)
    out = []
    for seed in range(1, 21):
        c = transform(random_rectilinear(seed, max_bricks=20))
        out.append((c, apply_schedule(c, uniform_schedule(rng, c))))
        c = with_overlap(c)
        out.append((c, apply_schedule(c, random_schedule(rng, c))))
    return out


def randomly_refined(c: BrickComplex, seed: int, times: int):
    rng = random.Random(seed)
    out = []
    for _ in range(times):
        refined = apply_schedule(c, random_schedule(rng, c))
        out.append((c, refined))
        c = refined
    return out


# name -> (parent, refined) pairs; the refinements of zz-immersed and of
# the random schedules on improper inputs are swept only when a test
# validates them
GROUPS = {
    "zz-embedded-4": lambda: standard_chain(zz(4), 2),
    "zz-embedded-3": lambda: standard_chain(zz(3), 2),
    **{f"zz-embedded-4-{name}": (lambda a=a: sheared_standard_chain(zz(4), a, 2))
       for name, a in SHEARS.items()},
    "zz-immersed": lambda: standard_chain(zz_immersed(), 2),
    "zz-random": lambda: [*randomly_refined(with_overlap(zz(4)), 1, 2),
                          *randomly_refined(zz_immersed(), 2, 1)],
    "polycubes": polycubes,
    **{f"polycubes-{name}": (lambda a=a: polycubes(lambda c: transformed(c, *a)))
       for name, a in SHEARS.items()},
}


@cache
def cases(name):
    """(parent, refined, lineage) for each refinement of the group, where
    lineage is the (report, spans, schedule) that apply_schedule's validate
    of refined read, or None if it read none."""
    read, kept = {}, []

    def recording(bricks, *lineage):
        kept.append(bricks)  # alive, so no other tuple takes its id
        read[id(bricks)] = lineage
        return _lineage_pairs(bricks, *lineage)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refinement, "_lineage_pairs", recording)
        pairs = GROUPS[name]()
    return [(parent, refined, read.get(id(refined.bricks)))
            for parent, refined in pairs]


@pytest.mark.parametrize("name", GROUPS)
def test_lineage_report_equals_a_full_validate(name):
    for parent, refined, lineage in cases(name):
        assert refined._pairs is None
        if validate(parent).properly_joined:
            assert lineage[0] is validate(parent)
        else:
            assert lineage is None
        report = validate(refined)
        fresh = BrickComplex(refined.bricks, name=refined.name)
        assert fresh == refined and repr(fresh) == repr(refined)
        assert typed_report(report) == typed_report(validate(fresh))


def skip_reasons(refined: BrickComplex, lineage) -> Counter:
    """Swept pairs of refined that its lineage does not yield, by reason:
    "slabs apart" (two slabs of one split, not neighbours, so DISJOINT),
    "parents apart", or the kind of the parents' contact that a child
    misses."""
    report, spans, schedule = lineage
    bricks = refined.bricks
    yielded = list(_lineage_pairs(bricks, *lineage))
    assert all(i < j for i, j in yielded) and len(set(yielded)) == len(yielded)
    parent_of = {k: p.id for p, r in zip(report.bricks, spans) for k in r}
    touching = {(pc.a, pc.b): pc.contact.kind for pc in report.contacts}
    reasons = Counter()
    swept = set(_aabb_meeting_pairs(bricks))
    assert swept.issuperset(yielded)
    for i, j in swept.difference(yielded):
        p, q = sorted((parent_of[i], parent_of[j]))
        if p == q:
            assert isinstance(schedule[p], SplitAt) and j - i > 1
            assert classify_contact(bricks[i], bricks[j]).kind is ContactKind.DISJOINT
            reasons["slabs apart"] += 1
        else:
            reasons[touching.get((p, q), "parents apart")] += 1
    return reasons


def test_corpus_skips_pairs_for_each_reason_and_has_each_parent_contact():
    reasons, kinds = Counter(), Counter()
    for name in GROUPS:
        for _, refined, lineage in cases(name):
            if lineage is not None:
                reasons += skip_reasons(refined, lineage)
                kinds.update(pc.contact.kind for pc in lineage[0].contacts)
    assert reasons["slabs apart"] >= 100
    assert reasons["parents apart"] >= 10_000
    assert reasons[ContactKind.WHOLE_FACE] >= 5_000
    assert reasons[ContactKind.WHOLE_EDGE] >= 5_000
    assert reasons[ContactKind.POINT] >= 2_000
    assert set(reasons) <= {"slabs apart", "parents apart", ContactKind.WHOLE_FACE,
                            ContactKind.WHOLE_EDGE, ContactKind.POINT}
    assert kinds[ContactKind.POINT] >= 800
    assert kinds[ContactKind.WHOLE_EDGE] >= 2_000
    assert kinds[ContactKind.WHOLE_FACE] >= 1_500
    assert set(kinds) == {ContactKind.POINT, ContactKind.WHOLE_EDGE,
                          ContactKind.WHOLE_FACE}


def counted(monkeypatch, calls, validated):
    """validated() with each pair that validate classifies inside it
    appended to calls."""
    def counting(a, b):
        calls.append((a.id, b.id))
        return classify_contact(a, b)

    with monkeypatch.context() as mp:
        mp.setattr("bricks.complexes.classify_contact", counting)
        return validated()


def test_refined_zz_embedded_classifies_only_its_contacts(monkeypatch):
    for side in (4, 3):
        c = zz_level(side, 1)
        validate(c)
        calls = []
        refined = counted(monkeypatch, calls,
                          lambda: apply_schedule(c, standard_zz_schedule(c)))
        assert refined._pairs is None
        assert len(calls) == len(validate(refined).contacts) == 3972


def test_a_copy_with_other_bricks_is_swept():
    c = zz_level(4, 1)
    t = vec3(1, 0, 0)
    moved = tuple(Brick(b.id, b.origin + t, b.u, b.v, b.w) for b in c)
    copy = dataclasses.replace(c, bricks=moved)
    assert copy._pairs is None
    assert validate(copy) == validate(BrickComplex(moved))


def test_a_thousand_slab_skew_split_classifies_only_neighbours(monkeypatch):
    # every pair of the 1,000 slabs has meeting AABBs: a sweep yields
    # 499,500, past the budget, but the cut says only neighbours meet
    c = BrickComplex((Brick("a", vec3(0, 0, 0), vec3(1, 0, 0), vec3(1, 1, 0),
                            vec3(0, 0, 1)),))
    schedule = {"a": SplitAt(0, tuple(Fraction(k, 1000) for k in range(1, 1000)))}
    calls = []
    refined = counted(monkeypatch, calls, lambda: apply_schedule(c, schedule))
    assert len(refined) == 1000 and len(calls) == 999
    assert len(validate(refined).whole_face_contacts()) == 999
    assert len(validate(refined).contacts) == 999
    with pytest.raises(PairBudgetError):
        validate(BrickComplex(refined.bricks))


def split_cases():
    """(complex, schedule): random splits at 3 to 5 fractions of
    zz-embedded's skew connectors, each along its long generator so that
    its end faces stay whole, and of sheared polycubes, one split for every
    brick."""
    rng = random.Random(11)

    def cuts():
        return tuple(sorted(rng.sample(FRACTIONS, rng.randint(3, 5))))

    for side in (4, 3):
        c = zz(side)
        for _ in range(3):
            yield c, {b.id: SplitAt(0, cuts()) for b in c if b.id[0] in "XZ"}
    for shear in SHEARS.values():
        for seed in range(1, 11):
            c = transformed(random_rectilinear(seed, max_bricks=20), *shear)
            yield c, dict.fromkeys(c.labels, SplitAt(rng.randrange(3), cuts()))


def test_random_splits_classify_no_more_than_a_fresh_validate(monkeypatch):
    lineage = fresh = 0
    for c, schedule in split_cases():
        validate(c)
        calls = []
        refined = counted(monkeypatch, calls, lambda: apply_schedule(c, schedule))
        copy = BrickComplex(refined.bricks, name=refined.name)
        fresh_calls = []
        report = counted(monkeypatch, fresh_calls, lambda: validate(copy))
        assert typed_report(validate(refined)) == typed_report(report)
        assert report.properly_joined
        assert len(calls) <= len(fresh_calls)
        lineage += len(calls)
        fresh += len(fresh_calls)
    assert lineage < fresh
