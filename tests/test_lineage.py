"""validate's lineage pair source for a complex that apply_schedule refined.

Every child lies inside its parent, so a pair of children whose parents are
disjoint is DISJOINT, and so is a pair in which one child misses its
parents' contact. A refined complex classifies only sibling pairs and the
remaining children of touching parents. These tests check its report against
a full validate of a fresh copy of the same bricks, down to scalar types, on
standard and random schedules, and put floors on what the corpus exercises:
each reason a pair is skipped and each kind of parent contact.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from bricks.complexes import (
    BrickComplex,
    _aabb_meeting_pairs,
    _lineage_pairs,
    validate,
)
from bricks.constructions import (
    ZZParams,
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
    apply_schedule,
    is_cube_shaped,
    long_direction,
    standard_zz_schedule,
)

HALF = Fraction(1, 2)
FRACTIONS = sorted({Fraction(n, d) for d in (2, 3, 4, 5) for n in range(1, d)})
# integer shears of det +1 and -1 that move every axis off-axis but one
SHEARS = {
    "det+1": ((1, 1, 1), (0, 1, 1), (0, 0, 1)),
    "det-1": ((0, 1, 1), (1, 0, 0), (0, 0, 1)),
}


def typed(contact):
    return (contact.kind, contact.face_a, contact.face_b,
            [[(type(c), c) for c in p] for p in contact.points])


def typed_report(report):
    return [(pc.a, pc.b, typed(pc.contact)) for pc in report.contacts]


def linear(m):
    return lambda p: vec3(*(sum(r[k] * p[k] for k in range(3)) for r in m))


def sheared(c: BrickComplex, m) -> BrickComplex:
    apply = linear(m)
    return BrickComplex(
        tuple(Brick(b.id, apply(b.origin), apply(b.u), apply(b.v), apply(b.w))
              for b in c),
        name=c.name,
    )


def with_overlap(c: BrickComplex) -> BrickComplex:
    """c and a brick overlapping its first one in volume. The complex is then
    improper, so apply_schedule leaves its refinement unvalidated, however
    improper that is, and validate runs on it later."""
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


def standard_chain(c: BrickComplex, times: int):
    """(parent, refined) for each of times standard refinements of c."""
    out = []
    for _ in range(times):
        refined = apply_schedule(c, standard_zz_schedule(c))
        out.append((c, refined))
        c = refined
    return out


def sheared_standard_chain(c: BrickComplex, m, times: int):
    """standard_chain of c sheared by m. A shear changes which bricks are
    cube-shaped and which generator is longest, so each step takes its
    schedule from the unsheared complex, each quarter direction carried to
    the sheared brick's generator that is the image of the long one."""
    apply = linear(m)
    sc, out = sheared(c, m), []
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
    return zz_embedded(ZZParams(cube_side=side))


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


# name -> (parent, refined) pairs; zz-immersed and the random schedules on
# improper inputs are validated only when the test asks
GROUPS = {
    "zz-embedded-4": lambda: standard_chain(zz(4), 2),
    "zz-embedded-3": lambda: standard_chain(zz(3), 2),
    **{f"zz-embedded-4-{name}": (lambda m=m: sheared_standard_chain(zz(4), m, 2))
       for name, m in SHEARS.items()},
    "zz-immersed": lambda: standard_chain(zz_immersed(), 2),
    "zz-random": lambda: [*randomly_refined(with_overlap(zz(4)), 1, 2),
                          *randomly_refined(zz_immersed(), 2, 1)],
    "polycubes": polycubes,
    **{f"polycubes-{name}": (lambda m=m: polycubes(lambda c: sheared(c, m)))
       for name, m in SHEARS.items()},
}

cases = cache(lambda name: GROUPS[name]())


@pytest.mark.parametrize("name", GROUPS)
def test_lineage_report_equals_a_full_validate(name):
    for parent, refined in cases(name):
        assert refined._lineage[0] is validate(parent)
        report = validate(refined)
        fresh = BrickComplex(refined.bricks, name=refined.name)
        assert fresh == refined and repr(fresh) == repr(refined)
        assert typed_report(report) == typed_report(validate(fresh))


def skip_reasons(refined: BrickComplex) -> Counter:
    """Swept pairs of refined that its lineage does not yield, by reason:
    "parents apart", or the kind of the parents' contact that a child
    misses."""
    report, spans = refined._lineage
    yielded = list(_lineage_pairs(refined.bricks, report, spans))
    assert all(i < j for i, j in yielded) and len(set(yielded)) == len(yielded)
    parent_of = {k: p.id for p, r in zip(report.bricks, spans) for k in r}
    touching = {(pc.a, pc.b): pc.contact.kind for pc in report.contacts}
    reasons = Counter()
    for i, j in set(_aabb_meeting_pairs(refined.bricks)).difference(yielded):
        p, q = sorted((parent_of[i], parent_of[j]))
        assert p != q  # siblings are all swept
        reasons[touching.get((p, q), "parents apart")] += 1
    return reasons


def test_corpus_skips_pairs_for_each_reason_and_has_each_parent_contact():
    reasons, kinds = Counter(), Counter()
    for name in GROUPS:
        for parent, refined in cases(name):
            reasons += skip_reasons(refined)
            kinds.update("improper" if pc.contact.improper else pc.contact.kind
                         for pc in validate(parent).contacts)
    assert reasons["parents apart"] >= 10_000
    assert reasons[ContactKind.WHOLE_FACE] >= 5_000
    assert reasons[ContactKind.WHOLE_EDGE] >= 5_000
    assert reasons[ContactKind.POINT] >= 2_000
    assert set(reasons) <= {"parents apart", ContactKind.WHOLE_FACE,
                            ContactKind.WHOLE_EDGE, ContactKind.POINT}
    assert kinds[ContactKind.POINT] >= 800
    assert kinds[ContactKind.WHOLE_EDGE] >= 2_000
    assert kinds[ContactKind.WHOLE_FACE] >= 1_500
    assert kinds["improper"] >= 200


def test_refined_zz_embedded_classifies_only_its_contacts(monkeypatch):
    (_, c), = standard_chain(zz_embedded(), 1)
    validate(c)
    calls = []

    def counting(a, b):
        calls.append((a.id, b.id))
        return classify_contact(a, b)

    monkeypatch.setattr("bricks.complexes.classify_contact", counting)
    refined = apply_schedule(c, standard_zz_schedule(c))
    assert len(calls) == len(validate(refined).contacts) == 3972


def test_a_copy_with_other_bricks_is_swept():
    (_, refined), = standard_chain(zz_embedded(), 1)
    t = vec3(1, 0, 0)
    moved = tuple(Brick(b.id, b.origin + t, b.u, b.v, b.w) for b in refined)
    copy = dataclasses.replace(refined, bricks=moved)
    assert copy._lineage is None
    assert validate(copy) == validate(BrickComplex(moved))
