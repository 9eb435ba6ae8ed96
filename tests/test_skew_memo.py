"""validate's per-pass memo of skew contacts, keyed by both generator
triples and the offset between the origins.

The memo rests on translation covariance: moving both bricks by t keeps the
kind and the face indices of their contact and moves its points by t. These
tests check that fact, check validate against a memo-free classification of
the same swept pairs down to scalar types, and check that a memo lives only
for its pass and only in its own thread.
"""

import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bricks import geometry
from bricks.complexes import (
    BrickComplex,
    _aabb_meeting_pairs,
    validate,
)
from bricks.constructions import zz_immersed
from bricks.geometry import (
    Brick,
    Contact,
    ContactKind,
    _skew_memo,
    _skew_memo_scope,
    classify_contact,
    det3,
    vec3,
)
from support import classified_report, fresh, typed, typed_report, zz_level

HALF = Fraction(1, 2)
ORIGIN = vec3(0, 0, 0)


def moved(brick: Brick, t) -> Brick:
    return Brick(brick.id, brick.origin + t, brick.u, brick.v, brick.w)


def shifted(contact: Contact, t) -> Contact:
    return Contact(contact.kind, tuple(p + t for p in contact.points),
                   contact.face_a, contact.face_b)


def memo_key(a: Brick, b: Brick):
    return (a.u, a.v, a.w, b.u, b.v, b.w, b.origin - a.origin)


VECTORS = [vec3(*c) for c in product(range(-2, 3), repeat=3) if any(c)]
POINTS = [vec3(*c) for c in product(range(-3, 4), repeat=3)]
NUDGES = [ORIGIN] * 8 + [vec3(*c) for c in product((0, HALF, -1), repeat=3)]


def skew_pair(choose):
    """Two small bricks not of one frame, b placed so that one of its
    vertices lies on or next to one of a's, so they often touch; b may
    share a generator with a, so they may share a whole edge. choose(options)
    picks one option."""
    while True:
        ga, gb = [[choose(VECTORS) for _ in range(3)] for _ in range(2)]
        if choose((False, True)):
            gb[0] = ga[choose(range(3))]
        if det3(*ga) == 0 or det3(*gb) == 0:
            continue
        a, b = Brick("a", choose(POINTS), *ga), Brick("b", ORIGIN, *gb)
        if a._frame[0] != b._frame[0]:
            break
    origin = a.vertices[choose(range(8))] - b.vertices[choose(range(8))]
    return a, moved(b, origin + choose(NUDGES))


@st.composite
def skew_pairs(draw):
    return skew_pair(lambda options: draw(st.sampled_from(options)))


OFFSETS = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
TRANSLATIONS = st.builds(vec3, OFFSETS, OFFSETS, OFFSETS)


def check_covariance(a, b, t):
    """classify_contact(a + t, b + t) is classify_contact(a, b) moved by t,
    classified afresh outside a pass and answered by the memo inside one."""
    expected = typed(shifted(classify_contact(a, b), t))
    assert typed(classify_contact(moved(a, t), moved(b, t))) == expected
    with _skew_memo_scope():
        classify_contact(a, b)
        assert typed(classify_contact(moved(a, t), moved(b, t))) == expected
    return expected[0]


# a pair takes a dozen or more choices, which the health check deems large
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(skew_pairs(), TRANSLATIONS)
def test_skew_contacts_move_with_their_bricks(pair, t):
    check_covariance(*pair, t)


def test_covariance_sample_reaches_every_contact_with_points():
    """The pairs above meet in points, whole edges and whole faces, so the
    moved points and the face indices are really checked, under int and
    Fraction offsets alike."""
    rng = random.Random(14)
    kinds = {}
    for k in range(300):
        a, b = skew_pair(rng.choice)
        t = vec3(*(rng.randint(-40, 40) for _ in range(3)))
        if k % 2:
            t = t.scale(Fraction(1, rng.choice((2, 3, 7))))
        kind = check_covariance(a, b, t)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get(ContactKind.POINT, 0) >= 30
    assert kinds.get(ContactKind.WHOLE_EDGE, 0) >= 4
    assert kinds.get(ContactKind.WHOLE_FACE, 0) >= 1
    assert kinds.get(ContactKind.DISJOINT, 0) >= 50


def test_memo_key_tells_shapes_and_offsets_apart():
    """In one pass, pairs that differ only in the offset between the
    origins, or only in one brick's generators, are classified on their own:
    each gives what it gives outside a pass."""
    cube = Brick("a", ORIGIN, vec3(2, 0, 0), vec3(0, 2, 0), vec3(0, 0, 2))
    lattice = Brick("b", vec3(2, 2, 2), vec3(1, 0, 0), vec3(1, 1, 0), vec3(1, 1, 1))
    inward = Brick("b", vec3(2, 2, 2), vec3(-1, -1, -1), vec3(1, 0, 0), vec3(0, 1, 0))
    slab = Brick("a", ORIGIN, vec3(2, 0, 0), vec3(0, 2, 0), vec3(0, 0, 1))
    pairs = [
        (cube, lattice),  # a point
        (cube, moved(lattice, vec3(-1, 0, 0))),  # another offset: a partial edge
        (cube, inward),  # other generators of b at that offset: an overlap
        (slab, lattice),  # other generators of a at that offset: disjoint
        (moved(cube, vec3(5, 5, 5)), moved(lattice, vec3(5, 5, 5))),  # a hit
    ]
    outside = [typed(classify_contact(a, b)) for a, b in pairs]
    assert len({repr(c) for c in outside}) == len(pairs)
    with _skew_memo_scope():
        assert [typed(classify_contact(a, b)) for a, b in pairs] == outside
        assert len(_skew_memo.get()) == len(pairs) - 1


def skew_pairs_and_keys(complex: BrickComplex):
    bricks = complex.bricks
    skew = [(bricks[i], bricks[j]) for i, j in _aabb_meeting_pairs(bricks)
            if bricks[i]._frame[0] != bricks[j]._frame[0]]
    return len(skew), len({memo_key(a, b) for a, b in skew})


# (side, times refined, least skew pairs that repeat an earlier key)
CORPUS = [(side, times, floor)
          for side in (4, 3, Fraction(7, 2))
          for times, floor in ((0, 0), (1, 100), (2, 2500))]


@pytest.mark.parametrize("side,times,floor", CORPUS)
def test_validate_matches_memo_free_classification(side, times, floor):
    c = zz_level(side, times)
    skew, keys = skew_pairs_and_keys(c)
    assert skew - keys >= floor
    report = validate(c)
    assert report.properly_joined
    memo_free = classified_report(c, _aabb_meeting_pairs(c.bricks))
    assert typed_report(report) == typed_report(memo_free)


def test_validate_matches_memo_free_classification_on_zz_immersed():
    c = zz_immersed()
    report = validate(c)
    assert report.improper_pairs
    memo_free = classified_report(c, _aabb_meeting_pairs(c.bricks))
    assert typed_report(report) == typed_report(memo_free)


def test_each_pass_clips_each_key_once(monkeypatch):
    """Every pass starts with an empty memo: two passes over fresh copies of
    one complex each classify every distinct key once, no more, no less."""
    calls = []

    def counting(a, b):
        calls.append(memo_key(a, b))
        return skew_contact(a, b)

    skew_contact = geometry._skew_contact
    monkeypatch.setattr(geometry, "_skew_contact", counting)
    counts = []
    for _ in range(2):
        c = fresh(zz_level(4, 1))
        del calls[:]
        validate(c)
        skew, keys = skew_pairs_and_keys(c)
        assert len(calls) == len(set(calls)) == keys < skew
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_no_memo_outlives_a_pass(monkeypatch):
    assert _skew_memo.get() is None
    validate(fresh(zz_level(4, 1)))
    assert _skew_memo.get() is None

    def failing(a, b):
        if _skew_memo.get():
            raise RuntimeError("stop mid-pass")
        return classify_contact(a, b)

    monkeypatch.setattr("bricks.complexes.classify_contact", failing)
    c = fresh(zz_level(4, 1))
    with pytest.raises(RuntimeError, match="mid-pass"):
        validate(c)
    assert _skew_memo.get() is None


def test_threads_get_their_own_memo_and_the_serial_reports():
    sources = [zz_level(4, 1), zz_level(HALF * 7, 1)]
    serial = [typed_report(validate(fresh(c))) for c in sources]
    both_in_a_pass = threading.Barrier(2, timeout=60)
    results = [None, None]

    def work(k):
        with _skew_memo_scope():
            memo = _skew_memo.get()
            both_in_a_pass.wait()
            report = typed_report(validate(fresh(sources[k])))
            results[k] = (memo, _skew_memo.get() is memo, report)
        results[k] += (_skew_memo.get(),)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two passes finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    (memo0, kept0, report0, after0), (memo1, kept1, report1, after1) = results
    assert memo0 is not memo1 and kept0 and kept1
    assert [report0, report1] == serial
    assert after0 is after1 is None
