"""The contract of support.py that other test modules rely on: zz_level's
standard brick counts, and fresh() copies that equal their source with
nothing cached, so that a test of a cold validate gets one."""

from fractions import Fraction

import pytest

from bricks.complexes import validate
from support import fresh, zz_level

CACHED = {"vertices", "_frame", "aabb"}


@pytest.mark.parametrize("side, counts", [
    (4, [14, 72, 416, 2688]),
    (3, [14, 72, 416]),
    (Fraction(7, 2), [14, 72, 416]),
], ids=["4", "3", "7_2"])
def test_zz_levels_have_the_standard_brick_counts(side, counts):
    assert [len(zz_level(side, times)) for times in range(len(counts))] == counts


def test_fresh_copies_equal_their_source_with_nothing_cached():
    c = zz_level(4, 1)
    validate(c)
    assert all(b.aabb for b in c)  # so that each source brick caches all three
    assert "_report" in vars(c) and all(CACHED <= vars(b).keys() for b in c)
    copy = fresh(c)
    assert copy == c and copy.name == c.name
    assert "_report" not in vars(copy)
    for b, source in zip(copy, c):
        assert b == source and not CACHED & vars(b).keys()
