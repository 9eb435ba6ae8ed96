"""Splitting operators and refinement schedules.

Octasection partitions a brick into eight sub-bricks from its center;
lengthwise quartering splits the cross-section perpendicular to the
strictly longest generator at its midpoints. Both preserve the point set
and total volume exactly, and refinement of a properly joined complex is
checked to stay properly joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Union

from .complexes import BrickComplex, ValidationReport, validate
from .geometry import Brick, Scalar, _WHOLE_FACE, _normals, _quoted, format_scalar
from .surface import _face_masks


class RefinementError(ValueError):
    """Invalid schedule or a refinement that broke an invariant."""


@dataclass(frozen=True)
class Keep:
    pass


@dataclass(frozen=True)
class Octasect:
    pass


@dataclass(frozen=True)
class QuarterLengthwise:
    long_dir: int | None = None


@dataclass(frozen=True)
class SplitAt:
    direction: int
    fractions: tuple[Scalar, ...]


RefineOp = Union[Keep, Octasect, QuarterLengthwise, SplitAt]
RefinementSchedule = Mapping[str, RefineOp]

HALF = Fraction(1, 2)


def _grid(b: Brick, cuts, label) -> tuple[Brick, ...]:
    """Cut b at the fractions cuts[k] along each generator k.

    Children come in lexicographic cell order; the cell (i, j, k) is
    labeled ``id/`` + label((i, j, k)). The cells tile b exactly.
    """
    slabs = []  # per generator: (offset, edge) of each slab along it
    for g, fs in zip(b.generators, cuts):
        ts = (0, *fs, 1)
        slabs.append(
            [(g.scale(lo), g.scale(hi - lo)) for lo, hi in zip(ts, ts[1:])]
        )
    children = []
    for cell in product(*(range(len(s)) for s in slabs)):
        origin = b.origin
        for s, i in zip(slabs, cell):
            if i:
                origin = origin + s[i][0]
        gens = [s[i][1] for s, i in zip(slabs, cell)]
        children.append(Brick(f"{b.id}/{label(cell)}", origin, *gens))
    return tuple(children)


def split_many(b: Brick, direction: int, fractions) -> tuple[Brick, ...]:
    """Split b into len(fractions)+1 slabs at strictly increasing fractions.

    Adjacent slabs share a whole face of each, so they are properly joined.
    """
    _check_direction(b, "split", direction)
    fs = list(fractions)
    if not fs:
        return (b,)
    if any(type(f) not in (int, Fraction) for f in fs):
        raise RefinementError(
            f"brick {_quoted(b.id)}: split fractions must be ints or Fractions")
    if any(not 0 < f < 1 for f in fs) or any(
        fs[i] >= fs[i + 1] for i in range(len(fs) - 1)
    ):
        listed = ", ".join(t if len(t) <= 40 else _quoted(t)
                           for t in map(format_scalar, fs[:3]))
        more = f" and {len(fs) - 3} more" if len(fs) > 3 else ""
        raise RefinementError(f"brick {_quoted(b.id)}: fractions {listed}{more} must "
                              "be strictly increasing within (0, 1)")
    cuts = [fs if k == direction else () for k in range(3)]
    return _grid(b, cuts, lambda cell: f"s{cell[direction]}")


def _check_direction(b: Brick, op: str, direction) -> None:
    # an exact int: True would pass for 1, and -1 would index from the end
    if type(direction) is not int or direction not in (0, 1, 2):
        raise RefinementError(
            f"brick {_quoted(b.id)}: {op} direction must be 0, 1 or 2")


def octasect(b: Brick) -> tuple[Brick, ...]:
    """Partition b into eight sub-bricks from its center.

    Children are labeled id/abc over the octant coefficients; each child is
    face-adjacent to exactly three siblings.
    """
    return _grid(b, [(HALF,)] * 3, lambda cell: "".join(map(str, cell)))


def long_direction(b: Brick) -> int:
    """Index of the strictly longest generator (exact squared lengths)."""
    lengths = [g.norm2() for g in b.generators]
    top = max(lengths)
    winners = [i for i, n in enumerate(lengths) if n == top]
    if len(winners) > 1:
        raise RefinementError(
            f"brick {_quoted(b.id)} has no strictly longest generator "
            f"(generators {', '.join(map(str, winners))} tie); "
            "pass long_dir explicitly"
        )
    return winners[0]


def quarter_lengthwise(b: Brick, long_dir: int | None = None) -> tuple[Brick, ...]:
    """Split the two non-long directions at their midpoints: four bars.

    Each child is face-adjacent to exactly two siblings, and the parent's
    two end faces are partitioned into quarters.
    """
    long_idx = long_direction(b) if long_dir is None else long_dir
    _check_direction(b, "quarter", long_idx)
    c0, c1 = (k for k in range(3) if k != long_idx)
    cuts = [() if k == long_idx else (HALF,) for k in range(3)]
    return _grid(b, cuts, lambda cell: f"q{2 * cell[c0] + cell[c1]}")


def expand(b: Brick, op: RefineOp) -> tuple[Brick, ...]:
    if isinstance(op, Keep):
        return (b,)
    if isinstance(op, Octasect):
        return octasect(b)
    if isinstance(op, QuarterLengthwise):
        return quarter_lengthwise(b, op.long_dir)
    if isinstance(op, SplitAt):
        return split_many(b, op.direction, op.fractions)
    raise RefinementError(f"unknown refinement operator {op!r}")


def apply_schedule(complex: BrickComplex, schedule: RefinementSchedule) -> BrickComplex:
    """Replace each scheduled brick by its children (unlisted bricks Keep).

    Exact postconditions, checked: total volume is conserved, and a
    properly joined input yields a properly joined output. That check
    validates the output once, classifying only the pairs that
    _lineage_pairs hands it: sibling pairs by the cut, and children of
    touching parents that meet their parents' contact. The output keeps its
    report but not those pairs. An improper input's output is a plain
    complex, which validate sweeps.
    """
    unknown = set(schedule) - set(complex.labels)
    if unknown:
        listed = ", ".join(map(_quoted, sorted(unknown)[:3]))
        more = f" and {len(unknown) - 3} more" if len(unknown) > 3 else ""
        raise RefinementError(f"schedule references unknown labels [{listed}]{more}")
    out, spans = [], []
    for b in complex.bricks:
        start = len(out)
        out.extend(expand(b, schedule.get(b.id, Keep())))
        spans.append(range(start, len(out)))
    refined = BrickComplex(tuple(out), name=complex.name)
    report = validate(complex)
    before = sum(b.det for b in complex.bricks)
    after = sum(b.det for b in refined.bricks)
    if before != after:
        raise RefinementError(f"volume not conserved: {before} -> {after}")
    if report.properly_joined:
        pairs = _lineage_pairs(refined.bricks, report, spans, schedule)
        object.__setattr__(refined, "_pairs", pairs)
        bad = validate(refined).improper_pairs
        object.__setattr__(refined, "_pairs", None)
        if bad:
            pc = bad[0]
            raise RefinementError("refinement broke proper joining: "
                                  f"{pc.a} vs {pc.b} is {pc.contact.kind.value}")
    return refined


def _lineage_pairs(bricks, report: ValidationReport, spans, schedule):
    """Yield (i, j), i < j, for every pair of children that can meet, given
    the properly joined report of their parents, each parent's range of
    child indices and the schedule that cut them. Every pair yielded has
    meeting AABBs, so a sweep would yield it too.

    Siblings come from the cut: a split's slabs meet only their neighbours,
    octants all hold their parent's centre and quarters its centre line,
    and a kept brick has none. A child lies inside its parent, so a child
    of P meets one of Q only in P ∩ Q, a contact of the report: a point, or
    a whole edge or face of each, bounded by the same ends in both frames.
    A child has its parent's frame, so _meeting keeps those that meet it in
    three interval tests. A kept brick, octants or quarters that meet it all
    hold its centre, so they meet; a pair with a split's slab needs AABBs that meet.
    """
    parents = {}
    for p, r in zip(report.bricks, spans):
        split = isinstance(schedule.get(p.id), SplitAt)
        parents[p.id] = p, r, split
        yield from zip(r, r[1:]) if split else combinations(r, 2)
    for pc in report.contacts:
        (p, near_p, split), (q, near_q, split_q) = parents[pc.a], parents[pc.b]
        contact = pc.contact
        ends = (p.face_polygon(contact.face_a)[::2]
                if contact.kind is _WHOLE_FACE else contact.points)
        near_q = _meeting(bricks, near_q, q, ends)
        for i in _meeting(bricks, near_p, p, ends):
            for j in near_q:
                if not (split or split_q) or all(
                        lo <= hi2 and lo2 <= hi for (lo, hi), (lo2, hi2)
                        in zip(bricks[i].aabb, bricks[j].aabb)):
                    yield (i, j) if i < j else (j, i)


def _meeting(bricks, children, parent: Brick, ends) -> list[int]:
    """The children whose frame intervals meet the box that ends spans in
    their parent's frame coordinates. ends are a point, the two ends of an
    edge of the parent, or two opposite corners of a face of it: a normal of
    the parent's frame is orthogonal to two of its generators, so along it
    the element takes its extremes at those ends."""
    (a0, b0), (a1, b1), (a2, b2) = [
        (min(ds), max(ds)) for ds in ([nx * x + ny * y + nz * z for x, y, z in ends]
                                      for nx, ny, nz in _normals(parent._frame[0]))]
    rows = ((k, bricks[k]._frame[1]) for k in children)
    return [k for k, (l0, h0, l1, h1, l2, h2) in rows if l0 <= b0 and a0 <= h0
            and l1 <= b1 and a1 <= h1 and l2 <= b2 and a2 <= h2]


def two_opposite_covered(
    complex: BrickComplex, report: ValidationReport
) -> dict[str, bool]:
    """Per brick: does some opposite face pair appear covered (whole-face
    contacts on both k- and k+)?"""
    report.check_matches(complex)
    masks = _face_masks(report)
    # faces 2k and 2k + 1 are opposite: bits 0, 2 and 4 of mask & mask >> 1
    return {label: bool((m := masks.get(label, 0)) & m >> 1 & 0b10101)
            for label in complex.labels}


def is_cube_shaped(b: Brick) -> bool:
    """Three generators of equal length (exact comparison)."""
    a, bb, c = (g.norm2() for g in b.generators)
    return a == bb == c


def standard_zz_schedule(complex: BrickComplex) -> dict[str, RefineOp]:
    """Cube-shaped bricks octasect; everything else quarters lengthwise."""
    return {
        b.id: Octasect() if is_cube_shaped(b) else QuarterLengthwise()
        for b in complex.bricks
    }
