"""Brick complexes, proper-joining validation, and the brick graph.

A complex is a finite labeled list of bricks. Validation classifies pairs
exactly, and skips unclassified only pairs that cannot meet. The bricks of
one frame are boxes in its coordinates, their six-value frame rows, so one
sort and scan per frame (Zomorodian & Edelsbrunner, SoCG 2000) yields
exactly its pairs that meet. A pair of two frames is skipped if its closed
axis-aligned bounding boxes (AABBs) are disjoint; the same scan over the
AABBs, run only if there are two frames, yields the others. apply_schedule
instead hands the refinement of a properly joined input its sibling pairs,
by the cut, and the children of touching parents that meet their contact.
The report is computed once per complex and kept on it; a consumer given it
with a complex of other bricks raises StaleReportError. The brick graph has
a node per brick and an arc per pair sharing a single whole face of each. A
corner is a node of degree three or less.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from typing import Iterable, Mapping, Optional

from .geometry import (
    Brick,
    Contact,
    ContactKind,
    _WHOLE_FACE,
    _cached,
    _quoted,
    _skew_memo_scope,
    _slotted,
    classify_contact,
)


class ComplexError(ValueError):
    """Malformed complex (duplicate labels, unknown labels, ...)."""


class PairBudgetError(ValueError):
    """validate would classify more pairs than PAIR_BUDGET allows."""


# (per brick, base): bounds validate's work on hostile input, such as many
# copies of one brick; the suite's proper complexes use at most half of it
PAIR_BUDGET = (64, 10_000)


class StaleReportError(ValueError):
    """A validation report was paired with a complex it was not built from."""


@dataclass(frozen=True)
class BrickComplex:
    """An ordered, uniquely labeled collection of bricks."""

    bricks: tuple[Brick, ...]
    name: str = ""
    # the pairs apply_schedule hands its own validate, cleared after it
    _pairs: Optional[Iterable] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        # The name and the labels are written to brick files as single
        # tokens, so each must read back as one: no whitespace and no '#'.
        if type(self.name) is not str:
            raise ComplexError(
                f"complex name must be a str, not {type(self.name).__name__}"
            )
        if self.name and not _one_token(self.name):
            raise ComplexError(
                f"complex name {_quoted(self.name)} is not one token without '#'"
            )
        seen = set()
        for b in self.bricks:
            if type(b) is not Brick:
                raise ComplexError(f"item must be a Brick, not {type(b).__name__}")
            if not _one_token(b.id):
                raise ComplexError(
                    f"brick label {_quoted(b.id)} is not one token without '#'"
                )
            if b.id in seen:
                raise ComplexError(f"duplicate brick label {_quoted(b.id)}")
            seen.add(b.id)

    def __len__(self) -> int:
        return len(self.bricks)

    def __iter__(self):
        return iter(self.bricks)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.bricks)

    @_cached
    def _report(self) -> ValidationReport:
        # validate()'s memo
        return _classified(self.bricks, self._pairs or _frame_pairs(self.bricks))


def _one_token(label: str) -> bool:
    return label.split() == [label] and "#" not in label


def brick_complex(bricks: Iterable[Brick], name: str = "") -> BrickComplex:
    return BrickComplex(tuple(bricks), name=name)


@dataclass(frozen=True, slots=True)
class PairContact:
    a: str
    b: str
    contact: Contact


@dataclass(frozen=True)
class ValidationReport:
    """Full pairwise contact audit of a complex.

    bricks is the tuple the report was built from; repr and equality leave
    it out. contacts lists every non-disjoint pair, each ordered so a < b by
    label and the list sorted by (a, b). properly_joined is true iff no pair
    is improper (volume overlap, partial face, partial edge).
    """

    bricks: tuple[Brick, ...] = field(repr=False, compare=False)
    contacts: tuple[PairContact, ...]

    @_cached
    def improper_pairs(self) -> tuple[PairContact, ...]:
        return tuple(pc for pc in self.contacts if pc.contact.improper)

    @property
    def properly_joined(self) -> bool:
        return not self.improper_pairs

    def whole_face_contacts(self) -> tuple[PairContact, ...]:
        return tuple(pc for pc in self.contacts if pc.contact.kind is _WHOLE_FACE)

    def check_matches(self, complex: BrickComplex) -> None:
        """Raise StaleReportError unless the report was built from this
        complex's bricks: the same tuple, or an equal one."""
        if not (self.bricks is complex.bricks or self.bricks == complex.bricks):
            raise StaleReportError("validation report was built from other bricks")


def _meeting_pairs(rows):
    """Iterate over (i, j), i < j, for every two rows (k, box), box (lo0,
    hi0, lo1, hi1, lo2, hi2), whose closed boxes meet, one row's list of them
    at a time. Scan along the axis of least total length over extent (cross-
    multiplied): the rows (box from that axis on, k) sort as whole tuples, so
    ties break alike on every run, and the rows after row n that meet it
    there end at bisect_right(los, hi)."""
    rows, axis, length, extent = list(rows), 0, 1, 0  # any spread beats 1/0
    for a in range(0, 6, 2):
        los, his = [box[a] for _, box in rows], [box[a + 1] for _, box in rows]
        total, spread = sum(his) - sum(los), max(his, default=0) - min(los, default=0)
        if total * extent < length * spread:
            axis, length, extent = a, total, spread
    rows = sorted((*box[axis:], *box[:axis], k) for k, box in rows)
    los = [row[0] for row in rows]
    return chain.from_iterable(
        [(i, j) if i < j else (j, i)
         for _, _, jlo, jhi, klo, khi, j in rows[n:bisect_right(los, hi, n)]
         if jlo <= yhi and ylo <= jhi and klo <= zhi and zlo <= khi]
        for n, (_, hi, ylo, yhi, zlo, zhi, i) in enumerate(rows, 1))


def _aabb_meeting_pairs(bricks: tuple[Brick, ...]):
    return _meeting_pairs((k, sum(b.aabb, ())) for k, b in enumerate(bricks))


def _frame_pairs(bricks: tuple[Brick, ...]):
    """validate's pair source: a scan of each frame's _frame rows, then of
    the AABBs for the pairs of two frames, if there are two."""
    frames: dict = {}
    for k, b in enumerate(bricks):
        frames.setdefault(b._frame[0], []).append((k, b._frame[1]))
    sources = [_meeting_pairs(rows) for rows in frames.values()]
    if len(frames) > 1:
        sources.append((i, j) for i, j in _aabb_meeting_pairs(bricks)
                       if bricks[i]._frame[0] != bricks[j]._frame[0])
    return chain.from_iterable(sources)


def _classified(bricks: tuple[Brick, ...], pairs) -> ValidationReport:
    """The report of bricks, classifying each pair (i, j) pairs yields once;
    a pair not yielded must be DISJOINT. Classifies the first PAIR_BUDGET
    pairs, then raises PairBudgetError if pairs yields one more. Each pair is
    classified in label order, so its contact needs no mirrored copy, and the
    records sort as (a, b, contact) tuples: no two share (a, b)."""
    # classify_contact is looked up in this module on each call, so a wrapper
    # installed there sees every pair; inside the scope it classifies each
    # skew pair once up to translation.
    budget = PAIR_BUDGET[0] * len(bricks) + PAIR_BUDGET[1]
    pairs, records, disjoint = iter(pairs), [], ContactKind.DISJOINT
    with _skew_memo_scope():
        for i, j in islice(pairs, budget):
            a, b = bricks[i], bricks[j]
            if a.id > b.id:
                a, b = b, a
            contact = classify_contact(a, b)
            if contact.kind is not disjoint:
                records.append((a.id, b.id, contact))
        if next(pairs, None) is not None:
            raise PairBudgetError(f"{len(bricks)} bricks need more than the "
                                  f"budget of {budget} pair classifications")
    records.sort()
    return ValidationReport(bricks, tuple(starmap(_slotted(PairContact), records)))


def validate(complex: BrickComplex) -> ValidationReport:
    """The complex's validation report, computed once and kept on it.

    A pair of one frame whose frame intervals are apart, or of two frames
    whose closed AABBs are disjoint (a ∩ b lies inside both), is DISJOINT
    and skipped unclassified, so the report equals a classification of all
    n(n-1)/2 pairs; a single-frame complex classifies only its contacts.
    Each pass keeps its own memo of skew contacts by translation, so a skew
    pair that repeats an earlier one up to translation is not clipped again;
    the memo is per pass and per thread or context, and is dropped when the
    pass ends. The report goes with this complex: a consumer given it with a
    complex of other bricks raises StaleReportError.
    """
    return complex._report


@dataclass(frozen=True)
class BrickGraph:
    """Nodes are brick labels; arcs are whole-face adjacencies."""

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    degree: Mapping[str, int] = field(repr=False)

    @property
    def min_degree(self) -> int:
        return min(self.degree.values()) if self.degree else 0


def brick_graph(complex: BrickComplex, report: ValidationReport) -> BrickGraph:
    """Build the brick graph from a validation report.

    Permitted on improper complexes (arcs come only from whole-face pairs);
    the report itself retains the improper flag.
    """
    report.check_matches(complex)
    arcs = tuple((pc.a, pc.b) for pc in report.whole_face_contacts())
    for pair, n in Counter(arcs).items():
        if n > 1:
            # validate() reports each pair once: this report is not its output
            raise StaleReportError(f"report lists the pair {pair} twice")
    degree = {label: 0 for label in complex.labels}
    for a, b in arcs:
        degree[a] += 1
        degree[b] += 1
    return BrickGraph(nodes=complex.labels, arcs=arcs, degree=degree)


def corners(graph: BrickGraph) -> list[str]:
    """All bricks of degree three or less, sorted by label.

    An empty list means the object is cornerless.
    """
    return sorted(label for label in graph.nodes if graph.degree[label] <= 3)


def degree_histogram(graph: BrickGraph) -> dict[int, int]:
    return dict(sorted(Counter(graph.degree.values()).items()))


def component_count(graph: BrickGraph) -> int:
    """Connected components of the brick graph: its nodes less the merges
    of a union-find over its arcs."""
    parent: dict = {}
    return len(graph.nodes) - sum(_union(parent, a, b) for a, b in graph.arcs)


def _find(parent: dict, k):
    """Root of k's class in a disjoint-set forest kept in a dict (Tarjan
    1975). A root is never a key, so an unseen key is its own root; the walk
    halves the path, pointing each visited key at its grandparent."""
    while k in parent:
        p = parent[k]
        if p not in parent:
            return p
        grandparent = parent[p]
        parent[k] = grandparent
        k = grandparent
    return k


def _union(parent: dict, a, b) -> bool:
    """Join a's and b's classes; True iff they were two classes before."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[rb] = ra
    return True
