#!/usr/bin/env python3
"""Reproduce the published cornerless-object numbers end to end.

Prints the two per-piece Euler characteristic tables, then builds both
ZZ-objects, audits them, refines them, and reports degrees and genus.

Exits 1, with one `claim failed: ...` line on stderr for each published
number that is not met.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bricks import (
    apply_schedule,
    brick_graph,
    corners,
    degree_histogram,
    piece_table_chi,
    standard_zz_schedule,
    surface_stats,
    table_buttressed_octahedron,
    table_zz,
    two_opposite_covered,
    validate,
    zz_embedded,
    zz_immersed,
)


def show_table(name, table):
    totals = piece_table_chi(table)
    print(f"\n{name}")
    for r in table.rows:
        print(
            f"  {r.label:14s} x{r.multiplicity}:  "
            f"V {r.multiplicity}*{r.vertices:>3} = {r.multiplicity * r.vertices:>3}   "
            f"E {r.multiplicity}*{r.edges:>3} = {r.multiplicity * r.edges:>3}   "
            f"F {r.multiplicity}*{r.faces:>3} = {r.multiplicity * r.faces:>3}"
        )
    print(
        f"  {'sum':14s}      V {totals.vertex_count:>9}   E {totals.edge_count:>9}   "
        f"F {totals.face_count:>9}"
    )
    print(
        f"  chi = {totals.vertex_count} - {totals.edge_count} + "
        f"{totals.face_count} = {totals.chi}  =>  genus {totals.genus}"
    )
    return totals


def show_object(name, complex):
    report = validate(complex)
    graph = brick_graph(complex, report)
    stats = surface_stats(complex, report)
    refined = apply_schedule(complex, standard_zz_schedule(complex))
    refined_graph = brick_graph(refined, validate(refined))
    n_corners = len(corners(refined_graph))
    print(f"\n{name}: {len(complex)} bricks")
    print(f"  properly joined: {report.properly_joined}"
          + ("" if report.properly_joined else
             f"  (improper pairs: {[(p.a, p.b) for p in report.improper_pairs]})"))
    print(f"  two opposite faces covered everywhere: "
          f"{all(two_opposite_covered(complex, report).values())}")
    print(f"  degree histogram: {degree_histogram(graph)}")
    print(f"  surface: V={stats.vertex_count} E={stats.edge_count} "
          f"F={stats.face_count} chi={stats.chi} genus={stats.genus}")
    print(f"  refined: {len(refined)} bricks, degree histogram "
          f"{degree_histogram(refined_graph)}, corners {n_corners}")
    return report, stats, n_corners


def main():
    failed = []

    def claim(what, got, published):
        if got != published:
            failed.append(f"{what} is {got}, published {published}")

    totals = show_table("Buttressed octahedron piece table",
                        table_buttressed_octahedron())
    claim("buttressed octahedron (chi, genus)", (totals.chi, totals.genus), (-24, 13))
    totals = show_table("ZZ-object piece table", table_zz())
    claim("ZZ table (chi, genus)", (totals.chi, totals.genus), (-4, 3))
    report, stats, _ = show_object("Straight ZZ-object (immersed)", zz_immersed())
    claim("immersed object (V, E, F, chi)", stats.as_tuple(), (32, 72, 36, -4))
    claim("immersed object properly joined", report.properly_joined, False)
    report, stats, n_corners = show_object("Zig-zagged ZZ-object (embedded)",
                                           zz_embedded())
    claim("embedded object properly joined", report.properly_joined, True)
    claim("embedded object (chi, genus)", (stats.chi, stats.genus), (-4, 3))
    claim("refined embedded object's corner count", n_corners, 0)
    for line in failed:
        print(f"claim failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
