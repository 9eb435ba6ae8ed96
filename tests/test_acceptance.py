"""Acceptance suite: one test per criterion, exact tolerances, stated
runtime budgets, and a printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import subprocess
import sys
import time

import pytest

from bricks.complexes import brick_graph, component_count, corners, validate
from bricks.constructions import (
    fixture,
    random_rectilinear,
    table_buttressed_octahedron,
    table_zz,
    zz_embedded,
    zz_immersed,
)
from bricks.fileformats import emit_complex, parse_complex
from bricks.geometry import ContactKind
from bricks.refinement import (
    Octasect,
    apply_schedule,
    standard_zz_schedule,
    two_opposite_covered,
)
from bricks.surface import piece_table_chi, surface_stats, voxel_chi


def report(criterion: str, ok: bool = True):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_table_1_reproduction():
    table = table_buttressed_octahedron()
    start = time.perf_counter()
    totals = piece_table_chi(table)
    elapsed = time.perf_counter() - start
    ok = (
        (totals.vertex_count, totals.edge_count, totals.face_count)
        == (140, 324, 160)
        and totals.chi == -24
        and totals.genus == 13
        and elapsed < 0.001
    )
    report("1 table-1 V=140 E=324 F=160 chi=-24 genus=13", ok)


def test_criterion_2_table_2_reproduction():
    totals = piece_table_chi(table_zz())
    ok = (
        (totals.vertex_count, totals.edge_count, totals.face_count) == (32, 72, 36)
        and totals.chi == -4
        and totals.genus == 3
    )
    report("2 table-2 V=32 E=72 F=36 chi=-4 genus=3", ok)


def test_criterion_3_zz_immersed():
    start = time.perf_counter()
    c = zz_immersed()
    r = validate(c)
    stats = surface_stats(c, r)
    graph = brick_graph(c, r)
    refined = apply_schedule(c, standard_zz_schedule(c))
    refined_graph = brick_graph(refined, validate(refined))
    elapsed = time.perf_counter() - start

    ok = (
        len(c) == 10
        and not r.properly_joined
        and any(
            pc.contact.kind is ContactKind.VOLUME_OVERLAP for pc in r.improper_pairs
        )
        and stats.as_tuple() == (32, 72, 36, -4)
        and all(graph.degree[f"C{i}"] == 3 for i in range(1, 5))
        and all(graph.degree[x] == 2 for x in ("X1", "X2", "X3", "Z1", "Z2", "Z3"))
        and corners(graph) == sorted(c.labels)
        and len(refined) == 56
        and refined_graph.min_degree >= 4
        and corners(refined_graph) == []
        and elapsed < 1.0
    )
    report(f"3 zz-immersed 10 bricks, chi tuple, 56 refined ({elapsed:.2f}s)", ok)


def test_criterion_4_zz_embedded():
    start = time.perf_counter()
    c = zz_embedded()
    r = validate(c)
    coverage = two_opposite_covered(c, r)
    stats = surface_stats(c, r)
    graph = brick_graph(c, r)
    refined = apply_schedule(c, standard_zz_schedule(c))
    refined_graph = brick_graph(refined, validate(refined))
    elapsed = time.perf_counter() - start

    ok = (
        len(c) == 14
        and r.properly_joined
        and all(coverage.values())
        and stats.edge_manifold
        and stats.vertex_manifold
        and stats.surface_components == 1
        and component_count(graph) == 1
        and stats.chi == -4
        and stats.genus == 3
        and len(refined) == 72
        and refined_graph.min_degree >= 4
        and corners(refined_graph) == []
        and elapsed < 2.0
    )
    report(f"4 zz-embedded 14 bricks, genus 3, cornerless refined ({elapsed:.2f}s)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the stated refined count of 80 presumed two octasected joint "
    "cubes, but no 14-brick layout with joint cubes exists (see the decisions "
    "ledger); the feasible 14-brick embedded object refines to 72",
)
def test_criterion_4_refined_count_as_stated():
    c = zz_embedded()
    refined = apply_schedule(c, standard_zz_schedule(c))
    assert len(refined) == 80


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for seed in range(50):
        c = random_rectilinear(seed, max_bricks=40, grid=8)
        r = validate(c)
        assert r.properly_joined
        assert surface_stats(c, r).chi == voxel_chi(c)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 50 and elapsed < 10.0
    report(f"5 oracle equivalence on {checked} random complexes ({elapsed:.2f}s)", ok)


def test_criterion_6_known_genus_fixtures():
    expectations = {"cube": 0, "ring-3x3": 1, "block-2x2x2": 0}
    results = {}
    for name, genus in expectations.items():
        c = fixture(name)
        results[name] = surface_stats(c, validate(c)).genus
    ok = results == expectations
    report(f"6 known genus fixtures {results}", ok)


FIXTURE_CORPUS = [
    "cube", "column-3", "column-5", "ring-3x3", "block-2x2x2", "block-3x3x3",
    "slab-3x3", "cross", "shell-3x3x3", "bar-chain-3",
]


def test_criterion_7_refinement_invariants():
    names = FIXTURE_CORPUS + ["zz-immersed", "zz-embedded"]
    for name in names:
        c = fixture(name)
        r = validate(c)
        before_volume = sum(b.det for b in c.bricks)
        before_chi = surface_stats(c, r).chi
        refined = apply_schedule(c, standard_zz_schedule(c))
        rr = validate(refined)
        assert sum(b.det for b in refined.bricks) == before_volume, name
        if r.properly_joined:
            assert rr.properly_joined, name
        assert surface_stats(refined, rr).chi == before_chi, name
    report(f"7 refinement invariants on {len(names)} fixtures")


def test_criterion_8_sufficiency_property():
    # Global form: both ZZ builders satisfy the covering hypothesis, and the
    # standard schedule renders them cornerless.
    for build in (zz_immersed, zz_embedded):
        c = build()
        r = validate(c)
        assert all(two_opposite_covered(c, r).values()), c.name
        refined = apply_schedule(c, standard_zz_schedule(c))
        assert brick_graph(refined, validate(refined)).min_degree >= 4, c.name

    # Rectilinear exercise: no finite properly joined rectilinear complex can
    # satisfy the hypothesis for every brick (the lexicographically extreme
    # brick always has an exposed face on each axis), so the observation is
    # exercised per brick: every octasected brick with an opposite covered
    # pair must yield only children of degree >= 4.
    exercised_bricks = 0
    for name in FIXTURE_CORPUS:
        c = fixture(name)
        r = validate(c)
        covered = two_opposite_covered(c, r)
        schedule = standard_zz_schedule(c)
        refined = apply_schedule(c, schedule)
        graph = brick_graph(refined, validate(refined))
        assert not all(covered.values()), f"{name}: rectilinear all-covered?"
        for label, good in covered.items():
            if not good or not isinstance(schedule[label], Octasect):
                continue
            exercised_bricks += 1
            children = [n for n in graph.nodes if n.startswith(label + "/")]
            assert children
            assert all(graph.degree[child] >= 4 for child in children), (
                name, label,
            )
    assert exercised_bricks >= 10
    report(
        f"8 sufficiency: both builders cornerless, {exercised_bricks} covered "
        f"bricks across {len(FIXTURE_CORPUS)} rectilinear cases"
    )


def test_criterion_9_round_trip_and_determinism():
    # parse . emit is the identity on canonical files
    for name in ("zz-immersed", "zz-embedded", "ring-3x3", "random-11"):
        text = emit_complex(fixture(name))
        assert emit_complex(parse_complex(text)) == text, name

    # identical reports across repeated in-process runs
    c1, c2 = zz_immersed(), zz_immersed()
    r1, r2 = validate(c1), validate(c2)
    assert r1 == r2
    assert surface_stats(c1, r1) == surface_stats(c2, r2)

    # identical bytes across separate processes
    cmd = [sys.executable, "-m", "bricks.cli", "build", "zz-embedded"]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    report("9 round-trip identity and determinism")
