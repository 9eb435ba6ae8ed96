"""The benchmark's workloads: seeded input builders, the timed op, and the
oracle each op's output is checked against.

Every op starts from text (or a file holding text), so no validation memo
and no cached brick property carries over from one op to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

from spans import LAYERS

RECT_CUBES = 1000
RECT_GRID = 12
ZZ_BRICKS_IN = 72
ZZ_BRICKS_OUT = 416
SKEW_MAX_BRICKS = 40
SKEW_PER_SIZE = 2


class Library:
    """The bricks package and its layer modules, freshly imported."""

    def __init__(self):
        self.package = importlib.import_module("bricks")
        self.layers = {
            name: importlib.import_module(f"bricks.{name}") for name in LAYERS
        }
        for name, mod in self.layers.items():
            setattr(self, name, mod)

    @property
    def modules(self) -> list:
        return [self.package, *self.layers.values()]


def purge_library() -> None:
    for name in [n for n in sys.modules if n == "bricks" or n.startswith("bricks.")]:
        del sys.modules[name]


@dataclass
class Case:
    payload: Any  # complex text, or the path of a file holding it
    bricks_in: int
    source: Any  # what the oracle is computed from


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (lib, seed, workdir) -> list[Case]
    oracle: Callable  # (lib, case) -> expected
    op: Callable  # (lib, payload) -> result
    check: Callable  # (result, expected) -> error text or None


# --- rect-audit: full audit of a 1000-cube polycube ------------------------

_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def grow_polycube(rng: random.Random, cubes: int, grid: int) -> list[tuple]:
    """Connected set of exactly `cubes` unit cells in a grid^3 box, grown
    from a random cell by random face steps."""
    start = tuple(rng.randrange(grid) for _ in range(3))
    cells = {start}
    frontier = [start]
    while len(cells) < cubes:
        base = rng.choice(frontier)
        step = rng.choice(_STEPS)
        cell = tuple(c + d for c, d in zip(base, step))
        if all(0 <= c < grid for c in cell) and cell not in cells:
            cells.add(cell)
            frontier.append(cell)
    return sorted(cells)


def build_rect(lib, seed: int, workdir: str) -> list[Case]:
    cells = grow_polycube(random.Random(seed), RECT_CUBES, RECT_GRID)
    bricks = [
        lib.geometry.brick_from_box(c, tuple(x + 1 for x in c), f"b{i}")
        for i, c in enumerate(cells)
    ]
    complex = lib.complexes.brick_complex(bricks, name=f"polycube-{seed}")
    return [Case(lib.fileformats.emit_complex(complex), len(bricks), (cells, complex))]


def oracle_rect(lib, case: Case) -> dict:
    """Counts from the cell set itself, plus the voxel Euler characteristic.

    Unit cells touch iff their Chebyshev distance is 1; they share a whole
    face iff they differ by one face step.
    """
    cells, complex = case.source
    occupied = set(cells)
    face_degree = {
        c: sum(tuple(x + d for x, d in zip(c, s)) in occupied for s in _STEPS)
        for c in cells
    }
    near = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]
    touching = sum(
        (x + dx, y + dy, z + dz) in occupied
        for (x, y, z) in cells for dx, dy, dz in near
    )
    return {
        "bricks": len(cells),
        "properly_joined": True,
        "contacts": touching // 2,
        "arcs": sum(face_degree.values()) // 2,
        "corners": sum(d <= 3 for d in face_degree.values()),
        "chi": lib.surface.voxel_chi(complex),
    }


def op_rect(lib, text: str) -> dict:
    complex = lib.fileformats.parse_complex(text)
    report = lib.complexes.validate(complex)
    graph = lib.complexes.brick_graph(complex, report)
    corner_list = lib.complexes.corners(graph)
    stats = lib.surface.surface_stats(complex, report)
    return {
        "bricks": len(complex),
        "properly_joined": report.properly_joined,
        "contacts": len(report.contacts),
        "arcs": len(graph.arcs),
        "corners": len(corner_list),
        "chi": stats.chi,
    }


def check_equal(result: dict, expected: dict):
    wrong = {k: (result.get(k), v) for k, v in expected.items() if result.get(k) != v}
    return f"got/expected {wrong}" if wrong else None


# --- zz-refine: standard refinement of the refined zz-embedded object ------


def build_zz(lib, seed: int, workdir: str) -> list[Case]:
    """The 72-brick refined zz-embedded object moved by a seeded exact
    isometry (axis permutation, sign flips, integer translation), so every
    seed does the same work on different coordinates."""
    rng = random.Random(seed)
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    shift = lib.geometry.Vec3(*(rng.randint(-64, 64) for _ in range(3)))

    def linear(v):
        return lib.geometry.Vec3(*(signs[i] * v[perm[i]] for i in range(3)))

    base = lib.constructions.zz_embedded()
    refined = lib.refinement.apply_schedule(
        base, lib.refinement.standard_zz_schedule(base)
    )
    moved = [
        lib.geometry.Brick(b.id, linear(b.origin) + shift, linear(b.u),
                           linear(b.v), linear(b.w))
        for b in refined.bricks
    ]
    complex = lib.complexes.brick_complex(moved, name=refined.name)
    return [Case(lib.fileformats.emit_complex(complex), len(moved), None)]


def oracle_zz(lib, case: Case) -> dict:
    # The paper's object refined twice: cubes octasect twice (4 -> 32 -> 256)
    # and connector bars quarter twice (10 -> 40 -> 160); cornerless, genus 3.
    return {
        "bricks_in": ZZ_BRICKS_IN,
        "bricks_out": ZZ_BRICKS_OUT,
        "properly_joined": True,
        "corners": 0,
        "chi": -4,
        "genus": 3,
        "emitted_bricks": ZZ_BRICKS_OUT,
    }


def op_zz(lib, text: str) -> dict:
    complex = lib.fileformats.parse_complex(text)
    schedule = lib.refinement.standard_zz_schedule(complex)
    refined = lib.refinement.apply_schedule(complex, schedule)
    report = lib.complexes.validate(refined)
    graph = lib.complexes.brick_graph(refined, report)
    corner_list = lib.complexes.corners(graph)
    stats = lib.surface.surface_stats(refined, report)
    emitted = lib.fileformats.emit_complex(refined)
    return {
        "bricks_in": len(complex),
        "bricks_out": len(refined),
        "properly_joined": report.properly_joined,
        "corners": len(corner_list),
        "chi": stats.chi,
        "genus": stats.genus,
        "emitted": emitted,
    }


def check_zz(result: dict, expected: dict):
    """Oracle counts, and every op emits the same bytes as the first."""
    emitted = result["emitted"]
    summary = dict(result, emitted_bricks=sum(
        line.startswith("brick ") for line in emitted.splitlines()
    ))
    del summary["emitted"]
    digest = hashlib.sha256(emitted.encode()).hexdigest()
    if expected.setdefault("emitted_sha256", digest) != digest:
        return "emitted text differs from the first op's"
    return check_equal(summary, {k: v for k, v in expected.items()
                                 if k != "emitted_sha256"})


# --- skew-corpus: `bricks genus` on sheared random polycubes ---------------


def unimodular_shear(rng: random.Random) -> list[list[int]]:
    """Product of three elementary integer shears (det 1) that maps the
    coordinate axes off-axis, so every unit cube becomes a skew brick."""
    while True:
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(3):
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-1, 1))
            m[i] = [m[i][c] + k * m[j][c] for c in range(3)]
        if any(sum(m[r][c] != 0 for r in range(3)) > 1 for c in range(3)):
            return m


def build_skew(lib, seed: int, workdir: str) -> list[Case]:
    """SKEW_PER_SIZE sheared random polycubes of each size from 2 to
    SKEW_MAX_BRICKS bricks, the first ones drawn at each size, so that every
    seed runs the same mix of sizes and only the shapes differ."""
    rng = random.Random(seed)
    wanted = dict.fromkeys(range(2, SKEW_MAX_BRICKS + 1), SKEW_PER_SIZE)
    cases = []
    while len(cases) < len(wanted) * SKEW_PER_SIZE:
        original = lib.constructions.random_rectilinear(
            rng.randrange(2**32), max_bricks=SKEW_MAX_BRICKS)
        if not wanted.get(len(original)):
            continue
        wanted[len(original)] -= 1
        m = unimodular_shear(rng)

        def shear(v):
            return lib.geometry.Vec3(*(sum(m[r][c] * v[c] for c in range(3))
                                       for r in range(3)))

        sheared = lib.complexes.brick_complex(
            [lib.geometry.Brick(b.id, shear(b.origin), shear(b.u), shear(b.v),
                                shear(b.w)) for b in original.bricks],
            name=original.name,
        )
        path = os.path.join(workdir, f"skew-{len(cases):03d}.bricks")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lib.fileformats.emit_complex(sheared))
        cases.append(Case(path, len(sheared), original))
    return cases


def oracle_skew(lib, case: Case) -> dict:
    # A det-1 integer shear is an affine bijection, so chi is that of the
    # unsheared rectilinear original, which the voxel oracle counts.
    return {"exit": 0, "chi": lib.surface.voxel_chi(case.source)}


def op_skew(lib, path: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(["genus", path])
    return {"exit": code, "stdout": out.getvalue()}


def check_skew(result: dict, expected: dict):
    if result["exit"] != 0:
        return f"exit code {result['exit']}"
    try:
        document = json.loads(result["stdout"])
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    return check_equal({"exit": 0, "chi": document.get("chi")}, expected)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rect-audit", build_rect, oracle_rect, op_rect, check_equal),
        Workload("zz-refine", build_zz, oracle_zz, op_zz, check_zz),
        Workload("skew-corpus", build_skew, oracle_skew, op_skew, check_skew),
    )
}
