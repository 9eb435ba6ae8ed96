"""Command-line front end.

Each command reads a brick file (or builds a named object), prints a JSON
report document to stdout and a one-line summary to stderr, and uses the
exit-code contract: 0 success / properly joined, 1 semantic failure
(improper pairs; corners found under --assert-cornerless), 2 input errors,
among them a complex whose validation passes the pair budget.

main runs the command cmd_<name> and is the only place that reports an
error: every library error is a ValueError, printed as one line
"error: <input>: <message>" ("error: <message>" for build, which reads no
file); a CliError names its own file, if any.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import (
    brick_graph,
    component_count,
    corners,
    degree_histogram,
    validate,
)
from .constructions import (
    fixture,
    fixture_names,
    zz_embedded,
    zz_immersed,
)
from .fileformats import (
    emit_complex,
    export_obj,
    parse_complex,
    parse_piece_table,
    parse_schedule,
)
from .geometry import format_scalar, scalar
from .refinement import apply_schedule, standard_zz_schedule
from .surface import VoxelError, piece_table_chi, surface_stats, voxel_chi

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2


class CliError(Exception):
    """An error whose message names its file, if any; main prints it as is."""


def _read(path: str, parse):
    """parse() the UTF-8 text of a file; any failure is an input error. A
    byte that is not UTF-8 is placed by line and column, lines ending at
    "\\n" as the parsers count them."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, start) + 1
        column = len(data[start:exc.start].decode("utf-8")) + 1
        raise CliError(f"{path}: line {line}, column {column}: invalid UTF-8 "
                       f"byte 0x{data[exc.start]:02x}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _emit(document: dict, summary: str) -> None:
    print(json.dumps(document, indent=2))
    print(summary, file=sys.stderr)


def _write_output(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _contact_record(pc) -> dict:
    c = pc.contact
    rec = {"a": pc.a, "b": pc.b, "kind": c.kind.value}
    if c.face_a is not None:
        rec["face_a"] = c.face_a
        rec["face_b"] = c.face_b
    if c.points:
        rec["points"] = [[format_scalar(x) for x in p] for p in c.points]
    return rec


def cmd_validate(args) -> int:
    complex = _read(args.input, parse_complex)
    report = validate(complex)
    document = {
        "command": "validate",
        "name": complex.name,
        "brick_count": len(complex),
        "properly_joined": report.properly_joined,
        "contacts": [_contact_record(pc) for pc in report.contacts],
        "improper_pairs": [_contact_record(pc) for pc in report.improper_pairs],
    }
    verdict = "properly joined" if report.properly_joined else (
        f"{len(report.improper_pairs)} improper pair(s)"
    )
    _emit(document, f"{complex.name or args.input}: {len(complex)} bricks, {verdict}")
    return EXIT_OK if report.properly_joined else EXIT_SEMANTIC


def cmd_graph(args) -> int:
    complex = _read(args.input, parse_complex)
    report = validate(complex)
    graph = brick_graph(complex, report)
    corner_list = corners(graph)
    document = {
        "command": "graph",
        "name": complex.name,
        "nodes": list(graph.nodes),
        "arcs": [list(a) for a in graph.arcs],
        "degree": {n: graph.degree[n] for n in graph.nodes},
        "degree_histogram": {
            str(k): v for k, v in degree_histogram(graph).items()
        },
        "min_degree": graph.min_degree,
        "corners": corner_list,
        "cornerless": not corner_list,
        "components": component_count(graph),
    }
    _emit(
        document,
        f"{complex.name or args.input}: min degree {graph.min_degree}, "
        f"{len(corner_list)} corner(s)",
    )
    if args.assert_cornerless and corner_list:
        print(f"corners found: {', '.join(corner_list)}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_refine(args) -> int:
    complex = _read(args.input, parse_complex)
    if args.standard_zz:
        schedule = standard_zz_schedule(complex)
    elif args.schedule:
        schedule = _read(args.schedule, parse_schedule)
    else:
        schedule = {}
    refined = apply_schedule(complex, schedule)
    _write_output(emit_complex(refined), args.output)
    print(
        f"{complex.name or args.input}: {len(complex)} -> {len(refined)} bricks",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_genus(args) -> int:
    complex = _read(args.input, parse_complex)
    report = validate(complex)
    stats = surface_stats(complex, report)
    document = {
        "command": "genus",
        "name": complex.name,
        "V": stats.vertex_count,
        "E": stats.edge_count,
        "F": stats.face_count,
        "chi": stats.chi,
        "surface_components": stats.surface_components,
        "edge_manifold": stats.edge_manifold,
        "vertex_manifold": stats.vertex_manifold,
        "genus": stats.genus,
    }
    if stats.genus_reason:
        document["genus_unavailable"] = stats.genus_reason
    if args.oracle:
        try:
            document["oracle_chi"] = voxel_chi(complex)
            document["oracle_agrees"] = document["oracle_chi"] == stats.chi
        except VoxelError as exc:
            raise CliError(f"{args.input}: --oracle: {exc}") from exc
    summary = (
        f"{complex.name or args.input}: chi={stats.chi}"
        + (f", genus={stats.genus}" if stats.genus is not None else ", genus undefined")
    )
    _emit(document, summary)
    return EXIT_OK


def cmd_table_chi(args) -> int:
    table = _read(args.input, parse_piece_table)
    totals = piece_table_chi(table)
    document = {
        "command": "table-chi",
        "rows": [
            {
                "label": r.label,
                "multiplicity": r.multiplicity,
                "V": r.vertices,
                "E": r.edges,
                "F": r.faces,
            }
            for r in table.rows
        ],
        "V": totals.vertex_count,
        "E": totals.edge_count,
        "F": totals.face_count,
        "chi": totals.chi,
        "genus": totals.genus,
    }
    if totals.genus_reason:
        document["genus_unavailable"] = totals.genus_reason
    # format_scalar refuses a count too long to print, before anything is
    # printed; no number of the document is longer than these four
    v, e, f, chi = map(format_scalar, (totals.vertex_count, totals.edge_count,
                                       totals.face_count, totals.chi))
    _emit(document, f"V={v} E={e} F={f} chi={chi} genus={totals.genus}")
    return EXIT_OK


def cmd_build(args) -> int:
    if args.name in ("zz-immersed", "zz-embedded"):
        construct = zz_immersed if args.name == "zz-immersed" else zz_embedded
        side = "4" if args.cube_side is None else args.cube_side
        complex = construct(scalar(side))
    elif args.cube_side is not None:
        raise CliError("--cube-side applies only to zz-immersed and zz-embedded")
    else:
        complex = fixture(args.name)
    _write_output(emit_complex(complex), args.output)
    print(f"{args.name}: {len(complex)} bricks", file=sys.stderr)
    return EXIT_OK


def cmd_export_obj(args) -> int:
    complex = _read(args.input, parse_complex)
    report = validate(complex) if args.exposed_only else None
    mesh = export_obj(complex, report)
    _write_output(mesh, args.output)
    quads = sum(1 for line in mesh.splitlines() if line.startswith("f "))
    print(f"{complex.name or args.input}: {quads} quads", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bricks",
        description="Exact modelling of properly joined brick complexes: "
        "validation, brick graphs, refinement, and boundary genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify all brick pairs")
    p.add_argument("input")

    p = sub.add_parser("graph", help="brick graph, degrees, and corners")
    p.add_argument("input")
    p.add_argument("--assert-cornerless", action="store_true",
                   help="exit 1 if any corner exists")

    p = sub.add_parser("refine", help="apply a refinement schedule")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--standard-zz", action="store_true",
                       help="octasect cube-shaped bricks, quarter the rest")
    group.add_argument("--schedule", metavar="FILE")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("genus", help="exposed-surface counts and genus")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check chi against the voxel oracle")

    p = sub.add_parser("table-chi", help="Euler characteristic of a piece table")
    p.add_argument("input")

    p = sub.add_parser("build", help="emit a built-in object or fixture")
    p.add_argument("name", help="zz-immersed, zz-embedded, or a fixture name "
                   f"({', '.join(fixture_names())}, random-<seed>)")
    p.add_argument("--cube-side", metavar="N|N/D")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("export-obj", help="quad mesh of brick faces")
    p.add_argument("input")
    p.add_argument("--exposed-only", action="store_true")
    p.add_argument("-o", "--output", metavar="FILE")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # by name, so a wrapper installed on this module still sees the command
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except ValueError as exc:
        where = f"{args.input}: " if "input" in args else ""
        print(f"error: {where}{exc}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
