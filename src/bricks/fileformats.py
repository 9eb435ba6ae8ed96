"""Textual file formats: brick complexes, piece tables, refinement
schedules, and OBJ mesh export.

All scalars are serialized exactly, as integers or "n/d" fractions, never
as floats; topology results are therefore bit-reproducible. The only
exception is mesh export, where viewers require decimals.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional

from .complexes import BrickComplex, ValidationReport, brick_complex
from .geometry import (
    Brick,
    GeometryError,
    Scalar,
    Vec3,
    _quoted,
    format_scalar,
    scalar,
)
from .refinement import (
    Keep,
    Octasect,
    QuarterLengthwise,
    RefineOp,
    SplitAt,
)
from .surface import PieceRow, PieceTable, exposed_faces


class ParseError(ValueError):
    """Malformed input file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokens(text: str):
    """Yield (line_number, raw_line, tokens) for significant lines. Lines
    end at "\\n" only, as wc -l and grep -n count them; each is stripped, so
    "\\r\\n" ends a line too."""
    for n, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield n, raw, stripped.split()


def _column_of(raw: str, token_index: int) -> int:
    # best-effort column of the i-th whitespace token, 1-based
    tokens = raw.split("#", 1)[0].split()
    pos = 0
    for i, tok in enumerate(tokens):
        pos = raw.index(tok, pos)
        if i == token_index:
            return pos + 1
        pos += len(tok)
    return 1


def _parse_scalar(tok: str, line: int, raw: str, index: int) -> Scalar:
    try:
        return scalar(tok)
    except GeometryError as exc:
        raise ParseError(str(exc), line, _column_of(raw, index)) from exc


# --- brick complex files ----------------------------------------------------
#
# Grammar (one directive per line, '#' comments):
#   name <identifier>          (at most once)
#   brick <id> <ox> <oy> <oz> <ux> <uy> <uz> <vx> <vy> <vz> <wx> <wy> <wz>
# Scalars are integers or exact fractions "n/d". Ids must be unique and
# contain no whitespace. Bricks with zero volume are rejected.

# 12 scalars that each match scalar()'s grammar for an integer
_INT_ROW = re.compile(r"-?[0-9]+(?: -?[0-9]+){11}")


def parse_complex(text: str) -> BrickComplex:
    name = ""
    bricks: list[Brick] = []
    seen: set[str] = set()
    for line, raw, toks in _tokens(text):
        if toks[0] == "name":
            if len(toks) != 2:
                raise ParseError("name takes exactly one token", line)
            if name:
                raise ParseError(f"second name {_quoted(toks[1])}", line,
                                 _column_of(raw, 1))
            name = toks[1]
        elif toks[0] == "brick":
            if len(toks) != 14:
                raise ParseError(
                    f"brick line needs 14 tokens (id plus 12 scalars), got {len(toks)}",
                    line,
                )
            brick_id = toks[1]
            if brick_id in seen:
                raise ParseError(f"duplicate brick id {_quoted(brick_id)}",
                                 line, _column_of(raw, 1))
            seen.add(brick_id)
            scalars = toks[2:]
            try:  # a row of ASCII integers, the common case, in one step
                nums = (list(map(int, scalars))
                        if _INT_ROW.fullmatch(" ".join(scalars)) else None)
            except ValueError:  # past int()'s digit limit: _parse_scalar says so
                nums = None
            if nums is None:
                nums = [_parse_scalar(t, line, raw, i)
                        for i, t in enumerate(scalars, start=2)]
            try:
                bricks.append(
                    Brick(
                        brick_id,
                        Vec3(*nums[0:3]),
                        Vec3(*nums[3:6]),
                        Vec3(*nums[6:9]),
                        Vec3(*nums[9:12]),
                    )
                )
            except GeometryError as exc:
                raise ParseError(str(exc), line) from exc
        else:
            raise ParseError(f"unknown directive {_quoted(toks[0])}", line,
                             _column_of(raw, 0))
    if not bricks:
        raise ParseError("no bricks in file", 1)
    return brick_complex(bricks, name=name)


def emit_complex(complex: BrickComplex) -> str:
    """Canonical form: bricks sorted by id, exact scalars."""
    lines = []
    if complex.name:
        lines.append(f"name {complex.name}")
    for b in sorted(complex.bricks, key=lambda b: b.id):
        fields = [format_scalar(x) for p in (b.origin, b.u, b.v, b.w) for x in p]
        lines.append(f"brick {b.id} " + " ".join(fields))
    return "\n".join(lines) + "\n"


# --- piece table files ------------------------------------------------------
#
# One row per line: <label> <multiplicity> <vertices> <edges> <faces>
# Labels are single tokens; counts are nonnegative integers in ASCII digits.


def parse_piece_table(text: str) -> PieceTable:
    rows = []
    for line, raw, toks in _tokens(text):
        if len(toks) != 5:
            raise ParseError(
                f"piece row needs 5 tokens (label mult v e f), got {len(toks)}", line
            )
        numbers = []
        for i, t in enumerate(toks[1:], 1):
            try:
                if not (t.isascii() and t.removeprefix("-").isdigit()):
                    raise ValueError(t)  # int() alone takes "+4", "1_2" and "٨"
                numbers.append(int(t))
            except ValueError as exc:  # or past int()'s digit limit
                raise ParseError(f"bad integer in piece row: {_quoted(t)}", line,
                                 _column_of(raw, i)) from exc
        try:
            rows.append(PieceRow(toks[0], *numbers))
        except ValueError as exc:
            raise ParseError(str(exc), line) from exc
    if not rows:
        raise ParseError("empty piece table", 1)
    return PieceTable(rows=tuple(rows))


# --- schedule files ---------------------------------------------------------
#
#   <brick id> keep
#   <brick id> octasect
#   <brick id> quarter [<long direction 0|1|2>]
#   <brick id> split <direction> <f1,f2,...>


def parse_schedule(text: str) -> dict[str, RefineOp]:
    ops: dict[str, RefineOp] = {}
    for line, raw, toks in _tokens(text):
        if len(toks) < 2:
            raise ParseError("schedule line needs an id and an operator", line)
        label, op = toks[0], toks[1]
        if label in ops:
            raise ParseError(f"duplicate schedule entry for {_quoted(label)}", line,
                             _column_of(raw, 0))
        if op == "keep" and len(toks) == 2:
            ops[label] = Keep()
        elif op == "octasect" and len(toks) == 2:
            ops[label] = Octasect()
        elif op == "quarter" and len(toks) in (2, 3):
            long_dir = None
            if len(toks) == 3:
                if toks[2] not in ("0", "1", "2"):
                    raise ParseError("quarter direction must be 0, 1 or 2", line,
                                     _column_of(raw, 2))
                long_dir = int(toks[2])
            ops[label] = QuarterLengthwise(long_dir)
        elif op == "split" and len(toks) == 4:
            if toks[2] not in ("0", "1", "2"):
                raise ParseError("split direction must be 0, 1 or 2", line,
                                 _column_of(raw, 2))
            fractions = tuple(
                _parse_scalar(t, line, raw, 3) for t in toks[3].split(",")
            )
            ops[label] = SplitAt(int(toks[2]), fractions)
        else:
            raise ParseError(f"bad schedule operator {_quoted(' '.join(toks[1:]))}",
                             line, _column_of(raw, 1))
    return ops


# --- OBJ export -------------------------------------------------------------


def _decimal(q: Scalar) -> str:
    """Shortest exact decimal when the denominator is 2^a 5^b, else the
    shortest float round-trip form. Raises GeometryError for a value that
    has more digits than Python prints or lies beyond the largest float."""
    f = Fraction(q)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        if abs(f) > sys.float_info.max:
            raise GeometryError("a coordinate lies beyond the largest float")
        return repr(float(f))
    digits = max(twos, fives)
    if digits == 0:
        return format_scalar(f.numerator)
    scaled = f.numerator * 10 ** digits // f.denominator
    sign = "-" if scaled < 0 else ""
    whole, frac = map(format_scalar, divmod(abs(scaled), 10 ** digits))
    return f"{sign}{whole}.{frac.zfill(digits)}"


def export_obj(
    complex: BrickComplex, report: Optional[ValidationReport] = None
) -> str:
    """Quad mesh of brick faces; deterministic vertex ordering.

    Given the complex's validation report, only the exposed faces (those
    covered by no whole-face contact) are emitted, so the quad count equals
    the surface face count; without one, every face of every brick is.
    """
    bricks = {b.id: b for b in complex.bricks}
    if report is None:
        faces = [(label, f) for label in bricks for f in range(6)]
    else:
        faces = exposed_faces(complex, report)
    quads = [bricks[label].face_polygon(f) for label, f in faces]

    used = sorted({p for quad in quads for p in quad})
    index = {p: i + 1 for i, p in enumerate(used)}
    lines = [f"# {complex.name or 'brick complex'}"]
    for p in used:
        lines.append(f"v {_decimal(p.x)} {_decimal(p.y)} {_decimal(p.z)}")
    for quad in quads:
        lines.append("f " + " ".join(str(index[p]) for p in quad))
    return "\n".join(lines) + "\n"
