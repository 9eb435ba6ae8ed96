"""Package surface: the exported names and the absence of bare asserts."""

import ast
import types
from pathlib import Path

import bricks

SOURCES = sorted(Path(bricks.__file__).parent.glob("*.py"))


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(bricks.__all__)) == len(bricks.__all__)
    for name in bricks.__all__:
        value = getattr(bricks, name)
        assert not isinstance(value, types.ModuleType), name


def test_no_assert_statements_in_the_library():
    # invariants must raise typed errors so they still hold under python -O
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
