import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unicon4"


def test_no_assert_guards_in_src():
    # python -O strips assert statements, so a check that guards a result
    # must be an explicit raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
