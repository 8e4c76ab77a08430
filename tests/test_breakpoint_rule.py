"""One breakpoint rule: `Multiplicity.last_order` alone says through which
order a component lives, so `ceil` is called only in `ring.py`.  Every
other module reads `last_order`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ceil_calls(tree):
    """Line numbers of ceil(...) and <module>.ceil(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "ceil"
                    or isinstance(func, ast.Attribute) and func.attr == "ceil"):
                yield node.lineno


def test_ceil_is_called_only_in_ring():
    sources = sorted((ROOT / "src" / "orbichern").glob("*.py"))
    assert sources
    found = {path.name: list(_ceil_calls(ast.parse(path.read_text(
        encoding="utf-8"), str(path)))) for path in sources}
    assert found.pop("ring.py")  # Multiplicity.last_order
    assert {name: lines for name, lines in found.items() if lines} == {}
