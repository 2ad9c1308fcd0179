"""The library raises explicit exceptions for its invariants, so ``python -O``
cannot change its behaviour: no module under ``tropfan`` may hold an
``assert`` statement."""

import ast
from pathlib import Path

import tropfan

PACKAGE = Path(tropfan.__file__).parent


def test_library_has_no_assert():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
