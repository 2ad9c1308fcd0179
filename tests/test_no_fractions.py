"""The exact linear algebra runs on integers: ``intlinalg`` imports nothing
from ``fractions``.  The rational span solver and the generic primitive
normal's coefficient solver and lattice reduction live only in the test
oracles, so no module under ``tropfan`` may define ``solve_in_span``,
``solve_coeffs_one`` or ``hnf_reduce``: a cone's normal has one path."""

import ast
from pathlib import Path

import tropfan

PACKAGE = Path(tropfan.__file__).parent
ORACLE_ONLY = {"solve_in_span", "solve_coeffs_one", "hnf_reduce"}


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def imports_fractions(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "fractions"
    if isinstance(node, ast.Import):
        return any(alias.name == "fractions" for alias in node.names)
    return False


def test_intlinalg_imports_nothing_from_fractions():
    tree = parsed(PACKAGE / "intlinalg.py")
    assert [node.lineno for node in ast.walk(tree) if imports_fractions(node)] == []


def test_library_defines_no_span_solver():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(parsed(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ORACLE_ONLY
    ]
    assert found == []
    oracles = Path(__file__).with_name("oracles.py")
    defined = {node.name for node in ast.walk(parsed(oracles)) if isinstance(node, ast.FunctionDef)}
    assert ORACLE_ONLY <= defined
