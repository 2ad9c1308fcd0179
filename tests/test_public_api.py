"""Every name the package exports has a caller: each name in
``tropfan.__all__`` must be used somewhere other than its own definition
and ``__init__.py``, namely in a library module, in the acceptance suite,
or in the benchmark (its scripts or ``BENCHMARK.json``).  Tests other than
the acceptance suite do not count, so a routine that only its own tests
call shows up here.  ``ALLOWED`` names the exceptions, each with its
reason."""

import ast
import re
from pathlib import Path

import tropfan

PACKAGE = Path(tropfan.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# A mention in a docstring or comment is not a caller, so these need a reason.
ALLOWED = {
    "caterpillar_cof": "the paper's construction of a full-dimensional cone, checked by the tests",
    "reduce": "the paper's reduction to a stable type, checked against contraction in every order",
}


def used_names(path: Path) -> set[str]:
    """The names a module reads, bare or as an attribute; definitions and
    imports are not uses."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def exports_without_a_caller() -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(sources) >= 8
    used = set().union(*map(used_names, sources))
    benchmark = (ROOT / "BENCHMARK.json").read_text()
    return [
        name
        for name in tropfan.__all__
        if name not in used and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", benchmark)
    ]


def test_every_export_has_a_caller():
    assert [name for name in exports_without_a_caller() if name not in ALLOWED] == []


def test_allowlist_holds_only_exports_without_a_caller():
    assert set(ALLOWED) <= set(exports_without_a_caller())
