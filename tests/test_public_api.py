"""Every name the package exports, and every member of an exported class,
has a caller.

Each name in ``tropfan.__all__`` must be used somewhere other than its own
definition and ``__init__.py``, namely in a library module, in the
acceptance suite, or in the benchmark (its scripts or ``BENCHMARK.json``).
So must each public method, property, cached property and classmethod of
an exported class, and each dataclass field it derives (``init=False``):
a library module, the acceptance suite or the benchmark's scripts must
read it as an attribute, so a local variable of the same name does not
count.  Tests other than the acceptance suite do not count, so a routine
that only its own tests call shows up here.  ``ALLOWED`` and
``MEMBERS_ALLOWED`` name the exceptions, each with its reason.  A name is
all the scan sees, so an operator, called by its symbol, is held to the
closed table ``OPERATORS`` instead: every operator dunder an exported
class defines is listed there with its caller, and nothing else is."""

import ast
import dataclasses
import inspect
import re
import textwrap
from functools import cache, cached_property
from pathlib import Path

import tropfan

PACKAGE = Path(tropfan.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# A mention in a docstring or comment is not a caller, so these need a reason.
ALLOWED = {
    "caterpillar_cof": "the paper's construction of a full-dimensional cone, checked by the tests",
    "reduce": "the paper's reduction to a stable type, checked against contraction in every order",
}

# Members of exported classes, as "Class.member", that have no caller.
MEMBERS_ALLOWED: dict[str, str] = {}

# Every operator dunder of an exported class, other than the constructors,
# with what calls it.
OPERATORS = {
    "QuotientVector.__add__": "the acceptance suite sums psi images of split rays",
    "QuotientVector.__hash__": "Cone.rayset's frozenset and the ray-set keys of Fan.with_weights",
    "QnVector.__add__": "qn_relations_check sums the distance classes of splits",
    "ChainOfFlats.__len__": "psi_cof_to_radial and the acceptance suite read a chain's length",
    "ChainOfFlats.__iter__": "the acceptance suite walks a chain's flats",
    "ChainOfFlats.__getitem__": "psi_cof_to_radial reads a chain's flats by position",
}


def used_names(path: Path, attributes_only: bool = False) -> set[str]:
    """The names a module reads as an attribute and, unless
    ``attributes_only``, bare; definitions and imports are not uses."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and not attributes_only:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@cache
def caller_names(attributes_only: bool = False) -> frozenset[str]:
    """The names that the library modules, the acceptance suite and the
    benchmark's scripts read (``used_names``)."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(sources) >= 8
    return frozenset().union(*(used_names(p, attributes_only) for p in sources))


def exports_without_a_caller() -> list[str]:
    benchmark = (ROOT / "BENCHMARK.json").read_text()
    return [
        name
        for name in tropfan.__all__
        if name not in caller_names()
        and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", benchmark)
    ]


def exported_classes() -> list[type]:
    return [obj for obj in map(tropfan.__dict__.get, tropfan.__all__) if inspect.isclass(obj)]


def public_members(cls: type) -> list[str]:
    """The public methods, properties, cached properties and classmethods
    that ``cls`` defines, and the dataclass fields it derives."""
    kinds = (property, cached_property, classmethod, staticmethod)
    names = [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]
    if dataclasses.is_dataclass(cls):
        names += [f.name for f in dataclasses.fields(cls) if not f.init]
    return names


def members_without_a_caller() -> list[str]:
    return [
        f"{cls.__name__}.{name}"
        for cls in exported_classes()
        for name in public_members(cls)
        if name not in caller_names(attributes_only=True)
    ]


def operator_dunders() -> list[str]:
    """The dunders written in the body of each exported class, other than
    ``__init__`` and ``__post_init__``; the ones a dataclass generates are
    not written there."""
    out = []
    for cls in exported_classes():
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
        out += [
            f"{cls.__name__}.{f.name}"
            for f in node.body
            if isinstance(f, ast.FunctionDef)
            and re.fullmatch(r"__\w+__", f.name)
            and f.name not in ("__init__", "__post_init__")
        ]
    return out


def test_every_export_has_a_caller():
    assert [name for name in exports_without_a_caller() if name not in ALLOWED] == []


def test_allowlist_holds_only_exports_without_a_caller():
    assert set(ALLOWED) <= set(exports_without_a_caller())


def test_every_member_of_an_exported_class_has_a_caller():
    assert len(exported_classes()) >= 15
    assert [name for name in members_without_a_caller() if name not in MEMBERS_ALLOWED] == []


def test_member_allowlist_holds_only_members_without_a_caller():
    assert set(MEMBERS_ALLOWED) <= set(members_without_a_caller())


def test_every_operator_is_in_the_table():
    assert sorted(operator_dunders()) == sorted(OPERATORS)
