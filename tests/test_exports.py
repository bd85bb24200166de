"""Every name the package exports is read somewhere outside the tests.

A name that ``eczcs/__init__`` imports from one of its modules counts as
read when an expression reads it, as a name or as an attribute, in a
module of the package (its definition is no read), in a fenced ``python``
block of README.md (run by ``tests/test_readme.py``) or in a benchmark
script ``perfbench/*.py``, which may also name it in a string.  A name
that only tests read is no part of the package: it belongs in
``tests/reference.py``.  Every module-level name a package module defines
is read by a package module or exported.
"""

import ast
from pathlib import Path

import eczcs
from eczcs import correlation, sequences
from eczcs.cyclotomic import CycloInt

from test_readme import BLOCKS

PACKAGE = Path(eczcs.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def exports(source: str) -> dict[str, str]:
    """Each name a package ``__init__`` imports from a sibling module, with that module."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def read_names(source: str, by_string: bool = False) -> set[str]:
    """Names and attribute names that an expression of the source reads; with by_string also
    each part of a string constant spelling a dotted name (a benchmark script looks its layer
    functions up by name, such as "pccf" or "CorrelationProfile.to_csv")."""
    nodes = list(ast.walk(ast.parse(source)))
    loads = [n for n in nodes if isinstance(getattr(n, "ctx", None), ast.Load)]
    names = {n.id for n in loads if isinstance(n, ast.Name)} | {
        n.attr for n in loads if isinstance(n, ast.Attribute)
    }
    if by_string:
        spelled = (n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str))
        names.update(part for s in spelled if all(p.isidentifier() for p in s.split(".")) for part in s.split("."))
    return names


def defined_names(source: str) -> set[str]:
    """Functions, classes and assigned names that the source's module-level statements define."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def unread(exported, sources) -> list[str]:
    """Exported names that none of the (source, by_string) pairs reads."""
    read = set().union(*(read_names(source, by_string) for source, by_string in sources))
    return sorted(set(exported) - read)


def sources() -> list[tuple[str, bool]]:
    """The package's modules but its ``__init__``, the README blocks and the benchmark scripts."""
    modules = [p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    scripts = [p.read_text() for p in BENCH.glob("*.py")]
    return [(text, False) for text in modules + BLOCKS] + [(text, True) for text in scripts]


def test_detector_finds_unread_exports():
    exported = exports("from .a import f, g\nfrom .b import h as k, m\nfrom . import c\n")
    assert exported == {"f": "a", "g": "a", "k": "b", "m": "b"}
    code = "def f(): return g(1)\nk = 2\nx.m = 3\nprint('f', 'x.k')\n"
    assert unread(exported, [(code, False)]) == ["f", "k", "m"]  # defined, bound, set, spelled
    assert unread(exported, [(code, False), ("import a\na.m", False)]) == ["f", "k"]
    assert unread(exported, [(code, True)]) == ["m"]


def test_every_export_is_read_outside_its_definition():
    assert unread(exports((PACKAGE / "__init__.py").read_text()), sources()) == []


def test_every_module_level_name_is_read_or_exported():
    """A function, class or constant that a src module defines is read by some src module or
    exported, so a removed code path cannot leave its constant behind."""
    assert defined_names("_B = 1 << 11\nx: int = 2\na, (b, c) = 1, (2, 3)\ndef f(): g = 1\nclass C: d = 1\n") == {
        "_B", "x", "a", "b", "c", "f", "C"
    }
    texts = [p.read_text() for p in PACKAGE.glob("*.py")]
    read = set().union(*map(read_names, texts), exports((PACKAGE / "__init__.py").read_text()))
    assert sorted(set().union(*map(defined_names, texts)) - read) == []


def test_test_only_names_are_gone():
    """The references moved to tests/reference.py are no library names any more."""
    for name in ("pccf_via_accf", "modulate", "negate", "concat"):
        assert not hasattr(eczcs, name), name
    assert not hasattr(correlation, "pccf_via_accf")
    assert not any(hasattr(sequences, name) for name in ("modulate", "negate", "concat", "root_table"))
    for name in ("zero", "integer", "root", "__add__", "__sub__", "__neg__", "conjugate", "mag_sq", "_check"):
        assert not hasattr(CycloInt, name), name
