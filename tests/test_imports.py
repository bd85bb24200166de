"""Every module of the package uses each name it imports, and every private
module-level name it defines is read by some module of the package.

The package's ``__init__`` is exempt from the import rule: its imports are
the public API it re-exports.  Names are bound by ``import`` and
``from ... import`` anywhere in a module and count as used when any
expression, annotation included, reads them.  A private name is a
module-level function, class or constant whose name starts with one
underscore; it counts as read when any src module loads it by name or as
an attribute.
"""

import ast
from pathlib import Path

import pytest

import eczcs

MODULES = sorted(p for p in Path(eczcs.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_detector_finds_unused_names():
    source = "import os.path\nimport sys as system\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["os", "pi", "system"]
    assert unused_imports("from . import x\ndef f(y: x) -> None: ...\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level functions, classes and assigned constants named _x (dunders excluded)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    nodes = list(ast.walk(ast.parse(source)))
    loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return loaded | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def unread_private_names(sources: dict) -> list[str]:
    """'module.name' for every private definition of a module that no module reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(f"{mod}.{name}" for mod, text in sources.items()
                  for name in private_definitions(text) - read)


def test_detector_finds_unread_private_names():
    sources = {
        "a": "_K = 1\n_USED: int = 2\n_X, _Y = 3, 4\n__dunder__ = 5\ndef _f(): ...\n"
             "class _C: ...\ndef _g(): return _USED + _X\ndef public(): return _g()\n",
        "b": "import a\ndef _h(): ...\nprint(_h, a._Y)\n",
    }
    assert unread_private_names(sources) == ["a._C", "a._K", "a._f"]
    assert unread_private_names({"c": "def _loop(): return _loop\n"}) == []


def test_every_private_name_is_read():
    package = Path(eczcs.__file__).parent
    assert unread_private_names({p.stem: p.read_text() for p in sorted(package.glob("*.py"))}) == []
