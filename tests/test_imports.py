"""Every module of the package uses each name it imports.

The package's ``__init__`` is exempt: its imports are the public API it
re-exports.  Names are bound by ``import`` and ``from ... import`` anywhere
in a module and count as used when any expression, annotation included,
reads them.
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
