"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

import streammem

MODULES = sorted(p for p in Path(streammem.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in `__all__`
    counts as read, since the module re-exports it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\nimport os\nimport os.path as osp\n"
        "import numpy.linalg\nfrom json import dumps, loads\n__all__ = ['loads']\n"
        "def f(x: numpy.ndarray):\n    from sys import argv\n    return osp.join(argv[0])\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
