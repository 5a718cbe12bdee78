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


def function_imports(source: str) -> list[str]:
    """Names of the functions whose body holds an import statement."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))
    )


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


def test_checker_finds_function_imports():
    source = (
        "import os\nfrom json import dumps\n"
        "def f():\n    import sys\n    return sys.argv\n"
        "def g():\n    return os.sep\n"
        "class C:\n    async def m(self):\n        if True:\n"
        "            from json import loads\n        return loads\n"
    )
    assert function_imports(source) == ["f", "m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []
