"""Checks on the package source itself, for want of a linter."""

import ast
import os

import pytest

import patmetrics

SOURCES = sorted(
    os.path.join(os.path.dirname(patmetrics.__file__), name)
    for name in os.listdir(os.path.dirname(patmetrics.__file__))
    if name.endswith(".py")
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    source = "import os\nimport sys\nfrom typing import Iterable, Sequence\nx: Sequence = sys.argv\n"
    assert unused_imports(source) == ["Iterable (line 3)", "os (line 1)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
