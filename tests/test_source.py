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


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    `_` that the module itself never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                defined.update((n.id, node.lineno) for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_unread_private_name_is_found():
    source = (
        "def _used():\n    return 1\n\n"
        "def _unused():\n    return 2\n\n"
        "class _Gone:\n    pass\n\n"
        "_LIMIT, _KEPT = 3, 4\n"
        "__all__ = []\n"
        "x = _used() + _KEPT\n"
        "def f(_arg):\n    _local = 1\n"  # not module-level names
    )
    assert unread_private_names(source) == ["_Gone (line 7)", "_LIMIT (line 10)", "_unused (line 4)"]
    assert unread_private_names("_N: int = 2\ndef g():\n    return _N\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unread_private_names(path):
    with open(path, encoding="utf-8") as fh:
        assert unread_private_names(fh.read()) == []


def module_level_imports(source: str) -> set[str]:
    """The top-level packages a module imports as it is itself imported:
    at module level or in a class body, but not in a function.  Relative
    imports are left out."""
    tree, found = ast.parse(source), set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_import_is_found():
    source = (
        "import os.path\nfrom hashlib import sha256\nfrom . import io\n"
        "if True:\n    import _hashlib\n"
        "class C:\n    import json\n"
        "def f():\n    import csv\n"
    )
    assert module_level_imports(source) == {"os", "hashlib", "_hashlib", "json"}


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_module_level_openssl_import(path):
    """Importing a module maps no OpenSSL: `hashlib` is imported only to
    hash a manifest of at least 1 MiB.  This holds where the child-process
    tests of `test_cli` skip, under an interpreter that loads `_hashlib`
    itself."""
    with open(path, encoding="utf-8") as fh:
        assert module_level_imports(fh.read()) & {"hashlib", "_hashlib"} == set()
