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


#: the `os` functions that change the file system; every function of `shutil` does too
OS_WRITERS = {"remove", "rename", "replace", "unlink", "mkdir", "makedirs", "rmdir"}


def file_system_writes(source: str) -> list[str]:
    """Calls that change the file system: an `os` function of `OS_WRITERS`,
    any `shutil` function, or `open` with a mode that writes, appends or
    creates (or one that is not a literal), under any name they are
    imported as."""
    tree = ast.parse(source)
    names = {}  # local name -> (module, function or None for the module itself)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name, (a.name, None)) for a in node.names if a.name in ("os", "shutil"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "shutil"):
            names.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in names:
            module, name = names[func.value.id][0], func.attr
        elif isinstance(func, ast.Name):
            module, name = names.get(func.id, (None, func.id))
        else:
            continue
        if module == "shutil" or (module == "os" and name in OS_WRITERS):
            found.append(f"{module}.{name} (line {node.lineno})")
        elif module is None and name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                found.append(f"open (line {node.lineno})")
    return found


def test_file_system_write_is_found():
    source = (
        "import os\nimport shutil as sh\nfrom os import rename as mv\n"
        "os.remove('a')\nsh.copy('a', 'b')\nmv('a', 'b')\n"
        "open('a', 'w')\nopen('a', mode='ab')\nopen('a', m)\nopen('a', 'r+')\n"
        "open('a')\nopen('a', 'rb')\nos.path.join('a', 'b')\nos.listdir('a')\nf.remove(1)\n"
    )
    assert file_system_writes(source) == [
        "os.remove (line 4)", "shutil.copy (line 5)", "os.rename (line 6)", "open (line 7)",
        "open (line 8)", "open (line 9)", "open (line 10)",
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if os.path.basename(p) != "io.py"], ids=os.path.basename)
def test_only_io_changes_the_file_system(path):
    """Every file a stage writes goes through `io`, whose writers stage
    each directory in `.NAME.new` (`io.staged`)."""
    with open(path, encoding="utf-8") as fh:
        assert file_system_writes(fh.read()) == []
