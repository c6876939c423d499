"""The package's public surface: exported names resolve, imports are used.

No linter ships with the toolchain, so these two checks stand in for one.
The unused-import check also covers the tests and the demos.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import truncosc

PACKAGE_DIR = Path(truncosc.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = ["truncosc"] + [f"truncosc.{m.name}" for m in pkgutil.iter_modules(truncosc.__path__)
                          if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


# package modules are named by file name, tests and demos by directory/file
SOURCES = {p.name: p for p in sorted(PACKAGE_DIR.glob("*.py"))}
SOURCES.update({f"{d}/{p.name}": p for d in ("tests", "demos")
                for p in sorted((ROOT / d).glob("*.py"))})


@pytest.mark.parametrize("path", list(SOURCES.values()), ids=list(SOURCES))
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used - _exported(tree)) == []
