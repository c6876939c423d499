"""The package's public surface: exported names resolve, imports are used,
nothing is defined or recorded that nothing reads, the modules import each
other without a cycle, the benchmark's self-test passes, and a failing
property test fails alone.

No linter ships with the toolchain, so these checks stand in for one.
The unused-import check also covers the tests and the demos.
"""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


def _read_names(node: ast.AST):
    """Every name a node reads, as a bare name or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__"))


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_every_module_level_definition_is_read_somewhere(name):
    # import lists and __all__ strings are not reads, so an export alone
    # does not keep a dead helper alive
    paths = [*SOURCES.values(), *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    reads = [(top, set(_read_names(top))) for tree in trees.values() for top in tree.body]
    orphans = [defined for defined, node in _definitions(trees[PACKAGE_DIR / name])
               if not any(defined in names for top, names in reads if top is not node)]
    assert orphans == []


def test_every_dataclass_field_is_read_as_an_attribute():
    # a field that no code reads back is a record of nothing
    paths = [*SOURCES.values(), *sorted((ROOT / "perfbench").glob("*.py"))]
    attrs = {n.attr for p in paths for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(n, ast.Attribute)}
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef) and "dataclass" in {
                    n.id for d in cls.decorator_list for n in ast.walk(d)
                    if isinstance(n, ast.Name)}:
                unread += [f"{cls.name}.{f.target.id}" for f in cls.body
                           if isinstance(f, ast.AnnAssign) and f.target.id not in attrs]
    assert unread == []


def test_no_module_level_scipy_import():
    # scipy loads on first use (only validate needs it), so importing the
    # package stays cheap
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def _package_imports(node: ast.AST) -> list:
    """The package modules an import statement loads, by file stem."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module:
            return [node.module.split(".")[0]]
        return [a.name if (PACKAGE_DIR / f"{a.name}.py").exists() else "__init__"
                for a in node.names]
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("truncosc."):
        return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("truncosc.")]
    return []


def test_modules_import_each_other_at_the_top_and_without_a_cycle():
    # fock.rows defers its import of susy, whose partner rows build on fock's;
    # every other package import sits at the top of its module
    graph, deferred = {}, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        graph[path.stem] = set()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = [t for node in ast.walk(top) for t in _package_imports(node)]
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                deferred += [(path.stem, top.name, t) for t in targets]
            else:
                graph[path.stem] |= set(targets)
    assert deferred == [("fock", "rows", "susy")]
    # grow each module's targets to all it reaches; a cycle reaches itself
    grown = True
    while grown:
        grown = False
        for targets in graph.values():
            more = set().union(*(graph[t] for t in targets)) - targets
            grown |= bool(more)
            targets |= more
    assert sorted(module for module, targets in graph.items() if module in targets) == []


def test_benchmark_self_test_passes(cli_env):
    # the benchmark pins names of this package (traced functions, a cache, the
    # table builder), so renaming one fails here as well as in the benchmark
    res = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=cli_env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-4000:]


def test_a_failing_property_test_does_not_end_the_session(tmp_path, cli_env):
    # hypothesis reports a failing @given test through an import that warns;
    # under the suite's warning filter and conftest the other tests still run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
        "def test_runs():\n    pass\n", encoding="utf-8")
    env = dict(cli_env, PYTHONPATH=f"{ROOT / 'tests'}:{cli_env['PYTHONPATH']}")
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-p", "conftest", "-c", str(ROOT / "pyproject.toml"),
                          str(tmp_path / "test_probe.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout
