"""The package's public surface: exported names resolve, imports are used,
nothing is defined or recorded that nothing reads, every property of a
library class and every public name but two listed ones has a reader in
the program or the demos, every error type is raised or subclassed,
scipy.special and scipy.integrate are never imported, only the spectral
splitter cross-check calls an eigensolver, the Gram matrix needs no
quadrature, fock.rows is the only code that takes a `weighted` flag,
applies the Gaussian weight to rows or (with the overlap oracle) reads a
Hermite table, no row block allocates or returns rows of its own,
entangle allocates no dense stack of states, the CLI imports no piece of
the entropy scan's layout, the modules import each other without a
cycle, the benchmark's self-test passes, and a failing property test
fails alone.

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


def test_every_property_has_a_program_reader():
    # a property that only tests read restates its inputs for them; readers are
    # attribute loads in the package or the demos
    loads = {n.attr for p in SOURCES.values() if p.parent != ROOT / "tests"
             for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls.name}.{node.name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
              for cls in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name not in loads
              and "property" in {getattr(d, "id", None) for d in node.decorator_list}]
    assert unread == []


# Public names no command, validate row or demo reads, kept for their tests
PUBLIC_WITHOUT_A_PROGRAM_READER = {
    "evolve": "the paper's time evolution of a coherent state",
    "matrix_element_quadrature": "the quadrature oracle of the operator tables",
}


def test_every_public_name_has_a_program_reader():
    # a name in a module's __all__ is loaded, imported or read as an attribute
    # by another package module or a demo, or by its own module outside its
    # own definition; the top-level re-exports are not reads.  The allow-list
    # names exactly the names that have no such reader.
    paths = [p for p in SOURCES.values() if p.parent != ROOT / "tests" and p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}

    def reads(nodes):
        names = set()
        for node in nodes:
            names |= set(_read_names(node))
            names |= {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
        return names

    unread = []
    for path in paths:
        if path.parent != PACKAGE_DIR:
            continue
        tree = trees[path]
        others = reads(top for p, t in trees.items() if p != path for top in t.body)
        nodes = dict(_definitions(tree))
        for name in sorted(_exported(tree)):
            own = reads(top for top in tree.body if top is not nodes.get(name))
            if name not in others | own:
                unread.append(name)
    assert sorted(unread) == sorted(PUBLIC_WITHOUT_A_PROGRAM_READER)


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


def _imports_anywhere(package: str) -> list:
    """(module file, imported name) of every import of `package` or one of
    its names in the package, function bodies included."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n == package or n.startswith(package + ".")]
    return found


def test_no_module_imports_scipy_special():
    # the gamma functions come from math, so scipy.special is not imported
    # anywhere in the package, not even inside a function
    assert _imports_anywhere("scipy.special") == []


def test_no_module_imports_scipy_integrate():
    # the radial moments come from numerics.qag, QUADPACK's QAG ported,
    # so scipy.integrate is not imported anywhere, not even inside a function
    assert _imports_anywhere("scipy.integrate") == []


def test_only_the_spectral_cross_check_calls_an_eigensolver():
    # the splitter runs Risbo's recursion; an eigensolve inside the entropy
    # path would bring back the per-total solves and their cache
    callers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {"eigh", "eigh_tridiagonal"} & set(_read_names(top))
            callers += [(path.name, getattr(top, "name", None), n) for n in sorted(names)]
    assert callers == [("entangle.py", "beamsplitter_block", "eigh")]


def test_the_gram_matrix_is_built_without_quadrature():
    # gram_matrix is closed-form; a Hermite table on a Gauss rule would bring
    # back its P x nodes transient and the rule's reach, x < 27.3
    tree = ast.parse((PACKAGE_DIR / "entangle.py").read_text(encoding="utf-8"))
    [gram] = [top for top in tree.body if getattr(top, "name", None) == "gram_matrix"]
    assert {"gauss_halfline", "hermite_normalized"} & set(_read_names(gram)) == set()


def test_only_fock_rows_takes_a_weighted_flag():
    # the row blocks build weighted rows only; fock.rows alone chooses plain
    # ones and applies the weight
    takers = [(path.name, node.name) for path in sorted(PACKAGE_DIR.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) and "weighted" in {
                  a.arg for a in (*node.args.args, *node.args.kwonlyargs)}]
    assert takers == [("fock.py", "rows")]


def test_row_blocks_fill_the_output_of_fock_rows():
    # fock.rows allocates its output, and the partner scratch, once and owns
    # them; a block that allocates, returns or copies rows of its own, or
    # calls rows for them, brings back a fresh row-sized array per block
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    [rows] = [node for node in trees["fock.py"].body if getattr(node, "name", None) == "rows"]
    names = {name for name in _read_names(rows) if name.endswith("_block")}
    blocks = {(path, node.name): node for path, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in names}
    assert sorted(blocks) == [("fock.py", "_truncated_block"), ("susy.py", "_iso_block"),
                              ("susy.py", "_new_block")]
    found = []
    for key, block in blocks.items():
        for node in ast.walk(block):
            if isinstance(node, ast.Return) and node.value is not None:
                found.append((*key, "return", node.lineno))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("empty", "zeros", "ones")
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                found.append((*key, node.func.attr, node.lineno))
            elif isinstance(node, ast.Call) and "rows" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
                found.append((*key, "rows", node.lineno))
    assert found == []


def _is_gaussian(node: ast.AST) -> bool:
    """An np.exp call whose argument squares a name (x * x or x ** 2)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"):
        return False
    names = [n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)]
    squares = [n for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.BinOp)
               and isinstance(n.op, ast.Pow) and getattr(n.right, "value", None) == 2]
    return len(names) > len(set(names)) or bool(squares)


def test_only_fock_rows_applies_the_gaussian_weight_to_rows():
    # besides fock.rows, a Gaussian e^{-x^2...} appears only in the quadrature
    # weights and in the seed solutions, which are no basis rows
    users = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(_is_gaussian(node) for node in ast.walk(top)):
                users.add((path.name, getattr(top, "name", None)))
    assert users == {("fock.py", "rows"), ("numerics.py", "gauss_halfline"),
                     ("susy.py", "SeedSolution")}


def test_hermite_tables_are_read_only_by_fock_and_the_overlap_oracle():
    # fock.rows is the one row engine: no other module builds rows from its
    # own Hermite table, save the quadrature oracle of the half-line overlaps
    readers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if "hermite_normalized" in set(_read_names(top)):
                readers.append((path.name, getattr(top, "name", None)))
    assert [r for r in readers if r[0] != "fock.py"] == [
        ("entangle.py", "halfline_overlap_quadrature")]


def test_entangle_allocates_no_dense_state_stacks():
    # scan states are packed anti-diagonals; a three-axis np.zeros, np.empty
    # or np.ones would bring back (points, 2c - 1, 2c - 1) state stacks
    tree = ast.parse((PACKAGE_DIR / "entangle.py").read_text(encoding="utf-8"))
    stacks = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("zeros", "empty", "ones")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            shapes = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "shape")]
            stacks += [node.lineno for shape in shapes
                       if isinstance(shape, ast.Tuple) and len(shape.elts) == 3]
    assert stacks == []


def test_the_cli_restates_no_layout_of_the_entropy_scan():
    # entangle sizes its scan (scan_bytes, min_cutoff); a CLI that imports
    # the pieces of that layout could restate it again
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    imported = [(node.module, a.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert [name for _, name in imported
            if name in ("gauss_halfline_size", "points_per_sweep")] == []
    assert [name for module, name in imported
            if module == "entangle" and name.startswith("_")] == []
    assert [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and n.attr.startswith("_") and isinstance(n.value, ast.Name)
            and n.value.id in ("entangle", "_entangle")] == []


def test_every_error_type_is_raised_or_subclassed():
    # an error class that nothing raises and nothing derives from is a leftover
    classes = [node for node in ast.parse((PACKAGE_DIR / "errors.py").read_text(
        encoding="utf-8")).body if isinstance(node, ast.ClassDef)]
    bases = {b.id for cls in classes for b in cls.bases if isinstance(b, ast.Name)}
    raised = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= set(_read_names(exc))
    assert [cls.name for cls in classes if cls.name not in raised | bases] == []
    # one class per failure kind; an argument outside a domain is a ValueError
    assert [cls.name for cls in classes] == [
        "TruncOscError", "DivergenceError", "PoleError", "NonConvergence",
        "NotNormalizable", "TruncationTooSmall", "SingularWronskian"]


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
