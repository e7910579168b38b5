import ast
import builtins
import importlib
import subprocess
import sys
from pathlib import Path

import baxlab


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no invariant of the package may rest on one
    root = Path(baxlab.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_name_the_benchmark_traces_exists():
    # the tracer looks each name up with getattr, so a renamed function would
    # break `baxbench/run.py --trace 1`; read its list without importing it
    source = Path(__file__).resolve().parent.parent / "baxbench" / "tracing.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED"
    )
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"baxlab.{module}"), name)
    ]
    assert traced and missing == []


def _package_trees():
    root = Path(baxlab.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}


def _baxlab_imports(tree):
    """The baxlab modules that a module imports anywhere in its body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found.update(m.partition(".")[2] or "baxlab" for m in modules if m.split(".")[0] == "baxlab")
    return found


def test_perm_is_the_bottom_layer():
    # every other module may build on perm, so perm builds on none of them;
    # paths and laguerre sit directly on top of it, so perm is the one root
    imports = {name: _baxlab_imports(tree) for name, tree in _package_trees().items()}
    assert imports["perm"] == set()
    assert imports["paths"] == {"perm"}
    assert imports["laguerre"] == {"perm"}
    roots = [name for name, found in imports.items() if name != "__init__" and not found]
    assert roots == ["perm"]


# (module, function, imported module): the one import allowed inside a
# function.  harness._Pool imports multiprocessing on first use because it
# and what it pulls in (pickle, socket, selectors) are a large share of the
# package's start-up, and only a run with more than one worker needs them.
DEFERRED_IMPORTS = {("harness", "_Pool", "multiprocessing")}


def test_no_import_statement_inside_a_function():
    # a function-level import hides a dependency, usually a cycle
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _package_trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (
            isinstance(node, ast.Import)
            and len(node.names) == 1
            and node.names[0].asname is None
            and (name, fn.name, node.names[0].name) in DEFERRED_IMPORTS
        )
    ]
    assert found == []


def test_the_cli_starts_without_dataclasses_inspect_or_multiprocessing():
    # the three were most of the package's import time; -S keeps what the
    # site hooks of an installation import out of the check
    src = str(Path(baxlab.__file__).resolve().parent.parent)
    shunned = ("dataclasses", "inspect", "multiprocessing")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import baxlab.cli; "
        f"print(sorted(set({shunned!r}) & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def _is_exception_base(base):
    """A base class named in a class statement: a builtin exception, or a
    name that follows the package's ``...Error`` convention."""
    name = getattr(base, "id", "")
    builtin = getattr(builtins, name, None)
    return name.endswith("Error") or isinstance(builtin, type) and issubclass(builtin, BaseException)


def test_every_exception_class_of_the_package_is_raised_in_it():
    # an exception class that the package never raises is a name only its
    # tests can use
    trees = _package_trees().values()
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(_is_exception_base, node.bases))
    }
    raised = {
        getattr(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "id", None)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
    }
    assert defined and sorted(defined - raised) == []

