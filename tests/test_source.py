import ast
import importlib
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
