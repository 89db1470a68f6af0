"""The benchmark traces library functions by name: each name in the TRACED
list of benchmarks/run.py must still resolve in edgelens, so a deleted or
renamed function fails here and not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def traced_names() -> list[tuple[str, str]]:
    """benchmarks/run.py's TRACED list, read with ast, without importing
    the script."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no TRACED list")


def test_every_traced_function_resolves():
    names = traced_names()
    assert names
    for module, function in names:
        assert module.split(".")[0] == "edgelens", module
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"{module}.{function}"
        )
