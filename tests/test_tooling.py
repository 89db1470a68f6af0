"""Checks on how the package is loaded and traced.

The benchmark traces library functions by name: each name in the TRACED
list of benchmarks/run.py must still resolve in edgelens, so a deleted or
renamed function fails here and not only when the benchmark runs. And
`import edgelens` loads only what the library runs, which every process
pays for in start-up time and peak memory."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import edgelens

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


def test_import_loads_neither_scipy_stats_nor_click():
    """scipy.stats alone doubles the import's time and memory, and click is
    for the command line only. A fresh interpreter, so modules the test
    session already loaded do not count."""
    src = Path(edgelens.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, json, edgelens; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    loaded = json.loads(result.stdout)
    assert [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")] == []
    assert [m for m in loaded if m == "click" or m.startswith("click.")] == []
