"""Checks on how the package is loaded, traced and documented.

The benchmark traces library functions by name: each name in the TRACED
list of benchmarks/run.py must still resolve in edgelens, so a deleted or
renamed function fails here and not only when the benchmark runs. The
README names library functions, classes and tests the same way. And
`import edgelens` loads only what the library runs, which every process
pays for in start-up time and peak memory."""

import ast
import builtins
import importlib
import importlib.machinery
import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgelens
from edgelens import models

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "benchmarks" / "run.py"


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


def fresh_python(code: str) -> str:
    """The stdout of `code` run by a fresh interpreter on this checkout's
    edgelens, so modules the test session already loaded do not count."""
    src = Path(edgelens.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    ).stdout


def test_import_loads_neither_scipy_stats_nor_click():
    """scipy.stats alone doubles the import's time and memory, the library
    loads no scipy module before its first CSR product, and click is for
    the command line only."""
    code = "import sys, json, edgelens; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(fresh_python(code))
    for package in ("scipy", "click"):
        assert [m for m in loaded if m == package or m.startswith(package + ".")] == []


# Explanations, method and oracle reports, a fidelity curve and motif AUCs
# of two frozen-corpus graphs, which take the dense path; then the CSR path:
# a 205-node explanation and two epochs of training. `loaded` records, after
# each, the scipy modules loaded, and `numpy_ma` the numpy.ma modules loaded
# by the end.
DENSE_THEN_CSR = """
import sys
import edgelens as el
from edgelens.explain import explanation_to_json
from edgelens.models import model_to_json

ARCH = {"num_layers": 3, "hidden_dim": 32, "num_classes": 2}
corpus = el.gen_ba2motifs_mini(n_graphs=200, base_nodes=5, seed=7)[:2]
m = el.init_gcn(input_dim=10, num_layers=3, hidden_dim=32, num_classes=2, seed=3)
explanations = [el.explain(m, rec.graph) for rec in corpus]
out = {
    "explain": [explanation_to_json(e) for e in explanations],
    "methods": repr(el.compare_methods(m, corpus)),
    "oracle": repr(el.oracle_report(m, corpus)),
    "curve": repr(el.fidelity_curve(m, corpus, "ig", [0.0, 0.5, 0.9])),
    "auc": [el.edge_mask_auc(e.scores, rec.gt_edge_mask) for e, rec in zip(explanations, corpus)],
}
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
loaded = [scipy_modules()]
large = el.gen_ba2motifs_mini(n_graphs=1, base_nodes=200, seed=3)[0].graph
out["large"] = explanation_to_json(el.explain(m, large))
loaded.append(scipy_modules())
cfg = el.TrainConfig(epochs=2, seed=7)
out["model"] = model_to_json(el.train_gcn(corpus, ARCH, cfg).model)
loaded.append(scipy_modules())
numpy_ma = sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"])
"""


@pytest.fixture(scope="module")
def dense_then_csr():
    """DENSE_THEN_CSR's out, loaded and numpy_ma, run by a fresh
    interpreter."""
    code = DENSE_THEN_CSR + "import json\nprint(json.dumps([out, loaded, numpy_ma]))"
    return json.loads(fresh_python(code))


def test_dense_path_never_loads_scipy_sparse(dense_then_csr):
    """A process on the dense path loads no scipy module at all. The CSR
    path and the trainer load scipy's compiled CSR kernel and no other
    scipy module: neither scipy's package nor scipy.sparse. The outputs of
    both paths are byte-equal to the same calls in the test process, where
    scipy.sparse was loaded first."""
    import scipy.sparse  # noqa: F401

    here: dict = {}
    exec(DENSE_THEN_CSR, here)
    kernel = ["scipy.sparse._sparsetools"]
    assert dense_then_csr[:2] == [here["out"], [[], kernel, kernel]]


def test_library_never_loads_numpy_ma(dense_then_csr):
    """No library function imports numpy.ma, which np.unique does on numpy
    2.4 and which costs a process 1.1-1.5 MB of memory: not the dense or
    CSR passes, the reports, the fidelity curve, the motif AUC or the
    trainer."""
    assert dense_then_csr[2] == []


def test_scipy_sparse_reuses_the_loaded_kernel():
    """An `import scipy.sparse` after the first CSR product takes the
    kernel module edgelens loaded rather than a second copy, and scipy's
    own product then gives edgelens' bits."""
    code = """
import sys
import numpy as np
from edgelens import models
rows, cols = np.array([0, 0, 1]), np.array([0, 1, 1])
op = models.csr_operator(rows, cols, np.array([0.5, 0.25, 2.0]), (2, 2))
h = np.array([[1.0, 3.0], [0.1, 0.7]])
got = models.csr_matmul(op, h)
import scipy.sparse as sp
from scipy.sparse import _sparsetools
assert _sparsetools is sys.modules["scipy.sparse._sparsetools"] is models._sparsetools
want = sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape) @ h
print(np.array_equal(got, want))
"""
    assert fresh_python(code) == "True\n"


def test_missing_kernel_file_is_import_error(monkeypatch):
    """A scipy without the kernel's file raises ImportError naming scipy's
    version; nothing falls back to importing scipy.sparse."""
    kernel = "scipy.sparse._sparsetools"
    find_spec = importlib.machinery.PathFinder.find_spec

    def no_kernel(cls, name, path=None, target=None):
        return None if name == kernel else find_spec(name, path, target)

    monkeypatch.setattr(models, "_sparsetools", None)
    monkeypatch.delitem(sys.modules, kernel, raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(no_kernel))
    op = models.csr_operator(np.array([0]), np.array([0]), np.array([1.0]), (1, 1))
    version = re.escape(importlib.metadata.version("scipy"))
    with pytest.raises(ImportError, match=f"scipy {version} has no scipy.sparse._sparsetools"):
        models.csr_matmul(op, np.ones((1, 1)))
    assert kernel not in sys.modules


def test_readme_names_resolve():
    """Each backticked `models.name` (or explain., graphs., training.,
    evaluate., data.) in README.md resolves in edgelens, each backticked
    CamelCase name (`ModelSpec`, `DataFormatError`) in an edgelens module or
    in builtins, and each backticked `test_name` is a test defined under
    tests/."""
    readme = (ROOT / "README.md").read_text()
    dotted = set(
        re.findall(r"`(models|explain|graphs|training|evaluate|data)\.([A-Za-z_]\w*)", readme)
    )
    classes = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)\b", readme))
    tests = set(re.findall(r"`(test_\w+)", readme))
    assert dotted and classes and tests
    missing = [
        f"{module}.{name}"
        for module, name in sorted(dotted)
        if not hasattr(importlib.import_module(f"edgelens.{module}"), name)
    ]
    modules = [builtins, edgelens] + [
        importlib.import_module(f"edgelens.{module}")
        for module in ("models", "explain", "graphs", "training", "evaluate", "data", "errors")
    ]
    missing += [name for name in sorted(classes) if not any(hasattr(m, name) for m in modules)]
    defined = {
        node.name
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert missing == []
    assert sorted(tests - defined) == []
