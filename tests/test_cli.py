import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import edgelens
from edgelens import (
    Graph,
    gen_ba2motifs_mini,
    init_gcn,
    load_model,
    save_dataset,
    save_graph,
    save_model,
)
from edgelens.data import DatasetRecord
from edgelens.cli import main

from conftest import overflowing


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    records = gen_ba2motifs_mini(4, base_nodes=8, seed=80)
    dataset = tmp_path / "data.jsonl"
    save_dataset(records, dataset)
    graph = tmp_path / "graph.json"
    save_graph(records[0].graph, graph)
    model = tmp_path / "model.json"
    save_model(init_gcn(10, 2, 8, 2, seed=81), model)
    return {"dir": tmp_path, "dataset": dataset, "graph": graph, "model": model}


class TestExplainCommand:
    def test_writes_explanation_and_dot(self, runner, workspace):
        out = workspace["dir"] / "exp.json"
        dot = workspace["dir"] / "exp.dot"
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(workspace["model"]),
                "--graph", str(workspace["graph"]),
                "--out", str(out),
                "--dot", str(dot),
            ],
        )
        assert result.exit_code == 0, result.output
        obj = json.loads(out.read_text())
        assert obj["chosen_k"] >= 1
        assert "chosen_k=" in result.output
        assert dot.read_text().startswith("graph explanation {")

    def test_byte_reproducible(self, runner, workspace):
        outs = []
        for name in ("a.json", "b.json"):
            out = workspace["dir"] / name
            result = runner.invoke(
                main,
                [
                    "explain",
                    "--model", str(workspace["model"]),
                    "--graph", str(workspace["graph"]),
                    "--out", str(out),
                ],
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_explicit_class_and_method(self, runner, workspace):
        out = workspace["dir"] / "sa.json"
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(workspace["model"]),
                "--graph", str(workspace["graph"]),
                "--class", "1",
                "--method", "sa",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        obj = json.loads(out.read_text())
        assert obj["target_class"] == 1
        assert obj["method"] == "sa"

    def test_missing_file_is_usage_error(self, runner, workspace):
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(workspace["dir"] / "nope.json"),
                "--graph", str(workspace["graph"]),
                "--out", str(workspace["dir"] / "x.json"),
            ],
        )
        assert result.exit_code == 2

    def test_corrupt_model_is_data_error(self, runner, workspace):
        bad = workspace["dir"] / "bad_model.json"
        bad.write_text("{}")
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(bad),
                "--graph", str(workspace["graph"]),
                "--out", str(workspace["dir"] / "x.json"),
            ],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "patch",
        [[], {"version": True}, {"layers": [{}]}],
        ids=["array", "bool-version", "layer-without-arrays"],
    )
    def test_malformed_model_is_data_error(self, runner, workspace, patch):
        if isinstance(patch, dict):
            patch = {**json.loads(workspace["model"].read_text()), **patch}
        bad = workspace["dir"] / "bad_model.json"
        bad.write_text(json.dumps(patch))
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(bad),
                "--graph", str(workspace["graph"]),
                "--out", str(workspace["dir"] / "x.json"),
            ],
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output

    def test_malformed_graph_is_data_error(self, runner, workspace):
        """Exit 3 with one error line, not a traceback (exit 1)."""
        bad = workspace["dir"] / "bad_graph.json"
        bad.write_text(json.dumps({**json.loads(workspace["graph"].read_text()), "edges": 5}))
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(workspace["model"]),
                "--graph", str(bad),
                "--out", str(workspace["dir"] / "x.json"),
            ],
        )
        assert result.exit_code == 3, result.output
        assert result.output == "error: edges 5 is not a list\n"

    def test_feature_dim_mismatch_is_data_error(self, runner, workspace):
        """A 1-feature graph under a 10-input model: exit 3 with one error
        line."""
        graph = workspace["dir"] / "narrow_graph.json"
        save_graph(Graph.undirected(np.ones((3, 1)), [(0, 1), (1, 2)]), graph)
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(workspace["model"]),
                "--graph", str(graph),
                "--out", str(workspace["dir"] / "x.json"),
            ],
        )
        assert result.exit_code == 3, result.output
        assert result.output == "error: feature dim 1 != model input dim 10\n"

    def test_overflowing_model_is_numerical_failure(self, workspace):
        """Exit code 4, and the error line is all of stderr: no numpy
        warning reaches the user. A subprocess, so stderr is the real one
        and Python's default warning filters apply."""
        model = workspace["dir"] / "huge_model.json"
        save_model(overflowing(load_model(workspace["model"])), model)
        src = Path(edgelens.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable, "-c", "from edgelens.cli import main; main()",
                "explain",
                "--model", str(model),
                "--graph", str(workspace["graph"]),
                "--out", str(workspace["dir"] / "x.json"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 4, result.stderr
        assert result.stderr == "error: non-finite logits\n"

    @pytest.mark.parametrize("target, code", [("5", 3), ("-1", 3), ("two", 2)])
    def test_bad_class(self, runner, workspace, target, code):
        out = workspace["dir"] / "x.json"
        result = runner.invoke(
            main,
            [
                "explain",
                "--model", str(workspace["model"]),
                "--graph", str(workspace["graph"]),
                "--class", target,
                "--out", str(out),
            ],
        )
        assert result.exit_code == code, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()


class TestEvaluateCommand:
    def test_report_and_table(self, runner, workspace):
        out = workspace["dir"] / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--model", str(workspace["model"]),
                "--dataset", str(workspace["dataset"]),
                "--methods", "linear-gradient,sa",
                "--levels", "0.5,0.9",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        obj = json.loads(out.read_text())
        assert set(obj["curves"]) == {"linear-gradient", "sa"}
        assert len(obj["curves"]["sa"]) == 2
        assert [row["method"] for row in obj["comparison"]] == ["linear-gradient", "sa"]
        assert "mean_overall" in result.output

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--methods", "foo"),
            ("--methods", "sa,foo"),
            ("--levels", "x"),
            ("--levels", "1.5"),
            ("--levels", "0.5,nan"),
        ],
    )
    def test_bad_list_item_is_usage_error(self, runner, workspace, option, value):
        out = workspace["dir"] / "never.json"
        result = runner.invoke(
            main,
            ["evaluate", "--model", str(workspace["model"]),
             "--dataset", str(workspace["dataset"]), option, value, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert not out.exists()

    # Each exited 0: an empty list wrote empty curves or no comparison rows,
    # and a repeated method printed two identical comparison rows.
    @pytest.mark.parametrize(
        "option, value, problem",
        [
            ("--methods", ",", "empty"),
            ("--methods", " , ", "empty"),
            ("--levels", ",", "empty"),
            ("--methods", "sa,sa", "'sa' is given twice"),
            ("--methods", "sa,ig,sa", "'sa' is given twice"),
            ("--levels", "0.5,0.9,0.50", "0.5 is given twice"),
        ],
    )
    def test_empty_or_repeated_list_is_usage_error(
        self, runner, workspace, option, value, problem
    ):
        out = workspace["dir"] / "never.json"
        result = runner.invoke(
            main,
            ["evaluate", "--model", str(workspace["model"]),
             "--dataset", str(workspace["dataset"]), option, value, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert problem in result.output
        assert not out.exists()

    def test_empty_dataset_is_data_error(self, runner, workspace):
        dataset = workspace["dir"] / "empty.jsonl"
        dataset.write_text("")
        out = workspace["dir"] / "never.json"
        result = runner.invoke(
            main,
            ["evaluate", "--model", str(workspace["model"]),
             "--dataset", str(dataset), "--out", str(out)],
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output
        assert not out.exists()


class TestOracleCommand:
    def test_report(self, runner, workspace):
        out = workspace["dir"] / "oracle.json"
        result = runner.invoke(
            main,
            [
                "oracle",
                "--model", str(workspace["model"]),
                "--dataset", str(workspace["dataset"]),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        obj = json.loads(out.read_text())
        assert obj["n_evaluated"] + obj["n_skipped"] == 4
        assert "mean_gap=" in result.output

    def _oracle(self, runner, workspace, cap):
        out = workspace["dir"] / "oracle.json"
        result = runner.invoke(
            main,
            [
                "oracle",
                "--model", str(workspace["model"]),
                "--dataset", str(workspace["dataset"]),
                "--cap", cap,
                "--out", str(out),
            ],
        )
        return result, out

    @pytest.mark.parametrize("cap", ["-1", "0", "x"])
    def test_bad_cap_is_usage_error(self, runner, workspace, cap):
        result, out = self._oracle(runner, workspace, cap)
        assert result.exit_code == 2, result.output
        assert "--cap" in result.output
        assert not out.exists()

    def test_cap_below_every_graph_is_data_error(self, runner, workspace):
        # every workspace graph has more than 5 edges
        result, out = self._oracle(runner, workspace, "5")
        assert result.exit_code == 3, result.output
        assert "nothing to evaluate" in result.output
        assert not out.exists()


class TestGenDatasetCommand:
    def test_generates_and_prints_checksum(self, runner, tmp_path):
        out = tmp_path / "gen.jsonl"
        result = runner.invoke(
            main,
            ["gen-dataset", "--kind", "ba2motifs-mini", "--n", "6",
             "--seed", "3", "--base-nodes", "8", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("checksum=")
        assert len(out.read_text().strip().split("\n")) == 6

    def test_same_seed_same_bytes(self, runner, tmp_path):
        blobs = []
        for name in ("g1.jsonl", "g2.jsonl"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["gen-dataset", "--kind", "varsize", "--n", "4",
                 "--seed", "9", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "ba2motifs-mini", "--n", "2", "--base-nodes", "2"],
            ["--kind", "varsize", "--n", "2", "--base-nodes", "0"],
            ["--kind", "varsize", "--n", "-1"],
            ["--kind", "varsize", "--n", "0"],
            ["--kind", "varsize", "--n", "2", "--seed", "-1"],
        ],
    )
    def test_bad_argument_is_usage_error(self, runner, tmp_path, args):
        out = tmp_path / "never.jsonl"
        result = runner.invoke(main, ["gen-dataset", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_unknown_kind_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["gen-dataset", "--kind", "mystery", "--n", "2",
             "--out", str(tmp_path / "x.jsonl")],
        )
        assert result.exit_code == 2


class TestTrainCommand:
    def test_trains_and_saves(self, runner, workspace):
        out = workspace["dir"] / "trained.json"
        trace = workspace["dir"] / "trace.tsv"
        result = runner.invoke(
            main,
            [
                "train",
                "--dataset", str(workspace["dataset"]),
                "--layers", "2",
                "--hidden", "8",
                "--epochs", "3",
                "--lr", "0.05",
                "--seed", "1",
                "--out", str(out),
                "--trace", str(trace),
            ],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["version"] == 1
        assert len(trace.read_text().strip().split("\n")) == 3
        assert "accuracy=" in result.output

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--epochs", "0"),
            ("--lr", "-1"),
            ("--lr", "nan"),
            ("--momentum", "1.0"),
            ("--momentum", "-0.5"),
            ("--classes", "1"),
            ("--layers", "0"),
            ("--hidden", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, runner, workspace, option, value):
        out = workspace["dir"] / "never.json"
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workspace["dataset"]), option, value,
             "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert option in result.output or "must be" in result.output
        assert not out.exists()

    def test_divergence_is_numerical_failure(self, tmp_path):
        """Exit code 4, and the error line is all of stderr: no numpy
        warning from the diverging epochs reaches the user."""
        dataset = tmp_path / "corpus.jsonl"
        save_dataset(gen_ba2motifs_mini(4, base_nodes=5, seed=80), dataset)
        src = Path(edgelens.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable, "-c", "from edgelens.cli import main; main()",
                "train",
                "--dataset", str(dataset),
                "--lr", "1e300",
                "--out", str(tmp_path / "m.json"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 4, result.stderr
        assert result.stderr == (
            "error: training diverged (non-finite loss); try a smaller learning rate\n"
        )

    @pytest.mark.parametrize("problem", ["label", "feature-dims", "no-nodes"])
    def test_dataset_problem_is_data_error(self, runner, tmp_path, problem):
        g = Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2)])
        graphs, labels = [g, g], [0, 1]
        if problem == "label":
            labels = [0, 2]
        elif problem == "feature-dims":
            graphs = [g, Graph.undirected(np.ones((3, 4)), [(0, 1), (1, 2)])]
        dataset = tmp_path / "bad.jsonl"
        save_dataset(
            [
                DatasetRecord(graph=x, label=y, gt_edge_mask=(1, 0), motif_count=1)
                for x, y in zip(graphs, labels)
            ],
            dataset,
        )
        if problem == "no-nodes":
            line = json.loads(dataset.read_text().splitlines()[0])
            line["graph"].update(n=0, features=[], edges=[])
            line["gt_edge_mask"] = []
            dataset.write_text(json.dumps(line) + "\n")
        result = runner.invoke(
            main, ["train", "--dataset", str(dataset), "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output
