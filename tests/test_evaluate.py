import json
import math
from dataclasses import asdict
from decimal import Decimal

import numpy as np
import pytest

from edgelens import (
    Graph,
    UndefinedMetricError,
    compare_methods,
    explain,
    export_dot,
    fidelity_curve,
    fidelity_minus,
    fidelity_plus,
    forward,
    oracle_report,
    rank_edges,
)
from edgelens.data import DatasetRecord
from edgelens import evaluate as evaluate_module
from edgelens.evaluate import format_table, write_report
from edgelens.explain import score_edges
from conftest import gin_model, path_graph, random_graph, random_model


@pytest.fixture
def mini_dataset():
    rng = np.random.default_rng(70)
    out = []
    for i in range(5):
        g = random_graph(rng, max_nodes=6, max_extra_edges=3, feature_dim=3)
        out.append(
            DatasetRecord(
                graph=g,
                label=i % 2,
                gt_edge_mask=tuple([1] + [0] * (g.num_undirected_edges - 1)),
                motif_count=0,
            )
        )
    return out


@pytest.fixture
def model():
    return random_model(np.random.default_rng(71), feature_dim=3)


class TestFidelityCurve:
    def test_endpoints_are_exact(self, model, mini_dataset):
        # level 0 keeps everything: fid- must be exactly 0; level 1 keeps
        # nothing: fid+ must be exactly 0
        pts = fidelity_curve(model, mini_dataset, "linear-gradient", [0.0, 1.0])
        assert pts[0].fidelity_minus == 0.0
        assert pts[1].fidelity_plus == 0.0

    def test_point_fields(self, model, mini_dataset):
        pts = fidelity_curve(model, mini_dataset, "linear-gradient", [0.5])
        (p,) = pts
        assert p.sparsity_level == 0.5
        assert p.n_instances == len(mini_dataset)
        assert p.overall == pytest.approx(p.fidelity_plus - p.fidelity_minus)

    def test_rejects_bad_level(self, model, mini_dataset):
        with pytest.raises(ValueError):
            fidelity_curve(model, mini_dataset, "linear-gradient", [1.5])

    @pytest.mark.parametrize("level", ["0.5", None, True])
    def test_rejects_non_numeric_level(self, model, mini_dataset, forward_dense_calls, level):
        with pytest.raises(ValueError, match="sparsity level .* outside"):
            fidelity_curve(model, mini_dataset, "linear-gradient", [0.5, level])
        assert forward_dense_calls == []

    def test_rejects_unknown_method(self, model, mini_dataset):
        with pytest.raises(ValueError):
            fidelity_curve(model, mini_dataset, "magic", [0.5])

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    def test_equals_per_level_fidelity_loop(self, model, mini_dataset, kind):
        # Reference: each level's prefix scored by fidelity_plus and
        # fidelity_minus, one graph at a time, summed in dataset order.
        if kind == "gin":
            model = gin_model(72, feature_dim=3, hidden=4, num_layers=2)
        levels = [0.0, 0.25, 0.5, 0.9, 1.0]
        rankings = []
        for rec in mini_dataset:
            g = rec.graph
            original = forward(model, g)
            c = original.predicted_class
            ranked = rank_edges(score_edges(model, g, c, "linear-gradient", original=original))
            rankings.append((g, c, original, ranked))
        n = len(rankings)
        expected = []
        for level in levels:
            fplus_sum = fminus_sum = 0.0
            for g, c, original, ranked in rankings:
                prefix = ranked[: math.ceil((1 - Decimal(str(level))) * g.num_undirected_edges)]
                fplus_sum += fidelity_plus(model, g, prefix, c, original=original)
                fminus_sum += fidelity_minus(model, g, prefix, c, original=original)
            expected.append(
                (level, fplus_sum / n, fminus_sum / n, (fplus_sum - fminus_sum) / n, n)
            )
        pts = fidelity_curve(model, mini_dataset, "linear-gradient", levels)
        got = [
            (p.sparsity_level, p.fidelity_plus, p.fidelity_minus, p.overall, p.n_instances)
            for p in pts
        ]
        assert got == expected

    def test_empty_dataset_is_undefined(self, model):
        with pytest.raises(UndefinedMetricError):
            fidelity_curve(model, [], "linear-gradient", [0.5])

    def test_prefix_sizes_follow_decimal_levels(self, model, monkeypatch):
        """Level 0.1 j keeps ceil((10 - j) E / 10) edges, computed in
        integers. Float arithmetic gives (1 - 0.7) * 10 = 3.0000000000000004
        and keeps 4 of 10 edges at the CLI's default level 0.7."""
        levels = [j / 10 for j in range(1, 10)]
        seen = []

        def recorded(m, g, ranked, sizes, target_class, original):
            seen.append((g.num_undirected_edges, list(sizes)))
            return drops(m, g, ranked, sizes, target_class, original)

        drops = evaluate_module._prefix_drops
        monkeypatch.setattr(evaluate_module, "_prefix_drops", recorded)
        records = [
            DatasetRecord(path_graph(e, 3), 0, (0,) * e, 0) for e in (10, 11, 25, 206)
        ]
        fidelity_curve(model, records, "linear-gradient", levels)
        assert seen == [
            (e, [-(-(10 - j) * e // 10) for j in range(1, 10)]) for e in (10, 11, 25, 206)
        ]
        assert seen[0][1][6] == 3


class TestCompareMethods:
    def test_single_method_matches_explain(self, model, mini_dataset):
        (summary,) = compare_methods(model, mini_dataset, ["linear-gradient"])
        expected = [explain(model, r.graph) for r in mini_dataset]
        assert summary.mean_overall == pytest.approx(
            np.mean([e.overall for e in expected])
        )
        assert summary.mean_sparsity == pytest.approx(
            np.mean([e.sparsity for e in expected])
        )
        assert summary.n_instances == len(mini_dataset)

    def test_all_methods_present(self, model, mini_dataset):
        summaries = compare_methods(model, mini_dataset)
        assert [s.method for s in summaries] == ["linear-gradient", "sa", "ig"]

    def test_empty_dataset_is_undefined(self, model):
        with pytest.raises(UndefinedMetricError):
            compare_methods(model, [])


class TestOracleReport:
    def test_gaps_nonnegative(self, model, mini_dataset):
        r = oracle_report(model, mini_dataset)
        assert r.n_evaluated == len(mini_dataset)
        assert all(gap >= -1e-12 for gap in r.gaps)
        assert r.max_gap >= r.mean_gap >= 0 or r.mean_gap == 0.0

    def test_cap_skips_big_graphs(self, model, mini_dataset):
        r = oracle_report(model, mini_dataset, cap=3)
        assert r.n_evaluated + r.n_skipped == len(mini_dataset)
        assert r.n_evaluated >= 1 and r.n_skipped >= 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_nothing_evaluated_is_undefined(self, model, mini_dataset, cap):
        with pytest.raises(UndefinedMetricError, match="nothing to evaluate"):
            oracle_report(model, mini_dataset, cap=cap)

    def test_empty_dataset_is_undefined(self, model):
        with pytest.raises(UndefinedMetricError):
            oracle_report(model, [])

    @pytest.mark.parametrize("cap", [2.5, True, "14", None])
    def test_non_integer_cap_rejected(self, model, mini_dataset, forward_dense_calls, cap):
        # "14" raised a bare TypeError, True read as a cap of 1 edge and 2.5
        # as one of 2.
        with pytest.raises(ValueError, match="cap must be an integer"):
            oracle_report(model, mini_dataset, cap=cap)
        assert forward_dense_calls == []

    def test_cap_below_one_runs_no_pass(self, model, forward_dense_calls):
        edgeless = DatasetRecord(Graph.undirected(np.ones((2, 3)), []), 0, (), 0)
        with pytest.raises(UndefinedMetricError, match="nothing to evaluate"):
            oracle_report(model, [edgeless], cap=0)
        assert forward_dense_calls == []


class TestDotExport:
    def test_chosen_edges_red(self, tmp_path, model):
        g = path_graph(3, 3)
        e = explain(model, g)
        path = tmp_path / "g.dot"
        export_dot(e, path)
        text = path.read_text()
        assert text.startswith("graph explanation {")
        assert text.count('color="red"') == e.chosen_k
        assert text.count('color="gray"') == g.num_undirected_edges - e.chosen_k


class TestFormatting:
    def test_table_layout(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
        text = format_table(rows)
        lines = text.strip().split("\n")
        assert lines[0].split() == ["a", "b"]
        assert lines[2].split() == ["1", "0.500000"]
        assert lines[3].split() == ["22", "0.250000"]

    def test_empty_table(self):
        assert format_table([]) == "(empty)\n"

    def test_write_report_round_trip(self, tmp_path, model, mini_dataset):
        pts = [asdict(p) for p in fidelity_curve(model, mini_dataset, "sa", [0.5])]
        comp = [asdict(s) for s in compare_methods(model, mini_dataset, ["sa"])]
        path = tmp_path / "r.json"
        write_report({"curves": pts, "comparison": comp}, path)
        back = json.loads(path.read_text())
        assert back["curves"] == pts
        assert back["comparison"] == comp
