import math
import re
import tracemalloc

import numpy as np
import pytest

from edgelens import (
    DataFormatError,
    Graph,
    NumericalFailureError,
    TrainConfig,
    gen_ba2motifs_mini,
    init_gcn,
    train_gcn,
)
from edgelens.data import DatasetRecord
from edgelens.models import forward
from edgelens.training import _Batch, _batched_loss_and_grads

from conftest import gin_model, random_graph
from reference_training import _model_with_params, finite_difference_check


def tiny_dataset(seed=40, k=6, feature_dim=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        g = random_graph(rng, max_nodes=6, max_extra_edges=3, feature_dim=feature_dim)
        out.append(
            DatasetRecord(
                graph=g,
                label=i % 2,
                gt_edge_mask=tuple([1] + [0] * (g.num_undirected_edges - 1)),
                motif_count=0,
            )
        )
    return out


ARCH = {"num_layers": 2, "hidden_dim": 8, "num_classes": 2}


class TestModelWithParams:
    def test_rebuilds_a_gin_model(self):
        m = gin_model(8, 3, hidden=4, num_layers=2)
        back = _model_with_params(m, m.parameter_arrays())
        assert back.conv_kind == "gin"
        assert [layer.epsilon for layer in back.layers] == [0.25, 0.25]
        for (n1, a1), (n2, a2) in zip(
            m.parameter_arrays().items(), back.parameter_arrays().items()
        ):
            assert n1 == n2
            assert np.array_equal(a1, a2)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=lr)

    # Each of these gave a raw TypeError or OverflowError from inside
    # train_gcn, or (True) silently ran as 1.
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("epochs", 2.5, "epochs must be an integer"),
            ("epochs", True, "epochs must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("init_scale", float("nan"), "init_scale must be finite"),
            ("target_train_accuracy", float("nan"), "target_train_accuracy must be a real"),
            ("target_train_accuracy", -1.0, "target_train_accuracy must be a real"),
            ("target_train_accuracy", True, "target_train_accuracy must be a real"),
            ("target_train_accuracy", "x", "target_train_accuracy must be a real"),
        ],
    )
    def test_rejects_non_integer_counts_and_nan_scale(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0, 2.0, math.inf])
    def test_accepts_any_target_accuracy_from_zero_up(self, target):
        # Above 1 the early stop never fires: the benchmark and the parity
        # tests train a fixed epoch budget with math.inf.
        assert TrainConfig(target_train_accuracy=target).target_train_accuracy == target


class TestGradients:
    def test_finite_difference_agreement(self):
        # the acceptance-level check, small scale: analytic vs central
        # difference on a handful of random models and datasets
        for seed in range(3):
            ds = tiny_dataset(seed=50 + seed)
            m = init_gcn(3, 2, 4, 2, seed=seed)
            report = finite_difference_check(m, ds, h=1e-5, tol=1e-4)
            assert report.passed, report

    def test_gradient_of_loss_direction(self):
        # one small GD step along the analytic gradient must not increase
        # the loss (for a small enough step)
        ds = tiny_dataset(seed=41)
        m = init_gcn(3, 2, 4, 2, seed=2)
        loss0, _, grads = _batched_loss_and_grads(m, _Batch(ds, m))
        params = {k: v.copy() for k, v in m.parameter_arrays().items()}
        for k in params:
            params[k] -= 1e-3 * grads[k]
        stepped = _model_with_params(m, params)
        loss1, _, _ = _batched_loss_and_grads(stepped, _Batch(ds, stepped))
        assert loss1 < loss0

    def test_duplicating_dataset_leaves_mean_gradient_fixed(self):
        ds = tiny_dataset(seed=42, k=4)
        m = init_gcn(3, 2, 4, 2, seed=3)
        l1, a1, g1 = _batched_loss_and_grads(m, _Batch(ds, m))
        l2, a2, g2 = _batched_loss_and_grads(m, _Batch(ds + ds, m))
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert a1 == a2
        for k in g1:
            np.testing.assert_allclose(g1[k], g2[k], atol=1e-12)


class TestInit:
    def test_deterministic(self):
        a = init_gcn(3, 2, 4, 2, seed=9)
        b = init_gcn(3, 2, 4, 2, seed=9)
        for (_, x), (_, y) in zip(
            a.parameter_arrays().items(), b.parameter_arrays().items()
        ):
            assert np.array_equal(x, y)

    def test_seed_changes_params(self):
        a = init_gcn(3, 2, 4, 2, seed=9)
        b = init_gcn(3, 2, 4, 2, seed=10)
        assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)

    def test_bounds(self):
        m = init_gcn(3, 3, 16, 2, seed=1, init_scale=0.2)
        for _, arr in m.parameter_arrays().items():
            assert np.all(np.abs(arr) <= 0.2)

    @pytest.mark.parametrize("layers, hidden", [(0, 4), (-1, 4), (2, 0)])
    def test_rejects_empty_architecture(self, layers, hidden):
        with pytest.raises(ValueError, match="must be >= 1"):
            init_gcn(3, layers, hidden, 2)

    def test_biases_not_all_zero(self):
        m = init_gcn(3, 2, 4, 2, seed=0)
        assert np.any(m.layers[0].bias != 0)


class TestTrainGCN:
    def test_memorizes_tiny_dataset(self):
        ds = tiny_dataset(seed=43, k=4)
        cfg = TrainConfig(epochs=3000, learning_rate=0.2, momentum=0.9, seed=5)
        result = train_gcn(ds, ARCH, cfg)
        assert result.final_accuracy == 1.0
        for rec in ds:
            assert forward(result.model, rec.graph).predicted_class == rec.label

    def test_zero_learning_rate_keeps_params(self):
        ds = tiny_dataset(seed=44, k=4)
        cfg = TrainConfig(epochs=5, learning_rate=0.0, momentum=0.0, seed=6)
        result = train_gcn(ds, ARCH, cfg)
        init = init_gcn(3, ARCH["num_layers"], ARCH["hidden_dim"], 2, seed=6)
        for (_, x), (_, y) in zip(
            result.model.parameter_arrays().items(),
            init.parameter_arrays().items(),
        ):
            assert np.array_equal(x, y)
        losses = [t.loss for t in result.trace]
        assert losses == [losses[0]] * len(losses)

    def test_divergence_is_numerical_failure(self):
        ds = gen_ba2motifs_mini(4, base_nodes=5, seed=80)
        cfg = TrainConfig(epochs=5, learning_rate=1e300)
        with pytest.raises(NumericalFailureError, match="diverged"):
            train_gcn(ds, ARCH, cfg)

    def test_bitwise_deterministic(self):
        ds = tiny_dataset(seed=45, k=4)
        cfg = TrainConfig(epochs=50, learning_rate=0.1, momentum=0.9, seed=7)
        r1 = train_gcn(ds, ARCH, cfg)
        r2 = train_gcn(ds, ARCH, cfg)
        assert r1.trace == r2.trace
        for (_, x), (_, y) in zip(
            r1.model.parameter_arrays().items(), r2.model.parameter_arrays().items()
        ):
            assert np.array_equal(x, y)

    def test_early_stop_at_target(self):
        ds = tiny_dataset(seed=46, k=4)
        cfg = TrainConfig(
            epochs=5000, learning_rate=0.2, momentum=0.9, seed=8,
            target_train_accuracy=1.0,
        )
        result = train_gcn(ds, ARCH, cfg)
        assert result.trace[-1].accuracy >= 1.0
        assert all(t.accuracy < 1.0 for t in result.trace[:-1])

    def test_trace_file(self, tmp_path):
        ds = tiny_dataset(seed=47, k=2)
        result = train_gcn(ds, ARCH, TrainConfig(epochs=3, learning_rate=0.01, seed=9))
        path = tmp_path / "trace.tsv"
        result.write_trace(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(result.trace)
        epoch, loss, acc = lines[0].split("\t")
        assert int(epoch) == 0
        assert float(loss) == result.trace[0].loss

    def test_label_out_of_range(self):
        g = Graph.undirected(np.ones((2, 3)), [(0, 1)])
        ds = [DatasetRecord(graph=g, label=5, gt_edge_mask=(0,), motif_count=0)]
        with pytest.raises(ValueError):
            train_gcn(ds, ARCH, TrainConfig(epochs=1))

    def test_mixed_feature_dims_rejected(self):
        g1 = Graph.undirected(np.ones((2, 3)), [(0, 1)])
        g2 = Graph.undirected(np.ones((2, 4)), [(0, 1)])
        ds = [
            DatasetRecord(graph=g1, label=0, gt_edge_mask=(0,), motif_count=0),
            DatasetRecord(graph=g2, label=1, gt_edge_mask=(0,), motif_count=0),
        ]
        with pytest.raises(ValueError):
            train_gcn(ds, ARCH, TrainConfig(epochs=1))

    @pytest.mark.parametrize("key", ["num_layers", "hidden_dim"])
    def test_empty_architecture_rejected(self, key):
        # a raw IndexError for 0 layers, a constant model for 0 hidden units
        arch = {**ARCH, key: 0}
        with pytest.raises(ValueError, match="must be >= 1"):
            train_gcn(tiny_dataset(k=2), arch, TrainConfig(epochs=1))

    # 2.5 gave a raw TypeError from numpy at the first array of that size;
    # True ran as a 1-layer model.
    @pytest.mark.parametrize(
        "key, value",
        [("num_layers", 2.5), ("hidden_dim", 2.5), ("num_classes", 2.5), ("num_layers", True)],
    )
    def test_non_integer_architecture_rejected(self, key, value):
        arch = {**ARCH, key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            train_gcn(tiny_dataset(k=2), arch, TrainConfig(epochs=1))

    # A misspelt "pooling" trained a mean-pooled model without a word, and a
    # missing key raised a raw KeyError.
    @pytest.mark.parametrize(
        "arch, named",
        [
            ({**ARCH, "poolng": "sum"}, "unknown ['poolng']"),
            ({**ARCH, "layers": 2}, "unknown ['layers']"),
            ({"num_layers": 1, "hidden_dim": 4}, "missing ['num_classes']"),
            ({"num_classes": 2}, "missing ['num_layers', 'hidden_dim']"),
            ({}, "missing ['num_layers', 'hidden_dim', 'num_classes']"),
        ],
    )
    def test_unknown_or_missing_arch_keys_rejected(self, arch, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            train_gcn(tiny_dataset(k=2), arch, TrainConfig(epochs=1))

    def test_arch_checked_before_the_dataset(self):
        with pytest.raises(ValueError, match="arch keys") as info:
            train_gcn([], {**ARCH, "poolng": "sum"}, TrainConfig(epochs=1))
        assert not isinstance(info.value, DataFormatError)

    def test_pooling_is_optional(self):
        arch = {"num_layers": 1, "hidden_dim": 4, "num_classes": 2}
        for pooling in ("mean", "sum"):
            model = train_gcn(tiny_dataset(k=2), {**arch, "pooling": pooling},
                              TrainConfig(epochs=1)).model
            assert model.pooling == pooling
        assert train_gcn(tiny_dataset(k=2), arch, TrainConfig(epochs=1)).model.pooling == "mean"

    def test_dataset_problems_are_data_errors(self):
        g = Graph.undirected(np.ones((2, 3)), [(0, 1)])
        g4 = Graph.undirected(np.ones((2, 4)), [(0, 1)])
        empty = Graph.undirected(np.zeros((0, 3)), [])
        record = lambda graph, label: DatasetRecord(
            graph=graph, label=label, gt_edge_mask=(0,) * graph.num_undirected_edges,
            motif_count=0,
        )
        # Each dataset is built inside pytest.raises: a record rejects a
        # label that is not an integer >= 0 when it is made, and the
        # trainer rejects the rest.
        for make in (
            lambda: [],
            lambda: [record(g, 2)],
            lambda: [record(g, -1)],
            lambda: [record(g, 1.0)],
            lambda: [record(g, 0.5)],
            lambda: [record(g, True)],
            lambda: [record(g, 0), record(g4, 1)],
            lambda: [record(g, 0), record(empty, 1)],
        ):
            with pytest.raises(DataFormatError):
                train_gcn(make(), ARCH, TrainConfig(epochs=1))

    def test_epoch_working_set(self):
        """The traced peak of training stays near what an epoch must hold:
        a message array per layer, whose weight gradient reads it, one node
        buffer for the activation and then the gradient at hand, and a
        boolean ReLU mask per layer, each n_total x hidden. The slack, the
        size of two more float node arrays, covers the operators, the
        features and the per-layer products. An array of its own for each
        activation and each gradient, eleven node arrays here, would peak
        at 1.9 times this bound."""
        corpus = gen_ba2motifs_mini(n_graphs=200, base_nodes=5, seed=7)
        arch = {"num_layers": 3, "hidden_dim": 32, "num_classes": 2}
        cfg = TrainConfig(epochs=3, seed=7, target_train_accuracy=math.inf)
        train_gcn(corpus, arch, cfg)  # loads the CSR kernel untraced
        tracemalloc.start()
        try:
            train_gcn(corpus, arch, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        node_array = sum(rec.graph.n for rec in corpus) * arch["hidden_dim"]
        layers = arch["num_layers"]
        bound = 8 * node_array * (layers + 1) + node_array * layers + 8 * node_array * 2
        assert peak < bound, (peak, bound)
