import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from edgelens import (
    DataFormatError,
    Graph,
    InducedSubgraph,
    InvalidSelectionError,
    ModelFormatError,
    ModelSpec,
    fidelity_minus,
    fidelity_plus,
    forward,
    forward_on_induced,
    induce_by_edges,
    init_gcn,
    load_model,
    save_model,
)
from edgelens.models import (
    Classifier,
    GCNLayer,
    GINLayer,
    csr_pattern,
    model_from_json,
    model_to_json,
    subgraph_rows,
)

from conftest import gin_model, random_graph, random_model, reweighted


def identity_gcn():
    """1-layer GCN with identity weights everywhere; d = hidden = classes = 2."""
    eye = np.eye(2)
    zero = np.zeros(2)
    return ModelSpec(
        conv_kind="gcn",
        layers=(GCNLayer(weight=eye.copy(), bias=zero.copy()),),
        classifier=Classifier(w1=eye.copy(), b1=zero.copy(), w2=eye.copy(), b2=zero.copy()),
        pooling="mean",
        num_classes=2,
    )


def manual_path3_probs(weights=(1.0, 1.0)):
    """Independent spreadsheet-style forward for the identity GCN on the
    path a--b--c with unit features: pure-python arithmetic only."""
    w_ab, w_bc = weights
    a = [[0.0, w_ab, 0.0], [w_ab, 0.0, w_bc], [0.0, w_bc, 0.0]]
    for i in range(3):
        a[i][i] += 1.0
    deg = [sum(row) for row in a]
    norm = [
        [a[i][j] / math.sqrt(deg[i]) / math.sqrt(deg[j]) for j in range(3)]
        for i in range(3)
    ]
    # X is all ones and every weight matrix is the identity, so each node's
    # embedding is its row sum of norm, duplicated across both channels.
    row_sums = [sum(norm[i]) for i in range(3)]
    pooled = sum(row_sums) / 3.0
    h = max(pooled, 0.0)
    logits = [h, h]
    shift = max(logits)
    exps = [math.exp(x - shift) for x in logits]
    total = sum(exps)
    return [e / total for e in exps], pooled


class TestForwardGCN:
    def test_matches_manual_path_oracle(self, path3):
        model = identity_gcn()
        pred = forward(model, path3)
        expected, pooled = manual_path3_probs()
        np.testing.assert_allclose(pred.probabilities, expected, atol=1e-12)
        np.testing.assert_allclose(pred.logits, [pooled, pooled], atol=1e-12)

    def test_zero_weights_equal_edgeless(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_graph(rng)
            m = random_model(rng)
            zeroed = forward(m, g, weights=np.zeros(g.num_undirected_edges))
            edgeless = Graph.undirected(g.features, [])
            bare = forward(m, edgeless)
            np.testing.assert_array_equal(zeroed.probabilities, bare.probabilities)

    def test_single_node_pooling(self):
        g = Graph.undirected(np.array([[0.3, 0.7]]), [])
        m = identity_gcn()
        pred = forward(m, g)
        # self-loop only: node embedding is its own features
        np.testing.assert_allclose(pred.logits, [0.3, 0.7], atol=1e-12)

    def test_weight_zero_is_bitwise_edge_deletion(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_graph(rng)
            m = random_model(rng)
            victim = int(rng.integers(0, g.num_undirected_edges))
            with_zero = forward(m, g, weights=reweighted(g, [victim], 0.0))
            kept = [
                (u, v, w)
                for i in range(g.num_undirected_edges)
                for (u, v, w) in [
                    (*g.undirected_endpoints(i), g.undirected_weight(i))
                ]
                if i != victim
            ]
            deleted = forward(m, Graph.undirected(g.features, kept))
            assert np.array_equal(with_zero.logits, deleted.logits)
            assert np.array_equal(with_zero.probabilities, deleted.probabilities)


class TestForwardGIN:
    def gin_model(self, rng):
        h = 4
        u = lambda *s: rng.uniform(-0.5, 0.5, size=s)
        layers = (
            GINLayer(w1=u(3, h), b1=u(h), w2=u(h, h), b2=u(h), epsilon=0.1),
            GINLayer(w1=u(h, h), b1=u(h), w2=u(h, h), b2=u(h), epsilon=0.0),
        )
        cls = Classifier(w1=u(h, h), b1=u(h), w2=u(h, 2), b2=u(2))
        return ModelSpec(
            conv_kind="gin", layers=layers, classifier=cls, pooling="sum", num_classes=2
        )

    def test_matches_manual_aggregation(self, path3):
        rng = np.random.default_rng(12)
        g = Graph.undirected(rng.uniform(0, 1, (3, 3)), [(0, 1), (1, 2)])
        m = self.gin_model(rng)
        pred = forward(m, g)
        # manual recomputation with explicit neighbor sums
        h = g.features
        for layer in m.layers:
            agg = np.zeros_like(h)
            for i in range(g.num_undirected_edges):
                u, v = g.undirected_endpoints(i)
                w = g.undirected_weight(i)
                agg[u] += w * h[v]
                agg[v] += w * h[u]
            z = (1 + layer.epsilon) * h + agg
            h = np.maximum(z @ layer.w1 + layer.b1, 0) @ layer.w2 + layer.b2
        pooled = h.sum(axis=0)
        hidden = np.maximum(pooled @ m.classifier.w1 + m.classifier.b1, 0)
        logits = hidden @ m.classifier.w2 + m.classifier.b2
        np.testing.assert_allclose(pred.logits, logits, atol=1e-12)


class TestForwardProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(rng)
            m = random_model(rng)
            perm = rng.permutation(g.n)
            remapped = [
                (int(perm[u]), int(perm[v]), w)
                for i in range(g.num_undirected_edges)
                for (u, v, w) in [
                    (*g.undirected_endpoints(i), g.undirected_weight(i))
                ]
            ]
            feats = np.empty_like(g.features)
            feats[perm] = g.features
            shuffled = Graph.undirected(feats, remapped)
            np.testing.assert_allclose(
                forward(m, g).probabilities,
                forward(m, shuffled).probabilities,
                atol=1e-9,
            )

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()])
    def test_wrong_shape_weights_rejected(self, path3, small_model, shape):
        with pytest.raises(DataFormatError, match="weights of shape"):
            forward(small_model, path3, weights=np.zeros(shape))

    def test_feature_dim_mismatch_is_data_error(self, path3):
        """A graph whose feature dimension is not the model's input
        dimension is bad data, not a numerical failure."""
        m = init_gcn(input_dim=3, num_layers=1, hidden_dim=2, num_classes=2, seed=1)
        with pytest.raises(DataFormatError, match="feature dim 2 != model input dim 3"):
            forward(m, path3)

    def test_weights_leave_graph_untouched(self, path3, small_model):
        before = path3.edge_weight.copy()
        w = np.array([0.0, 0.5])
        forward(small_model, path3, weights=w)
        np.testing.assert_array_equal(path3.edge_weight, before)
        np.testing.assert_array_equal(w, [0.0, 0.5])

    def test_weight_continuity(self, path3, small_model):
        base = forward(small_model, path3).logits
        for delta in (1e-3, 1e-4, 1e-5):
            moved = forward(small_model, path3, weights=reweighted(path3, [0], 1.0 - delta)).logits
            assert np.all(np.isfinite(moved))
            assert np.max(np.abs(moved - base)) < 10 * delta

    def test_softmax_shift_stability(self, path3, small_model):
        m = small_model
        pred = forward(m, path3)
        shifted_cls = Classifier(
            w1=m.classifier.w1,
            b1=m.classifier.b1,
            w2=m.classifier.w2,
            b2=m.classifier.b2 + 7.5,
        )
        m2 = ModelSpec(
            conv_kind=m.conv_kind,
            layers=m.layers,
            classifier=shifted_cls,
            pooling=m.pooling,
            num_classes=m.num_classes,
        )
        np.testing.assert_allclose(
            forward(m2, path3).probabilities, pred.probabilities, atol=1e-12
        )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            pred = forward(random_model(rng), random_graph(rng))
            assert abs(pred.probabilities.sum() - 1.0) < 1e-9
            assert np.all(pred.probabilities >= 0)


class TestForwardOnInduced:
    def test_full_graph_matches_forward(self, triangle, small_model):
        s = induce_by_edges(triangle, {0, 1, 2})
        a = forward_on_induced(small_model, s)
        b = forward(small_model, triangle)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_single_edge_matches_two_node_graph(self, path3, small_model):
        s = induce_by_edges(path3, {0})
        a = forward_on_induced(small_model, s)
        two = Graph.undirected(path3.features[:2], [(0, 1)])
        b = forward(small_model, two)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_empty_isolated_nodes_policy(self, path3, small_model):
        s = induce_by_edges(path3, set())
        a = forward_on_induced(small_model, s)
        zeroed = forward(small_model, path3, weights=np.zeros(2))
        np.testing.assert_array_equal(a.probabilities, zeroed.probabilities)

    @pytest.mark.parametrize("node", [-1, 9, 1.5, True])
    def test_rejects_bad_node_ids(self, path4, small_model, forward_dense_calls, node):
        """A node id that is not an integer in [0, n) raises the typed error
        that a bad edge index raises, before any pass: -1 does not wrap
        around to node 3, and 9 and 1.5 give no raw IndexError."""
        with pytest.raises(InvalidSelectionError, match="node ids"):
            forward_on_induced(small_model, InducedSubgraph(path4, (node,), ()))
        assert forward_dense_calls == []


@pytest.mark.parametrize("self_loops", [False, True])
def test_csr_pattern_is_in_lexsort_order(self_loops):
    """csr_pattern sorts its entries by a packed key; pinned to the order of
    np.lexsort by row and then column, entry for entry and source for
    source, on random graphs with their edges in random order, and on
    edgeless graphs of one and of four nodes."""
    rng = np.random.default_rng(60)
    graphs = [Graph(np.ones((1, 1)), [], [], []), Graph(np.ones((4, 1)), [], [], [])]
    for _ in range(20):
        g = random_graph(rng, max_nodes=12, max_extra_edges=10)
        order = rng.permutation(g.num_undirected_edges)
        graphs.append(Graph(g.features, g.edge_u[order], g.edge_v[order], g.edge_weight[order]))
    for g in graphs:
        loops = np.arange(g.n if self_loops else 0)
        edges = np.arange(g.num_undirected_edges)
        rows = np.concatenate((g.edge_u, g.edge_v, loops))
        cols = np.concatenate((g.edge_v, g.edge_u, loops))
        source = np.concatenate((edges, edges, np.full(len(loops), len(edges))))
        want = np.lexsort((cols, rows))
        got = csr_pattern(g.edge_u, g.edge_v, g.n, self_loops)
        for have, expected in zip(got, (rows[want], cols[want], source[want])):
            np.testing.assert_array_equal(have, expected)


def endpoint_union(g, kept_row):
    """Reference node mask of one subgraph_rows row: the endpoints of the
    kept edges, or every node when no edge is kept."""
    nodes = np.zeros(g.n, dtype=bool)
    for e in np.flatnonzero(kept_row):
        nodes[list(g.undirected_endpoints(e))] = True
    return nodes if nodes.any() else np.ones(g.n, dtype=bool)


class TestSubgraphRows:
    def assert_matches_reference(self, g, kept):
        weights, nodes = subgraph_rows(g, kept)
        np.testing.assert_array_equal(weights, np.where(kept, g.edge_weight, 0.0))
        np.testing.assert_array_equal(nodes, [endpoint_union(g, row) for row in kept])

    def test_random_rows_are_the_endpoint_union(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            g = random_graph(rng, max_nodes=12, max_extra_edges=10)
            num_edges = g.num_undirected_edges
            kept = rng.uniform(size=(30, num_edges)) < rng.uniform(size=(30, 1))
            kept[0], kept[1] = False, True
            self.assert_matches_reference(g, kept)

    def test_weights_are_bitwise_the_where_form(self):
        """The weights are kept * edge_weight, with the bits of
        np.where(kept, edge_weight, 0.0) on random weights, zeros among
        them, some given as -0.0."""
        rng = np.random.default_rng(82)
        for _ in range(20):
            g = random_graph(rng, max_nodes=12, max_extra_edges=10)
            num_edges = g.num_undirected_edges
            w = rng.uniform(size=num_edges)
            w[rng.uniform(size=num_edges) < 0.2] = 1.0
            w[rng.uniform(size=num_edges) < 0.2] = 0.0
            w[rng.uniform(size=num_edges) < 0.2] = -0.0
            g = Graph(g.features, g.edge_u, g.edge_v, w)
            kept = rng.uniform(size=(30, num_edges)) < rng.uniform(size=(30, 1))
            weights, _ = subgraph_rows(g, kept)
            assert weights.tobytes() == np.where(kept, g.edge_weight, 0.0).tobytes()

    def test_isolated_node_is_kept_only_in_an_empty_row(self):
        # Node 4 has no edge; nodes 1 and 2 have three and two.
        g = Graph.undirected(np.ones((5, 2)), [(0, 1), (1, 2), (2, 3), (1, 3)])
        kept = np.array([[False] * 4, [True] * 4, [False, True, False, False],
                         [True, False, False, True]])
        self.assert_matches_reference(g, kept)
        _, nodes = subgraph_rows(g, kept)
        assert nodes[:, 4].tolist() == [True, False, False, False]

    def test_edgeless_graph_keeps_every_node(self, monkeypatch):
        """fidelity_plus and fidelity_minus of an edgeless graph evaluate
        rows of no edge columns: each keeps every node, isolated, as the
        original pass does, so both drops are exactly 0."""
        g = Graph.undirected(np.arange(6.0).reshape(3, 2), [])
        m = random_model(np.random.default_rng(81), feature_dim=2)
        explain_module = sys.modules["edgelens.explain"]
        rows = []

        def recorded(g, kept):
            out = subgraph_rows(g, kept)
            rows.append((kept.shape, out[1].tolist()))
            return out

        monkeypatch.setattr(explain_module, "subgraph_rows", recorded)
        assert fidelity_plus(m, g, [], 0) == 0.0
        assert fidelity_minus(m, g, [], 0) == 0.0
        assert rows == [((1, 0), [[True] * 3])] * 2


class TestModelIO:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(15)
        m = random_model(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameters_recovered_exactly(self):
        m = init_gcn(3, 2, 4, 2, seed=3)
        back = model_from_json(model_to_json(m))
        for (n1, a1), (n2, a2) in zip(
            m.parameter_arrays().items(), back.parameter_arrays().items()
        ):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_gin_kind_preserved(self):
        rng = np.random.default_rng(16)
        m = TestForwardGIN().gin_model(rng)
        back = model_from_json(model_to_json(m))
        assert back.conv_kind == "gin"
        assert back.layers[0].epsilon == 0.1

    def test_hand_written_minimal_file(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        zero = [0.0, 0.0]
        text = (
            '{"version":1,"conv_kind":"gcn","pooling":"mean","num_classes":2,'
            '"layers":[{"weight":%s,"bias":%s}],'
            '"classifier":{"w1":%s,"b1":%s,"w2":%s,"b2":%s}}'
            % tuple(
                str(x).replace("'", '"')
                for x in (eye, zero, eye, zero, eye, zero)
            )
        )
        m = model_from_json(text)
        pred = forward(m, Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2)]))
        expected, _ = manual_path3_probs()
        np.testing.assert_allclose(pred.probabilities, expected, atol=1e-12)

    def test_json_text_round_trips(self):
        for m in (init_gcn(3, 2, 4, 2, seed=3), gin_model(5, 3, hidden=4, num_layers=2)):
            text = model_to_json(m)
            assert model_to_json(model_from_json(text)) == text

    def test_bad_version_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_json('{"version":99}')

    @pytest.mark.parametrize(
        "patch",
        [
            {"version": True},
            {"version": 1.0},
            {"layers": [{}]},
            {"layers": [{"weight": [[1.0, 0.0]]}]},
            {"layers": [[1.0]]},
            {"layers": []},
            {"layers": {}},
            {"layers": [{"weight": "x", "bias": [0.0]}]},
            {"layers": [{"weight": [1.0, 0.0], "bias": [0.0, 0.0]}]},
            {"layers": [{"weight": [[1.0, 0.0], [0.0, 1.0]], "bias": ["0.5", True]}]},
            {"layers": [{"weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.5, True]}]},
            {"layers": [{"weight": [["1", 0.0], [0.0, 1.0]], "bias": [0.5, 0.0]}]},
            {"classifier": {}},
            {"classifier": None},
            {"num_classes": 2.0},
            {"num_classes": True},
            {"conv_kind": "mlp"},
            {"conv_kind": ["gcn"]},
        ],
        ids=lambda p: json.dumps(p),
    )
    def test_malformed_model_is_typed_error(self, patch):
        obj = json.loads(model_to_json(init_gcn(2, 1, 2, 2, seed=3)))
        obj.update(patch)
        with pytest.raises(ModelFormatError):
            model_from_json(json.dumps(obj))

    def test_zero_classes_rejected(self):
        obj = json.loads(model_to_json(init_gcn(2, 1, 2, 2, seed=3)))
        obj["num_classes"] = 0
        obj["classifier"].update(w2=[[], []], b2=[])
        with pytest.raises(ModelFormatError, match="num_classes"):
            model_from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["[]", "1", '"model"', "null"])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(ModelFormatError, match="not a JSON object"):
            model_from_json(text)

    # NaN was read back and failed only at the first pass, as a numerical
    # failure.
    @pytest.mark.parametrize("eps", [[None, 0.0], ["0.1", 0.0], [0.0], 0.1, [math.nan, 0.0]])
    def test_bad_gin_epsilons_rejected(self, eps):
        obj = json.loads(model_to_json(gin_model(4, 2, hidden=2, num_layers=2)))
        obj["epsilons"] = eps
        with pytest.raises(ModelFormatError, match="epsilons"):
            model_from_json(json.dumps(obj))

    # Each was accepted and written as a file the reader rejects or as the
    # token NaN, or raised a bare TypeError or an error naming another field.
    @pytest.mark.parametrize("num_classes", [2.0, True, 0, "2", None])
    def test_num_classes_rejected_in_memory(self, num_classes):
        with pytest.raises(ModelFormatError, match="^num_classes"):
            dataclasses.replace(identity_gcn(), num_classes=num_classes)

    @pytest.mark.parametrize(
        "epsilon",
        [math.nan, math.inf, -math.inf, True, "0.1", None, pytest.param(10**400, id="10**400")],
    )
    def test_gin_epsilon_rejected_in_memory(self, epsilon):
        layer = gin_model(4, 2, hidden=2, num_layers=1).layers[0]
        with pytest.raises(ModelFormatError, match="^GIN epsilons"):
            dataclasses.replace(layer, epsilon=epsilon)

    def test_numeric_fields_stored_as_python_scalars(self):
        m = gin_model(4, 2, hidden=2, num_layers=2, num_classes=np.int64(2),
                      epsilon=np.float32(0.5))
        assert type(m.num_classes) is int
        assert [type(layer.epsilon) for layer in m.layers] == [float, float]
        assert m.layers[0].epsilon == 0.5
        assert type(dataclasses.replace(m.layers[0], epsilon=1).epsilon) is float

    def test_dimension_chain_validated(self):
        with pytest.raises(ModelFormatError):
            ModelSpec(
                conv_kind="gcn",
                layers=(GCNLayer(weight=np.ones((2, 3)), bias=np.zeros(3)),),
                classifier=Classifier(
                    w1=np.ones((4, 4)),
                    b1=np.zeros(4),
                    w2=np.ones((4, 2)),
                    b2=np.zeros(2),
                ),
                pooling="mean",
                num_classes=2,
            )

    @pytest.mark.parametrize(
        "kind, layers_of, match",
        [("gcn", "gin", "layer 0"), ("gin", "gcn", "layer 0"), ("gcn", None, "no layers")],
        ids=["gcn-spec-gin-layer", "gin-spec-gcn-layer", "no-layers"],
    )
    def test_malformed_layers_rejected(self, kind, layers_of, match):
        models = {"gcn": init_gcn(3, 1, 3, 2, seed=4), "gin": gin_model(4, 3, 3, 1)}
        layers = models[layers_of].layers if layers_of else ()
        with pytest.raises(ModelFormatError, match=match):
            ModelSpec(kind, layers, models[kind].classifier, "mean", 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ModelFormatError):
            ModelSpec(
                conv_kind="gcn",
                layers=(
                    GCNLayer(weight=np.array([[np.inf, 0.0]]), bias=np.zeros(2)),
                ),
                classifier=Classifier(
                    w1=np.ones((2, 2)),
                    b1=np.zeros(2),
                    w2=np.ones((2, 2)),
                    b2=np.zeros(2),
                ),
                pooling="mean",
                num_classes=2,
            )
