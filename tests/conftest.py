import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from edgelens import Graph, forward, init_gcn, models
from edgelens.data import DatasetRecord
from edgelens.models import (
    Classifier,
    GINLayer,
    ModelSpec,
    csr_operator,
    csr_pattern,
    csr_values,
    subgraph_rows,
    weighted_adjacency,
)
from edgelens.training import _Batch


@pytest.fixture
def triangle():
    return Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    # a--b--c
    return Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2)])


@pytest.fixture
def path4():
    return Graph.undirected(np.ones((4, 2)), [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_model():
    return init_gcn(input_dim=2, num_layers=2, hidden_dim=4, num_classes=2, seed=1)


@pytest.fixture
def forward_dense_calls(monkeypatch):
    """The operator of each models.forward_dense call, one entry per pass,
    recorded by a wrapper on the module. The wrapper also checks that the
    model and the operator come first and positionally, as the benchmark's
    traced check takes them."""
    calls = []
    real = models.forward_dense

    def counted(*args, **kwargs):
        assert len(args) >= 2 and not {"m", "operator"} & kwargs.keys()
        assert isinstance(args[0], ModelSpec)
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "forward_dense", counted)
    return calls


def reweighted(g, edges, value):
    """Copy of g's (E,) edge weights with the given edges set to value."""
    w = g.edge_weight.copy()
    w[list(edges)] = value
    return w


def one_edge_drops(m, g, c):
    """p(G) - p(G with w_e = 0) of class c for each edge e, one pass each."""
    p = forward(m, g).probabilities[c]
    return np.array([
        p - forward(m, g, weights=reweighted(g, [e], 0.0)).probabilities[c]
        for e in range(g.num_undirected_edges)
    ])


def gin_model(seed, feature_dim, hidden, num_layers, num_classes=2, epsilon=0.25):
    """GIN with uniform(-0.3, 0.3) parameters, the given epsilon and mean
    pooling."""
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-0.3, 0.3, size=shape)
    dims = [feature_dim] + [hidden] * num_layers
    layers = tuple(
        GINLayer(w1=u(dims[i], hidden), b1=u(hidden), w2=u(hidden, dims[i + 1]),
                 b2=u(dims[i + 1]), epsilon=epsilon)
        for i in range(num_layers)
    )
    classifier = Classifier(w1=u(hidden, hidden), b1=u(hidden), w2=u(hidden, num_classes),
                            b2=u(num_classes))
    return ModelSpec("gin", layers, classifier, "mean", num_classes)


def overflowing(m):
    """m with every layer's weight matrices scaled by 1e200: its parameters
    are finite, but every pass overflows float64."""
    names = ("weight",) if m.conv_kind == "gcn" else ("w1", "w2")
    layers = tuple(
        dataclasses.replace(layer, **{k: getattr(layer, k) * 1e200 for k in names})
        for layer in m.layers
    )
    return dataclasses.replace(m, layers=layers)


def path_graph(num_edges, feature_dim):
    """Path 0 - 1 - ... - num_edges with all-ones features."""
    features = np.ones((num_edges + 1, feature_dim))
    return Graph.undirected(features, [(i, i + 1) for i in range(num_edges)])


def random_graph(rng, max_nodes=8, max_extra_edges=6, feature_dim=3):
    """Connected-ish random graph: spanning tree plus extra edges."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, max_extra_edges + 1))):
        u, v = rng.choice(n, size=2, replace=False)
        u, v = (int(u), int(v)) if u < v else (int(v), int(u))
        edges.add((u, v))
    features = rng.uniform(0, 1, size=(n, feature_dim))
    return Graph.undirected(features, sorted(edges))


def random_model(rng, feature_dim=3, num_layers=2, hidden_dim=4, num_classes=2):
    return init_gcn(
        input_dim=feature_dim,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        seed=int(rng.integers(0, 2**31)),
    )


def operator_rows(g, rng):
    """The weights and node masks of 31 forward_rows rows of g: all nodes
    at g's weights, then 10 re-weighted rows (some edges at 0), 10
    edge-induced rows and 10 node-induced rows at g's weights."""
    num_edges = g.num_undirected_edges
    reweighted_rows = rng.uniform(size=(10, num_edges))
    reweighted_rows[rng.uniform(size=reweighted_rows.shape) < 0.3] = 0.0
    kept = rng.uniform(size=(10, num_edges)) < np.linspace(0.05, 0.95, 10)[:, None]
    edge_weights, edge_nodes = subgraph_rows(g, kept)
    induced = rng.uniform(size=(10, g.n)) < np.linspace(0.2, 0.9, 10)[:, None]
    induced[:, 0] = True
    weights = np.concatenate(
        (g.edge_weight[None], reweighted_rows, edge_weights, np.repeat(g.edge_weight[None], 10, 0))
    )
    nodes = np.concatenate((np.ones((11, g.n), dtype=bool), edge_nodes, induced))
    return weights, nodes


def scipy_csr(op: models.CSR) -> sp.csr_matrix:
    """The scipy csr_matrix holding the arrays of a models.CSR, so tests
    can read it with scipy's own methods."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)


def assert_one_gcn_normalization(graphs, seed=0):
    """Every operator entry is bitwise the same however it is laid out.
    Each graph's D^-1/2 (A + I) D^-1/2 from csr_values, as a CSR operator,
    is the graph's block of the trainer's batch over all `graphs`. And for
    a GCN and a GIN, on the operator_rows of each graph, each row's dense
    weighted_adjacency stack is its CSR operator restricted to its kept
    nodes."""
    records = [DatasetRecord(g, 0, (0,) * g.num_undirected_edges, 0) for g in graphs]
    batch = scipy_csr(_Batch(records, init_gcn(graphs[0].d, 1, 1, 1)).norm).toarray()
    rng = np.random.default_rng(seed)
    offset = 0
    for g in graphs:
        pattern = csr_pattern(g.edge_u, g.edge_v, g.n, self_loops=True)
        values = csr_values(g, pattern, g.edge_weight[None], np.ones((1, g.n), bool), gcn=True)
        csr = scipy_csr(csr_operator(pattern[0], pattern[1], values[0], (g.n, g.n))).toarray()
        np.testing.assert_array_equal(batch[offset : offset + g.n, offset : offset + g.n], csr)
        offset += g.n
        weights, nodes = operator_rows(g, rng)
        sizes = nodes.sum(axis=1)
        for gcn in (True, False):
            pattern = csr_pattern(g.edge_u, g.edge_v, g.n, self_loops=gcn)
            values = csr_values(g, pattern, weights, nodes, gcn)
            for s in np.unique(sizes):
                group = np.flatnonzero(sizes == s)
                stacks = weighted_adjacency(g, pattern, weights[group], nodes[group], gcn)
                for dense, i in zip(stacks, group):
                    op = csr_operator(pattern[0], pattern[1], values[i], (g.n, g.n))
                    csr = scipy_csr(op).toarray()
                    np.testing.assert_array_equal(dense, csr[np.ix_(nodes[i], nodes[i])])
