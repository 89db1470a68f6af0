"""Property tests over random weighted graphs under a GCN and a GIN: a
weight vector with w[e] = 0 is bitwise the graph without edge e, and the
linear-gradient score of an edge is its one-forward-difference slope."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelens import Graph, forward, init_gcn, linear_gradient_scores

from conftest import gin_model

FEATURES = 3


def model(kind, seed):
    if kind == "gcn":
        return init_gcn(FEATURES, 2, 4, 2, seed=seed, init_scale=0.8)
    return gin_model(seed, FEATURES, hidden=4, num_layers=2)


weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def weighted_graphs(draw):
    """A graph of 2..7 nodes with at least one edge; some weights are 0."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    edges = [(u, v, draw(weight)) for u, v in chosen]
    features = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(size=(n, FEATURES))
    return Graph.undirected(features, edges)


cases = dict(
    g=weighted_graphs(),
    kind=st.sampled_from(["gcn", "gin"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_weight_zero_is_edge_deletion(g, kind, seed, data):
    m = model(kind, seed)
    e = data.draw(st.integers(0, g.num_undirected_edges - 1), label="edge")
    w = g.edge_weight.copy()
    w[e] = 0.0
    zeroed = forward(m, g, weights=w)
    keep = np.arange(g.num_undirected_edges) != e
    deleted = Graph(g.features, g.edge_u[keep], g.edge_v[keep], g.edge_weight[keep])
    expected = forward(m, deleted)
    np.testing.assert_array_equal(zeroed.logits, expected.logits)
    np.testing.assert_array_equal(zeroed.probabilities, expected.probabilities)


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_linear_gradient_is_one_edge_slope(g, kind, seed, data):
    m = model(kind, seed)
    c = data.draw(st.integers(0, 1), label="class")
    scores = linear_gradient_scores(m, g, c).values
    p = forward(m, g).probabilities[c]
    for e, w_e in enumerate(g.edge_weight):
        w = g.edge_weight.copy()
        w[e] = 0.0
        p_zero = forward(m, g, weights=w).probabilities[c]
        assert scores[e] == (0.0 if w_e == 0.0 else (p - p_zero) / (2 * w_e))
