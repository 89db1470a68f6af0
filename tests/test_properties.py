"""Property tests over random weighted graphs under a GCN and a GIN: a
weight vector with w[e] = 0 is bitwise the graph without edge e, the
linear-gradient score of an edge is its one-forward-difference slope, an
explanation costs exactly 3|E| + 1 passes, the oracle never loses to the
search, tied edges rank by ascending index and tied prefixes resolve to the
smallest."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelens import (
    Graph,
    brute_force_best_subgraph,
    explain,
    fidelity_minus,
    fidelity_plus,
    forward,
    init_gcn,
    linear_gradient_scores,
)

from conftest import gin_model

FEATURES = 3


def model(kind, seed):
    if kind == "gcn":
        return init_gcn(FEATURES, 2, 4, 2, seed=seed, init_scale=0.8)
    return gin_model(seed, FEATURES, hidden=4, num_layers=2)


weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def weighted_graphs(draw, max_edges=21, plain=False):
    """A graph of 2..7 nodes with 1..max_edges edges; some weights are 0.
    A `plain` graph has 0/1 weights and all-ones features, so that exact
    ties between edges and between prefixes are common."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=min(max_edges, len(pairs)), unique=True)
    )
    if plain:
        edges = [(u, v, draw(st.sampled_from([0.0, 1.0]))) for u, v in chosen]
        return Graph.undirected(np.ones((n, FEATURES)), edges)
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


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_explain_uses_exactly_3e_plus_1_passes(g, kind, seed, data):
    m = model(kind, seed)
    target = data.draw(st.sampled_from(["auto", 0, 1]), label="class")
    e = explain(m, g, target_class=target)
    assert e.forward_passes_used == 3 * g.num_undirected_edges + 1


def with_ties(**kwargs):
    """Weighted graphs, some of them plain, where exact ties are common."""
    return st.one_of(weighted_graphs(**kwargs), weighted_graphs(**kwargs, plain=True))


@settings(max_examples=30, deadline=None)
@given(g=with_ties(max_edges=8), kind=cases["kind"], seed=cases["seed"])
def test_oracle_never_loses_to_search(g, kind, seed):
    m = model(kind, seed)
    e = explain(m, g, k_range="full")
    subset, best = brute_force_best_subgraph(m, g, e.target_class)
    assert best >= e.overall
    if best == e.overall:
        assert subset <= tuple(sorted(e.ranked_edges[: e.chosen_k]))


@settings(max_examples=40, deadline=None)
@given(**{**cases, "g": with_ties()})
def test_tied_edges_rank_by_ascending_index(g, kind, seed, data):
    m = model(kind, seed)
    e = explain(m, g, target_class=data.draw(st.integers(0, 1), label="class"))
    for a, b in zip(e.ranked_edges, e.ranked_edges[1:]):
        assert e.scores[a] > e.scores[b] or (e.scores[a] == e.scores[b] and a < b)


@settings(max_examples=40, deadline=None)
@given(**{**cases, "g": with_ties()})
def test_search_keeps_smallest_best_prefix(g, kind, seed, data):
    m = model(kind, seed)
    original = forward(m, g)
    e = explain(m, g, target_class=data.draw(st.integers(0, 1), label="class"))
    overall = []
    for k in range(1, g.num_undirected_edges + 1):
        prefix = e.ranked_edges[:k]
        fplus = fidelity_plus(m, g, prefix, e.target_class, original=original)
        overall.append(fplus - fidelity_minus(m, g, prefix, e.target_class, original=original))
    assert e.overall == max(overall)
    assert e.chosen_k == 1 + overall.index(e.overall)
