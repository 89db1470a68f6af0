"""The edge-array engine against the loop-built reference in
reference_engine.py: every probability, score and fidelity must be bitwise
equal, on BA-2Motifs graphs of about 25 and 205 nodes, under a GCN and a GIN."""

import numpy as np
import pytest

from edgelens import (
    Graph,
    brute_force_best_subgraph,
    explain,
    fidelity_minus,
    fidelity_plus,
    forward,
    gen_ba2motifs_mini,
    init_gcn,
    linear_gradient_scores,
)

from conftest import gin_model, reweighted
from reference_engine import (
    loop_adjacency,
    loop_brute_force,
    loop_fidelities,
    loop_probabilities,
    loop_scores,
)

FEATURES = 10


MODELS = {
    "gcn": lambda: init_gcn(FEATURES, 3, 32, 2, seed=21, init_scale=0.3),
    "gin": lambda: gin_model(22, FEATURES, hidden=32, num_layers=3),
}


def ba_graph(base_nodes, seed, weighted):
    """One house-motif BA-2Motifs graph; `weighted` draws edge weights and
    features so that the normalization sees more than 0/1 entries."""
    g = gen_ba2motifs_mini(1, base_nodes=base_nodes, seed=seed)[0].graph
    if not weighted:
        return g
    rng = np.random.default_rng(seed)
    edges = [
        (*g.undirected_endpoints(i), float(rng.uniform(0.05, 1.0)))
        for i in range(g.num_undirected_edges)
    ]
    return Graph.undirected(rng.uniform(0.0, 1.0, size=(g.n, FEATURES)), edges)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize(
    "base_nodes, weighted", [(20, False), (20, True), (200, False)], ids=["n25", "n25w", "n205"]
)
def test_every_prefix_matches_reference(kind, base_nodes, weighted):
    m = MODELS[kind]()
    g = ba_graph(base_nodes, seed=base_nodes + 1, weighted=weighted)
    num_edges = g.num_undirected_edges
    original = forward(m, g)
    np.testing.assert_array_equal(
        original.probabilities, loop_probabilities(m, loop_adjacency(g), g.features)
    )
    c = original.predicted_class
    scores = linear_gradient_scores(m, g, c, original=original).values
    if not weighted:
        np.testing.assert_array_equal(scores, loop_scores(m, g, c))
    ranked = [int(i) for i in np.argsort(-scores, kind="stable")]
    # k = 0 and k = |E| give the empty and the full mask on both sides.
    for k in range(num_edges + 1):
        prefix = ranked[:k]
        got = (
            fidelity_plus(m, g, prefix, c, original=original),
            fidelity_minus(m, g, prefix, c, original=original),
        )
        assert got == loop_fidelities(m, g, prefix, c), k
    e = explain(m, g, target_class=c)
    assert e.forward_passes_used == 3 * num_edges + 1
    fplus, fminus = loop_fidelities(m, g, e.ranked_edges[: e.chosen_k], c)
    assert (e.fidelity_plus, e.fidelity_minus, e.overall) == (fplus, fminus, fplus - fminus)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_brute_force_matches_reference(kind):
    m = MODELS[kind]()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4), (4, 5), (5, 6)]
    g = Graph.undirected(np.random.default_rng(23).uniform(size=(7, FEATURES)), edges)
    for c in (0, 1):
        assert brute_force_best_subgraph(m, g, c) == loop_brute_force(m, g, c)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_weight_zero_is_deletion_at_205_nodes(kind):
    m = MODELS[kind]()
    g = ba_graph(200, seed=24, weighted=True)
    for e in np.random.default_rng(25).choice(g.num_undirected_edges, 6, replace=False):
        zeroed = forward(m, g, weights=reweighted(g, [e], 0.0))
        kept = [
            (*g.undirected_endpoints(i), g.undirected_weight(i))
            for i in range(g.num_undirected_edges)
            if i != e
        ]
        deleted = forward(m, Graph.undirected(g.features, kept))
        np.testing.assert_array_equal(zeroed.logits, deleted.logits)
        np.testing.assert_array_equal(zeroed.probabilities, deleted.probabilities)
