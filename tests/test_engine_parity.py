"""The row engine against the loop-built references in reference_engine.py:
every probability, score and fidelity must be bitwise equal, on BA-2Motifs
graphs of about 25, 60 and 205 nodes, under a GCN and a GIN. Graphs below
models.CSR_MAX_FILL take the CSR path and match the loop CSR reference
bitwise and the dense one to 1e-12; the others match the dense one
bitwise."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from edgelens import (
    DataFormatError,
    Graph,
    NumericalFailureError,
    brute_force_best_subgraph,
    explain,
    fidelity_minus,
    fidelity_plus,
    forward,
    gen_ba2motifs_mini,
    ig_edge_scores,
    init_gcn,
    linear_gradient_scores,
    sa_edge_scores,
)
from edgelens import models
from edgelens.models import STACK_BYTES, csr_matmul, forward_rows, subgraph_rows

from conftest import gin_model, overflowing, path_graph, reweighted
from reference_engine import (
    loop_adjacency,
    loop_brute_force,
    loop_csr_probabilities,
    loop_fidelities,
    loop_ig_scores,
    loop_probabilities,
    loop_probabilities_on_edges,
    loop_scores,
)

explain_module = sys.modules["edgelens.explain"]

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
    csr = takes_csr_path(g)
    assert csr == (base_nodes == 200)
    exact = loop_csr_probabilities if csr else loop_probabilities

    def close_to_dense(got, want):
        if csr:
            np.testing.assert_allclose(got, want(loop_probabilities), rtol=0, atol=1e-12)

    original = forward(m, g)
    np.testing.assert_array_equal(original.probabilities, exact(m, loop_adjacency(g), g.features))
    close_to_dense(original.probabilities, lambda p: p(m, loop_adjacency(g), g.features))
    c = original.predicted_class
    scores = linear_gradient_scores(m, g, c, original=original).values
    if not weighted:
        np.testing.assert_array_equal(scores, loop_scores(m, g, c, exact))
        close_to_dense(scores, lambda p: loop_scores(m, g, c, p))
    ranked = [int(i) for i in np.argsort(-scores, kind="stable")]
    # k = 0 and k = |E| give the empty and the full mask on both sides.
    for k in range(num_edges + 1):
        prefix = ranked[:k]
        got = (
            fidelity_plus(m, g, prefix, c, original=original),
            fidelity_minus(m, g, prefix, c, original=original),
        )
        assert got == loop_fidelities(m, g, prefix, c, exact), k
        close_to_dense(got, lambda p: loop_fidelities(m, g, prefix, c, p))
    e = explain(m, g, target_class=c)
    assert e.forward_passes_used == 3 * num_edges + 1
    fplus, fminus = loop_fidelities(m, g, e.ranked_edges[: e.chosen_k], c, exact)
    assert (e.fidelity_plus, e.fidelity_minus, e.overall) == (fplus, fminus, fplus - fminus)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("base_nodes", [20, 200], ids=["n25", "n205"])
def test_ig_matches_reference(kind, base_nodes):
    """IG makes all its steps' rows in one batched call; the loop reference
    evaluates each step's path point and pulled edges in turn. At n = 205
    the rows span two chunks, the boundary inside a step."""
    m = MODELS[kind]()
    g = ba_graph(base_nodes, seed=base_nodes + 3, weighted=True)
    csr = takes_csr_path(g)
    assert csr == (base_nodes == 200)
    exact = loop_csr_probabilities if csr else loop_probabilities
    got = ig_edge_scores(m, g, 1, steps=3).values
    np.testing.assert_array_equal(got, loop_ig_scores(m, g, 1, 3, exact))


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("d", [1, 7, 32])
def test_csr_matmul_is_scipy_product(index_dtype, d):
    """models.csr_matmul calls scipy's kernel directly: pinned bitwise to
    operator @ h, so a scipy release that moves or changes the kernel fails
    here."""
    rng = np.random.default_rng(33)
    a = sp.random(205, 205, density=0.02, format="csr", random_state=34)
    a.indices = a.indices.astype(index_dtype)
    a.indptr = a.indptr.astype(index_dtype)
    h = rng.uniform(-1.0, 1.0, size=(205, d))
    got = csr_matmul(a, h)
    assert a.indices.dtype == a.indptr.dtype == index_dtype
    np.testing.assert_array_equal(got, a @ h)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("n", [3, 300], ids=["dense", "csr"])
def test_overflowing_model_fails_typed_without_warning(kind, n):
    """Finite parameters whose pass overflows: NumericalFailureError, and
    no numpy RuntimeWarning before it, for one row and for a batch."""
    m = overflowing(MODELS[kind]())
    g = path_graph(n - 1, FEATURES)
    assert takes_csr_path(g) == (n == 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="non-finite logits"):
            forward(m, g)
        with pytest.raises(NumericalFailureError, match="non-finite logits"):
            ig_edge_scores(m, g, 0, steps=1)


def takes_csr_path(g):
    return 2 * g.num_undirected_edges + g.n < models.CSR_MAX_FILL * g.n * g.n


def record_builds(monkeypatch, *names):
    """Wrap the models functions `names` so that each call appends (name,
    number of rows built) to the returned list."""
    built = []
    for name in names:
        build = getattr(models, name)

        def recorded(*args, name=name, build=build):
            out = build(*args)
            built.append((name, len(out)))
            return out

        monkeypatch.setattr(models, name, recorded)
    return built


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_brute_force_matches_reference(kind):
    m = MODELS[kind]()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4), (4, 5), (5, 6)]
    g = Graph.undirected(np.random.default_rng(23).uniform(size=(7, FEATURES)), edges)
    for c in (0, 1):
        assert brute_force_best_subgraph(m, g, c) == loop_brute_force(m, g, c)


SEVEN_EDGES = [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.5), (3, 4, 1.0), (4, 0, 1.0), (1, 4, 0.25), (4, 5, 1.0)]
BLOCK_GRAPHS = {
    "random": (np.random.default_rng(27).uniform(size=(6, FEATURES)), SEVEN_EDGES),
    "ones": (np.ones((6, FEATURES)), SEVEN_EDGES),
    # Four identical disjoint edges: subsets of one size tie exactly.
    "matching": (np.ones((8, FEATURES)), [(0, 1), (2, 3), (4, 5), (6, 7)]),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
def test_brute_force_across_subset_blocks_matches_reference(kind, name, monkeypatch):
    """Subsets scored 7 at a time: the winner, ties between blocks included,
    must not depend on the block boundaries."""
    monkeypatch.setattr(explain_module, "_SUBSET_BLOCK", 7)
    m = MODELS[kind]()
    g = Graph.undirected(*BLOCK_GRAPHS[name])
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


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_mixed_row_batch_matches_reference(kind, monkeypatch):
    """One forward_rows batch of re-weighted rows, more than one operator
    chunk holds, shuffled with fidelity rows of several node counts: the
    empty mask, the full mask, a kept 0-weight edge alone and among others."""
    m = MODELS[kind]()
    rng = np.random.default_rng(26)
    g = ba_graph(55, seed=26, weighted=True)
    w = np.where(rng.uniform(size=g.num_undirected_edges) < 0.2, 0.0, g.edge_weight)
    g = Graph(g.features, g.edge_u, g.edge_v, w)
    num_edges, zero = g.num_undirected_edges, int(np.flatnonzero(w == 0.0)[0])
    per_chunk = STACK_BYTES // (8 * g.n * g.n)
    reweights = rng.uniform(size=(per_chunk + 2, num_edges))
    reweights[rng.uniform(size=reweights.shape) < 0.3] = 0.0
    kept = [rng.uniform(size=num_edges) < p for p in (0.03, 0.1, 0.3, 0.6, 0.9) for _ in range(3)]
    kept += [np.zeros(num_edges, bool), np.ones(num_edges, bool), np.arange(num_edges) == zero]
    kept[0][zero] = True
    kept = np.array(kept)
    fid_weights, fid_nodes = subgraph_rows(g, kept)
    assert len(set(fid_nodes.sum(axis=1).tolist())) >= 6
    weights = np.concatenate((reweights, fid_weights))
    nodes = np.concatenate((np.ones((len(reweights), g.n), bool), fid_nodes))
    order = rng.permutation(len(weights))
    built = []
    build = models.weighted_adjacency

    def recorded(*args):
        stack = build(*args)
        built.append(stack.shape)
        return stack

    monkeypatch.setattr(models, "weighted_adjacency", recorded)
    got = forward_rows(m, g, weights[order], nodes[order])
    full = [b for b, s, _ in built if s == g.n]
    assert len(full) >= 2 and max(full) <= per_chunk and sum(b for b, _, _ in built) == len(order)
    for pred, i in zip(got, order):
        if i < len(reweights):
            overrides = dict(enumerate(reweights[i].tolist()))
            want = loop_probabilities(m, loop_adjacency(g, overrides), g.features)
        else:
            want = loop_probabilities_on_edges(m, g, np.flatnonzero(kept[i - len(reweights)]))
        np.testing.assert_array_equal(pred.probabilities, want)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_mixed_row_batch_through_csr_matches_reference(kind, monkeypatch):
    """The CSR path's form of the test above: on a 205-node graph, with the
    byte bound patched down to 4 rows of values per chunk, re-weighted rows
    and fidelity rows of several node counts in one batch, the empty mask,
    the full mask and a kept 0-weight edge among them, plus node-induced
    rows, whose edges to dropped nodes carry nonzero weights."""
    m = MODELS[kind]()
    rng = np.random.default_rng(30)
    g = ba_graph(200, seed=30, weighted=True)
    w = np.where(rng.uniform(size=g.num_undirected_edges) < 0.2, 0.0, g.edge_weight)
    g = Graph(g.features, g.edge_u, g.edge_v, w)
    assert takes_csr_path(g)
    num_edges, zero = g.num_undirected_edges, int(np.flatnonzero(w == 0.0)[0])
    per_chunk = 4
    nnz = 2 * num_edges + (g.n if kind == "gcn" else 0)
    monkeypatch.setattr(models, "STACK_BYTES", 8 * nnz * per_chunk)
    reweights = rng.uniform(size=(5, num_edges))
    reweights[rng.uniform(size=reweights.shape) < 0.3] = 0.0
    kept = [rng.uniform(size=num_edges) < p for p in (0.03, 0.1, 0.3, 0.6, 0.9) for _ in range(2)]
    kept += [np.zeros(num_edges, bool), np.ones(num_edges, bool), np.arange(num_edges) == zero]
    kept[0][zero] = True
    kept = np.array(kept)
    fid_weights, fid_nodes = subgraph_rows(g, kept)
    assert len(set(fid_nodes.sum(axis=1).tolist())) >= 6
    induced = rng.uniform(size=(3, g.n)) < np.array([[0.2], [0.5], [0.8]])
    weights = np.concatenate((reweights, fid_weights, np.repeat(w[None], len(induced), axis=0)))
    nodes = np.concatenate((np.ones((len(reweights), g.n), bool), fid_nodes, induced))
    order = rng.permutation(len(weights))
    built = record_builds(monkeypatch, "csr_values")
    got = forward_rows(m, g, weights[order], nodes[order])
    chunks = [b for _, b in built]
    assert len(chunks) >= 2 and max(chunks) == per_chunk and sum(chunks) == len(order)
    references = (loop_csr_probabilities, loop_probabilities)
    for pred, i in zip(got, order):
        if i < len(reweights):
            a = loop_adjacency(g, dict(enumerate(reweights[i].tolist())))
            want = [p(m, a, g.features) for p in references]
        elif i < len(reweights) + len(kept):
            edges = np.flatnonzero(kept[i - len(reweights)])
            want = [loop_probabilities_on_edges(m, g, edges, p) for p in references]
        else:
            keep = nodes[i]
            a = loop_adjacency(g)[np.ix_(keep, keep)]
            want = [p(m, a, g.features[keep]) for p in references]
        np.testing.assert_array_equal(pred.probabilities, want[0])
        np.testing.assert_allclose(pred.probabilities, want[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_one_graph_on_each_side_of_the_switch(kind, monkeypatch):
    """A 25-node graph with CSR_MAX_FILL patched just above its fill takes
    the CSR path, just below it the dense path: each explanation matches
    its own reference bitwise, and the two agree to 1e-12."""
    m = MODELS[kind]()
    g = ba_graph(20, seed=31, weighted=True)
    fill = (2 * g.num_undirected_edges + g.n) / g.n**2
    built = record_builds(monkeypatch, "weighted_adjacency", "csr_values")
    got = {}
    for limit, path, reference in (
        (1.001 * fill, "csr_values", loop_csr_probabilities),
        (0.999 * fill, "weighted_adjacency", loop_probabilities),
    ):
        monkeypatch.setattr(models, "CSR_MAX_FILL", limit)
        built.clear()
        e = explain(m, g)
        assert {name for name, _ in built} == {path}
        c = e.target_class
        np.testing.assert_array_equal(e.scores, loop_scores(m, g, c, reference))
        fplus, fminus = loop_fidelities(m, g, e.ranked_edges[: e.chosen_k], c, reference)
        assert (e.fidelity_plus, e.fidelity_minus) == (fplus, fminus)
        got[path] = e
    csr = got["csr_values"]
    np.testing.assert_allclose(csr.scores, got["weighted_adjacency"].scores, rtol=0, atol=1e-12)
    dense = loop_fidelities(m, g, csr.ranked_edges[: csr.chosen_k], csr.target_class)
    np.testing.assert_allclose((csr.fidelity_plus, csr.fidelity_minus), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("base_nodes", [20, 200], ids=["dense", "csr"])
@pytest.mark.parametrize("bad", [-1.0, 2.0, np.nan, np.inf], ids=["negative", "above-1", "nan", "inf"])
def test_forward_rejects_weights_outside_unit_interval(kind, base_nodes, bad):
    m = MODELS[kind]()
    g = ba_graph(base_nodes, seed=32, weighted=True)
    assert takes_csr_path(g) == (base_nodes == 200)
    w = g.edge_weight.copy()
    w[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="outside"):
            forward(m, g, weights=w)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_graph_without_nodes_fails_before_any_stack(kind, monkeypatch):
    built = []
    monkeypatch.setattr(models, "weighted_adjacency", lambda *a: built.append(a))
    g = Graph.undirected(np.ones((0, FEATURES)), [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="no nodes"):
            explain(MODELS[kind](), g)
    assert built == []


def complete_graph(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v, float(rng.uniform(0.05, 1.0))) for u in range(n) for v in range(u + 1, n)]
    return Graph.undirected(rng.uniform(size=(n, FEATURES)), edges)


def loop_sa_scores(m, g, c, h=1e-3):
    values = []
    for e in range(g.num_undirected_edges):
        w = g.undirected_weight(e)
        hi, lo = min(1.0, w + h), max(0.0, w - h)
        p_hi, p_lo = (
            loop_probabilities(m, loop_adjacency(g, {e: x}), g.features)[c] for x in (hi, lo)
        )
        values.append(abs(p_hi - p_lo) / (hi - lo))
    return np.array(values)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_dense_graph_builds_rows_a_chunk_at_a_time(kind, monkeypatch):
    """On a complete graph, with the byte bound patched down to 5 rows of E
    weights, every forward_rows batch of the scorers and the search holds at
    most 5 rows, and the results still match the reference (IG: the result
    with the bound unpatched)."""
    m = MODELS[kind]()
    g = complete_graph(16, seed=28)
    ig = ig_edge_scores(m, g, 0, steps=2).values
    per_chunk = 5
    monkeypatch.setattr(explain_module, "STACK_BYTES", 8 * g.num_undirected_edges * per_chunk)
    batches = []

    def recorded(m, g, weights, nodes, counter=None):
        batches.append(len(weights))
        return forward_rows(m, g, weights, nodes, counter)

    monkeypatch.setattr(explain_module, "forward_rows", recorded)
    e = explain(m, g)
    c = e.target_class
    np.testing.assert_array_equal(e.scores, loop_scores(m, g, c))
    fplus, fminus = loop_fidelities(m, g, e.ranked_edges[: e.chosen_k], c)
    assert (e.fidelity_plus, e.fidelity_minus) == (fplus, fminus)
    np.testing.assert_array_equal(sa_edge_scores(m, g, c).values, loop_sa_scores(m, g, c))
    np.testing.assert_array_equal(ig_edge_scores(m, g, 0, steps=2).values, ig)
    assert max(batches) == per_chunk
    # E scoring rows, 2E search rows, 2E SA rows and 2 (E + 1) IG rows;
    # models.forward makes the original pass.
    assert sum(batches) == 7 * g.num_undirected_edges + 2


def test_dense_graph_memory_is_bounded():
    """SA on a complete 64-node graph makes 4032 passes over 2016 edges:
    all its probe rows at once would take 65 MB, the chunks take a few."""
    m = MODELS["gcn"]()
    g = complete_graph(64, seed=29)
    tracemalloc.start()
    try:
        sa_edge_scores(m, g, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * STACK_BYTES


def test_dense_graph_ig_memory_is_bounded():
    """IG's form of the test above: 2 steps of 2017 rows on the complete
    64-node graph go through one call, still made a chunk at a time."""
    m = MODELS["gcn"]()
    g = complete_graph(64, seed=29)
    tracemalloc.start()
    try:
        ig_edge_scores(m, g, 0, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * STACK_BYTES
