"""Loop-built reference for the forward engine, used only by the tests.

It is the engine as it stood before the edge-array rewrite: the adjacency is
filled one undirected edge at a time, a fidelity pass first builds the
edge-induced subgraph with `induce_by_edges` and then fills the subgraph's
adjacency edge by edge, and the GCN normalization is the plain expression
d[:, None] * (A + I) * d[None, :]. The library's dense path must match it
bitwise.

`loop_csr_probabilities` is the reference of the library's CSR path: the
same graphs, but every row sum runs one stored entry at a time in ascending
column order. The `probabilities` argument of the helpers below picks the
reference.
"""

from __future__ import annotations

import itertools

import numpy as np

from edgelens.graphs import Graph, induce_by_edges
from edgelens.models import ModelSpec


def loop_adjacency(g: Graph, overrides=None) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_weight):
        a[u, v] = a[v, u] = w
    for idx, w in (overrides or {}).items():
        u, v = g.undirected_endpoints(idx)
        a[u, v] = a[v, u] = float(w)
    return a


def _relu(x):
    return np.maximum(x, 0.0)


def loop_probabilities(m: ModelSpec, adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    if m.conv_kind == "gcn":
        a_hat = adjacency + np.eye(adjacency.shape[0])
        deg = a_hat.sum(axis=1)
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        norm = d_inv_sqrt[:, None] * a_hat * d_inv_sqrt[None, :]
        return _probabilities(m, lambda h: norm @ h, features)
    return _probabilities(m, lambda h: adjacency @ h, features)


def loop_csr_probabilities(m: ModelSpec, adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Each row of the operator holds the nonzeros of its adjacency row,
    columns ascending, plus the self loop for a GCN; a zero is left out, as
    adding one leaves a sum unchanged. A GCN degree is the sum of its row of
    A + I and an entry is (a_ij * d_i) * d_j; a product row is the sum of
    a_ij * h_j. Every sum starts at 0 and adds one entry at a time."""
    n = adjacency.shape[0]
    a = adjacency + np.eye(n) if m.conv_kind == "gcn" else adjacency
    rows = [[(j, a[i, j]) for j in np.flatnonzero(a[i])] for i in range(n)]
    if m.conv_kind == "gcn":
        deg = np.zeros(n)
        for i, row in enumerate(rows):
            for _, v in row:
                deg[i] += v
        d = 1.0 / np.sqrt(deg)
        rows = [[(j, v * d[i] * d[j]) for j, v in row] for i, row in enumerate(rows)]

    def propagate(h):
        out = np.zeros_like(h)
        for i, row in enumerate(rows):
            for j, v in row:
                out[i] += v * h[j]
        return out

    return _probabilities(m, propagate, features)


def _probabilities(m: ModelSpec, propagate, features: np.ndarray) -> np.ndarray:
    """The model on `features`, with propagate(h) the operator times h."""
    h = features
    if m.conv_kind == "gcn":
        for layer in m.layers:
            h = _relu(propagate(h) @ layer.weight + layer.bias)
    else:
        for layer in m.layers:
            agg = (1.0 + layer.epsilon) * h + propagate(h)
            h = _relu(agg @ layer.w1 + layer.b1) @ layer.w2 + layer.b2
    pooled = h.mean(axis=0) if m.pooling == "mean" else h.sum(axis=0)
    cls = m.classifier
    logits = _relu(pooled @ cls.w1 + cls.b1) @ cls.w2 + cls.b2
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


def loop_probabilities_on_edges(
    m: ModelSpec, g: Graph, edges, probabilities=loop_probabilities
) -> np.ndarray:
    """Probabilities on the standalone graph edge-induced by `edges`; an
    empty selection keeps every node, isolated."""
    s = induce_by_edges(g, edges)
    if s.num_nodes == 0:
        return probabilities(m, np.zeros((g.n, g.n)), g.features)
    index = {v: i for i, v in enumerate(s.nodes)}
    a = np.zeros((len(s.nodes), len(s.nodes)), dtype=np.float64)
    for e in s.edges:
        u, v = g.undirected_endpoints(e)
        w = g.undirected_weight(e)
        a[index[u], index[v]] = w
        a[index[v], index[u]] = w
    return probabilities(m, a, g.features[list(s.nodes), :])


def loop_fidelities(
    m: ModelSpec, g: Graph, edges, c: int, probabilities=loop_probabilities
) -> tuple[float, float]:
    """(Fid+, Fid-) of the selected edges."""
    p = probabilities(m, loop_adjacency(g), g.features)[c]
    chosen = set(edges)
    rest = [e for e in range(g.num_undirected_edges) if e not in chosen]
    fplus = float(p - loop_probabilities_on_edges(m, g, rest, probabilities)[c])
    fminus = float(p - loop_probabilities_on_edges(m, g, sorted(chosen), probabilities)[c])
    return fplus, fminus


def loop_scores(m: ModelSpec, g: Graph, c: int, probabilities=loop_probabilities) -> np.ndarray:
    """Linear-gradient scores from the zero base point."""
    p = probabilities(m, loop_adjacency(g), g.features)[c]
    return np.array(
        [
            (p - probabilities(m, loop_adjacency(g, {e: 0.0}), g.features)[c])
            / (2.0 * abs(g.undirected_weight(e)))
            for e in range(g.num_undirected_edges)
        ]
    )


def loop_brute_force(m: ModelSpec, g: Graph, c: int) -> tuple[tuple[int, ...], float]:
    best, best_score = None, -np.inf
    for size in range(1, g.num_undirected_edges + 1):
        for subset in itertools.combinations(range(g.num_undirected_edges), size):
            fplus, fminus = loop_fidelities(m, g, subset, c)
            score = fplus - fminus
            if score > best_score or (score == best_score and subset < best):
                best, best_score = subset, score
    return best, float(best_score)
