"""Loop-built reference for the forward engine, used only by the tests.

It is the engine as it stood before the edge-array rewrite: the adjacency is
filled one undirected edge at a time, a fidelity pass first builds the
edge-induced subgraph with `induce_by_edges` and then fills the subgraph's
adjacency edge by edge, and the GCN normalization is d[:, None] * (A + I) *
d[None, :], with each degree its row of A + I added one entry at a time in
column order (`normalized_adjacency`). The library's dense path must match
it bitwise.

`loop_csr_probabilities` is the reference of the library's CSR path: the
same graphs and the same degrees, but every product row also runs one stored
entry at a time in ascending column order. The `probabilities` argument of
the helpers below picks the reference.
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


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2, each degree its row of A + I added one entry
    at a time in column order: the last running sum of np.add.accumulate,
    which adds strictly in sequence."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(np.add.accumulate(a_hat, axis=1)[:, -1])
    return d_inv_sqrt[:, None] * a_hat * d_inv_sqrt[None, :]


def loop_probabilities(m: ModelSpec, adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    if m.conv_kind == "gcn":
        norm = normalized_adjacency(adjacency)
        return _probabilities(m, lambda h: norm @ h, features)
    return _probabilities(m, lambda h: adjacency @ h, features)


def loop_csr_probabilities(m: ModelSpec, adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Each row of the operator holds the nonzeros of its row of the
    operator loop_probabilities uses, columns ascending; a zero is left out,
    as adding one leaves a sum unchanged. A product row is the sum of
    a_ij * h_j, started at 0 and added one entry at a time."""
    n = adjacency.shape[0]
    a = normalized_adjacency(adjacency) if m.conv_kind == "gcn" else adjacency
    rows = [[(j, a[i, j]) for j in np.flatnonzero(a[i])] for i in range(n)]

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


def loop_ig_scores(
    m: ModelSpec, g: Graph, c: int, steps: int, probabilities=loop_probabilities
) -> np.ndarray:
    """IG scores: for each step j, the path point (j / steps) w, then the
    same point with each edge in turn pulled back to ((j - 1) / steps) w_e;
    the differences are summed in step order."""
    values = np.zeros(g.num_undirected_edges)
    weights = g.edge_weight.tolist()
    for j in range(1, steps + 1):
        point = {e: (j / steps) * w for e, w in enumerate(weights)}
        p = probabilities(m, loop_adjacency(g, point), g.features)[c]
        for e, w in enumerate(weights):
            pulled = {**point, e: ((j - 1) / steps) * w}
            values[e] += p - probabilities(m, loop_adjacency(g, pulled), g.features)[c]
    return values


def loop_brute_force(m: ModelSpec, g: Graph, c: int) -> tuple[tuple[int, ...], float]:
    best, best_score = None, -np.inf
    for size in range(1, g.num_undirected_edges + 1):
        for subset in itertools.combinations(range(g.num_undirected_edges), size):
            fplus, fminus = loop_fidelities(m, g, subset, c)
            score = fplus - fminus
            if score > best_score or (score == best_score and subset < best):
                best, best_score = subset, score
    return best, float(best_score)
