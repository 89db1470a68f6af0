"""Reference forward pass for the benchmark's output checks.

Written from the model formulas and independent of `edgelens.models`: the
adjacency comes from the undirected edge list and message passing is an
explicit sum over directed edges, so a fault in the library's dense engine
cannot hide behind the same fault here.

GCN layer:  h'_v = relu( sum_{u in N(v) + v} w_uv / sqrt(d_u d_v) h_u W + b ),
            d_v = 1 + sum_u w_uv  (self loop of weight 1)
GIN layer:  h'_v = relu( ((1 + eps) h_v + sum_u w_uv h_u) W1 + b1 ) W2 + b2
Readout:    p = softmax( relu(pool(h) C1 + c1) C2 + c2 ), pool = mean | sum

Edge-induced subgraphs follow the method's definition: the nodes are the
endpoints of the chosen edges, and an empty edge set keeps every node of the
graph as an isolated node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RefModel:
    kind: str  # "gcn" | "gin"
    layers: tuple  # GCN: (W, b); GIN: (W1, b1, W2, b2, eps)
    classifier: tuple  # (C1, c1, C2, c2)
    pooling: str


def ref_model(spec) -> RefModel:
    """Copy the parameters out of a model object by attribute name."""
    if spec.conv_kind == "gcn":
        layers = tuple((l.weight, l.bias) for l in spec.layers)
    else:
        layers = tuple((l.w1, l.b1, l.w2, l.b2, l.epsilon) for l in spec.layers)
    c = spec.classifier
    return RefModel(spec.conv_kind, layers, (c.w1, c.b1, c.w2, c.b2), spec.pooling)


def edge_list(g) -> list[tuple[int, int, float]]:
    """Undirected (u, v, w) triples of a graph, in edge-index order."""
    return [
        (*g.undirected_endpoints(i), g.undirected_weight(i))
        for i in range(g.num_undirected_edges)
    ]


def probabilities(
    model: RefModel, features: np.ndarray, edges: list[tuple[int, int, float]]
) -> np.ndarray:
    """Class probabilities of the graph with node features `features` and
    undirected edges `edges` over nodes 0..n-1."""
    n = features.shape[0]
    if edges:
        u, v, w = (np.array(col) for col in zip(*edges))
        src = np.concatenate([u, v]).astype(np.int64)
        dst = np.concatenate([v, u]).astype(np.int64)
        wt = np.concatenate([w, w]).astype(np.float64)
    else:
        src = dst = np.zeros(0, dtype=np.int64)
        wt = np.zeros(0)
    h = features
    if model.kind == "gcn":
        deg = 1.0 + np.bincount(src, weights=wt, minlength=n)
        coef = wt / np.sqrt(deg[src] * deg[dst])
        for weight, bias in model.layers:
            msg = h / deg[:, None]
            np.add.at(msg, src, coef[:, None] * h[dst])
            h = np.maximum(msg @ weight + bias, 0.0)
    else:
        for w1, b1, w2, b2, eps in model.layers:
            agg = (1.0 + eps) * h
            np.add.at(agg, src, wt[:, None] * h[dst])
            h = np.maximum(agg @ w1 + b1, 0.0) @ w2 + b2
    pooled = h.mean(axis=0) if model.pooling == "mean" else h.sum(axis=0)
    c1, b1, c2, b2 = model.classifier
    logits = np.maximum(pooled @ c1 + b1, 0.0) @ c2 + b2
    z = np.exp(logits - logits.max())
    return z / z.sum()


def induced_probabilities(
    model: RefModel, features: np.ndarray, edges: list[tuple[int, int, float]], keep
) -> np.ndarray:
    """Probabilities of the subgraph induced by the edges at indices `keep`."""
    kept = [edges[i] for i in keep]
    if not kept:
        return probabilities(model, features, [])
    nodes = sorted({x for u, v, _ in kept for x in (u, v)})
    index = {x: i for i, x in enumerate(nodes)}
    local = [(index[u], index[v], w) for u, v, w in kept]
    return probabilities(model, features[nodes], local)


def overall_fidelity(
    model: RefModel,
    features: np.ndarray,
    edges: list[tuple[int, int, float]],
    chosen,
    target: int,
    p_graph: np.ndarray,
) -> float:
    """Fid+ - Fid- of the edge set `chosen`: the drop when it is removed minus
    the drop when only it is kept."""
    chosen = set(chosen)
    rest = [i for i in range(len(edges)) if i not in chosen]
    p_removed = induced_probabilities(model, features, edges, rest)[target]
    p_kept = induced_probabilities(model, features, edges, sorted(chosen))[target]
    return float((p_graph[target] - p_removed) - (p_graph[target] - p_kept))


def mean_cross_entropy(model: RefModel, records) -> float:
    """Mean of -log p(label) over records carrying `.graph` and `.label`."""
    total = 0.0
    for rec in records:
        p = probabilities(model, rec.graph.features, edge_list(rec.graph))
        total += -np.log(max(p[rec.label], 1e-300))
    return total / len(records)
