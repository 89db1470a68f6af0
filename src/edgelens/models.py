"""Deterministic forward inference for GCN and GIN graph classifiers.

Everything runs in float64 over a weighted adjacency, dense for small or
dense graphs and CSR for large sparse ones, so setting an edge weight to 0
is bitwise-identical to deleting the edge (degree normalization is
recomputed from the current weights). That identity is what makes weight-0
base points sound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from .errors import DataFormatError, ModelFormatError, NumericalFailureError
from .graphs import Graph, InducedSubgraph, check_edge_weights, edge_mask

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GCNLayer:
    weight: np.ndarray  # (d_in, d_out)
    bias: np.ndarray  # (d_out,)


@dataclass(frozen=True)
class GINLayer:
    # 2-layer MLP applied to (1 + eps) * h_v + sum_u w_uv h_u
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    epsilon: float = 0.0


@dataclass(frozen=True)
class Classifier:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    conv_kind: str  # "gcn" | "gin"
    layers: tuple
    classifier: Classifier
    pooling: str  # "mean" | "sum"
    num_classes: int

    def __post_init__(self):
        if self.conv_kind not in ("gcn", "gin"):
            raise ModelFormatError(f"unknown conv kind {self.conv_kind!r}")
        if self.pooling not in ("mean", "sum"):
            raise ModelFormatError(f"unknown pooling {self.pooling!r}")
        if self.num_classes < 1:
            raise ModelFormatError(f"num_classes {self.num_classes} < 1")
        dim = self.input_dim
        for i, layer in enumerate(self.layers):
            if self.conv_kind == "gcn":
                if not isinstance(layer, GCNLayer):
                    raise ModelFormatError(f"layer {i} is not a GCN layer")
                shapes = [(layer.weight, layer.bias)]
            else:
                if not isinstance(layer, GINLayer):
                    raise ModelFormatError(f"layer {i} is not a GIN layer")
                shapes = [(layer.w1, layer.b1), (layer.w2, layer.b2)]
            for w, b in shapes:
                if w.shape[0] != dim or b.shape != (w.shape[1],):
                    raise ModelFormatError(
                        f"layer {i}: expected input dim {dim}, got {w.shape}/{b.shape}"
                    )
                dim = w.shape[1]
        cls = self.classifier
        if cls.w1.shape[0] != dim or cls.b1.shape != (cls.w1.shape[1],):
            raise ModelFormatError("classifier first layer dimension mismatch")
        if cls.w2.shape != (cls.w1.shape[1], self.num_classes) or cls.b2.shape != (
            self.num_classes,
        ):
            raise ModelFormatError("classifier output dimension mismatch")
        for arr in self.parameter_arrays().values():
            if not np.all(np.isfinite(arr)):
                raise ModelFormatError("model contains non-finite parameters")

    @property
    def input_dim(self) -> int:
        layer = self.layers[0]
        return layer.weight.shape[0] if self.conv_kind == "gcn" else layer.w1.shape[0]

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """Named view of every parameter array, in a fixed order."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            if self.conv_kind == "gcn":
                out[f"layer{i}.weight"] = layer.weight
                out[f"layer{i}.bias"] = layer.bias
            else:
                out[f"layer{i}.w1"] = layer.w1
                out[f"layer{i}.b1"] = layer.b1
                out[f"layer{i}.w2"] = layer.w2
                out[f"layer{i}.b2"] = layer.b2
        out["classifier.w1"] = self.classifier.w1
        out["classifier.b1"] = self.classifier.b1
        out["classifier.w2"] = self.classifier.w2
        out["classifier.b2"] = self.classifier.b2
        return out


@dataclass(frozen=True)
class Prediction:
    logits: np.ndarray
    probabilities: np.ndarray
    predicted_class: int


class ForwardCounter:
    """Counts forward passes within one explanation session."""

    def __init__(self):
        self.count = 0

    def tick(self):
        self.count += 1


def inverse_sqrt_degree(a_hat: np.ndarray) -> np.ndarray:
    """D^-1/2 of the GCN normalization, from dense (..., n, n) adjacencies
    that already carry their self loops.

    Summing each dense row fixes numpy's pairwise summation order. The
    trainer takes its degrees from here too, so its sparse normalization
    matches gcn_normalize bit for bit on weighted graphs.
    """
    return 1.0 / np.sqrt(a_hat.sum(axis=-1))


def csr_matmul(operator: sp.csr_matrix, h: np.ndarray) -> np.ndarray:
    """operator @ h for a float64 (n, d) h, bit for bit: the same call of
    scipy's kernel csr_matvecs that csr_matrix.__matmul__ ends in, without
    its dispatch. Each output row starts at 0 and adds a_ij * h_j one stored
    entry at a time, in stored order."""
    n, d = h.shape
    out = np.zeros((operator.shape[0], d))
    csr_matvecs(
        operator.shape[0], n, d, operator.indptr, operator.indices, operator.data,
        h.ravel(), out.ravel(),
    )
    return out


def forward_dense(
    m: ModelSpec,
    operator: np.ndarray | sp.csr_matrix,
    features: np.ndarray,
    counter: ForwardCounter | None = None,
    kept: np.ndarray | None = None,
) -> Prediction:
    """One full model evaluation phi(A, X) over a prebuilt (s, s) operator,
    a dense array or a CSR matrix: the normalization D^-1/2 (A + I) D^-1/2
    for a GCN, A itself for a GIN. With the boolean (s,) `kept`, only the
    kept nodes are pooled.

    At these sizes a pass costs mostly numpy's per-call overhead, so each
    step takes as few calls as its arithmetic allows: biases and ReLUs in
    place, GIN's (1 + eps) h added onto A h, a CSR product straight through
    csr_matmul. None of it changes a bit (tests/test_engine_parity.py).
    """
    if counter is not None:
        counter.tick()
    sparse = not isinstance(operator, np.ndarray)
    h = features
    if m.conv_kind == "gcn":
        for layer in m.layers:
            z = (csr_matmul(operator, h) if sparse else operator @ h) @ layer.weight
            z += layer.bias
            h = np.maximum(z, 0.0, out=z)
    else:
        for layer in m.layers:
            agg = csr_matmul(operator, h) if sparse else operator @ h
            agg += (1.0 + layer.epsilon) * h
            z = agg @ layer.w1
            z += layer.b1
            h = np.maximum(z, 0.0, out=z) @ layer.w2
            h += layer.b2
    if kept is not None:
        h = h[kept]
    # h.mean(axis=0) is this sum divided by the node count, bit for bit.
    pooled = np.add.reduce(h, 0)
    if m.pooling == "mean":
        pooled /= h.shape[0]
    cls = m.classifier
    hidden = pooled @ cls.w1
    hidden += cls.b1
    logits = np.maximum(hidden, 0.0, out=hidden) @ cls.w2
    logits += cls.b2
    values = logits.tolist()
    if not all(map(math.isfinite, values)):
        raise NumericalFailureError("non-finite logits")
    probs = np.exp(logits - max(values))
    probs /= np.add.reduce(probs)
    return Prediction(
        logits=logits,
        probabilities=probs,
        predicted_class=int(probs.argmax()),
    )


# Byte budget of one chunk: an operator stack holds about one matrix at
# n = 205 and about 650 at n = 10, a (b, nnz) CSR value matrix about 100
# rows at n = 205; explain.py bounds each batch of (b, E) edge-weight rows
# by it too.
STACK_BYTES = 1 << 19

# forward_rows takes the CSR path when a graph's stored entries 2|E| + n
# fill less than this share of its n^2 dense cells. Measured per pass of
# explain on BA-2Motifs graphs (fill about 3/n), 3-layer 32-wide models, one
# BLAS thread: CSR breaks even with dense at a fill of about 0.036 (n = 85)
# for a GCN and about 0.025 (n = 125) for a GIN; at n = 205 (fill 0.015)
# it is 1.8x (GCN) and 1.35x (GIN) faster, at n = 10 (fill 0.32) slower.
CSR_MAX_FILL = 0.025


def weighted_adjacency(g: Graph, weights: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(b, s, s) stack of dense adjacencies, one per row of the (b, E)
    `weights` and the boolean (b, n) `nodes`, each row keeping s nodes.

    Row i keeps its nodes in ascending order, and each edge between two
    kept nodes carries weights[i, e] in both directions.
    """
    b, s = len(nodes), int(nodes[0].sum())
    a = np.zeros((b, s, s), dtype=np.float64)
    # pos[i, v]: node v's index among row i's kept nodes; start[i, v]: the
    # flat offset of its row of the stack.
    pos = np.cumsum(nodes, axis=1) - 1
    start = pos * s + np.arange(0, b * s * s, s * s)[:, None]
    kept = nodes[:, g.edge_u] & nodes[:, g.edge_v]
    w = weights[kept]
    flat = a.reshape(-1)
    flat[(start[:, g.edge_u] + pos[:, g.edge_v])[kept]] = w
    flat[(start[:, g.edge_v] + pos[:, g.edge_u])[kept]] = w
    return a


def gcn_normalize(a: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of a (..., s, s) adjacency stack, in place; the
    same operations in the same order as d[..., :, None] * (A + I) *
    d[..., None, :], so bitwise equal to it."""
    s = a.shape[-1]
    a[..., np.arange(s), np.arange(s)] += 1.0
    d_inv_sqrt = inverse_sqrt_degree(a)
    a *= d_inv_sqrt[..., :, None]
    a *= d_inv_sqrt[..., None, :]
    return a


def csr_pattern(g: Graph, self_loops: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and source edge of each stored entry of g's CSR
    operator: both directions of every edge, plus the diagonal with
    `self_loops`, sorted by row and then by column. A self loop's source is
    g.num_undirected_edges."""
    num_edges = g.num_undirected_edges
    loops = np.arange(g.n if self_loops else 0)
    edges = np.arange(num_edges)
    rows = np.concatenate((g.edge_u, g.edge_v, loops))
    cols = np.concatenate((g.edge_v, g.edge_u, loops))
    source = np.concatenate((edges, edges, np.full(len(loops), num_edges)))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], source[order]


def csr_values(
    g: Graph,
    pattern: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    nodes: np.ndarray,
    gcn: bool,
) -> np.ndarray:
    """(b, nnz) values of the csr_pattern entries, one row per row of the
    (b, E) `weights` and the boolean (b, n) `nodes`.

    An edge entry carries weights[i, e] when both endpoints are kept in row
    i and 0 otherwise; a self loop carries 1. For a GCN each value is then
    scaled to (w * d_i) * d_j, as gcn_normalize scales, with d_i the
    inverse square root of row i's entries summed one by one in column
    order: a stored 0 leaves such a sum unchanged, so each kept node gets
    the degree of its standalone graph.
    """
    rows, cols, source = pattern
    b, n, num_edges = len(nodes), g.n, g.num_undirected_edges
    w = np.ones((b, num_edges + 1))
    w[:, :num_edges] = np.where(nodes[:, g.edge_u] & nodes[:, g.edge_v], weights, 0.0)
    values = w[:, source]
    if gcn:
        # bincount adds its weights in input order: per row, column order
        flat = (np.arange(0, b * n, n)[:, None] + rows).ravel()
        degree = np.bincount(flat, weights=values.ravel(), minlength=b * n).reshape(b, n)
        d_inv_sqrt = 1.0 / np.sqrt(degree)
        values *= d_inv_sqrt[:, rows]
        values *= d_inv_sqrt[:, cols]
    return values


def forward_rows(
    m: ModelSpec,
    g: Graph,
    weights: np.ndarray,
    nodes: np.ndarray,
    counter: ForwardCounter | None = None,
) -> list[Prediction]:
    """One forward pass per row: row i evaluates the standalone graph of the
    nodes set in row i of the boolean (B, n) `nodes`, its edges carrying
    row i of the (B, E) `weights`. Every row keeps at least one node.

    On a graph whose stored entries fill less than CSR_MAX_FILL of the
    dense cells, every row runs over all n nodes through one CSR operator
    (see _csr_forward_rows). Otherwise rows are grouped by node count, and
    each group's dense operators are built as stacks of at most
    STACK_BYTES; forward_dense then runs once per row.

    A model whose finite parameters overflow float64 raises
    NumericalFailureError from forward_dense, with no numpy warning: the
    call runs with overflow and invalid operations ignored.
    """
    if g.d != m.input_dim:
        raise NumericalFailureError(f"feature dim {g.d} != model input dim {m.input_dim}")
    if g.n == 0:
        raise DataFormatError("cannot evaluate a graph with no nodes")
    with np.errstate(over="ignore", invalid="ignore"):
        if 2 * g.num_undirected_edges + g.n < CSR_MAX_FILL * g.n * g.n:
            return _csr_forward_rows(m, g, weights, nodes, counter)
        return _dense_forward_rows(m, g, weights, nodes, counter)


def _dense_forward_rows(m, g, weights, nodes, counter) -> list[Prediction]:
    """forward_rows over each row's kept nodes only: rows grouped by node
    count, each group's operators built as stacks of at most STACK_BYTES."""
    sizes = nodes.sum(axis=1)
    out: list = [None] * len(sizes)
    for s in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == s)
        step = max(1, STACK_BYTES // (8 * s * s))
        for lo in range(0, len(group), step):
            rows = group[lo : lo + step]
            ops = weighted_adjacency(g, weights[rows], nodes[rows])
            if m.conv_kind == "gcn":
                gcn_normalize(ops)
            feats = g.features[np.nonzero(nodes[rows])[1].reshape(len(rows), s)]
            for r, op, x in zip(rows.tolist(), ops, feats):
                out[r] = forward_dense(m, op, x, counter)
    return out


def _csr_forward_rows(m, g, weights, nodes, counter) -> list[Prediction]:
    """forward_rows over all n nodes of every row: one csr_matrix of g's
    pattern, its values swapped in row by row from csr_values chunks of at
    most STACK_BYTES. A dropped node's entries to and from kept nodes are
    0, and forward_dense pools the kept nodes only, so each row is bitwise
    the CSR pass of its standalone graph."""
    gcn = m.conv_kind == "gcn"
    pattern = csr_pattern(g, self_loops=gcn)
    rows, cols, _ = pattern
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    op = sp.csr_matrix((np.zeros(len(cols)), cols, indptr), shape=(g.n, g.n))
    step = max(1, STACK_BYTES // (8 * max(1, len(cols))))
    out = []
    for lo in range(0, len(weights), step):
        kept = nodes[lo : lo + step]
        values = csr_values(g, pattern, weights[lo : lo + step], kept, gcn)
        for row_values, row_kept in zip(values, kept):
            op.data = row_values
            out.append(forward_dense(m, op, g.features, counter, row_kept))
    return out


def subgraph_rows(g: Graph, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """forward_rows input for the standalone graphs made of the edges set in
    each row of the boolean (B, E) `kept`: the kept edges' weights, and the
    endpoints of the kept edges, or every node, isolated, when none is kept."""
    weights = np.where(kept, g.edge_weight, 0.0)
    nodes = np.zeros((len(kept), g.n), dtype=bool)
    row, e = np.nonzero(kept)
    nodes[row, g.edge_u[e]] = True
    nodes[row, g.edge_v[e]] = True
    nodes[~kept.any(axis=1)] = True
    return weights, nodes


def forward(
    m: ModelSpec,
    g: Graph,
    counter: ForwardCounter | None = None,
    weights: np.ndarray | None = None,
) -> Prediction:
    """Forward on g, or on g with its edges re-weighted to the (E,) vector
    `weights`, each finite and in [0, 1] as a Graph's; g itself is
    untouched."""
    if weights is None:
        weights = g.edge_weight
    elif np.shape(weights) != (g.num_undirected_edges,):
        raise DataFormatError(
            f"weights of shape {np.shape(weights)} for {g.num_undirected_edges} edges"
        )
    rows = np.asarray(weights, dtype=np.float64)[None]
    check_edge_weights(rows)
    return forward_rows(m, g, rows, np.ones((1, g.n), dtype=bool), counter)[0]


def forward_on_induced(
    m: ModelSpec,
    s: InducedSubgraph,
    counter: ForwardCounter | None = None,
) -> Prediction:
    """Forward on the standalone graph built from an induced subgraph; an
    empty subgraph evaluates all parent nodes under a zero adjacency."""
    g = s.parent
    kept = edge_mask(g, s.edges)
    nodes = np.zeros((1, g.n), dtype=bool)
    nodes[0, list(s.nodes)] = True
    if not s.nodes:
        nodes[:] = True
    return forward_rows(m, g, np.where(kept, g.edge_weight, 0.0)[None], nodes, counter)[0]


def _arr_to_list(a: np.ndarray) -> list:
    return a.tolist()


def _layer_to_obj(m: ModelSpec, layer) -> dict:
    if m.conv_kind == "gcn":
        return {"weight": _arr_to_list(layer.weight), "bias": _arr_to_list(layer.bias)}
    return {
        "w1": _arr_to_list(layer.w1),
        "b1": _arr_to_list(layer.b1),
        "w2": _arr_to_list(layer.w2),
        "b2": _arr_to_list(layer.b2),
    }


def model_to_json(m: ModelSpec) -> str:
    obj = {
        "version": MODEL_SCHEMA_VERSION,
        "conv_kind": m.conv_kind,
        "pooling": m.pooling,
        "num_classes": m.num_classes,
        "layers": [_layer_to_obj(m, layer) for layer in m.layers],
        "classifier": {
            "w1": _arr_to_list(m.classifier.w1),
            "b1": _arr_to_list(m.classifier.b1),
            "w2": _arr_to_list(m.classifier.w2),
            "b2": _arr_to_list(m.classifier.b2),
        },
    }
    if m.conv_kind == "gin":
        obj["epsilons"] = [layer.epsilon for layer in m.layers]
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_model(m: ModelSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(m))


def model_from_json(text: str) -> ModelSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid model JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported model version {version!r}")
    for key in ("conv_kind", "pooling", "num_classes", "layers", "classifier"):
        if key not in obj:
            raise ModelFormatError(f"model file missing field {key!r}")
    kind = obj["conv_kind"]
    if kind not in ("gcn", "gin"):
        raise ModelFormatError(f"unknown conv kind {kind!r}")
    names = ("weight", "bias") if kind == "gcn" else ("w1", "b1", "w2", "b2")
    if not isinstance(obj["layers"], list) or not obj["layers"]:
        raise ModelFormatError("model field 'layers' is not a non-empty list")
    layers = [_arrays(lo, names, f"layer {i}") for i, lo in enumerate(obj["layers"])]
    if kind == "gcn":
        layers = [GCNLayer(**arrays) for arrays in layers]
    else:
        eps = obj.get("epsilons", [0.0] * len(layers))
        if not isinstance(eps, list) or len(eps) != len(layers):
            raise ModelFormatError("epsilons is not a list matching the layer count")
        if any(type(e) not in (int, float) for e in eps):
            raise ModelFormatError(f"epsilons {eps!r} are not all JSON numbers")
        layers = [GINLayer(**arrays, epsilon=float(e)) for arrays, e in zip(layers, eps)]
    cls = _arrays(obj["classifier"], ("w1", "b1", "w2", "b2"), "classifier")
    if type(obj["num_classes"]) is not int:
        raise ModelFormatError(f"num_classes {obj['num_classes']!r} is not a JSON integer")
    return ModelSpec(
        conv_kind=kind,
        layers=tuple(layers),
        classifier=Classifier(**cls),
        pooling=obj["pooling"],
        num_classes=obj["num_classes"],
    )


def _arrays(obj, names: tuple[str, ...], where: str) -> dict[str, np.ndarray]:
    """The float64 arrays `names` of one model part: matrices for the
    weights (w...), vectors for the biases (b...). A part that is not an
    object, lacks one of them or holds anything else raises
    ModelFormatError."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} is not a JSON object")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ModelFormatError(f"{where} missing arrays {missing}")
    out = {}
    for name in names:
        try:
            arr = np.asarray(obj[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"{where} {name}: {exc}") from exc
        if arr.ndim != (2 if name.startswith("w") else 1):
            raise ModelFormatError(f"{where} {name} has shape {arr.shape}")
        out[name] = arr
    return out


def load_model(path) -> ModelSpec:
    with open(path) as fh:
        return model_from_json(fh.read())
