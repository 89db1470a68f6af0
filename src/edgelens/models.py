"""Deterministic forward inference for GCN and GIN graph classifiers.

Everything runs in float64 over a dense weighted adjacency, so setting an
edge weight to 0 is bitwise-identical to deleting the edge (degree
normalization is recomputed from the current weights). That identity is what
makes weight-0 base points sound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ModelFormatError, NumericalFailureError
from .graphs import Graph, InducedSubgraph, edge_mask

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

    def reset(self):
        self.count = 0


def weighted_adjacency(g: Graph, weights: np.ndarray | None = None) -> np.ndarray:
    """Dense adjacency of g's edges carrying the (E,) vector `weights`,
    g.edge_weight when none is given; both directions get the same value."""
    if weights is None:
        weights = g.edge_weight
    elif np.shape(weights) != (g.num_undirected_edges,):
        raise DataFormatError(
            f"weights of shape {np.shape(weights)} for {g.num_undirected_edges} edges"
        )
    a = np.zeros((g.n, g.n), dtype=np.float64)
    a[g.edge_u, g.edge_v] = weights
    a[g.edge_v, g.edge_u] = weights
    return a


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / e.sum()


def inverse_sqrt_degree(a_hat: np.ndarray) -> np.ndarray:
    """D^-1/2 of the GCN normalization, from dense (..., n, n) adjacencies
    that already carry their self loops.

    Summing each dense row fixes numpy's pairwise summation order. The
    trainer takes its degrees from here too, so its sparse normalization
    matches forward_dense bit for bit on weighted graphs.
    """
    return 1.0 / np.sqrt(a_hat.sum(axis=-1))


def forward_dense(
    m: ModelSpec,
    adjacency: np.ndarray,
    features: np.ndarray,
    counter: ForwardCounter | None = None,
) -> Prediction:
    """One full model evaluation phi(A, X) over a dense adjacency."""
    if features.shape[1] != m.input_dim:
        raise NumericalFailureError(
            f"feature dim {features.shape[1]} != model input dim {m.input_dim}"
        )
    if features.shape[0] == 0:
        raise DataFormatError("cannot evaluate a graph with no nodes")
    if counter is not None:
        counter.tick()
    h = features
    if m.conv_kind == "gcn":
        # D^-1/2 (A + I) D^-1/2 in one buffer; the same operations in the
        # same order as d[:, None] * (A + I) * d[None, :], so bitwise equal.
        norm = np.array(adjacency, dtype=np.float64, order="C")
        norm.flat[:: norm.shape[0] + 1] += 1.0
        d_inv_sqrt = inverse_sqrt_degree(norm)
        norm *= d_inv_sqrt[:, None]
        norm *= d_inv_sqrt[None, :]
        for layer in m.layers:
            h = _relu(norm @ h @ layer.weight + layer.bias)
    else:
        for layer in m.layers:
            agg = (1.0 + layer.epsilon) * h + adjacency @ h
            h = _relu(agg @ layer.w1 + layer.b1) @ layer.w2 + layer.b2
    pooled = h.mean(axis=0) if m.pooling == "mean" else h.sum(axis=0)
    cls = m.classifier
    hidden = _relu(pooled @ cls.w1 + cls.b1)
    logits = hidden @ cls.w2 + cls.b2
    if not np.all(np.isfinite(logits)):
        raise NumericalFailureError("non-finite logits")
    probs = softmax(logits)
    return Prediction(
        logits=logits,
        probabilities=probs,
        predicted_class=int(np.argmax(probs)),
    )


def forward(
    m: ModelSpec,
    g: Graph,
    counter: ForwardCounter | None = None,
    weights: np.ndarray | None = None,
) -> Prediction:
    """Forward on g, or on g with its edges re-weighted to the (E,) vector
    `weights`; g itself is untouched."""
    return forward_dense(m, weighted_adjacency(g, weights), g.features, counter)


def forward_on_edges(
    m: ModelSpec,
    g: Graph,
    mask: np.ndarray,
    counter: ForwardCounter | None = None,
    nodes: np.ndarray | None = None,
) -> Prediction:
    """Forward on the standalone graph made of the undirected edges where the
    boolean (E,) `mask` is set.

    The graph keeps the sorted parent node ids `nodes`, by default exactly
    the endpoints of the kept edges. When no node is kept, all parent nodes
    are evaluated as isolated nodes under a zero adjacency.
    """
    u, v, w = g.edge_u[mask], g.edge_v[mask], g.edge_weight[mask]
    if nodes is None:
        nodes = np.unique(np.concatenate((u, v)))
    if len(nodes) == 0:
        return forward_dense(m, np.zeros((g.n, g.n)), g.features, counter)
    iu = np.searchsorted(nodes, u)
    iv = np.searchsorted(nodes, v)
    adjacency = np.zeros((len(nodes), len(nodes)), dtype=np.float64)
    adjacency[iu, iv] = w
    adjacency[iv, iu] = w
    return forward_dense(m, adjacency, g.features[nodes], counter)


def forward_on_induced(
    m: ModelSpec,
    s: InducedSubgraph,
    counter: ForwardCounter | None = None,
) -> Prediction:
    """Forward on the standalone graph built from an induced subgraph; an
    empty subgraph evaluates all parent nodes under a zero adjacency."""
    nodes = np.array(s.nodes, dtype=np.int64)
    return forward_on_edges(m, s.parent, edge_mask(s.parent, s.edges), counter, nodes)


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
    if obj.get("version") != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported model version {obj.get('version')!r}")
    for key in ("conv_kind", "pooling", "num_classes", "layers", "classifier"):
        if key not in obj:
            raise ModelFormatError(f"model file missing field {key!r}")
    kind = obj["conv_kind"]
    arr = lambda x: np.asarray(x, dtype=np.float64)
    layers: list = []
    if kind == "gcn":
        for lo in obj["layers"]:
            layers.append(GCNLayer(weight=arr(lo["weight"]), bias=arr(lo["bias"])))
    elif kind == "gin":
        eps = obj.get("epsilons", [0.0] * len(obj["layers"]))
        if len(eps) != len(obj["layers"]):
            raise ModelFormatError("epsilons length does not match layer count")
        for lo, e in zip(obj["layers"], eps):
            layers.append(
                GINLayer(
                    w1=arr(lo["w1"]),
                    b1=arr(lo["b1"]),
                    w2=arr(lo["w2"]),
                    b2=arr(lo["b2"]),
                    epsilon=float(e),
                )
            )
    else:
        raise ModelFormatError(f"unknown conv kind {kind!r}")
    cls = obj["classifier"]
    return ModelSpec(
        conv_kind=kind,
        layers=tuple(layers),
        classifier=Classifier(
            w1=arr(cls["w1"]), b1=arr(cls["b1"]), w2=arr(cls["w2"]), b2=arr(cls["b2"])
        ),
        pooling=obj["pooling"],
        num_classes=int(obj["num_classes"]),
    )


def load_model(path) -> ModelSpec:
    with open(path) as fh:
        return model_from_json(fh.read())
