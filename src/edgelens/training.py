"""Full-batch GCN training with hand-derived analytic gradients.

Keeps the acceptance experiments self-contained: plain gradient descent with
momentum over mean cross-entropy, reverse accumulation through pooling and
the normalized-adjacency message passing. Deterministic given the seed
(PRNG: numpy default_rng, i.e. PCG64, seeded directly with `seed`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, NumericalFailureError
from .graphs import Graph, check_count, is_real
from .models import (
    CSR,
    Classifier,
    GCNLayer,
    ModelSpec,
    csr_matmul,
    csr_matmul_t,
    csr_operator,
    csr_pattern,
    csr_values,
)


def _check_init(seed, init_scale) -> None:
    """ValueError unless seed is an integer >= 0 and init_scale a finite
    real >= 0."""
    check_count("seed", seed, least=0)
    if not (is_real(init_scale) and 0.0 <= init_scale < np.inf):
        raise ValueError(f"init_scale must be finite and >= 0, got {init_scale!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    init_scale: float = 0.3
    # Training stops after the first epoch whose train accuracy reaches
    # this; a value above 1, math.inf included, never stops early.
    target_train_accuracy: float = 1.0

    def __post_init__(self):
        if not (is_real(self.learning_rate) and 0.0 <= self.learning_rate < np.inf):
            raise ValueError("learning_rate must be finite and >= 0")
        check_count("epochs", self.epochs)
        if not (is_real(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        _check_init(self.seed, self.init_scale)
        if not (is_real(self.target_train_accuracy) and self.target_train_accuracy >= 0.0):
            raise ValueError(
                f"target_train_accuracy must be a real >= 0, got {self.target_train_accuracy!r}"
            )


@dataclass(frozen=True)
class TraceEntry:
    epoch: int
    loss: float
    accuracy: float


@dataclass(frozen=True)
class TrainResult:
    model: ModelSpec
    trace: tuple[TraceEntry, ...]

    @property
    def final_accuracy(self) -> float:
        return self.trace[-1].accuracy

    @property
    def final_loss(self) -> float:
        return self.trace[-1].loss

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            for t in self.trace:
                fh.write(f"{t.epoch}\t{float(t.loss)!r}\t{float(t.accuracy)!r}\n")


def init_gcn(
    input_dim: int,
    num_layers: int,
    hidden_dim: int,
    num_classes: int,
    pooling: str = "mean",
    seed: int = 0,
    init_scale: float = 0.3,
) -> ModelSpec:
    """Uniform(-init_scale, init_scale) on every parameter, biases included.

    Nonzero biases matter: with constant node features and zero biases each
    relu layer maps a nonnegative scalar multiple of a vector to another
    one, so the whole network collapses to a single scalar per graph.
    """
    for name, value in (
        ("input_dim", input_dim),
        ("num_layers", num_layers),
        ("hidden_dim", hidden_dim),
        ("num_classes", num_classes),
    ):
        check_count(name, value)
    _check_init(seed, init_scale)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-init_scale, init_scale, size=shape)

    # Every array drawn in parameter_arrays() order.
    dims = [input_dim] + [hidden_dim] * num_layers
    layers = tuple(GCNLayer(draw(a, b), draw(b)) for a, b in zip(dims, dims[1:]))
    classifier = Classifier(
        draw(hidden_dim, hidden_dim),
        draw(hidden_dim),
        draw(hidden_dim, num_classes),
        draw(num_classes),
    )
    return ModelSpec(
        conv_kind="gcn",
        layers=layers,
        classifier=classifier,
        pooling=pooling,
        num_classes=num_classes,
    )


def _check_dataset(dataset, num_classes: int) -> int:
    """Validate a training dataset; returns the feature dimension its graphs share."""
    if not dataset:
        raise DataFormatError("dataset is empty")
    input_dim = dataset[0].graph.d
    for i, rec in enumerate(dataset):
        if rec.graph.n == 0:
            raise DataFormatError(f"graph {i} has no nodes")
        if rec.graph.d != input_dim:
            raise DataFormatError("all graphs must share one feature dimension")
        if not 0 <= rec.label < num_classes:
            raise DataFormatError(
                f"graph {i}: label {rec.label} outside [0, {num_classes})"
            )
    return input_dim


class _Batch:
    """All graphs stacked into one block-diagonal system, so an epoch is a
    handful of sparse matmuls instead of a Python loop over the dataset.

    `norm` is the CSR operator of the dataset's graphs as the disjoint
    blocks of one graph, its values from models.csr_values: a degree sums
    its node's row only, so each block is its graph's D^-1/2 (A + I) D^-1/2
    as the explainer normalizes it, without the zeros of a dense block. The
    backward takes its products by norm.T and pool.T from these same
    arrays, through models.csr_matmul_t; no transposed copy is stored. The
    batch also owns every per-node array an epoch writes, shaped for the
    layers of `m`, and keeps them between epochs: freed at the end of an
    epoch, their pages can go back to the kernel and the next epoch faults
    them in again. Whether they do depends on the allocator's thresholds,
    which whatever else the process imported has moved, so an epoch
    allocates no per-node array at all. It keeps only what the backward
    pass reads:

    - `msgs[k]`, the message norm @ h_{k-1} into layer k, which layer k's
      weight gradient reads. msgs[0] = norm @ x does not depend on the
      parameters and is computed once. Once that gradient is taken, the
      backward pass writes dz_k @ W_k.T, of the same shape, over msgs[k]
      (k >= 1).
    - `active[k]`, a boolean mask of where layer k's activation is > 0,
      which is where its pre-activation is: all the ReLU backward needs.
    - `node`, one flat buffer that holds each activation in turn in the
      forward pass, the last one until it is pooled, and then each
      gradient dz in the backward pass, through `node_view`.

    Three epochs on the 200-graph corpus (2000 nodes, 3 layers of 32) peak
    at 2.66 MiB traced; `test_epoch_working_set` bounds it.
    """

    def __init__(self, dataset, m: ModelSpec):
        graphs = [rec.graph for rec in dataset]
        sizes = np.array([g.n for g in graphs])
        offsets = np.cumsum(sizes) - sizes
        n_total = int(sizes.sum())
        shift = np.repeat(offsets, [g.num_undirected_edges for g in graphs])
        whole = Graph(
            np.vstack([g.features for g in graphs]),
            np.concatenate([g.edge_u for g in graphs]) + shift,
            np.concatenate([g.edge_v for g in graphs]) + shift,
            np.concatenate([g.edge_weight for g in graphs]),
        )
        pattern = csr_pattern(whole.edge_u, whole.edge_v, n_total, self_loops=True)
        everything = np.ones((1, n_total), dtype=bool)
        values = csr_values(whole, pattern, whole.edge_weight[None], everything, gcn=True)
        self.norm = csr_operator(pattern[0], pattern[1], values[0], (n_total, n_total))

        self.x = whole.features
        self.labels = np.array([rec.label for rec in dataset])
        if m.pooling == "mean":
            weights = np.repeat(1.0 / sizes, sizes)
        else:
            weights = np.ones(n_total)
        self.pool = CSR(
            np.append(offsets, n_total), np.arange(n_total), weights, (len(graphs), n_total)
        )

        widths = [layer.weight.shape[1] for layer in m.layers]
        self.msgs = [csr_matmul(self.norm, self.x)] + [np.empty((n_total, w)) for w in widths[:-1]]
        self.active = [np.empty((n_total, w), dtype=bool) for w in widths]
        self.node = np.empty(n_total * max(widths))

    def node_view(self, width: int) -> np.ndarray:
        """The node buffer as a C-contiguous (n_total, width) array."""
        return self.node[: self.x.shape[0] * width].reshape(-1, width)


def _batched_loss_and_grads(
    m: ModelSpec, batch: _Batch
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Mean loss, accuracy and mean-cross-entropy gradients over the batch.

    ReLU subgradient at 0 is taken as 0 throughout. Overwrites the batch's
    buffers; the returned gradients are fresh arrays.
    """
    for k, layer in enumerate(m.layers):
        if k > 0:
            csr_matmul(batch.norm, h, out=batch.msgs[k])
        h = batch.node_view(layer.weight.shape[1])
        np.matmul(batch.msgs[k], layer.weight, out=h)
        h += layer.bias
        np.maximum(h, 0.0, out=h)
        np.greater(h, 0.0, out=batch.active[k])  # relu(z) > 0 exactly where z > 0
    pooled = csr_matmul(batch.pool, h)
    cls = m.classifier
    u1 = pooled @ cls.w1 + cls.b1
    a1 = np.maximum(u1, 0.0)
    logits = a1 @ cls.w2 + cls.b2
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    g_count = len(batch.labels)
    idx = np.arange(g_count)
    picked = np.maximum(probs[idx, batch.labels], 1e-300)
    loss = float(-np.log(picked).mean())
    accuracy = float((probs.argmax(axis=1) == batch.labels).mean())

    dlogits = probs.copy()
    dlogits[idx, batch.labels] -= 1.0
    dlogits /= g_count
    # Each (weight, bias) gradient pair goes in front of the later ones, so
    # `out` ends in parameter_arrays() order.
    out = [a1.T @ dlogits, dlogits.sum(axis=0)]
    du1 = (dlogits @ cls.w2.T) * (u1 > 0)
    out[:0] = [pooled.T @ du1, du1.sum(axis=0)]
    dz = csr_matmul_t(batch.pool, du1 @ cls.w1.T, out=h)
    for k in range(len(m.layers) - 1, -1, -1):
        dz *= batch.active[k]
        out[:0] = [batch.msgs[k].T @ dz, dz.sum(axis=0)]
        if k > 0:
            np.matmul(dz, m.layers[k].weight.T, out=batch.msgs[k])
            dz = batch.node_view(batch.msgs[k].shape[1])
            csr_matmul_t(batch.norm, batch.msgs[k], out=dz)
    return loss, accuracy, dict(zip(m.parameter_arrays(), out))


def train_gcn(dataset, arch: dict, cfg: TrainConfig) -> TrainResult:
    """Full-batch momentum gradient descent on mean cross-entropy.

    arch: {"num_layers", "hidden_dim", "num_classes", "pooling"(optional)};
    a missing or unknown key raises ValueError.
    Stops early once train accuracy reaches cfg.target_train_accuracy.
    A diverging run raises NumericalFailureError with no numpy warning: the
    epochs run with overflow and invalid operations ignored.
    """
    required = ("num_layers", "hidden_dim", "num_classes")
    missing = [key for key in required if key not in arch]
    unknown = [key for key in arch if key not in (*required, "pooling")]
    if missing or unknown:
        raise ValueError(f"arch keys: missing {missing}, unknown {unknown}")
    # The dataset check compares labels with num_classes, so it goes first.
    check_count("num_classes", arch["num_classes"])
    model = init_gcn(
        input_dim=_check_dataset(dataset, arch["num_classes"]),
        num_layers=arch["num_layers"],
        hidden_dim=arch["hidden_dim"],
        num_classes=arch["num_classes"],
        pooling=arch.get("pooling", "mean"),
        seed=cfg.seed,
        init_scale=cfg.init_scale,
    )
    # Each step updates the model's own arrays in place.
    params = model.parameter_arrays()
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    trace: list[TraceEntry] = []
    batch = _Batch(dataset, model)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss, accuracy, grads = _batched_loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise NumericalFailureError(
                    "training diverged (non-finite loss); try a smaller learning rate"
                )
            trace.append(TraceEntry(epoch=epoch, loss=loss, accuracy=accuracy))
            if accuracy >= cfg.target_train_accuracy:
                break
            for name, arr in params.items():
                velocity[name] = (
                    cfg.momentum * velocity[name] - cfg.learning_rate * grads[name]
                )
                arr += velocity[name]
    # replace() builds a new ModelSpec, which validates the final parameters.
    return TrainResult(model=replace(model), trace=tuple(trace))
