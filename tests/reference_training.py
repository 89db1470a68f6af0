"""References for the trainer, used only by the tests.

`reference_train_gcn` is the trainer as it stood before the nonzero-only
block adjacency: each graph's adjacency is filled one edge at a time and
normalized as the engine reference normalizes it
(`reference_engine.normalized_adjacency`), the blocks are stacked with
`sp.block_diag` (which stores every zero of a dense block), and every epoch
allocates its own messages, activations and backward temporaries. The
library must match it bitwise.

`finite_difference_check` compares the trainer's analytic gradients with
central differences of the mean loss, each loss taken by `edgelens.forward`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from edgelens.models import ModelSpec, forward
from edgelens.training import (
    TraceEntry,
    TrainConfig,
    TrainResult,
    _Batch,
    _batched_loss_and_grads,
    init_gcn,
)

from reference_engine import loop_adjacency, normalized_adjacency


def _model_with_params(m: ModelSpec, params: dict[str, np.ndarray]) -> ModelSpec:
    """m with each parameter array taken from `params`, keyed and ordered as
    m.parameter_arrays() keys and orders them."""
    arrays = iter([params[name] for name in m.parameter_arrays()])
    parts = [
        replace(part, **{name: next(arrays) for name in part.arrays})
        for part in (*m.layers, m.classifier)
    ]
    return replace(m, layers=tuple(parts[:-1]), classifier=parts[-1])


@dataclass(frozen=True)
class GradientCheckReport:
    max_relative_error: float
    tolerance: float
    passed: bool
    worst_parameter: str


def finite_difference_check(
    m: ModelSpec, dataset, h: float = 1e-5, tol: float = 1e-4
) -> GradientCheckReport:
    """Compare every analytic gradient entry against a central difference."""
    if not dataset:
        raise ValueError("dataset is empty")
    _, _, analytic = _batched_loss_and_grads(m, _Batch(dataset, m))

    def mean_loss(params: dict[str, np.ndarray]) -> float:
        model = _model_with_params(m, params)
        total = 0.0
        for rec in dataset:
            probs = forward(model, rec.graph).probabilities
            total += -np.log(max(probs[rec.label], 1e-300))
        return total / len(dataset)

    base = {name: arr.copy() for name, arr in m.parameter_arrays().items()}
    worst = 0.0
    worst_name = ""
    for name, arr in base.items():
        flat = arr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi = mean_loss(base)
            flat[j] = orig - h
            lo = mean_loss(base)
            flat[j] = orig
            fd = (hi - lo) / (2 * h)
            an = analytic[name].reshape(-1)[j]
            rel = abs(an - fd) / max(abs(fd), 1e-6)
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{j}]"
    return GradientCheckReport(
        max_relative_error=worst,
        tolerance=tol,
        passed=worst <= tol,
        worst_parameter=worst_name,
    )


class ReferenceBatch:
    def __init__(self, dataset, pooling: str):
        self.norm = sp.block_diag(
            [normalized_adjacency(loop_adjacency(rec.graph)) for rec in dataset], format="csr"
        )
        self.x = np.vstack([rec.graph.features for rec in dataset])
        self.labels = np.array([rec.label for rec in dataset])
        sizes = [rec.graph.n for rec in dataset]
        g_count = len(dataset)
        rows = np.repeat(np.arange(g_count), sizes)
        if pooling == "mean":
            vals = np.concatenate([np.full(n, 1.0 / n) for n in sizes])
        else:
            vals = np.ones(self.x.shape[0])
        self.pool = sp.csr_matrix(
            (vals, (rows, np.arange(self.x.shape[0]))),
            shape=(g_count, self.x.shape[0]),
        )


def reference_loss_and_grads(m: ModelSpec, batch: ReferenceBatch):
    h = batch.x
    msgs = []
    zs = []
    for layer in m.layers:
        msg = batch.norm @ h
        z = msg @ layer.weight + layer.bias
        h = np.maximum(z, 0.0)
        msgs.append(msg)
        zs.append(z)
    pooled = batch.pool @ h
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
    grads = {
        "classifier.w2": a1.T @ dlogits,
        "classifier.b2": dlogits.sum(axis=0),
    }
    du1 = (dlogits @ cls.w2.T) * (u1 > 0)
    grads["classifier.w1"] = pooled.T @ du1
    grads["classifier.b1"] = du1.sum(axis=0)
    dh = batch.pool.T @ (du1 @ cls.w1.T)
    for k in range(len(m.layers) - 1, -1, -1):
        dz = dh * (zs[k] > 0)
        grads[f"layer{k}.weight"] = msgs[k].T @ dz
        grads[f"layer{k}.bias"] = dz.sum(axis=0)
        if k > 0:
            dh = batch.norm.T @ (dz @ m.layers[k].weight.T)
    return loss, accuracy, grads


def reference_train_gcn(dataset, arch: dict, cfg: TrainConfig) -> TrainResult:
    pooling = arch.get("pooling", "mean")
    model = init_gcn(
        input_dim=dataset[0].graph.d,
        num_layers=arch["num_layers"],
        hidden_dim=arch["hidden_dim"],
        num_classes=arch["num_classes"],
        pooling=pooling,
        seed=cfg.seed,
        init_scale=cfg.init_scale,
    )
    params = {name: arr.copy() for name, arr in model.parameter_arrays().items()}
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    trace = []
    batch = ReferenceBatch(dataset, pooling)
    for epoch in range(cfg.epochs):
        current = _model_with_params(model, params)
        loss, accuracy, grads = reference_loss_and_grads(current, batch)
        trace.append(TraceEntry(epoch=epoch, loss=loss, accuracy=accuracy))
        if accuracy >= cfg.target_train_accuracy:
            break
        for name in params:
            velocity[name] = (
                cfg.momentum * velocity[name] - cfg.learning_rate * grads[name]
            )
            params[name] = params[name] + velocity[name]
    return TrainResult(model=_model_with_params(model, params), trace=tuple(trace))
