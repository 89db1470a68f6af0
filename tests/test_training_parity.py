"""The trainer against the allocation-per-epoch reference in
reference_training.py: traces, parameters and gradients must be bitwise
equal, on the frozen corpus under mean pooling and on weighted graphs of
mixed sizes under sum pooling."""

import math

import numpy as np
import pytest

from edgelens import Graph, TrainConfig, gen_ba2motifs_mini, init_gcn, train_gcn
from edgelens.data import DatasetRecord
from edgelens.models import csr_matmul_t
from edgelens.training import _Batch, _batched_loss_and_grads

from conftest import assert_one_gcn_normalization, scipy_csr
from reference_training import (
    ReferenceBatch,
    reference_loss_and_grads,
    reference_train_gcn,
)

CORPUS_ARCH = {"num_layers": 3, "hidden_dim": 32, "num_classes": 2}
WEIGHTED_ARCH = {"num_layers": 2, "hidden_dim": 8, "num_classes": 3, "pooling": "sum"}


@pytest.fixture(scope="module")
def corpus():
    return gen_ba2motifs_mini(n_graphs=200, base_nodes=5, seed=7)


def weighted_dataset(seed=5, count=40, feature_dim=4):
    """Graphs of 2 to 14 nodes with weights in (0, 1) and random features,
    so degrees are not small integers and the batch mixes graph sizes."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(2, 15))
        pairs = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(2 * n)}
        edges = [(u, v, float(rng.uniform(0.05, 1.0))) for u, v in sorted(pairs)]
        g = Graph.undirected(rng.uniform(-1.0, 1.0, size=(n, feature_dim)), edges)
        out.append(
            DatasetRecord(graph=g, label=i % 3, gt_edge_mask=(0,) * len(edges), motif_count=0)
        )
    return out


def assert_same_result(a, b):
    assert a.trace == b.trace
    pa, pb = a.model.parameter_arrays(), b.model.parameter_arrays()
    assert pa.keys() == pb.keys()
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


def assert_same_grads(got, want):
    loss, accuracy, grads = got
    ref_loss, ref_accuracy, ref_grads = want
    assert (loss, accuracy) == (ref_loss, ref_accuracy)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


def no_stop(**kw):
    return TrainConfig(target_train_accuracy=math.inf, **kw)


def test_train_matches_reference_on_corpus(corpus):
    cfg = no_stop(epochs=40, learning_rate=0.4, momentum=0.9, seed=3)
    assert_same_result(
        train_gcn(corpus, CORPUS_ARCH, cfg), reference_train_gcn(corpus, CORPUS_ARCH, cfg)
    )


def test_train_matches_reference_on_weighted_sum_pooled_graphs():
    ds = weighted_dataset()
    cfg = no_stop(epochs=60, learning_rate=0.05, momentum=0.9, seed=1)
    assert_same_result(
        train_gcn(ds, WEIGHTED_ARCH, cfg), reference_train_gcn(ds, WEIGHTED_ARCH, cfg)
    )


@pytest.mark.parametrize("which", ["corpus", "weighted"])
def test_block_adjacency_is_the_dense_blocks_without_zeros(corpus, which):
    ds = corpus if which == "corpus" else weighted_dataset()
    m = init_gcn(ds[0].graph.d, 2, 8, 3, pooling="sum")
    norm = scipy_csr(_Batch(ds, m).norm)
    stored = ReferenceBatch(ds, "sum").norm
    dense = stored.toarray()
    assert norm.has_sorted_indices
    assert np.all(norm.data != 0.0)
    assert norm.nnz == np.count_nonzero(dense)
    assert np.array_equal(norm.toarray(), dense)
    if which == "corpus":
        assert (norm.nnz, stored.nnz) == (6200, 20000)


@pytest.mark.parametrize("d", [1, 8])
@pytest.mark.parametrize("pooling", ["mean", "sum"])
@pytest.mark.parametrize("which", ["corpus", "weighted"])
def test_batch_transposed_products_are_scipy_products(corpus, which, pooling, d):
    """The trainer's backward products by norm.T and pool.T, csr_matmul_t of
    the batch's own operators, are bitwise scipy's op.T @ h, the products
    the reference trainer takes."""
    ds = corpus if which == "corpus" else weighted_dataset()
    batch = _Batch(ds, init_gcn(ds[0].graph.d, 2, 8, 3, pooling=pooling))
    rng = np.random.default_rng(d)
    for op in (batch.norm, batch.pool):
        h = rng.uniform(-1.0, 1.0, size=(op.shape[0], d))
        got = csr_matmul_t(op, h)
        assert got.shape == (op.shape[1], d)
        np.testing.assert_array_equal(got, scipy_csr(op).T @ h)


def test_batch_normalizes_as_the_engine():
    assert_one_gcn_normalization([rec.graph for rec in weighted_dataset()])


def test_batch_evaluated_twice_matches_reference(corpus):
    m = init_gcn(10, 3, 32, 2, seed=11)
    batch = _Batch(corpus, m)
    want = reference_loss_and_grads(m, ReferenceBatch(corpus, "mean"))
    assert_same_grads(_batched_loss_and_grads(m, batch), want)
    assert_same_grads(_batched_loss_and_grads(m, batch), want)


def test_interleaved_models_on_one_batch_match_reference():
    # two models share one batch's buffers; a stale or aliased buffer would
    # leak one model's activations into the other's gradients
    ds = weighted_dataset(seed=6)
    models = [
        init_gcn(4, 2, 8, 3, pooling="sum", seed=seed, init_scale=0.5) for seed in (12, 13)
    ]
    batch = _Batch(ds, models[0])
    reference = ReferenceBatch(ds, "sum")
    wants = [reference_loss_and_grads(m, reference) for m in models]
    for m, want in list(zip(models, wants)) * 2:
        assert_same_grads(_batched_loss_and_grads(m, batch), want)
