"""The row engine against the loop-built references in reference_engine.py:
every probability, score and fidelity must be bitwise equal, on BA-2Motifs
graphs of about 25, 60 and 205 nodes, under a GCN and a GIN. Graphs below
models.CSR_MAX_FILL take the CSR path and match the loop CSR reference
bitwise and the dense one to 1e-12; the others match the dense one
bitwise."""

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
    linear_search,
    oracle_report,
    sa_edge_scores,
)
from edgelens import models
from edgelens.data import DatasetRecord
from edgelens.models import STACK_BYTES, csr_matmul, csr_matmul_t, forward_rows, subgraph_rows

from conftest import (
    assert_one_gcn_normalization,
    gin_model,
    overflowing,
    path_graph,
    reweighted,
    with_weights,
)
from reference_engine import (
    loop_adjacency,
    loop_brute_force,
    loop_csr_probabilities,
    loop_fidelities,
    loop_ig_scores,
    loop_probabilities,
    loop_probabilities_on_edges,
    loop_scores,
    normalized_adjacency,
)

FEATURES = 10


MODELS = {
    "gcn": lambda: init_gcn(FEATURES, 3, 32, 2, seed=21, init_scale=0.3),
    "gin": lambda: gin_model(22, FEATURES, hidden=32, num_layers=3),
}
# The reference-parity tests also run the GIN at epsilon 0, the default,
# where forward_dense adds h itself onto A h.
PARITY_MODELS = {
    **MODELS,
    "gin-eps0": lambda: gin_model(22, FEATURES, hidden=32, num_layers=3, epsilon=0.0),
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


@pytest.mark.parametrize("kind", sorted(PARITY_MODELS))
@pytest.mark.parametrize(
    "base_nodes, weighted", [(20, False), (20, True), (200, False)], ids=["n25", "n25w", "n205"]
)
def test_every_prefix_matches_reference(kind, base_nodes, weighted):
    m = PARITY_MODELS[kind]()
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


@pytest.mark.parametrize("seed", [21, 23, 31])
def test_dense_and_csr_paths_share_one_degree_order(seed):
    """On a weighted 25-node graph a pairwise degree sum would differ from
    the sequential one in the last bit: the dense stack, the CSR operator
    and the trainer's batch must normalize alike."""
    assert_one_gcn_normalization([ba_graph(20, seed, weighted=True)])


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("d", [1, 7, 32])
def test_csr_matmul_is_scipy_product(index_dtype, d):
    """models.csr_matmul and csr_matmul_t call scipy's kernels directly:
    pinned bitwise to operator @ h and operator.T @ g (the trainer's
    backward), so a scipy release that moves or changes a kernel fails
    here. The same bits when either overwrites a given buffer, and either
    refuses an `out` that overlaps its input."""
    rng = np.random.default_rng(33)
    a = sp.random(205, 180, density=0.02, format="csr", random_state=34)
    a.indices = a.indices.astype(index_dtype)
    a.indptr = a.indptr.astype(index_dtype)
    op = models.CSR(a.indptr, a.indices, a.data, a.shape)
    h = rng.uniform(-1.0, 1.0, size=(180, d))
    got = csr_matmul(op, h)
    assert a.indices.dtype == a.indptr.dtype == index_dtype
    np.testing.assert_array_equal(got, a @ h)

    buffer = np.full((205, d), np.nan)
    assert csr_matmul(op, h, out=buffer) is buffer
    np.testing.assert_array_equal(buffer, got)
    for bad in (np.empty((205, 2 * d))[:, ::2], np.empty((205, d), dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            csr_matmul(op, h, out=bad)

    g = rng.uniform(-1.0, 1.0, size=(205, d))
    got_t = csr_matmul_t(op, g)
    np.testing.assert_array_equal(got_t, a.T @ g)
    buffer = np.full((180, d), np.nan)
    assert csr_matmul_t(op, g, out=buffer) is buffer
    np.testing.assert_array_equal(buffer, got_t)
    with pytest.raises(ValueError, match="share memory"):
        csr_matmul_t(op, g, out=g[:180])


def test_csr_matmul_rejects_out_overlapping_h():
    """csr_matmul zeroes `out` before its kernel reads `h`, so an `out`
    that overlaps `h` would give zeros: it is refused, as `h` itself and as
    a view into `h`'s memory. A disjoint part of the same buffer is fine."""
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    op = models.CSR(np.array([0, 2, 4]), np.array([0, 1, 0, 1]), a.ravel(), a.shape)
    buffer = np.ones(8)
    h = buffer[:4].reshape(2, 2)
    for overlapping in (h, buffer[2:6].reshape(2, 2)):
        with pytest.raises(ValueError, match="share memory"):
            csr_matmul(op, h, out=overlapping)
    np.testing.assert_array_equal(h, np.ones((2, 2)))
    disjoint = buffer[4:].reshape(2, 2)
    assert csr_matmul(op, h, out=disjoint) is disjoint
    np.testing.assert_array_equal(disjoint, [[3.0, 3.0], [7.0, 7.0]])


def given_rows(m, g, weights, nodes):
    """forward_rows of the given (B, E) weights and boolean (B, n) nodes."""
    return forward_rows(m, g, len(weights), lambda lo, hi: (weights[lo:hi], nodes[lo:hi]))


def matmul_pooled(m, operator, features, kept=None):
    """forward_dense's pass as written with the @ operator, each product
    first checked bitwise against the np.dot call forward_dense makes."""
    sparse = not isinstance(operator, np.ndarray)
    propagate = (lambda h: csr_matmul(operator, h)) if sparse else (lambda h: product(operator, h))
    h = features
    for layer in m.layers:
        if m.conv_kind == "gcn":
            h = np.maximum(product(propagate(h), layer.weight) + layer.bias, 0.0)
        else:
            agg = propagate(h) + (1.0 + layer.epsilon) * h
            h = product(np.maximum(product(agg, layer.w1) + layer.b1, 0.0), layer.w2) + layer.b2
    if kept is not None:
        h = h[kept]
    pooled = np.add.reduce(h, 0)
    if m.pooling == "mean":
        pooled /= h.shape[0]
    return pooled


def product(a, b):
    """a @ b, checked bitwise against np.dot(a, b)."""
    np.testing.assert_array_equal(np.dot(a, b), a @ b, err_msg=f"{a.shape} x {b.shape}")
    return a @ b


def gemv_logits(m, pooled):
    """The classifier on one (d,) pooled row: the gemv products np.dot
    makes on a 1-D input, each checked bitwise against @."""
    cls = m.classifier
    hidden = np.maximum(product(pooled, cls.w1) + cls.b1, 0.0)
    return product(hidden, cls.w2) + cls.b2


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("d", [1, 7, 32])
def test_dot_is_matmul_in_every_forward_product(kind, d):
    """forward_dense makes its BLAS products with np.dot, which skips the @
    operator's dispatch. Pinned bitwise to @ for every product shape a
    pass makes: the (s, s) operator times (s, d) features (s = 1 gives a
    1 x 1 operator, which np.dot treats as a scalar), the layer weights,
    and the classifier's 1-D input (a gemv), for dense and CSR operators.
    readout's logits of the pooled row are those of the gemv form. A numpy
    or BLAS release that routes one of them differently fails here."""
    rng = np.random.default_rng(40 + d)
    m = (
        init_gcn(d, 2, d, 3, seed=41, init_scale=0.3)
        if kind == "gcn"
        else gin_model(42, d, hidden=d, num_layers=2, num_classes=3)
    )

    def check(op, x, kept=None):
        got = models.forward_dense(m, op, x, models.tiled_biases(m, len(x)), kept)
        want = matmul_pooled(m, op, x, kept)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(models.readout(m, got[None])[0], gemv_logits(m, want))

    for s in (1, 2, 10, 25):
        a = np.triu(rng.uniform(size=(s, s)) * (rng.uniform(size=(s, s)) < 0.4), 1)
        a += a.T
        op = normalized_adjacency(a) if kind == "gcn" else a
        check(op, rng.uniform(-1.0, 1.0, size=(s, d)))
    g = ba_graph(200, seed=43, weighted=False)
    x = rng.uniform(-1.0, 1.0, size=(g.n, d))
    pattern = models.csr_pattern(g.edge_u, g.edge_v, g.n, self_loops=kind == "gcn")
    kept = rng.uniform(size=(1, g.n)) < 0.5
    values = models.csr_values(g, pattern, g.edge_weight[None], kept, kind == "gcn")[0]
    check(models.csr_operator(*pattern[:2], values, (g.n, g.n)), x, kept[0])


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("d", [1, 7, 32])
@pytest.mark.parametrize("b", [1, 2, 650, 2047])
def test_stacked_readout_is_the_per_row_gemv(kind, d, b):
    """readout runs the classifier on a chunk's (b, d) pooled rows in one
    np.matmul per product, over (b, 1, d) stacks. Each row must get the
    bits of np.dot on that row alone, the gemv the per-row pass made; a
    (b, d) x (d, h) gemm groups its sums differently. Rows span scales from
    1e-3 to 1e3 and include zeros, signed zeros and negative entries, so
    that some hidden units are cut by the ReLU. A numpy or BLAS release
    that turns the stack into one gemm fails here."""
    rng = np.random.default_rng(48 + d + b)
    m = (
        init_gcn(d, 1, d, 3, seed=49, init_scale=0.3)
        if kind == "gcn"
        else gin_model(50, d, hidden=d, num_layers=1, num_classes=3)
    )
    pooled = rng.normal(size=(b, d)) * 10.0 ** rng.integers(-3, 4, size=(b, 1))
    pooled[rng.uniform(size=(b, d)) < 0.1] = 0.0
    pooled[rng.uniform(size=(b, d)) < 0.05] = -0.0
    got = models.readout(m, pooled)
    assert got.shape == (b, 3)
    cls = m.classifier
    for row, logits in zip(pooled, got):
        hidden = np.dot(row, cls.w1)
        hidden += cls.b1
        want = np.dot(np.maximum(hidden, 0.0, out=hidden), cls.w2)
        want += cls.b2
        np.testing.assert_array_equal(logits, want)


def per_row_softmax(logits):
    """The softmax forward_dense took of its own logits before
    forward_rows took it once per batch."""
    probs = np.exp(logits - max(logits.tolist()))
    probs /= np.add.reduce(probs)
    return probs


@pytest.mark.parametrize("num_classes", [2, 3, 7, 16])
def test_batch_softmax_is_per_row_softmax(num_classes):
    """softmax_rows on a (B, C) batch gives each row the bits of the per-row
    form: rows spread from 1e-3 to 1e4, far enough that exp underflows to
    subnormals and to 0, tied maxima, all-equal rows and signed zeros."""
    rng = np.random.default_rng(44)
    rows = [rng.normal(size=(40, num_classes)) * scale for scale in (1e-3, 1.0, 30.0, 745.0, 1e4)]
    ties = rng.normal(size=(40, num_classes))
    ties[:, 1] = ties[:, 0] = ties.max(axis=1)
    zeros = np.zeros((3, num_classes))
    zeros[1] = -0.0
    zeros[2, ::2] = -0.0
    underflow = np.zeros((2, num_classes))
    underflow[:, 1:] = [[-745.0], [-760.0]]
    logits = np.concatenate(rows + [ties, zeros, np.ones((1, num_classes)), underflow])
    rng.shuffle(logits)
    got = models.softmax_rows(logits)
    assert got.shape == logits.shape
    for row, probs in zip(logits, got):
        np.testing.assert_array_equal(probs, per_row_softmax(row))
    assert (got == 0.0).any() and ((got > 0.0) & (got < np.finfo(float).tiny)).any()


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("base_nodes", [20, 200], ids=["dense", "csr"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_row_inside_a_batch_fails_typed(kind, base_nodes, bad, monkeypatch):
    """The middle row of a batch with a non-finite pooled embedding, so that
    readout gives it non-finite logits: NumericalFailureError from
    forward_rows after all 5 passes, with no numpy warning, on either
    path."""
    m = MODELS[kind]()
    g = ba_graph(base_nodes, seed=45, weighted=True)
    assert takes_csr_path(g) == (base_nodes == 200)
    weights = np.repeat(g.edge_weight[None], 5, axis=0)
    nodes = np.ones((5, g.n), dtype=bool)
    passes = []
    real = models.forward_dense

    def spoiled(*args):
        pooled = real(*args)
        passes.append(len(passes))
        if len(passes) == 3:
            pooled[:] = bad
        return pooled

    monkeypatch.setattr(models, "forward_dense", spoiled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="non-finite logits"):
            given_rows(m, g, weights, nodes)
    assert len(passes) == 5


CLOSED_FORM_PASSES = {
    "linear-gradient": lambda e: 3 * e + 1,
    "sa": lambda e: 4 * e + 1,
    "ig": lambda e: 1 + 50 * (e + 1) + 2 * e,
}


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_forward_dense_runs_the_closed_form_number_of_times(path, forward_dense_calls):
    """The benchmark's traced check, in tier-1: models.forward_dense,
    wrapped on the module, receives (m, operator) positionally and runs
    exactly the closed-form number of times per explanation and per oracle
    report (explain, its original pass, two per nonempty edge subset).
    Each stage reports the passes it ran: a scorer's EdgeScores.passes and
    linear_search's forward_passes_used are its counted calls."""
    if path == "dense":
        g = Graph.undirected(
            np.random.default_rng(46).uniform(size=(7, FEATURES)),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4), (4, 5), (5, 6)],
        )
    else:
        # 60 nodes and 6 edges fill 72 / 3600 cells, under CSR_MAX_FILL.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 40), (40, 59)]
        g = Graph.undirected(np.random.default_rng(47).uniform(size=(60, FEATURES)), edges)
    assert takes_csr_path(g) == (path == "csr")
    num_edges = g.num_undirected_edges
    calls = forward_dense_calls
    operator_type = models.CSR if path == "csr" else np.ndarray

    def ran():
        """The passes since the last ran(), each checked to get the path's
        operator (on the CSR path, of the graph's shape)."""
        for op in calls:
            assert isinstance(op, operator_type)
            assert path == "dense" or op.shape == (g.n, g.n)
        passes = len(calls)
        calls.clear()
        return passes

    ranked = tuple(range(num_edges))
    for kind in sorted(MODELS):
        m = MODELS[kind]()
        for method, passes in CLOSED_FORM_PASSES.items():
            e = explain(m, g, method=method)
            assert ran() == e.forward_passes_used == passes(num_edges), (kind, method)
        original = forward(m, g)
        assert ran() == 1
        scorers = {
            "linear-gradient": (lambda: linear_gradient_scores(m, g, 0), num_edges + 1),
            "linear-gradient given the original": (
                lambda: linear_gradient_scores(m, g, 0, original),
                num_edges,
            ),
            "sa": (lambda: sa_edge_scores(m, g, 0), 2 * num_edges),
            "ig": (lambda: ig_edge_scores(m, g, 0, steps=3), 3 * (num_edges + 1)),
        }
        for name, (score, passes) in scorers.items():
            assert score().passes == ran() == passes, (kind, name)
        # Two passes per candidate prefix: |E| of them, or |E| - 2 for "paper".
        for k_range, candidates in (("full", num_edges), ("paper", num_edges - 2)):
            for given, own in ((original, 0), (None, 1)):
                e = linear_search(m, g, ranked, 0, k_range, given)
                want = 2 * candidates + own
                assert ran() == e.forward_passes_used == want, (kind, k_range, own)
        brute_force_best_subgraph(m, g, 0)
        assert ran() == 1 + 2 * (2**num_edges - 1), kind
        oracle_report(m, [DatasetRecord(g, 0, (0,) * num_edges, 0)])
        assert ran() == (3 * num_edges + 1) + 1 + 2 * (2**num_edges - 1), kind


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
    leading dimension of its result) to the returned list: the number of
    rows built, for weighted_adjacency and csr_values."""
    built = []
    for name in names:
        build = getattr(models, name)

        def recorded(*args, name=name, build=build):
            out = build(*args)
            built.append((name, out.shape[0]))
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
    """Subset rows scored 7 at a time, with the byte bound patched down to 7
    rows of E weights: the winner, ties split across chunks included, must
    not depend on the chunk boundaries."""
    m = MODELS[kind]()
    g = Graph.undirected(*BLOCK_GRAPHS[name])
    monkeypatch.setattr(models, "STACK_BYTES", 8 * g.num_undirected_edges * 7)
    for c in (0, 1):
        assert brute_force_best_subgraph(m, g, c) == loop_brute_force(m, g, c)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_weight_zero_is_deletion_at_205_nodes(kind):
    m = MODELS[kind]()
    g = ba_graph(200, seed=24, weighted=True)
    for e in np.random.default_rng(25).choice(g.num_undirected_edges, 6, replace=False):
        zeroed = forward(m, with_weights(g, reweighted(g, [e], 0.0)))
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
    _, got = given_rows(m, g, weights[order], nodes[order])
    full = [b for b, s, _ in built if s == g.n]
    assert len(full) >= 2 and max(full) <= per_chunk and sum(b for b, _, _ in built) == len(order)
    for probs, i in zip(got, order):
        if i < len(reweights):
            overrides = dict(enumerate(reweights[i].tolist()))
            want = loop_probabilities(m, loop_adjacency(g, overrides), g.features)
        else:
            want = loop_probabilities_on_edges(m, g, np.flatnonzero(kept[i - len(reweights)]))
        np.testing.assert_array_equal(probs, want)


@pytest.mark.parametrize("kind", sorted(PARITY_MODELS))
def test_mixed_row_batch_through_csr_matches_reference(kind, monkeypatch):
    """The CSR path's form of the test above: on a 205-node graph, with the
    byte bound patched down to 4 rows of values per chunk, re-weighted rows
    and fidelity rows of several node counts in one batch, the empty mask,
    the full mask and a kept 0-weight edge among them, plus node-induced
    rows, whose edges to dropped nodes carry nonzero weights."""
    m = PARITY_MODELS[kind]()
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
    _, got = given_rows(m, g, weights[order], nodes[order])
    chunks = [b for _, b in built]
    assert len(chunks) >= 2 and max(chunks) == per_chunk and sum(chunks) == len(order)
    references = (loop_csr_probabilities, loop_probabilities)
    for probs, i in zip(got, order):
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
        np.testing.assert_array_equal(probs, want[0])
        np.testing.assert_allclose(probs, want[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_one_graph_on_each_side_of_the_switch(kind, monkeypatch):
    """A 25-node graph with CSR_MAX_FILL patched just above its fill takes
    the CSR path, just below it the dense path: each explanation matches
    its own reference bitwise, and the two agree to 1e-12. Both paths take
    their values from csr_values; the dense path lays them out with
    weighted_adjacency, the CSR path with csr_operator."""
    m = MODELS[kind]()
    g = ba_graph(20, seed=31, weighted=True)
    fill = (2 * g.num_undirected_edges + g.n) / g.n**2
    built = record_builds(monkeypatch, "weighted_adjacency", "csr_operator")
    got = {}
    for limit, path, reference in (
        (1.001 * fill, "csr_operator", loop_csr_probabilities),
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
    csr = got["csr_operator"]
    np.testing.assert_allclose(csr.scores, got["weighted_adjacency"].scores, rtol=0, atol=1e-12)
    dense = loop_fidelities(m, g, csr.ranked_edges[: csr.chosen_k], csr.target_class)
    np.testing.assert_allclose((csr.fidelity_plus, csr.fidelity_minus), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("base_nodes", [20, 200], ids=["dense", "csr"])
@pytest.mark.parametrize("bad", [-1.0, 2.0, np.nan, np.inf], ids=["negative", "above-1", "nan", "inf"])
def test_forward_rejects_weights_outside_unit_interval(kind, base_nodes, bad):
    """A re-weighted pass is a Graph, whose construction rejects the weight,
    with no numpy warning, before any pass."""
    m = MODELS[kind]()
    g = ba_graph(base_nodes, seed=32, weighted=True)
    assert takes_csr_path(g) == (base_nodes == 200)
    w = g.edge_weight.copy()
    w[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="outside"):
            forward(m, with_weights(g, w))


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
    weights, every batch of rows that forward_rows makes for the scorers
    and the search holds at most 5 rows, and the results still match the
    reference (IG: the result with the bound unpatched)."""
    m = MODELS[kind]()
    g = complete_graph(16, seed=28)
    ig = ig_edge_scores(m, g, 0, steps=2).values
    per_chunk = 5
    monkeypatch.setattr(models, "STACK_BYTES", 8 * g.num_undirected_edges * per_chunk)
    batches = []
    batch_logits = models._dense_forward_rows

    def recorded(m, g, pattern, weights, nodes, out):
        batches.append(len(weights))
        return batch_logits(m, g, pattern, weights, nodes, out)

    monkeypatch.setattr(models, "_dense_forward_rows", recorded)
    e = explain(m, g)
    c = e.target_class
    np.testing.assert_array_equal(e.scores, loop_scores(m, g, c))
    fplus, fminus = loop_fidelities(m, g, e.ranked_edges[: e.chosen_k], c)
    assert (e.fidelity_plus, e.fidelity_minus) == (fplus, fminus)
    np.testing.assert_array_equal(sa_edge_scores(m, g, c).values, loop_sa_scores(m, g, c))
    np.testing.assert_array_equal(ig_edge_scores(m, g, 0, steps=2).values, ig)
    assert max(batches) == per_chunk
    # E scoring rows, 2E search rows, 2E SA rows and 2 (E + 1) IG rows,
    # and the one row of explain's original pass, which models.forward
    # runs through forward_rows too.
    assert sum(batches) == 7 * g.num_undirected_edges + 3


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


def test_small_rows_of_a_dense_graph_are_chunked_by_their_values():
    """2000 two-node rows of the complete 64-node graph in one forward_rows
    call: each row's stack is 2 x 2, but its csr_values span all 4096
    stored entries, so a chunk of 2 x 2 stacks within STACK_BYTES alone
    would hold 2000 rows of values, 65 MB. Chunks bound the values too."""
    m = MODELS["gcn"]()
    g = complete_graph(64, seed=29)
    kept = np.eye(2000, g.num_undirected_edges, dtype=bool)
    weights, nodes = subgraph_rows(g, kept)
    tracemalloc.start()
    try:
        given_rows(m, g, weights, nodes)
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


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_csr_explanation_working_set(kind, monkeypatch):
    """The traced peak of a 205-node explanation stays near what it must
    hold: one search batch of (b, E) float weights within STACK_BYTES with
    its boolean kept rows, node masks and gathered edge ends, about five
    (CSR_CHUNK_ROWS, nnz) csr_values arrays, the tiled biases and a few
    (n, hidden) activations. Measured: 1.13 MiB for the GCN (bound 1.54
    MiB) and 1.16 MiB for the GIN (1.56 MiB). Chunks of the 106 rows that
    STACK_BYTES alone allows, and the index arrays of np.nonzero in
    subgraph_rows, peaked at 3.27 and 2.19 MiB."""
    m = MODELS[kind]()
    g = ba_graph(200, seed=33, weighted=False)
    assert takes_csr_path(g)
    explain(m, g)  # loads the CSR kernel untraced
    tracemalloc.start()
    try:
        explain(m, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, num_edges = g.n, g.num_undirected_edges
    nnz = 2 * num_edges + (n if kind == "gcn" else 0)
    rows = STACK_BYTES // (8 * num_edges)
    batch = 8 * rows * num_edges + rows * (4 * num_edges + n)
    chunk = 5 * 8 * models.CSR_CHUNK_ROWS * nnz
    biases = sum(b.nbytes for layer in models.tiled_biases(m, n) for b in layer)
    activations = 4 * 8 * n * m.classifier.w1.shape[0]
    bound = batch + chunk + biases + activations
    assert peak < bound, (peak, bound)
    built = record_builds(monkeypatch, "csr_values")
    explain(m, g)
    assert max(b for _, b in built) == models.CSR_CHUNK_ROWS


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_dense_explanation_working_set(kind):
    """The traced peak of an IG explanation of a frozen-corpus graph stays
    near what it must hold. Its 50 (E + 1) scoring rows keep every node and
    go through one forward_rows call, a chunk of at most STACK_BYTES //
    (8 n^2) rows at a time: the chunk's (b, n, n) operator stack, two
    (b, nnz) csr_values arrays, two (b, hidden) arrays for the pooled rows
    and the classifier's hidden layer, and two copies of the (rows, E)
    weights. Measured: 0.93 MiB for the GCN (bound 1.14 MiB) and 0.94 MiB
    for the GIN (1.05 MiB). A (b, n, d) gathered copy of the features per
    chunk, np.tile per group and the cell index arrays of the general
    weighted_adjacency layout peaked at 1.38 and 1.39 MiB."""
    m = MODELS[kind]()
    g = gen_ba2motifs_mini(n_graphs=200, base_nodes=5, seed=7)[0].graph
    assert not takes_csr_path(g)
    explain(m, g, method="ig")
    tracemalloc.start()
    try:
        explain(m, g, method="ig")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, num_edges = g.n, g.num_undirected_edges
    nnz = 2 * num_edges + (n if kind == "gcn" else 0)
    rows = 50 * (num_edges + 1)
    chunk = min(rows, STACK_BYTES // (8 * n * n))
    hidden = m.classifier.w1.shape[0]
    bound = 8 * chunk * (n * n + 2 * nnz + 2 * hidden) + 2 * 8 * rows * num_edges
    assert peak < bound, (peak, bound)
