"""Deterministic forward inference for GCN and GIN graph classifiers.

Everything runs in float64 over a weighted adjacency, dense for small or
dense graphs and CSR for large sparse ones, so setting an edge weight to 0
is bitwise-identical to deleting the edge (degree normalization is
recomputed from the current weights). That identity is what makes weight-0
base points sound.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DataFormatError, ModelFormatError, NumericalFailureError
from .graphs import (
    Graph,
    InducedSubgraph,
    edge_mask,
    endpoint_nodes,
    internal_edges,
    is_integer,
    is_real,
    node_mask,
    number_array,
)

MODEL_SCHEMA_VERSION = 1


# Each layer and classifier type declares its parameter arrays once, in
# `arrays`: (weight, bias) pairs in the order they apply. Validation,
# parameter_arrays, the model file and the trainer all read these names.


@dataclass(frozen=True)
class GCNLayer:
    arrays: ClassVar[tuple[str, ...]] = ("weight", "bias")
    weight: np.ndarray  # (d_in, d_out)
    bias: np.ndarray  # (d_out,)


@dataclass(frozen=True)
class GINLayer:
    # 2-layer MLP applied to (1 + eps) * h_v + sum_u w_uv h_u
    arrays: ClassVar[tuple[str, ...]] = ("w1", "b1", "w2", "b2")
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        try:
            eps = float(self.epsilon) if is_real(self.epsilon) else math.nan
        except OverflowError:  # an int too large for a float
            eps = math.inf
        if not math.isfinite(eps):
            raise ModelFormatError(f"GIN epsilons must be finite reals, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class Classifier:
    arrays: ClassVar[tuple[str, ...]] = ("w1", "b1", "w2", "b2")
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


_LAYER_TYPES = {"gcn": GCNLayer, "gin": GINLayer}


def _pairs(part) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (weight, bias) array pairs of a layer or classifier, in order."""
    arrays = [getattr(part, name) for name in part.arrays]
    return list(zip(arrays[::2], arrays[1::2]))


@dataclass(frozen=True)
class ModelSpec:
    conv_kind: str  # "gcn" | "gin"
    layers: tuple
    classifier: Classifier
    pooling: str  # "mean" | "sum"
    num_classes: int

    def __post_init__(self):
        layer_type = _LAYER_TYPES.get(self.conv_kind)
        if layer_type is None:
            raise ModelFormatError(f"unknown conv kind {self.conv_kind!r}")
        if self.pooling not in ("mean", "sum"):
            raise ModelFormatError(f"unknown pooling {self.pooling!r}")
        if not (is_integer(self.num_classes) and self.num_classes >= 1):
            raise ModelFormatError(f"num_classes {self.num_classes!r} is not an integer >= 1")
        object.__setattr__(self, "num_classes", int(self.num_classes))
        if not self.layers:
            raise ModelFormatError("model has no layers")
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, layer_type):
                raise ModelFormatError(f"layer {i} is not a {layer_type.__name__}")
        # Each part's arrays are stored as float64: a weight 2-D, a bias
        # 1-D, each of finite numbers.
        for prefix, part in self._parts():
            for i, name in enumerate(part.arrays):
                where, ndim = f"{prefix}.{name}", 2 - i % 2
                try:
                    arr = np.asarray(getattr(part, name))
                except ValueError as exc:
                    raise ModelFormatError(f"{where}: {exc}") from exc
                if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
                    raise ModelFormatError(
                        f"{where} of {arr.dtype} values and shape {arr.shape} "
                        f"is not a {ndim}-D array of numbers"
                    )
                if not np.isfinite(arr).all():
                    raise ModelFormatError(f"{where} contains non-finite parameters")
                object.__setattr__(part, name, arr.astype(np.float64, copy=False))
        dim = self.input_dim
        for prefix, part in self._parts():
            for w, b in _pairs(part):
                if w.shape[0] != dim or b.shape != (w.shape[1],):
                    raise ModelFormatError(
                        f"{prefix}: expected input dim {dim}, got {w.shape}/{b.shape}"
                    )
                dim = w.shape[1]
        if dim != self.num_classes:
            raise ModelFormatError("classifier output dimension mismatch")

    @property
    def input_dim(self) -> int:
        first_weight, _ = _pairs(self.layers[0])[0]
        return first_weight.shape[0]

    def _parts(self) -> list[tuple[str, object]]:
        """Each layer and then the classifier, with the prefix its array
        names carry in parameter_arrays."""
        layers = [(f"layer{i}", layer) for i, layer in enumerate(self.layers)]
        return layers + [("classifier", self.classifier)]

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """Named view of every parameter array, in a fixed order."""
        return {
            f"{prefix}.{name}": getattr(part, name)
            for prefix, part in self._parts()
            for name in part.arrays
        }


@dataclass(frozen=True)
class Prediction:
    logits: np.ndarray
    probabilities: np.ndarray
    predicted_class: int


@dataclass
class CSR:
    """A compressed sparse row matrix: row i stores the values
    data[indptr[i]:indptr[i + 1]] at the columns of the same slice of
    `indices`. The arrays are C-contiguous, data float64, indptr and
    indices of one integer type. `data` may be swapped for another array of
    its shape and type."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


# scipy's compiled module scipy.sparse._sparsetools, once csr_matmul or
# csr_matmul_t has loaded it.
_sparsetools = None
_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_sparsetools():
    """scipy.sparse._sparsetools, loaded from its file alone: scipy's
    package __init__ and scipy.sparse's 300 modules never run. It is
    registered under its own name, so a later `import scipy.sparse` takes
    this module rather than loading a second copy. ImportError, naming
    scipy's version, when the installed scipy has no such file."""
    global _sparsetools
    module = sys.modules.get(_SPARSETOOLS)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("edgelens needs scipy for its CSR kernel; it is not installed")
        sparse = os.path.join(scipy.submodule_search_locations[0], "sparse")
        spec = importlib.machinery.PathFinder.find_spec(_SPARSETOOLS, [sparse])
        if spec is None:
            from importlib.metadata import version

            raise ImportError(f"scipy {version('scipy')} has no {_SPARSETOOLS} in {sparse}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_SPARSETOOLS] = module
    _sparsetools = module
    return module


def csr_matmul(operator: CSR, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """operator @ h for a float64 (n, d) h, bit for bit: one call of
    scipy's compiled kernel csr_matvecs, the call scipy's own CSR product
    ends in. Each output row starts at 0 and adds a_ij * h_j one stored
    entry at a time, in stored order. A given `out`, a C-contiguous float64
    array of the result's shape that shares no memory with `h`, is
    overwritten and returned instead of a new array."""
    kernels = _sparsetools or _load_sparsetools()
    return _matvecs(kernels.csr_matvecs, operator, operator.shape[0], h, out)


def csr_matmul_t(operator: CSR, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """operator.T @ h, bit for bit: one call of scipy's kernel csc_matvecs
    on the operator's own arrays, which it reads as the CSC of the
    transpose; scipy's op.T @ h ends in the same call. Each output row j
    starts at 0 and adds a_ij * h_i one stored entry at a time, in stored
    order, so by ascending i. `out` as for csr_matmul."""
    kernels = _sparsetools or _load_sparsetools()
    return _matvecs(kernels.csc_matvecs, operator, operator.shape[1], h, out)


def _matvecs(kernel, operator: CSR, rows: int, h: np.ndarray, out: np.ndarray | None):
    """The (rows, d) product of one matvecs kernel over the operator's
    arrays and h, into a zeroed `out` checked as csr_matmul describes."""
    n, d = h.shape
    if out is None:
        out = np.zeros((rows, d))
    elif out.shape != (rows, d) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of the product's shape")
    elif np.may_share_memory(out, h):
        # out is zeroed before the kernel reads h.
        raise ValueError("out must not share memory with h")
    else:
        out.fill(0.0)
    kernel(rows, n, d, operator.indptr, operator.indices, operator.data, h.ravel(), out.ravel())
    return out


def tiled_biases(m: ModelSpec, s: int) -> list[list[np.ndarray]]:
    """Each layer's biases in the order forward_dense adds them, each tiled
    to an (s, d_out) array, so that every bias add of a pass over s nodes
    is a same-shape add."""
    return [[np.tile(b, (s, 1)) for _, b in _pairs(layer)] for layer in m.layers]


def forward_dense(
    m: ModelSpec,
    operator: np.ndarray | CSR,
    features: np.ndarray,
    biases: list[list[np.ndarray]],
    kept: np.ndarray | None = None,
) -> np.ndarray:
    """The (d,) pooled embedding of one pass of m's conv layers over a
    prebuilt (s, s) operator, a dense array or a CSR: the normalization
    D^-1/2 (A + I) D^-1/2 for a GCN, A itself for a GIN. `biases` are
    tiled_biases(m, s), or the first s rows of a larger tiling, which the
    caller makes once per call. With the boolean (s,) `kept`, only the
    kept nodes are pooled.
    forward_rows applies the classifier to a chunk's pooled rows with
    readout, and takes the softmax and checks the logits once per call.

    At these sizes a pass costs mostly numpy's per-call overhead, so each
    step takes as few calls as its arithmetic allows: same-shape biases and
    ReLUs in place, GIN's (1 + eps) h added onto A h (h itself when
    1 + eps is 1), a CSR product straight through csr_matmul, BLAS products
    through np.dot rather than the @ operator's dispatch. None of it
    changes a bit (tests/test_engine_parity.py).
    """
    sparse = isinstance(operator, CSR)
    h = features
    if m.conv_kind == "gcn":
        for layer, (b,) in zip(m.layers, biases):
            z = np.dot(csr_matmul(operator, h) if sparse else np.dot(operator, h), layer.weight)
            z += b
            h = np.maximum(z, 0.0, out=z)
    else:
        for layer, (b1, b2) in zip(m.layers, biases):
            agg = csr_matmul(operator, h) if sparse else np.dot(operator, h)
            scale = 1.0 + layer.epsilon
            agg += h if scale == 1.0 else scale * h
            z = np.dot(agg, layer.w1)
            z += b1
            h = np.dot(np.maximum(z, 0.0, out=z), layer.w2)
            h += b2
    if kept is not None:
        h = h[kept]
    # h.mean(axis=0) is this sum divided by the node count, bit for bit.
    pooled = np.add.reduce(h, 0)
    if m.pooling == "mean":
        pooled /= h.shape[0]
    return pooled


def readout(m: ModelSpec, pooled: np.ndarray) -> np.ndarray:
    """The (b, C) logits of m's classifier on (b, d) pooled rows. Each
    product is one np.matmul over the (b, 1, d) stack of rows, which numpy
    runs as one gemv per row, the call np.dot makes on a row alone; a
    (b, d) x (d, h) gemm would group the sums differently
    (tests/test_engine_parity.py pins the bits)."""
    cls = m.classifier
    hidden = np.matmul(pooled[:, None, :], cls.w1)
    hidden += cls.b1
    logits = np.matmul(np.maximum(hidden, 0.0, out=hidden), cls.w2)
    logits += cls.b2
    return logits[:, 0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (B, C) logits: each row less its max,
    exponentiated, over its sum, every row bitwise the same steps on that
    row alone. Any non-finite logit raises NumericalFailureError."""
    if not np.isfinite(logits).all():
        raise NumericalFailureError("non-finite logits")
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= np.add.reduce(probs, 1, keepdims=True)
    return probs


# Byte budget of one dense chunk: an operator stack holds about one matrix
# at n = 205 and about 650 at n = 10. forward_rows bounds each batch of
# (b, E) edge-weight rows it makes by it too, 318 rows at n = 205.
STACK_BYTES = 1 << 19

# Row cap of one CSR chunk, which also stays within STACK_BYTES. csr_values
# holds about five (b, nnz) arrays at once: 2.6 MB at the 106 rows that
# STACK_BYTES alone allows at n = 205 (nnz 617), 0.4 MB at 16. Measured on
# explain at n = 205, 3-layer 32-wide models, one BLAS thread: the time per
# row is the same within noise for caps of 4 to 106; a chunk's fixed cost,
# about 45 us, is about 3% of its 16 passes of about 100 us; the minor page
# faults per GCN call fall from about 2,900 at 106 rows to 225 at 16.
CSR_CHUNK_ROWS = 16

# forward_rows takes the CSR path when a graph's stored entries 2|E| + n
# fill less than this share of its n^2 dense cells. Measured per pass of
# explain on BA-2Motifs graphs (fill about 3/n), 3-layer 32-wide models, one
# BLAS thread: CSR breaks even with dense at a fill of about 0.036 (n = 85)
# for a GCN and about 0.025 (n = 125) for a GIN; at n = 205 (fill 0.015)
# it is 1.8x (GCN) and 1.35x (GIN) faster, at n = 10 (fill 0.32) slower.
CSR_MAX_FILL = 0.025


def csr_pattern(
    edge_u: np.ndarray, edge_v: np.ndarray, n: int, self_loops: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and source edge of each stored entry of the (n, n) CSR
    operator of the undirected edges (edge_u, edge_v): both directions of
    every edge, plus the diagonal with `self_loops`, sorted by row and then
    by column. A self loop's source is len(edge_u)."""
    num_edges = len(edge_u)
    loops = np.arange(n if self_loops else 0)
    edges = np.arange(num_edges)
    rows = np.concatenate((edge_u, edge_v, loops))
    cols = np.concatenate((edge_v, edge_u, loops))
    source = np.concatenate((edges, edges, np.full(len(loops), num_edges)))
    # A stable sort by the packed key row * n + col: the order of
    # np.lexsort((cols, rows)).
    order = (rows * n + cols).argsort(kind="stable")
    return rows[order], cols[order], source[order]


def csr_operator(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> CSR:
    """The CSR of the given shape holding `values` at the entries (`rows`,
    `cols`), which are sorted by row and then by column, as csr_pattern
    sorts them."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSR(indptr, cols, values, shape)


def csr_values(
    g: Graph,
    pattern: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    nodes: np.ndarray,
    gcn: bool,
) -> np.ndarray:
    """(b, nnz) values of the csr_pattern entries, one row per row of the
    (b, E) `weights` and the boolean (b, n) `nodes`.

    An edge entry carries weights[i, e] when e is among the internal_edges
    of row i's nodes and 0 otherwise; a self loop carries 1. For a GCN each
    value is then scaled to (w * d_i) * d_j, the entries of
    D^-1/2 (A + I) D^-1/2, with d_i the inverse square root of node i's
    entries summed one by one in column order: a stored 0 leaves such a
    sum unchanged, so each kept node gets the degree of its standalone
    graph. This is the one place a GCN degree is computed.
    """
    rows, cols, source = pattern
    b, n, num_edges = len(nodes), g.n, g.num_undirected_edges
    w = np.ones((b, num_edges + 1))
    w[:, :num_edges] = np.where(internal_edges(g, nodes), weights, 0.0)
    values = w[:, source]
    if gcn:
        # bincount adds its weights in input order: per row, column order
        flat = (np.arange(0, b * n, n)[:, None] + rows).ravel()
        degree = np.bincount(flat, weights=values.ravel(), minlength=b * n).reshape(b, n)
        d_inv_sqrt = 1.0 / np.sqrt(degree)
        values *= d_inv_sqrt[:, rows]
        values *= d_inv_sqrt[:, cols]
    return values


def weighted_adjacency(
    g: Graph,
    pattern: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    nodes: np.ndarray,
    gcn: bool,
) -> np.ndarray:
    """(b, s, s) stack of dense operators, one per row of the (b, E)
    `weights` and the boolean (b, n) `nodes`, each row keeping s nodes.

    Row i keeps its nodes in ascending order and holds the csr_values of
    g's csr_pattern `pattern` whose two endpoints it keeps, each at their
    positions among its kept nodes; every other cell is 0. So the dense
    path, the CSR path and the trainer take every operator entry from the
    one function. When the rows keep every node (s = n), every row's
    values go to the same flat cells rows * n + cols, with no remapping
    and no (b, nnz) index arrays.
    """
    rows, cols, _ = pattern
    b, s = len(nodes), int(nodes[0].sum())
    values = csr_values(g, pattern, weights, nodes, gcn)
    if s == g.n:
        # Every node kept: each row's entries sit at the same flat cells.
        stack = np.zeros((b, s * s))
        stack[:, rows * s + cols] = values
        return stack.reshape(b, s, s)
    size = b * s * s
    # pos[i, v]: node v's index among row i's kept nodes, or `size` for a
    # dropped node, so that an entry's flat offset in the stack is past
    # its end exactly when it touches a dropped node; all of those land
    # in one spare cell.
    pos = np.where(nodes, np.cumsum(nodes, axis=1) - 1, size)
    cell = pos[:, rows] * s + pos[:, cols] + np.arange(0, size, s * s)[:, None]
    flat = np.zeros(size + 1)
    flat[np.minimum(cell, size, out=cell)] = values
    return flat[:size].reshape(b, s, s)


def forward_rows(
    m: ModelSpec,
    g: Graph,
    num_rows: int,
    make_rows,
) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass per row 0 .. num_rows - 1, where make_rows(lo, hi)
    gives rows lo .. hi - 1 as a (hi - lo, E) `weights` and a boolean
    (hi - lo, n) `nodes`: row i evaluates the standalone graph of the nodes
    set in its row of `nodes`, its edges carrying its row of `weights`.
    Every row keeps at least one node. Returns the (num_rows, C) logits and
    the (num_rows, C) probabilities.

    Rows are made and evaluated a batch at a time, each batch's (b, E)
    weights within STACK_BYTES, so memory stays bounded on dense graphs.
    Every operator entry comes from csr_values over g's csr_pattern, which
    is built once per call. On a graph whose stored entries fill less than
    CSR_MAX_FILL of the dense cells, every row runs over all n nodes
    through one CSR operator (see _csr_forward_rows). Otherwise a batch's
    rows are grouped by node count, ascending, from np.bincount of the
    counts (not np.unique, which imports numpy.ma on numpy 2.4: 1.1-1.5 MB
    of memory), and each group's dense operators are laid out by
    weighted_adjacency, a chunk at a time. The biases are tiled once per
    batch, and a row that keeps every node reads g.features itself rather
    than a gathered copy. forward_dense runs once per row and returns its
    pooled embedding, readout turns a chunk's pooled rows into logits, and
    softmax_rows runs once per call.

    A model whose finite parameters overflow float64 raises
    NumericalFailureError from softmax_rows, with no numpy warning: the
    call runs with overflow and invalid operations ignored.
    """
    if g.d != m.input_dim:
        raise DataFormatError(f"feature dim {g.d} != model input dim {m.input_dim}")
    if g.n == 0:
        raise DataFormatError("cannot evaluate a graph with no nodes")
    pattern = csr_pattern(g.edge_u, g.edge_v, g.n, self_loops=m.conv_kind == "gcn")
    if 2 * g.num_undirected_edges + g.n < CSR_MAX_FILL * g.n * g.n:
        batch_logits = _csr_forward_rows
    else:
        batch_logits = _dense_forward_rows
    step = max(1, STACK_BYTES // (8 * max(1, g.num_undirected_edges)))
    logits = np.empty((num_rows, m.num_classes))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, num_rows, step):
            hi = min(lo + step, num_rows)
            batch_logits(m, g, pattern, *make_rows(lo, hi), logits[lo:hi])
        return logits, softmax_rows(logits)


def _dense_forward_rows(m, g, pattern, weights, nodes, out) -> None:
    """forward_rows' logits of one batch into `out`, over each row's kept
    nodes only: rows grouped by node count, each chunk's (b, s, s) operator
    stack and its (b, nnz) csr_values within STACK_BYTES, one readout per
    chunk. The biases are tiled for the largest node count; a group of s
    nodes adds their first s rows, C-contiguous views with the values of an
    (s, d) tiling."""
    gcn = m.conv_kind == "gcn"
    sizes = nodes.sum(axis=1)
    width = m.classifier.w1.shape[0]
    tiled = tiled_biases(m, int(sizes.max(initial=0)))
    # np.unique would import numpy.ma (numpy 2.4), 1.1-1.5 MB of RSS.
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        group = np.flatnonzero(sizes == s)
        biases = [[b[:s] for b in layer] for layer in tiled]
        step = max(1, STACK_BYTES // (8 * max(s * s, len(pattern[0]))))
        for lo in range(0, len(group), step):
            rows = group[lo : lo + step]
            ops = weighted_adjacency(g, pattern, weights[rows], nodes[rows], gcn)
            if s == g.n:
                feats = [g.features] * len(rows)
            else:
                feats = g.features[np.nonzero(nodes[rows])[1].reshape(len(rows), s)]
            pooled = np.empty((len(rows), width))
            for i, (op, x) in enumerate(zip(ops, feats)):
                pooled[i] = forward_dense(m, op, x, biases)
            out[rows] = readout(m, pooled)


def _csr_forward_rows(m, g, pattern, weights, nodes, out) -> None:
    """forward_rows' logits of one batch into `out`, over all n nodes of
    every row: one CSR of the pattern, its values swapped in row by row
    from csr_values chunks of at most CSR_CHUNK_ROWS rows and STACK_BYTES,
    one readout per chunk. A dropped node's entries to and from kept nodes
    are 0, and forward_dense pools the kept nodes only (a row that keeps
    every node pools h itself, without a copy), so each row is bitwise the
    CSR pass of its standalone graph."""
    gcn = m.conv_kind == "gcn"
    rows, cols, _ = pattern
    op = csr_operator(rows, cols, np.zeros(len(cols)), (g.n, g.n))
    biases = tiled_biases(m, g.n)
    step = max(1, min(CSR_CHUNK_ROWS, STACK_BYTES // (8 * max(1, len(cols)))))
    width = m.classifier.w1.shape[0]
    for lo in range(0, len(weights), step):
        kept = nodes[lo : lo + step]
        values = csr_values(g, pattern, weights[lo : lo + step], kept, gcn)
        full = kept.all(axis=1).tolist()
        pooled = np.empty((len(kept), width))
        for i, (row_values, row_kept) in enumerate(zip(values, kept)):
            op.data = row_values
            pooled[i] = forward_dense(m, op, g.features, biases, None if full[i] else row_kept)
        out[lo : lo + len(kept)] = readout(m, pooled)


def subgraph_rows(g: Graph, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """forward_rows rows, as a make_rows gives them, for the standalone
    graphs of the edges set in each row of the boolean (B, E) `kept`: the
    kept edges' weights, and their graphs.endpoint_nodes, or every node,
    isolated, when none is kept. A Graph stores no -0.0 weight, so
    kept * edge_weight has the bits of np.where(kept, edge_weight, 0.0)."""
    weights = kept * g.edge_weight
    nodes = endpoint_nodes(g, kept)
    nodes[~nodes.any(axis=1)] = True
    return weights, nodes


def _prediction(logits: np.ndarray, probs: np.ndarray) -> Prediction:
    """The Prediction of forward_rows' single row."""
    return Prediction(
        logits=logits[0], probabilities=probs[0], predicted_class=int(probs[0].argmax())
    )


def forward(m: ModelSpec, g: Graph) -> Prediction:
    """Forward on g. A re-weighted pass is a forward on a Graph of g's
    endpoints and the new weights, which that Graph checks."""
    rows = g.edge_weight[None], np.ones((1, g.n), bool)
    return _prediction(*forward_rows(m, g, 1, lambda lo, hi: rows))


def forward_on_induced(m: ModelSpec, s: InducedSubgraph) -> Prediction:
    """Forward on the standalone graph built from an induced subgraph; an
    empty subgraph evaluates all parent nodes under a zero adjacency."""
    g = s.parent
    weights = np.where(edge_mask(g, s.edges), g.edge_weight, 0.0)[None]
    nodes = node_mask(g, s.nodes)[None] if s.nodes else np.ones((1, g.n), bool)
    return _prediction(*forward_rows(m, g, 1, lambda lo, hi: (weights, nodes)))


def _part_to_obj(part) -> dict:
    return {name: getattr(part, name).tolist() for name in part.arrays}


def model_to_json(m: ModelSpec) -> str:
    obj = {
        "version": MODEL_SCHEMA_VERSION,
        "conv_kind": m.conv_kind,
        "pooling": m.pooling,
        "num_classes": m.num_classes,
        "layers": [_part_to_obj(layer) for layer in m.layers],
        "classifier": _part_to_obj(m.classifier),
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
    if not isinstance(kind, str) or kind not in _LAYER_TYPES:
        raise ModelFormatError(f"unknown conv kind {kind!r}")
    layer_type = _LAYER_TYPES[kind]
    if not isinstance(obj["layers"], list) or not obj["layers"]:
        raise ModelFormatError("model field 'layers' is not a non-empty list")
    layers = [
        _arrays(lo, layer_type.arrays, f"layer {i}") for i, lo in enumerate(obj["layers"])
    ]
    if kind == "gin":
        eps = obj.get("epsilons", [0.0] * len(layers))
        if not isinstance(eps, list) or len(eps) != len(layers):
            raise ModelFormatError("epsilons is not a list matching the layer count")
        for arrays, e in zip(layers, eps):
            arrays["epsilon"] = e
    cls = _arrays(obj["classifier"], Classifier.arrays, "classifier")
    return ModelSpec(
        conv_kind=kind,
        layers=tuple(layer_type(**arrays) for arrays in layers),
        classifier=Classifier(**cls),
        pooling=obj["pooling"],
        num_classes=obj["num_classes"],
    )


def _arrays(obj, names: tuple[str, ...], where: str) -> dict[str, np.ndarray]:
    """The float64 arrays `names` of one model part, each of JSON numbers;
    ModelSpec checks their shapes. A part that is not an object, lacks one
    of them or holds anything else raises ModelFormatError."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} is not a JSON object")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ModelFormatError(f"{where} missing arrays {missing}")
    out = {}
    for name in names:
        try:
            out[name] = number_array(obj[name])
        except ValueError as exc:
            raise ModelFormatError(f"{where} {name}: {exc}") from exc
    return out


def load_model(path) -> ModelSpec:
    with open(path) as fh:
        return model_from_json(fh.read())
