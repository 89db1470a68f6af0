"""Edge scoring, fidelity metrics, ranked-prefix search, and baselines.

Edge importance is the slope of the line in prediction space between the
graph and a base point where the target edges are re-weighted to 0, i.e.
absent. Search evaluates the |E| subgraphs induced by prefixes of the
importance ranking and keeps the overall-fidelity maximizer, so the whole
pipeline costs O(|E|) forward passes.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationTooLargeError,
    InvalidSelectionError,
    UndefinedMetricError,
)
from .graphs import Graph, InducedSubgraph, edge_mask, induce_by_edges, sparsity
from .models import (
    STACK_BYTES,
    ForwardCounter,
    ModelSpec,
    Prediction,
    forward,
    forward_rows,
    subgraph_rows,
)

METHODS = ("linear-gradient", "sa", "ig")

# Edge subsets the brute-force oracle evaluates per batch (two rows each).
_SUBSET_BLOCK = 4096


@dataclass(frozen=True)
class EdgeScores:
    """One importance score per undirected edge for a target class."""

    values: np.ndarray
    target_class: int
    method: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise ValueError("edge scores must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Explanation:
    ranked_edges: tuple[int, ...]
    scores: np.ndarray | None
    chosen_k: int
    subgraph: InducedSubgraph
    fidelity_plus: float
    fidelity_minus: float
    overall: float
    sparsity: float
    target_class: int
    method: str
    forward_passes_used: int


def _target(m: ModelSpec, target_class) -> int:
    """target_class as an int; InvalidSelectionError unless it is an
    integer in [0, m.num_classes)."""
    if (
        isinstance(target_class, bool)
        or not isinstance(target_class, numbers.Integral)
        or not 0 <= target_class < m.num_classes
    ):
        raise InvalidSelectionError(
            f"target class {target_class!r} is not an integer in [0, {m.num_classes})"
        )
    return int(target_class)


def _l1_distance(g: Graph, edges) -> float:
    """Entrywise L1 distance between the adjacency and its base point,
    summed over both directed realizations of each zeroed edge, one edge at
    a time in index order."""
    return sum((2.0 * g.edge_weight[edges]).tolist())


def _probabilities(m, g, num_rows, make_rows, target_class, counter) -> np.ndarray:
    """Target-class probability of rows 0 .. num_rows - 1, where
    make_rows(lo, hi) gives the forward_rows input of rows lo .. hi - 1.

    Rows are made and evaluated a chunk at a time, each chunk's (b, E)
    weights within STACK_BYTES, so memory stays bounded on dense graphs.
    """
    step = max(1, STACK_BYTES // (8 * max(1, g.num_undirected_edges)))
    out = np.empty(num_rows)
    for lo in range(0, num_rows, step):
        hi = min(lo + step, num_rows)
        preds = forward_rows(m, g, *make_rows(lo, hi), counter)
        out[lo:hi] = [p.probabilities[target_class] for p in preds]
    return out


def _one_edge_moved(m, g, bases, base_of, edges, values, target_class, counter) -> np.ndarray:
    """Target-class probability of g with its edges carrying row base_of[i]
    of the (k, E) `bases` but for edge edges[i], moved to values[i], or for
    none when edges[i] is negative: one pass per entry of `edges`."""

    def rows(lo, hi):
        weights = bases[base_of[lo:hi]]
        moved = np.flatnonzero(edges[lo:hi] >= 0)
        weights[moved, edges[lo + moved]] = values[lo + moved]
        return weights, np.ones((hi - lo, g.n), dtype=bool)

    return _probabilities(m, g, len(edges), rows, target_class, counter)


def edge_set_importance(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    """Slope of the prediction line from the base point of `edges` to the
    graph: (phi(c|A) - phi(c|A_base)) / |A - A_base|_1."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if not selected.any():
        raise UndefinedMetricError("importance of an empty edge set is undefined")
    if original is None:
        original = forward(m, g, counter)
    base = g.edge_weight.copy()
    base[selected] = 0.0
    at_base = forward(m, g, counter, base)
    denom = _l1_distance(g, selected)
    if denom == 0.0:
        return 0.0
    return (
        original.probabilities[target_class] - at_base.probabilities[target_class]
    ) / denom


def linear_gradient_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> EdgeScores:
    """Per-edge importance; exactly |E| forwards plus one for the original
    prediction when it is not supplied. Edge e's base point is
    g.edge_weight with entry e at 0."""
    target_class = _target(m, target_class)
    if original is None:
        original = forward(m, g, counter)
    num_edges = g.num_undirected_edges
    edges = np.arange(num_edges)
    base_of = np.zeros(num_edges, dtype=np.intp)
    at_base = _one_edge_moved(
        m, g, g.edge_weight[None], base_of, edges, np.zeros(num_edges), target_class, counter
    )
    # _l1_distance of one edge: 2 w_e; a 0 distance scores 0.
    denom = 2.0 * g.edge_weight
    moved = denom != 0.0
    values = np.zeros(num_edges)
    values[moved] = (original.probabilities[target_class] - at_base[moved]) / denom[moved]
    return EdgeScores(values=values, target_class=target_class, method="linear-gradient")


def sa_edge_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    h: float = 1e-3,
    counter: ForwardCounter | None = None,
) -> EdgeScores:
    """Local-sensitivity baseline: absolute central finite difference of the
    class probability w.r.t. each edge weight, both directions moved
    together, probe points clamped to [0, 1]."""
    target_class = _target(m, target_class)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step h={h!r} must be finite and > 0")
    w = g.edge_weight
    hi = np.minimum(1.0, w + h)
    lo = np.maximum(0.0, w - h)
    if np.any(hi == lo):
        raise ValueError(f"step h={h!r} is too small to move every edge weight")
    # Passes 2e and 2e + 1 move edge e to hi and to lo.
    edges = np.repeat(np.arange(g.num_undirected_edges), 2)
    probes = np.stack((hi, lo), axis=1).ravel()
    base_of = np.zeros(len(edges), dtype=np.intp)
    p = _one_edge_moved(m, g, w[None], base_of, edges, probes, target_class, counter)
    values = np.abs(p[0::2] - p[1::2]) / (hi - lo)
    return EdgeScores(values=values, target_class=target_class, method="sa-fd")


def ig_edge_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    steps: int = 50,
    counter: ForwardCounter | None = None,
) -> EdgeScores:
    """Path-integral baseline along the straight line from the all-edges-at-0
    adjacency to the graph, all edges moved jointly.

    Each segment contributes, per edge, the forward difference obtained by
    pulling that edge back to its previous path value, which makes the
    Riemann sum telescoping-exact in the one-edge one-step case. Each step
    is |E| + 1 passes: the path point, then one per pulled edge. All steps'
    passes go through one _probabilities call, and the steps' differences
    are summed in step order.
    """
    target_class = _target(m, target_class)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    num_edges = g.num_undirected_edges
    path = np.array([(j / steps) * g.edge_weight for j in range(steps + 1)])
    # Step j is rows (j - 1)(E + 1) .. j(E + 1) - 1 on path point j: its
    # pass 0 moves no edge, its pass e + 1 pulls edge e back to point j - 1.
    block = num_edges + 1
    base_of = np.repeat(np.arange(steps), block)
    edges = np.tile(np.arange(-1, num_edges), steps)
    pulled = np.concatenate((np.full((steps, 1), np.nan), path[:-1]), axis=1).ravel()
    p = _one_edge_moved(m, g, path[1:], base_of, edges, pulled, target_class, counter)
    values = np.zeros(num_edges)
    for step in p.reshape(steps, block):
        values += step[0] - step[1:]
    return EdgeScores(values=values, target_class=target_class, method="ig-fd")


def score_edges(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    method: str,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> EdgeScores:
    """Edge scores by one of METHODS.

    The scorers are looked up by module-global name on each call, so a
    wrapper installed on this module's attribute sees every call.
    """
    if method == "linear-gradient":
        return linear_gradient_scores(m, g, target_class, counter, original)
    if method == "sa":
        return sa_edge_scores(m, g, target_class, counter=counter)
    if method == "ig":
        return ig_edge_scores(m, g, target_class, counter=counter)
    raise ValueError(f"unknown method {method!r}")


def rank_edges(scores: EdgeScores) -> tuple[int, ...]:
    """Descending by score, ties by ascending edge index."""
    vals = scores.values
    return tuple(sorted(range(len(vals)), key=lambda i: (-vals[i], i)))


def _drops(
    m: ModelSpec,
    g: Graph,
    num_rows: int,
    make_kept,
    target_class: int,
    counter: ForwardCounter | None,
    original: Prediction,
) -> np.ndarray:
    """Probability drop from the graph to the standalone graph of the edges
    kept in each of rows 0 .. num_rows - 1, where make_kept(lo, hi) gives
    rows lo .. hi - 1 as a boolean (hi - lo, E) matrix: one pass per row."""

    def rows(lo, hi):
        return subgraph_rows(g, make_kept(lo, hi))

    p = _probabilities(m, g, num_rows, rows, target_class, counter)
    return original.probabilities[target_class] - p


def _pair_drops(m, g, num_sets, chosen, target_class, counter, original):
    """fidelity_plus and fidelity_minus of edge sets 0 .. num_sets - 1,
    where chosen(i) gives the boolean (len(i), E) rows of the sets i. Rows
    2i and 2i + 1 keep the complement of set i and set i."""

    def kept(lo, hi):
        r = np.arange(lo, hi)
        return chosen(r // 2) ^ (r % 2 == 0)[:, None]

    drops = _drops(m, g, 2 * num_sets, kept, target_class, counter, original)
    return drops[0::2], drops[1::2]


def _prefix_drops(m, g, ranked, sizes, target_class, counter, original):
    """fidelity_plus and fidelity_minus of the prefixes of `ranked` (a
    permutation of all edges) of the given sizes, one pair of passes each."""
    rank = np.empty(g.num_undirected_edges, dtype=np.int64)
    rank[list(ranked)] = np.arange(g.num_undirected_edges)
    sizes = np.asarray(sizes, dtype=np.int64)
    return _pair_drops(
        m, g, len(sizes), lambda i: rank < sizes[i, None], target_class, counter, original
    )


def fidelity_plus(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    """Probability drop when the selected edges are removed: the remainder
    is edge-induced from the complement edge set."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g, counter)
    drops = _drops(m, g, 1, lambda lo, hi: ~selected[None], target_class, counter, original)
    return float(drops[0])


def fidelity_minus(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    """Probability drop when only the selected edges are kept."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g, counter)
    drops = _drops(m, g, 1, lambda lo, hi: selected[None], target_class, counter, original)
    return float(drops[0])


def overall_fidelity(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    """fidelity_plus minus fidelity_minus of the selected edges."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g, counter)
    sets = selected[None]
    plus, minus = _pair_drops(m, g, 1, lambda i: sets[i], target_class, counter, original)
    return float(plus[0] - minus[0])


def _candidate_range(num_edges: int, k_range: str) -> range:
    if k_range == "full":
        return range(1, num_edges + 1)
    if k_range == "paper":
        # The narrow variant skips k=1 and k=|E|; degenerate graphs fall
        # back to the full range so a candidate always exists.
        if num_edges >= 3:
            return range(2, num_edges)
        return range(1, num_edges + 1)
    raise ValueError(f"unknown k_range {k_range!r}")


def linear_search(
    m: ModelSpec,
    g: Graph,
    ranked: tuple[int, ...],
    target_class: int,
    k_range: str = "full",
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
    scores: np.ndarray | None = None,
    method: str = "external",
) -> Explanation:
    """Evaluate the ranked-prefix subgraphs and keep the overall-fidelity
    maximizer; ties resolve to the smallest prefix."""
    target_class = _target(m, target_class)
    num_edges = g.num_undirected_edges
    if num_edges < 1:
        raise UndefinedMetricError("cannot search a graph without edges")
    if sorted(ranked) != list(range(num_edges)):
        raise ValueError("ranked must be a permutation of all undirected edges")
    if counter is None:
        counter = ForwardCounter()
    if original is None:
        original = forward(m, g, counter)
    ks = _candidate_range(num_edges, k_range)
    plus, minus = _prefix_drops(m, g, ranked, ks, target_class, counter, original)
    best_k = None
    best = (-np.inf, 0.0, 0.0)
    for k, fplus, fminus in zip(ks, plus.tolist(), minus.tolist()):
        score = fplus - fminus
        if score > best[0]:
            best = (score, fplus, fminus)
            best_k = k
    sub = induce_by_edges(g, ranked[:best_k])
    return Explanation(
        ranked_edges=tuple(ranked),
        scores=scores,
        chosen_k=best_k,
        subgraph=sub,
        fidelity_plus=best[1],
        fidelity_minus=best[2],
        overall=best[0],
        sparsity=sparsity(sub, g),
        target_class=target_class,
        method=method,
        forward_passes_used=counter.count,
    )


def explain(
    m: ModelSpec,
    g: Graph,
    target_class: int | str = "auto",
    method: str = "linear-gradient",
    k_range: str = "full",
) -> Explanation:
    """Score edges, rank, then search the ranked prefixes.

    With the default method this costs at most 3|E| + 2 forward passes:
    1 original + |E| scoring + 2 per prefix candidate.
    """
    auto = isinstance(target_class, str) and target_class == "auto"
    if not auto:
        target_class = _target(m, target_class)
    counter = ForwardCounter()
    original = forward(m, g, counter)
    c = original.predicted_class if auto else target_class
    scores = score_edges(m, g, c, method, counter, original)
    ranked = rank_edges(scores)
    return linear_search(
        m,
        g,
        ranked,
        c,
        k_range=k_range,
        counter=counter,
        original=original,
        scores=scores.values,
        method=method,
    )


def brute_force_best_subgraph(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    cap: int = 14,
    counter: ForwardCounter | None = None,
) -> tuple[tuple[int, ...], float]:
    """Exhaustive argmax of overall fidelity over every nonempty undirected
    edge subset; ties go to the lexicographically smallest subset."""
    target_class = _target(m, target_class)
    num_edges = g.num_undirected_edges
    if num_edges > cap:
        raise EnumerationTooLargeError(f"{num_edges} edges exceeds cap {cap}")
    original = forward(m, g, counter)
    best_subset: tuple[int, ...] | None = None
    best_score = -np.inf
    bits = np.arange(num_edges)
    # Subsets as the bit patterns 1 .. 2^|E| - 1, a block at a time. The
    # winner, the lexicographically smallest subset of top score, does not
    # depend on the order subsets are scored in.
    for start in range(1, 2**num_edges, _SUBSET_BLOCK):
        codes = np.arange(start, min(start + _SUBSET_BLOCK, 2**num_edges))
        chosen = ((codes[:, None] >> bits) & 1).astype(bool)
        plus, minus = _pair_drops(
            m, g, len(codes), lambda i: chosen[i], target_class, counter, original
        )
        scores = plus - minus
        score = scores.max()
        subset = min(tuple(bits[chosen[i]].tolist()) for i in np.flatnonzero(scores == score))
        if score > best_score or (score == best_score and subset < best_subset):
            best_score = score
            best_subset = subset
    return best_subset, float(best_score)


def explanation_to_json(e: Explanation, g: Graph) -> str:
    """Stable-field-order serialization for diff-based regression checks."""
    obj = {
        "target_class": e.target_class,
        "method": e.method,
        "ranked_edges": [
            {
                "edge": idx,
                "endpoints": list(g.undirected_endpoints(idx)),
                "score": None if e.scores is None else float(e.scores[idx]),
            }
            for idx in e.ranked_edges
        ],
        "chosen_k": e.chosen_k,
        "subgraph_edges": [
            {"edge": idx, "endpoints": list(g.undirected_endpoints(idx))}
            for idx in e.subgraph.edges
        ],
        "fidelity_plus": e.fidelity_plus,
        "fidelity_minus": e.fidelity_minus,
        "overall": e.overall,
        "sparsity": e.sparsity,
        "forward_passes_used": e.forward_passes_used,
    }
    return json.dumps(obj, indent=2)


def save_explanation(e: Explanation, g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(explanation_to_json(e, g))
        fh.write("\n")
