"""Edge scoring, fidelity metrics, ranked-prefix search, and baselines.

Edge importance is the slope of the line in prediction space between the
graph and a base point where the target edges are re-weighted to 0, i.e.
absent. Search evaluates the |E| subgraphs induced by prefixes of the
importance ranking and keeps the overall-fidelity maximizer, so the whole
pipeline costs O(|E|) forward passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EnumerationTooLargeError,
    InvalidSelectionError,
    UndefinedMetricError,
)
from .graphs import (
    Graph,
    InducedSubgraph,
    check_count,
    edge_mask,
    induce_by_edges,
    is_integer,
    is_real,
    sparsity,
)
from .models import (
    ModelSpec,
    Prediction,
    forward,
    forward_rows,
    subgraph_rows,
)

METHODS = ("linear-gradient", "sa", "ig")
K_RANGES = ("full", "paper")


@dataclass(frozen=True)
class EdgeScores:
    """One importance score per undirected edge for a target class, and the
    forward passes the scorer ran to get them."""

    values: np.ndarray
    target_class: int
    passes: int = 0  # 0 for scores made outside this module

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
    method: str | None  # None when linear_search is called directly
    forward_passes_used: int  # rows evaluated, one forward pass each


def _target(m: ModelSpec, target_class) -> int:
    """target_class as an int; InvalidSelectionError unless it is an
    integer in [0, m.num_classes)."""
    if not is_integer(target_class) or not 0 <= target_class < m.num_classes:
        raise InvalidSelectionError(
            f"target class {target_class!r} is not an integer in [0, {m.num_classes})"
        )
    return int(target_class)


def _check_choice(kind: str, value, choices: tuple[str, ...]) -> None:
    """ValueError unless `value`, the named option, is one of `choices`;
    checked before any forward pass."""
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}")


def _one_edge_moved(m, g, bases, base_of, edges, values, target_class) -> np.ndarray:
    """Target-class probability of g with its edges carrying row base_of[i]
    of the (k, E) `bases` but for edge edges[i], moved to values[i], or for
    none when edges[i] is negative: one pass per entry of `edges`."""

    def rows(lo, hi):
        weights = bases[base_of[lo:hi]]
        moved = np.flatnonzero(edges[lo:hi] >= 0)
        weights[moved, edges[lo + moved]] = values[lo + moved]
        return weights, np.ones((hi - lo, g.n), dtype=bool)

    return forward_rows(m, g, len(edges), rows)[1][:, target_class]


def linear_gradient_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    original: Prediction | None = None,
) -> EdgeScores:
    """Per-edge importance: the slope (p(G) - p(G with w_e = 0)) / 2 w_e of
    the prediction line from edge e's base point, g.edge_weight with entry
    e at 0, to the graph, over the entrywise L1 distance between their
    adjacencies (both directions of the edge). An edge of weight 0 scores
    0. Exactly |E| forwards plus one for the original prediction when it is
    not supplied."""
    target_class = _target(m, target_class)
    num_edges = g.num_undirected_edges
    passes = num_edges
    if original is None:
        original = forward(m, g)
        passes += 1
    edges = np.arange(num_edges)
    base_of = np.zeros(num_edges, dtype=np.intp)
    at_base = _one_edge_moved(
        m, g, g.edge_weight[None], base_of, edges, np.zeros(num_edges), target_class
    )
    denom = 2.0 * g.edge_weight
    moved = denom != 0.0
    values = np.zeros(num_edges)
    values[moved] = (original.probabilities[target_class] - at_base[moved]) / denom[moved]
    return EdgeScores(values=values, target_class=target_class, passes=passes)


def sa_edge_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    h: float = 1e-3,
) -> EdgeScores:
    """Local-sensitivity baseline: absolute central finite difference of the
    class probability w.r.t. each edge weight, both directions moved
    together, probe points clamped to [0, 1]."""
    target_class = _target(m, target_class)
    if not (is_real(h) and np.isfinite(h) and h > 0):
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
    p = _one_edge_moved(m, g, w[None], base_of, edges, probes, target_class)
    values = np.abs(p[0::2] - p[1::2]) / (hi - lo)
    return EdgeScores(values=values, target_class=target_class, passes=len(edges))


def ig_edge_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    steps: int = 50,
) -> EdgeScores:
    """Path-integral baseline along the straight line from the all-edges-at-0
    adjacency to the graph, all edges moved jointly.

    Each segment contributes, per edge, the forward difference obtained by
    pulling that edge back to its previous path value, which makes the
    Riemann sum telescoping-exact in the one-edge one-step case. Each step
    is |E| + 1 passes: the path point, then one per pulled edge. All steps'
    passes go through one forward_rows call, and the steps' differences
    are summed in step order.
    """
    target_class = _target(m, target_class)
    check_count("steps", steps)
    num_edges = g.num_undirected_edges
    path = np.array([(j / steps) * g.edge_weight for j in range(steps + 1)])
    # Step j is rows (j - 1)(E + 1) .. j(E + 1) - 1 on path point j: its
    # pass 0 moves no edge, its pass e + 1 pulls edge e back to point j - 1.
    block = num_edges + 1
    base_of = np.repeat(np.arange(steps), block)
    edges = np.tile(np.arange(-1, num_edges), steps)
    pulled = np.concatenate((np.full((steps, 1), np.nan), path[:-1]), axis=1).ravel()
    p = _one_edge_moved(m, g, path[1:], base_of, edges, pulled, target_class)
    values = np.zeros(num_edges)
    for step in p.reshape(steps, block):
        values += step[0] - step[1:]
    return EdgeScores(values=values, target_class=target_class, passes=len(edges))


def score_edges(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    method: str,
    original: Prediction | None = None,
) -> EdgeScores:
    """Edge scores by one of METHODS.

    The scorers are looked up by module-global name on each call, so a
    wrapper installed on this module's attribute sees every call.
    """
    _check_choice("method", method, METHODS)
    if method == "linear-gradient":
        return linear_gradient_scores(m, g, target_class, original)
    if method == "sa":
        return sa_edge_scores(m, g, target_class)
    return ig_edge_scores(m, g, target_class)


def rank_edges(scores: EdgeScores) -> tuple[int, ...]:
    """Descending by score, ties by ascending edge index: a stable sort
    keeps equal scores, -0.0 and 0.0 among them, in index order."""
    return tuple(np.argsort(-scores.values, kind="stable").tolist())


def _drops(
    m: ModelSpec,
    g: Graph,
    num_rows: int,
    make_kept,
    target_class: int,
    original: Prediction,
) -> np.ndarray:
    """Probability drop from the graph to the standalone graph of the edges
    kept in each of rows 0 .. num_rows - 1, where make_kept(lo, hi) gives
    rows lo .. hi - 1 as a boolean (hi - lo, E) matrix: one pass per row,
    all in one forward_rows call, which makes the rows a batch at a time."""

    def rows(lo, hi):
        return subgraph_rows(g, make_kept(lo, hi))

    p = forward_rows(m, g, num_rows, rows)[1][:, target_class]
    return original.probabilities[target_class] - p


def _pair_drops(m, g, num_sets, chosen, target_class, original):
    """fidelity_plus and fidelity_minus of edge sets 0 .. num_sets - 1,
    where chosen(i) gives the boolean (len(i), E) rows of the sets i. Rows
    2i and 2i + 1 keep the complement of set i and set i."""

    def kept(lo, hi):
        r = np.arange(lo, hi)
        return chosen(r // 2) ^ (r % 2 == 0)[:, None]

    drops = _drops(m, g, 2 * num_sets, kept, target_class, original)
    return drops[0::2], drops[1::2]


def _prefix_drops(m, g, ranked, sizes, target_class, original):
    """fidelity_plus and fidelity_minus of the prefixes of `ranked` (a
    permutation of all edges) of the given sizes, one pair of passes each."""
    rank = np.empty(g.num_undirected_edges, dtype=np.int64)
    rank[list(ranked)] = np.arange(g.num_undirected_edges)
    sizes = np.asarray(sizes, dtype=np.int64)
    return _pair_drops(m, g, len(sizes), lambda i: rank < sizes[i, None], target_class, original)


def fidelity_plus(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    original: Prediction | None = None,
) -> float:
    """Probability drop when the selected edges are removed: the remainder
    is edge-induced from the complement edge set."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g)
    drops = _drops(m, g, 1, lambda lo, hi: ~selected[None], target_class, original)
    return float(drops[0])


def fidelity_minus(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    original: Prediction | None = None,
) -> float:
    """Probability drop when only the selected edges are kept."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g)
    drops = _drops(m, g, 1, lambda lo, hi: selected[None], target_class, original)
    return float(drops[0])


def overall_fidelity(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    original: Prediction | None = None,
) -> float:
    """fidelity_plus minus fidelity_minus of the selected edges."""
    target_class = _target(m, target_class)
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g)
    sets = selected[None]
    plus, minus = _pair_drops(m, g, 1, lambda i: sets[i], target_class, original)
    return float(plus[0] - minus[0])


def _candidate_range(num_edges: int, k_range: str) -> range:
    # The "paper" variant skips k=1 and k=|E|; degenerate graphs fall back
    # to the full range so a candidate always exists.
    if k_range == "paper" and num_edges >= 3:
        return range(2, num_edges)
    return range(1, num_edges + 1)


def linear_search(
    m: ModelSpec,
    g: Graph,
    ranked: tuple[int, ...],
    target_class: int,
    k_range: str = "full",
    original: Prediction | None = None,
) -> Explanation:
    """Evaluate the ranked-prefix subgraphs and keep the overall-fidelity
    maximizer; ties resolve to the smallest prefix. Two forwards per
    candidate prefix, plus one for the original prediction when it is not
    supplied."""
    target_class = _target(m, target_class)
    _check_choice("k_range", k_range, K_RANGES)
    num_edges = g.num_undirected_edges
    if num_edges < 1:
        raise UndefinedMetricError("cannot search a graph without edges")
    if not all(is_integer(e) for e in ranked):
        raise ValueError("ranked must hold integer edge indices")
    ranked = tuple(int(e) for e in ranked)
    if sorted(ranked) != list(range(num_edges)):
        raise ValueError("ranked must be a permutation of all undirected edges")
    ks = _candidate_range(num_edges, k_range)
    passes = 2 * len(ks)
    if original is None:
        original = forward(m, g)
        passes += 1
    plus, minus = _prefix_drops(m, g, ranked, ks, target_class, original)
    scores = plus - minus
    # argmax takes the first maximum: the smallest best prefix.
    best = int(np.argmax(scores))
    sub = induce_by_edges(g, ranked[: ks[best]])
    return Explanation(
        ranked_edges=ranked,
        scores=None,
        chosen_k=ks[best],
        subgraph=sub,
        fidelity_plus=float(plus[best]),
        fidelity_minus=float(minus[best]),
        overall=float(scores[best]),
        sparsity=sparsity(sub),
        target_class=target_class,
        method=None,
        forward_passes_used=passes,
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
    _check_choice("method", method, METHODS)
    _check_choice("k_range", k_range, K_RANGES)
    original = forward(m, g)
    c = original.predicted_class if auto else target_class
    scores = score_edges(m, g, c, method, original)
    e = linear_search(m, g, rank_edges(scores), c, k_range, original)
    return replace(
        e,
        scores=scores.values,
        method=method,
        forward_passes_used=1 + scores.passes + e.forward_passes_used,
    )


def brute_force_best_subgraph(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    cap: int = 14,
) -> tuple[tuple[int, ...], float]:
    """Exhaustive argmax of overall fidelity over every nonempty undirected
    edge subset; ties go to the lexicographically smallest subset. A graph
    without edges has no such subset: UndefinedMetricError. A `cap` that is
    not an integer >= 1 raises ValueError before any pass."""
    check_count("cap", cap)
    target_class = _target(m, target_class)
    num_edges = g.num_undirected_edges
    if num_edges < 1:
        raise UndefinedMetricError("cannot enumerate the edge subsets of a graph without edges")
    if num_edges > cap:
        raise EnumerationTooLargeError(f"{num_edges} edges exceeds cap {cap}")
    original = forward(m, g)
    bits = np.arange(num_edges)

    def chosen(i):
        # Set i is the subset of bit pattern i + 1.
        return (((i[:, None] + 1) >> bits) & 1).astype(bool)

    plus, minus = _pair_drops(m, g, 2**num_edges - 1, chosen, target_class, original)
    scores = plus - minus
    best = scores.max()
    tied = chosen(np.flatnonzero(scores == best))
    return min(tuple(bits[row].tolist()) for row in tied), float(best)


def explanation_to_json(e: Explanation) -> str:
    """Stable-field-order serialization for diff-based regression checks;
    endpoints come from the explained graph, e.subgraph.parent."""
    g = e.subgraph.parent
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


def save_explanation(e: Explanation, path) -> None:
    with open(path, "w") as fh:
        fh.write(explanation_to_json(e))
        fh.write("\n")
