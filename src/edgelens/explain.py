"""Edge scoring, fidelity metrics, ranked-prefix search, and baselines.

Edge importance is the slope of the line in prediction space between the
graph and a base point where the target edges are re-weighted to a base
weight (default 0, i.e. absent). Search evaluates the |E| subgraphs induced
by prefixes of the importance ranking and keeps the overall-fidelity
maximizer, so the whole pipeline costs O(|E|) forward passes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationTooLargeError,
    InvalidSelectionError,
    UndefinedMetricError,
)
from .graphs import Graph, InducedSubgraph, edge_mask, induce_by_edges, sparsity
from .models import (
    ForwardCounter,
    ModelSpec,
    Prediction,
    forward,
    forward_on_edges,
)

METHODS = ("linear-gradient", "sa", "ig")


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


def _l1_distance(g: Graph, edges, base_weight: float) -> float:
    """Entrywise L1 distance between the adjacency and its base point,
    summed over both directed realizations of each re-weighted edge, one
    edge at a time in index order."""
    return sum((2.0 * np.abs(g.edge_weight[edges] - base_weight)).tolist())


def edge_set_importance(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    base_weight: float = 0.0,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    """Slope of the prediction line from the base point of `edges` to the
    graph: (phi(c|A) - phi(c|A_base)) / |A - A_base|_1."""
    selected = edge_mask(g, edges)
    if not selected.any():
        raise UndefinedMetricError("importance of an empty edge set is undefined")
    if original is None:
        original = forward(m, g, counter)
    base = g.edge_weight.copy()
    base[selected] = base_weight
    at_base = forward(m, g, counter, base)
    denom = _l1_distance(g, selected, base_weight)
    if denom == 0.0:
        return 0.0
    return (
        original.probabilities[target_class] - at_base.probabilities[target_class]
    ) / denom


def linear_gradient_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    base_weight: float = 0.0,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> EdgeScores:
    """Per-edge importance; exactly |E| forwards plus one for the original
    prediction when it is not supplied."""
    if original is None:
        original = forward(m, g, counter)
    values = np.array(
        [
            edge_set_importance(
                m, g, [e], target_class, base_weight, counter, original
            )
            for e in range(g.num_undirected_edges)
        ]
    )
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
    values = np.empty(g.num_undirected_edges)
    probe = g.edge_weight.copy()
    for e in range(g.num_undirected_edges):
        w = g.undirected_weight(e)
        hi = min(1.0, w + h)
        lo = max(0.0, w - h)
        probe[e] = hi
        p_hi = forward(m, g, counter, probe).probabilities
        probe[e] = lo
        p_lo = forward(m, g, counter, probe).probabilities
        probe[e] = w
        values[e] = abs(p_hi[target_class] - p_lo[target_class]) / (hi - lo)
    return EdgeScores(values=values, target_class=target_class, method="sa-fd")


def ig_edge_scores(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    steps: int = 50,
    base_weight: float = 0.0,
    counter: ForwardCounter | None = None,
) -> EdgeScores:
    """Path-integral baseline along the straight line from the all-edges-at-
    base adjacency to the graph, all edges moved jointly.

    Each segment contributes, per edge, the forward difference obtained by
    pulling that edge back to its previous path value, which makes the
    Riemann sum telescoping-exact in the one-edge one-step case.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    span = g.edge_weight - base_weight
    path = [base_weight + (j / steps) * span for j in range(steps + 1)]
    values = np.zeros(g.num_undirected_edges)
    for j in range(1, steps + 1):
        p_t = forward(m, g, counter, path[j]).probabilities[target_class]
        for e in range(g.num_undirected_edges):
            pulled = path[j].copy()
            pulled[e] = path[j - 1][e]
            p_pulled = forward(m, g, counter, pulled).probabilities[target_class]
            values[e] += p_t - p_pulled
    return EdgeScores(values=values, target_class=target_class, method="ig-fd")


def score_edges(
    m: ModelSpec,
    g: Graph,
    target_class: int,
    method: str,
    base_weight: float = 0.0,
    sa_step: float = 1e-3,
    ig_steps: int = 50,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> EdgeScores:
    """Edge scores by one of METHODS.

    The scorers are looked up by module-global name on each call, so a
    wrapper installed on this module's attribute sees every call.
    """
    if method == "linear-gradient":
        return linear_gradient_scores(m, g, target_class, base_weight, counter, original)
    if method == "sa":
        return sa_edge_scores(m, g, target_class, sa_step, counter)
    if method == "ig":
        return ig_edge_scores(m, g, target_class, ig_steps, base_weight, counter)
    raise ValueError(f"unknown method {method!r}")


def rank_edges(scores: EdgeScores) -> tuple[int, ...]:
    """Descending by score, ties by ascending edge index."""
    vals = scores.values
    return tuple(sorted(range(len(vals)), key=lambda i: (-vals[i], i)))


def _drop(
    m: ModelSpec,
    g: Graph,
    kept: np.ndarray,
    target_class: int,
    counter: ForwardCounter | None,
    original: Prediction,
) -> float:
    """Probability drop from the graph to the standalone graph of the edges
    set in the boolean mask `kept`: one forward pass."""
    p = forward_on_edges(m, g, kept, counter).probabilities[target_class]
    return float(original.probabilities[target_class] - p)


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
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g, counter)
    return _drop(m, g, ~selected, target_class, counter, original)


def fidelity_minus(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    """Probability drop when only the selected edges are kept."""
    selected = edge_mask(g, edges)
    if original is None:
        original = forward(m, g, counter)
    return _drop(m, g, selected, target_class, counter, original)


def overall_fidelity(
    m: ModelSpec,
    g: Graph,
    edges,
    target_class: int,
    counter: ForwardCounter | None = None,
    original: Prediction | None = None,
) -> float:
    if original is None:
        original = forward(m, g, counter)
    return fidelity_plus(m, g, edges, target_class, counter, original) - fidelity_minus(
        m, g, edges, target_class, counter, original
    )


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
    num_edges = g.num_undirected_edges
    if num_edges < 1:
        raise UndefinedMetricError("cannot search a graph without edges")
    if sorted(ranked) != list(range(num_edges)):
        raise ValueError("ranked must be a permutation of all undirected edges")
    if counter is None:
        counter = ForwardCounter()
    if original is None:
        original = forward(m, g, counter)
    order = np.array(ranked, dtype=np.int64)
    best_k = None
    best = (-np.inf, 0.0, 0.0)
    for k in _candidate_range(num_edges, k_range):
        prefix = np.zeros(num_edges, dtype=bool)
        prefix[order[:k]] = True
        fplus = _drop(m, g, ~prefix, target_class, counter, original)
        fminus = _drop(m, g, prefix, target_class, counter, original)
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
        sparsity=sparsity(sub, g, unit="edges"),
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
    base_weight: float = 0.0,
    sa_step: float = 1e-3,
    ig_steps: int = 50,
) -> Explanation:
    """Score edges, rank, then search the ranked prefixes.

    With the default method this costs at most 3|E| + 2 forward passes:
    1 original + |E| scoring + 2 per prefix candidate.
    """
    if target_class != "auto" and not 0 <= int(target_class) < m.num_classes:
        raise InvalidSelectionError(
            f"target class {target_class} outside [0, {m.num_classes})"
        )
    counter = ForwardCounter()
    original = forward(m, g, counter)
    c = original.predicted_class if target_class == "auto" else int(target_class)
    scores = score_edges(
        m, g, c, method, base_weight, sa_step, ig_steps, counter, original
    )
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
    num_edges = g.num_undirected_edges
    if num_edges > cap:
        raise EnumerationTooLargeError(f"{num_edges} edges exceeds cap {cap}")
    original = forward(m, g, counter)
    best_subset: tuple[int, ...] | None = None
    best_score = -np.inf
    for size in range(1, num_edges + 1):
        for subset in itertools.combinations(range(num_edges), size):
            chosen = np.zeros(num_edges, dtype=bool)
            chosen[list(subset)] = True
            score = _drop(m, g, ~chosen, target_class, counter, original) - _drop(
                m, g, chosen, target_class, counter, original
            )
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
