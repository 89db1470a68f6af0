"""Evaluation harness: fidelity-vs-sparsity curves, method comparison,
oracle gap reports, and DOT export.

Reports carry both a deterministic text table and a machine-readable dict,
each a pure function of its inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .explain import (
    K_RANGES,
    METHODS,
    Explanation,
    _check_choice,
    _prefix_drops,
    brute_force_best_subgraph,
    explain,
    rank_edges,
    score_edges,
)
from .graphs import is_integer, is_real
from .models import ModelSpec, forward


@dataclass(frozen=True)
class CurvePoint:
    sparsity_level: float
    fidelity_plus: float
    fidelity_minus: float
    overall: float
    n_instances: int


def fidelity_curve(
    m: ModelSpec, dataset, method: str, levels
) -> list[CurvePoint]:
    """Mean fidelity of the top-ceil((1 - level) * |E|) ranked edges per
    sparsity level (see _prefix_size), averaged over the dataset."""
    _check_choice("method", method, METHODS)
    levels = list(levels)
    for level in levels:
        if not (is_real(level) and 0.0 <= level <= 1.0):
            raise ValueError(f"sparsity level {level!r} outside [0, 1]")
    per_graph = []
    for rec in dataset:
        g = rec.graph
        original = forward(m, g)
        c = original.predicted_class
        ranked = rank_edges(score_edges(m, g, c, method, original=original))
        sizes = [_prefix_size(level, g.num_undirected_edges) for level in levels]
        plus, minus = _prefix_drops(m, g, ranked, sizes, c, original)
        per_graph.append((plus.tolist(), minus.tolist()))
    count = len(per_graph)
    if count == 0:
        raise UndefinedMetricError("empty dataset; no fidelity to average")
    points = []
    for i, level in enumerate(levels):
        # Summed in dataset order, as np.sum's pairwise order would change the floats.
        fplus_sum = fminus_sum = 0.0
        for plus, minus in per_graph:
            fplus_sum += plus[i]
            fminus_sum += minus[i]
        points.append(
            CurvePoint(
                sparsity_level=level,
                fidelity_plus=fplus_sum / count,
                fidelity_minus=fminus_sum / count,
                overall=(fplus_sum - fminus_sum) / count,
                n_instances=count,
            )
        )
    return points


def _prefix_size(level, num_edges: int) -> int:
    """ceil((1 - level) * num_edges) in exact arithmetic on the decimal
    that `level` prints as: level 0.7 keeps 3 of 10 edges. In floats
    (1 - 0.7) * 10 is 3.0000000000000004, whose ceiling is 4."""
    # Imported here: fractions loads decimal, about 0.5 MB that every
    # `import edgelens` would pay for this one function.
    from fractions import Fraction

    return math.ceil((1 - Fraction(str(level))) * num_edges)


@dataclass(frozen=True)
class MethodSummary:
    method: str
    mean_overall: float
    mean_sparsity: float
    mean_forward_passes: float
    n_instances: int


def compare_methods(
    m: ModelSpec, dataset, methods=METHODS, k_range: str = "full"
) -> list[MethodSummary]:
    """Run every ranking method through the same prefix search and tabulate
    mean overall fidelity, chosen sparsity and forward passes."""
    if len(dataset) == 0:
        raise UndefinedMetricError("empty dataset; no method to compare")
    methods = tuple(methods)
    for method in methods:
        _check_choice("method", method, METHODS)
    _check_choice("k_range", k_range, K_RANGES)
    summaries = []
    for method in methods:
        overall = spars = passes = 0.0
        for rec in dataset:
            e = explain(m, rec.graph, method=method, k_range=k_range)
            overall += e.overall
            spars += e.sparsity
            passes += e.forward_passes_used
        k = len(dataset)
        summaries.append(
            MethodSummary(
                method=method,
                mean_overall=overall / k,
                mean_sparsity=spars / k,
                mean_forward_passes=passes / k,
                n_instances=k,
            )
        )
    return summaries


@dataclass(frozen=True)
class OracleReport:
    n_evaluated: int
    n_skipped: int
    mean_gap: float
    max_gap: float
    mean_ratio: float  # mean over instances of search / oracle (1.0 when equal)
    gaps: tuple[float, ...]


def oracle_report(m: ModelSpec, dataset, cap: int = 14) -> OracleReport:
    """Exhaustive best vs prefix-search best per instance; the oracle can
    never lose, the report shows by how much it wins. A `cap` that is not
    an integer raises ValueError before any pass, and one below 1, which
    no graph with an edge fits, UndefinedMetricError."""
    if not is_integer(cap):
        raise ValueError(f"cap must be an integer, got {cap!r}")
    if cap < 1:
        raise UndefinedMetricError(f"cap {cap} admits no graph with an edge; nothing to evaluate")
    gaps = []
    ratios = []
    skipped = 0
    for rec in dataset:
        g = rec.graph
        if g.num_undirected_edges > cap:
            skipped += 1
            continue
        e = explain(m, g, method="linear-gradient", k_range="full")
        _, oracle_best = brute_force_best_subgraph(m, g, e.target_class, cap=cap)
        gaps.append(oracle_best - e.overall)
        if oracle_best > 0 and e.overall > 0:
            ratios.append(e.overall / oracle_best)
        else:
            ratios.append(1.0 if gaps[-1] == 0 else 0.0)
    if not gaps:
        raise UndefinedMetricError(
            f"no graph has at most {cap} edges ({skipped} skipped); nothing to evaluate"
        )
    return OracleReport(
        n_evaluated=len(gaps),
        n_skipped=skipped,
        mean_gap=float(np.mean(gaps)),
        max_gap=float(np.max(gaps)),
        mean_ratio=float(np.mean(ratios)),
        gaps=tuple(gaps),
    )


def export_dot(e: Explanation, path) -> None:
    """DOT rendering of the explained graph, e.subgraph.parent, with the
    explanation edges bold red and the rest gray."""
    g = e.subgraph.parent
    chosen = set(e.subgraph.edges)
    lines = ["graph explanation {"]
    lines.append('  node [shape=circle, fontsize=10];')
    for v in range(g.n):
        lines.append(f"  {v};")
    for i in range(g.num_undirected_edges):
        u, v = g.undirected_endpoints(i)
        if i in chosen:
            attrs = 'color="red", penwidth=3.0'
        else:
            attrs = 'color="gray", penwidth=1.0'
        lines.append(f"  {u} -- {v} [{attrs}];")
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def format_table(rows: list[dict]) -> str:
    """Fixed-width text table with deterministic column order."""
    if not rows:
        return "(empty)\n"
    cols = list(rows[0].keys())
    cells = [[_fmt(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    out = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def write_report(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
