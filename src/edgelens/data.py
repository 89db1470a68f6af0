"""Synthetic benchmark generators with ground-truth edge masks, plus the
rank-based AUC metric for edge attributions.

All randomness comes from numpy's default_rng (PCG64) seeded once per
corpus, so a (kind, args, seed) triple always reproduces byte-identical
datasets. Each graph draws its tree's attachment picks in node order, then
its motif anchors. Draws whose bounds are all known up front are made in
one rng.integers call with an array of bounds, which returns what one
scalar call per bound would, in the same order, and leaves the generator
in the same state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, UndefinedMetricError
from .graphs import Graph, _graph_from_obj, _graph_to_obj, check_count, is_integer

FEATURE_DIM = 10

HOUSE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]  # 5-cycle + roof chord
PENTAGON_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
STAR_EDGES = [(0, 1), (0, 2)]  # center + two leaves


def _non_negative_int(name: str, value) -> int:
    """`value` as an int; DataFormatError unless it is an integer (not a
    bool) >= 0."""
    if not (is_integer(value) and value >= 0):
        raise DataFormatError(f"{name} {value!r} is not an integer >= 0")
    return int(value)


@dataclass(frozen=True)
class DatasetRecord:
    """A graph with its class label and ground truth, the one home of the
    label. The label and motif_count are integers >= 0 and the mask entries
    the integers 0 and 1, each stored as an int whatever integer type it
    came as, so every record saves and loads back."""

    graph: Graph
    label: int
    gt_edge_mask: tuple[int, ...]  # 1 = planted motif edge
    motif_count: int

    def __post_init__(self):
        object.__setattr__(self, "label", _non_negative_int("label", self.label))
        mask = self.gt_edge_mask
        # Set-based checks: a generator makes one record per graph.
        if not set(map(type, mask)) <= {int}:
            if not all(map(is_integer, mask)):
                raise DataFormatError(f"gt_edge_mask {mask!r} holds a non-integer")
            mask = map(int, mask)
        mask = tuple(mask)
        if not set(mask) <= {0, 1}:
            raise DataFormatError(f"gt_edge_mask {mask!r} holds an entry other than 0 and 1")
        if len(mask) != self.graph.num_undirected_edges:
            raise DataFormatError("gt_edge_mask length != undirected edge count")
        object.__setattr__(self, "gt_edge_mask", mask)
        object.__setattr__(self, "motif_count", _non_negative_int("motif_count", self.motif_count))


def _tree_bounds(num_nodes: int) -> np.ndarray:
    """The bound of each draw that grows a preferential-attachment tree on
    num_nodes nodes: node v >= 2 picks one of the 2(v - 1) endpoints of the
    v - 1 edges before it."""
    return np.arange(2, 2 * num_nodes - 2, 2)


def _tree_endpoints(picks) -> tuple[list[int], list[int]]:
    """Endpoints (u, v) of the preferential-attachment tree (one edge per
    new node) whose node v >= 2 attaches to the endpoint picks[v - 2] of
    the list of every edge's endpoints so far: edge (0, 1), then one edge
    (target, v) per node, in node order."""
    flat = [0, 1]
    for v, pick in enumerate(picks, start=2):
        flat += (flat[pick], v)
    return flat[0::2], flat[1::2]


def _attach_motif(
    u: list[int], v: list[int], anchor: int, offset: int, motif: list[tuple[int, int]]
) -> list[int]:
    """Append to the endpoint lists a motif copy at node offset, joined to
    base node `anchor` by one edge; returns the mask of the appended edges:
    0 for the joining edge, 1 for each motif edge."""
    u.append(anchor)
    v.append(offset)
    u.extend(offset + a for a, _ in motif)
    v.extend(offset + b for _, b in motif)
    return [0] + [1] * len(motif)


def _record(num_nodes: int, u, v, label: int, mask, motif_count: int) -> DatasetRecord:
    """A generated record: all-ones features, which are writable and so
    the graph's own, and unit edge weights."""
    graph = Graph(np.ones((num_nodes, FEATURE_DIM)), u, v, np.ones(len(u)))
    return DatasetRecord(graph, label, tuple(mask), motif_count)


def gen_ba2motifs_mini(
    n_graphs: int, base_nodes: int = 20, seed: int = 0
) -> list[DatasetRecord]:
    """Balanced two-class corpus: preferential-attachment base plus one
    planted motif, house (class 0) or pentagon (class 1). ValueError unless
    n_graphs and seed are integers >= 0 and base_nodes one >= 5.

    Each graph draws its tree's picks in node order, then the anchor that
    joins the motif to the base. Every bound is known up front, so the
    whole corpus takes one draw with an array of bounds, which returns the
    values the scalar draws would, in order, and leaves the generator in
    the same state (tests/test_data.py pins this numpy fact)."""
    check_count("n_graphs", n_graphs, least=0)
    check_count("base_nodes", base_nodes, least=5)
    check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    bounds = np.append(_tree_bounds(base_nodes), base_nodes)
    draws = rng.integers(0, np.tile(bounds, n_graphs)).reshape(n_graphs, len(bounds))
    records = []
    for i, (*picks, anchor) in enumerate(draws.tolist()):
        label = i % 2
        u, v = _tree_endpoints(picks)
        motif = HOUSE_EDGES if label == 0 else PENTAGON_EDGES
        mask = [0] * len(u) + _attach_motif(u, v, anchor, base_nodes, motif)
        records.append(_record(base_nodes + 5, u, v, label, mask, 1))
    return records


def gen_varsize_motifs(
    n_graphs: int, max_motifs: int = 3, base_nodes: int = 12, seed: int = 0
) -> list[DatasetRecord]:
    """Class 1 graphs carry 1..max_motifs vertex-disjoint 3-node stars, so
    ground-truth explanations vary in size and can be disconnected; class 0
    graphs carry none. ValueError unless n_graphs and seed are integers
    >= 0, max_motifs one >= 1 and base_nodes one >= 2.

    Each graph draws its tree's picks in node order, in one draw with an
    array of bounds as gen_ba2motifs_mini does; a class 1 graph then draws
    its motif count and each motif's anchor, one at a time."""
    check_count("n_graphs", n_graphs, least=0)
    check_count("max_motifs", max_motifs)
    check_count("base_nodes", base_nodes, least=2)
    check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    tree_bounds = _tree_bounds(base_nodes)
    records = []
    for i in range(n_graphs):
        label = i % 2
        u, v = _tree_endpoints(rng.integers(0, tree_bounds).tolist())
        mask = [0] * len(u)
        count = int(rng.integers(1, max_motifs + 1)) if label == 1 else 0
        for k in range(count):
            anchor = int(rng.integers(0, base_nodes))
            mask += _attach_motif(u, v, anchor, base_nodes + 3 * k, STAR_EDGES)
        records.append(_record(base_nodes + 3 * count, u, v, label, mask, count))
    return records


def edge_mask_auc(scores, gt_mask) -> float:
    """ROC AUC of per-edge scores against a binary mask, rank-based; tied
    scores contribute half credit per tied pair.

    Each tie group gets the average of the ordinal ranks it spans, so every
    rank is an exact half-integer and the result is the same to the bit as
    with scipy's "average" ranking. The groups are the runs of equal values
    in a stable sort of the scores; np.unique would import numpy.ma (numpy
    2.4), 1.1-1.5 MB of memory for one call.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt_mask)
    if scores.ndim != 1 or gt.ndim != 1:
        raise DataFormatError("scores and mask must be 1-D")
    if scores.shape != gt.shape:
        raise DataFormatError("scores and mask must have equal length")
    if not np.isfinite(scores).all():
        raise DataFormatError("scores must be finite")
    positive = gt == 1
    if not (positive | (gt == 0)).all():
        raise DataFormatError("mask entries must be 0 or 1")
    pos = int(positive.sum())
    neg = len(gt) - pos
    if pos == 0 or neg == 0:
        raise UndefinedMetricError("mask must contain a positive and a negative")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=len(scores))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(np.cumsum(counts) - 0.5 * (counts - 1), counts)
    return float((ranks[positive].sum() - pos * (pos + 1) / 2) / (pos * neg))


def record_to_json(rec: DatasetRecord) -> str:
    """One dataset line. The graph object repeats the record's label last,
    where dataset files have always carried it."""
    graph = _graph_to_obj(rec.graph)
    graph["label"] = rec.label
    obj = {
        "graph": graph,
        "label": rec.label,
        "gt_edge_mask": list(rec.gt_edge_mask),
        "motif_count": rec.motif_count,
    }
    return json.dumps(obj, separators=(",", ":"))


def save_dataset(records, path) -> None:
    """One JSON record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(record_to_json(rec))
            fh.write("\n")


def _record_from_obj(obj) -> DatasetRecord:
    if not isinstance(obj, dict):
        raise DataFormatError("record is not a JSON object")
    for key in ("graph", "label", "gt_edge_mask", "motif_count"):
        if key not in obj:
            raise DataFormatError(f"record missing field {key!r}")
    mask = obj["gt_edge_mask"]
    if not isinstance(mask, list):
        raise DataFormatError(f"gt_edge_mask {mask!r} is not a list")
    rec = DatasetRecord(
        graph=_graph_from_obj(obj["graph"]),
        label=obj["label"],
        gt_edge_mask=mask,
        motif_count=obj["motif_count"],
    )
    graph_label = obj["graph"].get("label")
    if graph_label not in (None, rec.label):
        raise DataFormatError(f"label {rec.label} differs from the graph's label {graph_label}")
    return rec


def load_dataset(path) -> list[DatasetRecord]:
    """Records from a JSON Lines file. A line's graph object may repeat its
    label and must then agree with it. Any bad record raises
    DataFormatError naming its line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_record_from_obj(json.loads(line)))
            except (ValueError, json.JSONDecodeError) as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
    return records


def dataset_checksum(records) -> str:
    """SHA-256 over the serialized records; pins generator determinism."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(record_to_json(rec).encode())
        digest.update(b"\n")
    return digest.hexdigest()
