"""Graph representation, subgraph inducing techniques, and structural metrics.

Graphs are stored as a directed weighted edge list in which every edge is
paired with its reverse. Selections, rankings and sparsity all operate on
the undirected pairing; the directed list is an encoding detail. Each graph
also derives undirected endpoint arrays and an (E,) weight array once, which
the forward engine indexes instead of walking the edge list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    EnumerationTooLargeError,
    InvalidSelectionError,
    UndefinedMetricError,
)

GRAPH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Graph:
    """An attributed graph instance.

    features: (n, d) float64 matrix, row v is the feature vector of node v.
    directed_edges: tuple of (src, dst, weight), weight in [0, 1].
    undirected_pairs: tuple of (i_fwd, i_rvs) index pairs into directed_edges;
        the two directed edges realizing one undirected edge. Every directed
        edge belongs to exactly one pair and both carry the same weight.
    node_ids: stable node identifiers, position = internal index.

    Derived, read-only, indexed by undirected edge: edge_u and edge_v are
    the endpoints with edge_u < edge_v, edge_weight the weight.
    """

    features: np.ndarray
    directed_edges: tuple[tuple[int, int, float], ...]
    undirected_pairs: tuple[tuple[int, int], ...]
    node_ids: tuple[int, ...]
    label: int | None = None
    edge_u: np.ndarray = field(init=False, repr=False, compare=False)
    edge_v: np.ndarray = field(init=False, repr=False, compare=False)
    edge_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] != len(self.node_ids):
            raise DataFormatError(
                f"features must be (n, d) with n={len(self.node_ids)}, got {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise DataFormatError("features contain NaN/Inf")
        object.__setattr__(self, "features", feats)
        n = self.n
        seen = set()
        for src, dst, w in self.directed_edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise DataFormatError(f"edge ({src}, {dst}) out of range for n={n}")
            if src == dst:
                raise DataFormatError("self-loops are not allowed in input graphs")
            if not (math.isfinite(w) and 0.0 <= w <= 1.0):
                raise DataFormatError(f"edge weight {w} outside [0, 1]")
            if (src, dst) in seen:
                raise DataFormatError(f"duplicate directed edge ({src}, {dst})")
            seen.add((src, dst))
        used = set()
        us, vs, ws = [], [], []
        for i_fwd, i_rvs in self.undirected_pairs:
            for i in (i_fwd, i_rvs):
                if not 0 <= i < len(self.directed_edges):
                    raise DataFormatError(f"pair index {i} out of range")
                if i in used:
                    raise DataFormatError(f"directed edge {i} appears in two pairs")
                used.add(i)
            sf, df, wf = self.directed_edges[i_fwd]
            sr, dr, wr = self.directed_edges[i_rvs]
            if (sf, df) != (dr, sr):
                raise DataFormatError("paired edges must have swapped endpoints")
            if wf != wr:
                raise DataFormatError(
                    f"edge ({sf}, {df}) has weight {wf} one way and {wr} the other"
                )
            us.append(min(sf, df))
            vs.append(max(sf, df))
            ws.append(wf)
        if len(used) != len(self.directed_edges):
            unpaired = min(set(range(len(self.directed_edges))) - used)
            src, dst, _ = self.directed_edges[unpaired]
            raise DataFormatError(
                f"directed edge ({src}, {dst}) belongs to no undirected pair"
            )
        for name, values, dtype in (
            ("edge_u", us, np.int64),
            ("edge_v", vs, np.int64),
            ("edge_weight", ws, np.float64),
        ):
            arr = np.array(values, dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_undirected_edges(self) -> int:
        return len(self.undirected_pairs)

    def undirected_endpoints(self, i: int) -> tuple[int, int]:
        """Endpoints (u, v) with u < v of undirected edge i."""
        src, dst, _ = self.directed_edges[self.undirected_pairs[i][0]]
        return (src, dst) if src < dst else (dst, src)

    def undirected_weight(self, i: int) -> float:
        return self.directed_edges[self.undirected_pairs[i][0]][2]

    @staticmethod
    def undirected(
        features: np.ndarray,
        edges: Sequence[tuple[int, int]] | Sequence[tuple[int, int, float]],
        label: int | None = None,
    ) -> "Graph":
        """Build an undirected graph; each input edge yields a fwd/rvs pair."""
        directed: list[tuple[int, int, float]] = []
        pairs: list[tuple[int, int]] = []
        for e in edges:
            if len(e) == 3:
                u, v, w = e
            else:
                u, v = e
                w = 1.0
            u, v = (int(u), int(v)) if u <= v else (int(v), int(u))
            directed.append((u, v, float(w)))
            directed.append((v, u, float(w)))
            pairs.append((len(directed) - 2, len(directed) - 1))
        feats = np.asarray(features, dtype=np.float64)
        return Graph(
            features=feats,
            directed_edges=tuple(directed),
            undirected_pairs=tuple(pairs),
            node_ids=tuple(range(feats.shape[0])),
            label=label,
        )


@dataclass(frozen=True)
class SubgraphSelection:
    """A node-set / edge-set choice feeding one of the inducing techniques."""

    mode: str  # "node" | "edge" | "node-and-edge"
    node_set: frozenset[int] = frozenset()
    edge_set: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.mode not in ("node", "edge", "node-and-edge"):
            raise InvalidSelectionError(f"unknown mode {self.mode!r}")
        if self.mode == "node" and self.edge_set:
            raise InvalidSelectionError("mode=node requires an empty edge set")
        if self.mode == "edge" and self.node_set:
            raise InvalidSelectionError("mode=edge requires an empty node set")
        object.__setattr__(self, "node_set", frozenset(self.node_set))
        object.__setattr__(self, "edge_set", frozenset(self.edge_set))


@dataclass(frozen=True)
class Component:
    nodes: tuple[int, ...]
    edges: tuple[int, ...]  # undirected indices into the parent graph
    has_edges: bool


@dataclass(frozen=True)
class InducedSubgraph:
    """A subgraph of `parent` given by node ids and undirected edge indices."""

    parent: Graph
    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    components: tuple[Component, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _check_nodes(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    vs = frozenset(int(v) for v in vs)
    bad = [v for v in vs if not 0 <= v < g.n]
    if bad:
        raise InvalidSelectionError(f"unknown node ids {sorted(bad)}")
    return vs


def _check_edges(g: Graph, es: Iterable[int]) -> frozenset[int]:
    es = frozenset(int(e) for e in es)
    bad = [e for e in es if not 0 <= e < g.num_undirected_edges]
    if bad:
        raise InvalidSelectionError(f"unknown edge indices {sorted(bad)}")
    return es


def edge_mask(g: Graph, es: Iterable[int]) -> np.ndarray:
    """Boolean (E,) mask of the undirected edges in es."""
    mask = np.zeros(g.num_undirected_edges, dtype=bool)
    mask[list(_check_edges(g, es))] = True
    return mask


def _components_of(
    g: Graph, nodes: frozenset[int], edges: frozenset[int]
) -> tuple[Component, ...]:
    """Connected components of the subgraph (nodes, edges), ordered by
    smallest node id; each component lists its nodes/edges ascending."""
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    edges_at: dict[int, list[int]] = {v: [] for v in nodes}
    for e in edges:
        u, v = g.undirected_endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
        edges_at[u].append(e)
    comps = []
    seen: set[int] = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        stack = [start]
        comp_nodes = []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp_nodes.append(v)
            stack.extend(u for u in adj[v] if u not in seen)
        comp_edges = sorted(e for v in comp_nodes for e in edges_at[v])
        comps.append(
            Component(
                nodes=tuple(sorted(comp_nodes)),
                edges=tuple(comp_edges),
                has_edges=bool(comp_edges),
            )
        )
    return tuple(comps)


def _build(g: Graph, nodes: frozenset[int], edges: frozenset[int]) -> InducedSubgraph:
    return InducedSubgraph(
        parent=g,
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges)),
        components=_components_of(g, nodes, edges),
    )


def induce_by_nodes(g: Graph, vs: Iterable[int]) -> InducedSubgraph:
    """Subgraph on node set vs with every parent edge internal to vs."""
    vs = _check_nodes(g, vs)
    edges = frozenset(
        i
        for i in range(g.num_undirected_edges)
        if set(g.undirected_endpoints(i)) <= vs
    )
    return _build(g, vs, edges)


def induce_by_edges(g: Graph, es: Iterable[int]) -> InducedSubgraph:
    """Subgraph on edge set es; nodes are exactly the endpoints of es."""
    es = _check_edges(g, es)
    nodes = frozenset(v for e in es for v in g.undirected_endpoints(e))
    return _build(g, nodes, es)


def induce_by_nodes_and_edges(
    g: Graph, vs: Iterable[int], es: Iterable[int]
) -> InducedSubgraph:
    """Union technique: nodes = vs + endpoints(es), edges = es + internal(vs)."""
    vs = _check_nodes(g, vs)
    es = _check_edges(g, es)
    nodes = vs | frozenset(v for e in es for v in g.undirected_endpoints(e))
    edges = es | frozenset(
        i
        for i in range(g.num_undirected_edges)
        if set(g.undirected_endpoints(i)) <= vs
    )
    return _build(g, nodes, edges)


def induce(g: Graph, sel: SubgraphSelection) -> InducedSubgraph:
    if sel.mode == "node":
        return induce_by_nodes(g, sel.node_set)
    if sel.mode == "edge":
        return induce_by_edges(g, sel.edge_set)
    return induce_by_nodes_and_edges(g, sel.node_set, sel.edge_set)


def connected_components(g: Graph) -> tuple[Component, ...]:
    """Components of the whole graph, deterministic ordering."""
    return _components_of(
        g, frozenset(range(g.n)), frozenset(range(g.num_undirected_edges))
    )


def intuitiveness(s: InducedSubgraph) -> float:
    """Fraction of components that carry at least one edge."""
    if not s.components:
        raise UndefinedMetricError("intuitiveness of an empty subgraph is undefined")
    with_edges = sum(1 for c in s.components if c.has_edges)
    return with_edges / len(s.components)


def sparsity(s: InducedSubgraph, g: Graph, unit: str = "edges") -> float:
    """1 - |s| / |g| counted in edges or nodes."""
    if unit == "edges":
        total, part = g.num_undirected_edges, s.num_edges
    elif unit == "nodes":
        total, part = g.n, s.num_nodes
    else:
        raise ValueError(f"unknown unit {unit!r}")
    if total == 0:
        raise UndefinedMetricError(f"graph has no {unit}")
    return 1.0 - part / total


def enumerate_connected_edge_subgraphs(
    g: Graph, cap: int = 16
) -> list[tuple[int, ...]]:
    """All connected subgraphs with >=1 edge, as sorted undirected-index
    tuples, each exactly once, in canonical (lexicographic) order.

    Subsets are grown from their minimum edge so every connected subset is
    produced once without a power-set sweep.
    """
    m = g.num_undirected_edges
    if m > cap:
        raise EnumerationTooLargeError(f"{m} edges exceeds cap {cap}")
    adj = [set() for _ in range(m)]
    at_node: dict[int, list[int]] = {}
    for i in range(m):
        for v in g.undirected_endpoints(i):
            at_node.setdefault(v, []).append(i)
    for edges in at_node.values():
        for i in edges:
            adj[i].update(j for j in edges if j != i)
    out: list[tuple[int, ...]] = []

    def grow(sub: set[int], ext: list[int], excluded: set[int], root: int):
        out.append(tuple(sorted(sub)))
        for pos, e in enumerate(ext):
            new_excluded = excluded | set(ext[:pos])
            fresh = sorted(
                f
                for f in adj[e]
                if f > root
                and f not in sub
                and f not in new_excluded
                and f not in ext
            )
            grow(sub | {e}, ext[pos + 1 :] + fresh, new_excluded, root)

    for root in range(m):
        grow({root}, sorted(f for f in adj[root] if f > root), set(), root)
    return sorted(out)


def _node_reachable(g: Graph, edge_subset: tuple[int, ...]) -> bool:
    """True when the node technique can produce edge_subset as a component:
    the subset must contain every parent edge among its endpoints."""
    nodes = {v for e in edge_subset for v in g.undirected_endpoints(e)}
    chosen = set(edge_subset)
    for i in range(g.num_undirected_edges):
        if i not in chosen and set(g.undirected_endpoints(i)) <= nodes:
            return False
    return True


def exhaustiveness(technique: str, g: Graph, cap: int = 16) -> float:
    """Fraction of the graph's connected edge-bearing subgraphs producible
    as a component of some selection under the technique."""
    if technique not in ("node", "edge", "node-and-edge"):
        raise ValueError(f"unknown technique {technique!r}")
    all_subs = enumerate_connected_edge_subgraphs(g, cap=cap)
    if not all_subs:
        raise UndefinedMetricError("graph has no edge-bearing subgraphs")
    if technique in ("edge", "node-and-edge"):
        # Selecting exactly the subset (with an empty node set) realizes it.
        return 1.0
    reachable = sum(1 for sub in all_subs if _node_reachable(g, sub))
    return reachable / len(all_subs)


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json(g))


def graph_to_json(g: Graph) -> str:
    obj = {
        "version": GRAPH_SCHEMA_VERSION,
        "n": g.n,
        "features": g.features.tolist(),
        "edges": [
            [
                *g.undirected_endpoints(i),
                g.undirected_weight(i),
            ]
            for i in range(g.num_undirected_edges)
        ],
        "undirected": True,
    }
    if g.label is not None:
        obj["label"] = g.label
    return json.dumps(obj, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid graph JSON: {exc}") from exc
    return _graph_from_obj(obj)


def _graph_from_obj(obj: dict) -> Graph:
    for key in ("n", "features", "edges", "undirected"):
        if key not in obj:
            raise DataFormatError(f"graph record missing field {key!r}")
    feats = np.asarray(obj["features"], dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != obj["n"]:
        raise DataFormatError("features shape does not match n")
    if not obj["undirected"]:
        raise DataFormatError("only undirected graphs are supported")
    edges = [(int(u), int(v), float(w)) for u, v, w in obj["edges"]]
    return Graph.undirected(feats, edges, label=obj.get("label"))


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_json(fh.read())
