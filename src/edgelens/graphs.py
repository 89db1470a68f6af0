"""Graph representation, subgraph inducing techniques, and structural metrics.

A graph stores each undirected edge once, in parallel read-only (E,) arrays
of endpoints `edge_u < edge_v` and weights `edge_weight`. Edge i is the i-th
input edge; selections, rankings and sparsity all use that index, and the
forward engine writes both directions of the adjacency from the arrays.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    EnumerationTooLargeError,
    InvalidSelectionError,
    UndefinedMetricError,
)

GRAPH_SCHEMA_VERSION = 1


def check_edge_weights(w: np.ndarray) -> None:
    """Raise DataFormatError unless every weight of the float64 array `w`
    is finite and in [0, 1], naming the first that is not.

    A NaN makes the minimum and the maximum NaN, and each comparison with
    NaN is False, so the two reductions reject it as they reject an
    infinity; the weight is located only on failure."""
    if w.size and not (w.min() >= 0.0 and w.max() <= 1.0):
        valid = np.isfinite(w) & (w >= 0.0) & (w <= 1.0)
        raise DataFormatError(f"edge weight {w.flat[np.argmin(valid)]} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class Graph:
    """An attributed undirected graph.

    features: (n, d) float64 matrix, row v is the feature vector of node v.
    edge_u, edge_v: (E,) int64 endpoints of each undirected edge, stored
        with edge_u < edge_v whichever order they were given in.
    edge_weight: (E,) float64 edge weights in [0, 1]; a -0.0 weight is
        stored as 0.0, so every stored weight has its sign bit clear.

    The edge arrays are read-only. Graphs compare by identity: array fields
    would make `==` elementwise.
    """

    features: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_weight: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2:
            raise DataFormatError(f"features must be (n, d), got {feats.shape}")
        if not np.isfinite(feats).all():
            raise DataFormatError("features contain NaN/Inf")
        a = np.asarray(self.edge_u, dtype=np.int64)
        b = np.asarray(self.edge_v, dtype=np.int64)
        w = np.array(self.edge_weight, dtype=np.float64)
        if not (a.ndim == b.ndim == w.ndim == 1 and len(a) == len(b) == len(w)):
            raise DataFormatError(
                f"edge arrays must be 1-D of equal length, got "
                f"{a.shape}, {b.shape} and {w.shape}"
            )
        n = feats.shape[0]
        u, v = np.minimum(a, b), np.maximum(a, b)
        # Every endpoint is in range when the smallest u and the largest v
        # are; the first edge that is not is located only on failure.
        if len(u) and (u.min() < 0 or v.max() >= n):
            outside = (a < 0) | (a >= n) | (b < 0) | (b >= n)
            i = np.argmax(outside)
            raise DataFormatError(f"edge ({a[i]}, {b[i]}) out of range for n={n}")
        if (u == v).any():
            raise DataFormatError("self-loops are not allowed in input graphs")
        check_edge_weights(w)
        w += 0.0  # stores -0.0 as 0.0: -0.0 + 0.0 is +0.0
        # A stable sort by the packed key u * n + v orders the edges by u
        # and then by v, as np.lexsort((v, u)) does, and keeps equal keys
        # in input order, so the first repeat in that order is named.
        key = u * n + v
        order = key.argsort(kind="stable")
        ordered = key[order]
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            i = order[1:][np.argmax(repeated)]
            raise DataFormatError(f"duplicate undirected edge ({u[i]}, {v[i]})")
        for name, arr in (("edge_u", u), ("edge_v", v), ("edge_weight", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_undirected_edges(self) -> int:
        return len(self.edge_u)

    def undirected_endpoints(self, i: int) -> tuple[int, int]:
        """Endpoints (u, v) with u < v of undirected edge i."""
        return int(self.edge_u[i]), int(self.edge_v[i])

    def undirected_weight(self, i: int) -> float:
        return float(self.edge_weight[i])

    @staticmethod
    def undirected(
        features: np.ndarray,
        edges: Sequence[tuple[int, int]] | Sequence[tuple[int, int, float]],
    ) -> "Graph":
        """Build a graph from (u, v) or (u, v, w) tuples; w defaults to 1."""
        rows = [(*e, 1.0) if len(e) == 2 else tuple(e) for e in edges]
        u, v, w = zip(*rows) if rows else ((), (), ())
        return Graph(features, u, v, w)


@dataclass(frozen=True)
class InducedSubgraph:
    """A subgraph of `parent` given by node ids and undirected edge indices,
    each ascending."""

    parent: Graph
    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool, a float, a
    string or anything else, whatever value it would convert to. An int
    is answered without the abstract-class check."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def is_real(value) -> bool:
    """True for an int, a float or a numpy integer or float; False for a
    bool, a string or anything else."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, least: int = 1) -> None:
    """ValueError unless `value`, the named count, is an integer (not a
    bool) >= least."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def number_array(value) -> np.ndarray:
    """A JSON value as a float64 array. ValueError unless it is a number or
    equal-length lists, nested to any depth, of JSON numbers: ints and
    floats, not the booleans and numeric strings numpy would convert."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(str(exc)) from exc
    items = [value]
    for _ in range(arr.ndim):
        items = [x for row in items for x in row]
    bad = [x for x in items if type(x) not in (int, float)]
    if bad:
        raise ValueError(f"{bad[0]!r} is not a JSON number")
    return arr


def _check_ids(ids: Iterable[int], count: int, what: str) -> frozenset[int]:
    """The ids as a frozenset of ints; InvalidSelectionError for an id that
    is not an integer or not in [0, count)."""
    ids = list(ids)
    wrong = [i for i in ids if not is_integer(i)]
    if wrong:
        raise InvalidSelectionError(f"{what} must be integers, got {wrong!r}")
    ids = frozenset(int(i) for i in ids)
    bad = [i for i in ids if not 0 <= i < count]
    if bad:
        raise InvalidSelectionError(f"unknown {what} {sorted(bad)}")
    return ids


def edge_mask(g: Graph, es: Iterable[int]) -> np.ndarray:
    """Boolean (E,) mask of the undirected edges in es."""
    mask = np.zeros(g.num_undirected_edges, dtype=bool)
    mask[list(_check_ids(es, g.num_undirected_edges, "edge indices"))] = True
    return mask


def node_mask(g: Graph, vs: Iterable[int]) -> np.ndarray:
    """Boolean (n,) mask of the nodes in vs."""
    mask = np.zeros(g.n, dtype=bool)
    mask[list(_check_ids(vs, g.n, "node ids"))] = True
    return mask


def _internal_edges(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    """The parent edges with both endpoints in vs."""
    inside = np.zeros(g.n, dtype=bool)
    inside[list(vs)] = True
    return frozenset(np.flatnonzero(inside[g.edge_u] & inside[g.edge_v]).tolist())


def _endpoints(g: Graph, es: Iterable[int]) -> frozenset[int]:
    """The endpoints of the edges es."""
    return frozenset(v for e in es for v in g.undirected_endpoints(e))


def induce_by_nodes(g: Graph, vs: Iterable[int]) -> InducedSubgraph:
    """Subgraph on node set vs with every parent edge internal to vs."""
    return induce_by_nodes_and_edges(g, vs, ())


def induce_by_edges(g: Graph, es: Iterable[int]) -> InducedSubgraph:
    """Subgraph on edge set es; nodes are exactly the endpoints of es."""
    return induce_by_nodes_and_edges(g, (), es)


def induce_by_nodes_and_edges(
    g: Graph, vs: Iterable[int], es: Iterable[int]
) -> InducedSubgraph:
    """Union technique: nodes = vs + endpoints(es), edges = es + internal(vs)."""
    vs = _check_ids(vs, g.n, "node ids")
    es = _check_ids(es, g.num_undirected_edges, "edge indices")
    return InducedSubgraph(
        parent=g,
        nodes=tuple(sorted(vs | _endpoints(g, es))),
        edges=tuple(sorted(es | _internal_edges(g, vs))),
    )


def components(s: InducedSubgraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Connected components of s as (nodes, edges) pairs, ordered by
    smallest node id; each lists its nodes and its edges ascending."""
    g = s.parent
    adj: dict[int, list[int]] = {v: [] for v in s.nodes}
    edges_at: dict[int, list[int]] = {v: [] for v in s.nodes}
    for e in s.edges:
        u, v = g.undirected_endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
        edges_at[u].append(e)
    comps = []
    seen: set[int] = set()
    for start in s.nodes:
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
        comps.append((tuple(sorted(comp_nodes)), tuple(comp_edges)))
    return tuple(comps)


def intuitiveness(s: InducedSubgraph) -> float:
    """Fraction of components that carry at least one edge."""
    comps = components(s)
    if not comps:
        raise UndefinedMetricError("intuitiveness of an empty subgraph is undefined")
    with_edges = sum(1 for _, edges in comps if edges)
    return with_edges / len(comps)


def sparsity(s: InducedSubgraph) -> float:
    """1 - |s| / |parent| counted in edges."""
    total = s.parent.num_undirected_edges
    if total == 0:
        raise UndefinedMetricError("graph has no edges")
    return 1.0 - s.num_edges / total


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
    return _internal_edges(g, _endpoints(g, edge_subset)) == set(edge_subset)


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
    return json.dumps(_graph_to_obj(g), separators=(",", ":"))


def _graph_to_obj(g: Graph) -> dict:
    """The JSON object of g that graph_to_json writes and a dataset record
    nests."""
    return {
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


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid graph JSON: {exc}") from exc
    return _graph_from_obj(obj)


def _graph_from_obj(obj: dict) -> Graph:
    """The graph of a JSON object. A `label` it carries must be a JSON
    integer and is then dropped: a graph has no label, and a dataset record
    checks its graph's copy against its own."""
    if not isinstance(obj, dict):
        raise DataFormatError("graph record is not a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != GRAPH_SCHEMA_VERSION:
        raise DataFormatError(f"unsupported graph version {version!r}")
    for key in ("n", "features", "edges", "undirected"):
        if key not in obj:
            raise DataFormatError(f"graph record missing field {key!r}")
    n = obj["n"]
    if type(n) is not int:
        raise DataFormatError(f"n {n!r} is not a JSON integer")
    if not isinstance(obj["features"], list):
        raise DataFormatError("features is not a list of rows")
    try:
        feats = number_array(obj["features"])
    except ValueError as exc:
        raise DataFormatError(f"features are not rows of numbers: {exc}") from exc
    if feats.ndim != 2 or feats.shape[0] != n:
        raise DataFormatError("features shape does not match n")
    if type(obj["undirected"]) is not bool:
        raise DataFormatError(f"undirected {obj['undirected']!r} is not a JSON boolean")
    if not obj["undirected"]:
        raise DataFormatError("only undirected graphs are supported")
    label = obj.get("label")
    if label is not None and type(label) is not int:
        raise DataFormatError(f"label {label!r} is not a JSON integer")
    if not isinstance(obj["edges"], list):
        raise DataFormatError(f"edges {obj['edges']!r} is not a list")
    edges = []
    for edge in obj["edges"]:
        if not (isinstance(edge, list) and len(edge) == 3):
            raise DataFormatError(f"edge {edge!r} is not a [u, v, weight] triple")
        u, v, w = edge
        if type(u) is not int or type(v) is not int:
            raise DataFormatError(f"edge {edge!r}: endpoints must be JSON integers")
        if type(w) not in (int, float):
            raise DataFormatError(f"edge {edge!r}: weight must be a JSON number")
        edges.append((u, v, float(w)))
    return Graph.undirected(feats, edges)


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_json(fh.read())
