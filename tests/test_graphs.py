import itertools
import json

import numpy as np
import pytest

from edgelens import (
    DataFormatError,
    EnumerationTooLargeError,
    Graph,
    InvalidSelectionError,
    UndefinedMetricError,
    enumerate_connected_edge_subgraphs,
    exhaustiveness,
    induce_by_edges,
    induce_by_nodes,
    induce_by_nodes_and_edges,
    intuitiveness,
    load_graph,
    save_graph,
    sparsity,
)
from edgelens.graphs import components, edge_mask, graph_from_json, graph_to_json

from conftest import random_graph


def brute_force_connected_subsets(g):
    """Oracle: all nonempty edge subsets that form one connected subgraph,
    by direct power-set sweep."""
    m = g.num_undirected_edges
    out = []
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if len(components(induce_by_edges(g, subset))) == 1:
                out.append(subset)
    return sorted(out)


class TestInduceByNodes:
    def test_full_triangle(self, triangle):
        s = induce_by_nodes(triangle, {0, 1, 2})
        assert s.nodes == (0, 1, 2)
        assert s.edges == (0, 1, 2)

    def test_cannot_reach_angle_in_triangle(self, triangle):
        # no node subset of a triangle induces exactly two of its edges
        for size in range(4):
            for vs in itertools.combinations(range(3), size):
                s = induce_by_nodes(triangle, vs)
                assert len(s.edges) != 2

    def test_path_endpoints_only(self, path3):
        s = induce_by_nodes(path3, {0, 2})
        assert s.nodes == (0, 2)
        assert s.edges == ()
        assert len(components(s)) == 2

    def test_unknown_node_rejected(self, path3):
        with pytest.raises(InvalidSelectionError):
            induce_by_nodes(path3, {0, 9})

    def test_non_integer_nodes_rejected(self, path3):
        # int() would make these nodes (1, 2) and 1: a selection of
        # non-integers is an error, not a truncated selection.
        for vs in ([True, 2.5], [1.0], ["1"], [np.bool_(True)]):
            with pytest.raises(InvalidSelectionError, match="node ids must be integers"):
                induce_by_nodes(path3, vs)

    def test_numpy_integer_nodes_accepted(self, path3):
        assert induce_by_nodes(path3, np.array([0, 1])).edges == (0,)


class TestInduceByEdges:
    def test_single_edge(self, triangle):
        s = induce_by_edges(triangle, {0})
        assert s.nodes == (0, 1)
        assert s.edges == (0,)

    def test_angle_reachable(self, triangle):
        s = induce_by_edges(triangle, {0, 1})  # ab, bc
        assert s.nodes == (0, 1, 2)
        assert s.edges == (0, 1)

    def test_empty_selection(self, triangle):
        s = induce_by_edges(triangle, set())
        assert s.nodes == ()
        assert s.edges == ()
        assert components(s) == ()

    def test_unknown_edge_rejected(self, triangle):
        with pytest.raises(InvalidSelectionError):
            induce_by_edges(triangle, {5})

    def test_non_integer_edges_rejected(self, triangle):
        # int() would make [0.0, 1.5] the edges (0, 1) and "2" the edge 2.
        for es in ([0.0, 1.5], ["2"], [False]):
            with pytest.raises(InvalidSelectionError, match="edge indices must be integers"):
                induce_by_edges(triangle, es)


class TestInduceByNodesAndEdges:
    def test_empty_nodes_reduces_to_edge_induction(self, triangle):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng)
            m = g.num_undirected_edges
            es = {int(e) for e in rng.choice(m, size=rng.integers(0, m + 1), replace=False)}
            a = induce_by_nodes_and_edges(g, set(), es)
            b = induce_by_edges(g, es)
            assert a.nodes == b.nodes
            assert a.edges == b.edges
            assert components(a) == components(b)

    def test_full_triangle(self, triangle):
        s = induce_by_nodes_and_edges(triangle, {0, 1, 2}, set())
        assert s.edges == (0, 1, 2)

    def test_mixed_components(self, path4):
        s = induce_by_nodes_and_edges(path4, {3}, {0})
        assert s.nodes == (0, 1, 3)
        assert components(s) == (((0, 1), (0,)), ((3,), ()))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng)
            vs = {int(v) for v in rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)}
            s1 = induce_by_nodes(g, vs)
            s2 = induce_by_nodes(g, s1.nodes)
            assert s1.nodes == s2.nodes and s1.edges == s2.edges


class TestIntuitiveness:
    def test_two_isolated_nodes(self, path3):
        assert intuitiveness(induce_by_nodes(path3, {0, 2})) == 0.0

    def test_edge_induced_always_one(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            g = random_graph(rng)
            m = g.num_undirected_edges
            size = int(rng.integers(1, m + 1))
            es = {int(e) for e in rng.choice(m, size=size, replace=False)}
            assert intuitiveness(induce_by_edges(g, es)) == 1.0

    def test_edge_plus_isolated_node(self, path4):
        s = induce_by_nodes_and_edges(path4, {3}, {0})
        assert intuitiveness(s) == 0.5

    def test_empty_is_an_error(self, triangle):
        with pytest.raises(UndefinedMetricError):
            intuitiveness(induce_by_edges(triangle, set()))

    def test_edge_technique_dominates(self):
        # intuitiveness inequalities across the three techniques
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_graph(rng)
            m = g.num_undirected_edges
            es = {int(e) for e in rng.choice(m, size=rng.integers(1, m + 1), replace=False)}
            vs = {int(v) for v in rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)}
            i_edge = intuitiveness(induce_by_edges(g, es))
            assert i_edge == 1.0
            assert i_edge >= intuitiveness(induce_by_nodes(g, vs))
            assert i_edge >= intuitiveness(induce_by_nodes_and_edges(g, vs, es))


class TestSparsity:
    def test_fraction(self):
        g = random_graph(np.random.default_rng(4), max_nodes=8, max_extra_edges=6)
        s = induce_by_edges(g, {0, 1})
        assert sparsity(s) == 1 - 2 / g.num_undirected_edges

    def test_endpoints(self, triangle):
        assert sparsity(induce_by_edges(triangle, {0, 1, 2})) == 0.0
        assert sparsity(induce_by_edges(triangle, set())) == 1.0

    def test_monotone_in_selection_size(self, triangle):
        vals = [
            sparsity(induce_by_edges(triangle, set(range(k))))
            for k in range(4)
        ]
        assert vals == sorted(vals, reverse=True)

    def test_zero_size_unit_rejected(self):
        g = Graph.undirected(np.ones((2, 1)), [])
        with pytest.raises(UndefinedMetricError):
            sparsity(induce_by_edges(g, set()))


class TestConnectedComponents:
    def test_path_single_component(self, path3):
        assert len(components(induce_by_nodes(path3, range(path3.n)))) == 1

    def test_two_disjoint_edges(self):
        g = Graph.undirected(np.ones((4, 1)), [(0, 1), (2, 3)])
        assert components(induce_by_nodes(g, range(g.n))) == (((0, 1), (0,)), ((2, 3), (1,)))

    def test_empty_graph(self):
        g = Graph.undirected(np.zeros((0, 1)), [])
        assert components(induce_by_nodes(g, range(g.n))) == ()


class TestEnumeration:
    def test_triangle_has_seven(self, triangle):
        subs = enumerate_connected_edge_subgraphs(triangle)
        assert len(subs) == 7
        assert subs == brute_force_connected_subsets(triangle)

    def test_single_edge(self):
        g = Graph.undirected(np.ones((2, 1)), [(0, 1)])
        assert enumerate_connected_edge_subgraphs(g) == [(0,)]

    def test_two_edge_path(self, path3):
        assert enumerate_connected_edge_subgraphs(path3) == [(0,), (0, 1), (1,)]

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, max_nodes=6, max_extra_edges=4)
            assert enumerate_connected_edge_subgraphs(g) == brute_force_connected_subsets(g)

    def test_cap(self):
        g = random_graph(np.random.default_rng(6), max_nodes=8, max_extra_edges=6)
        with pytest.raises(EnumerationTooLargeError):
            enumerate_connected_edge_subgraphs(g, cap=g.num_undirected_edges - 1)


def node_technique_oracle(g):
    """Brute force over every node subset: which connected edge subsets show
    up as a component of some node-induced subgraph."""
    seen = set()
    for size in range(1, g.n + 1):
        for vs in itertools.combinations(range(g.n), size):
            for _, edges in components(induce_by_nodes(g, vs)):
                if edges:
                    seen.add(edges)
    return seen


class TestExhaustiveness:
    def test_k3_values(self, triangle):
        assert exhaustiveness("edge", triangle) == 1.0
        assert exhaustiveness("node", triangle) == pytest.approx(4 / 7)
        assert exhaustiveness("node-and-edge", triangle) == 1.0

    def test_single_edge_all_one(self):
        g = Graph.undirected(np.ones((2, 1)), [(0, 1)])
        for tech in ("node", "edge", "node-and-edge"):
            assert exhaustiveness(tech, g) == 1.0

    def test_node_matches_selection_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            g = random_graph(rng, max_nodes=6, max_extra_edges=4)
            total = len(enumerate_connected_edge_subgraphs(g))
            expected = len(node_technique_oracle(g)) / total
            assert exhaustiveness("node", g) == pytest.approx(expected)

    def test_technique_coverage_ordering(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = random_graph(rng, max_nodes=7, max_extra_edges=5)
            assert exhaustiveness("edge", g) == 1.0
            assert exhaustiveness("edge", g) >= exhaustiveness("node", g)
            assert exhaustiveness("edge", g) == exhaustiveness("node-and-edge", g)


class TestGraphIO:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng)
        text = graph_to_json(g)
        back = graph_from_json(text)
        assert graph_to_json(back) == text
        for name in ("features", "edge_u", "edge_v", "edge_weight"):
            np.testing.assert_array_equal(getattr(back, name), getattr(g, name))

    def test_file_round_trip(self, tmp_path, triangle):
        path = tmp_path / "g.json"
        save_graph(triangle, path)
        assert graph_to_json(load_graph(path)) == graph_to_json(triangle)

    def test_label_is_checked_then_dropped(self):
        """A graph has no label: a file's `label` must be a JSON integer,
        and the graph read from it writes none."""
        obj = json.loads(self._record())
        obj["label"] = 1
        g = graph_from_json(json.dumps(obj))
        assert not hasattr(g, "label")
        assert graph_to_json(g) == graph_to_json(graph_from_json(self._record()))
        assert "label" not in json.loads(graph_to_json(g))

    def test_negative_zero_weight_stored_as_zero(self, tmp_path):
        # The sign bit was kept and written back as -0.0.
        g = Graph(np.ones((3, 1)), [0, 1], [1, 2], np.array([-0.0, 0.5]))
        assert not np.signbit(g.edge_weight).any()
        assert g.edge_weight.tolist() == [0.0, 0.5]
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert json.loads(path.read_text())["edges"][0] == [0, 1, 0.0]
        assert "-0.0" not in path.read_text()

    def test_rejects_nan_features(self):
        with pytest.raises(DataFormatError):
            graph_from_json(
                '{"version":1,"n":1,"features":[[NaN]],"edges":[],"undirected":true}'
            )

    def test_rejects_bad_weight(self):
        with pytest.raises(DataFormatError):
            Graph.undirected(np.ones((2, 1)), [(0, 1, 1.5)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DataFormatError):
            Graph.undirected(np.ones((2, 1)), [(0, 1), (0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(DataFormatError):
            Graph.undirected(np.ones((2, 1)), [(0, 0)])

    def test_rejects_directed_json(self):
        with pytest.raises(DataFormatError, match="undirected"):
            graph_from_json(
                '{"version":1,"n":2,"features":[[1.0],[1.0]],'
                '"edges":[[0,1,1.0]],"undirected":false}'
            )

    @staticmethod
    def _record(version=1, edges="[[0,1,1.0]]"):
        v = "" if version is None else f'"version":{version},'
        return '{' + v + '"n":3,"features":[[1.0],[1.0],[1.0]],"edges":' + edges + ',"undirected":true}'

    @pytest.mark.parametrize(
        "edges",
        ["[[0.9,2.7,1.0]]", "[[0,2.0,1.0]]", '[["1",2,1.0]]', "[[true,2,1.0]]", "[[0,null,1.0]]"],
    )
    def test_rejects_non_integer_endpoint(self, edges):
        with pytest.raises(DataFormatError, match="endpoints must be JSON integers"):
            graph_from_json(self._record(edges=edges))

    @pytest.mark.parametrize("edges", ['[[0,1,"0.5"]]', "[[0,1,true]]", "[[0,1]]", "[0]"])
    def test_rejects_malformed_edge(self, edges):
        with pytest.raises(DataFormatError, match="edge"):
            graph_from_json(self._record(edges=edges))

    @pytest.mark.parametrize("version", [None, 7, 0, '"1"', "true", "1.0"])
    def test_rejects_unknown_version(self, version):
        with pytest.raises(DataFormatError, match="unsupported graph version"):
            graph_from_json(self._record(version=version))

    def test_rejects_non_object_record(self):
        with pytest.raises(DataFormatError, match="not a JSON object"):
            graph_from_json("[1, 2]")

    # Each of these raised a raw TypeError or ValueError, or (n, undirected,
    # label) loaded without complaint.
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("edges", 5, "edges 5 is not a list"),
            ("features", "ab", "features is not a list of rows"),
            ("features", [[1.0], [1.0, 2.0], [1.0]], "features are not rows of numbers"),
            ("features", [["1.5"], [1.0], [1.0]], "features are not rows of numbers"),
            ("features", [[1.0], [True], [1.0]], "features are not rows of numbers"),
            ("n", 3.0, "n 3.0 is not a JSON integer"),
            ("undirected", [1], "undirected \\[1\\] is not a JSON boolean"),
            ("label", {"a": 1}, "label \\{'a': 1\\} is not a JSON integer"),
        ],
        ids=["edges-int", "features-string", "features-ragged", "features-numeric-string",
             "features-bool", "n-float",
             "undirected-list", "label-object"],
    )
    def test_rejects_malformed_field(self, field, value, match):
        obj = json.loads(self._record())
        obj[field] = value
        with pytest.raises(DataFormatError, match=match):
            graph_from_json(json.dumps(obj))


class TestEdgeArrays:
    @pytest.mark.parametrize(
        "edge_u, edge_v, edge_weight, match",
        [
            ([0, 1], [1], [1.0, 1.0], "equal length"),
            ([0, 1], [1, 0], [1.0, 1.0], "duplicate undirected edge \\(0, 1\\)"),
            ([0], [3], [1.0], "out of range"),
            ([-1], [1], [1.0], "out of range"),
            ([0], [1], [np.nan], "outside \\[0, 1\\]"),
            # Full messages: an edge out of range is named as given, the
            # first repeat in (u, v) order and the first bad weight by
            # index. (1, 2) repeats first by index, (0, 1) first in order.
            ([0], [3], [1.0], "^edge \\(0, 3\\) out of range for n=3$"),
            ([3], [0], [1.0], "^edge \\(3, 0\\) out of range for n=3$"),
            ([-1], [1], [1.0], "^edge \\(-1, 1\\) out of range for n=3$"),
            ([0, 2], [1, 9], [1.0, 1.0], "^edge \\(2, 9\\) out of range for n=3$"),
            ([1, 0, 2, 1], [2, 1, 1, 0], [1.0] * 4, "^duplicate undirected edge \\(0, 1\\)$"),
            ([0, 1], [1, 2], [0.5, np.nan], "^edge weight nan outside \\[0, 1\\]$"),
            ([0, 1], [1, 2], [0.5, -np.inf], "^edge weight -inf outside \\[0, 1\\]$"),
            ([0, 1], [1, 2], [0.5, np.inf], "^edge weight inf outside \\[0, 1\\]$"),
            ([0, 1], [1, 2], [1.0000000000000002, 2.0], "^edge weight 1\\.0000000000000002 outside"),
            ([0, 1], [1, 2], [1.0, -1e-300], "^edge weight -1e-300 outside \\[0, 1\\]$"),
        ],
    )
    def test_rejects(self, edge_u, edge_v, edge_weight, match):
        with pytest.raises(DataFormatError, match=match):
            Graph(np.ones((3, 1)), edge_u, edge_v, edge_weight)

    def test_accepts_edgeless_graph_and_boundary_weights(self):
        g = Graph(np.ones((3, 1)), [], [], [])
        assert g.num_undirected_edges == 0
        g = Graph(np.ones((3, 1)), [0, 1, 0], [1, 2, 2], [-0.0, 1.0, 5e-324])
        np.testing.assert_array_equal(g.edge_weight, [0.0, 1.0, 5e-324])

    def test_endpoints_stored_sorted(self):
        g = Graph(np.ones((4, 1)), [3, 0, 2], [1, 2, 1], [0.5, 1.0, 0.25])
        np.testing.assert_array_equal(g.edge_u, [1, 0, 1])
        np.testing.assert_array_equal(g.edge_v, [3, 2, 2])
        np.testing.assert_array_equal(g.edge_weight, [0.5, 1.0, 0.25])
        assert Graph.undirected(np.ones((4, 1)), [(3, 1)]).undirected_endpoints(0) == (1, 3)

    def test_accessors_return_python_scalars(self, triangle):
        # json.dumps rejects numpy integers; the JSON and DOT writers use these.
        u, v = triangle.undirected_endpoints(2)
        w = triangle.undirected_weight(2)
        assert (type(u), type(v), type(w)) == (int, int, float)
        assert json.dumps([u, v, w]) == "[0, 2, 1.0]"

    def test_match_undirected_accessors(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            g = random_graph(rng)
            m = g.num_undirected_edges
            assert g.edge_u.shape == g.edge_v.shape == g.edge_weight.shape == (m,)
            for i in range(m):
                assert (g.edge_u[i], g.edge_v[i]) == g.undirected_endpoints(i)
                assert g.edge_weight[i] == g.undirected_weight(i)

    def test_read_only(self, triangle):
        for arr in (triangle.edge_u, triangle.edge_v, triangle.edge_weight):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_caller_arrays_stay_writable(self):
        u, v, w = np.array([0]), np.array([1]), np.array([0.5])
        Graph(np.ones((2, 1)), u, v, w)
        for arr in (u, v, w):
            arr[0] = 1

    def test_edge_mask_rejects_unknown_edges(self, triangle):
        np.testing.assert_array_equal(edge_mask(triangle, [2, 0]), [True, False, True])
        with pytest.raises(InvalidSelectionError):
            edge_mask(triangle, [3])
        with pytest.raises(InvalidSelectionError):
            edge_mask(triangle, [-1])
