import itertools
import json
import warnings

import numpy as np
import pytest

from edgelens import (
    EdgeLensError,
    EdgeScores,
    Graph,
    InvalidSelectionError,
    UndefinedMetricError,
    brute_force_best_subgraph,
    explain,
    fidelity_minus,
    fidelity_plus,
    ig_edge_scores,
    linear_gradient_scores,
    linear_search,
    overall_fidelity,
    rank_edges,
    sa_edge_scores,
    save_explanation,
)
from edgelens import compare_methods, fidelity_curve
from edgelens.data import DatasetRecord
from edgelens.explain import explanation_to_json
from edgelens.models import forward

from conftest import one_edge_drops, random_graph, random_model, reweighted, with_weights


class TestImportanceExactness:
    def test_slope_times_distance_is_forward_difference(self):
        # score_e * 2 w_e must reproduce p(G) - p(G with w_e = 0) to
        # machine precision, for fractional weights too
        rng = np.random.default_rng(20)
        for _ in range(100):
            g = random_graph(rng)
            w = rng.uniform(0.05, 1.0, size=g.num_undirected_edges)
            g = Graph(g.features, g.edge_u, g.edge_v, w)
            m = random_model(rng)
            c = int(rng.integers(0, 2))
            score = linear_gradient_scores(m, g, c).values
            np.testing.assert_allclose(score * 2.0 * w, one_edge_drops(m, g, c), rtol=0, atol=1e-12)

    def test_single_unit_edge_denominator_is_two(self, path3, small_model):
        score = linear_gradient_scores(small_model, path3, 0).values[0]
        p_full = forward(small_model, path3).probabilities[0]
        base = with_weights(path3, reweighted(path3, [0], 0.0))
        p_base = forward(small_model, base).probabilities[0]
        assert score == (p_full - p_base) / 2.0

    def test_l1_counts_both_directions(self, small_model):
        # an edge of weight 0.25 is 0.25 away from its base point in each
        # direction of the adjacency
        g = Graph.undirected(np.ones((2, 2)), [(0, 1, 0.25)])
        score = linear_gradient_scores(small_model, g, 0).values[0]
        p_full = forward(small_model, g).probabilities[0]
        p_base = forward(small_model, with_weights(g, [0.0])).probabilities[0]
        assert score == (p_full - p_base) / 0.5

    def test_zero_weight_edge_scores_zero(self, small_model):
        g = Graph.undirected(np.ones((3, 2)), [(0, 1, 0.0), (1, 2)])
        assert linear_gradient_scores(small_model, g, 0).values[0] == 0.0


class TestLinearGradientScores:
    def test_matches_per_edge_calls(self, small_model):
        g = random_graph(np.random.default_rng(21), feature_dim=2)
        scores = linear_gradient_scores(small_model, g, 1)
        want = one_edge_drops(small_model, g, 1) / (2.0 * g.edge_weight)
        np.testing.assert_array_equal(scores.values, want)

    def test_uses_exactly_edges_plus_one_forwards(self, small_model, forward_dense_calls):
        g = random_graph(np.random.default_rng(22), feature_dim=2)
        scores = linear_gradient_scores(small_model, g, 0)
        assert len(forward_dense_calls) == scores.passes == g.num_undirected_edges + 1

    def test_automorphic_edges_score_equally(self, triangle, small_model):
        # all three edges of a uniform-feature triangle are interchangeable
        scores = linear_gradient_scores(small_model, triangle, 0).values
        np.testing.assert_allclose(scores, scores[0], atol=1e-12)

    def test_class_scores_negate_in_two_classes(self, path3, small_model):
        s0 = linear_gradient_scores(small_model, path3, 0).values
        s1 = linear_gradient_scores(small_model, path3, 1).values
        np.testing.assert_allclose(s0, -s1, atol=1e-12)


class TestRanking:
    def test_descending_with_index_ties(self):
        s = EdgeScores(values=np.array([0.3, 0.9, 0.3, -1.0]), target_class=0)
        assert rank_edges(s) == (1, 0, 2, 3)
        # Two tie groups, one of them signed zeros, which rank as equal.
        s = EdgeScores(values=np.array([0.0, -0.0, 0.3, 0.3, -0.0]), target_class=0)
        assert rank_edges(s) == (2, 3, 0, 1, 4)
        # The tuple-key sort as the reference, on draws full of ties,
        # signed zeros and subnormals.
        rng = np.random.default_rng(22)
        pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.3, -0.3, 1.0])
        for size in range(1, 40):
            vals = rng.choice(pool, size)
            want = tuple(sorted(range(size), key=lambda i: (-vals[i], i)))
            assert rank_edges(EdgeScores(values=vals, target_class=0)) == want

    def test_scale_invariant(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=12)
        a = rank_edges(EdgeScores(values=vals, target_class=0))
        b = rank_edges(EdgeScores(values=3.7 * vals, target_class=0))
        assert a == b

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            EdgeScores(values=np.array([0.1, np.nan]), target_class=0)


class TestFidelity:
    def test_minus_of_full_graph_is_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_graph(rng)
            m = random_model(rng)
            all_edges = range(g.num_undirected_edges)
            assert fidelity_minus(m, g, all_edges, 0) == 0.0

    def test_plus_of_empty_selection_is_zero(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            g = random_graph(rng)
            m = random_model(rng)
            assert fidelity_plus(m, g, [], 0) == 0.0

    def test_plus_and_minus_swap_under_complement(self, triangle, small_model):
        for size in range(4):
            for subset in itertools.combinations(range(3), size):
                comp = [e for e in range(3) if e not in subset]
                a = fidelity_plus(small_model, triangle, subset, 0)
                b = fidelity_minus(small_model, triangle, comp, 0)
                assert a == b

    def test_plus_remainder_keeps_all_nodes_only_when_empty(self, small_model):
        # The remainder is edge-induced: a non-empty one keeps only its
        # edges' endpoints, so isolated node 3 is dropped, while an empty
        # one evaluates all n nodes as isolated nodes, node 3 included.
        features = np.arange(8.0).reshape(4, 2) / 8
        g = Graph.undirected(features, [(0, 1), (1, 2)])
        p = forward(small_model, g).probabilities[0]
        all_isolated = forward(small_model, Graph.undirected(features, [])).probabilities[0]
        without_3 = forward(small_model, Graph.undirected(features[:3], [])).probabilities[0]
        assert all_isolated != without_3
        assert fidelity_plus(small_model, g, [0, 1], 0) == p - all_isolated
        edge_1 = forward(small_model, Graph.undirected(features[1:3], [(0, 1)])).probabilities[0]
        assert fidelity_plus(small_model, g, [0], 0) == p - edge_1

    def test_overall_is_difference(self, path4, small_model):
        for subset in [(0,), (1, 2), (0, 2)]:
            assert overall_fidelity(small_model, path4, subset, 1) == fidelity_plus(
                small_model, path4, subset, 1
            ) - fidelity_minus(small_model, path4, subset, 1)


class TestLinearSearch:
    def test_optimal_over_its_candidates(self):
        rng = np.random.default_rng(26)
        for _ in range(15):
            g = random_graph(rng)
            m = random_model(rng)
            mcount = g.num_undirected_edges
            ranked = tuple(rng.permutation(mcount).tolist())
            e = linear_search(m, g, ranked, 0)
            best = max(
                overall_fidelity(m, g, ranked[:k], 0) for k in range(1, mcount + 1)
            )
            assert e.overall == best

    def test_tie_prefers_smallest_k(self, small_model):
        # duplicated structure: any k achieving the max should lose to the
        # smallest one; verified directly against the candidate sweep
        g = random_graph(np.random.default_rng(27), feature_dim=2)
        ranked = tuple(range(g.num_undirected_edges))
        e = linear_search(small_model, g, ranked, 0)
        for k in range(1, e.chosen_k):
            assert overall_fidelity(small_model, g, ranked[:k], 0) < e.overall

    def test_paper_range_skips_extremes(self, small_model):
        g = random_graph(np.random.default_rng(28), max_nodes=6, max_extra_edges=4, feature_dim=2)
        e = explain(small_model, g, target_class=0, k_range="paper")
        assert 2 <= e.chosen_k <= g.num_undirected_edges - 1

    def test_paper_range_falls_back_on_tiny_graphs(self, path3, small_model):
        e = explain(small_model, path3, target_class=0, k_range="paper")
        assert e.chosen_k in (1, 2)

    def test_rejects_non_permutation(self, path3, small_model):
        with pytest.raises(ValueError):
            linear_search(small_model, path3, (0, 0), 0)

    def test_rejects_non_integer_ranking(self, triangle, small_model, forward_dense_calls):
        """Floats equal to a permutation are still not edge indices: a
        ValueError before any pass, not an IndexError from the search."""
        with pytest.raises(ValueError, match="integer edge indices"):
            linear_search(small_model, triangle, (2.0, 1.0, 0.0), 0)
        assert forward_dense_calls == []

    def test_numpy_ranking_is_stored_as_ints(self, path3, small_model, tmp_path):
        """An argsort ranking holds np.int64 entries; the explanation holds
        plain ints, so it serializes."""
        e = linear_search(small_model, path3, np.argsort([0.1, 0.9])[::-1], 0)
        assert e.ranked_edges == (1, 0)
        assert all(type(i) is int for i in e.ranked_edges)
        save_explanation(e, tmp_path / "e.json")
        saved = json.loads((tmp_path / "e.json").read_text())
        assert [r["edge"] for r in saved["ranked_edges"]] == [1, 0]


class TestExplain:
    def test_forward_budget(self, small_model):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_graph(rng, feature_dim=2)
            e = explain(small_model, g, target_class=0)
            assert e.forward_passes_used <= 3 * g.num_undirected_edges + 2

    def test_auto_class_is_argmax(self, small_model):
        g = random_graph(np.random.default_rng(30), feature_dim=2)
        e = explain(small_model, g)
        assert e.target_class == forward(small_model, g).predicted_class

    def test_subgraph_is_ranked_prefix(self, small_model):
        g = random_graph(np.random.default_rng(31), feature_dim=2)
        e = explain(small_model, g, target_class=1)
        assert set(e.subgraph.edges) == set(e.ranked_edges[: e.chosen_k])

    def test_sparsity_consistent(self, small_model):
        g = random_graph(np.random.default_rng(32), feature_dim=2)
        e = explain(small_model, g, target_class=0)
        assert e.sparsity == 1 - e.chosen_k / g.num_undirected_edges

    def test_external_scores(self, path3, small_model):
        s = EdgeScores(values=np.array([0.1, 0.9]), target_class=0)
        e = linear_search(small_model, path3, rank_edges(s), 0)
        assert e.ranked_edges == (1, 0)
        assert e.scores is None
        assert e.method is None
        assert e.forward_passes_used == 1 + 2 * path3.num_undirected_edges

    @pytest.mark.parametrize("target", [2, 5, -1])
    def test_rejects_class_outside_model(self, path3, small_model, target):
        with pytest.raises(InvalidSelectionError, match="target class"):
            explain(small_model, path3, target_class=target)

    def test_rejects_graph_without_nodes(self, small_model):
        g = Graph.undirected(np.ones((0, 2)), [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EdgeLensError, match="no nodes"):
                explain(small_model, g)


# Every public entry point that takes a target class, on path3 (edges 0, 1).
CLASS_ENTRY_POINTS = {
    "linear_gradient_scores": lambda m, g, c: linear_gradient_scores(m, g, c),
    "sa_edge_scores": lambda m, g, c: sa_edge_scores(m, g, c),
    "ig_edge_scores": lambda m, g, c: ig_edge_scores(m, g, c, steps=2),
    "fidelity_plus": lambda m, g, c: fidelity_plus(m, g, [0], c),
    "fidelity_minus": lambda m, g, c: fidelity_minus(m, g, [0], c),
    "overall_fidelity": lambda m, g, c: overall_fidelity(m, g, [0], c),
    "linear_search": lambda m, g, c: linear_search(m, g, (1, 0), c),
    "brute_force_best_subgraph": lambda m, g, c: brute_force_best_subgraph(m, g, c),
    "explain": lambda m, g, c: explain(m, g, target_class=c),
}


@pytest.mark.parametrize("name", sorted(CLASS_ENTRY_POINTS))
class TestTargetClass:
    @pytest.mark.parametrize("target", [2, 7, -1, 1.5, 1.0, True, "1", None])
    def test_rejects_class_that_is_not_a_model_class(self, path3, small_model, name, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSelectionError, match="target class"):
                CLASS_ENTRY_POINTS[name](small_model, path3, target)

    def test_numpy_integer_is_the_same_class(self, path3, small_model, name):
        run = CLASS_ENTRY_POINTS[name]
        got, want = run(small_model, path3, np.int64(1)), run(small_model, path3, 1)
        if isinstance(want, EdgeScores):
            got, want = (got.values, got.target_class), (want.values, want.target_class)
        assert repr(got) == repr(want)


# Every entry point that takes a method or a k_range, with a bad one.
BAD_CHOICES = {
    "explain-method": (lambda m, g, ds: explain(m, g, method="bogus"), "method"),
    "explain-k_range": (lambda m, g, ds: explain(m, g, k_range="bogus"), "k_range"),
    "linear_search-k_range": (
        lambda m, g, ds: linear_search(m, g, tuple(range(g.num_undirected_edges)), 0, "bogus"),
        "k_range",
    ),
    "compare_methods-method": (
        lambda m, g, ds: compare_methods(m, ds, methods=("sa", "bogus")), "method"
    ),
    "compare_methods-k_range": (lambda m, g, ds: compare_methods(m, ds, k_range="bogus"), "k_range"),
    "fidelity_curve-method": (lambda m, g, ds: fidelity_curve(m, ds, "bogus", [0.5]), "method"),
}


@pytest.mark.parametrize("name", sorted(BAD_CHOICES))
def test_bad_method_or_k_range_fails_before_any_pass(name, small_model, forward_dense_calls):
    g = random_graph(np.random.default_rng(36), max_extra_edges=4, feature_dim=2)
    dataset = [DatasetRecord(g, 0, (0,) * g.num_undirected_edges, 0)] * 2
    run, option = BAD_CHOICES[name]
    with pytest.raises(ValueError, match=f"^unknown {option} 'bogus'$"):
        run(small_model, g, dataset)
    assert forward_dense_calls == []


class TestFidelityInput:
    def test_unknown_edges_rejected(self, path3, small_model):
        for fidelity in (fidelity_plus, fidelity_minus):
            with pytest.raises(InvalidSelectionError):
                fidelity(small_model, path3, [0, 2], 0)

    def test_non_integer_edges_rejected(self, path3, small_model, forward_dense_calls):
        # [0.5] is not edge 0.
        for fidelity in (fidelity_plus, fidelity_minus):
            with pytest.raises(InvalidSelectionError, match="must be integers"):
                fidelity(small_model, path3, [0.5], 0)
        assert forward_dense_calls == []


class TestBaselines:
    def test_sa_nonnegative(self, small_model):
        g = random_graph(np.random.default_rng(33), feature_dim=2)
        assert np.all(sa_edge_scores(small_model, g, 0).values >= 0)

    def test_sa_interior_matches_numerical_derivative(self, small_model):
        g = Graph.undirected(np.ones((3, 2)), [(0, 1, 0.5), (1, 2, 0.5)])
        vals = sa_edge_scores(small_model, g, 0, h=1e-3).values
        for e in range(2):
            hi = forward(small_model, with_weights(g, reweighted(g, [e], 0.501))).probabilities[0]
            lo = forward(small_model, with_weights(g, reweighted(g, [e], 0.499))).probabilities[0]
            assert vals[e] == pytest.approx(abs(hi - lo) / 0.002, abs=1e-12)

    def test_ig_one_step_equals_forward_difference(self, small_model):
        # steps=1 from base 0 reduces each edge's contribution to the raw
        # remove-one-edge probability difference (the slope numerator)
        rng = np.random.default_rng(34)
        for _ in range(10):
            g = random_graph(rng, feature_dim=2)
            ig = ig_edge_scores(small_model, g, 0, steps=1).values
            lg = linear_gradient_scores(small_model, g, 0).values
            np.testing.assert_allclose(ig, lg * 2.0 * g.edge_weight, atol=1e-12)

    def test_ig_converges_with_steps(self, small_model):
        # 50-step path sum should sit close to a 1000-step reference
        g = random_graph(np.random.default_rng(35), max_nodes=5, max_extra_edges=2, feature_dim=2)
        coarse = ig_edge_scores(small_model, g, 0, steps=50).values
        fine = ig_edge_scores(small_model, g, 0, steps=1000).values
        assert np.max(np.abs(coarse - fine)) < 5e-3

    @pytest.mark.parametrize("h", [-1e-3, 0.0, np.nan, np.inf, 1e-320])
    def test_sa_rejects_step_that_moves_nothing(self, path3, small_model, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step h"):
                sa_edge_scores(small_model, path3, 0, h=h)

    def test_ig_rejects_zero_steps(self, path3, small_model):
        with pytest.raises(ValueError):
            ig_edge_scores(small_model, path3, 0, steps=0)

    @pytest.mark.parametrize("steps", [2.5, "3", True, None])
    def test_ig_rejects_non_integer_steps(self, path3, small_model, forward_dense_calls, steps):
        # True would run one step, 2.5 and "3" raised a bare TypeError.
        with pytest.raises(ValueError, match="steps must be an integer"):
            ig_edge_scores(small_model, path3, 0, steps=steps)
        assert forward_dense_calls == []

    @pytest.mark.parametrize("h", ["x", True, None])
    def test_sa_rejects_non_numeric_step(self, path3, small_model, forward_dense_calls, h):
        with pytest.raises(ValueError, match="step h"):
            sa_edge_scores(small_model, path3, 0, h=h)
        assert forward_dense_calls == []


class TestOracle:
    def test_never_below_search(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            g = random_graph(rng, max_nodes=6, max_extra_edges=3)
            m = random_model(rng)
            e = explain(m, g, target_class=0)
            _, best = brute_force_best_subgraph(m, g, 0)
            assert best >= e.overall - 1e-12

    def test_matches_manual_sweep_on_triangle(self, triangle, small_model):
        subset, score = brute_force_best_subgraph(small_model, triangle, 0)
        manual = {
            s: overall_fidelity(small_model, triangle, s, 0)
            for size in range(1, 4)
            for s in itertools.combinations(range(3), size)
        }
        assert score == max(manual.values())
        assert manual[subset] == score

    def test_graph_without_edges_is_undefined(self, small_model, forward_dense_calls):
        """No nonempty edge subset exists: a typed error, as linear_search
        gives, not a (None, -inf) answer, and no pass runs."""
        g = Graph.undirected(np.ones((3, 2)), [])
        with pytest.raises(UndefinedMetricError, match="without edges"):
            brute_force_best_subgraph(small_model, g, 0)
        assert forward_dense_calls == []

    @pytest.mark.parametrize("cap", [0, -1, 2.5, 10.5, True, "14", None])
    def test_bad_cap_rejected(self, triangle, small_model, forward_dense_calls, cap):
        # 10.5 enumerated, -1 and 0 read as "too many edges", "14" raised a
        # bare TypeError.
        with pytest.raises(ValueError, match="cap must be"):
            brute_force_best_subgraph(small_model, triangle, 0, cap=cap)
        assert forward_dense_calls == []


class TestSerialization:
    def test_stable_output(self, small_model):
        g = random_graph(np.random.default_rng(37), feature_dim=2)
        e = explain(small_model, g, target_class=0)
        assert explanation_to_json(e) == explanation_to_json(e)

    def test_fields_present_in_order(self, path3, small_model):
        e = explain(small_model, path3, target_class=0)
        text = explanation_to_json(e)
        keys = [
            "target_class",
            "method",
            "ranked_edges",
            "chosen_k",
            "subgraph_edges",
            "fidelity_plus",
            "fidelity_minus",
            "overall",
            "sparsity",
            "forward_passes_used",
        ]
        positions = [text.index(f'"{k}"') for k in keys]
        assert positions == sorted(positions)
