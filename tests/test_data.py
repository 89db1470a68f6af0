import json

import numpy as np
import pytest

from edgelens import (
    DataFormatError,
    UndefinedMetricError,
    dataset_checksum,
    edge_mask_auc,
    gen_ba2motifs_mini,
    gen_varsize_motifs,
    init_gcn,
    load_dataset,
    load_graph,
    load_model,
    save_dataset,
    save_graph,
    save_model,
)
from edgelens.data import (
    FEATURE_DIM,
    HOUSE_EDGES,
    PENTAGON_EDGES,
    STAR_EDGES,
    DatasetRecord,
    record_to_json,
)
from edgelens.graphs import Graph, components, induce_by_edges, induce_by_nodes

from conftest import gin_model


def pair_counting_auc(scores, mask):
    """Oracle: probability a random positive outranks a random negative,
    ties worth half, by direct O(p*n) pair sweep."""
    pos = [s for s, m in zip(scores, mask) if m == 1]
    neg = [s for s, m in zip(scores, mask) if m == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


# Generator outputs beyond the frozen corpus that CORPUS_CHECKSUM pins:
# the 205-node graphs of the explain-large benchmark workload (tree draws
# with bounds up to 398), a second ba2motifs base size, the varsize default,
# and a varsize base of 2 nodes, whose trees draw nothing.
GENERATOR_CHECKSUMS = [
    (
        gen_ba2motifs_mini,
        dict(n_graphs=16, base_nodes=200, seed=1),
        "f77576cac1b30292f099d71985517531b8c82473621d571473440ff7e8037605",
    ),
    (
        gen_ba2motifs_mini,
        dict(n_graphs=12, base_nodes=6, seed=3),
        "efc0223027bef58576a768f9f1d3e1dcb40192002ec9a7bd2741c05aee62fb92",
    ),
    (
        gen_varsize_motifs,
        dict(n_graphs=40, seed=3),
        "065c1236b05ee034f7a892034b7cb68f7ac0767028e345ebe712bbdf7a712aeb",
    ),
    (
        gen_varsize_motifs,
        dict(n_graphs=12, base_nodes=2, seed=5),
        "1bd31190c94e7073a3c1bc1ffc16435626a6f874c2897efea800a753c7bef94c",
    ),
]


@pytest.mark.parametrize(
    "gen, kwargs, checksum",
    GENERATOR_CHECKSUMS,
    ids=[f"{gen.__name__}-{'-'.join(map(str, kw.values()))}" for gen, kw, _ in GENERATOR_CHECKSUMS],
)
def test_generator_checksums(gen, kwargs, checksum):
    assert dataset_checksum(gen(**kwargs)) == checksum


def scalar_draw_corpus(kind, n_graphs, base_nodes, seed, max_motifs=3):
    """Reference: the generators as loops with one scalar rng.integers call
    per draw, in their documented order (each node's attachment pick, then
    a varsize graph's motif count, then each motif's anchor)."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_graphs):
        label = i % 2
        edges, repeated = [(0, 1)], [0, 1]
        for v in range(2, base_nodes):
            target = repeated[rng.integers(0, len(repeated))]
            edges.append((target, v))
            repeated += (target, v)
        mask = [0] * len(edges)
        if kind == "ba2motifs":
            count, motifs = 1, [HOUSE_EDGES if label == 0 else PENTAGON_EDGES]
        else:
            count = int(rng.integers(1, max_motifs + 1)) if label == 1 else 0
            motifs = [STAR_EDGES] * count
        offset = base_nodes
        for motif in motifs:
            anchor = int(rng.integers(0, base_nodes))
            edges += [(anchor, offset)] + [(offset + a, offset + b) for a, b in motif]
            mask += [0] + [1] * len(motif)
            offset += max(map(max, motif)) + 1
        graph = Graph.undirected(np.ones((offset, FEATURE_DIM)), edges)
        records.append(DatasetRecord(graph, label, tuple(mask), count))
    return records


@pytest.mark.parametrize("seed", range(4))
def test_generators_equal_the_scalar_draw_loops(seed):
    for base_nodes in (5, 6, 12, 40):
        got = gen_ba2motifs_mini(10, base_nodes=base_nodes, seed=seed)
        want = scalar_draw_corpus("ba2motifs", 10, base_nodes, seed)
        assert dataset_checksum(got) == dataset_checksum(want)
    for base_nodes, max_motifs in ((2, 3), (3, 1), (12, 3), (30, 5)):
        got = gen_varsize_motifs(10, max_motifs=max_motifs, base_nodes=base_nodes, seed=seed)
        want = scalar_draw_corpus("varsize", 10, base_nodes, seed, max_motifs)
        assert dataset_checksum(got) == dataset_checksum(want)


def test_vector_bound_draw_is_the_scalar_draws():
    """The generators draw a corpus's (or a tree's) bounded integers in one
    rng.integers call with an array of bounds. That returns the values of
    one scalar call per bound, in order, and leaves the generator in the
    same state, so the next draw agrees too. Pinned here for bounds around
    the 32-bit boundary, where numpy switches between 32- and 64-bit
    draws, and for an empty array, so a numpy release that breaks the fact
    fails under this name and not only as a checksum mismatch."""
    cases = [
        [1, 2, 398, 2**32, 2**32 + 1, 7, 2**31, 1, 2**40, 3, 398],
        list(range(1, 400)),
        [],
    ]
    for seed in range(5):
        for bounds in cases:
            vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = vector.integers(0, np.array(bounds, dtype=np.int64))
            assert drawn.dtype == np.int64 and drawn.shape == (len(bounds),)
            assert drawn.tolist() == [int(scalar.integers(0, k)) for k in bounds]
            assert vector.integers(0, 2**40) == scalar.integers(0, 2**40)
            assert vector.integers(0, 5) == scalar.integers(0, 5)


class TestBa2MotifsMini:
    def test_counts_and_balance(self):
        records = gen_ba2motifs_mini(40, base_nodes=10, seed=0)
        assert len(records) == 40
        assert sum(r.label for r in records) == 20
        assert [r.label for r in records[:4]] == [0, 1, 0, 1]

    def test_flagged_edges_match_motif_shape(self):
        for rec in gen_ba2motifs_mini(20, base_nodes=8, seed=1):
            flagged = [
                e for e, bit in enumerate(rec.gt_edge_mask) if bit == 1
            ]
            # house carries the extra chord, pentagon is the bare cycle
            assert len(flagged) == (6 if rec.label == 0 else 5)
            sub = induce_by_edges(rec.graph, flagged)
            assert len(components(sub)) == 1
            assert len(sub.nodes) == 5
            degrees = sorted(
                sum(1 for a, b in (rec.graph.undirected_endpoints(e) for e in flagged) if v in (a, b))
                for v in sub.nodes
            )
            assert degrees == ([2, 2, 2, 3, 3] if rec.label == 0 else [2, 2, 2, 2, 2])

    def test_attachment_edge_not_flagged(self):
        for rec in gen_ba2motifs_mini(10, base_nodes=8, seed=2):
            base_n = rec.graph.n - 5
            for e, bit in enumerate(rec.gt_edge_mask):
                u, v = rec.graph.undirected_endpoints(e)
                crosses = (u < base_n) != (v < base_n)
                if crosses:
                    assert bit == 0

    def test_graph_is_connected(self):
        for rec in gen_ba2motifs_mini(10, base_nodes=12, seed=3):
            g = rec.graph
            assert len(components(induce_by_nodes(g, range(g.n)))) == 1

    def test_deterministic(self):
        a = gen_ba2motifs_mini(15, base_nodes=9, seed=4)
        b = gen_ba2motifs_mini(15, base_nodes=9, seed=4)
        assert dataset_checksum(a) == dataset_checksum(b)
        c = gen_ba2motifs_mini(15, base_nodes=9, seed=5)
        assert dataset_checksum(a) != dataset_checksum(c)

    def test_base_nodes_floor(self):
        with pytest.raises(ValueError):
            gen_ba2motifs_mini(2, base_nodes=4)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_graphs": -1}, "n_graphs must be >= 0"),
            ({"n_graphs": True}, "n_graphs must be an integer"),
            ({"n_graphs": 2.0}, "n_graphs must be an integer"),
            ({"base_nodes": 6.0}, "base_nodes must be an integer"),
            ({"base_nodes": True}, "base_nodes must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": "1"}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_bad_counts_rejected(self, kwargs, message):
        # -1 gave an empty corpus, True one graph, the floats a bare TypeError;
        # seed=1.5 a raw TypeError and seed=-1 numpy's own message.
        with pytest.raises(ValueError, match=message):
            gen_ba2motifs_mini(**{"n_graphs": 2, **kwargs})

    def test_zero_graphs_is_empty(self):
        assert gen_ba2motifs_mini(0) == []


class TestVarsizeMotifs:
    def test_class0_has_no_flags(self):
        for rec in gen_varsize_motifs(20, seed=6):
            if rec.label == 0:
                assert rec.motif_count == 0
                assert all(b == 0 for b in rec.gt_edge_mask)

    def test_class1_flag_count_tracks_motifs(self):
        saw_multi = False
        for rec in gen_varsize_motifs(40, max_motifs=3, seed=7):
            if rec.label == 1:
                assert 1 <= rec.motif_count <= 3
                assert sum(rec.gt_edge_mask) == 2 * rec.motif_count
                saw_multi = saw_multi or rec.motif_count > 1
        assert saw_multi

    def test_flagged_subgraph_is_disjoint_stars(self):
        for rec in gen_varsize_motifs(30, max_motifs=3, seed=8):
            if rec.label != 1:
                continue
            flagged = [e for e, b in enumerate(rec.gt_edge_mask) if b]
            sub = induce_by_edges(rec.graph, flagged)
            comps = components(sub)
            assert len(comps) == rec.motif_count
            for nodes, edges in comps:
                assert len(nodes) == 3 and len(edges) == 2

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_graphs": -1}, "n_graphs must be >= 0"),
            ({"n_graphs": 2.0}, "n_graphs must be an integer"),
            ({"max_motifs": 1.5}, "max_motifs must be an integer"),
            ({"max_motifs": True}, "max_motifs must be an integer"),
            ({"max_motifs": 0}, "max_motifs must be >= 1"),
            ({"base_nodes": 3.0}, "base_nodes must be an integer"),
            ({"base_nodes": 1}, "base_nodes must be >= 2"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_bad_counts_rejected(self, kwargs, message):
        # max_motifs=1.5 ran, the float counts gave a bare TypeError, and so
        # did seed=1.5.
        with pytest.raises(ValueError, match=message):
            gen_varsize_motifs(**{"n_graphs": 2, **kwargs})

    def test_mask_length_matches_edges(self):
        for rec in gen_varsize_motifs(30, seed=9):
            assert len(rec.gt_edge_mask) == rec.graph.num_undirected_edges


class TestEdgeMaskAuc:
    def test_perfect_and_inverted(self):
        assert edge_mask_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
        assert edge_mask_auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert edge_mask_auc([0.5] * 6, [1, 0, 1, 0, 0, 0]) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            mask = np.zeros(n, dtype=int)
            mask[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
            if mask.sum() in (0, n):
                continue
            # quantize so ties actually happen
            scores = np.round(rng.uniform(0, 1, size=n), 1)
            assert edge_mask_auc(scores, mask) == pytest.approx(
                pair_counting_auc(scores, mask), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(61)
        scores = rng.normal(size=10)
        mask = [1, 0, 1, 0, 0, 1, 0, 0, 0, 1]
        a = edge_mask_auc(scores, mask)
        assert edge_mask_auc(3 * scores + 7, mask) == pytest.approx(a, abs=1e-12)
        assert edge_mask_auc(np.exp(scores), mask) == pytest.approx(a, abs=1e-12)

    def test_degenerate_masks_rejected(self):
        with pytest.raises(UndefinedMetricError):
            edge_mask_auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            edge_mask_auc([0.1, 0.2], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            edge_mask_auc([0.1], [1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DataFormatError, match="finite"):
            edge_mask_auc([0.1, bad, 0.3], [1, 0, 1])

    @pytest.mark.parametrize("mask", [[2, 0, 1], [1, -1, 0], [1, 0.5, 0]])
    def test_mask_outside_zero_one_rejected(self, mask):
        with pytest.raises(DataFormatError, match="0 or 1"):
            edge_mask_auc([0.1, 0.2, 0.3], mask)

    @pytest.mark.parametrize(
        "scores, mask",
        [([[0.1, 0.2], [0.3, 0.4]], [[1, 0], [0, 1]]), (0.5, 1), ([0.1, 0.2], [[1, 0]])],
    )
    def test_not_one_d_rejected(self, scores, mask):
        with pytest.raises(DataFormatError, match="1-D"):
            edge_mask_auc(scores, mask)

    def test_bitwise_equal_to_scipy_average_ranks(self):
        """The numpy tie-group ranks give exactly the AUC that scipy's
        average ranks give, ties between -0.0 and 0.0 included, and that
        the tie groups of np.unique give."""
        from scipy.stats import rankdata

        rng = np.random.default_rng(62)
        for _ in range(1200):
            n = int(rng.integers(2, 40))
            mask = rng.integers(0, 2, size=n)
            mask[rng.choice(n, size=2, replace=False)] = [0, 1]
            # few distinct values, so most inputs carry ties, mixed with
            # some untied ones
            tied = rng.choice([-1.5, -0.0, 0.0, 0.25, 1e-300, 3.0], size=n)
            scores = np.where(rng.random(n) < 0.3, rng.normal(size=n), tied)
            pos = int(mask.sum())
            ranks = rankdata(scores)
            expected = float(
                (ranks[mask == 1].sum() - pos * (pos + 1) / 2) / (pos * (n - pos))
            )
            assert edge_mask_auc(scores, mask) == expected
            _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
            assert np.array_equal((np.cumsum(counts) - 0.5 * (counts - 1))[inverse], ranks)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        records = gen_ba2motifs_mini(6, base_nodes=8, seed=10)
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
        back = load_dataset(path)
        assert dataset_checksum(back) == dataset_checksum(records)
        assert [r.label for r in back] == [r.label for r in records]
        for a, b in zip(back, records):
            np.testing.assert_array_equal(a.graph.features, b.graph.features)
            for name in ("edge_u", "edge_v", "edge_weight"):
                np.testing.assert_array_equal(getattr(a.graph, name), getattr(b.graph, name))

    def test_save_then_save_is_byte_identical(self, tmp_path):
        records = gen_varsize_motifs(6, seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(records, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_reports_line(self, tmp_path):
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        path = tmp_path / "bad.jsonl"
        lines = [record_to_json(r) for r in records]
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(path)

    def test_graph_version_checked_with_line(self, tmp_path):
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        path = tmp_path / "v.jsonl"
        bad = json.loads(record_to_json(records[1]))
        bad["graph"]["version"] = 7
        path.write_text(record_to_json(records[0]) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataFormatError, match="line 2: unsupported graph version 7"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", 1.7),
            ("label", 1.0),
            ("label", True),
            ("label", "1"),
            ("label", None),
            ("motif_count", 1.5),
            ("motif_count", False),
            ("gt_edge_mask", 0.9),
            ("gt_edge_mask", 1.0),
            ("gt_edge_mask", True),
            ("gt_edge_mask", 2),
        ],
    )
    def test_non_integer_fields_rejected_with_line(self, tmp_path, field, value):
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        bad = json.loads(record_to_json(records[1]))
        if field == "gt_edge_mask":
            bad[field][0] = value
        else:
            bad[field] = value
        path = tmp_path / "f.jsonl"
        path.write_text(record_to_json(records[0]) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataFormatError, match=f"line 2: {field}"):
            load_dataset(path)

    def test_malformed_graph_edges_rejected_with_line(self, tmp_path):
        # a raw TypeError from iterating the int at the parent
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        bad = json.loads(record_to_json(records[1]))
        bad["graph"]["edges"] = 5
        path = tmp_path / "e.jsonl"
        path.write_text(record_to_json(records[0]) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataFormatError, match="line 2: edges 5 is not a list"):
            load_dataset(path)

    @pytest.mark.parametrize("line", ["[]", '{"graph": {}}', '{"label": 0}'])
    def test_malformed_record_reports_line(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["graph", "label", "gt_edge_mask", "motif_count"])
    def test_missing_key_named_with_line(self, tmp_path, key):
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        bad = json.loads(record_to_json(records[1]))
        del bad[key]
        path = tmp_path / "k.jsonl"
        path.write_text(record_to_json(records[0]) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataFormatError, match=f"^line 2: record missing field '{key}'$"):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=13)
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            record_to_json(records[0]) + "\n\n" + record_to_json(records[1]) + "\n"
        )
        assert len(load_dataset(path)) == 2

    def test_graph_label_must_agree(self, tmp_path):
        # The graph's copy of the label was never read, so a line whose
        # copy disagreed loaded without a word.
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        bad = json.loads(record_to_json(records[1]))
        assert bad["label"] == bad["graph"]["label"] == 1
        bad["graph"]["label"] = 0
        path = tmp_path / "g.jsonl"
        path.write_text(record_to_json(records[0]) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataFormatError, match="line 2: label 1 differs"):
            load_dataset(path)

    def test_graph_label_may_be_absent(self, tmp_path):
        records = gen_ba2motifs_mini(2, base_nodes=8, seed=12)
        obj = json.loads(record_to_json(records[1]))
        del obj["graph"]["label"]
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert record_to_json(load_dataset(path)[0]) == record_to_json(records[1])

    def test_mask_length_validated(self):
        g = Graph.undirected(np.ones((2, 1)), [(0, 1)])
        with pytest.raises(DataFormatError):
            DatasetRecord(graph=g, label=0, gt_edge_mask=(0, 1), motif_count=0)


class TestRecordFields:
    """A DatasetRecord checks and normalizes its own label, mask and motif
    count, so every record it accepts saves and loads back."""

    # Each was accepted in memory and then written as a line load_dataset
    # rejects, or made record_to_json raise a TypeError.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", 1.0),
            ("label", True),
            ("label", -1),
            ("label", "1"),
            ("gt_edge_mask", 2),
            ("gt_edge_mask", True),
            ("gt_edge_mask", 0.5),
            ("gt_edge_mask", np.float64(1.0)),
            ("motif_count", -1),
            ("motif_count", False),
        ],
    )
    def test_rejected_in_memory(self, field, value):
        fields = {"label": 1, "gt_edge_mask": (0, 1), "motif_count": 1}
        fields[field] = (0, value) if field == "gt_edge_mask" else value
        graph = Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2)])
        with pytest.raises(DataFormatError, match=f"^{field}"):
            DatasetRecord(graph=graph, **fields)

    def test_numpy_integers_stored_as_ints(self):
        i = np.int64
        graph = Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2)])
        rec = DatasetRecord(
            graph=graph, label=i(1), gt_edge_mask=np.array([0, 1]), motif_count=np.uint8(1)
        )
        assert (type(rec.label), type(rec.motif_count)) == (int, int)
        assert rec.gt_edge_mask == (0, 1)
        assert [type(x) for x in rec.gt_edge_mask] == [int, int]


def test_numpy_scalars_save_and_load_back(tmp_path):
    """A graph, a record and a GCN and a GIN model built with numpy scalars
    where the library stores Python ints and floats each save, load and
    save again to the same bytes. The record and the models raised
    TypeError on the first save."""
    i = np.int64
    graph = Graph.undirected(np.ones((3, 2)), [(i(0), i(1)), (i(1), i(2), np.float64(0.5))])
    record = DatasetRecord(
        graph=graph, label=i(1), gt_edge_mask=(i(0), i(1)), motif_count=i(1)
    )
    gcn = init_gcn(i(2), i(1), i(4), i(2))
    gin = gin_model(3, 2, hidden=4, num_layers=2, num_classes=i(3), epsilon=np.float64(0.25))
    for kind, obj, save, load in [
        ("graph", graph, save_graph, load_graph),
        ("record", [record], save_dataset, load_dataset),
        ("gcn", gcn, save_model, load_model),
        ("gin", gin, save_model, load_model),
    ]:
        first, second = tmp_path / f"{kind}-1", tmp_path / f"{kind}-2"
        save(obj, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes(), kind
