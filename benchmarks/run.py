"""edgelens benchmark: explanation, method comparison, oracle and training.

Run from the repository root:

    python3 benchmarks/run.py --workload explain-large --seed 1 --seconds 25 --trace 0

Each workload is a closed loop in one process: the next operation starts when
the previous one has returned and been checked. `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps the library's layer functions and
reports per-layer metrics instead. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment. README.md in this directory describes the workloads,
metrics and checks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# One BLAS thread unless the caller says otherwise: at these matrix sizes a
# second thread makes no call faster, and on a small machine its spinning
# makes every timing swing with whatever else runs. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from reference import (  # noqa: E402
    edge_list,
    mean_cross_entropy,
    overall_fidelity,
    probabilities,
    ref_model,
)
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Frozen architecture and corpus of the pinned experiment.
FEATURES, LAYERS, HIDDEN, CLASSES = 10, 3, 32, 2
ARCH = {"num_layers": LAYERS, "hidden_dim": HIDDEN, "num_classes": CLASSES}
CORPUS = dict(n_graphs=200, base_nodes=5, seed=7)
METHODS = ("linear-gradient", "sa", "ig")
INIT_SCALE = 0.3
LARGE_BASE_NODES = 200  # n = 205, |E| = 205 or 206
LARGE_GRAPHS = 16
PAIRS_PER_ROUND = 10  # a pair is one house (|E| = 11) and one pentagon (|E| = 10) graph
ORACLE_SUBSET = 40  # the first 10-edge corpus graphs
ORACLE_PER_ROUND = 4
TRAIN_EPOCHS = 50
SETUP_REPEATS = 5  # at least; cheap set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 2.0
SAMPLED_EDGES = 4  # edges per explanation whose score is checked exactly

END_TO_END = {
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (module, function) pairs the traced run wraps.
TRACED = [
    ("edgelens.data", "gen_ba2motifs_mini"),
    ("edgelens.graphs", "induce_by_edges"),
    ("edgelens.models", "forward_dense"),
    ("edgelens.models", "weighted_adjacency"),
    ("edgelens.models", "forward_on_induced"),
    ("edgelens.explain", "linear_gradient_scores"),
    ("edgelens.explain", "sa_edge_scores"),
    ("edgelens.explain", "ig_edge_scores"),
    ("edgelens.explain", "linear_search"),
    ("edgelens.explain", "brute_force_best_subgraph"),
    ("edgelens.evaluate", "compare_methods"),
    ("edgelens.evaluate", "oracle_report"),
    ("edgelens.training", "train_gcn"),
]

PER_LAYER = {
    "models.forward_dense.calls": "count",
    "models.forward_dense.self_s": "s",
    "models.forward_dense.gflop": "GFLOP",
    "models.forward_dense.gflop_per_s": "GFLOP/s",
    "models.weighted_adjacency.calls": "count",
    "models.weighted_adjacency.self_s": "s",
    "models.forward_on_induced.calls": "count",
    "models.forward_on_induced.self_s": "s",
    "graphs.induce_by_edges.calls": "count",
    "graphs.induce_by_edges.self_s": "s",
    "explain.linear_gradient_scores.s": "s",
    "explain.sa_edge_scores.s": "s",
    "explain.ig_edge_scores.s": "s",
    "explain.linear_search.s": "s",
    "explain.brute_force_best_subgraph.s": "s",
    "evaluate.compare_methods.s": "s",
    "evaluate.oracle_report.s": "s",
    "training.train_gcn.s": "s",
    "training.epochs": "count",
    "training.epoch_ms": "ms",
    "data.gen_ba2motifs_mini.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def load_library():
    """Import edgelens from this checkout's src/, never from elsewhere."""
    if not (SRC / "edgelens" / "__init__.py").is_file():
        sys.exit(f"error: no edgelens sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import edgelens

    if Path(edgelens.__file__).resolve().parent != (SRC / "edgelens").resolve():
        sys.exit(f"error: imported edgelens from {edgelens.__file__}, not {SRC}")
    return edgelens


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Part:
    """One timed call into the library and the check of its result."""

    kind: str  # label of the per-kind figures, e.g. "gcn" or "ig"
    run: Callable[[], Any]
    check: Callable[[Any], None]
    units: int = 1  # operations the call counts as
    passes: int = 0  # closed-form forward_dense calls


@dataclass
class Bench:
    rounds: list  # list of rounds; a round is a list of ops; an op is a list of Parts
    final_check: Callable[[], None] | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    done: int = 0
    busy_s: float = 0.0
    samples: list = field(default_factory=list)  # seconds per unit of each op
    kinds: dict = field(default_factory=dict)  # kind -> [units, seconds, samples]
    reported: int = 0

    def run(self, op: list) -> tuple[list, float]:
        """Run and check every part of one op. Returns the results (None for
        a part that failed) and the op's library time; an op with a failed
        part gives no time sample."""
        results, busy, units = [], 0.0, 0
        for part in op:
            self.attempted += part.units
            t0 = time.perf_counter()
            try:
                result = part.run()
                elapsed = time.perf_counter() - t0
                part.check(result)
            except Exception:  # a failing operation is counted, and the run goes on
                self.failed += part.units
                if self.reported < 3:
                    traceback.print_exc(file=sys.stderr)
                    self.reported += 1
                results.append(None)
                continue
            results.append(result)
            busy += elapsed
            units += part.units
            kind = self.kinds.setdefault(part.kind, [0, 0.0, []])
            kind[0] += part.units
            kind[1] += elapsed
            kind[2].append(elapsed / part.units)
        if all(r is not None for r in results):
            self.done += units
            self.busy_s += busy
            self.samples.append(busy / units)
        return results, busy

    def per_kind(self) -> dict:
        return {
            kind: {
                "p50_ms": 1000.0 * statistics.median(samples),
                "per_s": units / seconds,
                "calls": len(samples),
            }
            for kind, (units, seconds, samples) in self.kinds.items()
        }


# --------------------------------------------------------------------------
# Models and reference agreement


def gcn_model(el, seed: int):
    return el.init_gcn(FEATURES, LAYERS, HIDDEN, CLASSES, seed=seed, init_scale=INIT_SCALE)


def gin_model(el, seed: int):
    """GIN with every parameter drawn from Uniform(-0.3, 0.3); the library
    has no GIN initializer."""
    from edgelens.models import Classifier, GINLayer, ModelSpec

    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
    dims = [FEATURES] + [HIDDEN] * LAYERS
    layers = tuple(
        GINLayer(
            w1=u(dims[i], HIDDEN), b1=u(HIDDEN), w2=u(HIDDEN, dims[i + 1]), b2=u(dims[i + 1])
        )
        for i in range(LAYERS)
    )
    classifier = Classifier(w1=u(HIDDEN, HIDDEN), b1=u(HIDDEN), w2=u(HIDDEN, CLASSES), b2=u(CLASSES))
    return ModelSpec("gin", layers, classifier, "mean", CLASSES)


@dataclass
class RefGraph:
    record: Any  # DatasetRecord
    edges: list
    p: Any  # reference probabilities of the whole graph
    p_empty: Any  # reference probabilities with every edge removed
    target: int  # predicted class

    @property
    def graph(self):
        return self.record.graph


def reference_inputs(el, ref, model, records) -> list[RefGraph]:
    """Reference probabilities per input; each must agree with
    edgelens.forward to 1e-12."""

    out = []
    for rec in records:
        g = rec.graph
        edges = edge_list(g)
        p = probabilities(ref, g.features, edges)
        lib = el.forward(model, g).probabilities
        gap = float(np.max(np.abs(p - lib)))
        expect(gap <= 1e-12, f"reference forward differs from edgelens.forward by {gap:.3g}")
        out.append(RefGraph(rec, edges, p, probabilities(ref, g.features, []), int(np.argmax(lib))))
    return out


def full_candidate(rg: RefGraph) -> float:
    """Overall fidelity of the k = |E| prefix: p(G) - p(no edges)."""
    return float(rg.p[rg.target] - rg.p_empty[rg.target])


def rotation(seed: int, size: int) -> int:
    return int(np.random.default_rng(seed).integers(size))


def method_passes(method: str, num_edges: int) -> int:
    """Forward passes of explain() per method, original pass included."""
    if method == "linear-gradient":
        return 3 * num_edges + 1
    if method == "sa":
        return 4 * num_edges + 1
    return 1 + 50 * (num_edges + 1) + 2 * num_edges


# --------------------------------------------------------------------------
# Workloads: prepare() is the timed set-up (inputs, models, warm-up);
# bind() builds the ops and the reference data their checks use.


def prepare_explain(el, seed: int):
    records = el.gen_ba2motifs_mini(LARGE_GRAPHS, base_nodes=LARGE_BASE_NODES, seed=seed)
    models = {"gcn": gcn_model(el, seed), "gin": gin_model(el, seed)}
    for model in models.values():
        el.explain(model, records[0].graph)
    return records, models


def explanation_part(el, seed: int, kind: str, model, ref, i: int, rg: RefGraph) -> Part:
    num_edges = rg.graph.num_undirected_edges
    sampled = np.random.default_rng([seed, i]).choice(num_edges, SAMPLED_EDGES, replace=False)

    def check(e):
        c = e.target_class
        expect(c == rg.target, f"target class {c}, reference predicts {rg.target}")
        expect(
            e.forward_passes_used == 3 * num_edges + 1,
            f"{e.forward_passes_used} passes, expected {3 * num_edges + 1}",
        )
        keys = [(-e.scores[j], j) for j in e.ranked_edges]
        expect(keys == sorted(keys), "ranking not descending by score, ties by index")
        for j in sampled:
            without = rg.edges[:j] + rg.edges[j + 1 :]
            drop = rg.p[c] - probabilities(ref, rg.graph.features, without)[c]
            w = rg.edges[j][2]
            expect(
                abs(e.scores[j] * 2 * w - drop) <= 1e-12,
                f"edge {j}: score*2w={e.scores[j] * 2 * w!r}, reference drop={drop!r}",
            )
        chosen = e.ranked_edges[: e.chosen_k]
        want = overall_fidelity(ref, rg.graph.features, rg.edges, chosen, c, rg.p)
        expect(abs(e.overall - want) <= 1e-9, f"overall {e.overall!r}, reference {want!r}")
        expect(
            e.overall >= full_candidate(rg) - 1e-12,
            f"overall {e.overall!r} below the k=|E| candidate {full_candidate(rg)!r}",
        )

    return Part(kind, lambda: el.explain(model, rg.graph), check, passes=3 * num_edges + 1)


def bind_explain(el, seed: int, state) -> Bench:
    records, models = state
    refs = {kind: ref_model(m) for kind, m in models.items()}
    inputs = {kind: reference_inputs(el, refs[kind], m, records) for kind, m in models.items()}
    ops = [
        [
            explanation_part(el, seed, kind, models[kind], refs[kind], i, inputs[kind][i])
            for kind in models
        ]
        for i in range(len(records))
    ]
    return Bench(rounds=[[op] for op in ops])


def prepare_corpus(el, seed: int, warm: Callable):
    corpus = el.gen_ba2motifs_mini(**CORPUS)
    model = gcn_model(el, seed)
    warm(model, corpus)
    return corpus, model


def bind_methods(el, seed: int, state) -> Bench:
    corpus, model = state
    inputs = reference_inputs(el, ref_model(model), model, corpus)

    def part(method: str, pair: list) -> Part:
        passes = sum(method_passes(method, rg.graph.num_undirected_edges) for rg in pair)
        floor = sum(full_candidate(rg) for rg in pair) / len(pair)

        def check(summaries):
            expect(len(summaries) == 1 and summaries[0].n_instances == len(pair), "one summary of the pair")
            s = summaries[0]
            want = passes / len(pair)
            expect(s.mean_forward_passes == want, f"{s.mean_forward_passes} mean passes, expected {want}")
            expect(
                s.mean_overall >= floor - 1e-12,
                f"mean overall {s.mean_overall!r} below the mean k=|E| candidate {floor!r}",
            )

        records = [rg.record for rg in pair]
        run = lambda: el.compare_methods(model, records, methods=(method,))
        return Part(method, run, check, units=len(pair), passes=passes)

    start = 2 * rotation(seed, len(inputs) // 2)  # even, so each pair is one house and one pentagon
    order = inputs[start:] + inputs[:start]
    pairs = [order[i : i + 2] for i in range(0, len(order), 2)]
    ops = [[part(method, pair) for method in METHODS] for pair in pairs]
    return Bench(
        rounds=[ops[i : i + PAIRS_PER_ROUND] for i in range(0, len(ops), PAIRS_PER_ROUND)]
    )


def oracle_subset(corpus):
    return [rec for rec in corpus if rec.graph.num_undirected_edges == 10][:ORACLE_SUBSET]


def bind_oracle(el, seed: int, state) -> Bench:
    corpus, model = state
    ref = ref_model(model)
    inputs = reference_inputs(el, ref, model, oracle_subset(corpus))

    def part(rg: RefGraph) -> Part:
        num_edges = rg.graph.num_undirected_edges

        def check(report):
            expect(report.n_evaluated == 1 and report.n_skipped == 0, "one graph evaluated")
            expect(report.gaps[0] >= -1e-12, f"oracle loses to the search by {-report.gaps[0]!r}")

        return Part(
            "oracle",
            lambda: el.oracle_report(model, [rg.record]),
            check,
            passes=(3 * num_edges + 1) + 1 + 2 * (2**num_edges - 1),
        )

    start = rotation(seed, len(inputs))
    order = inputs[start:] + inputs[:start]

    def final_check():
        """The oracle's best score matches the reference's exhaustive best."""
        rg = order[0]
        best, score = el.brute_force_best_subgraph(model, rg.graph, rg.target)
        fid = lambda s: overall_fidelity(ref, rg.graph.features, rg.edges, s, rg.target, rg.p)
        expect(abs(fid(best) - score) <= 1e-9, f"oracle best {score!r}, reference {fid(best)!r}")
        ref_best = max(
            fid(s)
            for size in range(1, len(rg.edges) + 1)
            for s in itertools.combinations(range(len(rg.edges)), size)
        )
        expect(abs(ref_best - score) <= 1e-9, f"oracle best {score!r}, reference best {ref_best!r}")

    ops = [[part(rg)] for rg in order]
    return Bench(
        rounds=[ops[i : i + ORACLE_PER_ROUND] for i in range(0, len(ops), ORACLE_PER_ROUND)],
        final_check=final_check,
    )


def train_config(el, seed: int, epochs: int):
    # No accuracy reaches the target, so every call runs its full epoch budget.
    return el.TrainConfig(
        epochs=epochs,
        learning_rate=0.4,
        momentum=0.9,
        seed=seed,
        init_scale=INIT_SCALE,
        target_train_accuracy=math.inf,
    )


def prepare_train(el, seed: int):
    corpus = el.gen_ba2motifs_mini(**CORPUS)
    el.train_gcn(corpus, ARCH, train_config(el, seed, 2))
    return corpus


def bind_train(el, seed: int, corpus) -> Bench:
    init = gcn_model(el, seed)
    reference_inputs(el, ref_model(init), init, corpus)
    first_loss = mean_cross_entropy(ref_model(init), corpus)
    cfg = train_config(el, seed, TRAIN_EPOCHS)

    def check(result):
        losses = [t.loss for t in result.trace]
        expect(len(losses) == TRAIN_EPOCHS, f"{len(losses)} epochs, expected {TRAIN_EPOCHS}")
        expect(all(math.isfinite(x) for x in losses), "non-finite loss")
        expect(abs(losses[0] - first_loss) <= 1e-12, f"first loss {losses[0]!r}, reference {first_loss!r}")
        final = mean_cross_entropy(ref_model(result.model), corpus)
        expect(final < losses[0], f"final loss {final!r} not below first loss {losses[0]!r}")

    part = Part("epoch", lambda: el.train_gcn(corpus, ARCH, cfg), check, units=TRAIN_EPOCHS)
    return Bench(rounds=[[[part]]])


WORKLOADS = {
    "explain-large": (prepare_explain, bind_explain),
    "corpus-methods": (
        lambda el, seed: prepare_corpus(el, seed, lambda m, c: el.compare_methods(m, c[:2])),
        bind_methods,
    ),
    "corpus-oracle": (
        lambda el, seed: prepare_corpus(el, seed, lambda m, c: el.oracle_report(m, oracle_subset(c)[:1])),
        bind_oracle,
    ),
    "train": (prepare_train, bind_train),
}


# --------------------------------------------------------------------------
# Measurement


def environment() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def set_up(el, name: str, seed: int):
    """Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS
    (at most 50 times); returns the last state and every time."""
    prepare, _ = WORKLOADS[name]
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < 50):
        t0 = time.perf_counter()
        state = prepare(el, seed)
        times.append(time.perf_counter() - t0)
    return state, times


def checked(fn, *args):
    """Run a check outside any operation; returns (value, passed)."""
    try:
        return fn(*args), True
    except Exception:  # report the failed check, then carry on to the result
        traceback.print_exc(file=sys.stderr)
        return None, False


def measure(el, name: str, seed: int, seconds: float) -> dict:
    state, setup_times = set_up(el, name, seed)
    bench, ok = checked(WORKLOADS[name][1], el, seed, state)
    tally = Tally()
    if ok:
        deadline = time.perf_counter() + seconds
        r = 0
        while True:
            for op in bench.rounds[r % len(bench.rounds)]:
                tally.run(op)
            r += 1
            if time.perf_counter() >= deadline:
                break
        if bench.final_check is not None:
            ok = checked(bench.final_check)[1]
    metrics = {
        "ops_per_s": tally.done / tally.busy_s if tally.busy_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    details = {
        "setup_samples_s": setup_times,
        "op_samples": len(tally.samples),
        "op_p50_ms": 1000.0 * statistics.median(tally.samples) if tally.samples else None,
        "per_kind": tally.per_kind(),
    }
    return {"ok": ok, "tally": tally, "metrics": metrics, "units": END_TO_END, "details": details}


def dense_flop(m, n: int) -> int:
    """Multiply-add flops of forward_dense at n nodes: the n x n propagation
    and the dense layers; elementwise work is not counted."""
    flop = 0
    for layer in m.layers:
        if m.conv_kind == "gcn":
            d_in, d_out = layer.weight.shape
            flop += 2 * n * n * d_in + 2 * n * d_in * d_out
        else:
            d_in, d_mid = layer.w1.shape
            flop += 2 * n * n * d_in + 2 * n * d_in * d_mid + 2 * n * d_mid * layer.w2.shape[1]
    c = m.classifier
    return flop + 2 * c.w1.size + 2 * c.w2.size


def layer_metrics(tracer, first: int, last: int, dense_calls) -> dict:
    """Per-layer figures of the spans first..last-1."""
    name_of, start, end, _ = tracer.arrays()
    self_s = tracer.self_times()
    sl = slice(first, last)
    name_of, dur, self_s = name_of[sl], (end - start)[sl], self_s[sl]

    def of(span: str):
        mask = name_of == tracer.span_id(span)
        return int(mask.sum()), float(dur[mask].sum()), float(self_s[mask].sum())

    out = {}
    for mod, fn in TRACED:
        key = f"{mod.split('.')[-1]}.{fn}"
        calls, total, own = of(key)
        out[f"{key}.calls"], out[f"{key}.s"], out[f"{key}.self_s"] = calls, total, own
    gflop = sum(dense_flop(m, n) for m, n in dense_calls) / 1e9
    out["models.forward_dense.gflop"] = gflop
    dense_s = out["models.forward_dense.s"]
    out["models.forward_dense.gflop_per_s"] = gflop / dense_s if dense_s else 0.0
    return out


def measure_traced(el, name: str, seed: int, seconds: float) -> dict:
    """Alternate an untraced and a traced repetition of the workload's first
    round until `seconds` pass; per-layer figures are medians over the traced
    repetitions, and the overhead is traced minus untraced library time."""
    tracer = Tracer(TRACED)
    dense_calls = []
    tracer.on_call(
        "models.forward_dense", lambda m, adjacency, *a, **k: dense_calls.append((m, adjacency.shape[0]))
    )
    prepare, bind = WORKLOADS[name]
    with tracer.installed():
        state = prepare(el, seed)
    setup_layers = layer_metrics(tracer, 0, len(tracer.start), dense_calls)
    bench, ok = checked(bind, el, seed, state)
    tally = Tally()
    reps, plain_s, traced_s = [], [], []
    if ok:
        ops = bench.rounds[0]
        expected = sum(part.passes for op in ops for part in op)
        deadline = time.perf_counter() + seconds
        while True:
            plain_s.append(sum(tally.run(op)[1] for op in ops))
            first, calls_before = len(tracer.start), len(dense_calls)
            results, busy = [], 0.0
            with tracer.installed():
                for op in ops:
                    with tracer.span("bench.op"):
                        op_results, elapsed = tally.run(op)
                    results.extend(op_results)
                    busy += elapsed
            traced_s.append(busy)
            rep = layer_metrics(tracer, first, len(tracer.start), dense_calls[calls_before:])
            rep["training.epochs"] = sum(len(r.trace) for r in results if isinstance(r, el.TrainResult))
            reps.append(rep)
            if rep["models.forward_dense.calls"] != expected:
                print(
                    f"forward_dense ran {rep['models.forward_dense.calls']} times, closed form {expected}",
                    file=sys.stderr,
                )
                ok = False
            if time.perf_counter() >= deadline:
                break
        if bench.final_check is not None:
            ok = checked(bench.final_check)[1] and ok
    tracer.save(OUT / f"{name}-seed{seed}.spans.npz")
    measured = {key: statistics.median_low(rep[key] for rep in reps) for key in reps[0]} if reps else {}
    epochs = measured.get("training.epochs", 0)
    plain, traced = (statistics.median_low(x) if x else 0.0 for x in (plain_s, traced_s))
    measured.update(
        {
            "training.epoch_ms": 1000.0 * measured["training.train_gcn.s"] / epochs if epochs else 0.0,
            "data.gen_ba2motifs_mini.s": setup_layers["data.gen_ba2motifs_mini.s"],
            "trace.overhead_s": traced - plain,
            "trace.overhead_pct": 100.0 * (traced - plain) / plain if plain else 0.0,
        }
    )
    metrics = {key: measured.get(key, 0.0) for key in PER_LAYER}
    details = {"repetitions": len(reps), "spans": len(tracer.start)}
    return {"ok": ok, "tally": tally, "metrics": metrics, "units": PER_LAYER, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    el = load_library()
    run = measure_traced if args.trace else measure
    outcome = run(el, args.workload, args.seed, args.seconds)
    tally = outcome["tally"]
    result = {
        "correct": bool(outcome["ok"]) and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            k: {"value": v, "unit": outcome["units"][k]} for k, v in outcome["metrics"].items()
        },
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **outcome["details"], **result}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
