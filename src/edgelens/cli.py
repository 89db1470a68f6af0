"""Command-line entry point.

Exit codes: 0 ok, 2 usage error (click's default), 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

import click

from . import data as data_mod
from . import evaluate as eval_mod
from .errors import EdgeLensError, NumericalFailureError
from .explain import K_RANGES, METHODS, save_explanation
from .explain import explain as run_explain
from .graphs import load_graph
from .models import load_model, save_model
from .training import TrainConfig, train_gcn

EXIT_DATA_ERROR = 3
EXIT_NUMERICAL = 4


def _guard(fn):
    try:
        return fn()
    except EdgeLensError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL if isinstance(exc, NumericalFailureError) else EXIT_DATA_ERROR)


def _comma_list(item_type: click.ParamType):
    """Callback parsing a comma-separated option value item by item, so a
    bad item, a repeated one or a list with none is a usage error naming
    the option."""

    def parse(ctx, param, value):
        items = [s.strip() for s in value.split(",")]
        items = [item_type.convert(s, param, ctx) for s in items if s]
        if not items:
            raise click.BadParameter("the list is empty", ctx, param)
        repeated = [x for i, x in enumerate(items) if x in items[:i]]
        if repeated:
            raise click.BadParameter(f"{repeated[0]!r} is given twice", ctx, param)
        return items

    return parse


class _SparsityLevel(click.ParamType):
    # click.FloatRange lets NaN through.
    name = "level"

    def convert(self, value, param, ctx):
        level = click.FLOAT.convert(value, param, ctx)
        if not 0.0 <= level <= 1.0:
            self.fail(f"sparsity level {value} outside [0, 1]", param, ctx)
        return level


@click.group()
def main():
    """Edge-level GNN explanation toolkit."""


@main.command("explain")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--class", "target_class", default="auto", show_default=True)
@click.option(
    "--method",
    default="linear-gradient",
    show_default=True,
    type=click.Choice(METHODS),
)
@click.option("--k-range", default="full", show_default=True, type=click.Choice(K_RANGES))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dot", "dot_path", default=None, type=click.Path())
def explain_cmd(model_path, graph_path, target_class, method, k_range, out_path, dot_path):
    """Explain one graph and write the explanation file (optionally DOT)."""

    if target_class == "auto":
        target = "auto"
    else:
        try:
            target = int(target_class)
        except ValueError:
            raise click.BadParameter(
                f"{target_class!r} is neither 'auto' nor an integer",
                param_hint="--class",
            ) from None

    def run():
        m = load_model(model_path)
        g = load_graph(graph_path)
        e = run_explain(m, g, target_class=target, method=method, k_range=k_range)
        save_explanation(e, out_path)
        if dot_path:
            eval_mod.export_dot(e, dot_path)
        click.echo(
            f"class={e.target_class} chosen_k={e.chosen_k} "
            f"overall={e.overall:.6f} sparsity={e.sparsity:.6f} "
            f"forwards={e.forward_passes_used}"
        )

    _guard(run)


@main.command("evaluate")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option(
    "--methods",
    default=",".join(METHODS),
    show_default=True,
    callback=_comma_list(click.Choice(METHODS)),
)
@click.option(
    "--levels",
    default="0.5,0.6,0.7,0.8,0.9",
    show_default=True,
    callback=_comma_list(_SparsityLevel()),
)
@click.option("--k-range", default="full", show_default=True, type=click.Choice(K_RANGES))
@click.option("--out", "out_path", required=True, type=click.Path())
def evaluate_cmd(model_path, dataset_path, methods, levels, k_range, out_path):
    """Fidelity curves plus the method-comparison table."""

    def run():
        m = load_model(model_path)
        dataset = data_mod.load_dataset(dataset_path)
        curves = {
            method: [asdict(p) for p in eval_mod.fidelity_curve(m, dataset, method, levels)]
            for method in methods
        }
        comparison = [asdict(s) for s in eval_mod.compare_methods(m, dataset, methods, k_range)]
        eval_mod.write_report({"curves": curves, "comparison": comparison}, out_path)
        click.echo(eval_mod.format_table(comparison), nl=False)

    _guard(run)


@main.command("oracle")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--cap", default=14, show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_path", required=True, type=click.Path())
def oracle_cmd(model_path, dataset_path, cap, out_path):
    """Exhaustive-search gap report over a dataset."""

    def run():
        m = load_model(model_path)
        dataset = data_mod.load_dataset(dataset_path)
        report = eval_mod.oracle_report(m, dataset, cap=cap)
        eval_mod.write_report(asdict(report), out_path)
        click.echo(
            f"evaluated={report.n_evaluated} skipped={report.n_skipped} "
            f"mean_gap={report.mean_gap:.6f} max_gap={report.max_gap:.6f} "
            f"mean_ratio={report.mean_ratio:.6f}"
        )

    _guard(run)


@main.command("gen-dataset")
@click.option(
    "--kind",
    required=True,
    type=click.Choice(["ba2motifs-mini", "varsize"]),
)
@click.option("--n", "n_graphs", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--base-nodes", default=None, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def gen_dataset_cmd(kind, n_graphs, seed, base_nodes, out_path):
    """Generate a synthetic corpus with ground-truth edge masks."""
    if kind == "ba2motifs-mini":
        generate = data_mod.gen_ba2motifs_mini
    else:
        generate = data_mod.gen_varsize_motifs
    # Without --base-nodes the generator's own default applies.
    sizes = {} if base_nodes is None else {"base_nodes": base_nodes}
    try:
        records = generate(n_graphs, seed=seed, **sizes)
    except ValueError as exc:  # the generators' argument checks
        raise click.BadParameter(str(exc), param_hint="--base-nodes") from None

    def run():
        data_mod.save_dataset(records, out_path)
        click.echo(f"checksum={data_mod.dataset_checksum(records)}")

    _guard(run)


@main.command("train")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--layers", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--hidden", default=32, show_default=True, type=click.IntRange(min=1))
@click.option("--classes", default=2, show_default=True, type=click.IntRange(min=2))
@click.option("--epochs", default=500, show_default=True, type=click.IntRange(min=1))
@click.option("--lr", default=0.05, show_default=True, type=click.FloatRange(min=0.0))
@click.option(
    "--momentum",
    default=0.9,
    show_default=True,
    type=click.FloatRange(min=0.0, max=1.0, max_open=True),
)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--trace", "trace_path", default=None, type=click.Path())
def train_cmd(dataset_path, layers, hidden, classes, epochs, lr, momentum, seed, out_path, trace_path):
    """Train a GCN graph classifier and save the model file."""
    try:
        # FloatRange lets NaN and inf through; TrainConfig rejects them.
        cfg = TrainConfig(epochs=epochs, learning_rate=lr, momentum=momentum, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None

    def run():
        dataset = data_mod.load_dataset(dataset_path)
        result = train_gcn(
            dataset,
            {"num_layers": layers, "hidden_dim": hidden, "num_classes": classes},
            cfg,
        )
        save_model(result.model, out_path)
        if trace_path:
            result.write_trace(trace_path)
        click.echo(
            f"epochs={len(result.trace)} loss={result.final_loss:.6f} "
            f"accuracy={result.final_accuracy:.4f}"
        )

    _guard(run)


if __name__ == "__main__":
    main()
