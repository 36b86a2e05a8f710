"""Command-line front end: sparsify, stats, generate, verify, eval.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent inputs, an output path that cannot be written, or a run
that does not fit in memory), 3 verification failure, 4 internal error
(a fault in hgsparse itself).
Every failure, and every warning, prints one line on stderr and no
traceback.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone

import click
import numpy as np

from .errors import DataError, UnknownEdgeError, UnknownNodeError, VerificationError
from .evalproxy import COMMON_NEIGHBORS, SCORERS, evaluate
from .graph import HeteroGraph, _sort_ids, build_graph_arrays
from .hgb_io import (LinkFileOptions, read_link_file, read_node_file, write_link_file,
                     write_node_file, write_report)
from .metrics import coverage_report, isolated_nodes, per_type_kept
from .sparsify import METHODS, PER_TYPE, SparsifyParams, sparsify
from .synthgen import EdgeTypeSpec, GenSpec, generate, parse_spec_file

_SEED_RANGE = click.IntRange(0, 2**64 - 1)
_K_RANGE = click.IntRange(1, 2**63 - 1)


@click.group()
def app():
    """Sparsify typed directed graphs, verify the results, and measure impact."""


def _options(*options):
    """One decorator that adds ``options`` to a command, in the order given."""
    def add(cmd):
        for option in reversed(options):
            cmd = option(cmd)
        return cmd
    return add


_input_options = _options(
    click.option("--links", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="link file: src, dst, etype[, weight] per line"),
    click.option("--nodes", type=click.Path(exists=True, dir_okay=False),
                 help="node file: id, name, node type per line"),
    click.option("--delimiter", default="\t",
                 help="field delimiter of the link file (default: tab)"),
    click.option("--comment-prefix", default=None,
                 help="skip link-file lines starting with this character"),
)
_report_options = _options(
    click.option("--report", "report_path", type=click.Path(dir_okay=False),
                 help="where to write the JSON run report"),
    click.option("--deterministic", is_flag=True,
                 help="omit the timestamp so identical runs are byte-identical"),
)


def _load_graph(links, nodes, delimiter, comment_prefix) -> HeteroGraph:
    try:
        opts = LinkFileOptions(delimiter=delimiter, comment_prefix=comment_prefix)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None  # one line, no usage text
    table = read_link_file(links, opts)
    node_ids = node_types = None
    if nodes:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                node_table = read_node_file(nodes)
        finally:  # one line each, before any error
            for warning in caught:
                click.echo(f"warning: {nodes}: {warning.message}", err=True)
        node_ids, node_types = node_table.ids, node_table.types
    return build_graph_arrays(table.src, table.dst, table.etype, weight=table.weight,
                              node_ids=node_ids, node_types=node_types)


def _write_run_report(path, deterministic: bool, build) -> None:
    """Write the report ``build()`` returns to ``path``, when there is a path.

    ``build`` runs only then.  The report gains ``generated_at`` unless
    ``deterministic``.
    """
    if path:
        report = build()
        if not deterministic:
            report["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        write_report(report, path)


def _selection_report(g: HeteroGraph, mask, k: int, method: str, seed) -> dict:
    """The report of sparsify and verify: what an edge selection kept and
    what the coverage and isolated-node checks found in it."""
    kept = int(mask.sum())
    return {
        "n": g.n, "m": g.m, "k": k, "t": g.t, "method": method, "seed": seed,
        "kept_edges": kept, "ratio": kept / g.m if g.m else 0.0,
        "per_type_kept": {str(t): c for t, c in per_type_kept(g, mask).items()},
        "duplicates_dropped": g.duplicates_dropped,
        "coverage_violations": [v.to_dict() for v in coverage_report(g, mask, k, method)],
        "isolated_nodes": sorted(isolated_nodes(g, mask)),
    }


@app.command(name="sparsify")
@_input_options
@click.option("--k", required=True, type=_K_RANGE,
              help="per-bucket retention budget")
@click.option("--method", type=click.Choice(METHODS), default=PER_TYPE,
              show_default=True)
@click.option("--seed", type=_SEED_RANGE, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="where to write the kept edges")
@_report_options
def sparsify_cmd(links, nodes, delimiter, comment_prefix,
                 k, method, seed, out, report_path, deterministic):
    """Sparsify a graph and write the kept edges."""
    g = _load_graph(links, nodes, delimiter, comment_prefix)
    result = sparsify(g, SparsifyParams(k=k, method=method, seed=seed))
    write_link_file(g, out, result.mask)
    _write_run_report(report_path, deterministic,
                      lambda: _selection_report(g, result.mask, k, method, seed))
    click.echo(f"kept {result.kept} of {g.m} edges "
               f"(ratio {result.ratio:.4f}, method {method}, k={k}) -> {out}")


@app.command(name="stats")
@_input_options
@_report_options
def stats_cmd(links, nodes, delimiter, comment_prefix, report_path, deterministic):
    """Print summary statistics of a graph."""
    g = _load_graph(links, nodes, delimiter, comment_prefix)
    stats = g.stats()
    click.echo(f"nodes:          {stats.n}")
    click.echo(f"edges:          {stats.m}")
    click.echo(f"edges/node:     {stats.edges_per_node:.2f}")
    click.echo(f"node types:     {stats.node_type_count}")
    click.echo(f"edge types:     {stats.edge_type_count}")
    for etype, count in sorted(stats.per_edge_type.items()):
        click.echo(f"  edge type {etype}: {count}")
    click.echo(f"max bucket:     {stats.max_bucket}")
    click.echo(f"duplicates:     {g.duplicates_dropped}")
    _write_run_report(report_path, deterministic,
                      lambda: {**stats.to_dict(), "duplicates_dropped": g.duplicates_dropped})


def _parse_edge_flag(text: str) -> EdgeTypeSpec:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise click.UsageError(
            f"--edge must be src_type:dst_type:count[:alpha], got {text!r}")
    try:
        alpha = float(parts[3]) if len(parts) == 4 else 0.0
        return EdgeTypeSpec(int(parts[0]), int(parts[1]), int(parts[2]), alpha)
    except ValueError:
        raise click.UsageError(f"invalid number in --edge {text!r}") from None


@app.command(name="generate")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              help="spec file (node_types = ..., seed = ..., edges ... lines)")
@click.option("--node-types", "node_types_opt", default=None,
              help="node type sizes, e.g. '100,50,25'")
@click.option("--edge", "edge_opts", multiple=True,
              help="edge type as src_type:dst_type:count[:alpha]; repeatable")
@click.option("--seed", type=_SEED_RANGE, default=None,
              help="generation seed (overrides the spec file's)")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--nodes-out", type=click.Path(dir_okay=False),
              help="also write the node table here")
@_report_options
def generate_cmd(spec_path, node_types_opt, edge_opts, seed, out, nodes_out,
                 report_path, deterministic):
    """Generate a seeded synthetic graph."""
    if spec_path:
        if node_types_opt or edge_opts:
            raise click.UsageError("give either --spec or --node-types/--edge, not both")
        spec = parse_spec_file(spec_path)
    else:
        if not node_types_opt or not edge_opts:
            raise click.UsageError("need --spec, or both --node-types and --edge")
        try:
            sizes = tuple(int(x) for x in node_types_opt.replace(",", " ").split())
        except ValueError:
            raise click.UsageError(
                f"invalid --node-types {node_types_opt!r}") from None
        spec = GenSpec(sizes, tuple(_parse_edge_flag(e) for e in edge_opts))
    if seed is not None:
        spec = replace(spec, seed=seed)
    g = generate(spec)
    write_link_file(g, out)
    if nodes_out:
        write_node_file(nodes_out, g.node_ids, g.node_types)
    _write_run_report(report_path, deterministic,
                      lambda: {**g.stats().to_dict(), "seed": spec.seed})
    click.echo(f"generated n={g.n} m={g.m} t={g.t} (seed {spec.seed}) -> {out}")


@app.command(name="verify")
@_input_options
@click.option("--sparse", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="sparsifier output to check against the full graph "
                   "(tab-delimited, as sparsify writes it)")
@click.option("--k", required=True, type=_K_RANGE)
@click.option("--method", type=click.Choice(METHODS), default=PER_TYPE,
              show_default=True)
@_report_options
def verify_cmd(links, nodes, delimiter, comment_prefix,
               sparse, k, method, report_path, deterministic):
    """Check a sparse edge file against the guarantees of a method."""
    g = _load_graph(links, nodes, delimiter, comment_prefix)
    # the sparse file is read as sparsify writes it: tab-delimited
    kept = read_link_file(sparse, LinkFileOptions(comment_prefix=comment_prefix))
    try:
        ids = g.edge_ids(kept.src, kept.dst, kept.etype)
    except (UnknownEdgeError, UnknownNodeError) as exc:
        raise VerificationError(f"sparse file is not a subset of the graph: {exc}")
    row = _sort_ids(ids)[2]  # the first row, in file order, that repeats an earlier one
    if row >= 0:
        raise VerificationError(f"sparse file repeats edge {g.edge_key(int(ids[row]))}")
    mask = np.zeros(g.m, dtype=bool)
    mask[ids] = True
    report = _selection_report(g, mask, k, method, None)
    violations, isolated = report["coverage_violations"], report["isolated_nodes"]
    for v in violations:
        click.echo(f"violation: node {v['node']} {v['direction']} etype {v['etype']}: "
                   f"kept {v['actual']} < required {v['required']}")
    for u in isolated:
        click.echo(f"isolated: node {u}")
    _write_run_report(report_path, deterministic, lambda: report)
    if violations or isolated:
        raise VerificationError(
            f"{len(violations)} coverage violation(s), "
            f"{len(isolated)} isolated node(s)")
    click.echo(f"ok: {int(mask.sum())} of {g.m} edges satisfy {method} coverage at k={k}")


@app.command(name="eval")
@_input_options
@click.option("--holdout", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.2, show_default=True)
@click.option("--seed", type=_SEED_RANGE, default=0, show_default=True,
              help="drives the split, negative, and sparsifier substreams")
@click.option("--scorer", type=click.Choice(SCORERS), default=COMMON_NEIGHBORS,
              show_default=True)
@click.option("--negatives-per-positive", type=click.IntRange(min=1), default=19,
              show_default=True)
@click.option("--k", type=_K_RANGE, default=None,
              help="sparsify the train edges first (absent = full-graph baseline)")
@click.option("--method", type=click.Choice(METHODS), default=PER_TYPE,
              show_default=True)
@_report_options
def eval_cmd(links, nodes, delimiter, comment_prefix, holdout, seed,
             scorer, negatives_per_positive, k, method, report_path, deterministic):
    """Link-prediction proxy on the full or sparsified train graph."""
    if not 0 < holdout < 1:  # FloatRange's bound checks are false for nan, so it passes
        raise click.BadParameter(f"{holdout} is not in the range 0<x<1.", param_hint="'--holdout'")
    g = _load_graph(links, nodes, delimiter, comment_prefix)
    rep = evaluate(g, holdout=holdout, seed=seed, scorer=scorer,
                   negatives_per_positive=negatives_per_positive, k=k, method=method)
    variant = f"{method} k={k}" if k is not None else "full graph"
    click.echo(f"auc {rep.auc:.4f}  mrr {rep.mrr:.4f}  "
               f"({variant}, {rep.positives} positives, {scorer})")
    _write_run_report(report_path, deterministic, lambda: {
        **rep.to_dict(), "n": g.n, "m": g.m, "t": g.t, "holdout": holdout,
        "seed": seed, "k": k, "method": method if k is not None else None})


def run(argv=None) -> int:
    """Dispatch argv (defaults to sys.argv[1:]) and map errors to exit codes."""
    try:
        app.main(args=list(argv) if argv is not None else None,
                 prog_name="hgsparse", standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.UsageError as exc:  # one line, without click's usage block
        click.echo(f"Error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except VerificationError as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 3
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except MemoryError as exc:  # an input too large for this machine, not a fault
        click.echo(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
                   err=True)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 4


def main() -> None:
    sys.exit(run())
