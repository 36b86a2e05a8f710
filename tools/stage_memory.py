"""Print the tracemalloc peak and kept MiB of each stage of the CLI commands.

Each stage runs once on the graph of ``pubmed_like_spec(seed)``, tracing
from just before it starts: the peak is the most memory it held at once,
and kept what it still holds when it returns, its result included.  The
stages are the link and node writers and readers, the link writer on the
graph with ``numpy.random.default_rng(seed).random`` weights, the graph
build from the read columns in file order and shuffled, the first
``sparsify`` of each method at k=3 (it builds the sweep arrays), and
``verify``'s edge-id lookup of the per-type k=3 selection.

Run ``python tools/stage_memory.py [seed]``; the seed defaults to 0.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import tracemalloc

import numpy as np

import hgsparse as hg

_MIB = 2**20


def _traced(call):
    """``call()``, with the peak and kept MiB that tracemalloc saw over it."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / _MIB, kept / _MIB


def stages(spec: hg.GenSpec, workdir) -> list[tuple[str, float, float]]:
    """(stage, peak MiB, kept MiB) of each stage on the graph of ``spec``,
    whose files go to the directory ``workdir``."""
    links, nodes, weighted_links, sparse = (
        os.path.join(workdir, name)
        for name in ("link.dat", "node.dat", "weighted.dat", "sparse.dat"))
    rows = []

    def run(name, call):
        result, peak, kept = _traced(call)
        rows.append((name, peak, kept))
        return result

    generated = hg.generate(spec)
    run("write_link_file, whole graph", lambda: hg.write_link_file(generated, links))
    run("write_node_file", lambda: hg.write_node_file(nodes, generated.node_ids,
                                                      generated.node_types))
    weighted = hg.build_graph_arrays(
        generated.node_ids[generated.src], generated.node_ids[generated.dst], generated.etype,
        weight=np.random.default_rng(spec.seed).random(generated.m))
    del generated
    run("write_link_file, weighted whole graph",
        lambda: hg.write_link_file(weighted, weighted_links))
    del weighted
    table = run("read_link_file", lambda: hg.read_link_file(links))
    node_table = run("read_node_file", lambda: hg.read_node_file(nodes))

    def build(src, dst, etype):
        return hg.build_graph_arrays(src, dst, etype, node_ids=node_table.ids,
                                     node_types=node_table.types)

    columns = (table.src, table.dst, table.etype)
    g = run("build_graph_arrays, file order", lambda: build(*columns))
    perm = list(range(len(table)))
    random.Random(spec.seed).shuffle(perm)
    shuffled = [column[perm] for column in columns]
    run("build_graph_arrays, shuffled", lambda: build(*shuffled))
    del shuffled, perm
    masks = {}
    for method in hg.METHODS:
        g.sweep_cache = None  # each method's call is a first call
        params = hg.SparsifyParams(k=3, method=method, seed=spec.seed)
        masks[method] = run(f"first sparsify, {method} k=3",
                            lambda: hg.sparsify(g, params)).mask
    run("write_link_file, per-type k=3", lambda: hg.write_link_file(g, sparse, masks[hg.PER_TYPE]))
    kept = hg.read_link_file(sparse)
    run("HeteroGraph.edge_ids, per-type k=3",
        lambda: g.edge_ids(kept.src, kept.dst, kept.etype))
    return rows


def report(title: str, rows: list[tuple[str, float, float]]) -> None:
    """Print ``rows`` of :func:`stages` under ``title``, one stage a line."""
    print(f"{title}; tracemalloc MiB")
    print(f"{'peak':>7} {'kept':>7}  stage")
    for name, peak, kept in rows:
        print(f"{peak:7.1f} {kept:7.1f}  {name}")


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 0
    spec = hg.pubmed_like_spec(seed)
    with tempfile.TemporaryDirectory() as workdir:
        rows = stages(spec, workdir)
    report(f"pubmed_like_spec({seed}): {sum(e.count for e in spec.edge_types)} edges, "
           f"{sum(spec.node_type_sizes)} nodes", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
