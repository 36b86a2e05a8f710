"""Memory of the CLI's stages, the writers' row chunks and the stage tool.

A stage's peak is the most tracemalloc saw at once from just before the
stage started, and what it keeps is what it still holds on return, its
result included.  Each bound is the peak over what the stage keeps, with
about 15% headroom over what this tree measures on a 47k-edge graph.
"""

import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from hgsparse import (METHODS, EdgeTypeSpec, GenSpec, SparsifyParams, TrainView,
                      build_graph_arrays, generate, hgb_io,
                      pubmed_like_spec, read_link_file, read_node_file, sparsify,
                      write_link_file, write_node_file)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "stage_memory.py"
_spec = importlib.util.spec_from_file_location("stage_memory", _PATH)
stage_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_memory)


def _scaled(divisor: int) -> GenSpec:
    """pubmed_like_spec(0) with its node and edge counts cut by ``divisor``."""
    spec = pubmed_like_spec(0)
    return GenSpec(tuple(s // divisor for s in spec.node_type_sizes),
                   tuple(EdgeTypeSpec(e.src_type, e.dst_type, e.count // divisor, e.alpha)
                         for e in spec.edge_types), spec.seed)


@pytest.fixture(scope="module")
def graph():
    return generate(_scaled(5))  # 47,291 edges


_traced = stage_memory._traced  # the call's result, peak and kept MiB


class _Sink:
    """A stream that keeps nothing, so a write's peak is the writer's own."""

    def write(self, text):
        pass


@pytest.mark.parametrize("shuffled", [False, True], ids=["file order", "shuffled"])
def test_build_peaks_near_what_it_keeps(graph, shuffled):
    # the shuffled rows take the sort that every generated or HGB file takes
    rows = np.arange(graph.m)
    if shuffled:
        rows = np.random.default_rng(0).permutation(graph.m)
    columns = (graph.node_ids[graph.src[rows]], graph.node_ids[graph.dst[rows]],
               graph.etype[rows])
    g, peak, kept = _traced(lambda: build_graph_arrays(
        *columns, node_ids=graph.node_ids, node_types=graph.node_types))
    assert g.m == graph.m
    assert peak < 1.4 * kept


# the peak of each method's first call, which builds the sweep arrays,
# over the arrays and the mask it keeps
FIRST_SPARSIFY_PEAK = {METHODS[0]: 2.1, METHODS[1]: 3.45}


@pytest.mark.parametrize("method", METHODS)
def test_first_sparsify_peaks_near_what_it_keeps(graph, method):
    graph.sweep_cache = None
    _, peak, kept = _traced(lambda: sparsify(graph, SparsifyParams(k=3, method=method)))
    assert graph.sweep_cache is not None
    assert peak < FIRST_SPARSIFY_PEAK[method] * kept


def test_edge_ids_peaks_near_what_it_keeps(graph):
    # verify's lookup of every kept edge; it keeps one id per query
    ids = np.flatnonzero(sparsify(graph, SparsifyParams(k=3)).mask)
    src, dst = graph.node_ids[graph.src[ids]], graph.node_ids[graph.dst[ids]]
    found, peak, kept = _traced(lambda: graph.edge_ids(src, dst, graph.etype[ids]))
    assert (found == ids).all()
    assert peak < 10.6 * kept


@pytest.mark.parametrize("weighted", [False, True])
def test_write_peak_does_not_grow_with_m(monkeypatch, weighted):
    # a write holds one chunk of rows at a time, however many edges there
    # are: at 1,024-row chunks one bound per row of a chunk holds at 11,822
    # and 47,291 edges, whole and at a half selection, where the whole text
    # of the larger graph takes about 0.8 MB unweighted
    monkeypatch.setattr(hgb_io, "_WRITE_ROWS", 1024)
    for divisor in (20, 5):
        g = generate(_scaled(divisor))
        if weighted:
            g = build_graph_arrays(g.node_ids[g.src], g.node_ids[g.dst], g.etype,
                                   weight=np.random.default_rng(0).random(g.m))
        for selected in (None, np.random.default_rng(1).random(g.m) < 0.5):
            _, peak, _ = _traced(lambda: write_link_file(g, _Sink(), selected))
            assert peak < (250 if weighted else 135) / 1024  # MiB


def _one_shot(g, selected=None) -> str:
    # the whole selection's text from one _chunk_text over all of its rows
    ids = np.flatnonzero(g.edge_mask(selected))
    columns = [("", g.node_ids[g.src[ids]]), ("\t", g.node_ids[g.dst[ids]]),
               ("\t", g.etype[ids])]
    if g.weight is not None:
        columns.append(("\t", np.array([repr(w) for w in g.weight[ids].tolist()], dtype="S")))
    return hgb_io._chunk_text(columns)


def _seam_graph(weighted: bool):
    # 130 edges whose ids take 1 to 13 digits, so that chunks differ in width
    rng = np.random.default_rng(7)
    ids = np.unique(10 ** rng.integers(0, 13, size=200) + rng.integers(0, 9, size=200))
    m = 130
    # repr widths from 3 to 24 characters, the longest a float has, so that
    # one chunk's weight cells pad short ones to the long ones' width
    weight = rng.choice([0.1, 1e-300, 2.5, 1e300, -0.0, 1 / 3, 5e-324, 1e16,
                         -1.7976931348623157e308], size=m) if weighted else None
    return build_graph_arrays(rng.choice(ids, size=m), rng.choice(ids, size=m),
                              rng.integers(0, 10**rng.integers(1, 6, size=m)), weight=weight)


@pytest.mark.parametrize("rows", [1, 2, 7, 64])
@pytest.mark.parametrize("weighted", [False, True])
def test_write_chunk_seams_are_byte_identical(monkeypatch, rows, weighted):
    g = _seam_graph(weighted)
    assert g.m > rows + 1
    monkeypatch.setattr(hgb_io, "_WRITE_ROWS", rows)
    past_a_chunk = np.zeros(g.m, dtype=bool)
    past_a_chunk[:rows + 1] = True  # one row more than a chunk
    half = np.random.default_rng(rows).random(g.m) < 0.5
    for selected in (None, np.zeros(g.m, dtype=bool), past_a_chunk, half):
        out = io.StringIO()
        count = write_link_file(g, out, selected)
        assert out.getvalue() == _one_shot(g, selected)
        assert count == int(g.edge_mask(selected).sum())
    out = io.StringIO()
    assert write_node_file(out, g.node_ids, g.node_types) == g.n
    ids, types = g.node_ids, g.node_types
    assert out.getvalue() == hgb_io._chunk_text([("", ids), ("\tn", ids), ("\t", types)])


@pytest.mark.parametrize("block", [16, 64, 1000])
@pytest.mark.parametrize("weighted", [False, True])
def test_read_block_seams_keep_every_column(monkeypatch, block, weighted):
    # the readers join their columns block by block; every block size
    # gives the columns of the one-block read
    g = _seam_graph(weighted)
    links, nodes = io.StringIO(), io.StringIO()
    write_link_file(g, links)
    write_node_file(nodes, g.node_ids, g.node_types)
    monkeypatch.setattr(hgb_io, "_BLOCK", block)
    table = read_link_file(io.StringIO(links.getvalue()))
    assert table.src.tolist() == g.node_ids[g.src].tolist()
    assert table.dst.tolist() == g.node_ids[g.dst].tolist()
    assert table.etype.tolist() == g.etype.tolist()
    assert (table.weight is None) == (not weighted)
    if weighted:
        assert table.weight.tobytes() == g.weight.tobytes()
    node_table = read_node_file(io.StringIO(nodes.getvalue()))
    assert node_table.ids.tolist() == g.node_ids.tolist()
    assert node_table.types.tolist() == g.node_types.tolist()


READ_ONLY_USERS = {
    "write_link_file": lambda g, selected: write_link_file(g, io.StringIO(), selected),
    "TrainView.from_graph": TrainView.from_graph,
}


@pytest.mark.parametrize("use", READ_ONLY_USERS.values(), ids=list(READ_ONLY_USERS))
def test_selection_readers_leave_the_mask_alone(g1, use):
    # they read the caller's mask in place, yet reject what edge_mask rejects
    for selected in (np.array([0, 2]), [True, False, True], np.array([1, 0, 1], dtype=np.uint8)):
        with pytest.raises(ValueError, match="None or a boolean mask"):
            use(g1, selected)
    with pytest.raises(ValueError, match="mask length"):
        use(g1, np.ones(2, dtype=bool))
    mask = np.array([True, False, True])
    mask.flags.writeable = False  # a write raises rather than pass unseen
    use(g1, mask)
    assert mask.tolist() == [True, False, True]


def test_stage_tool_names_every_stage(tmp_path, capsys):
    rows = stage_memory.stages(_scaled(200), tmp_path)
    names = [name for name, _, _ in rows]
    assert names == [
        "write_link_file, whole graph", "write_node_file",
        "write_link_file, weighted whole graph", "read_link_file",
        "read_node_file", "build_graph_arrays, file order", "build_graph_arrays, shuffled",
        "first sparsify, per-type k=3", "first sparsify, all-types k=3",
        "write_link_file, per-type k=3", "HeteroGraph.edge_ids, per-type k=3"]
    for name, peak, kept in rows:
        assert peak >= kept >= 0, name
    stage_memory.report("a spec", rows)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a spec; tracemalloc MiB"
    assert lines[1].split() == ["peak", "kept", "stage"]
    assert [line[17:] for line in lines[2:]] == names
