"""Shared fixtures: small hand-built graphs, a seeded random-graph factory,
dict-built buckets, dense-id and neighbor lookups, edge records, the id
field rule of the reference readers, masks of edge identities, and
identity-keyed views of edge ids and negatives."""

from typing import NamedTuple

import numpy as np
import pytest

from hgsparse import HeteroGraph, TrainView, build_graph, build_graph_arrays
from hgsparse.evalproxy import _negative_matrix


class EdgeRecord(NamedTuple):
    """One link-file record; ``build_graph`` takes these like plain tuples."""

    src: int
    dst: int
    etype: int
    weight: float | None = None


def parse_id(field: str, what: str, line_no: int, error) -> int:
    """An id or type field of a link or node file, as the reference readers read it.

    The field must be ASCII digits (``field.isascii() and
    field.isdigit()``), so ``" 1"``, ``"+2"``, ``"1_0"`` and non-ASCII
    digits are malformed, and its value must lie in [0, 2**63).  Leading
    zeros are dropped before ``int`` sees the digits, and a value of more
    than 19 digits is out of range before it does, so ids longer than
    Python's 4300-digit limit are read, or refused, like any other.
    Raises ``error(line_no, message)``.
    """
    if not (field.isascii() and field.isdigit()):
        raise error(line_no, f"invalid integer {field!r} for {what}")
    digits = field.lstrip("0") or "0"
    if len(digits) > 19 or int(digits) >= 2**63:  # stored as int64
        raise error(line_no, f"{what} {digits} is outside [0, 2**63)")
    return int(digits)


# Three-edge example used throughout: gene 1 links diseases 2, 3 via
# etype 0 and chemical 4 via etype 1.
G1_EDGES = [(1, 2, 0), (1, 3, 0), (1, 4, 1)]
G1_TYPES = {1: 0, 2: 1, 3: 1, 4: 2}


@pytest.fixture
def g1() -> HeteroGraph:
    return build_graph(G1_EDGES, node_types=G1_TYPES)


@pytest.fixture
def k33() -> HeteroGraph:
    # Complete bipartite 3x3, single edge type.
    edges = [(u, v, 0) for u in (1, 2, 3) for v in (4, 5, 6)]
    types = {u: 0 for u in (1, 2, 3)} | {v: 1 for v in (4, 5, 6)}
    return build_graph(edges, node_types=types)


def make_random_graph(seed: int, max_n: int = 200, max_t: int = 8,
                      max_m: int = 5000) -> HeteroGraph:
    """Log-uniform sizes so the suite mixes tiny and large instances."""
    rng = np.random.default_rng(seed)
    n = int(np.exp(rng.uniform(np.log(2), np.log(max_n + 1))))
    m = int(np.exp(rng.uniform(0.0, np.log(max_m + 1))))
    t = int(rng.integers(1, max_t + 1))
    node_type_count = int(rng.integers(1, 4))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    etype = rng.integers(0, t, size=m)
    node_types = rng.integers(0, node_type_count, size=n)
    return build_graph_arrays(src, dst, etype,
                              node_ids=np.arange(n), node_types=node_types)


@pytest.fixture
def random_graph():
    return make_random_graph


def covered_hub(size: int, k: int) -> HeteroGraph:
    """A hub whose out-edges no bucket but the hub's own can keep.

    Hub 0 links leaves 1..size under etype 0; these are edges 0..size-1.
    Each leaf's in-bucket also holds k edges from nodes of degree one,
    which the sweep keeps first.  With k < size - 1 every leaf comes
    before the hub, so the hub's bucket is the sweep's only choice.
    """
    edges = [(0, v, 0) for v in range(1, size + 1)]
    edges += [(1000 + 10 * v + j, v, 0) for v in range(1, size + 1) for j in range(k)]
    return build_graph(edges)


def dict_buckets(g: HeteroGraph) -> dict:
    """Every nonempty bucket of g, grouped with plain dicts from the edge table.

    Maps (direction, original node id) to {etype: edge ids}, the ids
    ascending.  It reads only ``g.src``, ``g.dst`` and ``g.etype``, so it
    stays independent of the graph's bucket layout.
    """
    buckets: dict = {}
    for e, (s, d, t) in enumerate(zip(g.node_ids[g.src].tolist(),
                                      g.node_ids[g.dst].tolist(), g.etype.tolist())):
        buckets.setdefault(("out", s), {}).setdefault(t, []).append(e)
        buckets.setdefault(("in", d), {}).setdefault(t, []).append(e)
    return buckets


def dense_id(g: HeteroGraph, u) -> int:
    """Dense index of original node id u."""
    return int(g.dense_ids([u])[0])


def neighbors(view: TrainView, u) -> np.ndarray:
    """Dense neighbor ids of original node u in a train view, ascending."""
    ud = dense_id(view.graph, u)
    return view.nbrs[view.ptr[ud]:view.ptr[ud + 1]].copy()


def mask_of(g: HeteroGraph, triples) -> np.ndarray:
    """The edge mask of g that selects the given (src, dst, etype) identities."""
    triples = np.array([tuple(x[:3]) for x in triples], dtype=np.int64).reshape(-1, 3)
    mask = np.zeros(g.m, dtype=bool)
    mask[g.edge_ids(*triples.T)] = True
    return mask


def edge_keys(g: HeteroGraph, edge_ids) -> list[tuple[int, int, int]]:
    """The (src, dst, etype) identity of each edge id, in original ids."""
    return [g.edge_key(int(e)) for e in np.asarray(edge_ids, dtype=np.int64)]


def sample_negatives(g: HeteroGraph, test_pos, per_pos: int,
                     seed: int = 0) -> dict[tuple[int, int, int], list[tuple[int, int, int]]]:
    """Map each positive identity to its per_pos corrupted identities.

    The dict form of the negative matrix that ``evaluate`` draws.
    """
    pos_ids = np.flatnonzero(mask_of(g, test_pos))
    matrix = g.node_ids[_negative_matrix(g, pos_ids, per_pos, seed)].tolist()
    return {(s, d, t): [(s, w, t) for w in row]
            for (s, d, t), row in zip(edge_keys(g, pos_ids), matrix)}
