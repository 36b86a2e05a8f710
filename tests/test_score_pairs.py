"""score_pairs against the sorted-list merge loops it replaced, byte for byte.

The two reference scorers below walk both endpoints' ascending neighbor
rows in step and add each common neighbor's term in ascending order.
The vectorised scorer must return the same float64 bytes, including the
Adamic-Adar sums, on every input.
"""

import functools
import math

import numpy as np
import pytest

from hgsparse import (ADAMIC_ADAR, COMMON_NEIGHBORS, SCORERS, TrainView, build_graph,
                      build_graph_arrays, score_pairs)
from hgsparse import evalproxy

from conftest import dense_id, mask_of

# ptr/nbrs: CSR of the undirected, type-agnostic, deduplicated train
# view; nbrs ascending within each row.


def _common_neighbor_scores(ptr, nbrs, us, vs, out):
    for i in range(us.shape[0]):
        a = ptr[us[i]]
        a_hi = ptr[us[i] + 1]
        b = ptr[vs[i]]
        b_hi = ptr[vs[i] + 1]
        score = 0.0
        while a < a_hi and b < b_hi:
            x = nbrs[a]
            y = nbrs[b]
            if x == y:
                score += 1.0
                a += 1
                b += 1
            elif x < y:
                a += 1
            else:
                b += 1
        out[i] = score


def _adamic_adar_scores(ptr, nbrs, us, vs, out):
    for i in range(us.shape[0]):
        a = ptr[us[i]]
        a_hi = ptr[us[i] + 1]
        b = ptr[vs[i]]
        b_hi = ptr[vs[i] + 1]
        score = 0.0
        while a < a_hi and b < b_hi:
            x = nbrs[a]
            y = nbrs[b]
            if x == y:
                deg = ptr[x + 1] - ptr[x]
                if deg > 1:
                    score += 1.0 / math.log(deg)
                a += 1
                b += 1
            elif x < y:
                a += 1
            else:
                b += 1
        out[i] = score


_REFERENCE = {COMMON_NEIGHBORS: _common_neighbor_scores,
              ADAMIC_ADAR: _adamic_adar_scores}


def _reference(view, us, vs, scorer):
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    out = np.empty(us.shape[0], dtype=np.float64)
    _REFERENCE[scorer](view.ptr, view.nbrs, us, vs, out)
    return out


def _assert_same_bytes(view, us, vs):
    for scorer in SCORERS:
        got = score_pairs(view, us, vs, scorer)
        want = _reference(view, us, vs, scorer)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), scorer


def _pairs(view, rng, count):
    """Random pairs plus every self-pair, so degree-1 neighbors are hit."""
    n = view.graph.n
    us = np.concatenate((rng.integers(0, n, size=count), np.arange(n)))
    vs = np.concatenate((rng.integers(0, n, size=count), np.arange(n)))
    return us, vs


@pytest.mark.parametrize("seed", range(12))
def test_matches_merge_loops_on_random_graphs(random_graph, seed):
    g = random_graph(seed)
    rng = np.random.default_rng(seed)
    # the full train view, a random half of it (more zero-degree nodes),
    # and an empty one
    for keep in (np.ones(g.m, dtype=bool), rng.random(g.m) < 0.5,
                 np.zeros(g.m, dtype=bool)):
        view = TrainView.from_graph(g, keep)
        us, vs = _pairs(view, rng, 400)
        _assert_same_bytes(view, us, vs)


def test_expands_either_side_and_covers_edge_cases():
    # hub 0 with leaves 1..5; 6 and 7 share neighbors 8 (degree 2) and
    # 10 (degree 3); 9 drops out of the view
    edges = [(0, leaf, 0) for leaf in range(1, 6)]
    edges += [(6, 8, 0), (8, 7, 1), (6, 10, 0), (10, 7, 0), (10, 11, 0), (9, 9, 0)]
    g = build_graph(edges)
    view = TrainView.from_graph(g, mask_of(g, [e for e in edges if e != (9, 9, 0)]))
    d = functools.partial(dense_id, g)
    deg = np.diff(view.ptr)
    pairs = [(1, 0), (0, 1),  # lower degree on us, then on vs
             (6, 7), (7, 6),  # equal degrees
             (0, 0), (10, 10),  # self-pairs; 0's leaves have degree 1
             (9, 0), (0, 9), (9, 9)]  # zero-degree endpoint
    us = np.array([d(u) for u, _ in pairs])
    vs = np.array([d(v) for _, v in pairs])
    assert (deg[us] < deg[vs]).any() and (deg[vs] < deg[us]).any()
    assert (deg[us] == deg[vs]).any() and deg[d(9)] == 0
    _assert_same_bytes(view, us, vs)
    aa = score_pairs(view, us, vs, ADAMIC_ADAR)
    assert aa[pairs.index((0, 0))] == 0.0  # every term has weight 0
    assert aa[pairs.index((6, 7))] == 1 / math.log(2) + 1 / math.log(3)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_chunk_boundaries_do_not_change_scores(random_graph, monkeypatch, chunk):
    g = random_graph(7)  # 35 nodes, 1764 edges
    view = TrainView.from_graph(g)
    us, vs = _pairs(view, np.random.default_rng(chunk), 300)
    deg = np.diff(view.ptr)
    assert np.minimum(deg[us], deg[vs]).sum() > 10 * chunk  # several chunks
    monkeypatch.setattr(evalproxy, "_SCORE_CHUNK", chunk)
    _assert_same_bytes(view, us, vs)


def test_no_pairs_and_unknown_scorer(random_graph):
    view = TrainView.from_graph(random_graph(1))
    assert score_pairs(view, [], [], COMMON_NEIGHBORS).shape == (0,)
    with pytest.raises(ValueError):
        score_pairs(view, [0], [0], "jaccard")


def _looked_up(view, us, vs):
    """The endpoint each pair looks its entries up in, for pairs with any entry."""
    deg = np.diff(view.ptr)
    other = np.where(deg[vs] < deg[us], us, vs)
    return other[np.minimum(deg[us], deg[vs]) > 0]


def _uniform_graph(seed, n, m):
    rng = np.random.default_rng(seed)
    return build_graph_arrays(rng.integers(0, n, size=m), rng.integers(0, n, size=m),
                              rng.integers(0, 3, size=m), node_ids=np.arange(n),
                              node_types=np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("seed", range(3))
def test_three_or_more_blocks_of_looked_up_rows(seed):
    g = _uniform_graph(seed, 400, 2400)
    rng = np.random.default_rng(seed)
    view = TrainView.from_graph(g, rng.random(g.m) < 0.8)
    us, vs = _pairs(view, rng, 3000)
    assert np.unique(_looked_up(view, us, vs)).shape[0] > 130  # three blocks of 64
    _assert_same_bytes(view, us, vs)


@pytest.mark.parametrize("chunk", [1, 5, 33])
def test_chunk_ends_inside_a_block(monkeypatch, chunk):
    # hub 0 reaches 1..80; each spoke also links its two successors, so
    # pairs (spoke, hub) share neighbours and looked-up rows fill a block
    edges = [(0, v, 0) for v in range(1, 81)]
    edges += [(v, v % 80 + 1, 1) for v in range(1, 81)]
    edges += [(v, (v + 1) % 80 + 1, 2) for v in range(1, 81)]
    g = build_graph(edges)
    view = TrainView.from_graph(g)
    deg = np.diff(view.ptr)
    hub = dense_id(g, 0)
    spokes = np.array([dense_id(g, v) for v in range(1, 81)])
    rng = np.random.default_rng(chunk)
    us = np.concatenate((spokes, rng.permutation(spokes), spokes[::3]))
    vs = np.concatenate((np.full(80, hub), rng.permutation(spokes), np.full(27, hub)))
    looked_up = _looked_up(view, us, vs)
    assert (looked_up == hub).sum() > 100
    assert deg[spokes].sum() > 10 * chunk  # the hub's pairs span several chunks
    assert np.unique(looked_up).shape[0] > 1  # and share their block
    monkeypatch.setattr(evalproxy, "_SCORE_CHUNK", chunk)
    _assert_same_bytes(view, us, vs)


def test_zero_degree_endpoints_beside_marked_rows():
    g = _uniform_graph(11, 300, 500)
    rng = np.random.default_rng(11)
    keep = rng.random(g.m) < 0.5
    view = TrainView.from_graph(g, keep)
    deg = np.diff(view.ptr)
    empty, full = np.flatnonzero(deg == 0), np.flatnonzero(deg > 0)
    assert empty.shape[0] > 10 and full.shape[0] > 130
    # pairs with a zero-degree endpoint, on either side or both, shuffled
    # among pairs whose looked-up rows fill three blocks
    us = np.concatenate((full, rng.choice(empty, 100), full, rng.choice(empty, 100)))
    vs = np.concatenate((rng.permutation(full), rng.choice(full, 100),
                         rng.choice(empty, full.shape[0]), rng.choice(empty, 100)))
    order = rng.permutation(us.shape[0])
    _assert_same_bytes(view, us[order], vs[order])
    scores = score_pairs(view, us, vs, COMMON_NEIGHBORS)
    assert not scores[(deg[us] == 0) | (deg[vs] == 0)].any()


@pytest.mark.parametrize("us, vs", [
    ([0, 1, 2], [1]),  # numpy would broadcast these
    ([0], [1, 2]),
    ([[0, 1]], [[1, 2]]),  # not 1-d
    ([-1], [0]),  # would wrap to the last node
    ([0], [-5]),
    ([0], [10**6]),
    ([0.5], [1]),  # would truncate to 0
])
def test_rejects_mismatched_or_out_of_range_ids(random_graph, us, vs):
    view = TrainView.from_graph(random_graph(1))
    with pytest.raises(ValueError):
        score_pairs(view, us, vs, COMMON_NEIGHBORS)


def test_rejects_the_first_id_past_the_view(random_graph):
    view = TrainView.from_graph(random_graph(1))
    n = view.graph.n
    assert score_pairs(view, [n - 1], [0], ADAMIC_ADAR).shape == (1,)
    with pytest.raises(ValueError):
        score_pairs(view, [0, n], [0, 0], ADAMIC_ADAR)
