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

from hgsparse import ADAMIC_ADAR, COMMON_NEIGHBORS, SCORERS, TrainView, build_graph, score_pairs
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
