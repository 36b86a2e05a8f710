"""auc and TrainView.from_graph against the constructions they replaced, bit for bit.

The reference ``auc`` ranks all scores with one stable argsort and sums
the positives' tie-averaged ranks; the reference train view orders both
directions of every selected edge with ``lexsort`` and drops repeats.
The library's versions must give the same float and the same arrays on
every input.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import TrainView, auc, build_graph

from conftest import make_random_graph


def _reference_auc(pos_scores, neg_scores) -> float:
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    scores = np.concatenate((pos, neg))
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    starts = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1))
    ends = np.concatenate((starts[1:], [ordered.size]))
    group_ranks = (starts + ends + 1) / 2.0  # average 1-based rank of each tie group
    ranks = np.empty(ordered.size, dtype=np.float64)
    ranks[order] = np.repeat(group_ranks, ends - starts)
    pos_rank_sum = ranks[:pos.size].sum()
    return float((pos_rank_sum - pos.size * (pos.size + 1) / 2.0)
                 / (pos.size * float(neg.size)))


def _reference_view(g, selected=None) -> tuple[np.ndarray, np.ndarray]:
    mask = g.edge_mask(selected)
    a = np.concatenate((g.src[mask], g.dst[mask]))
    b = np.concatenate((g.dst[mask], g.src[mask]))
    order = np.lexsort((b, a))
    a = a[order]
    b = b[order]
    if a.size:
        keep = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        a = a[keep]
        b = b[keep]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(a, minlength=g.n)))).astype(np.int64)
    return ptr, np.ascontiguousarray(b, dtype=np.int64)


INF = math.inf
AUC_CASES = [
    ([1.0], [0.0]),
    ([0.0], [0.0]),
    ([0.0], [1.0]),
    ([2.0] * 5, [2.0] * 7),  # all equal
    ([1.0, 1.0, 2.0, 0.0], [1.0, 0.0, 0.0, 2.0, 1.0]),  # ties across sides
    ([INF, -INF, 0.0], [INF, -INF, -INF, 3.0]),
    ([INF], [INF]),
    ([-INF], [-INF, INF]),
    ([0.5], [0.1, 0.5, 0.9, 0.5]),  # one positive
    ([0.1, 0.5, 0.9, 0.5], [0.5]),  # one negative
    ([-0.0], [0.0]),  # signed zeros tie
]


@pytest.mark.parametrize("pos,neg", AUC_CASES)
def test_auc_matches_rank_sum_on_edge_cases(pos, neg):
    assert auc(pos, neg) == _reference_auc(pos, neg)


@pytest.mark.parametrize("seed", range(4))
def test_auc_matches_rank_sum_on_long_inputs(seed):
    rng = np.random.default_rng(seed)
    p, q = 100_000 - 17 * seed, 100_000 + 31 * seed
    if seed % 2:  # few distinct values, so most scores tie
        pos = rng.integers(0, 50, p).astype(np.float64)
        neg = rng.integers(0, 40, q).astype(np.float64)
    else:
        pos = rng.random(p)
        neg = np.concatenate((rng.random(q - 100), [INF] * 50, [-INF] * 50))
    assert auc(pos, neg) == _reference_auc(pos, neg)
    assert auc(neg, pos) == _reference_auc(neg, pos)


_SCORES = st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.25, 1.0, 1e308, INF])


@given(pos=st.lists(_SCORES, min_size=1, max_size=30),
       neg=st.lists(_SCORES, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_auc_matches_rank_sum(pos, neg):
    assert auc(pos, neg) == _reference_auc(pos, neg)


def _assert_same_view(g, selected):
    view = TrainView.from_graph(g, selected)
    ptr, nbrs = _reference_view(g, selected)
    assert view.ptr.dtype == ptr.dtype and view.nbrs.dtype == nbrs.dtype
    assert np.array_equal(view.ptr, ptr)
    assert np.array_equal(view.nbrs, nbrs)


def test_train_view_matches_lexsort_on_loops_reverse_pairs_and_multi_edges():
    # a self-loop under two etypes, a pair linked both ways, a pair under
    # three etypes, and an isolated node
    edges = [(1, 1, 0), (1, 1, 3), (1, 2, 0), (2, 1, 0), (2, 3, 0), (2, 3, 1),
             (2, 3, 2), (3, 2, 5)]
    g = build_graph(edges, node_types={u: 0 for u in range(5)})
    for selected in (None, np.zeros(g.m, dtype=bool), np.arange(g.m) % 2 == 0,
                     np.arange(g.m) % 2 == 1):
        _assert_same_view(g, selected)


@pytest.mark.parametrize("seed", range(40))
def test_train_view_matches_lexsort(seed):
    # small n makes self-loops, reverse pairs and multi-edges common
    g = make_random_graph(seed, max_n=30 if seed % 2 else 200)
    half = np.random.default_rng(seed).random(g.m) < 0.5
    for selected in (None, half, np.zeros(g.m, dtype=bool)):
        _assert_same_view(g, selected)
