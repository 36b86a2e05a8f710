"""Holdout split, typed negatives, neighborhood scorers, and rank metrics."""

import hashlib
import math
import re

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgsparse import (
    ADAMIC_ADAR,
    ALL_TYPES,
    COMMON_NEIGHBORS,
    DegenerateSplitError,
    EdgeTypeSpec,
    GenSpec,
    HeteroGraph,
    NegativeSamplingError,
    SparsifyParams,
    TrainView,
    auc,
    build_graph,
    build_graph_arrays,
    candidate_ranks,
    evaluate,
    generate,
    mrr,
    score_pairs,
    sparsify,
    split_edges,
)
from hgsparse._rng import NEGATIVE_TAG, SPLIT_TAG, counter_words, randbelow_array
from hgsparse import evalproxy
from hgsparse.evalproxy import _negative_matrix

from conftest import dense_id, mask_of, neighbors, sample_negatives


def score_pair(view: TrainView, u: int, v: int, scorer: str) -> float:
    """Score one (u, v) pair given with original node ids."""
    ud, vd = view.graph.dense_ids([u, v])
    return float(score_pairs(view, [ud], [vd], scorer)[0])


@pytest.fixture
def chain10():
    return build_graph([(i, i + 1, 0) for i in range(10)])


def test_split_sizes(chain10):
    test = split_edges(chain10, 0.2, seed=4)
    assert test.dtype == np.bool_ and test.shape == (chain10.m,)
    assert int(test.sum()) == 2
    assert int((~test).sum()) == 8


def test_split_partitions_edges(chain10):
    test = split_edges(chain10, 0.3, seed=1)
    train_ids, test_ids = np.flatnonzero(~test).tolist(), np.flatnonzero(test).tolist()
    assert sorted(train_ids + test_ids) == list(range(10))
    # the test edges are the 3 with the smallest words of the split stream
    words = counter_words(1, SPLIT_TAG, np.arange(10))
    assert test_ids == sorted(np.argsort(words)[:3].tolist())


def test_split_deterministic(chain10):
    a = split_edges(chain10, 0.2, seed=9)
    b = split_edges(chain10, 0.2, seed=9)
    assert np.array_equal(a, b)
    c = split_edges(chain10, 0.2, seed=10)
    assert not np.array_equal(a, c)


def test_split_rounds_half_up(chain10):
    # 0.25 of 10 edges -> 2.5 -> 3 test positives
    assert int(split_edges(chain10, 0.25, seed=0).sum()) == 3


def test_split_of_two_edges():
    # the smallest graph that splits, one edge to each side
    test = split_edges(build_graph([(1, 2, 0), (2, 3, 0)]), 0.5, seed=0)
    assert test.tolist() in ([True, False], [False, True])


def test_split_guards(chain10):
    with pytest.raises(ValueError):
        split_edges(chain10, 0.0)
    with pytest.raises(ValueError):
        split_edges(chain10, 1.0)
    with pytest.raises(DegenerateSplitError):
        split_edges(chain10, 0.999)
    with pytest.raises(DegenerateSplitError):
        split_edges(build_graph([(1, 2, 0)]), 0.5)


@pytest.mark.parametrize("seed", [2**64, -1, 1.5])
def test_seed_outside_the_stream_range_raises(chain10, seed):
    # a seed outside [0, 2**64) is refused, not wrapped modulo 2**64
    message = re.escape(f"seed must be in [0, 2**64), got {seed!r}")
    with pytest.raises(ValueError, match=message):
        split_edges(chain10, 0.2, seed=seed)
    for k in (None, 1):
        with pytest.raises(ValueError, match=message):
            evaluate(chain10, seed=seed, negatives_per_positive=1, k=k)


def test_negative_exhaustion(g1):
    # type population of node 2 is {2, 3}; both already linked from 1
    with pytest.raises(NegativeSamplingError):
        sample_negatives(g1, [(1, 2, 0)], 1, seed=0)


def test_negatives_respect_type_and_membership():
    edges = [(0, 10, 0)]
    types = {0: 0} | {u: 1 for u in range(10, 16)} | {20: 2}
    g = build_graph(edges, node_types=types)
    negs = sample_negatives(g, [(0, 10, 0)], 5, seed=3)
    assert set(negs) == {(0, 10, 0)}
    drawn = negs[(0, 10, 0)]
    assert len(drawn) == 5
    for s, w, t in drawn:
        assert s == 0 and t == 0
        assert w in range(11, 16)  # same type as 10, never a neighbor


def test_negatives_may_reuse_a_pair_linked_by_another_etype():
    # (0, 11) is linked only by etype 1, so (0, 11, 0) is a valid negative
    edges = [(0, 10, 0), (0, 11, 1)]
    types = {0: 0, 10: 1, 11: 1, 12: 1}
    g = build_graph(edges, node_types=types)
    drawn = sample_negatives(g, [(0, 10, 0)], 200, seed=1)[(0, 10, 0)]
    assert {w for _, w, _ in drawn} == {11, 12}


def test_negatives_with_sparse_node_type_values():
    # type values are ids below 2**63, not a dense range to count over
    edges = [(0, 10, 0)]
    types = {0: 2**40} | {u: 2**62 for u in range(10, 16)} | {20: 7}
    g = build_graph(edges, node_types=types)
    drawn = sample_negatives(g, [(0, 10, 0)], 5, seed=3)[(0, 10, 0)]
    assert {w for _, w, _ in drawn} <= set(range(11, 16))


def test_negatives_deterministic():
    edges = [(0, 10, 0), (1, 11, 0)]
    types = {0: 0, 1: 0} | {u: 1 for u in range(10, 18)}
    g = build_graph(edges, node_types=types)
    pos = [(0, 10, 0), (1, 11, 0)]
    a = sample_negatives(g, pos, 4, seed=7)
    b = sample_negatives(g, pos, 4, seed=7)
    assert a == b
    assert set(a) == set(pos)


def test_negatives_may_repeat():
    # single valid corruption target, so 3 draws must all hit it
    edges = [(0, 1, 0)]
    types = {0: 0, 1: 1, 2: 1}
    g = build_graph(edges, node_types=types)
    negs = sample_negatives(g, [(0, 1, 0)], 3, seed=0)
    assert negs[(0, 1, 0)] == [(0, 2, 0), (0, 2, 0), (0, 2, 0)]


def test_negative_exhaustion_names_lowest_failing_positive():
    # (0, 10, 0) can still corrupt to 11; every later positive has no valid
    # destination, and (0, 20, 1) has the lowest edge id among them
    edges = [(0, 10, 0), (0, 20, 1), (1, 10, 0), (1, 11, 0)]
    types = {0: 0, 1: 0, 10: 1, 11: 1, 20: 2}
    g = build_graph(edges, node_types=types)
    with pytest.raises(NegativeSamplingError, match=r"positive \(0, 20, 1\) "):
        sample_negatives(g, edges, 3, seed=0)
    with pytest.raises(NegativeSamplingError, match=r"positive \(1, 10, 0\) "):
        sample_negatives(g, edges[2:], 3, seed=0)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_negative_matrix_independent_of_chunk(monkeypatch, chunk):
    # destination 399 or 400 for (0, 1, 0), its only free ones;
    # (2, 3, 0) and (2, 4, 0) have no valid destination at all
    edges = [(0, w, 0) for w in range(1, 399)] + [(2, 3, 0), (2, 4, 0)]
    types = {0: 0, 2: 0} | {w: 1 for w in range(1, 401)} | {3: 2, 4: 2}
    g = build_graph(edges, node_types=types)
    pos = np.array([0, 1, 200, 397])
    want = _negative_matrix(g, pos, 9, seed=4)
    monkeypatch.setattr(evalproxy, "_NEG_CHUNK", chunk)
    assert np.array_equal(_negative_matrix(g, pos, 9, seed=4), want)
    with pytest.raises(NegativeSamplingError, match=r"positive \(2, 3, 0\) "):
        _negative_matrix(g, np.array([0, g.m - 2, g.m - 1]), 9, seed=4)


def test_negative_matrix_needs_a_negative_per_positive():
    g = build_graph([(0, 1, 0), (0, 2, 0)])
    with pytest.raises(ValueError) as err:
        _negative_matrix(g, np.array([0]), 0, seed=0)
    assert str(err.value) == "per_pos must be >= 1, got 0"


def test_negatives_uniform_on_sparse_neighbourhood():
    # 5 free destinations among 10; each of 10k seeds draws one negative
    edges = [(0, w, 0) for w in range(10, 15)]
    types = {0: 0} | {w: 1 for w in range(10, 20)}
    g = build_graph(edges, node_types=types)
    pos = np.array([0])
    draws = [int(_negative_matrix(g, pos, 1, seed)[0, 0]) for seed in range(10_000)]
    counts = np.bincount(draws, minlength=g.n)[g.dense_ids(range(15, 20))]
    assert counts.sum() == 10_000
    assert np.all(np.abs(counts / 10_000 - 0.2) <= 0.02), counts


def test_negatives_uniform_on_dense_neighbourhood():
    # 398 of 400 destinations are linked, so each draw has two to choose from
    edges = [(0, w, 0) for w in range(1, 399)]
    types = {0: 0} | {w: 1 for w in range(1, 401)}
    g = build_graph(edges, node_types=types)
    draws = _negative_matrix(g, np.array([0]), 10_000, seed=17).ravel()
    counts = np.bincount(draws, minlength=g.n)[g.dense_ids([399, 400])]
    assert counts.sum() == draws.size
    assert np.all(np.abs(counts / draws.size - 0.5) <= 0.02), counts


def reference_negatives(g, pos_ids, per_pos: int, seed: int) -> np.ndarray:
    """Per-row scan: entry e = i * per_pos + j is free destination r of
    row i, in ascending dense id, with r drawn from counter e of the
    ``(seed, NEGATIVE_TAG)`` stream."""
    edges = set(zip(g.src.tolist(), g.dst.tolist(), g.etype.tolist()))
    out = np.empty((len(pos_ids), per_pos), dtype=np.int64)
    for i, e in enumerate(pos_ids):
        u, v, t = int(g.src[e]), int(g.dst[e]), int(g.etype[e])
        free = [w for w in range(g.n)
                if g.node_types[w] == g.node_types[v] and (u, w, t) not in edges]
        if not free:
            raise NegativeSamplingError(
                f"positive {g.edge_key(e)} has no type-compatible non-edge destination")
        entry = np.arange(i * per_pos, (i + 1) * per_pos)
        r = randbelow_array(counter_words(seed, NEGATIVE_TAG, entry), len(free))
        out[i] = np.array(free)[r]
    return out


_TYPE_VALUES = (0, 3, 2**40, 2**62)


@st.composite
def negative_cases(draw):
    """A small typed graph and positives among its edges.

    Any etype links any node types, so a bucket's destinations span
    several populations, and on so few nodes self-loops, positives that
    share a bucket and repeated positives are common.  One source is
    linked under one etype to every node of one population but one, or
    to all of them, and up to two of those edges join the positives.
    """
    n = draw(st.integers(1, 14))
    types = draw(st.lists(st.sampled_from(_TYPE_VALUES), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 2)), min_size=1, max_size=24))
    u, t, v = draw(node), draw(st.integers(0, 2)), draw(node)
    pop = [w for w in range(n) if types[w] == types[v]]
    spare = draw(st.integers(0, len(pop)))  # len(pop) spares none
    fan = [(u, w, t) for i, w in enumerate(pop) if i != spare]
    src, dst, etype = np.array(edges + fan).T
    g = build_graph_arrays(src, dst, etype, node_ids=np.arange(n), node_types=types)
    pos = draw(st.lists(st.integers(0, g.m - 1), min_size=1, max_size=8))
    if fan:
        fan_ids = g.edge_ids(*np.array(fan).T).tolist()
        pos += draw(st.lists(st.sampled_from(fan_ids), max_size=2))
    return g, np.array(pos, dtype=np.int64)


def _one_free_slot_case():
    # bucket (0, etype 0) reaches types 2**40 and 2**62, holds a self-loop
    # and leaves one free slot in each population, as does bucket (5, 0)
    types = [2**40, 2**62, 2**62, 2**62, 2**40, 5]
    edges = [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 1), (5, 4, 0)]
    g = build_graph_arrays(*np.array(edges).T, node_ids=np.arange(6), node_types=types)
    return g, np.arange(g.m)


@given(negative_cases(), st.integers(1, 5), st.integers(0, 2**64 - 1))
@example(_one_free_slot_case(), 4, 0)
@settings(max_examples=400, deadline=None)
def test_negative_matrix_matches_per_row_scan(case, per_pos, seed):
    g, pos = case
    try:
        want = reference_negatives(g, pos, per_pos, seed)
    except NegativeSamplingError as exc:
        with pytest.raises(NegativeSamplingError, match=f"^{re.escape(str(exc))}$"):
            _negative_matrix(g, pos, per_pos, seed)
        return
    assert _negative_matrix(g, pos, per_pos, seed).tolist() == want.tolist()


def test_common_neighbors_path():
    g = build_graph([(1, 2, 0), (2, 3, 0)])
    view = TrainView.from_graph(g)
    assert score_pair(view, 1, 3, COMMON_NEIGHBORS) == 1.0
    assert score_pair(view, 1, 2, COMMON_NEIGHBORS) == 0.0


def test_view_is_undirected_and_type_agnostic():
    # parallel edges over two etypes and both directions still give one
    # shared neighbor
    g = build_graph([(1, 2, 0), (2, 1, 1), (3, 2, 0)])
    view = TrainView.from_graph(g)
    assert list(neighbors(view, 2)) == [dense_id(g, 1), dense_id(g, 3)]
    assert score_pair(view, 1, 3, COMMON_NEIGHBORS) == 1.0


def test_adamic_adar_weights_by_hub_degree():
    edges = [(1, 9, 0), (2, 9, 0), (3, 9, 0), (4, 9, 0)]
    g = build_graph(edges)
    view = TrainView.from_graph(g)
    # hub 9 has degree 4, so each co-pair scores 1/log 4
    assert score_pair(view, 1, 2, ADAMIC_ADAR) == pytest.approx(1 / math.log(4))
    # degree-1 members of the intersection are skipped: the self-pair
    # (9, 9) sees only leaf neighbors and scores zero
    assert score_pair(view, 9, 9, ADAMIC_ADAR) == 0.0
    assert score_pair(view, 1, 1, ADAMIC_ADAR) == pytest.approx(1 / math.log(4))


def test_view_respects_selection(g1):
    view = TrainView.from_graph(g1, selected=mask_of(g1, [(1, 2, 0)]))
    assert list(neighbors(view, 3)) == []
    assert list(neighbors(view, 1)) == [dense_id(g1, 2)]
    assert score_pair(view, 1, 2, COMMON_NEIGHBORS) == 0.0


def test_auc_examples():
    assert auc([1, 1], [0, 0]) == 1.0
    assert auc([0.5], [0.5]) == 0.5
    assert auc([0.9, 0.4], [0.6, 0.1]) == 0.75
    assert auc([0, 0], [1, 1]) == 0.0


def test_auc_empty_inputs():
    with pytest.raises(ValueError):
        auc([], [1.0])
    with pytest.raises(ValueError):
        auc([1.0], [])


def test_auc_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        pos = rng.integers(0, 6, size=rng.integers(1, 40)).astype(float)
        neg = rng.integers(0, 6, size=rng.integers(1, 40)).astype(float)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc(pos, neg) == wins / (len(pos) * len(neg))


def test_random_scores_sit_at_half():
    rng = np.random.default_rng(42)
    value = auc(rng.random(2000), rng.random(2000))
    assert abs(value - 0.5) < 0.05


def test_candidate_ranks_tie_rule():
    ranks = candidate_ranks([1.0, 1.0, 1.0],
                            np.array([[0.5], [1.0], [2.0]]))
    assert list(ranks) == [1.0, 1.5, 2.0]


def test_candidate_ranks_need_one_negative_row_per_positive():
    for neg in (np.array([0.5, 1.0]), np.zeros((3, 2))):
        with pytest.raises(ValueError) as err:
            candidate_ranks([1.0, 2.0], neg)
        assert str(err.value) == "neg_score_matrix must be (len(pos_scores), per_pos)"


def test_nan_scores_and_ranks_rejected():
    nan = float("nan")
    for pos, neg in (([nan], [nan]), ([nan], [0.5]), ([0.5], [1.0, nan])):
        with pytest.raises(ValueError, match="NaN"):
            auc(pos, neg)
    for pos, neg in (([nan], [[1.0]]), ([1.0, 0.0], [[0.0], [nan]])):
        with pytest.raises(ValueError, match="NaN"):
            candidate_ranks(pos, np.array(neg))
    with pytest.raises(ValueError, match="NaN"):
        mrr([1.0, nan])
    # infinities still rank
    assert auc([math.inf], [-math.inf, math.inf]) == 0.75
    assert list(candidate_ranks([math.inf], np.array([[math.inf]]))) == [1.5]


def test_mrr_examples():
    assert mrr([1, 1, 1]) == 1.0
    assert mrr([1, 2]) == 0.75
    assert mrr([1.5]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        mrr([0.5])


@pytest.fixture(scope="module")
def proxy_graph():
    spec = GenSpec((60, 50), (EdgeTypeSpec(0, 1, 300, 0.8),
                              EdgeTypeSpec(1, 0, 250, 0.8)), seed=2)
    return generate(spec)


def test_evaluate_report_shape(proxy_graph):
    report = evaluate(proxy_graph, holdout=0.2, seed=1,
                      negatives_per_positive=5)
    assert report.positives == 110
    assert report.negatives_per_positive == 5
    assert report.scorer == COMMON_NEIGHBORS
    assert 0.0 <= report.auc <= 1.0
    assert 0.0 < report.mrr <= 1.0
    assert set(report.to_dict()) == {"auc", "mrr", "negatives_per_positive",
                                     "scorer", "positives"}


def test_evaluate_deterministic(proxy_graph):
    a = evaluate(proxy_graph, seed=3, negatives_per_positive=3)
    b = evaluate(proxy_graph, seed=3, negatives_per_positive=3)
    assert a == b


def test_saturating_sparsifier_changes_nothing(proxy_graph):
    k_sat = proxy_graph.stats().max_bucket
    full = evaluate(proxy_graph, seed=5, negatives_per_positive=7)
    sat = evaluate(proxy_graph, seed=5, negatives_per_positive=7, k=k_sat)
    assert full == sat


def test_evaluate_with_all_types_sparsifier(proxy_graph):
    report = evaluate(proxy_graph, seed=5, negatives_per_positive=3, k=2, method=ALL_TYPES)
    assert 0.0 <= report.auc <= 1.0


def test_evaluate_adamic_adar(proxy_graph):
    report = evaluate(proxy_graph, seed=2, scorer=ADAMIC_ADAR,
                      negatives_per_positive=3)
    assert report.scorer == ADAMIC_ADAR
    assert 0.0 <= report.auc <= 1.0


# ---- golden pins on the acceptance gate's 20k-edge graph ----
#
# Exact AUC/MRR floats of evaluate() and sha256 digests of the positive
# and negative score vectors it ranks (eval seed 0, holdout 0.2, 19
# negatives; evaluate draws its negatives and sparsifies at k=3 under
# that same seed).
# A change of any of these values must be deliberate and recorded.

GOLDEN_EVAL = {
    (COMMON_NEIGHBORS, None): (
        0.5696096759868421, 0.2395450593268538,
        "ad70b247eba466bc4ed2ec89c8b97e48aa557ad66d632cc86c4dd7a79579b8f0",
        "cb1d9417e93ac7f8de35bef73805cb8677a197542897320b20884094d425c6a5"),
    (COMMON_NEIGHBORS, 3): (
        0.5104468569078947, 0.13432692793224071,
        "3ce73c73c4ae4182d565901694f544169567faffbb338cfceee865f1843b1a6d",
        "65be29494109b5a0f5fe6c8af86ee3c10b47b0220ca806338f0ea4c2aa41c876"),
    (ADAMIC_ADAR, None): (
        0.5702525657894737, 0.24847832490449287,
        "38cdb54b0eb549f01af6e087cebcd0f32a1b74c56faf71a9f986ee45a351f303",
        "ef436a3bfac8900918807cb1d249179a215b4d14b18f6e7dee517321a9906b53"),
    (ADAMIC_ADAR, 3): (
        0.5107021151315789, 0.1393760427063555,
        "47d253cdc06e7780e1301d6b1666197e3e6f85c74ac80101600c31732fad5b90",
        "ad15d45c274f8708a4673b64619ac3e9a4fd44caa66cbe1457cd5de233beb8b4"),
}

# sha256 of the int64 dense-id negative matrix evaluate() draws above
GOLDEN_NEGATIVES = "1d283cd1a85f3e1fd448109701c1b28a8872d160ed5ed01e251cbb350227898e"


@pytest.fixture(scope="module")
def gate_graph():
    sizes = (700, 600, 500, 200)
    mix = ((0, 1, 6000), (1, 0, 5000), (0, 2, 4000), (2, 1, 5000))
    return generate(GenSpec(sizes, tuple(EdgeTypeSpec(s, d, c, 0.6) for s, d, c in mix),
                            seed=1000))


@pytest.mark.parametrize("k", [None, 2])
def test_evaluate_scores_once_on_one_graph(gate_graph, monkeypatch, k):
    # the train side is a selection of g; only the sweep gets a subgraph
    calls = []

    def counted(name, function):
        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return call

    for owner, name in ((evalproxy, "score_pairs"), (HeteroGraph, "subgraph")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    evaluate(gate_graph, 0.2, seed=0, k=k)
    assert calls == (["score_pairs"] if k is None else ["subgraph", "score_pairs"])


def _sha(scores):
    return hashlib.sha256(np.ascontiguousarray(scores, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("scorer,k", sorted(GOLDEN_EVAL, key=str))
def test_evaluate_golden(gate_graph, scorer, k):
    g = gate_graph
    report = evaluate(g, 0.2, seed=0, scorer=scorer, negatives_per_positive=19, k=k)
    want_auc, want_mrr, want_pos, want_neg = GOLDEN_EVAL[(scorer, k)]
    assert report.auc == want_auc
    assert report.mrr == want_mrr
    # the same pipeline, step by step, to reach the score vectors
    test = split_edges(g, 0.2, 0)
    pos_ids = np.flatnonzero(test)
    neg = _negative_matrix(g, pos_ids, 19, 0)
    train = ~test
    if k is not None:
        params = SparsifyParams(k=k, seed=0)
        train[train] = sparsify(g.subgraph(train), params).mask
    view = TrainView.from_graph(g, train)
    pos_u = g.src[pos_ids]
    pos_scores = score_pairs(view, pos_u, g.dst[pos_ids], scorer)
    neg_scores = score_pairs(view, np.repeat(pos_u, 19), neg.ravel(), scorer)
    assert auc(pos_scores, neg_scores) == report.auc
    assert _sha(pos_scores) == want_pos
    assert _sha(neg_scores) == want_neg


def test_negative_matrix_golden(gate_graph):
    g = gate_graph
    pos_ids = np.flatnonzero(split_edges(g, 0.2, 0))
    neg = _negative_matrix(g, pos_ids, 19, 0)
    assert neg.shape == (4000, 19)
    assert hashlib.sha256(neg.astype(np.int64).tobytes()).hexdigest() == GOLDEN_NEGATIVES
    # every draw keeps the positive's dst type and is not an edge of g
    edges = set(zip(g.src.tolist(), g.dst.tolist(), g.etype.tolist()))
    rows = np.repeat(pos_ids, 19)
    assert np.array_equal(g.node_types[neg.ravel()], g.node_types[g.dst[rows]])
    assert not any((u, w, t) in edges for u, w, t in zip(
        g.src[rows].tolist(), neg.ravel().tolist(), g.etype[rows].tolist()))
