"""Holdout split, typed negatives, neighborhood scorers, and rank metrics."""

import hashlib
import math

import numpy as np
import pytest

from hgsparse import (
    ADAMIC_ADAR,
    ALL_TYPES,
    COMMON_NEIGHBORS,
    DegenerateSplitError,
    EdgeTypeSpec,
    GenSpec,
    NegativeSamplingError,
    SparsifyParams,
    TrainView,
    auc,
    build_graph,
    candidate_ranks,
    evaluate,
    generate,
    mrr,
    sample_negatives,
    score_pair,
    score_pairs,
    sparsify,
    split_edges,
    substream_seed,
)
from hgsparse._rng import counter_words
from hgsparse import evalproxy
from hgsparse.evalproxy import _NEG_ATTEMPT_CAP, _negative_matrix


@pytest.fixture
def chain10():
    return build_graph([(i, i + 1, 0) for i in range(10)])


def test_split_sizes(chain10):
    split = split_edges(chain10, 0.2, seed=4)
    assert len(split.test_pos_ids) == 2
    assert len(split.train_ids) == 8


def test_split_partitions_edges(chain10):
    split = split_edges(chain10, 0.3, seed=1)
    train, test = set(split.train_ids.tolist()), set(split.test_pos_ids.tolist())
    assert train | test == set(range(10))
    assert train & test == set()
    assert list(split.train_ids) == sorted(train)
    assert list(split.test_pos_ids) == sorted(test)


def test_split_deterministic(chain10):
    a = split_edges(chain10, 0.2, seed=9)
    b = split_edges(chain10, 0.2, seed=9)
    assert np.array_equal(a.test_pos_ids, b.test_pos_ids)
    c = split_edges(chain10, 0.2, seed=10)
    assert not np.array_equal(a.test_pos_ids, c.test_pos_ids)


def test_split_rounds_half_up(chain10):
    # 0.25 of 10 edges -> 2.5 -> 3 test positives
    assert len(split_edges(chain10, 0.25, seed=0).test_pos_ids) == 3


def test_split_guards(chain10):
    with pytest.raises(ValueError):
        split_edges(chain10, 0.0)
    with pytest.raises(ValueError):
        split_edges(chain10, 1.0)
    with pytest.raises(DegenerateSplitError):
        split_edges(chain10, 0.999)
    with pytest.raises(DegenerateSplitError):
        split_edges(build_graph([(1, 2, 0)]), 0.5)


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
    # destination 399 or 400 for (0, 1, 0), mostly via the exact scan;
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


def test_negatives_uniform_on_rejection_path():
    # 5 valid destinations among 10; each of 10k seeds draws one negative
    edges = [(0, w, 0) for w in range(10, 15)]
    types = {0: 0} | {w: 1 for w in range(10, 20)}
    g = build_graph(edges, node_types=types)
    pos = np.array([0])
    draws = [int(_negative_matrix(g, pos, 1, seed)[0, 0]) for seed in range(10_000)]
    freqs = np.bincount(draws, minlength=g.n)[g.dense_ids(range(15, 20))] / 10_000
    assert freqs.sum() == 1.0
    assert np.all(np.abs(freqs - 0.2) <= 0.02), freqs


def test_negatives_uniform_on_exact_scan_fallback(monkeypatch):
    # 398 of 400 destinations are linked, so most draws exhaust the
    # rejection cap ((398/400)**64 ~ 0.73) and come from the exact scan
    edges = [(0, w, 0) for w in range(1, 399)]
    types = {0: 0} | {w: 1 for w in range(1, 401)}
    g = build_graph(edges, node_types=types)
    attempts = []

    def spy(seed, tag, counters):
        attempts.extend((np.asarray(counters) % (_NEG_ATTEMPT_CAP + 1)).tolist())
        return counter_words(seed, tag, counters)

    monkeypatch.setattr(evalproxy, "counter_words", spy)
    draws = _negative_matrix(g, np.array([0]), 10_000, seed=17).ravel()
    assert attempts.count(_NEG_ATTEMPT_CAP) > 5_000  # fallback draws
    freqs = np.bincount(draws, minlength=g.n)[g.dense_ids([399, 400])] / draws.size
    assert freqs.sum() == 1.0
    assert np.all(np.abs(freqs - 0.5) <= 0.02), freqs


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
    assert list(view.neighbors(2)) == [g.dense_id(1), g.dense_id(3)]
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
    view = TrainView.from_graph(g1, selected=[(1, 2, 0)])
    assert list(view.neighbors(3)) == []
    assert list(view.neighbors(1)) == [g1.dense_id(2)]
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
    sat = evaluate(proxy_graph, seed=5, negatives_per_positive=7,
                   sparsify_params=SparsifyParams(k=k_sat, seed=99))
    assert full == sat


def test_evaluate_with_all_types_sparsifier(proxy_graph):
    report = evaluate(proxy_graph, seed=5, negatives_per_positive=3,
                      sparsify_params=SparsifyParams(k=2, method=ALL_TYPES, seed=1))
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
# negatives; the k=3 sparsifier seed is the one `eval --k 3` derives).
# A change of any of these values must be deliberate and recorded.

GOLDEN_EVAL = {
    (COMMON_NEIGHBORS, None): (
        0.5658291282894737, 0.23324266430192214,
        "f11632702237910afcd915435ce218288fdb944b052d07bcfa09549746b28a3e",
        "01821a133a92f5a49634507c469eeab6f93b48ece39d08668b446db9db4ec23e"),
    (COMMON_NEIGHBORS, 3): (
        0.5095595460526315, 0.1324449104660124,
        "409f5240446300389cf5b4ce9e36dc499ad3c1b34a2be365fe8fa0fd8a696860",
        "6d36f6173a72a725eef4c1ab31a058b423ba75c606999c994d067956fea4726a"),
    (ADAMIC_ADAR, None): (
        0.5662123684210526, 0.2428596131092961,
        "f75f414f72a4555eefb04df2efcd2b38c45141ace5e2e095ff70383ce7d632be",
        "b1e29f929b0bfcecd48259f40ac12cb1e47a031d46ec2921e91afb37ff26757d"),
    (ADAMIC_ADAR, 3): (
        0.5097657253289474, 0.13503608318218513,
        "ad88771fda684b237d3ac51321b7bbd0d0f9220e8dd1003d6a67bc0864134503",
        "18086b863384751f16302e809570dd77862de091a427f77d0ad0e936deb2cdf6"),
}

# sha256 of the int64 dense-id negative matrix evaluate() draws above
GOLDEN_NEGATIVES = "d62b3c55b9f4843b54b93ad78a2d32911a009c5cf3bbc87009de6a2d3e48c28e"


@pytest.fixture(scope="module")
def gate_graph():
    sizes = (700, 600, 500, 200)
    mix = ((0, 1, 6000), (1, 0, 5000), (0, 2, 4000), (2, 1, 5000))
    return generate(GenSpec(sizes, tuple(EdgeTypeSpec(s, d, c, 0.6) for s, d, c in mix),
                            seed=1000))


def _sha(scores):
    return hashlib.sha256(np.ascontiguousarray(scores, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("scorer,k", sorted(GOLDEN_EVAL, key=str))
def test_evaluate_golden(gate_graph, scorer, k):
    g = gate_graph
    params = None if k is None else SparsifyParams(k=k, seed=substream_seed(0, 2))
    report = evaluate(g, 0.2, seed=0, scorer=scorer, negatives_per_positive=19,
                      sparsify_params=params)
    want_auc, want_mrr, want_pos, want_neg = GOLDEN_EVAL[(scorer, k)]
    assert report.auc == want_auc
    assert report.mrr == want_mrr
    # the same pipeline, step by step, to reach the score vectors
    split = split_edges(g, 0.2, 0)
    neg = _negative_matrix(g, split.test_pos_ids, 19, substream_seed(0, 1))
    train_mask = np.zeros(g.m, dtype=bool)
    train_mask[split.train_ids] = True
    train_g = g.subgraph(train_mask)
    view = TrainView.from_graph(
        train_g, None if params is None else sparsify(train_g, params).mask)
    pos_u = g.src[split.test_pos_ids]
    pos_scores = score_pairs(view, pos_u, g.dst[split.test_pos_ids], scorer)
    neg_scores = score_pairs(view, np.repeat(pos_u, 19), neg.ravel(), scorer)
    assert auc(pos_scores, neg_scores) == report.auc
    assert _sha(pos_scores) == want_pos
    assert _sha(neg_scores) == want_neg


def test_negative_matrix_golden(gate_graph):
    g = gate_graph
    pos_ids = split_edges(g, 0.2, 0).test_pos_ids
    neg = _negative_matrix(g, pos_ids, 19, substream_seed(0, 1))
    assert neg.shape == (4000, 19)
    assert hashlib.sha256(neg.astype(np.int64).tobytes()).hexdigest() == GOLDEN_NEGATIVES
    # every draw keeps the positive's dst type and is not an edge of g
    edges = set(zip(g.src.tolist(), g.dst.tolist(), g.etype.tolist()))
    rows = np.repeat(pos_ids, 19)
    assert np.array_equal(g.node_types[neg.ravel()], g.node_types[g.dst[rows]])
    assert not any((u, w, t) in edges for u, w, t in zip(
        g.src[rows].tolist(), neg.ravel().tolist(), g.etype[rows].tolist()))
