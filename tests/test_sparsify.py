"""Sampler hand-traces, kernel-vs-reference equivalence, and core invariants."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hgsparse import (
    ALL_TYPES,
    PER_TYPE,
    EmptyGraphError,
    RandomStream,
    SparsifyParams,
    build_graph,
    coverage_report,
    generate,
    isolated_nodes,
    pubmed_like_spec,
    sample_without_replacement,
    sparsify,
    sparsify_alt,
    sparsify_graph,
    sparsify_node_direction,
    vertex_order,
)

from conftest import make_random_graph


def test_g1_k1_keeps_everything_per_type(g1):
    for seed in range(25):
        res = sparsify_graph(g1, SparsifyParams(k=1, seed=seed))
        assert res.kept == 3
        assert res.ratio == 1.0


def test_g1_k1_keeps_everything_all_types(g1):
    for seed in range(25):
        res = sparsify_alt(g1, SparsifyParams(k=1, method=ALL_TYPES, seed=seed))
        assert res.kept == 3


def test_node_direction_hand_trace(g1):
    # out-buckets of node 1 with type 0 already covered twice: x >= k skips
    # type 0, and the size-1 type-1 bucket forces (1,4,1) in.
    H = {(1, 2, 0), (1, 3, 0)}
    rng = RandomStream(0)
    before = rng.state
    sparsify_node_direction(g1, 1, "out", H, 1, rng)
    assert H == {(1, 2, 0), (1, 3, 0), (1, 4, 1)}
    assert rng.state == before  # forced moves consume no stream


def test_node_direction_validates_k(g1):
    with pytest.raises(ValueError):
        sparsify_node_direction(g1, 1, "out", set(), 0, RandomStream(0))


def test_k33_bounds_and_coverage(k33):
    for seed in range(60):
        res = sparsify_graph(k33, SparsifyParams(k=1, seed=seed))
        assert 3 <= res.kept <= 6
        assert coverage_report(k33, res.mask, 1) == []
        assert isolated_nodes(k33, res.mask) == set()


def test_sample_without_replacement_examples():
    rng = RandomStream(1)
    assert set(sample_without_replacement(["e1", "e2", "e3"], 3, rng)) == \
        {"e1", "e2", "e3"}
    assert sample_without_replacement(["e1", "e2", "e3"], 0, rng) == []


def test_sample_full_pool_consumes_nothing():
    rng = RandomStream(5)
    before = rng.state
    sample_without_replacement([1, 2, 3, 4], 4, rng)
    sample_without_replacement([], 0, rng)
    assert rng.state == before


def test_sample_count_validation():
    with pytest.raises(ValueError):
        sample_without_replacement([1, 2], 3, RandomStream(0))
    with pytest.raises(ValueError):
        sample_without_replacement([1, 2], -1, RandomStream(0))


@given(seed=st.integers(0, 2**32), count=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_sample_is_subset_and_deterministic(seed, count):
    pool = list(range(6))
    got = sample_without_replacement(pool, count, RandomStream(seed))
    assert len(got) == count
    assert len(set(got)) == count
    assert set(got) <= set(pool)
    assert got == sample_without_replacement(pool, count, RandomStream(seed))


def test_vertex_order_by_degree_then_id():
    g = build_graph([(1, 2, 0), (1, 3, 0), (1, 4, 0), (5, 1, 0)])
    order = [int(g.original_ids(np.array([u]))[0]) for u in vertex_order(g)]
    assert order == [2, 3, 4, 5, 1]


def _reference_per_type(g, k, seed):
    H = set()
    rng = RandomStream(seed)
    for u_dense in vertex_order(g):
        u = int(g.original_ids(np.array([u_dense]))[0])
        sparsify_node_direction(g, u, "out", H, k, rng)
        sparsify_node_direction(g, u, "in", H, k, rng)
    return H


def _reference_all_types(g, k, seed):
    # mirrors the fused kernel: cover every bucket, then top the
    # node-direction up to k from the ascending-id pool
    H = set()
    rng = RandomStream(seed)
    for u_dense in vertex_order(g):
        u = int(g.original_ids(np.array([u_dense]))[0])
        for direction in ("out", "in"):
            buckets = list(g.node_buckets(u, direction))
            for _etype, ids in buckets:
                if not any(int(e) in H for e in ids):
                    H.add(int(ids[rng.randbelow(len(ids))]))
            pool = sorted(int(e) for _etype, ids in buckets for e in ids
                          if int(e) not in H)
            need = k - (sum(len(ids) for _e, ids in buckets) - len(pool))
            if need >= len(pool):
                H.update(pool)
            elif need > 0:
                rng.shuffle_prefix(pool, need)
                H.update(pool[:need])
    return H


@pytest.mark.parametrize("method", [PER_TYPE, ALL_TYPES])
def test_kernel_matches_pure_reference(method):
    for seed in range(12):
        g = make_random_graph(seed, max_n=40, max_t=5, max_m=200)
        for k in (1, 2, 4):
            res = sparsify(g, SparsifyParams(k=k, method=method, seed=seed))
            if method == PER_TYPE:
                expected = _reference_per_type(g, k, seed)
                got = set(res.selected_triples())
                expected = {g.edge_key(g.edge_index(*key)) for key in expected}
            else:
                expected = {g.edge_key(e) for e in _reference_all_types(g, k, seed)}
                got = set(res.selected_triples())
            assert got == expected


suite_params = st.tuples(
    st.integers(0, 2**32),
    st.sampled_from([1, 2, 3, 5, 10]),
    st.sampled_from([PER_TYPE, ALL_TYPES]),
)


@given(params=suite_params)
@settings(max_examples=60, deadline=None)
def test_sparsifier_invariants(params):
    seed, k, method = params
    g = make_random_graph(seed, max_n=60, max_t=6, max_m=400)
    res = sparsify(g, SparsifyParams(k=k, method=method, seed=seed))

    assert res.mask.dtype == bool and res.mask.shape == (g.m,)
    assert res.kept == int(res.mask.sum())
    assert 0.0 < res.ratio <= 1.0

    assert coverage_report(g, res.mask, k, method) == []
    assert isolated_nodes(g, res.mask) == set()

    if method == PER_TYPE:
        assert res.kept <= 2 * k * g.t * g.n
    else:
        assert res.kept <= 2 * max(k, g.t) * g.n

    if g.stats().max_bucket <= k and method == PER_TYPE:
        assert res.ratio == 1.0

    rerun = sparsify(g, SparsifyParams(k=k, method=method, seed=seed))
    assert np.array_equal(res.mask, rerun.mask)


def test_saturating_k_keeps_all(g1):
    res = sparsify_graph(g1, SparsifyParams(k=2, seed=9))
    assert res.ratio == 1.0


def test_mean_ratio_nondecreasing_in_k():
    g = make_random_graph(77, max_n=50, max_t=4, max_m=600)
    means = []
    for k in (1, 2, 3, 5, 10):
        ratios = [sparsify_graph(g, SparsifyParams(k=k, seed=s)).ratio
                  for s in range(12)]
        means.append(sum(ratios) / len(ratios))
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert means[-1] <= 1.0


def test_methods_dispatch_and_guards(g1):
    with pytest.raises(ValueError):
        sparsify_graph(g1, SparsifyParams(k=1, method=ALL_TYPES))
    with pytest.raises(ValueError):
        sparsify_alt(g1, SparsifyParams(k=1))
    assert sparsify(g1, SparsifyParams(k=1, method=ALL_TYPES)).kept == 3


def test_params_validation():
    with pytest.raises(ValueError):
        SparsifyParams(k=0)
    with pytest.raises(ValueError):
        SparsifyParams(k=1, method="random")
    with pytest.raises(ValueError):
        SparsifyParams(k=1, seed=-1)
    with pytest.raises(ValueError):
        SparsifyParams(k=1, seed=1 << 64)


def test_empty_graph_rejected():
    g = build_graph([], node_types={1: 0})
    with pytest.raises(EmptyGraphError):
        sparsify_graph(g, SparsifyParams(k=1))


def test_result_edge_ids_match_mask(g1):
    res = sparsify_graph(g1, SparsifyParams(k=1, seed=3))
    assert list(res.edge_ids) == list(np.flatnonzero(res.mask))
    assert res.params.k == 1


# ---- golden pins of the sweep's output ----
#
# sha256 of the kept-edge mask (one byte per edge) for both methods on
# random graphs whose buckets really get sampled (k=2, sparsifier seed =
# graph seed) and on the PubMed-shaped graph (k=3, seed 0).  A change of
# any digest changes which edges the sweep keeps and must be deliberate.

GOLDEN_MASKS = {
    (5, PER_TYPE): "48e79dd8b23649849230005c27c07d2a17c23c59d9a1f7623ebfd0f0ddb0e5f5",
    (5, ALL_TYPES): "4154e25a42b5f9b98ac92b6312faffbcc8873e1f29af8eef0daf2ca719b9aaab",
    (7, PER_TYPE): "ffc6003075144ab94e563191a3331edc68db4ff1e4acbab3b0f17e4cf1ff4773",
    (7, ALL_TYPES): "63afe96fb713ee352c064f2b6f24e6f9c2c71cf3a22ec76b9e42e8d6a3381567",
    (13, PER_TYPE): "2f8c807bd4df6a3d7e4213c6f5cbf4d27a8293f991c375579fa8fe92565f7362",
    (13, ALL_TYPES): "fe83ac064c3b00561688f9a028be71958fe07552ddfc0bfdbb10901fbb2b94aa",
    (28, PER_TYPE): "76648ccbfdf3001001bdb64a56b579e7cb4f077a30781c69e26b3ae8a9bd52b4",
    (28, ALL_TYPES): "ea5a1b9dc4f73eb2c56f409add4c4f9151e3c28165710628a54f3599853b4ed3",
}

GOLDEN_PUBMED_MASKS = {
    PER_TYPE: (149780, "ae40000951bfeb6bebb4e8c3dbc288897a4e800194f271a804e534041d7ea0d2"),
    ALL_TYPES: (115858, "0096dc7b177a3a0c4ec038b054a86aa99e5e357d6e93c9968af0471d9539087b"),
}


def _mask_sha(mask):
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=bool).tobytes()).hexdigest()


@pytest.mark.parametrize("gseed,method", sorted(GOLDEN_MASKS))
def test_sparsify_mask_golden(gseed, method):
    g = make_random_graph(gseed)
    res = sparsify(g, SparsifyParams(k=2, method=method, seed=gseed))
    assert res.kept < g.m  # the pin covers sampled buckets, not take-all ones
    assert _mask_sha(res.mask) == GOLDEN_MASKS[(gseed, method)]


def test_sparsify_mask_golden_pubmed_like():
    g = generate(pubmed_like_spec(0))
    for method, (kept, digest) in GOLDEN_PUBMED_MASKS.items():
        res = sparsify(g, SparsifyParams(k=3, method=method, seed=0))
        assert (res.kept, _mask_sha(res.mask)) == (kept, digest)
