"""Sweep hand-traces, sweep-vs-reference equivalence, and core invariants."""

import hashlib
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hgsparse import (
    ALL_TYPES,
    METHODS,
    PER_TYPE,
    EmptyGraphError,
    SparsifyParams,
    build_graph,
    build_graph_arrays,
    coverage_report,
    generate,
    isolated_nodes,
    per_type_kept,
    pubmed_like_spec,
    sparsify,
)
from hgsparse._rng import SWEEP_TAG, splitmix64, substream_seed
from hgsparse.sparsify import _sweep_arrays, vertex_order

from conftest import covered_hub, dict_buckets, edge_keys, make_random_graph

_GAMMA = 0x9E3779B97F4A7C15
SPARSIFY_MODULE = sys.modules["hgsparse.sparsify"]  # hgsparse.sparsify is the function


def sweep_word(seed: int):
    """Word of counter c of the sweep's stream, computed one at a time."""
    base = substream_seed(seed, SWEEP_TAG)
    return lambda c: splitmix64((base + c * _GAMMA) % 2**64)


def reference_node_direction(buckets: list, d: int, H: set, k: int, method: str,
                             word) -> set:
    """One node-direction step of the sweep, a sequential bottom-k reference.

    ``buckets`` lists the edge-id lists of the node-direction's buckets
    in ascending etype, ids ascending; d is 0 out or 1 in.  Edge e's word
    in phase p is ``word(3 * (2e + d) + p)``.  A cover keeps the least
    word; a top-up keeps the free edges whose words have the least high
    32 bits, ties in this layout order.  Updates H in place and returns it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def top_up(unit, phase):
        pool = [e for e in unit if e not in H]
        need = k - (len(unit) - len(pool))
        if need >= len(pool):
            H.update(pool)
        elif need > 0:  # sorted() is stable: equal priorities keep layout order
            H.update(sorted(pool, key=lambda e: word(3 * (2 * e + d) + phase) >> 32)[:need])

    if method == PER_TYPE:
        for ids in buckets:
            top_up(ids, 0)
    else:
        for ids in buckets:
            if H.isdisjoint(ids):
                H.add(min(ids, key=lambda e: word(3 * (2 * e + d) + 1)))
        top_up([e for ids in buckets for e in ids], 2)
    return H


def reference_sweep(g, k: int, method: str, word, steps: list | None = None) -> set:
    """Kept edge ids of the whole sweep, one node-direction at a time.

    When ``steps`` is a list, each node-direction appends to it its
    direction, its buckets and the set of edges it added to H.
    """
    H: set = set()
    by_side = dict_buckets(g)
    for u in g.node_ids[vertex_order(g)].tolist():
        for d, direction in enumerate(("out", "in")):
            buckets = [ids for _etype, ids in sorted(by_side.get((direction, u), {}).items())]
            if steps is not None:
                kept = {e for ids in buckets for e in ids if e in H}
            reference_node_direction(buckets, d, H, k, method, word)
            if steps is not None:
                steps.append((d, buckets, {e for ids in buckets for e in ids if e in H} - kept))
    return H


def _no_word(*counter):
    raise AssertionError(f"word {counter} drawn for a forced choice")


def test_g1_k1_keeps_everything_per_type(g1):
    for seed in range(25):
        res = sparsify(g1, SparsifyParams(k=1, seed=seed))
        assert res.kept == 3
        assert res.ratio == 1.0


def test_g1_k1_keeps_everything_all_types(g1):
    for seed in range(25):
        res = sparsify(g1, SparsifyParams(k=1, method=ALL_TYPES, seed=seed))
        assert res.kept == 3


def test_node_direction_hand_trace(g1):
    # out-buckets of node 1 with type 0 already covered twice: x >= k skips
    # type 0, and the size-1 type-1 bucket forces edge 2, (1,4,1), in.
    buckets = dict_buckets(g1)
    out_1 = [ids for _etype, ids in sorted(buckets["out", 1].items())]
    assert edge_keys(g1, [e for ids in out_1 for e in ids]) == [(1, 2, 0), (1, 3, 0), (1, 4, 1)]
    H = reference_node_direction(out_1, 0, {0, 1}, 1, PER_TYPE, _no_word)
    assert H == {0, 1, 2}  # forced moves draw no word


def test_node_direction_validates_k(g1):
    with pytest.raises(ValueError):
        reference_node_direction([[0, 1]], 0, set(), 0, PER_TYPE, _no_word)


def test_k33_bounds_and_coverage(k33):
    for seed in range(60):
        res = sparsify(k33, SparsifyParams(k=1, seed=seed))
        assert 3 <= res.kept <= 6
        assert coverage_report(k33, res.mask, 1) == []
        assert isolated_nodes(k33, res.mask) == set()


def test_sample_without_replacement_examples(g1):
    # a unit keeps all of its free pool when it needs all of it, and none
    # of it when already covered k times, which draws no word
    for method in (PER_TYPE, ALL_TYPES):
        assert reference_node_direction([[0, 1, 2]], 0, set(), 3, method,
                                        sweep_word(9)) == {0, 1, 2}
        assert reference_node_direction([[0, 1, 2]], 1, {1}, 1, method, _no_word) == {1}
    with mock.patch.object(SPARSIFY_MODULE, "counter_words", _no_word):
        assert sparsify(g1, SparsifyParams(k=3, seed=9)).ratio == 1.0


def test_sample_full_pool_consumes_nothing():
    # every bucket holds one edge, so every unit keeps all of its edges
    # under either method and the sweep draws no word at all
    g = build_graph([(1, 2, 0), (1, 4, 1), (2, 3, 1), (3, 3, 0), (3, 1, 2)])
    with mock.patch.object(SPARSIFY_MODULE, "counter_words", _no_word):
        for method in (PER_TYPE, ALL_TYPES):
            assert sparsify(g, SparsifyParams(k=1, method=method, seed=4)).ratio == 1.0


@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_sample_is_subset_and_deterministic(seed, count):
    # the hub's out-bucket of 7 keeps the count edges of least priority
    g = covered_hub(7, count)
    got = np.flatnonzero(sparsify(g, SparsifyParams(k=count, seed=seed)).mask[:7])
    assert np.array_equal(
        got, np.flatnonzero(sparsify(g, SparsifyParams(k=count, seed=seed)).mask[:7]))
    word = sweep_word(seed)  # out-direction, top-up phase: counter 6e
    assert got.tolist() == sorted(sorted(range(7), key=lambda e: word(6 * e) >> 32)[:count])


def test_vertex_order_by_degree_then_id():
    g = build_graph([(1, 2, 0), (1, 3, 0), (1, 4, 0), (5, 1, 0)])
    assert g.node_ids[vertex_order(g)].tolist() == [2, 3, 4, 5, 1]


def test_sweep_takes_its_vertex_order_from_vertex_order():
    # the sweep's arrays take the order through the module's name, once per graph
    g = make_random_graph(3)
    order = mock.Mock(wraps=vertex_order)
    with mock.patch.object(SPARSIFY_MODULE, "vertex_order", order):
        sparsify(g, SparsifyParams(k=2))
        assert order.call_count == 1
        sparsify(g, SparsifyParams(k=1, method=ALL_TYPES))
        assert order.call_count == 1
    assert _sweep_arrays(g).side_by_time[::2].tolist() == vertex_order(g).tolist()


@st.composite
def split_edge_graphs(draw):
    """Graphs built around the edges of the sweep's order-free/loop split.

    Hub buckets of exactly k and k+1 edges, self-loops, pairs linked under
    several edge types, and spread nodes whose buckets each hold one edge,
    over a few random edges that may grow any bucket.
    """
    k = draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    nodes = st.integers(0, 11)
    etypes = st.integers(0, t - 1)
    edges = set()
    for _ in range(draw(st.integers(0, 4))):
        hub, etype = draw(nodes), draw(etypes)
        size = draw(st.sampled_from([k, k + 1]))
        others = draw(st.lists(nodes, min_size=size, max_size=size, unique=True))
        if draw(st.booleans()):
            edges.update((hub, v, etype) for v in others)
        else:
            edges.update((v, hub, etype) for v in others)
    edges.update((u, u, etype) for u, etype in
                 draw(st.lists(st.tuples(nodes, etypes), max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(nodes), draw(nodes)
        edges.update((u, v, etype) for etype in draw(st.sets(etypes, min_size=1)))
    for _ in range(draw(st.integers(0, 3))):
        spread = draw(nodes)
        for etype in draw(st.sets(etypes, min_size=1)):
            edges.add((spread, draw(nodes), etype))
    edges.update(draw(st.lists(st.tuples(nodes, nodes, etypes), max_size=10)))
    if not edges:
        edges.add((0, 1, 0))
    g = build_graph(sorted(edges))
    if draw(st.booleans()):
        k = g.stats().max_bucket + draw(st.integers(0, 2))  # k at or above every bucket
    return g, k


def _zigzag(i: int, j: int, etype: int) -> tuple:
    """The edge between chain nodes i and j, from whichever of them is even.

    Even chain nodes link out to both neighbors, so node i's unit of one
    direction (out for even i, in for odd) holds its edges to i - 1 and
    i + 1: it shares an edge with the unit before it and one with the unit
    after it.
    """
    return (i, j, etype) if i % 2 == 0 else (j, i, etype)


@st.composite
def rising_paths(draw):
    """A zigzag path whose degrees rise along it: one long chain of loop units.

    Path node i also links, in its chain direction and under the type of
    its edge to i + 1, to the first k + i // 2 of a pool of hubs.  So its
    buckets are sampled, the sweep meets the path nodes in path order and
    the hubs last.  With one edge type the chain runs the whole path.
    """
    k = draw(st.integers(1, 3))
    length = draw(st.integers(2 * k + 4, 24))
    hubs = range(1000, 1000 + k + length // 2)
    etypes = st.integers(0, draw(st.integers(0, 2)))
    edges = set()
    for i in range(length):
        etype = draw(etypes)
        edges.add(_zigzag(i, i + 1, etype))
        edges.update(_zigzag(i, hub, etype) for hub in hubs[:k + i // 2])
    return build_graph(sorted(edges)), k


@st.composite
def hub_chains(draw):
    """A zigzag chain of hubs, each linked to the next under several edge types.

    Hub i also links, in its chain direction, to i + 1 leaves of a small
    shared pool under each of its types, so its degree rises along the
    chain and its buckets and sides are sampled.  Some links also run the
    other way.
    """
    k = draw(st.integers(1, 3))
    t = draw(st.integers(2, 4))
    length = draw(st.integers(3, 12))
    leaves = st.integers(100, 100 + draw(st.integers(2, 8)))
    edges = set()
    for i in range(length):
        for etype in draw(st.sets(st.integers(0, t - 1), min_size=1)):
            edges.add(_zigzag(i, i + 1, etype))
            if draw(st.booleans()):
                edges.add(_zigzag(i + 1, i, etype))
            edges.update(_zigzag(i, draw(leaves), etype) for _ in range(i + 1))
    return build_graph(sorted(edges)), k


@st.composite
def small_sides(draw):
    """An all-types side of at most k entries whose buckets hold several edges.

    Node 0 links out to one to three targets under each of up to three
    edge types, two or more under one of them, and k runs from its bucket
    count to its size.  Feeders fill each target's in-bucket past k, so
    it is a loop unit under either method, and the targets alternate
    between degrees below and above node 0's: their units come before
    and after node 0's out-side.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda sizes: max(sizes) > 1))
    count, side = len(sizes), sum(sizes)
    k = draw(st.one_of(st.sampled_from((count, side)), st.integers(count, side)))
    leaves = k + 3  # node 0's degree, side + k + 3, lies between the targets'
    first = draw(st.booleans())
    edges = {(200 + i, 0, draw(st.integers(0, count - 1))) for i in range(leaves)}
    target = 1
    for etype, size in enumerate(sizes):
        for _ in range(size):
            feeders = k + 1 if (target % 2 == 0) == first else side + leaves
            edges.add((0, target, etype))
            edges.update((100 + f, target, etype) for f in range(feeders))
            target += 1
    return build_graph(sorted(edges)), k


sweep_cases = st.one_of(
    split_edge_graphs(),
    st.tuples(st.integers(0, 2**16).map(
        lambda seed: make_random_graph(seed, max_n=40, max_t=5, max_m=200)),
        st.sampled_from([1, 2, 4])),
    rising_paths(),
    hub_chains(),
    small_sides(),
)


@pytest.mark.parametrize("method", [PER_TYPE, ALL_TYPES])
@given(case=sweep_cases, seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_sweep_matches_pure_reference(method, case, seed):
    g, k = case
    res = sparsify(g, SparsifyParams(k=k, method=method, seed=seed))
    kept = set(np.flatnonzero(res.mask).tolist())
    assert kept == reference_sweep(g, k, method, sweep_word(seed))


def _least(entries: list, d: int, phase: int, k: int, word) -> list:
    """The k entries of least priority in the given phase, ties in list order."""
    return sorted(entries, key=lambda e: word(3 * (2 * e + d) + phase) >> 32)[:k]


@pytest.mark.parametrize("method", [PER_TYPE, ALL_TYPES])
@given(case=sweep_cases, seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_reference_picks_are_candidates(method, case, seed):
    # every edge that a step adds is among its unit's k least-priority
    # entries or is a bucket's cover edge, so the sweep looks at no other
    g, k = case
    word = sweep_word(seed)
    steps: list = []
    reference_sweep(g, k, method, word, steps)
    for d, buckets, added in steps:
        if method == PER_TYPE:
            allowed = {e for ids in buckets for e in _least(ids, d, 0, k, word)}
        else:
            allowed = set(_least([e for ids in buckets for e in ids], d, 2, k, word))
            allowed.update(min(ids, key=lambda e: word(3 * (2 * e + d) + 1))
                           for ids in buckets)
        assert added <= allowed


@given(edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 5)),
                      min_size=1, max_size=120))
@settings(max_examples=120, deadline=None)
def test_sweep_arrays_match_their_definitions(edges):
    g = build_graph(edges)
    a, lay, n, m = _sweep_arrays(g), g.layout, g.n, g.m
    assert _sweep_arrays(g) is a is g.sweep_cache  # built once
    for name, array in vars(a).items():
        assert not array.flags.writeable, name
    degree = [0] * n
    for u in g.src.tolist() + g.dst.tolist():
        degree[u] += 1
    assert g.degrees().tolist() == degree
    assert not g.degrees().flags.writeable
    by_degree = sorted(range(n), key=lambda u: (degree[u], u))
    assert a.side_by_time.tolist() == [s for u in by_degree for s in (u, n + u)]
    assert a.side_time[a.side_by_time].tolist() == list(range(2 * n))
    sides = range(2 * n)
    assert a.side_bkts.tolist() == [lay.side_bkt_ptr[s + 1] - lay.side_bkt_ptr[s] for s in sides]
    assert a.side_size.tolist() == [lay.side_ptr[s + 1] - lay.side_ptr[s] for s in sides]
    bucket_side = [s for s in sides for _ in range(a.side_bkts[s])]
    assert a.bkt_time.tolist() == [a.side_time[s] for s in bucket_side]
    assert a.bkt_by_time.tolist() == [b for s in a.side_by_time.tolist()
                                      for b in range(lay.side_bkt_ptr[s],
                                                     lay.side_bkt_ptr[s + 1])]
    for b in range(a.bkt_size.shape[0]):
        assert a.bkt_size[b] == lay.bkt_ptr[b + 1] - lay.bkt_ptr[b]
        assert (a.pos_bkt[lay.bkt_ptr[b]:lay.bkt_ptr[b + 1]] == b).all()
    # an edge's two entries point at each other, one in each direction
    assert (lay.order[a.twin] == lay.order).all()
    assert ((a.twin >= m) == (np.arange(2 * m) < m)).all()


def test_only_the_sweep_builds_its_arrays():
    # the checks that verify and stats run read the layout, not the sweep's arrays
    g = make_random_graph(5)
    mask = np.arange(g.m) % 3 == 0
    for method in METHODS:
        coverage_report(g, mask, 2, method)
    isolated_nodes(g, mask)
    per_type_kept(g, mask)
    g.degrees()
    g.stats()
    vertex_order(g)
    assert g.sweep_cache is None
    sparsify(g, SparsifyParams(k=2))
    assert isinstance(g.sweep_cache, SPARSIFY_MODULE.SweepArrays)


@given(case=sweep_cases,
       calls=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(METHODS),
                                st.integers(0, 3)), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_cached_arrays_carry_no_state_between_calls(case, calls):
    # calls on one graph share its cached arrays; each must match the
    # same call on a copy built afresh
    g, _k = case
    for k, method, seed in calls:
        params = SparsifyParams(k=k, method=method, seed=seed)
        fresh = build_graph_arrays(g.node_ids[g.src], g.node_ids[g.dst], g.etype,
                                   node_ids=g.node_ids, node_types=g.node_types)
        assert np.array_equal(sparsify(g, params).mask, sparsify(fresh, params).mask)


def _coarse_words(seed, tag, counters):
    """Distinct words whose high 32 bits take 3 values: many priority ties."""
    c = np.asarray(counters, dtype=np.uint64)
    return (c * np.uint64(7) % np.uint64(3)) << np.uint64(32) | c


@pytest.mark.parametrize("method", [PER_TYPE, ALL_TYPES])
@given(case=sweep_cases)
@settings(max_examples=100, deadline=None)
def test_sweep_tie_rule_matches_reference(method, case):
    # equal priorities keep layout order, ascending edge id within a bucket
    g, k = case
    with mock.patch.object(SPARSIFY_MODULE, "counter_words", _coarse_words):
        res = sparsify(g, SparsifyParams(k=k, method=method))
    coarse = lambda c: int(_coarse_words(0, 0, [c])[0])  # noqa: E731
    assert set(np.flatnonzero(res.mask).tolist()) == reference_sweep(g, k, method, coarse)


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
    res = sparsify(g1, SparsifyParams(k=2, seed=9))
    assert res.ratio == 1.0


def test_mean_ratio_nondecreasing_in_k():
    g = make_random_graph(77, max_n=50, max_t=4, max_m=600)
    means = []
    for k in (1, 2, 3, 5, 10):
        ratios = [sparsify(g, SparsifyParams(k=k, seed=s)).ratio
                  for s in range(12)]
        means.append(sum(ratios) / len(ratios))
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert means[-1] <= 1.0


def test_k_beyond_int64_keeps_everything():
    # k at or above every unit's size keeps every edge, even past int64
    g = build_graph([(1, 2, 0), (1, 3, 0), (1, 3, 1), (2, 3, 0)])
    for k in (2**63 - 1, 2**64 - 1, np.uint64(2**64 - 1)):
        for method in METHODS:
            res = sparsify(g, SparsifyParams(k=k, method=method))
            assert res.ratio == 1.0
            assert coverage_report(g, res.mask, k, method) == []


def test_methods_dispatch_and_guards(g1):
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
    with pytest.raises(ValueError, match="seed must be in"):
        SparsifyParams(k=1, seed=1.5)


def test_empty_graph_rejected():
    g = build_graph([], node_types={1: 0})
    with pytest.raises(EmptyGraphError):
        sparsify(g, SparsifyParams(k=1))


def test_result_edge_ids_match_mask(g1):
    res = sparsify(g1, SparsifyParams(k=1, seed=3))
    assert res.mask.dtype == bool and res.mask.shape == (g1.m,)
    assert res.kept == np.flatnonzero(res.mask).shape[0]
    assert res.ratio == res.kept / g1.m
    assert res.params.k == 1


# ---- golden pins of the sweep's output ----
#
# sha256 of the kept-edge mask (one byte per edge) for both methods on
# random graphs whose buckets really get sampled (k=2, sparsifier seed =
# graph seed) and on the PubMed-shaped graph (k=3, seed 0).  A change of
# any digest changes which edges the sweep keeps and must be deliberate.

GOLDEN_MASKS = {
    (5, PER_TYPE): "308291e657a7e5a54c340dd02cee1e947927adeda66fb291e98c6cbd0570fc0b",
    (5, ALL_TYPES): "f19d28e2ffe3d5c0dea492f62c5477af4db97f570d23644191386db61e538cc8",
    (7, PER_TYPE): "e0b1139fd7fd7b516a1d15d962950627f1f53ec18bccd40f378f89d45b78d0f6",
    (7, ALL_TYPES): "314a1f546187bf0dd9e466782bef6ce6134b77435ec26d2545921cc21baa51de",
    (13, PER_TYPE): "97e9e0fcbbbfec8bc239f9aea2785c334d152811dec2a46afc97f144ff8b1151",
    (13, ALL_TYPES): "b0abda8bc756db4454b83f6a843fdefafea444b45192f1ac302f33d4f5ce2568",
    (28, PER_TYPE): "bcec440a22b274906e328a30740104f9a17101d9a67e6d0d5e601c68d20081d9",
    (28, ALL_TYPES): "86835c6a3238e2599a888fe57fb43dc6867a0ade472394a22f204bb0afb834b4",
}

GOLDEN_PUBMED_MASKS = {
    PER_TYPE: (149595, "3a5f8cc0196a78c8041c9126d41c0211be646e95df73c7287a0a11d9fcd3add6"),
    ALL_TYPES: (116038, "7d271d8c347bc20f6fd3d13a8f70161cf07d87e6b952454768f9b7ad739c5b47"),
}


def _mask_sha(mask):
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=bool).tobytes()).hexdigest()


@pytest.mark.parametrize("gseed,method", sorted(GOLDEN_MASKS))
def test_sparsify_mask_golden(gseed, method):
    g = make_random_graph(gseed)
    res = sparsify(g, SparsifyParams(k=2, method=method, seed=gseed))
    assert res.kept < g.m  # the pin covers sampled buckets, not take-all ones
    assert _mask_sha(res.mask) == GOLDEN_MASKS[(gseed, method)]


@pytest.fixture(scope="module")
def pubmed_graph():
    return generate(pubmed_like_spec(0))


def test_sparsify_mask_golden_pubmed_like(pubmed_graph):
    g = pubmed_graph
    for method, (kept, digest) in GOLDEN_PUBMED_MASKS.items():
        res = sparsify(g, SparsifyParams(k=3, method=method, seed=0))
        assert (res.kept, _mask_sha(res.mask)) == (kept, digest)


# sha256 over every mask, in loop order, of both methods at five budgets
# on 300 random graphs and at three budgets on two PubMed-shaped graphs,
# the sparsifier seed the graph's seed
GOLDEN_WIDE_MASKS = "3a787ddd57409b70abdb47703c43d7161986fa2d446bf287a0fc71059507db14"


def test_sparsify_mask_golden_wide(pubmed_graph):
    digest = hashlib.sha256()
    runs = [(make_random_graph(i), (1, 2, 3, 5, 10), i) for i in range(300)]
    runs += [(pubmed_graph, (1, 3, 10), 0), (generate(pubmed_like_spec(1)), (1, 3, 10), 1)]
    for g, budgets, seed in runs:
        for k in budgets:
            for method in METHODS:
                digest.update(sparsify(g, SparsifyParams(k=k, method=method, seed=seed)).mask.tobytes())
    assert digest.hexdigest() == GOLDEN_WIDE_MASKS


# The per-graph arrays that sparsify caches, in bytes per edge: two int32
# arrays over the 2m layout positions, and int32 or int64 arrays over the
# buckets and sides.  pubmed_like_spec(0) needs about 37.
SWEEP_ARRAYS_BYTES_PER_EDGE = 44


def test_sweep_arrays_stay_compact(pubmed_graph):
    g = pubmed_graph
    total = sum(array.nbytes for array in vars(_sweep_arrays(g)).values())
    assert total <= SWEEP_ARRAYS_BYTES_PER_EDGE * g.m
