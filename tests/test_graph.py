"""Graph construction, bucket indexing, and canonical-order invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hgsparse import (
    EdgeRecord,
    NonFiniteWeightError,
    UnknownEdgeError,
    UnknownNodeError,
    build_graph,
    build_graph_arrays,
    graph_stats,
)

from conftest import G1_EDGES, G1_TYPES, make_random_graph

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 5)),
    min_size=1, max_size=120,
)


def test_g1_shape(g1):
    assert g1.n == 4
    assert g1.m == 3
    assert g1.t == 2
    assert len(g1.bucket_edge_ids(1, "out", 0)) == 2
    assert len(g1.bucket_edge_ids(1, "out", 1)) == 1
    assert len(g1.bucket_edge_ids(2, "in", 0)) == 1


def test_g1_bucket_contents(g1):
    assert g1.bucket(1, "out", 0) == [(1, 2, 0), (1, 3, 0)]
    assert g1.bucket(2, "out", 0) == []
    assert g1.bucket(4, "in", 1) == [(1, 4, 1)]


def test_g1_degrees(g1):
    assert g1.degree(1) == 3
    assert g1.degree(2) == 1
    assert list(g1.degrees()) == [3, 1, 1, 1]


def test_node_buckets_partition_direction(g1):
    out_buckets = dict(g1.node_buckets(1, "out"))
    assert set(out_buckets) == {0, 1}
    ids = np.concatenate(list(out_buckets.values()))
    assert sorted(ids) == sorted(g1.node_direction_edge_ids(1, "out"))


def test_stats_fields(g1):
    s = g1.stats()
    assert s.n == 4 and s.m == 3
    assert s.node_type_count == 3 and s.edge_type_count == 2
    assert s.per_edge_type == {0: 2, 1: 1}
    assert s.max_bucket == 2
    assert s.edges_per_node == pytest.approx(0.75)
    assert graph_stats(g1) == s
    d = s.to_dict()
    assert d["per_edge_type"] == {"0": 2, "1": 1}


def test_edge_record_key():
    rec = EdgeRecord(1, 2, 0, 0.5)
    assert rec.key == (1, 2, 0)
    assert EdgeRecord(1, 2, 0).weight is None


def test_duplicate_edges_dropped():
    g = build_graph([(1, 2, 0), (1, 2, 0), (2, 1, 0)])
    assert g.m == 2
    assert g.duplicates_dropped == 1


def test_duplicate_keeps_first_weight():
    g = build_graph([EdgeRecord(1, 2, 0, 5.0), EdgeRecord(1, 2, 0, 7.0)])
    assert g.m == 1
    assert g.edge_record(0).weight == 5.0


def test_mixed_weight_presence():
    g = build_graph([EdgeRecord(1, 2, 0, 2.5), (2, 3, 0)])
    assert g.has_weights
    assert g.edge_record(g.edge_index(1, 2, 0)).weight == 2.5
    assert g.edge_record(g.edge_index(2, 3, 0)).weight is None


def test_non_finite_weight_rejected():
    with pytest.raises(NonFiniteWeightError):
        build_graph([EdgeRecord(1, 2, 0, float("inf"))])


def test_undeclared_endpoint_rejected():
    with pytest.raises(UnknownNodeError):
        build_graph([(1, 9, 0)], node_types={1: 0, 2: 0})


def test_edge_index_and_ids(g1):
    for eid in range(g1.m):
        assert g1.edge_index(*g1.edge_key(eid)) == eid
    with pytest.raises(UnknownEdgeError):
        g1.edge_index(2, 1, 0)
    ids = g1.edge_ids([1, 1], [4, 2], [1, 0])
    assert list(ids) == [g1.edge_index(1, 4, 1), g1.edge_index(1, 2, 0)]
    # the pair (1, 2) exists, but only with etype 0
    with pytest.raises(UnknownEdgeError):
        g1.edge_ids([1, 1], [4, 2], [1, 1])
    dense = g1.dense_ids([1, 1, 2])
    assert list(g1.dense_edge_ids(dense, g1.dense_ids([2, 2, 1]), np.array([0, 1, 0]))) == \
        [g1.edge_index(1, 2, 0), -1, -1]


@pytest.mark.parametrize("seed", [1, 7, 18, 28])
def test_dense_edge_ids_match_a_set_lookup(seed):
    # multi-etype pairs and misses, against a plain dict of identities
    g = make_random_graph(seed, max_t=3)
    table = {key: eid for eid, key in enumerate(zip(g.src.tolist(), g.dst.tolist(),
                                                    g.etype.tolist()))}
    rng = np.random.default_rng(seed)
    us = np.concatenate((g.src, rng.integers(0, g.n, 500)))
    ws = np.concatenate((g.dst, rng.integers(0, g.n, 500)))
    ts = np.concatenate((g.etype, rng.integers(0, 4, 500)))
    want = [table.get(key, -1) for key in zip(us.tolist(), ws.tolist(), ts.tolist())]
    assert g.dense_edge_ids(us, ws, ts).tolist() == want


def test_edge_mask_forms(g1):
    assert g1.edge_mask(None).all()
    assert list(g1.edge_mask([(1, 4, 1)])) == [False, False, True]
    by_id = g1.edge_mask(np.array([0, 2]))
    assert list(by_id) == [True, False, True]
    assert list(g1.edge_mask(by_id)) == list(by_id)


def test_subgraph_keeps_node_table(g1):
    sub = g1.subgraph([(1, 2, 0)])
    assert sub.n == g1.n
    assert sub.m == 1
    assert sub.degree(3) == 0
    assert list(sub.node_ids) == list(g1.node_ids)


def test_dense_id_roundtrip():
    g = build_graph([(10, 7, 0), (7, 3, 1)])
    # dense ids follow ascending original id
    assert list(g.original_ids(np.arange(g.n))) == [3, 7, 10]
    assert g.dense_id(7) == 1
    assert list(g.dense_ids([10, 3])) == [2, 0]
    with pytest.raises(UnknownNodeError):
        g.dense_id(99)


def test_canonical_edge_order(g1):
    keys = [g1.edge_key(i) for i in range(g1.m)]
    assert keys == sorted(keys)
    assert keys == [(1, 2, 0), (1, 3, 0), (1, 4, 1)]


@given(edges=edge_lists)
@settings(max_examples=120, deadline=None)
def test_build_invariants(edges):
    g = build_graph(edges)
    unique = sorted(set(edges))
    assert g.m == len(unique)
    assert g.duplicates_dropped == len(edges) - len(unique)
    # canonical table sorted by (src, dst, etype) over dense ids
    table = list(zip(g.src.tolist(), g.dst.tolist(), g.etype.tolist()))
    assert table == sorted(table)
    # degrees count both endpoints, so they sum to 2m
    assert int(g.degrees().sum()) == 2 * g.m


@given(edges=edge_lists, direction=st.sampled_from(["out", "in"]))
@settings(max_examples=80, deadline=None)
def test_buckets_partition_edges(edges, direction):
    g = build_graph(edges)
    seen = []
    for u in g.node_ids.tolist():
        for _, ids in g.node_buckets(u, direction):
            chunk = ids.tolist()
            # ascending edge id inside each bucket
            assert chunk == sorted(chunk)
            seen.extend(chunk)
    assert sorted(seen) == list(range(g.m))


def test_random_factory_respects_caps():
    for seed in range(10):
        g = make_random_graph(seed)
        assert 2 <= g.n <= 200
        assert 1 <= g.m <= 5000
        assert g.t <= 8


def test_arrays_builder_matches_record_builder():
    edges = [(3, 1, 0), (1, 3, 0), (3, 1, 1), (2, 2, 0)]
    by_records = build_graph(edges)
    by_arrays = build_graph_arrays(
        np.array([e[0] for e in edges]),
        np.array([e[1] for e in edges]),
        np.array([e[2] for e in edges]),
    )
    assert [by_records.edge_key(i) for i in range(by_records.m)] == \
        [by_arrays.edge_key(i) for i in range(by_arrays.m)]


def test_g1_types_recorded(g1):
    # node table keeps declared types in ascending node order
    assert dict(zip(g1.node_ids.tolist(), g1.node_types.tolist())) == G1_TYPES
    assert [tuple(e) for e in G1_EDGES] == [g1.edge_key(i) for i in range(3)]
