"""Graph construction, the bucket layout, and canonical-order invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hgsparse import (
    NonFiniteWeightError,
    UnknownEdgeError,
    UnknownNodeError,
    build_graph,
    build_graph_arrays,
)

from hgsparse.graph import _positions

from conftest import (G1_EDGES, G1_TYPES, EdgeRecord, dense_id, dict_buckets,
                      edge_keys, make_random_graph, mask_of)

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 5)),
    min_size=1, max_size=120,
)


def edge_index(g, src: int, dst: int, etype: int) -> int:
    """Edge id of one identity (src, dst, etype) given in original ids."""
    return int(g.edge_ids([src], [dst], [etype])[0])


def layout_buckets(g) -> dict:
    """The graph's layout in the form of ``dict_buckets``, side by side."""
    lay = g.layout
    buckets = {}
    for side in range(2 * g.n):
        key = ("in" if side >= g.n else "out", int(g.node_ids[side % g.n]))
        for b in range(lay.side_bkt_ptr[side], lay.side_bkt_ptr[side + 1]):
            ids = lay.order[lay.bkt_ptr[b]:lay.bkt_ptr[b + 1]].tolist()
            buckets.setdefault(key, {})[int(lay.bkt_etype[b])] = ids
    return buckets


def test_g1_shape(g1):
    assert g1.n == 4
    assert g1.m == 3
    assert g1.t == 2
    buckets = layout_buckets(g1)
    assert len(buckets["out", 1][0]) == 2
    assert len(buckets["out", 1][1]) == 1
    assert len(buckets["in", 2][0]) == 1


def test_g1_bucket_contents(g1):
    buckets = layout_buckets(g1)
    assert edge_keys(g1, buckets["out", 1][0]) == [(1, 2, 0), (1, 3, 0)]
    assert ("out", 2) not in buckets
    assert edge_keys(g1, buckets["in", 4][1]) == [(1, 4, 1)]


def test_g1_degrees(g1):
    assert list(g1.degrees()) == [3, 1, 1, 1]
    assert g1.degrees()[dense_id(g1, 2)] == 1


def test_node_buckets_partition_direction(g1):
    # node 1's out side holds its two buckets and nothing else
    lay = g1.layout
    side = dense_id(g1, 1)
    assert list(lay.bkt_etype[lay.side_bkt_ptr[side]:lay.side_bkt_ptr[side + 1]]) == [0, 1]
    assert sorted(lay.order[lay.side_ptr[side]:lay.side_ptr[side + 1]]) == [0, 1, 2]


def test_stats_fields(g1):
    s = g1.stats()
    assert s.n == 4 and s.m == 3
    assert s.node_type_count == 3 and s.edge_type_count == 2
    assert s.per_edge_type == {0: 2, 1: 1}
    assert s.max_bucket == 2
    assert s.edges_per_node == pytest.approx(0.75)
    assert g1.stats() == s
    d = s.to_dict()
    assert d["per_edge_type"] == {"0": 2, "1": 1}


def test_duplicate_edges_dropped():
    g = build_graph([(1, 2, 0), (1, 2, 0), (2, 1, 0)])
    assert g.m == 2
    assert g.duplicates_dropped == 1


def test_duplicate_keeps_first_weight():
    g = build_graph([EdgeRecord(1, 2, 0, 5.0), EdgeRecord(1, 2, 0, 7.0)])
    assert g.m == 1
    assert g.weight[0] == 5.0


def test_mixed_weight_presence():
    # a weight on some records and not on others is a bad argument
    for records in ([EdgeRecord(1, 2, 0, 2.5), (2, 3, 0)],
                    [(1, 2, 0), EdgeRecord(2, 3, 0, 2.5)],
                    [(1, 2, 0, 2.5), EdgeRecord(2, 3, 0)]):
        with pytest.raises(ValueError, match="all carry a weight or all carry none"):
            build_graph(records)
    assert build_graph([EdgeRecord(1, 2, 0), (2, 3, 0)]).weight is None


def test_non_finite_weight_rejected():
    with pytest.raises(NonFiniteWeightError):
        build_graph([EdgeRecord(1, 2, 0, float("inf"))])
    with pytest.raises(NonFiniteWeightError):
        build_graph([EdgeRecord(1, 2, 0, float("nan"))])


def test_undeclared_endpoint_rejected():
    with pytest.raises(UnknownNodeError):
        build_graph([(1, 9, 0)], node_types={1: 0, 2: 0})


def test_empty_node_table_rejects_every_id():
    g = build_graph_arrays([], [], [], node_ids=[])
    assert g.n == 0 and g.m == 0
    for node in (0, 1):
        with pytest.raises(UnknownNodeError, match=f"node {node} is not in the graph"):
            g.dense_ids([node])
    with pytest.raises(UnknownNodeError, match="edge source 0 is not in the node table"):
        build_graph_arrays([0], [5], [0], node_ids=[])
    with pytest.raises(UnknownNodeError, match="edge destination 5 is not in the node table"):
        build_graph_arrays([0], [5], [0], node_ids=[0])


def test_node_types_need_node_ids():
    # without a node table every node is typed 0, so types alone would be
    # dropped unchecked
    for types in ([5, 7], [5, 7, 9, "x"]):
        with pytest.raises(ValueError, match="^node_types needs node_ids$"):
            build_graph_arrays([1], [2], [0], node_types=types)


@pytest.mark.parametrize("kwargs, message", [
    (dict(src=[1, 2], dst=[2], etype=[0, 0]), "src, dst and etype must have equal length"),
    (dict(src=[1], dst=[2], etype=[0], weight=[0.5, 1.0]),
     "weight must align with the edge arrays"),
    (dict(src=[1], dst=[2], etype=[0], node_ids=[1, 2], node_types=[0]),
     "node_types must align with node_ids"),
    (dict(src=[1], dst=[2], etype=[0], node_ids=[2, 1, 2]),
     "duplicate node id 2 in node table"),
])
def test_arrays_builder_rejects_misaligned_tables(kwargs, message):
    with pytest.raises(ValueError) as err:
        build_graph_arrays(**kwargs)
    assert str(err.value) == message


def test_record_builder_rejects_short_records():
    with pytest.raises(ValueError) as err:
        build_graph([(1, 2, 0), (1, 2)])
    assert str(err.value) == "edge record must have 3 or 4 fields, got (1, 2)"


def test_edge_index_and_ids(g1):
    for eid in range(g1.m):
        assert edge_index(g1, *g1.edge_key(eid)) == eid
    with pytest.raises(UnknownEdgeError):
        edge_index(g1, 2, 1, 0)
    ids = g1.edge_ids([1, 1], [4, 2], [1, 0])
    assert list(ids) == [edge_index(g1, 1, 4, 1), edge_index(g1, 1, 2, 0)]
    # the pair (1, 2) exists, but only with etype 0
    with pytest.raises(UnknownEdgeError):
        g1.edge_ids([1, 1], [4, 2], [1, 1])
    dense = g1.dense_ids([1, 1, 2])
    assert list(g1.dense_edge_ids(dense, g1.dense_ids([2, 2, 1]), np.array([0, 1, 0]))) == \
        [edge_index(g1, 1, 2, 0), -1, -1]


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
    mask = np.array([True, False, True])
    copy = g1.edge_mask(mask)
    assert list(copy) == list(mask) and copy is not mask
    with pytest.raises(ValueError, match="mask length"):
        g1.edge_mask(np.ones(2, dtype=bool))


def test_edge_mask_rejects_ids_and_triples(g1):
    # a selection is None or a bool mask; ids and identities are not read as one
    for selected in (np.array([0, 2]), [0, 2], [(1, 4, 1)], [], [True, False, True]):
        with pytest.raises(ValueError, match="None or a boolean mask"):
            g1.edge_mask(selected)


def test_subgraph_keeps_node_table(g1):
    sub = g1.subgraph(mask_of(g1, [(1, 2, 0)]))
    assert sub.n == g1.n
    assert sub.m == 1
    assert sub.degrees()[dense_id(sub, 3)] == 0
    assert list(sub.node_ids) == list(g1.node_ids)


def test_dense_id_roundtrip():
    g = build_graph([(10, 7, 0), (7, 3, 1)])
    # dense ids follow ascending original id
    assert list(g.node_ids) == [3, 7, 10]
    assert dense_id(g, 7) == 1
    assert list(g.dense_ids([10, 3])) == [2, 0]
    with pytest.raises(UnknownNodeError):
        dense_id(g, 99)


def test_non_integer_ids_are_not_truncated():
    # a cast to int64 would take 2.5 and 2.7 to node 2 and wrap 2**63 to -2**63
    g = build_graph([(0, 2, 0), (5, 2, 0)])
    for ids, bad in (([2.5], "2.5"), (np.array([1.0, 2.7]), "2.7"), ([5, 2**64], str(2**64)),
                     ([float("nan")], "nan"), (np.array([2**63], dtype=np.uint64), str(2**63))):
        with pytest.raises(UnknownNodeError, match=f"^node {bad} is not in the graph$"):
            g.dense_ids(ids)
    with pytest.raises(UnknownNodeError, match=r"^node 2\.5 is not in the graph$"):
        dense_id(g, 2.5)
    assert g.dense_ids([2.0, np.float64(5)]).tolist() == [1, 2]
    assert dense_id(g, 2.0) == 1
    for src, dst, etype, name in ((np.array([1.5]), [2], [0], "src"), ([1], [2.5], [0], "dst"),
                                  ([1], [2], [0.5], "etype"), ([2**63], [2], [0], "src")):
        with pytest.raises(ValueError, match=f"^{name} holds "):
            build_graph_arrays(src, dst, etype)
    with pytest.raises(ValueError, match="^node_ids holds 2.5"):
        build_graph_arrays([1], [2], [0], node_ids=[1, 2, 2.5])
    g = build_graph_arrays([1.0], np.array([2.0]), [0])
    assert (g.node_ids.tolist(), g.dst.tolist()) == ([1, 2], [1])


def test_node_type_mapping_is_held_to_the_id_rule():
    # a cast to int64 took the key 2.7 to node 2
    for node_types, bad in (({2.7: 0, 3: 1}, "node_ids holds 2.7"),
                            ({2: 0.5, 3: 1}, "node_types holds 0.5"),
                            ({2: 0, 2**63: 1}, f"node_ids holds {2**63}"),
                            ({2: 0, 3: 2**64}, f"node_types holds {2**64}"),
                            ({-1: 0, 3: 1}, "node_ids holds -1"),
                            ({2: 0, 3: -2**63}, f"node_types holds {-2**63}")):
        with pytest.raises(ValueError, match=f"^{bad}, not an integer"):
            build_graph([(3, 3, 0)], node_types=node_types)
    # whole floats are ids, and a large int beside one keeps every digit
    g = build_graph([(2**53 + 1, 3, 0)], node_types={2**53 + 1: 1.0, 3.0: 2**63 - 1})
    assert g.node_ids.tolist() == [3, 2**53 + 1]
    assert g.node_types.tolist() == [2**63 - 1, 1]


def test_negative_ids_and_types_are_rejected():
    for args, kwargs, name in ((([-1], [2], [0]), {}, "src"), (([1], [-2], [0]), {}, "dst"),
                               (([1], [2], [-2**63]), {}, "etype"),
                               (([1], [2], [0]), {"node_ids": [1, 2, -3]}, "node_ids"),
                               (([1], [2], [0]), {"node_ids": [1, 2], "node_types": [0, -1]},
                                "node_types")):
        with pytest.raises(ValueError, match=f"^{name} holds -"):
            build_graph_arrays(*args, **kwargs)


_INT64 = (-2**63, 2**63 - 1)


@st.composite
def lookups(draw):
    """A node table and ids to look up in it, some of them absent.

    Tables are contiguous, gapped, single-node or empty, starting at 0, at
    a small id, around 10**12 or at 2**63 - 41, so the last id of a
    40-node table is close to the largest int64.  Queries mix table ids
    with ids just below the first, just above the last, near 2**63 and
    anywhere in int64.
    """
    first = draw(st.sampled_from([0, 5, 10**12 - 3, 2**63 - 41]))
    kind = draw(st.sampled_from(["contiguous", "gapped", "single", "empty"]))
    if kind == "contiguous":
        offsets = range(draw(st.integers(1, 40)))
    elif kind == "gapped":
        offsets = sorted(draw(st.sets(st.integers(0, 40), min_size=2)) | {0})
    else:
        offsets = [0] if kind == "single" else []
    table = np.array([first + o for o in offsets], dtype=np.int64)
    near = [first - 1, first, first + 40, first + 41, 2**63 - 2, 2**63 - 1, 0, -1, -2**63]
    near = [i for i in near if _INT64[0] <= i <= _INT64[1]]
    present = st.sampled_from(table.tolist()) if table.shape[0] else st.nothing()
    anywhere = st.one_of(present, st.sampled_from(near), st.integers(*_INT64))
    found = st.lists(present, max_size=30) if table.shape[0] else st.just([])
    ids = draw(st.one_of(found, st.lists(anywhere, max_size=30)))
    return table, np.array(ids, dtype=np.int64)


def _reference_positions(table, ids):
    """Plain binary search: the positions, or the first absent id in input order."""
    pos = np.searchsorted(table, ids)
    found = [p < table.shape[0] and table[p] == i for p, i in zip(pos.tolist(), ids.tolist())]
    missing = [i for i, ok in zip(ids.tolist(), found) if not ok]
    return pos.tolist(), (missing[0] if missing else None)


@given(lookups())
@settings(max_examples=400, deadline=None)
def test_positions_match_binary_search(lookup):
    table, ids = lookup
    want, missing = _reference_positions(table, ids)
    g = build_graph_arrays([], [], [], node_ids=table)
    if missing is None:
        assert _positions(table, ids, "{}").tolist() == want
        assert g.dense_ids(ids).tolist() == want
        assert [dense_id(g, i) for i in ids.tolist()] == want
        return
    with pytest.raises(UnknownNodeError, match=f"^absent {missing}$"):
        _positions(table, ids, "absent {}")
    with pytest.raises(UnknownNodeError, match=f"^node {missing} is not in the graph$"):
        g.dense_ids(ids)
    with pytest.raises(UnknownNodeError, match=f"^node {missing} is not in the graph$"):
        for i in ids.tolist():
            dense_id(g, i)


@given(lookups())
@settings(max_examples=300, deadline=None)
def test_build_names_first_missing_endpoint(lookup):
    table, ids = lookup
    ids = ids[ids >= 0]  # the build rejects negative ids before looking any up
    half = ids.shape[0] // 2
    src, dst = ids[:half], ids[half:2 * half]
    etype = np.zeros(half, dtype=np.int64)
    src_missing = _reference_positions(table, src)[1]
    dst_missing = _reference_positions(table, dst)[1]
    if src_missing is not None:
        with pytest.raises(UnknownNodeError,
                           match=f"^edge source {src_missing} is not in the node table$"):
            build_graph_arrays(src, dst, etype, node_ids=table)
    elif dst_missing is not None:
        with pytest.raises(UnknownNodeError,
                           match=f"^edge destination {dst_missing} is not in the node table$"):
            build_graph_arrays(src, dst, etype, node_ids=table)
    else:
        g = build_graph_arrays(src, dst, etype, node_ids=table)
        assert sorted(zip(g.node_ids[g.src].tolist(), g.node_ids[g.dst].tolist())) == \
            sorted(set(zip(src.tolist(), dst.tolist())))


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


@given(edges=edge_lists)
@settings(max_examples=120, deadline=None)
def test_buckets_partition_edges(edges):
    g = build_graph(edges)
    lay = g.layout
    # the layout holds exactly the dict-built buckets, etype ascending in a side
    buckets = layout_buckets(g)
    assert buckets == dict_buckets(g)
    assert all(list(by_type) == sorted(by_type) for by_type in buckets.values())
    # ascending edge id inside each bucket, and no bucket is empty
    for b in range(lay.bkt_etype.shape[0]):
        ids = lay.order[lay.bkt_ptr[b]:lay.bkt_ptr[b + 1]].tolist()
        assert ids and ids == sorted(ids)
    # the out sides come first and hold the first m entries, and each
    # direction's buckets partition the m edges
    assert lay.side_bkt_ptr[0] == 0 and lay.side_bkt_ptr[-1] == lay.bkt_etype.shape[0]
    assert (np.diff(lay.side_bkt_ptr) >= 0).all()
    assert list(lay.side_ptr) == list(lay.bkt_ptr[lay.side_bkt_ptr])
    assert lay.bkt_ptr[0] == 0 and lay.side_ptr[g.n] == g.m and lay.bkt_ptr[-1] == 2 * g.m
    assert sorted(lay.order[:g.m]) == list(range(g.m))
    assert sorted(lay.order[g.m:]) == list(range(g.m))


def reference_build(src, dst, etype, weight, node_ids) -> dict:
    """The arrays of the build that the one-sort build replaced.

    A three-key lexsort gives the canonical order and two per-direction
    lexsorts the bucket layout.  ``node_ids`` is ascending and holds
    every endpoint.
    """
    n = node_ids.shape[0]
    perm = np.lexsort((etype, np.searchsorted(node_ids, dst), np.searchsorted(node_ids, src)))
    s = np.searchsorted(node_ids, src[perm])
    d = np.searchsorted(node_ids, dst[perm])
    e = etype[perm]
    keep = np.ones(perm.shape[0], dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1]) | (e[1:] != e[:-1])
    s, d, e = s[keep], d[keep], e[keep]
    m = s.shape[0]
    order = np.concatenate((np.lexsort((e, s)), np.lexsort((e, d))))
    side = np.concatenate((s[order[:m]], d[order[m:]] + n))
    et = e[order]
    first = np.ones(2 * m, dtype=bool)
    first[1:] = (side[1:] != side[:-1]) | (et[1:] != et[:-1])
    starts = np.flatnonzero(first)
    bkt_ptr = np.append(starts, 2 * m)
    side_bkt_ptr = np.searchsorted(side[starts], np.arange(2 * n + 1))
    return {
        "src": s, "dst": d, "etype": e,
        "weight": None if weight is None else weight[perm][keep],
        "duplicates_dropped": perm.shape[0] - m,
        "_pair_key": s * n + d, "etype_ids": np.unique(e),
        "order": order, "bkt_ptr": bkt_ptr, "bkt_etype": et[starts],
        "side_bkt_ptr": side_bkt_ptr, "side_ptr": bkt_ptr[side_bkt_ptr],
    }


@st.composite
def edge_tables(draw):
    """Edge columns over sparse node ids, with repeats, self-loops and
    pairs under several etypes, sorted or in any order, maybe empty."""
    pool = sorted(draw(st.sets(st.integers(0, 2**63 - 1), min_size=1, max_size=12)))
    edges = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                                    st.sampled_from([0, 1, 2, 7, 2**40]),
                                    st.floats(-1e3, 1e3)
                                    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])),
                          max_size=60))
    if draw(st.booleans()):
        edges.sort()
    src, dst, etype = (np.array([e[i] for e in edges], dtype=np.int64) for i in range(3))
    weight = np.array([e[3] for e in edges], dtype=np.float64)
    node_ids = np.array(draw(st.permutations(pool)), dtype=np.int64)
    return src, dst, etype, weight if draw(st.booleans()) else None, node_ids


def _large_table(seed: int):
    # thousands of edges over few nodes: long runs of equal sort keys
    rng = np.random.default_rng(seed)
    m = 6000
    node_ids = rng.choice(2**62, size=40, replace=False)
    src, dst = node_ids[rng.integers(0, 40, size=(2, m))]
    etype = rng.choice([3, 2**50, 0], size=m)
    if seed % 2:
        order = np.lexsort((etype, dst, src))
        src, dst, etype = src[order], dst[order], etype[order]
    return src, dst, etype, rng.random(m), node_ids


def _check_build(src, dst, etype, weight, node_ids):
    declared = build_graph_arrays(src, dst, etype, weight=weight, node_ids=node_ids,
                                  node_types=node_ids % 3)
    assert declared.node_ids.tolist() == sorted(node_ids.tolist())
    assert declared.node_types.tolist() == (declared.node_ids % 3).tolist()
    inferred = build_graph_arrays(src, dst, etype, weight=weight)
    assert inferred.node_ids.tolist() == sorted(set(src.tolist() + dst.tolist()))
    for g in (declared, inferred):
        want = reference_build(src, dst, etype, weight, g.node_ids)
        assert g.duplicates_dropped == want.pop("duplicates_dropped")
        for name, expected in want.items():
            got = getattr(g.layout if hasattr(g.layout, name) else g, name)
            if expected is None:
                assert got is None
                continue
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)


@given(edge_tables())
@settings(max_examples=300, deadline=None)
def test_build_matches_three_key_reference(table):
    _check_build(*table)


@pytest.mark.parametrize("seed", range(4))
def test_build_matches_three_key_reference_on_large_tables(seed):
    _check_build(*_large_table(seed))


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
