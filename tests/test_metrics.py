"""Verification helpers: coverage floors, isolation, per-type counts."""

import hashlib
import json

import numpy as np
import pytest

from hgsparse import (
    ALL_TYPES,
    PER_TYPE,
    build_graph,
    coverage_report,
    generate,
    isolated_nodes,
    per_type_kept,
    pubmed_like_spec,
)

from conftest import mask_of


def test_full_selection_never_violates(g1, k33):
    for g in (g1, k33):
        for k in (1, 2, 5):
            assert coverage_report(g, g.edge_mask(None), k) == []


def test_empty_selection_flags_every_bucket(g1):
    # G1's nonempty buckets: out (1,etype 0), (1,etype 1); in (2,0), (3,0), (4,1)
    report = coverage_report(g1, np.zeros(3, dtype=bool), 1)
    assert len(report) == 5
    assert {(v.node, v.direction, v.etype) for v in report} == {
        (1, "out", 0), (1, "out", 1),
        (2, "in", 0), (3, "in", 0), (4, "in", 1),
    }
    assert all(v.actual == 0 and v.required == 1 for v in report)


def test_per_type_floor_tracks_bucket_size(g1):
    # k=2 demands both edges of the size-2 bucket out(1, etype 0)
    report = coverage_report(g1, mask_of(g1, [(1, 2, 0), (1, 4, 1)]), 2)
    assert [(v.node, v.direction, v.etype, v.required, v.actual)
            for v in report] == [(1, "out", 0, 2, 1), (3, "in", 0, 1, 0)]


def test_all_types_floor_is_one(g1):
    H = mask_of(g1, [(1, 2, 0), (1, 4, 1)])
    report = coverage_report(g1, H, 2, method=ALL_TYPES)
    assert [(v.node, v.direction, v.etype) for v in report] == [(3, "in", 0)]
    assert report[0].required == 1


def test_coverage_report_holds_k_and_method_to_the_sparsify_rule(g1):
    # the same k and method that SparsifyParams rejects
    for k, method, message in ((1.5, PER_TYPE, "k must be a positive integer, got 1.5"),
                               (0, PER_TYPE, "k must be a positive integer, got 0"),
                               (1, "bogus", "method must be one of")):
        with pytest.raises(ValueError, match=message):
            coverage_report(g1, None, k, method)


def test_violation_to_dict(g1):
    v = coverage_report(g1, np.zeros(3, dtype=bool), 1)[0]
    assert v.to_dict() == {"node": 1, "direction": "out", "etype": 0,
                           "required": 1, "actual": 0}


def test_isolated_nodes_examples(g1):
    assert isolated_nodes(g1, mask_of(g1, [(1, 2, 0)])) == {3, 4}
    assert isolated_nodes(g1, None) == set()
    assert isolated_nodes(g1, np.zeros(3, dtype=bool)) == {1, 2, 3, 4}


def test_isolated_ignores_already_isolated():
    g = build_graph([(1, 2, 0)], node_types={1: 0, 2: 0, 3: 0})
    # node 3 has no edges at all, so dropping everything does not isolate it
    assert isolated_nodes(g, np.zeros(1, dtype=bool)) == {1, 2}


def test_per_type_kept(g1):
    assert per_type_kept(g1, None) == {0: 2, 1: 1}
    assert per_type_kept(g1, mask_of(g1, [(1, 4, 1)])) == {0: 0, 1: 1}


# ---- golden pins of the coverage check and the graph summary ----
#
# sha256 of the JSON (sorted keys) of every violation that coverage_report
# lists on the PubMed-shaped graph when only every 7th edge is kept, so
# the pin covers the out-then-in, (node, etype) order of many violations
# in both directions; and of stats() and degrees() on the same graph.

GOLDEN_PUBMED_COVERAGE = {
    PER_TYPE: (109625, "fc74a928ea6c5a358f077d207bd020b36e5fe199c0b655496613f407d5c5fe3f"),
    ALL_TYPES: (88708, "fdc6751825cc6a6a6a3cb4b7017f278350390d69ae2b46fde6e091b0f3fd1312"),
}
GOLDEN_PUBMED_STATS = "0dab6edaae52a4d2555b5d7fe9104910d85d760d4c0411cb3461d6ec4641c2e6"
GOLDEN_PUBMED_DEGREES = "fd2159af92d49e66d6c1ccdf708f768f2e759eecbab4ed22264e47cdda8dba18"


def _json_sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_coverage_and_stats_golden_pubmed_like():
    g = generate(pubmed_like_spec(0))
    mask = np.zeros(g.m, dtype=bool)
    mask[::7] = True
    for method, (count, digest) in GOLDEN_PUBMED_COVERAGE.items():
        report = [v.to_dict() for v in coverage_report(g, mask, 3, method)]
        assert {v["direction"] for v in report} == {"out", "in"}
        assert (len(report), _json_sha(report)) == (count, digest)
    assert _json_sha(g.stats().to_dict()) == GOLDEN_PUBMED_STATS
    degrees = np.ascontiguousarray(g.degrees(), dtype=np.int64)
    assert hashlib.sha256(degrees.tobytes()).hexdigest() == GOLDEN_PUBMED_DEGREES
