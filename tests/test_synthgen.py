"""Seeded generator: exact counts, feasibility guards, and skew control."""

import io

import numpy as np
import pytest

from hgsparse import (
    EdgeTypeSpec,
    GenSpec,
    GenSpecError,
    InfeasibleSpecError,
    RetryCapError,
    generate,
    parse_spec_file,
    pubmed_like_spec,
)


def test_trivial_spec():
    g = generate(GenSpec((4,), (EdgeTypeSpec(0, 0, 3, 0.0),)))
    assert g.n == 4 and g.m == 3 and g.t == 1


def test_exact_counts_per_edge_type():
    spec = GenSpec((30, 20), (EdgeTypeSpec(0, 1, 50, 0.5),
                              EdgeTypeSpec(1, 0, 80, 1.0),
                              EdgeTypeSpec(0, 0, 40, 0.0)), seed=5)
    g = generate(spec)
    assert g.m == spec.total_edges == 170
    assert g.stats().per_edge_type == {0: 50, 1: 80, 2: 40}
    assert g.duplicates_dropped == 0


def test_node_table_layout():
    g = generate(GenSpec((3, 2), (EdgeTypeSpec(0, 1, 4),), seed=1))
    assert list(g.node_ids) == [0, 1, 2, 3, 4]
    assert list(g.node_types) == [0, 0, 0, 1, 1]


def test_endpoints_respect_declared_types():
    spec = GenSpec((10, 10), (EdgeTypeSpec(0, 1, 60, 1.0),), seed=3)
    g = generate(spec)
    assert set(g.node_types[g.src].tolist()) == {0}
    assert set(g.node_types[g.dst].tolist()) == {1}


def test_same_seed_reproduces():
    spec = GenSpec((25,), (EdgeTypeSpec(0, 0, 100, 1.0),), seed=11)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.etype, b.etype)


def test_seeds_differ():
    base = ((25,), (EdgeTypeSpec(0, 0, 100, 1.0),))
    a = generate(GenSpec(*base, seed=1))
    b = generate(GenSpec(*base, seed=2))
    assert not (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst))


def test_infeasible_count():
    with pytest.raises(InfeasibleSpecError):
        generate(GenSpec((4,), (EdgeTypeSpec(0, 0, 20),)))


def test_redraw_cap_trips_on_near_complete_skew():
    # demanding all 16 cells under alpha=4 needs far more than the
    # redraw budget allows
    with pytest.raises(RetryCapError):
        generate(GenSpec((4,), (EdgeTypeSpec(0, 0, 16, 4.0),), seed=0))


def test_alpha_concentrates_mass():
    flat = generate(GenSpec((200,), (EdgeTypeSpec(0, 0, 800, 0.0),), seed=7))
    skew = generate(GenSpec((200,), (EdgeTypeSpec(0, 0, 800, 1.5),), seed=7))
    assert skew.stats().max_bucket >= 3 * flat.stats().max_bucket


def test_spec_validation():
    with pytest.raises(GenSpecError):
        GenSpec((), (EdgeTypeSpec(0, 0, 1),))
    with pytest.raises(GenSpecError):
        GenSpec((0,), (EdgeTypeSpec(0, 0, 1),))
    with pytest.raises(GenSpecError):
        GenSpec((4,), (EdgeTypeSpec(0, 1, 1),))
    with pytest.raises(GenSpecError):
        GenSpec((4,), (EdgeTypeSpec(0, 0, 0),))
    with pytest.raises(GenSpecError):
        GenSpec((4,), (EdgeTypeSpec(0, 0, 1, -0.5),))
    with pytest.raises(GenSpecError):
        GenSpec((4,), (EdgeTypeSpec(0, 0, 1),), seed=-1)


def test_parse_spec_file():
    text = """\
# two populations
node_types = 30 20
seed = 9

edges 0 1 50 0.5
edges 1 0 80 1
"""
    spec = parse_spec_file(io.StringIO(text))
    assert spec == GenSpec((30, 20), (EdgeTypeSpec(0, 1, 50, 0.5),
                                      EdgeTypeSpec(1, 0, 80, 1.0)), seed=9)


def test_parse_spec_file_from_path(tmp_path):
    path = tmp_path / "g.spec"
    path.write_text("node_types = 5\nedges 0 0 3 0\n")
    assert parse_spec_file(path).total_edges == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GenSpecError, match="line 2"):
        parse_spec_file(io.StringIO("node_types = 5\nedges 0 0\n"))
    with pytest.raises(GenSpecError, match="line 1"):
        parse_spec_file(io.StringIO("budget = 5\n"))
    with pytest.raises(GenSpecError, match="line 2"):
        parse_spec_file(io.StringIO("node_types = 5\nedges 0 0 x 0\n"))
    with pytest.raises(GenSpecError, match="line 1"):
        parse_spec_file(io.StringIO("what even is this\n"))


def test_parse_requires_both_sections():
    with pytest.raises(GenSpecError, match="node_types"):
        parse_spec_file(io.StringIO("edges 0 0 1 0\n"))
    with pytest.raises(GenSpecError, match="edge types"):
        parse_spec_file(io.StringIO("node_types = 4\n"))


def test_pubmed_like_shape():
    spec = pubmed_like_spec(seed=0)
    assert sum(spec.node_type_sizes) == 63109
    assert spec.total_edges == 236458
    assert len(spec.edge_types) == 10
    g = generate(spec)
    stats = g.stats()
    assert stats.n == 63109 and stats.m == 236458
    assert stats.edges_per_node == pytest.approx(3.7, abs=0.1)
    assert stats.edge_type_count == 10
