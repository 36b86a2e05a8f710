"""Seeded generator: exact counts, feasibility guards, skew control and pins."""

import hashlib
import io
import re

import numpy as np
import pytest

from hgsparse import (
    DataError,
    EdgeTypeSpec,
    GenSpec,
    GenSpecError,
    InfeasibleSpecError,
    RetryCapError,
    generate,
    parse_spec_file,
    pubmed_like_spec,
)


def total_edges(spec: GenSpec) -> int:
    return sum(e.count for e in spec.edge_types)


def test_trivial_spec():
    g = generate(GenSpec((4,), (EdgeTypeSpec(0, 0, 3, 0.0),)))
    assert g.n == 4 and g.m == 3 and g.t == 1


def test_exact_counts_per_edge_type():
    spec = GenSpec((30, 20), (EdgeTypeSpec(0, 1, 50, 0.5),
                              EdgeTypeSpec(1, 0, 80, 1.0),
                              EdgeTypeSpec(0, 0, 40, 0.0)), seed=5)
    g = generate(spec)
    assert g.m == total_edges(spec) == 170
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


def test_node_table_past_int64_is_refused():
    # the first sizes sum to 2**64 + 1, which int64 arithmetic wraps to 1
    for sizes in ((2**63 - 1, 3, 2**63 - 1), (2**63 - 1, 1), (2**63 - 1,)):
        with pytest.raises(GenSpecError, match=f"cannot allocate a table of {sum(sizes)} "):
            generate(GenSpec(sizes, (EdgeTypeSpec(1 % len(sizes), 0, 1),)))


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
    with pytest.raises(GenSpecError, match="seed must be in"):
        GenSpec((4,), (EdgeTypeSpec(0, 0, 1),), seed=1.5)
    # non-integers that numpy would otherwise reject deep inside generate
    with pytest.raises(GenSpecError, match="must be integers"):
        GenSpec((4,), (EdgeTypeSpec(0, 0, 2.5),))
    with pytest.raises(GenSpecError, match="must be integers"):
        GenSpec((4.5,), (EdgeTypeSpec(0, 0, 2),))
    with pytest.raises(GenSpecError, match="must be integers"):
        GenSpec((4,), (EdgeTypeSpec(0.0, 0, 2),))
    # alphas on which numpy's isfinite raises TypeError
    for alpha in ("x", None, 1j, 10**400):
        with pytest.raises(GenSpecError, match="alpha must be finite"):
            GenSpec((3,), ((0, 0, 2, alpha),))


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
    assert total_edges(parse_spec_file(path)) == 3


def test_unreadable_spec_path_is_a_data_error(tmp_path):
    # like a link file's, so the CLI exits 2 and names the path
    for path in (str(tmp_path / "missing.spec"), str(tmp_path)):
        with pytest.raises(DataError, match=f"^{re.escape(path)}: "):
            parse_spec_file(path)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GenSpecError, match="line 2"):
        parse_spec_file(io.StringIO("node_types = 5\nedges 0 0\n"))
    with pytest.raises(GenSpecError, match="line 1"):
        parse_spec_file(io.StringIO("budget = 5\n"))
    with pytest.raises(GenSpecError, match="line 2"):
        parse_spec_file(io.StringIO("node_types = 5\nedges 0 0 x 0\n"))
    with pytest.raises(GenSpecError, match="line 1"):
        parse_spec_file(io.StringIO("what even is this\n"))


def test_parse_errors_name_their_source(tmp_path):
    # a path, or a stream with a name, prefixes the message; a stream
    # without one leaves it bare
    path = tmp_path / "bad.spec"
    for text, message in (("node_types = 4\nfoo = 1\n", "line 2: unknown key 'foo'"),
                          ("node_types = 4\nedges 0 0 x 0\n",
                           "line 2: invalid number in 'edges 0 0 x 0'"),
                          ("node_types = 4\n", "spec file declares no edge types"),
                          ("node_types = 0\nedges 0 0 1 0\n",
                           "node type sizes must be positive")):
        path.write_text(text)
        with open(path, encoding="utf-8") as stream:
            for source, want in ((path, f"{path}: {message}"), (str(path), f"{path}: {message}"),
                                 (stream, f"{path}: {message}"), (io.StringIO(text), message)):
                with pytest.raises(GenSpecError) as err:
                    parse_spec_file(source)
                assert str(err.value) == want


def test_edges_keyword_is_the_first_word():
    # a word that only starts with "edges" is no edge type
    for line in ("edgesXYZ 0 0 1 0.5", "edges2 0 0 1 0"):
        with pytest.raises(GenSpecError, match=f"^line 2: unrecognized line {re.escape(repr(line))}$"):
            parse_spec_file(io.StringIO(f"node_types = 4\n{line}\nedges 0 0 1 0\n"))
    with pytest.raises(GenSpecError, match="^line 1: unknown key 'edges'$"):
        parse_spec_file(io.StringIO("edges=1\n"))
    # any whitespace ends the word
    spec = parse_spec_file(io.StringIO("node_types = 4\nedges\t0 0 1 0.5\n"))
    assert spec.edge_types == (EdgeTypeSpec(0, 0, 1, 0.5),)


def test_parse_requires_both_sections():
    with pytest.raises(GenSpecError, match="node_types"):
        parse_spec_file(io.StringIO("edges 0 0 1 0\n"))
    with pytest.raises(GenSpecError, match="edge types"):
        parse_spec_file(io.StringIO("node_types = 4\n"))


def test_pubmed_like_shape():
    spec = pubmed_like_spec(seed=0)
    assert sum(spec.node_type_sizes) == 63109
    assert total_edges(spec) == 236458
    assert len(spec.edge_types) == 10
    g = generate(spec)
    stats = g.stats()
    assert stats.n == 63109 and stats.m == 236458
    assert stats.edges_per_node == pytest.approx(3.7, abs=0.1)
    assert stats.edge_type_count == 10


# ---- golden pins of the generator's output ----
#
# sha256 of the int64 src, dst and etype columns (dense ids, canonical
# order) of two generated graphs.  The generator draws from the
# counter-keyed stream, so these hold whatever the numpy version; a change
# of any digest changes every graph built from a spec and must be deliberate.

GOLDEN_GENERATED = {
    "pubmed_like_spec(0)": (
        "787a5ac2f418009a0738ddf4dbe50df2380f4444bbe99a36101e0a3b2c944f15",
        "85b1f73a43a42a648661dfac7449d953106fd1247886f1aeb9b38fc82afd42cc",
        "7dca5f92d2f7d90a8bce68163b282ecb73b2e15c089546175db51e4cdc5261be"),
    "two types": (
        "4625ec5df4fe3f1a9c83edd06fc5839d4da9c226f64846329cccf8ee993a2724",
        "f70fca57a1be8191eb5c031926e0e43e774e9a42bd844f718c9409bd2a350076",
        "86bef4115383c1d3e5eb32887fb6b195b3686034a8566cf85fc3392b671926fd"),
}
GOLDEN_SPECS = {
    "pubmed_like_spec(0)": lambda: pubmed_like_spec(0),
    "two types": lambda: GenSpec((30, 20), (EdgeTypeSpec(0, 1, 50, 0.5),
                                            EdgeTypeSpec(1, 0, 80, 1.0)), seed=9),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GENERATED))
def test_generate_golden(name):
    g = generate(GOLDEN_SPECS[name]())
    digests = tuple(hashlib.sha256(np.ascontiguousarray(column, dtype=np.int64).tobytes())
                    .hexdigest() for column in (g.src, g.dst, g.etype))
    assert digests == GOLDEN_GENERATED[name]
