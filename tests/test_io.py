"""Link/node file parsing, strict field handling, and byte-stable writers."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import (
    DataError,
    LinkFileOptions,
    LinkFormatError,
    NodeFileError,
    build_graph,
    build_graph_arrays,
    parse_spec_file,
    read_link_file,
    read_node_file,
    write_link_file,
    write_node_file,
    write_report,
)

from conftest import EdgeRecord


def _rows(table) -> list[tuple]:
    weights = table.weight.tolist() if table.weight is not None else [None] * len(table)
    return list(zip(table.src.tolist(), table.dst.tolist(), table.etype.tolist(), weights))


def test_two_line_parse():
    table = read_link_file(io.StringIO("1\t2\t0\n1\t3\t0\n"))
    assert len(table) == 2
    assert _rows(table) == [(1, 2, 0, None), (1, 3, 0, None)]
    assert table.weight is None
    for column in (table.src, table.dst, table.etype):
        assert column.dtype == np.int64


def test_weighted_parse():
    table = read_link_file(io.StringIO("1\t2\t0\t0.5\n"))
    assert _rows(table) == [(1, 2, 0, 0.5)]
    assert table.weight.dtype == np.float64


def test_two_fields_is_an_error():
    with pytest.raises(LinkFormatError) as err:
        read_link_file(io.StringIO("1\t2\n"))
    assert err.value.line_no == 1
    assert "expected 3" in str(err.value) and "got 2" in str(err.value)


def test_field_count_must_match_first_row():
    # the first line that is neither blank nor a comment decides the width
    opts = LinkFileOptions(comment_prefix="#")
    with pytest.raises(LinkFormatError) as err:
        read_link_file(io.StringIO("# w\n\n1\t2\t0\n1\t3\t0\t0.5\n"), opts)
    assert str(err.value) == "line 4: unexpected weight column (line 3 has none)"
    with pytest.raises(LinkFormatError) as err:
        read_link_file(io.StringIO("1\t2\t0\t0.5\n1\t3\t0\n"))
    assert str(err.value) == "line 2: missing weight column (line 1 has one)"


def test_line_numbers_count_skipped_lines():
    text = "# header\n\n1\t2\t0\nbad\t2\t0\n"
    opts = LinkFileOptions(comment_prefix="#")
    with pytest.raises(LinkFormatError) as err:
        read_link_file(io.StringIO(text), opts)
    assert err.value.line_no == 4


def test_non_finite_weight_rejected_at_parse():
    with pytest.raises(LinkFormatError):
        read_link_file(io.StringIO("1\t2\t0\tnan\n"))
    with pytest.raises(LinkFormatError):
        read_link_file(io.StringIO("1\t2\t0\tinf\n"))


def test_errors_name_a_file_or_a_named_stream(tmp_path):
    # a path names its file and a stream its name; a stream without one
    # gives the fault alone
    links, nodes = tmp_path / "link.dat", tmp_path / "node.dat"
    links.write_text("1\t2\t0\n3\t4\n")
    nodes.write_text("1\ta\t0\n1\tb\t0\n")
    for read, path, cls, message in (
            (read_link_file, links, LinkFormatError, "line 2: expected 3 or 4 fields, got 2"),
            (read_node_file, nodes, NodeFileError, "line 2: duplicate node id 1")):
        for source in (path, str(path)):
            with pytest.raises(cls) as err:
                read(source)
            assert (err.value.line_no, str(err.value)) == (2, f"{path}: {message}")
        with open(path) as stream, pytest.raises(cls) as err:
            read(stream)
        assert str(err.value) == f"{path}: {message}"
        with pytest.raises(cls) as err:
            read(io.StringIO(path.read_text()))
        assert str(err.value) == message
    with pytest.raises(DataError) as err:
        read_link_file(io.TextIOWrapper(io.BytesIO(b"1\t2\t0\n\xff\n"), encoding="utf-8"))
    assert str(err.value) == "not UTF-8 text"


def test_custom_delimiter():
    table = read_link_file(io.StringIO("1,2,0\n"), LinkFileOptions(delimiter=","))
    assert _rows(table) == [(1, 2, 0, None)]


def test_delimiter_validation():
    with pytest.raises(ValueError):
        LinkFileOptions(delimiter="::")
    with pytest.raises(ValueError):
        LinkFileOptions(delimiter="7")
    with pytest.raises(ValueError):
        LinkFileOptions(comment_prefix="too long")


def test_digit_comment_prefix_is_rejected():
    # a digit prefix would skip every edge whose src starts with it
    for prefix in ("1", "0", "٣"):
        with pytest.raises(ValueError, match="comment_prefix must not be a digit"):
            LinkFileOptions(comment_prefix=prefix)


def test_comment_prefix_equal_to_the_delimiter_is_rejected():
    # a line with an empty first field would be both malformed and a comment
    for delimiter in ("\t", ",", " ", "→"):
        with pytest.raises(ValueError, match="comment_prefix must not be the delimiter"):
            LinkFileOptions(delimiter=delimiter, comment_prefix=delimiter)
    with pytest.raises(ValueError, match="comment_prefix must not be the delimiter"):
        LinkFileOptions(comment_prefix="\t")  # the default delimiter


def _nodes(table) -> tuple[list, list]:
    for column in (table.ids, table.types):
        assert column.dtype == np.int64 and column.shape == (len(table),)
    return table.ids.tolist(), table.types.tolist()


def test_node_file_basic():
    assert _nodes(read_node_file(io.StringIO("7\tgeneX\t0\n"))) == ([7], [0])


def test_node_file_duplicate_id():
    with pytest.raises(NodeFileError) as err:
        read_node_file(io.StringIO("7\ta\t0\n7\tb\t0\n"))
    assert err.value.line_no == 2


def test_node_file_empty():
    assert _nodes(read_node_file(io.StringIO(""))) == ([], [])


def test_node_file_extra_columns_warn_once():
    with pytest.warns(UserWarning, match="attribute column"):
        got = read_node_file(io.StringIO("1\tx\t0\textra\n2\ty\t1\textra\n"))
    assert _nodes(got) == ([1, 2], [0, 1])


def test_node_file_short_line():
    with pytest.raises(NodeFileError):
        read_node_file(io.StringIO("1\tx\n"))


@pytest.mark.parametrize("line,message", [
    ("1_0\tx\t0", "invalid integer '1_0' for node id"),
    (" 1\tx\t0", "invalid integer ' 1' for node id"),
    ("+2\tx\t0", "invalid integer '+2' for node id"),
    ("-2\tx\t0", "invalid integer '-2' for node id"),
    ("\u0663\tx\t0", "invalid integer '\u0663' for node id"),
    ("3\tx\t1 ", "invalid integer '1 ' for node type"),
    ("3\tx\t", "invalid integer '' for node type"),
    (f"{2**63}\tx\t0", f"node id {2**63} is outside [0, 2**63)"),
    (f"3\tx\t{'9' * 5000}", f"node type {'9' * 5000} is outside [0, 2**63)"),
])
def test_node_file_ids_are_ascii_digits(line, message):
    # the link-file id grammar: [0-9]+ with a value in [0, 2**63)
    with pytest.raises(NodeFileError) as err:
        read_node_file(io.StringIO(f"7\ta\t0\n{line}\n"))
    assert str(err.value) == f"line 2: {message}"


def test_node_file_leading_zeros_and_crlf():
    # more leading zeros than int() takes digits
    text = f"{'0' * 5000}7\ta\t01\r\n{2**63 - 1}\tb\t0\r\n"
    assert _nodes(read_node_file(io.StringIO(text))) == ([7, 2**63 - 1], [1, 0])


def test_write_all_edges_canonical(g1):
    out = io.StringIO()
    assert write_link_file(g1, out) == 3
    assert out.getvalue() == "1\t2\t0\n1\t3\t0\n1\t4\t1\n"


def test_write_subset(g1):
    out = io.StringIO()
    assert write_link_file(g1, out, selected=np.array([False, False, True])) == 1
    assert out.getvalue() == "1\t4\t1\n"


def test_write_preserves_weight_column():
    g = build_graph([(1, 2, 0, 0.5), (2, 3, 0, -0.0)])
    out = io.StringIO()
    write_link_file(g, out)
    assert out.getvalue() == "1\t2\t0\t0.5\n2\t3\t0\t-0.0\n"
    out.seek(0)
    table = read_link_file(out)
    assert _rows(table) == [(1, 2, 0, 0.5), (2, 3, 0, -0.0)]
    assert np.signbit(table.weight).tolist() == [False, True]


def _graph(table):
    return build_graph_arrays(table.src, table.dst, table.etype, weight=table.weight)


def _reference_write(g, dest, selected=None) -> int:
    # the per-row writer that write_link_file replaced
    mask = g.edge_mask(selected)
    ids = np.flatnonzero(mask)
    src = g.node_ids[g.src[ids]]
    dst = g.node_ids[g.dst[ids]]
    etype = g.etype[ids]
    weights = g.weight[ids] if g.weight is not None else None
    for i in range(ids.shape[0]):
        line = f"{src[i]}\t{dst[i]}\t{etype[i]}"
        if weights is not None:
            line += f"\t{float(weights[i])!r}"
        dest.write(line + "\n")
    return int(ids.shape[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writer_matches_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    m = 300
    weight = rng.choice([0.1, 1e-300, 2.5, 1e300, -0.0, 1 / 3], size=m)
    base = [0, 10**12, 2**63 - 41][seed]  # up to the largest int64 id
    g = build_graph_arrays(base + rng.integers(0, 40, size=m),
                           base + rng.integers(0, 40, size=m), rng.integers(0, 5, size=m),
                           weight=weight if seed else None)
    selected = rng.random(g.m) < 0.5
    new, old = io.StringIO(), io.StringIO()
    assert write_link_file(g, new, selected) == _reference_write(g, old, selected)
    assert new.getvalue() == old.getvalue()


# every digit count a value can have, at both ends: 0, 9, 10, 99, 100, ...
_DIGIT_BOUNDARIES = sorted({0, 9, 10, 2**63 - 1}
                           | {10**j - 1 for j in range(2, 19)} | {10**j for j in range(2, 19)})


def test_writer_matches_reference_at_digit_boundaries():
    ids = np.array(_DIGIT_BOUNDARIES, dtype=np.int64)
    rev = ids[::-1].copy()
    for weight in (None, np.linspace(-1, 1, ids.shape[0])):
        g = build_graph_arrays(ids, rev, np.roll(ids, 3), weight=weight)
        # all edges, none, and each single edge
        selections = [None, np.zeros(g.m, dtype=bool)] + list(np.eye(g.m, dtype=bool))
        for selected in selections:
            new, old = io.StringIO(), io.StringIO()
            assert (write_link_file(g, new, selected)
                    == _reference_write(g, old, selected))
            assert new.getvalue() == old.getvalue()


def test_node_writer_matches_reference_at_digit_boundaries():
    ids = np.array(_DIGIT_BOUNDARIES, dtype=np.int64)
    types = ids[::-1].copy()
    for rows in (slice(0, 0), slice(0, 1), slice(-1, None), slice(None)):
        new, old = io.StringIO(), io.StringIO()
        args = (ids[rows], types[rows])
        assert write_node_file(new, *args) == _reference_write_nodes(old, *args)
        assert new.getvalue() == old.getvalue()
    # the reader takes no sign, so the writer writes none
    for negative in (-1, -9, -10, -(2**63 - 1), -2**63):
        for args in (([negative], [0]), ([0], [negative])):
            out = io.StringIO()
            with pytest.raises(ValueError, match=f"holds {negative}, not an integer"):
                write_node_file(out, *args)
            assert out.getvalue() == ""


_node_ids = st.one_of(st.integers(0, 50), st.integers(0, 2**63 - 1),
                      st.sampled_from(_DIGIT_BOUNDARIES))


@given(edges=st.lists(st.tuples(_node_ids, _node_ids, _node_ids), max_size=40),
       weights=st.one_of(st.none(), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=40, max_size=40)),
       keep=st.lists(st.booleans(), min_size=40, max_size=40))
@settings(max_examples=200, deadline=None)
def test_write_read_build_round_trip(edges, weights, keep):
    weight = None if weights is None else np.array(weights[:len(edges)])
    g = build_graph_arrays(*np.array(edges, dtype=np.int64).reshape(-1, 3).T, weight=weight)
    mask = np.array(keep[:g.m], dtype=bool)
    out = io.StringIO()
    assert write_link_file(g, out, mask) == int(mask.sum())
    table = read_link_file(io.StringIO(out.getvalue()))
    back = build_graph_arrays(table.src, table.dst, table.etype, weight=table.weight,
                              node_ids=g.node_ids)
    for name in ("src", "dst", "etype"):
        np.testing.assert_array_equal(getattr(back, name), getattr(g, name)[mask])
    if weight is None or not mask.any():  # a file without rows has no weights
        assert back.weight is None
    else:  # repr gives back every bit, the sign of -0.0 included
        np.testing.assert_array_equal(back.weight.view(np.int64),
                                      g.weight[mask].view(np.int64))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_record_kinds = (st.tuples(_node_ids, _node_ids, _node_ids),
                 st.tuples(_node_ids, _node_ids, _node_ids, _finite),
                 st.builds(EdgeRecord, _node_ids, _node_ids, _node_ids, weight=st.none()))


@given(records=st.one_of(*(st.lists(kind, max_size=30) for kind in _record_kinds),
                         st.lists(st.one_of(*_record_kinds), max_size=30)))
@settings(max_examples=200, deadline=None)
def test_built_records_round_trip(records):
    # a graph is weighted on every edge or on none, so whatever the record
    # builder accepts, the writer writes and the reader reads back
    weighted = sum(len(rec) == 4 and rec[3] is not None for rec in records)
    if 0 < weighted < len(records):
        with pytest.raises(ValueError):
            build_graph(records)
        return
    g = build_graph(records)
    out = io.StringIO()
    assert write_link_file(g, out) == g.m
    table = read_link_file(io.StringIO(out.getvalue()))
    for name in ("src", "dst"):
        np.testing.assert_array_equal(getattr(table, name), g.node_ids[getattr(g, name)])
    np.testing.assert_array_equal(table.etype, g.etype)
    if weighted:
        np.testing.assert_array_equal(table.weight.view(np.int64), g.weight.view(np.int64))
    else:
        assert g.weight is None and table.weight is None


def test_missing_paths_are_named_in_full(g1, tmp_path):
    missing = tmp_path / "nope" / "link.dat"
    for call in (read_link_file, read_node_file, parse_spec_file,
                 lambda path: write_link_file(g1, path)):
        for source in (missing, str(missing)):
            with pytest.raises(DataError) as info:
                call(source)
            assert str(info.value) == f"{missing}: No such file or directory"


def test_roundtrip_is_byte_stable(tmp_path):
    text = "5\t1\t2\n1\t5\t0\n1\t2\t0\n1\t2\t1\n"
    g = _graph(read_link_file(io.StringIO(text)))
    first = tmp_path / "a.dat"
    second = tmp_path / "b.dat"
    write_link_file(g, first)
    write_link_file(_graph(read_link_file(first)), second)
    assert first.read_bytes() == second.read_bytes()


def test_write_node_file(tmp_path):
    path = tmp_path / "node.dat"
    write_node_file(path, [3, 7], [1, 0])
    assert path.read_text() == "3\tn3\t1\n7\tn7\t0\n"
    write_node_file(path, [3], [1])
    assert path.read_text() == "3\tn3\t1\n"
    assert _nodes(read_node_file(path)) == ([3], [1])


def _reference_write_nodes(dest, node_ids, node_types) -> int:
    # the per-row writer that write_node_file replaced
    node_ids = np.asarray(node_ids, dtype=np.int64)
    node_types = np.asarray(node_types, dtype=np.int64)
    for i in range(node_ids.shape[0]):
        dest.write(f"{node_ids[i]}\tn{node_ids[i]}\t{node_types[i]}\n")
    return int(node_ids.shape[0])


def test_node_writer_matches_per_row_reference():
    rng = np.random.default_rng(3)
    ids = np.concatenate(([0, 2**63 - 1], rng.integers(0, 2**62, size=200)))
    types = rng.integers(0, 2**40, size=ids.shape[0])
    for count in (0, 1, ids.shape[0]):
        new, old = io.StringIO(), io.StringIO()
        args = (ids[:count], types[:count])
        assert write_node_file(new, *args) == _reference_write_nodes(old, *args) == count
        assert new.getvalue() == old.getvalue()
    with pytest.raises(ValueError):
        write_node_file(io.StringIO(), ids[:2], types[:1])


# whole numbers in and out of [0, 2**63), as ints and as floats, and
# fractions; few small ids, so they repeat
_table_values = st.one_of(st.integers(0, 9), st.integers(0, 2**63 - 1),
                          st.sampled_from([-1, -2**63, 2**53 + 1, 2**63 - 1, 2**63, 2**64]),
                          st.sampled_from([0.0, 3.0, -1.0, 2.5, 2.0**63, float("nan")]))


def _is_id(value) -> bool:
    return float(value).is_integer() and 0 <= int(value) < 2**63


@given(rows=st.lists(st.tuples(_table_values, _table_values), max_size=12))
@settings(max_examples=300, deadline=None)
def test_node_writer_writes_only_what_the_reader_reads(rows):
    ids = [node for node, _ in rows]
    types = [kind for _, kind in rows]
    valid = all(map(_is_id, ids + types)) and len(set(map(int, ids))) == len(ids)
    out = io.StringIO()
    if not valid:
        with pytest.raises(ValueError):
            write_node_file(out, ids, types)
        assert out.getvalue() == ""
        return
    assert write_node_file(out, ids, types) == len(rows)
    assert _nodes(read_node_file(io.StringIO(out.getvalue()))) == (
        [int(node) for node in ids], [int(kind) for kind in types])


def test_node_writer_rejects_before_opening(tmp_path):
    path = tmp_path / "node.dat"
    for ids, types, message in (([2.5, 3], [0, 1], "node_ids holds 2.5"),
                                ([3, 3], [0, 1], "duplicate node id 3"),
                                ([1, 2], [0, 2**63], f"node_types holds {2**63}"),
                                ([-1], [0], "node_ids holds -1")):
        with pytest.raises(ValueError, match=message):
            write_node_file(path, ids, types)
        assert not path.exists()


def test_node_table_rule_names_the_first_repeat():
    # the first repeat in row order is id 5, not the smallest repeated id
    ids, types = [5, 3, 5, 3], [0, 0, 0, 0]
    for table in (lambda: build_graph_arrays([5], [3], [0], node_ids=ids, node_types=types),
                  lambda: write_node_file(io.StringIO(), ids, types)):
        with pytest.raises(ValueError) as err:
            table()
        assert str(err.value) == "duplicate node id 5 in node table"
    text = "".join(f"{node}\tn{node}\t0\n" for node in ids)
    with pytest.raises(NodeFileError) as err:
        read_node_file(io.StringIO(text))
    assert str(err.value) == "line 3: duplicate node id 5"


def test_report_is_sorted_json(tmp_path):
    path = tmp_path / "r.json"
    write_report({"b": 1, "a": [1, 2]}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2], "b": 1}
    assert text.index('"a"') < text.index('"b"')
