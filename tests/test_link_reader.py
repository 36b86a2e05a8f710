"""read_link_file against the per-line loop it replaced, plus input fuzzing.

The reference reader below is that loop, with two changes.  Its id
fields follow ``conftest.parse_id``: ASCII digits with a value in
[0, 2**63), so ``" 1"``, ``"+2"``, ``"1_0"`` and non-ASCII digits are
malformed, and ids of any length are read.  And the weight column is
the file's: the first line that is neither blank nor a comment decides
whether every row has one.  The columnar reader must return the same
columns, or raise the same error with the same line number and message,
also when a block size of a few characters splits the file into many
blocks.
"""

import io
import math
import tracemalloc
import warnings
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgsparse import (DataError, LinkFileOptions, LinkFormatError,
                      parse_spec_file, read_link_file, read_node_file)
from hgsparse import hgb_io
from hgsparse.hgb_io import _BLOCK, _IS_SPACE, _opened

from conftest import EdgeRecord, parse_id


def reference_read_link_file(source, opts: LinkFileOptions = LinkFileOptions()) -> list[EdgeRecord]:
    """Parse a link file into EdgeRecords in file order.

    The first line that is neither blank nor a comment decides whether
    every row has a weight: it does when that line has 4 fields.  An
    error names the file when the source is a path.
    """
    error = partial(LinkFormatError, source=None if hasattr(source, "read") else str(source))
    records: list[EdgeRecord] = []
    decider = has_weight = None
    with _opened(source, "r") as stream:
        for line_no, raw in enumerate(stream, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if opts.comment_prefix and line.startswith(opts.comment_prefix):
                continue
            fields = line.split(opts.delimiter)
            if decider is None:
                decider, has_weight = line_no, len(fields) == 4
            if len(fields) not in (3, 4):
                raise error(line_no, f"expected 3 or 4 fields, got {len(fields)}")
            if len(fields) == 4 and not has_weight:
                raise error(line_no, f"unexpected weight column (line {decider} has none)")
            if len(fields) == 3 and has_weight:
                raise error(line_no, f"missing weight column (line {decider} has one)")
            src = parse_id(fields[0], "src", line_no, error)
            dst = parse_id(fields[1], "dst", line_no, error)
            etype = parse_id(fields[2], "etype", line_no, error)
            weight = None
            if has_weight:
                try:
                    weight = float(fields[3])
                except ValueError:
                    raise error(line_no, f"invalid weight {fields[3]!r}") from None
                if not math.isfinite(weight):
                    raise error(line_no, f"non-finite weight {fields[3]!r}")
            records.append(EdgeRecord(src, dst, etype, weight))
    return records


def _outcome(read, source, opts):
    """The columns read, or the error's type, line number and message."""
    try:
        result = read(source, opts)
    except DataError as exc:
        return ("error", type(exc).__name__, getattr(exc, "line_no", None), str(exc))
    if isinstance(result, list):
        columns = [[r[i] for r in result] for i in range(3)]
        weight = [r.weight for r in result] if result and result[0].weight is not None else None
    else:
        for column in (result.src, result.dst, result.etype):
            assert column.dtype == np.int64 and column.shape == (len(result),)
        columns = [c.tolist() for c in (result.src, result.dst, result.etype)]
        weight = None
        if result.weight is not None:
            assert result.weight.dtype == np.float64
            weight = result.weight.tolist()
    return ("ok", columns, weight)


# the default block size, and small ones that split every file into many
# blocks: one line a block, a few characters, a few lines
BLOCKS = (_BLOCK, 1, 7, 64)


def _agree(text: str, opts: LinkFileOptions, blocks=BLOCKS) -> None:
    expected = _outcome(reference_read_link_file, io.StringIO(text), opts)
    for block in blocks:
        with patch.object(hgb_io, "_BLOCK", block):
            assert _outcome(read_link_file, io.StringIO(text), opts) == expected, block


DELIMITERS = ["\t", ",", " ", "|", "→", "　"]

def _mostly(common, rare, odds: int = 30):
    """``rare`` once in ``odds`` draws, else ``common``."""
    return st.integers(1, odds).flatmap(lambda r: rare if r == 1 else common)


ids = _mostly(
    st.one_of(
        st.integers(0, 50).map(str),
        st.integers(0, 2**63 - 1).map(str),
        st.tuples(st.integers(1, 25), st.sampled_from(["0", "1", "42", str(2**63 - 1)]))
          .map(lambda zs: "0" * zs[0] + zs[1]),
    ),
    st.one_of(
        st.sampled_from([str(2**63), str(2**64 - 1), str(2**64), "9" * 20,
                         "1" + "0" * 19, "0" * 7 + str(2**63)]),
        st.sampled_from(["", " 1", "1 ", "+2", "-1", "1_0", "١", "٣٤", "²", "0x1",
                         "1.0", "1e3", "x", "　", "\t1"]),
    ),
)
weights = _mostly(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.sampled_from(["0.5", "1", "-2.5e-3", "1_0.5", " 2 ", "　1.5", "١.٥",
                               "0x1p3", "+.5", "5.", "1E5"])),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "", "x", "1..2"]),
)


@st.composite
def link_texts(draw):
    weighted = draw(st.booleans())
    opts = LinkFileOptions(
        delimiter=draw(st.sampled_from(DELIMITERS)),
        comment_prefix=draw(st.sampled_from([None, "#", "%", "→", " "])))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(_mostly(st.sampled_from(["edge"] * 4 + ["blank", "comment"]),
                            st.just("fields"), odds=20))
        if kind == "edge":
            fields = [draw(ids) for _ in range(3)]
            # mostly the width of the file's first rows, sometimes the other
            if draw(_mostly(st.just(weighted), st.just(not weighted))):
                fields.append(draw(weights))
            line = opts.delimiter.join(fields)
        elif kind == "fields":
            count = draw(st.sampled_from([1, 2, 3, 4, 5]))
            line = opts.delimiter.join(draw(st.one_of(ids, weights)) for _ in range(count))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "  \t ", "\x0b", "\x1c",
                                         "　", "\xa0", "\x85", " "]))
        else:
            prefix = opts.comment_prefix or "#"
            line = prefix + draw(st.text(max_size=10).filter(lambda s: "\n" not in s))
        lines.append(line + draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r\r\n"])))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text, opts


@settings(max_examples=600, deadline=None)
@given(link_texts())
def test_matches_reference_on_generated_files(case):
    _agree(*case)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("0123456789\t\n\r ,#x.-+") + ["١", "→"]),
               max_size=60),
       st.sampled_from(DELIMITERS), st.sampled_from([None, "#", "\t", "→"]))
def test_matches_reference_on_random_text(text, delimiter, comment_prefix):
    _agree(text, LinkFileOptions(delimiter, comment_prefix))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from([b"1", b"07", b"\t", b"\r", b"\n", b"\r\n", b"#",
                                       b" ", b"0.5", b"\xff", b"\xc3\xa9", b"9" * 20]),
                     max_size=30).map(b"".join))
def test_matches_reference_on_disk(tmp_path, data):
    # by path, universal newlines turn a lone CR into a line break, and
    # bytes that are not UTF-8 are a DataError naming the file
    path = tmp_path / "link.dat"
    path.write_bytes(data)
    opts = LinkFileOptions(comment_prefix="#")
    expected = _outcome(reference_read_link_file, path, opts)
    for block in BLOCKS:
        with patch.object(hgb_io, "_BLOCK", block):
            assert _outcome(read_link_file, path, opts) == expected, block


@pytest.mark.parametrize("text", [
    "1\t2\t0\r3\t4\t0\n",           # a lone CR inside a stream's line
    "1\t2\t0\n\n\n",
    "\n\n",
    "1\t2\t0",
    "1\t2\t0\r",
    "01\t002\t0003\n",
    "1\t2\t0\n1\t2\t0\n",          # duplicates are kept in file order
    "1\t\t0\n",
    "\t1\t2\t0\n",
    "1\t2\t\n",
    "1\t2\t\t0.5\n",
    "1\t2\t0\t\n",
    "0" * 100 + "1\t2\t0\n3\t4\t0\n",  # a line longer than the small blocks
    "1\t2\t0\t0.5\n" * 30 + "3\t4\t0\tnan\n",  # a bad weight blocks after the decider
])
def test_matches_reference_on_edge_cases(text):
    _agree(text, LinkFileOptions())


# one defect far down a 200k-line file: the columnar reader finds a bad
# line from its few exception positions, never by looking at every row
FAR_LINE = 199_990


@pytest.mark.parametrize("defect, comment_prefix", [
    ("12\t3x\t0", None),          # a stray character in an id
    ("12\t\t0", None),            # an empty field
    ("12\t3", None),               # a wrong field count
    (f"12\t{2**63}\t0", None),     # an id past int64
    (" \t \t ", None),             # a whitespace-only line, skipped
    ("#12\t3\t0", "#"),           # a comment line, skipped
])
def test_matches_reference_on_a_far_defect(defect, comment_prefix):
    lines = [f"{i}\t{i * 7 % 1000}\t{i % 5}" for i in range(200_000)]
    lines[FAR_LINE - 1] = defect
    # the file is about ten default blocks
    _agree("\n".join(lines) + "\n", LinkFileOptions(comment_prefix=comment_prefix),
           blocks=(_BLOCK,))


@pytest.mark.parametrize("block", BLOCKS)
def test_width_errors_name_the_decider_blocks_later(block):
    # the deciding line comes after blank and comment lines that fill a
    # block, and the faulty row after it, many small blocks later
    head = " \n" * (block // 2 + 10) + "#\n" * 5
    decider = head.count("\n") + 1
    rows = "1\t2\t0\t0.5\n" * 200
    opts = LinkFileOptions(comment_prefix="#")
    with patch.object(hgb_io, "_BLOCK", block):
        assert read_link_file(io.StringIO(head + rows), opts).weight.tolist() == [0.5] * 200
        for tail, message in (("3\t4\t0", f"missing weight column (line {decider} has one)"),
                              ("3\t4\t0\t1\t2", "expected 3 or 4 fields, got 5")):
            with pytest.raises(LinkFormatError) as err:
                read_link_file(io.StringIO(head + rows + tail), opts)
            assert (err.value.line_no, str(err.value)) == (
                decider + 200, f"line {decider + 200}: {message}")
        with pytest.raises(LinkFormatError) as err:
            read_link_file(io.StringIO(head + "1\t2\t0\n" * 200 + "3\t4\t0\t0.5\n"), opts)
        assert str(err.value) == (f"line {decider + 200}: unexpected weight column "
                                  f"(line {decider} has none)")


@pytest.mark.parametrize("block", [_BLOCK, 7])
def test_crlf_split_across_blocks(block):
    # the first read ends between the first line's CR and its newline
    text = "1\t2\t" + "0" * (block - 5) + "\r\n3\t4\t1\r\r\n5\t6\t2\r"
    assert text.index("\r") == block - 1
    with patch.object(hgb_io, "_BLOCK", block):
        table = read_link_file(io.StringIO(text))
    assert table.etype.tolist() == [0, 1, 2]


def test_undecodable_byte_after_a_malformed_line(tmp_path):
    # the whole file is decoded before a malformed line is named, so a
    # bad byte many blocks later is the error, whatever the block size
    path = tmp_path / "link.dat"
    path.write_bytes(b"1\t2\n" + b"3\t4\t0\n" * 20_000 + b"\xff\n")
    for block in (_BLOCK, 64):
        with patch.object(hgb_io, "_BLOCK", block), pytest.raises(DataError) as err:
            read_link_file(path)
        assert str(err.value) == f"{path}: not UTF-8 text"


@pytest.mark.parametrize("kind", ["links", "weighted links", "nodes"])
def test_read_memory_is_bounded_by_blocks(tmp_path, kind):
    # a read holds a few arrays per block, and each id column twice only
    # while it joins that column: about 3.4x this file at most, against 16x
    # for a whole-text read
    tail = "\t0.5\n" if kind == "weighted links" else "\n"
    line = "{i}\tn{i}\t{t}\n" if kind == "nodes" else "{i}\t{t}\t0" + tail
    path = tmp_path / "data.dat"
    path.write_text("".join(line.format(i=i, t=i * 7 % 1000) for i in range(240_000)))
    size = path.stat().st_size
    assert size > 10 * _BLOCK
    read = read_node_file if kind == "nodes" else read_link_file
    tracemalloc.start()
    try:
        table = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 240_000
    assert peak < 4 * size


@pytest.mark.parametrize("delimiter", ["\n", "\r"])
def test_line_break_delimiter_is_rejected(delimiter):
    # a line break can never separate fields: every line would be one field
    with pytest.raises(ValueError, match="delimiter must not be a line break"):
        LinkFileOptions(delimiter=delimiter)


def test_lone_cr_on_disk_is_a_line_break(tmp_path):
    path = tmp_path / "link.dat"
    path.write_bytes(b"1\t2\t0\r3\t4\t1\r\n5\t6\t0")
    table = read_link_file(path)
    assert table.src.tolist() == [1, 3, 5]
    assert table.etype.tolist() == [0, 1, 0]


def test_ids_of_any_length():
    table = read_link_file(io.StringIO("0" * 10_000 + "7\t" + "0" * 30 + "\t"
                                       + str(2**63 - 1) + "\n"))
    assert (table.src.tolist(), table.dst.tolist(), table.etype.tolist()) == (
        [7], [0], [2**63 - 1])
    with pytest.raises(LinkFormatError) as err:
        read_link_file(io.StringIO("0" * 5000 + "1" * 5000 + "\t1\t0\n"))
    assert str(err.value) == f"line 1: src {'1' * 5000} is outside [0, 2**63)"


@pytest.mark.parametrize("field", [" 1", "+2", "1_0", "١", "-1"])
def test_non_ascii_digit_ids_are_rejected(field):
    with pytest.raises(LinkFormatError) as err:
        read_link_file(io.StringIO(f"1\t2\t0\n3\t{field}\t0\n"))
    assert err.value.line_no == 2
    assert str(err.value) == f"line 2: invalid integer {field!r} for dst"


def test_whitespace_table_is_complete():
    # code points past the table clip to its last entry, which is False
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    assert np.flatnonzero(_IS_SPACE).tolist() == spaces
    assert not _IS_SPACE[-1]


node_lines = st.lists(st.one_of(
    st.text(max_size=20),
    st.lists(st.one_of(st.integers(-5, 2**64).map(str), st.text(max_size=5)),
             max_size=6).map("\t".join),
), max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(node_lines, st.binary(max_size=60).map(lambda b: b.decode("latin-1"))))
def test_node_file_fuzz(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            table = read_node_file(io.StringIO(text))
        except DataError:
            return
    assert table.ids.dtype == table.types.dtype == np.int64
    assert table.ids.shape == table.types.shape == (len(table),)
    assert (table.ids >= 0).all() and (table.types >= 0).all()
    assert np.unique(table.ids).shape == table.ids.shape


spec_lines = st.lists(st.one_of(
    st.text(max_size=20),
    st.builds(lambda key, vals: f"{key} = {' '.join(vals)}",
              st.sampled_from(["node_types", "seed", "other"]),
              st.lists(st.one_of(st.integers(-3, 2**64).map(str), st.text(max_size=4)),
                       max_size=4)),
    st.lists(st.one_of(st.integers(-3, 2**64).map(str),
                       st.sampled_from(["0.5", "nan", "inf", "-1", "x"])),
             min_size=4, max_size=4).map(lambda p: "edges " + " ".join(p)),
), max_size=6).map("\n".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=spec_lines, raw=st.binary(max_size=40))
def test_spec_file_fuzz(tmp_path, text, raw):
    path = tmp_path / "spec.txt"
    for data in (text.encode("utf-8", "surrogatepass"), raw):
        path.write_bytes(data)
        try:
            spec = parse_spec_file(path)
        except DataError:
            continue
        assert spec.node_type_sizes and spec.edge_types
