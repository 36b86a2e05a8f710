"""read_node_file against the per-line loop it replaced.

The reference reader below is that loop.  The columnar reader must
return the same ids and types in file order, or raise the same
error with the same line number and message, and warn about extra
columns in the same way: once, naming the first such line, and only
when that line comes no later than the error.  It must do so also when a
block size of a few characters splits the file into many blocks.
"""

import io
import warnings
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgsparse import DataError, NodeFileError, read_node_file
from hgsparse import hgb_io
from hgsparse.hgb_io import _BLOCK, _opened

from conftest import parse_id


def reference_read_node_file(source) -> dict[int, int]:
    """Parse a node file into {node_id: node_type_id}.

    An error names the file when the source is a path.
    """
    error = partial(NodeFileError, source=None if hasattr(source, "read") else str(source))
    table: dict[int, int] = {}
    warned_extra = False
    with _opened(source, "r") as stream:
        for line_no, raw in enumerate(stream, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                raise error(line_no, f"expected at least 3 fields, got {len(fields)}")
            if len(fields) > 3 and not warned_extra:
                warnings.warn(
                    f"node file line {line_no}: ignoring "
                    f"{len(fields) - 3} attribute column(s)",
                    stacklevel=2)
                warned_extra = True
            node_id = parse_id(fields[0], "node id", line_no, error)
            node_type = parse_id(fields[2], "node type", line_no, error)
            if node_id in table:
                raise error(line_no, f"duplicate node id {node_id}")
            table[node_id] = node_type
    return table


def _outcome(read, source):
    """The columns read or the error, and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(source)
        except DataError as exc:
            outcome = ("error", type(exc).__name__, getattr(exc, "line_no", None), str(exc))
        else:
            if isinstance(result, dict):
                columns = (list(result), list(result.values()))
            else:
                for column in (result.ids, result.types):
                    assert column.dtype == np.int64 and column.shape == (len(result),)
                columns = (result.ids.tolist(), result.types.tolist())
            outcome = ("ok", *columns)
    return outcome, [(w.category, str(w.message), w.filename) for w in caught]


# the default block size, and small ones that split every file into many
# blocks: one line a block, a few characters, a few lines
BLOCKS = (_BLOCK, 1, 7, 64)


def _agree(text: str, blocks=BLOCKS) -> None:
    expected = _outcome(reference_read_node_file, io.StringIO(text))
    for block in blocks:
        with patch.object(hgb_io, "_BLOCK", block):
            assert _outcome(read_node_file, io.StringIO(text)) == expected, block


def _mostly(common, rare, odds: int = 10):
    """``rare`` once in ``odds`` draws, else ``common``."""
    return st.integers(1, odds).flatmap(lambda r: rare if r == 1 else common)


# small ids repeat often; the rare ones are out of range or malformed
ids = _mostly(
    st.one_of(
        st.integers(0, 6).map(str),
        st.integers(0, 2**63 - 1).map(str),
        st.tuples(st.integers(1, 25), st.sampled_from(["0", "3", str(2**63 - 1)]))
          .map(lambda zs: "0" * zs[0] + zs[1]),
    ),
    st.sampled_from([str(2**63), str(2**64), "9" * 20, "9" * 5000, "0" * 5000 + "7",
                     "", " 1", "1 ", "+2", "-1", "1_0", "١", "x", "　", "0x1"]),
)
names = st.one_of(
    st.sampled_from(["", "n1", "gene X", "é", "→名", " ", "　", "a\rb", "\x85"]),
    st.text(alphabet=st.characters(blacklist_characters="\t\n\r"), max_size=6),
)
blanks = st.sampled_from(["", " ", "\t", "\t\t", "\t \t\t", "  \t ", "\x0b", "\x1c",
                          "　", "\xa0", "\x85", " "])


@st.composite
def node_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["node"] * 5 + ["wide", "short", "blank", "text"]))
        if kind in ("node", "wide"):
            fields = [draw(ids), draw(names), draw(ids)]
            if kind == "wide":
                fields += draw(st.lists(names, min_size=1, max_size=2))
            line = "\t".join(fields)
        elif kind == "short":
            line = "\t".join(draw(st.lists(st.one_of(ids, names), min_size=1, max_size=2)))
        elif kind == "blank":
            line = draw(blanks)
        else:
            line = draw(st.text(max_size=12))
        lines.append(line + draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r\r\n"])))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=600, deadline=None)
@given(node_texts())
def test_matches_reference_on_generated_files(text):
    _agree(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("0123\t\n\r x") + ["١", "→", "　"]),
               max_size=60))
def test_matches_reference_on_random_text(text):
    _agree(text)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from([b"1", b"07", b"\t", b"\r", b"\n", b"\r\n", b" ",
                                       b"x", b"\xff", b"\xc3\xa9", b"\xe3\x80\x80",
                                       b"9" * 20]),
                     max_size=30).map(b"".join))
def test_matches_reference_on_disk(tmp_path, data):
    # by path, universal newlines turn a lone CR into a line break, and
    # bytes that are not UTF-8 are a DataError naming the file
    path = tmp_path / "node.dat"
    path.write_bytes(data)
    expected = _outcome(reference_read_node_file, path)
    for block in BLOCKS:
        with patch.object(hgb_io, "_BLOCK", block):
            assert _outcome(read_node_file, path) == expected, block


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "   ",
    "1\ta\t0",                               # no final newline
    "1\ta\t0\r",
    "1\ta\t0\r\r\n2\tb\t1\r\n",
    "1\ta\t0\r2\tb\t1\n",                    # a lone CR inside a stream's line
    "\t \t\t\n1\ta\t0\n",                    # a blank line of four fields
    "7\ta\t0\n7\tb\t0\n",
    "1\ta\t0\nx\tb\t0\n1\tc\t0\n",           # a repeat after a malformed line
    "1\ta\t0\n1\tb\t0\nx\n",                 # a repeat before a malformed line
    "1\ta\t0\n2\tb\t0\n2\tc\t0\n1\td\t0\n",  # the earliest repeat, not the smallest id
    "1\ta\t0\tq\nx\n",                       # extra columns before an error
    "x\ta\t0\n1\tb\t0\tq\n",                 # extra columns after an error
    "x\ta\t0\tq\n",                          # extra columns on the error line
    "1\ta\t0\n1\tb\t0\tq\tr\n",              # extra columns on a repeat
    "1\ta\t0\t\t\n2\tb\t1\tq\n",
    f"{2**63 - 1}\ta\t{2**63 - 1}\n0{2**63}\tb\t0\n",
    f"1\ta\t{'9' * 5000}\n",
    f"{'0' * 5000}7\ta\t1\n7\tb\t1\n",
    "1\t\t0\n2\té→\t1\n",
    "1\ta\t\n",
    "\t1\ta\t0\n",
    "1\ta\t0\n\x1c\t\t\x1c\n2\tb\t1\n",       # blank lines whose id and type fields
    "1\ta\t0\n\u3000\t\t\x0b\n2\tb\t1\n",     # hold whitespace that is not a space
])
def test_matches_reference_on_edge_cases(text):
    _agree(text)



@pytest.mark.parametrize("defect", [
    "17\tn17\t0",    # a duplicate of line 18's id, far from it
    "199989\tn\t0x",  # a type that is not digits
])
def test_matches_reference_on_a_far_defect(defect):
    # one defect far down a 200k-line file, whose names hold digits
    lines = [f"{i}\tn{i}\t{i % 4}" for i in range(200_000)]
    lines[199_989] = defect
    # the file is about ten default blocks
    _agree("\n".join(lines) + "\n", blocks=(_BLOCK,))
