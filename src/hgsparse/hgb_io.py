"""HGB-style tab-separated graph files plus JSON run reports.

Formats (UTF-8):

* link file: ``<src>\\t<dst>\\t<etype>[\\t<weight>]`` per line, the
  delimiter any one non-digit character.  Ids and edge types are ASCII
  digits ``[0-9]+`` of any length with a value in ``[0, 2**63)``; the
  weight column is there on every line or on none, as the first line
  that is neither blank nor a comment has it, and holds a finite value
  that ``float()`` accepts.  A line ends at ``\\n`` without the
  CRs just before it; read by path, a lone CR also ends a line.  Blank
  (whitespace-only) lines and lines starting with the comment prefix
  are skipped but counted in error line numbers.
* node file: ``<node_id>\\t<name>\\t<node_type_id>`` per line, the id
  and type ASCII digits as in link files and lines ending as they do;
  extra attribute columns are ignored with a warning, blank lines are
  skipped, and an id may appear once
* report: a JSON object, keys sorted, written with a trailing newline

Readers and writers are columnar.  :func:`read_link_file` and
:func:`read_node_file` cut the whole text into lines and fields with
numpy passes over its code points and hand them to one row core,
``_rows``, with a mask of the free-text characters: a weighted link
file's weight tail, or a node file's name field and attribute tail.
The core checks by exception for both readers: the positions of
characters outside free text that are neither digits nor separators,
and of separators that end an empty field, are mapped to their lines
with ``searchsorted``; those lines and the ones of the wrong width are
the only ones checked further, for being blank.  One ``np.fromstring``
call parses every id from a copy of the text that keeps the rows' id
digits and has spaces elsewhere.  Past a few passes over the text, the
work follows the faulty and skipped lines, not the rows.  The readers
add only what differs: width rules, the weight parse, the repeated-id
check and the attribute warning.  Python looks at one line only: the
first bad one, to explain it in the error.
:func:`write_link_file` and :func:`write_node_file` cut the decimal
digits of their int columns into one uint8 buffer, splice in the weight
column by its byte lengths, and hand the stream the whole text in one
write.

Link output is in canonical (src, dst, etype) ascending order with
original node ids, so two selections diff cleanly.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LinkFormatError, NodeFileError
from .graph import HeteroGraph, _as_ids, _ranges

_MAX_ID = 2**63 - 1  # ids are stored as int64
# A line's trailing CRs are not part of it.  A file read by path has none
# left after universal-newline decoding; a text stream may keep them.
_TRAILING_CR = re.compile(r"\r+(?=\n|\Z)")
# str.isspace() by code point; no code point above U+3000 is whitespace,
# so larger ones clip to the last entry, which is False
_IS_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


@dataclass(frozen=True)
class LinkFileOptions:
    """How to cut a link file into fields: its delimiter and comment prefix.

    Whether a file has a weight column is read from the file itself.
    """

    delimiter: str = "\t"
    comment_prefix: str | None = None

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")
        if self.delimiter.isdigit():
            raise ValueError("delimiter must not be a digit")
        if self.delimiter in "\r\n":
            raise ValueError("delimiter must not be a line break")
        if self.comment_prefix is not None and len(self.comment_prefix) != 1:
            raise ValueError("comment_prefix must be a single character")
        if self.comment_prefix is not None and self.comment_prefix.isdigit():
            raise ValueError("comment_prefix must not be a digit")


@dataclass(frozen=True, eq=False)
class LinkTable:
    """The edges of a link file as columns, in file order."""

    src: np.ndarray              # int64, original node ids
    dst: np.ndarray              # int64, original node ids
    etype: np.ndarray            # int64
    weight: np.ndarray | None    # float64, or None without a weight column

    def __len__(self) -> int:
        return int(self.src.shape[0])


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The nodes of a node file as columns, in file order."""

    ids: np.ndarray     # int64, original node ids
    types: np.ndarray   # int64, node type ids

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def _source_name(source):
    """A source as errors name it: a path in full, a stream by its ``name``."""
    if isinstance(source, os.PathLike):  # a Path's ``name`` is its last part only
        return os.fspath(source)
    return getattr(source, "name", source)


@contextmanager
def _opened(source, mode: str):
    try:
        if hasattr(source, "read") or hasattr(source, "write"):
            yield source
        else:
            newline = "" if "w" in mode else None
            with open(source, mode, encoding="utf-8", newline=newline) as handle:
                yield handle
    except UnicodeDecodeError:
        raise DataError(f"{_source_name(source)}: not UTF-8 text") from None
    except OSError as exc:  # e.g. an output directory that does not exist
        raise DataError(f"{_source_name(source)}: {exc.strerror or exc}") from None


def _code_points(text: str) -> np.ndarray:
    """The text as an array of code points, one byte each when it is ASCII."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _text(chars: np.ndarray) -> str:
    if chars.dtype == np.uint8:
        return chars.tobytes().decode("ascii")
    return chars.tobytes().decode("utf-32-le", "surrogatepass")


def _span_mask(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Length-n mask that is True on the ascending, disjoint spans [lo, hi)."""
    bounds = np.empty(2 * lo.shape[0] + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1:2] = lo
    bounds[2:-1:2] = hi
    bounds[-1] = n
    inside = np.zeros(bounds.shape[0] - 1, dtype=bool)
    inside[1::2] = True
    return np.repeat(inside, bounds[1:] - bounds[:-1])


def _split_lines(source, delimiter: str) -> tuple:
    """Read a whole text and find its lines and the ends of their fields.

    Returns the text, without trailing CRs and ending in a newline unless
    empty; its code points; the mask of delimiters and newlines and their
    positions ``sep``; and per line, the index into ``sep`` of its first
    field's end and of its newline, and the positions of its first
    character and of its newline.
    """
    with _opened(source, "r") as stream:
        text = stream.read()
    if "\r" in text:
        text = _TRAILING_CR.sub("", text)
    if text and not text.endswith("\n"):
        text += "\n"
    chars = _code_points(text)
    # a line's fields end at delimiters and at its newline
    is_nl = chars == 10
    is_sep = is_nl | (chars == ord(delimiter))
    sep = np.flatnonzero(is_sep)
    last = np.flatnonzero(is_nl[sep])
    first = np.concatenate(([0], last + 1))[:-1]
    end = sep[last]
    start = np.concatenate(([0], end + 1))[:-1]
    return text, chars, is_sep, sep, first, last, start, end


def _rows(lines: tuple, bad: np.ndarray, skip: np.ndarray, free: np.ndarray | None,
          ids_per_row: int) -> tuple:
    """Check and parse the id fields of the lines that :func:`_split_lines` cut.

    A row is a line that is not already ``bad`` (of the wrong width) or
    in ``skip`` (a comment), and whose characters outside the ``free``
    text are ``ids_per_row`` ids of one or more ASCII digits and the
    separators after them.  Only the faults are mapped to lines: the
    characters outside free text that are neither digits nor separators
    and the separators that end an empty field.  Each other line that is
    not skipped turns ``bad`` unless it is blank, and so does a row with
    an id of 2**63 or more; ``free`` keeps only the rows' characters.

    Returns the rows' line indices, the blank lines' indices and the
    rows' ids as an (ids_per_row, rows) int64 array.
    """
    _, chars, is_sep, _, _, _, start, end = lines
    digit = chars - 48 <= 9  # wraps below '0' in the unsigned dtype
    fault = ~(digit | is_sep)
    fault[1:] |= is_sep[1:] & is_sep[:-1]
    fault[:1] |= is_sep[:1]
    if free is not None:
        fault &= ~free
        digit &= ~free
    bad[np.searchsorted(end, np.flatnonzero(fault))] = True
    skipped = bad | skip
    good = np.flatnonzero(~skipped)

    # the digits of the rows' ids, spaces elsewhere
    digits = (chars - 32) * digit + 32
    skip_start = start[skipped]
    skipped_chars = _ranges(skip_start, end[skipped] + 1 - skip_start)
    digits[skipped_chars] = 32
    if free is not None:
        free[skipped_chars] = False

    # a faulty line is malformed unless skipped or blank; each span takes
    # its line's newline too, a space, so none is empty
    bad &= ~skip
    suspect = np.flatnonzero(bad)
    lens = end[suspect] + 1 - start[suspect]
    nonspace = ~_IS_SPACE.take(chars[_ranges(start[suspect], lens)], mode="clip")
    blank = suspect[~np.logical_or.reduceat(nonspace, np.cumsum(lens) - lens)]
    bad[blank] = False

    # one pass parses every id; uint64 saturates above 2**64 - 1, so the
    # range check sees every overlong one
    values = np.empty(0, dtype=np.uint64)
    if good.shape[0]:  # fromstring reads a string of spaces as [0]
        values = np.fromstring(digits.astype(np.uint8, copy=False).tobytes(),
                               dtype=np.uint64, sep=" ")
    bad[good[np.flatnonzero(values > _MAX_ID) // ids_per_row]] = True
    return good, blank, values.view(np.int64).reshape(-1, ids_per_row).T.copy()


def _parse_id(field: str, what: str) -> int:
    """The value of an id or type field; ValueError says why it is not one.

    A field is ASCII digits ``[0-9]+`` with a value in [0, 2**63), in link
    and node files alike.
    """
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"invalid integer {field!r} for {what}")
    digits = field.lstrip("0") or "0"
    if len(digits) > 19 or int(digits) > _MAX_ID:
        raise ValueError(f"{what} {digits} is outside [0, 2**63)")
    return int(digits)


def _line_error(line: str, delimiter: str, has_weight: bool, decider: int) -> str:
    """Why a line that is neither blank nor a comment is not a link.

    Line ``decider`` (1-based) is the first row, whose width says whether
    the file has a weight column.
    """
    fields = line.split(delimiter)
    if len(fields) not in (3, 4):
        return f"expected 3 or 4 fields, got {len(fields)}"
    if len(fields) == 4 and not has_weight:
        return f"unexpected weight column (line {decider} has none)"
    if len(fields) == 3 and has_weight:
        return f"missing weight column (line {decider} has one)"
    try:
        for what, field in zip(("src", "dst", "etype"), fields):
            _parse_id(field, what)
    except ValueError as exc:
        return str(exc)
    try:
        float(fields[3])
    except ValueError:
        return f"invalid weight {fields[3]!r}"
    return f"non-finite weight {fields[3]!r}"


def read_link_file(source, opts: LinkFileOptions = LinkFileOptions()) -> LinkTable:
    """Parse a link file into columns, in file order.

    The first line that is neither blank nor a comment decides the weight
    column: with 4 fields every row carries a weight, with 3 none does.
    A file without rows reads with ``weight=None``.  Raises
    :class:`LinkFormatError` naming the first malformed line.
    """
    lines = _split_lines(source, opts.delimiter)
    text, chars, _, sep, line_first, line_last, line_start, line_end = lines
    if opts.comment_prefix is None:
        comment = np.zeros(line_end.shape[0], dtype=bool)
    else:
        comment = chars[line_start] == ord(opts.comment_prefix)
    # a row's first three fields are the ids src, dst and etype
    width = line_last - line_first + 1
    # the first line that is neither blank nor a comment decides whether
    # every row has a fourth field, a weight; Python looks up to it only
    decider = next((i for i in range(width.shape[0])
                    if not comment[i] and text[line_start[i]:line_end[i]].strip()), -1)
    has_weight = decider >= 0 and width[decider] == 4
    bad = width != (4 if has_weight else 3)
    in_weight = None
    if has_weight:
        # a weight, the rest of a line after its third field, is free
        # text; its newline separates it from the next weight
        in_weight = _span_mask(chars.shape[0],
                               sep[np.minimum(line_first + 2, line_last)] + 1, line_end + 1)
    good, _, (src, dst, etype) = _rows(lines, bad, comment, in_weight, 3)

    weight = None
    if has_weight:
        fields = _text(chars[in_weight]).split("\n")[:-1]
        parsed: list[float] = []
        try:
            parsed.extend(map(float, fields))
        except ValueError:
            # extend keeps what it appended, so the first bad field is next
            bad[good[len(parsed)]] = True
        weight = np.array(parsed, dtype=np.float64)
        bad[good[:weight.shape[0]][~np.isfinite(weight)]] = True

    first = np.flatnonzero(bad)
    if first.shape[0]:
        i = int(first[0])
        raise LinkFormatError(i + 1, _line_error(text[line_start[i]:line_end[i]],
                                                 opts.delimiter, has_weight, decider + 1))
    return LinkTable(src, dst, etype, weight)


def _node_line_error(line: str) -> str:
    """Why a node-file line that is not blank does not add a node."""
    fields = line.split("\t")
    if len(fields) < 3:
        return f"expected at least 3 fields, got {len(fields)}"
    try:
        node_id = _parse_id(fields[0], "node id")
        _parse_id(fields[2], "node type")
    except ValueError as exc:
        return str(exc)
    return f"duplicate node id {node_id}"


def read_node_file(source) -> NodeTable:
    """Parse a node file into columns, in file order.

    Raises :class:`NodeFileError` naming the first malformed line or
    repeated id, and warns once about extra columns when the first line
    with them comes no later than that.
    """
    lines = _split_lines(source, "\t")
    text, chars, _, sep, first, last, line_start, line_end = lines
    width = last - first + 1
    # a row has 3 or more fields: the id, a name, the type and attribute
    # columns.  The name, with the tab that ends it, and the attribute
    # columns are free text; on a shorter line the spans stop at its end.
    ends = sep[np.minimum(first + np.arange(3)[:, None], last)] + 1
    free = _span_mask(chars.shape[0], np.stack((ends[0], ends[2]), axis=1).ravel(),
                      np.stack((ends[1], line_end + 1), axis=1).ravel())
    bad = width < 3
    good, blank, (ids, types) = _rows(lines, bad, np.zeros_like(bad), free, 2)

    # a repeated id is an error on its first repeat; a stable sort puts
    # each id's rows in file order, so every row after the first of a
    # run repeats an earlier one
    order = np.argsort(ids, kind="stable")
    repeat = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeat.shape[0]:
        bad[good[repeat.min()]] = True

    failed = np.flatnonzero(bad)
    wide = width > 3
    wide[blank] = False
    wide = np.flatnonzero(wide)
    if wide.shape[0] and (not failed.shape[0] or wide[0] <= failed[0]):
        i = int(wide[0])
        warnings.warn(f"node file line {i + 1}: ignoring {int(width[i]) - 3} "
                      "attribute column(s)", stacklevel=2)
    if failed.shape[0]:
        i = int(failed[0])
        raise NodeFileError(i + 1, _node_line_error(text[line_start[i]:line_end[i]]))
    return NodeTable(ids, types)


def _int_rows(rows: int, columns: list[tuple[str, np.ndarray]], tail: str = ""
              ) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` rows of id columns in decimal, each after its lead, then ``tail``.

    The columns are int64 ids, in [0, 2**63) as the builders and
    :func:`write_node_file` hold them, so no value has a sign.  Returns
    each row's byte count and the bytes row by row.  One uint8 matrix
    holds the rows: a column's lead, then its digits right-aligned in as
    many places as its longest value needs; reading the matrix row by row
    past each value's padding gives the text.
    """
    tail_bytes = np.frombuffer(tail.encode(), dtype=np.uint8)
    cells = []  # per column: lead, values, digits of the largest
    for lead, values in columns:
        top = int(values.max(initial=0))
        if top < 2**32:
            values = values.astype(np.uint32)  # uint32 arithmetic cuts the write by about 30%
        cells.append((np.frombuffer(lead.encode(), dtype=np.uint8), values, len(str(top))))
    width = sum(lead.shape[0] + digits for lead, _, digits in cells)
    text = np.empty((rows, width + tail_bytes.shape[0]), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    lens = np.full(rows, tail_bytes.shape[0], dtype=np.int64)
    at = 0
    for lead, values, digits in cells:
        text[:, at:at + lead.shape[0]] = lead
        at += lead.shape[0] + digits  # the column ends at ``at``
        count = np.ones(rows, dtype=np.int64)  # each value's digits
        for k in range(1, digits):
            shown = values >= 10**k  # place k, counted from the units, holds a digit
            keep[:, at - 1 - k] = shown
            count += shown
        for k in range(digits):
            quotient = values // 10
            text[:, at - 1 - k] = values - quotient * 10 + 48  # '0'
            values = quotient
        lens += lead.shape[0] + count
    text[:, at:] = tail_bytes
    return lens, text[keep]


def _weight_rows(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``\\t<repr(w)>\\n`` per weight: byte counts, and the bytes row by row.

    ``repr`` of a finite float is ASCII, so a character is a byte.
    """
    strings = list(map(repr, weight.tolist()))
    text = "\t" + "\n\t".join(strings) + "\n" if strings else ""
    lens = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)) + 2
    return lens, np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _join_rows(pieces: list[tuple[np.ndarray, np.ndarray]]) -> str:
    """The text whose rows are ``pieces`` end to end.

    A piece is a byte count per row and its bytes row by row, as
    :func:`_int_rows` and :func:`_weight_rows` give; each is spliced into
    one buffer at its offset in every row.
    """
    if len(pieces) == 1:
        return pieces[0][1].tobytes().decode()
    lens = sum(count for count, _ in pieces)
    ends = np.cumsum(lens)
    out = np.empty(int(ends[-1]) if ends.shape[0] else 0, dtype=np.uint8)
    at = ends - lens
    for count, data in pieces:
        out[_span_mask(out.shape[0], at, at + count)] = data
        at += count
    return out.tobytes().decode()


def write_link_file(g: HeteroGraph, dest, selected=None) -> int:
    """Write kept edges tab-separated in canonical order; returns the line count.

    A weighted graph writes ``repr(float(w))`` as a fourth column on
    every line, so the file reads back with its weights.
    """
    ids = np.flatnonzero(g.edge_mask(selected))
    rows = ids.shape[0]
    columns = [("", g.node_ids[g.src[ids]]), ("\t", g.node_ids[g.dst[ids]]),
               ("\t", g.etype[ids])]
    if g.weight is None:
        pieces = [_int_rows(rows, columns, "\n")]
    else:
        pieces = [_int_rows(rows, columns), _weight_rows(g.weight[ids])]
    with _opened(dest, "w") as stream:
        stream.write(_join_rows(pieces))
    return rows


def write_node_file(dest, node_ids, node_types) -> int:
    """Write a node table, naming node ``<id>`` ``n<id>``; returns the line count.

    Only a table that :func:`read_node_file` reads back is written: ids
    and types whole numbers in [0, 2**63), and no id twice.  Any other
    raises ValueError before ``dest`` is opened.
    """
    ids = _as_ids(node_ids, "node_ids")
    types = _as_ids(node_types, "node_types")
    rows = ids.shape[0]
    if types.shape != ids.shape:
        raise ValueError("node_types must align with node_ids")
    ordered = np.sort(ids)
    repeat = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeat.shape[0]:
        raise ValueError(f"duplicate node id {int(repeat[0])} in node_ids")
    with _opened(dest, "w") as stream:
        stream.write(_join_rows([_int_rows(rows, [("", ids), ("\tn", ids), ("\t", types)],
                                           "\n")]))
    return rows


def write_report(report: dict, dest) -> None:
    """Serialize a run report as stable, diff-friendly JSON."""
    with _opened(dest, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
