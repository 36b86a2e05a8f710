"""HGB-style tab-separated graph files plus JSON run reports.

Formats (UTF-8):

* link file: ``<src>\\t<dst>\\t<etype>[\\t<weight>]`` per line, the
  delimiter any one non-digit character.  Ids and edge types are ASCII
  digits ``[0-9]+`` of any length with a value in ``[0, 2**63)``; the
  weight column is there on every line or on none, and holds a finite
  value that ``float()`` accepts.  A line ends at ``\\n`` without the
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
one shared set of numpy passes over its code points and return a
:class:`LinkTable` or a :class:`NodeTable` of columns.  They check by
exception: the positions of characters that an id or type field may
not hold and of empty fields are mapped to their lines with
``searchsorted``; those lines and the ones of the wrong width are the
only ones checked further, for being blank.  A node name is free text
and is not checked.  One ``np.fromstring`` call parses every id from a
copy of the text that keeps the rows' id digits and has spaces
elsewhere.  Past a few passes over the text, the work follows the
faulty and skipped lines, not the rows.  Python looks at one line
only: the first bad one, to explain it in the error.
:func:`write_link_file` and :func:`write_node_file` cut the decimal
digits of their int columns into one uint8 buffer, splice in the weight
column by its byte lengths, and hand the stream the whole text in one
write.

Link output is in canonical (src, dst, etype) ascending order with
original node ids, so two selections diff cleanly.
"""

from __future__ import annotations

import json
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LinkFormatError, NodeFileError
from .graph import HeteroGraph, _ranges

_MAX_ID = 2**63 - 1  # ids are stored as int64
# A line's trailing CRs are not part of it.  A file read by path has none
# left after universal-newline decoding; a text stream may keep them.
_TRAILING_CR = re.compile(r"\r+(?=\n|\Z)")
# str.isspace() by code point; no code point above U+3000 is whitespace,
# so larger ones clip to the last entry, which is False
_IS_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


@dataclass(frozen=True)
class LinkFileOptions:
    has_weight: bool = False
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
        raise DataError(f"{getattr(source, 'name', source)}: not UTF-8 text") from None
    except OSError as exc:  # e.g. an output directory that does not exist
        name = getattr(source, "name", source)
        raise DataError(f"{name}: {exc.strerror or exc}") from None


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


def _blank(chars: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether each line ``chars[start:end]`` is empty or whitespace only."""
    # each span takes its line's newline too, a space, so none is empty
    lens = end + 1 - start
    nonspace = ~_IS_SPACE.take(chars[_ranges(start, lens)], mode="clip")
    return ~np.logical_or.reduceat(nonspace, np.cumsum(lens) - lens)


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


def _id_columns(digits: np.ndarray, good: np.ndarray, bad: np.ndarray,
                width: int) -> np.ndarray:
    """The ``width`` ids of each good row, parsed from their ``digits``.

    ``digits`` holds the ASCII digits of the good rows' ids and spaces
    elsewhere; one pass parses them all.  uint64 saturates above
    2**64 - 1, so the range check sees every overlong id; it marks a row
    with an id of 2**63 or more in ``bad``.  Returns a (width, rows)
    int64 array.
    """
    values = np.empty(0, dtype=np.uint64)
    if good.shape[0]:  # fromstring reads a string of spaces as [0]
        values = np.fromstring(digits.astype(np.uint8, copy=False).tobytes(),
                               dtype=np.uint64, sep=" ")
    bad[good[np.flatnonzero(values > _MAX_ID) // width]] = True
    return values.view(np.int64).reshape(-1, width).T.copy()


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


def _line_error(line: str, opts: LinkFileOptions) -> str:
    """Why a line that is neither blank nor a comment is not a link."""
    fields = line.split(opts.delimiter)
    if len(fields) not in (3, 4):
        return f"expected 3 or 4 fields, got {len(fields)}"
    if len(fields) == 4 and not opts.has_weight:
        return "unexpected weight column (weights are disabled)"
    if len(fields) == 3 and opts.has_weight:
        return "missing weight column (weights are enabled)"
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

    Raises :class:`LinkFormatError` naming the first malformed line.
    """
    (text, chars, is_sep, sep,
     line_first, line_last, line_start, line_end) = _split_lines(source, opts.delimiter)
    if opts.comment_prefix is None:
        comment = np.zeros(line_end.shape[0], dtype=bool)
    else:
        comment = chars[line_start] == ord(opts.comment_prefix)

    # a row is a line of the right width whose first three fields, the
    # ids src, dst and etype, are each one or more ASCII digits.  Only the
    # faults are mapped to lines: the characters that are neither digits
    # nor separators and the separators that end an empty field.
    width = 4 if opts.has_weight else 3
    digit = chars - 48 <= 9  # wraps below '0' in the unsigned dtype
    fault = ~(digit | is_sep)
    fault[1:] |= is_sep[1:] & is_sep[:-1]
    fault[:1] |= is_sep[:1]
    if opts.has_weight:
        # a weight, the rest of a line after its third field, may hold any
        # character, and its digits are not an id's; its newline separates
        # it from the next weight
        in_weight = _span_mask(chars.shape[0],
                               sep[np.minimum(line_first + 2, line_last)] + 1, line_end + 1)
        in_ids = ~in_weight
        fault &= in_ids
        digit &= in_ids
    bad = line_last - line_first + 1 != width
    bad[np.searchsorted(line_end, np.flatnonzero(fault))] = True
    skip = bad | comment
    good = np.flatnonzero(~skip)

    # the digits of the good rows' ids, spaces elsewhere
    digits = (chars - 32) * digit + 32
    skip_start = line_start[skip]
    skipped_chars = _ranges(skip_start, line_end[skip] + 1 - skip_start)
    digits[skipped_chars] = 32

    # every other line that is not a comment is malformed unless blank
    bad &= ~comment
    suspect = np.flatnonzero(bad)
    bad[suspect[_blank(chars, line_start[suspect], line_end[suspect])]] = False

    weight = None
    if opts.has_weight:
        in_weight[skipped_chars] = False
        fields = _text(chars[in_weight]).split("\n")[:-1]
        parsed: list[float] = []
        try:
            parsed.extend(map(float, fields))
        except ValueError:
            # extend keeps what it appended, so the first bad field is next
            bad[good[len(parsed)]] = True
        weight = np.array(parsed, dtype=np.float64)
        bad[good[:weight.shape[0]][~np.isfinite(weight)]] = True
    src, dst, etype = _id_columns(digits, good, bad, 3)

    first = np.flatnonzero(bad)
    if first.shape[0]:
        i = int(first[0])
        raise LinkFormatError(i + 1, _line_error(text[line_start[i]:line_end[i]], opts))
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
    text, chars, _, sep, first, last, line_start, line_end = _split_lines(source, "\t")
    width = last - first + 1

    # in a row of 3 or more fields the id and the type, fields 0 and 2,
    # are each one or more ASCII digits; the name between them is free
    # text.  Only the faults in those two fields are mapped to lines.
    rows = np.flatnonzero(width >= 3)
    ends = sep[first[rows] + np.arange(3)[:, None]]
    lo = np.stack((line_start[rows], ends[1] + 1), axis=1).ravel()
    hi = np.stack((ends[0], ends[2]), axis=1).ravel()
    keep = _span_mask(chars.shape[0], lo, hi)
    stray = np.flatnonzero(keep > (chars - 48 <= 9))  # wraps below '0' in the unsigned dtype
    bad = width < 3
    bad[np.searchsorted(line_end, stray)] = True
    bad[rows[(lo == hi).reshape(-1, 2).any(axis=1)]] = True  # an empty id or type
    good = np.flatnonzero(~bad)
    suspect = np.flatnonzero(bad)

    # the id and type digits of the good rows, spaces elsewhere
    digits = (chars - 32) * keep + 32
    suspect_start = line_start[suspect]
    digits[_ranges(suspect_start, line_end[suspect] - suspect_start)] = 32

    # every other line is malformed unless blank
    blank = suspect[_blank(chars, line_start[suspect], line_end[suspect])]
    bad[blank] = False
    ids, types = _id_columns(digits, good, bad, 2)

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
    """``rows`` rows of int64 columns in decimal, each after its lead, then ``tail``.

    Returns each row's byte count and the bytes row by row.  One uint8
    matrix holds the rows: a column's lead, then its digits right-aligned
    in as many places as its longest value needs; reading the matrix row
    by row past each value's padding gives the text.
    """
    tail_bytes = np.frombuffer(tail.encode(), dtype=np.uint8)
    cells = []  # per column: lead, values, magnitudes, digits of the largest, sign places
    for lead, values in columns:
        mag = np.abs(values).view(np.uint64)  # np.abs(-2**63) is 2**63 in uint64
        top = int(mag.max(initial=0))
        if top < 2**32:
            mag = mag.astype(np.uint32)  # uint32 arithmetic cuts the write by about 30%
        sign = int(values.shape[0] > 0 and values.min() < 0)
        cells.append((np.frombuffer(lead.encode(), dtype=np.uint8), values, mag,
                      len(str(top)), sign))
    width = sum(lead.shape[0] + sign + digits for lead, _, _, digits, sign in cells)
    text = np.empty((rows, width + tail_bytes.shape[0]), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    lens = np.full(rows, tail_bytes.shape[0], dtype=np.int64)
    at = 0
    for lead, values, mag, digits, sign in cells:
        text[:, at:at + lead.shape[0]] = lead
        at += lead.shape[0] + sign + digits  # the column ends at ``at``
        count = np.ones(rows, dtype=np.int64)  # each value's digits and sign
        for k in range(1, digits):
            shown = mag >= 10**k  # place k, counted from the units, holds a digit
            keep[:, at - 1 - k] = shown
            count += shown
        for k in range(digits):
            quotient = mag // 10
            text[:, at - 1 - k] = mag - quotient * 10 + 48  # '0'
            mag = quotient
        if sign:
            keep[:, at - 1 - digits] = False
            neg = np.flatnonzero(values < 0)
            count[neg] += 1
            place = at - count[neg]
            text[neg, place] = 45  # '-'
            keep[neg, place] = True
        lens += lead.shape[0] + count
    text[:, at:] = tail_bytes
    return lens, text[keep]


def _text_rows(strings: list[str], lead: str, present: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Each string after ``lead``: UTF-8 byte counts, and the bytes row by row.

    ``strings`` holds the rows where ``present`` is True; the other rows
    get nothing, not even the lead.
    """
    text = lead + lead.join(strings) if strings else ""
    counts = map(len, strings) if text.isascii() else (len(s.encode()) for s in strings)
    lens = np.zeros(present.shape[0], dtype=np.int64)
    lens[present] = np.fromiter(counts, dtype=np.int64, count=len(strings)) + len(lead.encode())
    return lens, np.frombuffer(text.encode(), dtype=np.uint8)


def _join_rows(pieces: list[tuple[np.ndarray, np.ndarray]]) -> str:
    """The text whose rows are ``pieces`` end to end.

    A piece is a byte count per row and its bytes row by row, as
    :func:`_int_rows` and :func:`_text_rows` give; each is spliced into
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


def write_link_file(g: HeteroGraph, dest, selected=None, delimiter: str = "\t") -> int:
    """Write kept edges in canonical order; returns the line count.

    A weight is written as ``repr(float(w))``; a NaN weight, an edge
    built without one, gets no weight column.
    """
    ids = np.flatnonzero(g.edge_mask(selected))
    rows = ids.shape[0]
    columns = [("", g.node_ids[g.src[ids]]), (delimiter, g.node_ids[g.dst[ids]]),
               (delimiter, g.etype[ids])]
    if g.weight is None:
        pieces = [_int_rows(rows, columns, "\n")]
    else:
        weight = g.weight[ids]
        present = ~np.isnan(weight)
        pieces = [_int_rows(rows, columns),
                  _text_rows(list(map(repr, weight[present].tolist())), delimiter, present),
                  _int_rows(rows, [], "\n")]
    with _opened(dest, "w") as stream:
        stream.write(_join_rows(pieces))
    return rows


def write_node_file(dest, node_ids, node_types) -> int:
    """Write a node table, naming node ``<id>`` ``n<id>``."""
    ids = np.asarray(node_ids, dtype=np.int64)
    types = np.asarray(node_types, dtype=np.int64)
    rows = ids.shape[0]
    if types.shape != ids.shape:
        raise ValueError("node_types must align with node_ids")
    with _opened(dest, "w") as stream:
        stream.write(_join_rows([_int_rows(rows, [("", ids), ("\tn", ids), ("\t", types)],
                                           "\n")]))
    return rows


def write_report(report: dict, dest) -> None:
    """Serialize a run report as stable, diff-friendly JSON."""
    with _opened(dest, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
