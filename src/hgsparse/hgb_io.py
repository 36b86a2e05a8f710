"""HGB-style tab-separated graph files plus JSON run reports.

Formats (UTF-8, LF endings):

* link file: ``<src>\\t<dst>\\t<etype>[\\t<weight>]`` per line
* node file: ``<node_id>\\t<name>\\t<node_type_id>`` per line; extra
  attribute columns are ignored with a warning
* report: a JSON object, keys sorted, written with a trailing newline

Link output is in canonical (src, dst, etype) ascending order with
original node ids, so two selections diff cleanly.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LinkFormatError, NodeFileError
from .graph import EdgeRecord, HeteroGraph


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
        if self.comment_prefix is not None and len(self.comment_prefix) != 1:
            raise ValueError("comment_prefix must be a single character")


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


def _parse_id(field: str, what: str, line_no: int) -> int:
    try:
        value = int(field)
    except ValueError:
        raise LinkFormatError(line_no, f"invalid integer {field!r} for {what}") from None
    if not 0 <= value < 2**63:  # stored as int64
        raise LinkFormatError(line_no, f"{what} {value} is outside [0, 2**63)")
    return value


def read_link_file(source, opts: LinkFileOptions = LinkFileOptions()) -> list[EdgeRecord]:
    """Parse a link file into EdgeRecords in file order."""
    records: list[EdgeRecord] = []
    with _opened(source, "r") as stream:
        for line_no, raw in enumerate(stream, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if opts.comment_prefix and line.startswith(opts.comment_prefix):
                continue
            fields = line.split(opts.delimiter)
            if len(fields) not in (3, 4):
                raise LinkFormatError(
                    line_no, f"expected 3 or 4 fields, got {len(fields)}")
            if len(fields) == 4 and not opts.has_weight:
                raise LinkFormatError(
                    line_no, "unexpected weight column (weights are disabled)")
            if len(fields) == 3 and opts.has_weight:
                raise LinkFormatError(
                    line_no, "missing weight column (weights are enabled)")
            src = _parse_id(fields[0], "src", line_no)
            dst = _parse_id(fields[1], "dst", line_no)
            etype = _parse_id(fields[2], "etype", line_no)
            weight = None
            if opts.has_weight:
                try:
                    weight = float(fields[3])
                except ValueError:
                    raise LinkFormatError(
                        line_no, f"invalid weight {fields[3]!r}") from None
                if not math.isfinite(weight):
                    raise LinkFormatError(line_no, f"non-finite weight {fields[3]!r}")
            records.append(EdgeRecord(src, dst, etype, weight))
    return records


def read_node_file(source) -> dict[int, tuple[str, int]]:
    """Parse a node file into {node_id: (name, node_type_id)}."""
    table: dict[int, tuple[str, int]] = {}
    warned_extra = False
    with _opened(source, "r") as stream:
        for line_no, raw in enumerate(stream, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                raise NodeFileError(
                    line_no, f"expected at least 3 fields, got {len(fields)}")
            if len(fields) > 3 and not warned_extra:
                warnings.warn(
                    f"node file line {line_no}: ignoring "
                    f"{len(fields) - 3} attribute column(s)",
                    stacklevel=2)
                warned_extra = True
            try:
                node_id = int(fields[0])
                node_type = int(fields[2])
            except ValueError:
                raise NodeFileError(
                    line_no, f"invalid integer field in {line!r}") from None
            if not (0 <= node_id < 2**63 and 0 <= node_type < 2**63):
                raise NodeFileError(line_no, "node id or type is outside [0, 2**63)")
            if node_id in table:
                raise NodeFileError(line_no, f"duplicate node id {node_id}")
            table[node_id] = (fields[1], node_type)
    return table


def write_link_file(g: HeteroGraph, dest, selected=None, delimiter: str = "\t") -> int:
    """Write kept edges in canonical order; returns the line count."""
    mask = g.edge_mask(selected)
    ids = np.flatnonzero(mask)
    src = g.node_ids[g.src[ids]]
    dst = g.node_ids[g.dst[ids]]
    etype = g.etype[ids]
    weights = g.weight[ids] if g.weight is not None else None
    with _opened(dest, "w") as stream:
        for i in range(ids.shape[0]):
            line = f"{src[i]}{delimiter}{dst[i]}{delimiter}{etype[i]}"
            if weights is not None and not np.isnan(weights[i]):
                line += f"{delimiter}{float(weights[i])!r}"
            stream.write(line + "\n")
    return int(ids.shape[0])


def write_node_file(dest, node_ids, node_types, names=None) -> int:
    """Write a node table; names default to ``n<id>``."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    node_types = np.asarray(node_types, dtype=np.int64)
    with _opened(dest, "w") as stream:
        for i in range(node_ids.shape[0]):
            name = names[i] if names is not None else f"n{node_ids[i]}"
            stream.write(f"{node_ids[i]}\t{name}\t{node_types[i]}\n")
    return int(node_ids.shape[0])


def write_report(report: dict, dest) -> None:
    """Serialize a run report as stable, diff-friendly JSON."""
    with _opened(dest, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
