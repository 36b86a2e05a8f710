"""Immutable typed directed multigraph with per-(node, direction, edge-type) buckets.

Edges are stored in one canonical table sorted ascending by
(src, dst, etype) over dense node indices; an edge's identity is that
triple and its edge id is its row in the table.  An input already in
that order without repeats, as every link file hgsparse writes is, is
taken as it is; any other is sorted and its duplicates dropped.  One
:class:`BucketLayout` groups the edge ids of both directions by side:
side u is node u's out-direction and side n + u its in-direction, all
out sides first.  Inside a side the buckets follow ascending etype, and
inside a bucket the edge ids ascend, so bucket iteration order is
deterministic and matches ascending identity order.

Node ids from input files are remapped to a dense 0..n-1 range at build
time (ascending original id, so the remap is monotone); original ids
are kept for all user-facing output.  The remap first looks for each id
at its offset from the smallest, where every id of a contiguous node
table sits, and binary-searches only the ids not found there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import NonFiniteWeightError, UnknownEdgeError, UnknownNodeError

OUT = "out"
IN = "in"


@dataclass(frozen=True, eq=False)
class BucketLayout:
    """Edge ids grouped into (side, etype) buckets, both directions in one.

    Side u < n is node u's out-direction and side n + u its in-direction,
    so every edge appears twice: once among the out sides, which all come
    first, and once among the in sides.
    """

    order: np.ndarray         # 2m edge ids grouped by (side, etype), ascending in a bucket
    bkt_ptr: np.ndarray       # bucket b spans order[bkt_ptr[b]:bkt_ptr[b+1]]
    bkt_etype: np.ndarray     # edge type of bucket b
    side_bkt_ptr: np.ndarray  # side s owns buckets side_bkt_ptr[s]:side_bkt_ptr[s+1]
    side_ptr: np.ndarray      # side s owns order[side_ptr[s]:side_ptr[s+1]]


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    edges_per_node: float
    node_type_count: int
    edge_type_count: int
    per_edge_type: dict[int, int]
    max_bucket: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "edges_per_node": self.edges_per_node,
            "node_type_count": self.node_type_count,
            "edge_type_count": self.edge_type_count,
            "per_edge_type": {str(k): v for k, v in self.per_edge_type.items()},
            "max_bucket": self.max_bucket,
        }


def _as_int64(values, name: str, unknown: str | None = None) -> np.ndarray:
    """``values`` as a 1-d int64 array.

    The first value that is not a whole number in int64's range, which a
    cast would truncate or wrap, raises ValueError, or UnknownNodeError
    with ``unknown`` formatted with the value when that is given.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        arr = np.asarray(values, dtype=object)  # each value as given, not rounded to float
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.can_cast(arr.dtype, np.int64):  # floats, uint64, objects
        for v in arr.tolist():
            try:
                whole = v == int(v) and -2**63 <= v < 2**63
            except (TypeError, ValueError, OverflowError):  # None, nan, inf
                whole = False
            if not whole:
                raise (UnknownNodeError(unknown.format(repr(v))) if unknown else
                       ValueError(f"{name} holds {v!r}, not an integer in int64's range"))
    return np.ascontiguousarray(arr, dtype=np.int64)


def _as_ids(values, name: str) -> np.ndarray:
    """``values`` as ids: whole numbers in [0, 2**63), as a 1-d int64 array.

    Node ids, node types and edge types all follow this rule, the one the
    readers hold files to.  A value outside it raises ValueError naming it.
    """
    arr = _as_int64(values, name)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} holds {int(arr[arr < 0][0])}, not an integer in [0, 2**63)")
    return arr


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each pair of ``starts`` and ``lens``, concatenated."""
    offsets = lens.cumsum() - lens
    return (starts - offsets).repeat(lens) + np.arange(lens.sum())


def _positions(sorted_ids: np.ndarray, ids: np.ndarray, missing: str) -> np.ndarray:
    """The index of each of ``ids`` in the ascending ``sorted_ids``.

    Each id is first looked for at its offset from the first id, clipped
    into range, which finds every id of a contiguous table; only the ids
    not found there are searched for.  Raises :class:`UnknownNodeError`,
    ``missing`` formatted with the first id, in input order, that is not
    there.
    """
    n = sorted_ids.shape[0]
    if not n:
        if ids.shape[0]:
            raise UnknownNodeError(missing.format(int(ids[0])))
        return np.zeros(0, dtype=np.int64)
    # in uint64 an id below the first wraps to a large offset, clipped to n - 1
    pos = np.minimum(ids.view(np.uint64) - sorted_ids[:1].view(np.uint64), n - 1)
    pos = pos.view(np.int64)
    miss = np.flatnonzero(sorted_ids[pos] != ids)
    if miss.shape[0]:
        found = np.searchsorted(sorted_ids, ids[miss])
        hit = sorted_ids[np.minimum(found, n - 1)] == ids[miss]
        if not hit.all():
            raise UnknownNodeError(missing.format(int(ids[miss[np.argmin(hit)]])))
        pos[miss] = found
    return pos


def _build_layout(src: np.ndarray, dst: np.ndarray, etype_rank: np.ndarray,
                  etype_ids: np.ndarray, n: int) -> BucketLayout:
    """The buckets of a table in canonical order; etype_rank indexes etype_ids."""
    m = src.shape[0]
    t = etype_ids.shape[0]
    # A bucket's key is side * t + etype rank, and its edge ids ascend.
    # The table is sorted by (src, dst, etype), so a stable sort of the
    # out keys, which are nearly sorted already, keeps edge id order in
    # each out bucket.  An in bucket's edges have distinct srcs, and their
    # ids ascend with them: ordering the edges by (dst, src) first, however
    # ties fall, then stably by in key, gives ascending ids too.  n * t
    # cannot overflow, as t <= m and, like n, m < 2**31.5 in any graph that
    # fits in memory.
    out_key = src * t + etype_rank
    out = np.argsort(out_key, kind="stable")
    by_dst = np.argsort(dst * n + src)
    in_key = (dst * t + etype_rank)[by_dst]
    into = np.argsort(in_key, kind="stable")
    order = np.concatenate((out, by_dst[into]))
    key = np.concatenate((out_key[out], in_key[into]))
    first = np.ones(2 * m, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    first[m:m + 1] = True  # the first in-side bucket, whatever its key
    starts = np.flatnonzero(first)
    bkt_ptr = np.append(starts, 2 * m)
    side = key[starts] // t
    side[np.searchsorted(starts, m):] += n
    side_bkt_ptr = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(side, minlength=2 * n), out=side_bkt_ptr[1:])
    return BucketLayout(order, bkt_ptr, etype_ids[etype_rank[order[starts]]],
                        side_bkt_ptr, bkt_ptr[side_bkt_ptr])


class HeteroGraph:
    """Use :func:`build_graph` or :func:`build_graph_arrays` to construct."""

    __slots__ = ("node_ids", "node_types", "src", "dst", "etype", "weight",
                 "duplicates_dropped", "layout", "etype_ids", "sweep_cache",
                 "_degrees", "_pair_key")

    def __init__(self, node_ids, node_types, src, dst, etype, weight,
                 duplicates_dropped, layout, etype_ids, degrees, pair_key):
        self.node_ids = node_ids
        self.node_types = node_types
        self.src = src
        self.dst = dst
        self.etype = etype
        self.weight = weight
        self.duplicates_dropped = duplicates_dropped
        self.layout = layout
        self.etype_ids = etype_ids  # the distinct edge types, ascending
        # the sweep's per-graph arrays; :mod:`hgsparse.sparsify` fills it on first use
        self.sweep_cache = None
        self._degrees = degrees
        # src * n + dst; it ascends with each pair's etypes in one run
        self._pair_key = pair_key

    # ---- basic counts ----

    @property
    def n(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def m(self) -> int:
        return int(self.src.shape[0])

    @property
    def t(self) -> int:
        return int(self.etype_ids.shape[0])

    def __repr__(self) -> str:
        return f"HeteroGraph(n={self.n}, m={self.m}, t={self.t})"

    # ---- node id mapping ----

    def dense_ids(self, us) -> np.ndarray:
        """Dense index of each original node id.

        UnknownNodeError names the first id that is not an integer, or
        else the first that is not in the node table.
        """
        missing = "node {} is not in the graph"
        return _positions(self.node_ids, _as_int64(us, "node ids", missing), missing)

    # ---- adjacency queries ----

    def degrees(self) -> np.ndarray:
        """Total degree of every node, dense order.

        Out + in, a self-loop counting once per direction.  The array is
        read-only.
        """
        return self._degrees

    # ---- edge identity lookups ----

    def edge_key(self, edge_id: int) -> tuple[int, int, int]:
        return (int(self.node_ids[self.src[edge_id]]),
                int(self.node_ids[self.dst[edge_id]]),
                int(self.etype[edge_id]))

    def edge_ids(self, src, dst, etype) -> np.ndarray:
        """Edge id of each (src, dst, etype) identity, given in original ids."""
        ids = self.dense_edge_ids(self.dense_ids(src), self.dense_ids(dst),
                                  _as_int64(etype, "edge types"))
        if (ids < 0).any():
            bad = int(np.flatnonzero(ids < 0)[0])
            raise UnknownEdgeError(
                f"({int(np.asarray(src)[bad])}, {int(np.asarray(dst)[bad])}, "
                f"{int(np.asarray(etype)[bad])}) is not an edge")
        return ids

    def dense_edge_ids(self, src: np.ndarray, dst: np.ndarray,
                       etype: np.ndarray) -> np.ndarray:
        """Edge id of each (src, dst, etype) of dense node ids; -1 if absent."""
        pair = self._pair_key
        key = src * self.n + dst
        lo = np.searchsorted(pair, key, side="left")
        run = np.searchsorted(pair, key, side="right") - lo
        owner = np.repeat(np.arange(key.shape[0]), run)
        pos = _ranges(lo, run)
        hit = self.etype[pos] == etype[owner]
        ids = np.full(key.shape[0], -1, dtype=np.int64)
        ids[owner[hit]] = pos[hit]
        return ids

    # ---- edge selections ----

    def edge_mask(self, selected=None) -> np.ndarray:
        """A selection as a new boolean mask over edge ids.

        A selection is None, for all edges, or a boolean mask of length m.
        """
        if selected is None:
            return np.ones(self.m, dtype=bool)
        if not (isinstance(selected, np.ndarray) and selected.dtype == bool):
            raise ValueError("a selection must be None or a boolean mask over the edges")
        if selected.shape != (self.m,):
            raise ValueError(f"mask length {selected.shape} != m={self.m}")
        return selected.copy()

    def subgraph(self, selected) -> "HeteroGraph":
        """Graph over the same node table keeping only the selected edges."""
        mask = self.edge_mask(selected)
        return build_graph_arrays(
            self.node_ids[self.src[mask]],
            self.node_ids[self.dst[mask]],
            self.etype[mask],
            weight=self.weight[mask] if self.weight is not None else None,
            node_ids=self.node_ids,
            node_types=self.node_types,
        )

    # ---- summary ----

    def stats(self) -> GraphStats:
        ids, counts = np.unique(self.etype, return_counts=True)
        return GraphStats(
            n=self.n,
            m=self.m,
            edges_per_node=self.m / self.n if self.n else 0.0,
            node_type_count=int(np.unique(self.node_types).shape[0]) if self.n else 0,
            edge_type_count=self.t,
            per_edge_type={int(i): int(c) for i, c in zip(ids, counts)},
            max_bucket=int(np.diff(self.layout.bkt_ptr).max(initial=0)),
        )


def build_graph_arrays(src, dst, etype, weight=None,
                       node_ids=None, node_types=None) -> HeteroGraph:
    """Build a graph from parallel edge arrays (original node ids).

    When ``node_ids`` is given it declares the node table (with
    ``node_types`` aligned); endpoints outside it raise.  Otherwise the
    node set is inferred from the endpoints with every node typed 0, and
    ``node_types`` without ``node_ids`` raises ValueError.
    Node ids, node types and edge types are whole numbers in [0, 2**63),
    as the readers require; any other value raises ValueError.
    ``weight`` is None or one finite value per edge; a NaN or an infinity
    raises :class:`NonFiniteWeightError`.  Duplicate identities are
    collapsed, first occurrence wins.
    """
    src = _as_ids(src, "src")
    dst = _as_ids(dst, "dst")
    etype = _as_ids(etype, "etype")
    if not (src.shape == dst.shape == etype.shape):
        raise ValueError("src, dst and etype must have equal length")
    if weight is not None:
        weight = np.ascontiguousarray(weight, dtype=np.float64)
        if weight.shape != src.shape:
            raise ValueError("weight must align with the edge arrays")
        if not np.isfinite(weight).all():
            raise NonFiniteWeightError("edge weight is not finite")

    if node_ids is None:
        if node_types is not None:
            raise ValueError("node_types needs node_ids")
        node_ids = np.unique(np.concatenate((src, dst)))
        node_types = np.zeros(node_ids.shape[0], dtype=np.int64)
    else:
        node_ids = _as_ids(node_ids, "node_ids")
        node_types = (np.zeros(node_ids.shape[0], dtype=np.int64) if node_types is None
                      else _as_ids(node_types, "node_types"))
        if node_types.shape != node_ids.shape:
            raise ValueError("node_types must align with node_ids")
        perm = np.argsort(node_ids, kind="stable")
        node_ids = node_ids[perm]
        node_types = np.ascontiguousarray(node_types[perm])
        if node_ids.size > 1 and (node_ids[1:] == node_ids[:-1]).any():
            dup = int(node_ids[np.flatnonzero(node_ids[1:] == node_ids[:-1])[0]])
            raise ValueError(f"duplicate node id {dup} in node table")
    node_ids = np.ascontiguousarray(node_ids)
    n = node_ids.shape[0]

    src = _positions(node_ids, src, "edge source {} is not in the node table")
    dst = _positions(node_ids, dst, "edge destination {} is not in the node table")

    # canonical order: ascending (src, dst, etype), input order among
    # duplicates; n * n < 2**63 for any graph that fits in memory, so the
    # pair key cannot overflow.  A table already strictly ascending, as
    # every file hgsparse writes is, has no duplicate and keeps its order;
    # its etype and weight are copied, so the graph shares no caller array.
    m_in = src.shape[0]
    pair = src * n + dst
    step = pair[1:] - pair[:-1]
    if ((step > 0) | ((step == 0) & (etype[1:] > etype[:-1]))).all():
        etype = etype.copy()
        if weight is not None:
            weight = weight.copy()
    else:
        perm = np.lexsort((etype, pair))
        pair = pair[perm]
        etype = etype[perm]
        keep = np.ones(perm.shape[0], dtype=bool)
        keep[1:] = (pair[1:] != pair[:-1]) | (etype[1:] != etype[:-1])
        perm = perm[keep]
        pair = pair[keep]
        etype = etype[keep]
        src = src[perm]
        dst = dst[perm]
        if weight is not None:
            weight = weight[perm]
    etype_ids, etype_rank = np.unique(etype, return_inverse=True)
    layout = _build_layout(src, dst, etype_rank, etype_ids, n)
    side_size = np.diff(layout.side_ptr)
    degrees = side_size[:n] + side_size[n:]
    degrees.flags.writeable = False
    return HeteroGraph(node_ids, node_types, src, dst, etype, weight,
                       m_in - pair.shape[0], layout, etype_ids,
                       degrees, pair)


def build_graph(edges: Iterable, node_types: Mapping[int, int] | None = None) -> HeteroGraph:
    """Build a graph from (src, dst, etype[, weight]) tuples.

    Every record carries a finite weight or none does; a fourth field of
    None is no weight.  Mixing the two raises ValueError.
    ``node_types`` optionally declares the full node table as a mapping
    node id -> node type id; endpoints must then be declared.  Ids and
    types, keys and values alike, follow :func:`build_graph_arrays`' rule.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    etypes: list[int] = []
    weights: list[float] = []
    for rec in edges:
        if len(rec) not in (3, 4):
            raise ValueError(f"edge record must have 3 or 4 fields, got {rec!r}")
        srcs.append(rec[0])
        dsts.append(rec[1])
        etypes.append(rec[2])
        if len(rec) == 4 and rec[3] is not None:
            weights.append(float(rec[3]))
    if weights and len(weights) != len(srcs):
        raise ValueError("edge records must all carry a weight or all carry none")
    node_ids = node_type_arr = None
    if node_types is not None:
        node_ids, node_type_arr = list(node_types), list(node_types.values())
    return build_graph_arrays(
        srcs, dsts, etypes, weight=weights or None,
        node_ids=node_ids, node_types=node_type_arr)
