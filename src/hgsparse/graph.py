"""Immutable typed directed multigraph with per-(node, direction, edge-type) buckets.

Edges are stored in one canonical table sorted ascending by
(src, dst, etype) over dense node indices; an edge's identity is that
triple and its edge id is its row in the table.  Each direction carries
a grouped view: ``order`` lists edge ids grouped by (node, etype) with
ascending edge id inside every bucket, so bucket iteration order is
deterministic and matches ascending identity order.

Node ids from input files are remapped to a dense 0..n-1 range at build
time (ascending original id, so the remap is monotone); original ids
are kept for all user-facing output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteWeightError, UnknownEdgeError, UnknownNodeError

OUT = "out"
IN = "in"
DIRECTIONS = (OUT, IN)


class EdgeRecord(NamedTuple):
    src: int
    dst: int
    etype: int
    weight: float | None = None

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.src, self.dst, self.etype)


@dataclass(frozen=True)
class _DirIndex:
    """Grouped edge-id view of one direction (keyed by src for out, dst for in)."""

    order: np.ndarray         # edge ids grouped by (node, etype), shape (m,)
    bkt_ptr: np.ndarray       # bucket b spans order[bkt_ptr[b]:bkt_ptr[b+1]]
    bkt_etype: np.ndarray     # edge type of bucket b
    node_bkt_ptr: np.ndarray  # node u owns buckets node_bkt_ptr[u]:node_bkt_ptr[u+1]
    node_ptr: np.ndarray      # node u owns edges order[node_ptr[u]:node_ptr[u+1]]


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


def _as_int64(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _build_dir_index(key: np.ndarray, etype: np.ndarray, n: int) -> _DirIndex:
    m = key.shape[0]
    # stable lexsort keeps ascending edge id inside equal (node, etype)
    order = np.lexsort((etype, key)).astype(np.int64)
    key_sorted = key[order]
    et_sorted = etype[order]
    if m == 0:
        starts = np.empty(0, dtype=np.int64)
    else:
        change = (key_sorted[1:] != key_sorted[:-1]) | (et_sorted[1:] != et_sorted[:-1])
        starts = np.flatnonzero(np.concatenate(([True], change))).astype(np.int64)
    bkt_ptr = np.concatenate((starts, [m])).astype(np.int64)
    bkt_node = key_sorted[starts]
    bkt_etype = np.ascontiguousarray(et_sorted[starts], dtype=np.int64)
    node_bkt_ptr = np.searchsorted(bkt_node, np.arange(n + 1)).astype(np.int64)
    node_ptr = bkt_ptr[node_bkt_ptr]
    return _DirIndex(np.ascontiguousarray(order), bkt_ptr, bkt_etype, node_bkt_ptr, node_ptr)


class HeteroGraph:
    """Use :func:`build_graph` or :func:`build_graph_arrays` to construct."""

    __slots__ = ("node_ids", "node_types", "src", "dst", "etype", "weight",
                 "duplicates_dropped", "_out", "_in", "_etype_ids")

    def __init__(self, node_ids, node_types, src, dst, etype, weight,
                 duplicates_dropped, out_index, in_index):
        self.node_ids = node_ids
        self.node_types = node_types
        self.src = src
        self.dst = dst
        self.etype = etype
        self.weight = weight
        self.duplicates_dropped = duplicates_dropped
        self._out = out_index
        self._in = in_index
        self._etype_ids = np.unique(etype)

    # ---- basic counts ----

    @property
    def n(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def m(self) -> int:
        return int(self.src.shape[0])

    @property
    def t(self) -> int:
        return int(self._etype_ids.shape[0])

    @property
    def etype_ids(self) -> np.ndarray:
        return self._etype_ids

    @property
    def has_weights(self) -> bool:
        return self.weight is not None

    def __repr__(self) -> str:
        return f"HeteroGraph(n={self.n}, m={self.m}, t={self.t})"

    # ---- node id mapping ----

    def dense_id(self, u: int) -> int:
        pos = int(np.searchsorted(self.node_ids, u))
        if pos >= self.n or self.node_ids[pos] != u:
            raise UnknownNodeError(f"node {u} is not in the graph")
        return pos

    def dense_ids(self, us) -> np.ndarray:
        us = _as_int64(us, "node ids")
        pos = np.searchsorted(self.node_ids, us)
        ok = pos < self.n
        ok &= self.node_ids[np.minimum(pos, max(self.n - 1, 0))] == us
        if not ok.all():
            bad = us[np.flatnonzero(~ok)[0]]
            raise UnknownNodeError(f"node {int(bad)} is not in the graph")
        return pos.astype(np.int64)

    def original_ids(self, dense) -> np.ndarray:
        return self.node_ids[dense]

    # ---- adjacency queries ----

    def _dir_index(self, direction: str) -> _DirIndex:
        if direction == OUT:
            return self._out
        if direction == IN:
            return self._in
        raise ValueError(f"direction must be {OUT!r} or {IN!r}, got {direction!r}")

    def bucket_edge_ids(self, u: int, direction: str, etype: int) -> np.ndarray:
        """Edge ids of bucket (u, direction, etype), ascending; u is an original id."""
        idx = self._dir_index(direction)
        ud = self.dense_id(u)
        b_lo = idx.node_bkt_ptr[ud]
        b_hi = idx.node_bkt_ptr[ud + 1]
        b = b_lo + np.searchsorted(idx.bkt_etype[b_lo:b_hi], etype)
        if b >= b_hi or idx.bkt_etype[b] != etype:
            return np.empty(0, dtype=np.int64)
        return idx.order[idx.bkt_ptr[b]:idx.bkt_ptr[b + 1]].copy()

    def bucket(self, u: int, direction: str, etype: int) -> list[tuple[int, int, int]]:
        """Bucket contents as identity triples with original node ids."""
        return self.edge_keys(self.bucket_edge_ids(u, direction, etype))

    def node_buckets(self, u: int, direction: str) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (etype, edge ids) for each nonempty bucket of u, etype ascending."""
        idx = self._dir_index(direction)
        ud = self.dense_id(u)
        for b in range(int(idx.node_bkt_ptr[ud]), int(idx.node_bkt_ptr[ud + 1])):
            yield int(idx.bkt_etype[b]), idx.order[idx.bkt_ptr[b]:idx.bkt_ptr[b + 1]].copy()

    def node_direction_edge_ids(self, u: int, direction: str) -> np.ndarray:
        idx = self._dir_index(direction)
        ud = self.dense_id(u)
        return idx.order[idx.node_ptr[ud]:idx.node_ptr[ud + 1]].copy()

    def degree(self, u: int) -> int:
        """Total degree: out + in, a self-loop counting once per direction."""
        ud = self.dense_id(u)
        out_n = self._out.node_ptr[ud + 1] - self._out.node_ptr[ud]
        in_n = self._in.node_ptr[ud + 1] - self._in.node_ptr[ud]
        return int(out_n + in_n)

    def degrees(self) -> np.ndarray:
        """Total degree of every node, dense order."""
        return np.diff(self._out.node_ptr) + np.diff(self._in.node_ptr)

    # ---- edge identity lookups ----

    def edge_key(self, edge_id: int) -> tuple[int, int, int]:
        return (int(self.node_ids[self.src[edge_id]]),
                int(self.node_ids[self.dst[edge_id]]),
                int(self.etype[edge_id]))

    def edge_keys(self, edge_ids) -> list[tuple[int, int, int]]:
        return [self.edge_key(int(e)) for e in np.asarray(edge_ids, dtype=np.int64)]

    def edge_record(self, edge_id: int) -> EdgeRecord:
        w = None
        if self.weight is not None:
            stored = float(self.weight[edge_id])
            w = None if np.isnan(stored) else stored
        s, d, t = self.edge_key(edge_id)
        return EdgeRecord(s, d, t, w)

    def edge_index(self, src: int, dst: int, etype: int) -> int:
        """Edge id of identity (src, dst, etype) in original node ids."""
        try:
            return int(self.edge_ids([src], [dst], [etype])[0])
        except UnknownNodeError:
            raise UnknownEdgeError(f"({src}, {dst}, {etype}) is not an edge") from None

    def edge_ids(self, src, dst, etype) -> np.ndarray:
        """Vectorized edge_index over parallel arrays of original ids."""
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
        # the table is sorted by (src, dst, etype), so src * n + dst ascends
        # with each pair's etypes in one run; n * n < 2**63 for any graph
        # that fits in memory, so the pair key cannot overflow
        pair = self.src * self.n + self.dst
        key = src * self.n + dst
        lo = np.searchsorted(pair, key, side="left")
        run = np.searchsorted(pair, key, side="right") - lo
        owner = np.repeat(np.arange(key.shape[0]), run)
        pos = np.arange(owner.shape[0]) + np.repeat(lo - (np.cumsum(run) - run), run)
        hit = self.etype[pos] == etype[owner]
        ids = np.full(key.shape[0], -1, dtype=np.int64)
        ids[owner[hit]] = pos[hit]
        return ids

    # ---- edge selections ----

    def edge_mask(self, selected=None) -> np.ndarray:
        """Normalize an edge selection to a boolean mask over edge ids.

        Accepts None (all edges), a boolean mask, an array/sequence of
        edge ids, or an iterable of identity triples / EdgeRecords.
        """
        if selected is None:
            return np.ones(self.m, dtype=bool)
        if isinstance(selected, np.ndarray) and selected.dtype == bool:
            if selected.shape != (self.m,):
                raise ValueError(f"mask length {selected.shape} != m={self.m}")
            return selected.copy()
        items = list(selected)
        mask = np.zeros(self.m, dtype=bool)
        if not items:
            return mask
        if all(isinstance(x, (int, np.integer)) for x in items):
            ids = _as_int64(items, "edge ids")
            if ids.size and (ids.min() < 0 or ids.max() >= self.m):
                raise ValueError("edge id out of range")
            mask[ids] = True
            return mask
        triples = np.array([(x[0], x[1], x[2]) for x in items], dtype=np.int64)
        mask[self.edge_ids(triples[:, 0], triples[:, 1], triples[:, 2])] = True
        return mask

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
        max_bucket = 0
        for idx in (self._out, self._in):
            if idx.bkt_ptr.shape[0] > 1:
                max_bucket = max(max_bucket, int(np.diff(idx.bkt_ptr).max()))
        return GraphStats(
            n=self.n,
            m=self.m,
            edges_per_node=self.m / self.n if self.n else 0.0,
            node_type_count=int(np.unique(self.node_types).shape[0]) if self.n else 0,
            edge_type_count=self.t,
            per_edge_type={int(i): int(c) for i, c in zip(ids, counts)},
            max_bucket=max_bucket,
        )


def build_graph_arrays(src, dst, etype, weight=None,
                       node_ids=None, node_types=None) -> HeteroGraph:
    """Build a graph from parallel edge arrays (original node ids).

    When ``node_ids`` is given it declares the node table (with
    ``node_types`` aligned); endpoints outside it raise.  Otherwise the
    node set is inferred from the endpoints with every node typed 0.
    Duplicate identities are collapsed, first occurrence wins.
    """
    src = _as_int64(src, "src")
    dst = _as_int64(dst, "dst")
    etype = _as_int64(etype, "etype")
    if not (src.shape == dst.shape == etype.shape):
        raise ValueError("src, dst and etype must have equal length")
    for name, arr in (("src", src), ("dst", dst), ("etype", etype)):
        if arr.size and arr.min() < 0:
            raise ValueError(f"{name} contains a negative id")
    if weight is not None:
        weight = np.ascontiguousarray(weight, dtype=np.float64)
        if weight.shape != src.shape:
            raise ValueError("weight must align with the edge arrays")
        if np.isinf(weight).any():
            raise NonFiniteWeightError("edge weight is not finite")

    if node_ids is None:
        node_ids = np.unique(np.concatenate((src, dst)))
        node_types = np.zeros(node_ids.shape[0], dtype=np.int64)
    else:
        node_ids = _as_int64(node_ids, "node_ids")
        if node_types is None:
            node_types = np.zeros(node_ids.shape[0], dtype=np.int64)
        else:
            node_types = _as_int64(node_types, "node_types")
        if node_types.shape != node_ids.shape:
            raise ValueError("node_types must align with node_ids")
        if node_ids.size:
            if node_ids.min() < 0 or node_types.min() < 0:
                raise ValueError("node ids and types must be non-negative")
        perm = np.argsort(node_ids, kind="stable")
        node_ids = node_ids[perm]
        node_types = np.ascontiguousarray(node_types[perm])
        if node_ids.size > 1 and (node_ids[1:] == node_ids[:-1]).any():
            dup = int(node_ids[np.flatnonzero(node_ids[1:] == node_ids[:-1])[0]])
            raise ValueError(f"duplicate node id {dup} in node table")
    node_ids = np.ascontiguousarray(node_ids)
    n = node_ids.shape[0]

    def remap(arr: np.ndarray, what: str) -> np.ndarray:
        if arr.size == 0:
            return arr.copy()
        pos = np.searchsorted(node_ids, arr)
        ok = pos < n
        ok &= node_ids[np.minimum(pos, max(n - 1, 0))] == arr
        if not ok.all():
            bad = int(arr[np.flatnonzero(~ok)[0]])
            raise UnknownNodeError(f"edge {what} {bad} is not in the node table")
        return pos.astype(np.int64)

    src_d = remap(src, "source")
    dst_d = remap(dst, "destination")

    perm = np.lexsort((etype, dst_d, src_d))
    src_c = np.ascontiguousarray(src_d[perm])
    dst_c = np.ascontiguousarray(dst_d[perm])
    et_c = np.ascontiguousarray(etype[perm])
    if src_c.size:
        dup = (src_c[1:] == src_c[:-1]) & (dst_c[1:] == dst_c[:-1]) & (et_c[1:] == et_c[:-1])
        keep = np.concatenate(([True], ~dup))
    else:
        keep = np.ones(0, dtype=bool)
    duplicates_dropped = int(src_c.size - keep.sum())
    src_c = np.ascontiguousarray(src_c[keep])
    dst_c = np.ascontiguousarray(dst_c[keep])
    et_c = np.ascontiguousarray(et_c[keep])
    w_c = None
    if weight is not None:
        w_c = np.ascontiguousarray(weight[perm][keep])

    out_index = _build_dir_index(src_c, et_c, n)
    in_index = _build_dir_index(dst_c, et_c, n)
    return HeteroGraph(node_ids, node_types, src_c, dst_c, et_c, w_c,
                       duplicates_dropped, out_index, in_index)


def build_graph(edges: Iterable, node_types: Mapping[int, int] | None = None) -> HeteroGraph:
    """Build a graph from EdgeRecords or (src, dst, etype[, weight]) tuples.

    ``node_types`` optionally declares the full node table as a mapping
    node id -> node type id; endpoints must then be declared.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    etypes: list[int] = []
    weights: list[float] = []
    any_weight = False
    for rec in edges:
        if len(rec) not in (3, 4):
            raise ValueError(f"edge record must have 3 or 4 fields, got {rec!r}")
        srcs.append(rec[0])
        dsts.append(rec[1])
        etypes.append(rec[2])
        w = rec[3] if len(rec) == 4 else None
        if w is None:
            weights.append(np.nan)
        else:
            any_weight = True
            weights.append(float(w))
    node_ids = node_type_arr = None
    if node_types is not None:
        node_ids = np.fromiter(node_types.keys(), dtype=np.int64, count=len(node_types))
        node_type_arr = np.fromiter(node_types.values(), dtype=np.int64, count=len(node_types))
    return build_graph_arrays(
        srcs, dsts, etypes,
        weight=np.asarray(weights) if any_weight else None,
        node_ids=node_ids, node_types=node_type_arr)


def graph_stats(g: HeteroGraph) -> GraphStats:
    return g.stats()
