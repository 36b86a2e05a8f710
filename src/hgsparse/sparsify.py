"""Per-bucket graph sparsifiers.

Two methods over the same sweep skeleton: vertices in ascending total
degree (ties by ascending node id), out-direction before in-direction
per vertex, edges only ever added to the kept set H.

* ``per-type``: within each (node, direction, edge-type) bucket B, keep
  all of B when |B| <= k; otherwise top B's intersection with H up to k
  by sampling uniformly without replacement from B - H.  Every bucket
  ends with >= min(k, |B|) kept edges and |H| <= 2ktn.
* ``all-types``: per node-direction, first guarantee one kept edge in
  every nonempty bucket, then top up to k kept edges across all of the
  node-direction's edges regardless of type.  Every bucket stays
  covered and |H| <= 2*max(k, t)*n.

Sampling pools are always in ascending edge-identity order before the
partial shuffle, so a (graph, k, method, seed) tuple fully determines H.

The sweep visits units: a per-type bucket, or an all-types
node-direction.  The unit of node u in direction d comes at time
2*rank(u) + d, rank being the position of u in :func:`vertex_order`.  A
unit is *order-free* when it keeps all of its edges whatever H holds on
arrival: a per-type bucket of at most k edges, or a node-direction whose
buckets each hold one edge.  Such a unit draws nothing from the random
stream (every take-all step and every ``randbelow(1)`` is free), so the
sweep keeps all of their edges in one numpy pass and walks only the other
units, in time order, in Python.  An edge belongs to one unit per
direction, so when a walked unit looks at an edge, the edge is in H iff
an earlier walked unit picked it or its order-free unit came earlier.
The stream is consumed draw for draw as by the one-unit-at-a-time sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import RandomStream
from .errors import EmptyGraphError
from .graph import HeteroGraph

PER_TYPE = "per-type"
ALL_TYPES = "all-types"
METHODS = (PER_TYPE, ALL_TYPES)

_NEVER = np.iinfo(np.int64).max  # the time of an edge no order-free unit keeps


@dataclass(frozen=True)
class SparsifyParams:
    k: int
    method: str = PER_TYPE
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")


@dataclass
class SparsifierResult:
    graph: HeteroGraph
    params: SparsifyParams
    mask: np.ndarray = field(repr=False)  # bool over edge ids
    kept: int
    ratio: float

    @property
    def edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def vertex_order(g: HeteroGraph) -> np.ndarray:
    """Dense node ids in ascending (total degree, node id) order."""
    return np.lexsort((np.arange(g.n), g.degrees())).astype(np.int64)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each pair of ``starts`` and ``lens``, concatenated."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(lens.sum())


def sparsify(g: HeteroGraph, params: SparsifyParams) -> SparsifierResult:
    """Run whichever method ``params`` names."""
    if g.m == 0:
        raise EmptyGraphError("cannot sparsify a graph with no edges")
    per_type = params.method == PER_TYPE
    layout = g.layout
    m = g.m
    rank = np.empty(g.n, dtype=np.int64)
    rank[vertex_order(g)] = np.arange(g.n)

    # a node-direction ("side") of node u has time 2*rank(u) + d
    side_time = np.concatenate((2 * rank, 2 * rank + 1))
    side_bkt_ptr = layout.side_bkt_ptr
    side_bkts = side_bkt_ptr[1:] - side_bkt_ptr[:-1]
    bkt_ptr = layout.bkt_ptr
    if per_type:  # a unit is a bucket
        unit_ptr = bkt_ptr
        unit_time = np.repeat(side_time, side_bkts)
    else:  # a unit is a side
        unit_ptr = layout.side_ptr
        unit_time = side_time
    lens = unit_ptr[1:] - unit_ptr[:-1]
    free = lens <= params.k if per_type else lens == side_bkts

    # stage 1: keep every edge of the order-free units, noting for each
    # edge the earliest time such a unit kept it
    kept_at = np.repeat(np.where(free, unit_time, _NEVER), lens)
    out_order, in_order = layout.order[:m], layout.order[m:]
    free_time = np.empty(m, dtype=np.int64)
    free_time[out_order] = kept_at[:m]
    free_time[in_order] = np.minimum(free_time[in_order], kept_at[m:])
    selected = free_time != _NEVER

    # stage 2: the other units in time order.  An edge is kept at time T
    # once an earlier unit picked it, so the edges that an order-free
    # unit kept before their loop unit's time start out picked.
    units = np.flatnonzero(~free)
    if units.shape[0]:
        # stable: the buckets of one side share its time and draw in bucket order
        units = units[np.argsort(unit_time[units], kind="stable")]
        lens = lens[units]
        edges = layout.order[_ranges(unit_ptr[units], lens)]
        picked = set(edges[free_time[edges] < np.repeat(unit_time[units], lens)].tolist())
        bounds = np.cumsum(lens).tolist()
        rng = RandomStream(params.seed)
        if per_type:
            _sweep_buckets(edges.tolist(), bounds, params.k, picked, rng)
        else:
            counts = side_bkts[units]
            sizes = (bkt_ptr[1:] - bkt_ptr[:-1])[_ranges(side_bkt_ptr[units], counts)]
            _sweep_sides(edges.tolist(), bounds, sizes.tolist(), counts.tolist(),
                         params.k, picked, rng)
        selected[np.fromiter(picked, dtype=np.int64, count=len(picked))] = True
    kept = int(selected.sum())
    return SparsifierResult(graph=g, params=params, mask=selected,
                            kept=kept, ratio=kept / g.m)


def _sweep_buckets(edges: list, bounds: list, k: int, picked: set,
                   rng: RandomStream) -> None:
    """Top each per-type loop bucket up to k kept edges, in order."""
    lo = 0
    for hi in bounds:
        pool = [e for e in edges[lo:hi] if e not in picked]
        need = k - (hi - lo - len(pool))
        if need > 0:
            picked.update(sample_without_replacement(pool, min(need, len(pool)), rng))
        lo = hi


def _sweep_sides(edges: list, bounds: list, sizes: list, counts: list, k: int,
                 picked: set, rng: RandomStream) -> None:
    """Cover each bucket of each all-types loop side, then top the side up to k."""
    lo = b = 0
    for hi, count in zip(bounds, counts):
        start = lo
        for size in sizes[b:b + count]:
            bucket = edges[start:start + size]
            if picked.isdisjoint(bucket):
                picked.add(bucket[rng.randbelow(size)])
            start += size
        b += count
        if count < k:  # else the covered buckets already hold k kept edges
            pool = sorted(e for e in edges[lo:hi] if e not in picked)
            need = k - (hi - lo - len(pool))
            if need > 0:
                picked.update(sample_without_replacement(pool, min(need, len(pool)), rng))
        lo = hi


def sample_without_replacement(pool, count: int, rng: RandomStream) -> list:
    """Uniform ``count``-subset of ``pool`` via a partial Fisher-Yates.

    ``pool`` must already be in canonical (ascending identity) order for
    reproducible results.  Selecting the whole pool consumes no stream
    state.
    """
    items = list(pool)
    if not 0 <= count <= len(items):
        raise ValueError(f"count must be in [0, {len(items)}], got {count}")
    if count == len(items):
        return items
    rng.shuffle_prefix(items, count)
    return items[:count]
