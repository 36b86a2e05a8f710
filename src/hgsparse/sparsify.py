"""Per-bucket graph sparsifiers.

Two methods over the same sweep skeleton: vertices in ascending total
degree (ties by ascending node id), out-direction before in-direction
per vertex, edges only ever added to the kept set H.

* ``per-type``: within each (node, direction, edge-type) bucket B, keep
  all of B when |B| <= k; otherwise top B's intersection with H up to k
  with a uniform sample of B - H.  Every bucket ends with >= min(k, |B|)
  kept edges and |H| <= 2ktn.
* ``all-types``: per node-direction, first guarantee one kept edge in
  every nonempty bucket, then top up to k kept edges across all of the
  node-direction's edges regardless of type.  Every bucket stays
  covered and |H| <= 2*max(k, t)*n.

Every sample is a bottom-k sample, a uniform subset without replacement
(Cohen & Kaplan, PODC 2007): edge e in direction d (0 out, 1 in) has in
phase p the priority word ``3 * (2e + d) + p`` of the counter-keyed
``(seed, _SWEEP_TAG)`` stream of :mod:`hgsparse._rng`, the phases being
per-type top-up, all-types cover and all-types top-up.  A cover keeps
its bucket's least word; a top-up keeps the free edges whose words have
the least high 32 bits, ties in layout order (ascending edge id within a
bucket).  An edge lies in one unit per direction, so no key decides two
choices, and a (graph, k, method, seed) tuple fully determines H.

The sweep visits units: a per-type bucket, or an all-types
node-direction.  The unit of node u in direction d comes at time
2*rank(u) + d, rank being the position of u in :func:`vertex_order`.  A
unit is *order-free* when it keeps all of its edges whatever H holds on
arrival: a per-type bucket of at most k edges, or a node-direction whose
buckets each hold one edge.  The sweep keeps all of their edges in one
numpy pass and walks only the other units, in time order, in Python.  An
edge belongs to one unit per direction, so when a walked unit looks at
an edge, the edge is in H iff an earlier walked unit picked it or its
order-free unit came earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import counter_words
from .errors import EmptyGraphError
from .graph import HeteroGraph

PER_TYPE = "per-type"
ALL_TYPES = "all-types"
METHODS = (PER_TYPE, ALL_TYPES)

_NEVER = np.iinfo(np.int64).max  # the time of an edge no order-free unit keeps
_SWEEP_TAG = 2  # the sweep's stream; eval's split and negatives use tags 0 and 1
_TOP_UP, _COVER, _SIDE_TOP_UP = 0, 1, 2  # the phase of a priority word


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
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
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
        # the buckets of one side share its time but no edge, so their
        # order gives the same H
        units = units[np.argsort(unit_time[units])]
        lens = lens[units]
        pos = _ranges(unit_ptr[units], lens)
        edges = layout.order[pos]
        picked = set(edges[free_time[edges] < np.repeat(unit_time[units], lens)].tolist())
        bounds = np.cumsum(lens).tolist()
        # the counter of each entry, less its phase; out sides fill order[:m]
        key = 3 * (2 * edges + (pos >= m))
        if per_type:
            ordered = edges[_by_priority(params.seed, key + _TOP_UP, lens)]
            _sweep_buckets(ordered.tolist(), bounds, params.k, picked)
        else:
            counts = side_bkts[units]
            sizes = (bkt_ptr[1:] - bkt_ptr[:-1])[_ranges(side_bkt_ptr[units], counts)]
            # words are distinct, so each bucket has one least word
            word = counter_words(params.seed, _SWEEP_TAG, key + _COVER)
            least = word == np.repeat(np.minimum.reduceat(word, np.cumsum(sizes) - sizes),
                                      sizes)
            # only a side of fewer than k buckets can need a top-up
            short = counts < params.k
            top_lens = np.where(short, lens, 0)
            top = np.repeat(short, lens)
            ordered = edges[top][_by_priority(params.seed, key[top] + _SIDE_TOP_UP, top_lens)]
            _sweep_sides(edges.tolist(), bounds, sizes.tolist(), counts.tolist(),
                         edges[least].tolist(), ordered.tolist(),
                         np.cumsum(top_lens).tolist(), params.k, picked)
        selected[np.fromiter(picked, dtype=np.int64, count=len(picked))] = True
    kept = int(selected.sum())
    return SparsifierResult(graph=g, params=params, mask=selected,
                            kept=kept, ratio=kept / g.m)


def _by_priority(seed: int, counters: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The order that sorts each unit's run of entries by priority.

    A priority is the high 32 bits of the entry's word; one stable sort of
    ``unit << 32 | priority`` keeps layout order among equal priorities.
    A loop unit holds two or more of the 2m entries, so unit < 2**32.
    """
    unit = np.repeat(np.arange(lens.shape[0], dtype=np.uint64), lens)
    word = counter_words(seed, _SWEEP_TAG, counters)
    return np.argsort(unit << np.uint64(32) | word >> np.uint64(32), kind="stable")


def _sweep_buckets(ordered: list, bounds: list, k: int, picked: set) -> None:
    """Top each per-type loop bucket up to k kept edges, least priority first."""
    lo = 0
    for hi in bounds:
        pool = [e for e in ordered[lo:hi] if e not in picked]
        need = k - (hi - lo - len(pool))
        if need > 0:
            picked.update(pool[:need])
        lo = hi


def _sweep_sides(edges: list, bounds: list, sizes: list, counts: list, least: list,
                 ordered: list, top_bounds: list, k: int, picked: set) -> None:
    """Cover each bucket of each all-types loop side, then top the side up to k.

    ``edges`` holds the sides' buckets in layout order and ``least`` each
    bucket's cover pick.  ``ordered`` holds by priority the edges of each
    side of fewer than k buckets, and nothing of the others, whose
    covered buckets already hold k kept edges.
    """
    lo = top_lo = b = 0
    for hi, top_hi, count in zip(bounds, top_bounds, counts):
        start = lo
        for size, pick in zip(sizes[b:b + count], least[b:b + count]):
            if picked.isdisjoint(edges[start:start + size]):
                picked.add(pick)
            start += size
        b += count
        pool = [e for e in ordered[top_lo:top_hi] if e not in picked]
        need = k - (hi - lo - len(pool))
        if need > 0:
            picked.update(pool[:need])
        lo, top_lo = hi, top_hi
