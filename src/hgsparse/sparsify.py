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
``(seed, SWEEP_TAG)`` stream of :mod:`hgsparse._rng`, the phases being
per-type top-up, all-types cover and all-types top-up.  A cover keeps
its bucket's least word; a top-up keeps the free edges whose words have
the least high 32 bits, ties in layout order (ascending edge id within a
bucket).  An edge lies in one unit per direction, so no key decides two
choices, and a (graph, k, method, seed) tuple fully determines H.

The sweep visits units: a per-type bucket, or an all-types side (a
node-direction).  The unit of node u in direction d comes at time
2*rank(u) + d, rank being the position of u in :func:`vertex_order`.
One function, :func:`sparsify`, runs both methods: a unit first covers
each of its buckets that holds no kept edge (all-types only), then tops
up to k kept edges.  The method decides the units, the held counts, the
top-up flags and words, the cover candidates and the loop's cover step,
and nothing else.
A unit is *order-free*, keeping all of its edges whatever H holds on
arrival, when it has at most max(k, c) entries, c being its cover count
(its bucket count for all-types, 0 for per-type): its top-up needs at
least as many edges as it has free, or each of its buckets holds one
edge and is covered.  One numpy pass keeps the order-free units' edges,
and a graph without other units is done; one Python loop walks the
other units, the loop units, in time order.

The loop visits only candidate entries.  A loop unit holds more than k
entries.  A top-up takes the first ``k - kept`` free entries in priority
order; at most ``kept`` of the unit's first k entries are in H, so every
pick lies among them.  A unit's candidates are thus its k least-priority
entries and, for all-types, each bucket's cover edge, and a unit costs
O(k + its bucket count).  An edge has one entry per direction, so
whether it is in H when a unit looks at it depends only on the unit
holding its other entry: it is *held* when that unit is order-free and
came earlier, and it is picked when that unit is a loop unit that came
earlier and picked it.  Each loop bucket's kept count starts at its held
entries, counted in numpy, and a pick raises the count of the bucket of
the edge's other entry when the loop reaches that bucket later.

The vertex order, the times, the sizes and each position's bucket and
twin depend on the graph alone.  :class:`SweepArrays` holds them; the
first :func:`sparsify` call on a graph builds them, taking the vertex
order from :func:`vertex_order`, and keeps them in the graph's
``sweep_cache`` slot, where later calls find them.  Nothing else builds
them: :func:`vertex_order` itself sorts the degrees on each call, and
the coverage checks and the graph summary read the layout's pointers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import SWEEP_TAG, check_seed, counter_words
from .errors import EmptyGraphError
from .graph import HeteroGraph, _ranges

PER_TYPE = "per-type"
ALL_TYPES = "all-types"
METHODS = (PER_TYPE, ALL_TYPES)

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
        check_seed(self.seed)


@dataclass
class SparsifierResult:
    params: SparsifyParams
    mask: np.ndarray = field(repr=False)  # bool over edge ids
    kept: int
    ratio: float


@dataclass(frozen=True, eq=False)
class SweepArrays:
    """The graph's sweep order and sizes; every array is read-only.

    Node u's side in direction d (0 out, 1 in) comes at time 2*rank(u) + d,
    rank being u's place in ascending (total degree, node id) order; the
    times of the 2n sides are a permutation of 0..2n-1.  A bucket takes its
    side's time.  Sizes are int64; times, orders and positions are int32 in
    any graph of fewer than about a billion edges.
    """

    side_time: np.ndarray     # time of side s
    side_by_time: np.ndarray  # the sides in time order; [::2] is the vertex order
    side_bkts: np.ndarray     # bucket count of side s
    side_size: np.ndarray     # entry count of side s
    bkt_size: np.ndarray      # entry count of bucket b
    bkt_time: np.ndarray      # time of bucket b's side
    bkt_by_time: np.ndarray   # the buckets, grouped by side in time order
    pos_bkt: np.ndarray       # the bucket of layout position p
    twin: np.ndarray          # the position of p's edge in the other direction


def _build_sweep_arrays(g: HeteroGraph) -> SweepArrays:
    """The sweep arrays of a graph."""
    layout, n, m = g.layout, g.n, g.m
    order = layout.order
    # times, orders and positions fit in int32 below about a billion edges
    index = np.int32 if 2 * max(n, m) <= np.iinfo(np.int32).max else np.int64
    side_bkts = np.diff(layout.side_bkt_ptr)
    bkt_size = np.diff(layout.bkt_ptr)
    side_time = np.empty(2 * n, dtype=index)
    side_time[vertex_order(g)] = np.arange(0, 2 * n, 2)
    side_time[n:] = side_time[:n] + 1
    side_by_time = np.empty(2 * n, dtype=index)
    side_by_time[side_time] = np.arange(2 * n)
    # made before twin, so that its int64 temporaries meet fewer arrays
    bkt_by_time = _ranges(layout.side_bkt_ptr[side_by_time], side_bkts[side_by_time]).astype(index)
    # an in entry's twin is its edge's out entry, found through out_at, the
    # position of each edge's out entry; an out entry's twin is the in
    # entry that names it
    out_at = np.empty(m, dtype=index)
    out_at[order[:m]] = np.arange(m, dtype=index)
    twin = np.empty(2 * m, dtype=index)
    twin[m:] = out_at[order[m:]]
    twin[twin[m:]] = np.arange(m, 2 * m, dtype=index)
    del out_at
    arrays = SweepArrays(
        side_time=side_time,
        side_by_time=side_by_time,
        side_bkts=side_bkts,
        side_size=np.diff(layout.side_ptr),
        bkt_size=bkt_size,
        bkt_time=side_time.repeat(side_bkts),
        bkt_by_time=bkt_by_time,
        pos_bkt=np.arange(bkt_size.shape[0], dtype=index).repeat(bkt_size),
        twin=twin,
    )
    for array in vars(arrays).values():
        array.flags.writeable = False
    return arrays


def _sweep_arrays(g: HeteroGraph) -> SweepArrays:
    """The graph's sweep arrays, built on the first call and kept on the graph."""
    if g.sweep_cache is None:
        g.sweep_cache = _build_sweep_arrays(g)
    return g.sweep_cache


def vertex_order(g: HeteroGraph) -> np.ndarray:
    """Dense node ids in ascending (total degree, node id) order."""
    # a stable sort of the degrees breaks ties by ascending node id
    return np.argsort(g.degrees(), kind="stable")


def sparsify(g: HeteroGraph, params: SparsifyParams) -> SparsifierResult:
    """Run whichever method ``params`` names.

    Keeps every order-free unit's edges, then walks the loop units in time
    order.  A covering unit keeps, in each bucket that holds no kept edge,
    the entry of least cover word; a unit that then holds fewer than k kept
    edges picks its first ``k - kept`` free entries in priority order, all
    among its first k.
    """
    if g.m == 0:
        raise EmptyGraphError("cannot sparsify a graph with no edges")
    a, layout, m = _sweep_arrays(g), g.layout, g.m
    k = min(int(params.k), m)  # no unit holds more than m edges
    cover = params.method == ALL_TYPES
    # a unit's order, entries and time; a unit of more than max(k, its
    # cover count) entries is a loop unit
    if cover:  # a side, which covers each of its buckets
        unit_loop = a.side_size > np.maximum(a.side_bkts, k)
        loop = unit_loop.repeat(a.side_bkts)
        by_time, size, time, ptr = a.side_by_time, a.side_size, a.side_time, layout.side_ptr
    else:  # a bucket, which covers nothing
        loop = unit_loop = a.bkt_size > k
        by_time, size, time, ptr = a.bkt_by_time, a.bkt_size, a.bkt_time, layout.bkt_ptr
    units = by_time[unit_loop[by_time]]
    selected = np.ones(m, dtype=bool)
    if not units.shape[0]:  # every unit is order-free and keeps all of its edges
        return SparsifierResult(params=params, mask=selected, kept=m, ratio=1.0)
    lens = size[units]
    starts = lens.cumsum() - lens  # where each unit's entries begin in pos
    pos = _ranges(ptr[units], lens, starts)
    # pos holds the loop units' entries, unit by unit in time order.  An
    # edge's other entry lies in bucket tb; when that bucket is
    # order-free, it keeps the edge, before this unit (held) or after.
    # Past this point pos and held stay entry-long, and the draw's keys
    # and words live until they are read, each freed then.
    tb = a.pos_bkt[a.twin[pos]]
    twin_loop = loop[tb]
    held = ~twin_loop
    selected[layout.order[pos]] = held  # both of an edge's entries agree
    held &= a.bkt_time[tb] < time[units].repeat(lens)
    del tb, twin_loop
    # The walk's buckets and their held counts, whether each unit tops up,
    # each walked unit's end among the buckets (bounds) and where its
    # top-up candidates begin (tops).  One draw gives the top-up units'
    # entries their words and, for all-types, after them every entry its
    # cover word.
    if cover:  # walk every side; one that covers k or more buckets keeps k edges
        bkts = a.bkt_by_time[loop[a.bkt_by_time]]
        sizes = a.bkt_size[bkts]
        starts = sizes.cumsum() - sizes  # where each bucket's entries begin in pos
        kept = np.add.reduceat(held, starts)
        covers = a.side_bkts[units]
        bounds = covers.cumsum()
        top_up = (covers < k) & (np.add.reduceat(kept, bounds - covers) < k)
        bounds = bounds.tolist()
        # each bucket has one cover candidate, ahead of the top-up ones
        tops = (bkts.shape[0] + k * (top_up.cumsum() - top_up)).tolist()
    else:  # a unit is one bucket; walk those that top up
        kept = np.add.reduceat(held, starts)
        top_up = kept < k
        bkts, kept = units[top_up], kept[top_up]
        bounds, tops = range(1, bkts.shape[0] + 1), range(0, k * bkts.shape[0], k)
    top = top_up.repeat(lens).nonzero()[0]
    key = np.concatenate((pos[top], pos)) if cover else pos[top]
    key = 3 * (2 * layout.order[key] + (key >= m)) + (_SIDE_TOP_UP if cover else _TOP_UP)
    if cover:
        key[top.shape[0]:] += _COVER - _SIDE_TOP_UP
    word = counter_words(params.seed, SWEEP_TAG, key)
    del key
    if cover:  # words are distinct, so each bucket has one least cover word
        least = (word[top.shape[0]:] == np.minimum.reduceat(
            word[top.shape[0]:], starts).repeat(sizes)).nonzero()[0]
    # Each top-up unit's k least-priority entries, indexed among the top-up
    # entries.  A priority is the high 32 bits of the entry's word; one
    # stable sort of ``unit << 32 | priority`` keeps layout order among
    # equal priorities.  A loop unit holds more than k >= 1 of the 2m
    # entries, so unit < 2**32.
    top_lens = lens[top_up]
    word = word[:top.shape[0]] >> np.uint64(32)
    word |= (np.arange(top_lens.shape[0], dtype=np.uint64) << np.uint64(32)).repeat(top_lens)
    first = np.argsort(word, kind="stable")[
        ((top_lens.cumsum() - top_lens)[:, None] + np.arange(k)).ravel()]
    del word  # free the draw before the loop's lists are built
    cand = top[first]
    if cover:
        cand = np.concatenate((least, cand))
        del least
    at = pos[cand]
    edges = layout.order[at]
    taken = np.zeros(m, dtype=np.uint8)  # one byte per edge
    taken[edges[held[cand]]] = 1  # held edges are kept, never free
    del pos, held, cand
    slot = np.full(a.bkt_size.shape[0], -1)
    slot[bkts] = np.arange(bkts.shape[0])
    # a pick raises the kept count of its edge's other bucket when the walk
    # reaches that bucket later
    other = slot[a.pos_bkt[a.twin[at]]]
    later = np.where(other > slot[a.pos_bkt[at]], other, -1).tolist()
    del slot, at, other  # only the loop's lists stay
    taken, edges, kept = bytearray(taken), edges.tolist(), kept.tolist()
    lo = 0
    for hi, j in zip(bounds, tops):
        have = 0
        for b in range(lo, hi):
            if kept[b]:
                have += kept[b]
            elif cover:  # b is also the index of the bucket's cover candidate
                taken[edges[b]] = 1
                t = later[b]
                if t >= 0:
                    kept[t] += 1
                have += 1
        lo = hi
        need = k - have
        while need > 0:
            e = edges[j]
            if not taken[e]:
                taken[e] = 1
                t = later[j]
                if t >= 0:
                    kept[t] += 1
                need -= 1
            j += 1
    selected |= np.frombuffer(taken, dtype=bool)
    total = int(np.count_nonzero(selected))
    return SparsifierResult(params=params, mask=selected, kept=total, ratio=total / m)
