"""Link-prediction proxy: holdout split, typed negatives, heuristic scoring.

Pipeline: hold out a fraction of edges as test positives, corrupt each
positive's destination within its node type to get negatives, score all
candidates with a neighborhood heuristic over the undirected
type-agnostic view of the train edges, then report AUC and MRR over the
same candidate sets.  Sparsification, when requested, is applied to the
train portion only, so full-graph and sparsified runs share identical
test sets and negatives and their metrics are directly comparable.
Everything runs on one graph: the train side is a boolean selection of
the input, and only the sweep, when there is one, gets a train subgraph
to work on.  All candidates, positives first, go through one scoring
pass.
The split and the negatives draw from the counter-keyed stream of
:mod:`hgsparse._rng` as batched numpy, one word per edge or negative;
a negative is a uniform rank among its positive's free destinations,
the high word of its word times the free count (multiply-shift, with a
redraw from the next word in about one case in 2**64 / count).  The
train view is one sort of pair keys packed from the selected columns.
Scoring expands each pair's lower-degree neighbor row and tests each
entry against a bitmask of the other endpoint's row: the pairs go in
order of that endpoint, and 64 such rows at a time share one n-long
``uint64`` word array, one bit per row.  AUC sorts the negatives and
counts those below each positive by binary search.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import NEGATIVE_TAG, SPLIT_TAG, check_seed, counter_words, randbelow_array
from .errors import DegenerateSplitError, NegativeSamplingError
from .graph import HeteroGraph, _as_int64, _ranges
from .sparsify import PER_TYPE, SparsifyParams, sparsify

COMMON_NEIGHBORS = "common-neighbors"
ADAMIC_ADAR = "adamic-adar"
SCORERS = (COMMON_NEIGHBORS, ADAMIC_ADAR)

# expanded neighbor entries scored at once; bounds score_pairs' temporaries
_SCORE_CHUNK = 1 << 14
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # bit r of a marks word

# negative-matrix entries drawn at once; bounds _negative_matrix's temporaries
_NEG_CHUNK = 1 << 14


@dataclass(frozen=True)
class EvalReport:
    auc: float
    mrr: float
    negatives_per_positive: int
    scorer: str
    positives: int

    def to_dict(self) -> dict:
        return asdict(self)


def split_edges(g: HeteroGraph, holdout_fraction: float, seed: int = 0) -> np.ndarray:
    """Uniform edge holdout: the bool mask over edge ids of the test edges.

    The test edges are the round-half-up(fraction * m) edges with the
    smallest words of the ``(seed, SPLIT_TAG)`` stream; the train edges
    are the rest, ``~mask``.  A seed that is not an int in [0, 2**64)
    raises ValueError.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    check_seed(seed)
    if g.m < 2:
        raise DegenerateSplitError(f"need at least 2 edges to split, have {g.m}")
    test_count = int(math.floor(holdout_fraction * g.m + 0.5))
    if test_count == 0 or test_count == g.m:
        raise DegenerateSplitError(
            f"holdout {holdout_fraction} of m={g.m} edges leaves an empty side")
    # the test_count smallest words; they are distinct, so nothing ties
    keys = counter_words(seed, SPLIT_TAG, np.arange(g.m))
    return keys <= np.partition(keys, test_count - 1)[test_count - 1]


def _negative_matrix(g: HeteroGraph, pos_ids: np.ndarray, per_pos: int,
                     seed: int) -> np.ndarray:
    """Dense dst ids, shape (len(pos_ids), per_pos).

    Destination corruption: for positive (u, v, t), v's free destinations
    are the nodes w of v's node type with (u, w, t) not an edge of g.
    Entry e = i * per_pos + j draws r uniformly below its positive's free
    count from counter e of the stream, by :func:`randbelow_array`'s
    multiply-shift, and takes the r-th free destination in dense id
    order, so every free destination is equally likely; duplicates
    across the per_pos draws are fine.  Entries are drawn a chunk at a
    time.  The taken destinations are counted and skipped by binary
    search over the edges keyed by out bucket and destination slot.
    """
    if per_pos < 1:
        raise ValueError(f"per_pos must be >= 1, got {per_pos}")
    pos_ids = np.asarray(pos_ids, dtype=np.int64)
    try:
        out = np.empty((pos_ids.shape[0], per_pos), dtype=np.int64)
    except (ValueError, MemoryError):
        raise NegativeSamplingError(
            f"cannot hold {per_pos} negatives for each of "
            f"{pos_ids.shape[0]} positives") from None
    # node types are arbitrary ints below 2**63; rank them densely
    _, type_rank = np.unique(g.node_types, return_inverse=True)
    pop_nodes = np.argsort(type_rank, kind="stable")
    pop_ptr = np.concatenate(([0], np.cumsum(np.bincount(type_rank))))
    slot = np.argsort(pop_nodes)  # each node's index in pop_nodes
    # key each edge by its out bucket, (src, etype), and its dst's slot;
    # the out buckets come first in the layout and fill order[:m]
    out_buckets = int(g.layout.side_bkt_ptr[g.n])
    bucket = np.empty(g.m, dtype=np.int64)
    bucket[g.layout.order[:g.m]] = np.repeat(np.arange(out_buckets),
                                             np.diff(g.layout.bkt_ptr[:out_buckets + 1]))
    keys = np.sort(bucket * g.n + slot[g.dst])
    # a positive's taken slots are keys[first:first + taken], the keys in
    # [base, base + size) of its bucket and its dst's population
    lo = pop_ptr[type_rank[g.dst[pos_ids]]]
    size = pop_ptr[type_rank[g.dst[pos_ids]] + 1] - lo
    base = bucket[pos_ids] * g.n + lo
    first = np.searchsorted(keys, base)
    free = size - (np.searchsorted(keys, base + size) - first)
    if (free == 0).any():
        raise NegativeSamplingError(
            f"positive {g.edge_key(int(pos_ids[np.argmax(free == 0)]))} has no "
            f"type-compatible non-edge destination")
    # With local taken slots x_0 < x_1 < ..., free slot r is r plus the
    # count of j with x_j - j <= r.  keys - arange never decreases; the
    # keys below a positive's all pass that test and those above it none.
    shifted = keys - np.arange(g.m)
    flat = out.reshape(-1)
    for start in range(0, flat.shape[0], _NEG_CHUNK):
        entry = np.arange(start, min(start + _NEG_CHUNK, flat.shape[0]))
        row = entry // per_pos
        r = randbelow_array(counter_words(seed, NEGATIVE_TAG, entry), free[row])
        r += np.searchsorted(shifted, base[row] - first[row] + r, side="right") - first[row]
        flat[entry] = pop_nodes[lo[row] + r]
    return out


class TrainView:
    """Undirected, type-agnostic, deduplicated CSR over a train edge set."""

    __slots__ = ("graph", "ptr", "nbrs")

    def __init__(self, graph: HeteroGraph, ptr: np.ndarray, nbrs: np.ndarray):
        self.graph = graph
        self.ptr = ptr
        self.nbrs = nbrs

    @classmethod
    def from_graph(cls, g: HeteroGraph, selected=None) -> "TrainView":
        """The view over the selected edges of g (all of them for None).

        A selection of g's train edges gives the view of a train graph
        without building one.  Both directions of every selected edge go
        in as one key ``a * n + b``, packed from g's columns, which
        cannot overflow as ``n * n < 2**63``; one sort orders them by
        ``(a, b)``, repeats are dropped, and ``divmod`` splits the rest
        back into rows and neighbors.
        """
        mask = g._selection(selected)
        n = g.n
        src, dst = g.src[mask], g.dst[mask]
        keys = np.sort(np.concatenate((src * n + dst, dst * n + src)))
        if keys.size:
            keep = np.empty(keys.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
        a, b = np.divmod(keys, n)
        ptr = np.concatenate(([0], np.cumsum(np.bincount(a, minlength=n)))).astype(np.int64)
        return cls(g, ptr, b)


def score_pairs(view: TrainView, us_dense, vs_dense, scorer: str) -> np.ndarray:
    """Heuristic scores for parallel dense-id pair arrays.

    Each pair expands the neighbor row of its lower-degree endpoint (``us``
    on a tie) and tests every entry for membership in the row of the other
    endpoint.  Pairs go in order of that other endpoint, whose distinct
    nodes are taken 64 at a time: the r-th node of a block sets bit r of
    ``marks[x]`` for each of its neighbors x, so an entry's test is one
    bit of one word, and only the marked words are cleared before the
    next block.  Hits are summed per pair in ascending neighbor order, the
    order of a sorted-list merge, so Adamic-Adar float sums are
    reproducible.  Raises ValueError unless ``us`` and ``vs`` are equally
    long 1-d arrays of whole dense ids in [0, n).
    """
    if scorer not in SCORERS:
        raise ValueError(f"scorer must be one of {SCORERS}, got {scorer!r}")
    us = _as_int64(us_dense, "us")
    vs = _as_int64(vs_dense, "vs")
    n = view.graph.n
    if us.shape != vs.shape:
        raise ValueError(f"us and vs differ in length: {us.shape[0]} and {vs.shape[0]}")
    if us.size and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n):
        raise ValueError(f"pair ids must be dense ids in [0, {n})")
    out = np.zeros(us.shape[0], dtype=np.float64)
    deg = np.diff(view.ptr)
    weight = None
    if scorer == ADAMIC_ADAR:
        # 1 / log(deg), 0 where deg <= 1; math.log, not np.log, keeps the
        # sums bit-identical to the merge-loop reference in the tests
        distinct = np.unique(deg)
        table = [1.0 / math.log(d) if d > 1 else 0.0 for d in distinct.tolist()]
        weight = np.array(table, dtype=np.float64)[np.searchsorted(distinct, deg)]
    swap = deg[vs] < deg[us]
    expand = np.where(swap, vs, us)
    other = np.where(swap, us, vs)
    # a pair whose expanded row is empty scores 0; the rest go by other, in
    # any order among equal others, as each pair's sum is its own
    live = np.flatnonzero(deg[expand])
    live = live[np.argsort(other[live])]
    expand, other = expand[live], other[live]
    ends = np.cumsum(deg[expand])
    first = np.ones(live.shape[0], dtype=bool)  # the first pair of each distinct other
    first[1:] = other[1:] != other[:-1]
    rows = other[first]  # ascending
    block_lo = np.append(first.nonzero()[0][::64], live.shape[0]).tolist()
    marks = np.zeros(n, dtype=np.uint64)
    for b, (lo, block_hi) in enumerate(zip(block_lo, block_lo[1:])):
        nodes = rows[64 * b:64 * b + 64]
        marked = view.nbrs[_ranges(view.ptr[nodes], deg[nodes])]
        np.bitwise_or.at(marks, marked, _BITS[:nodes.shape[0]].repeat(deg[nodes]))
        while lo < block_hi:
            start = ends[lo] - deg[expand[lo]]
            hi = min(max(int(np.searchsorted(ends, start + _SCORE_CHUNK, side="right")),
                         lo + 1), block_hi)
            c = deg[expand[lo:hi]]
            pair = np.repeat(np.arange(hi - lo), c)
            nbr = view.nbrs[_ranges(view.ptr[expand[lo:hi]], c)]
            bit = _BITS[np.searchsorted(nodes, other[lo:hi])]  # each pair's row in the block
            hit = (marks[nbr] & bit.repeat(c)) != 0
            out[live[lo:hi]] = np.bincount(
                pair[hit], minlength=hi - lo,
                weights=None if weight is None else weight[nbr[hit]])
            lo = hi
        marks[marked] = 0
    return out


def _check_not_nan(*scores: np.ndarray) -> None:
    # NaN compares false with everything, so it has no rank
    if any(np.isnan(s).any() for s in scores):
        raise ValueError("scores must not be NaN")


def auc(pos_scores, neg_scores) -> float:
    """P(pos > neg) + 0.5 * P(pos = neg) over all pairs.

    Each positive counts the negatives below it, from both ends of its
    run in the sorted negatives, so ties count a half each.  The sum is
    an exact integer, the same numerator a tie-averaged rank sum gives.
    Raises ValueError on an empty side or a NaN score.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc needs at least one positive and one negative score")
    _check_not_nan(pos, neg)
    neg = np.sort(neg)
    wins = (np.searchsorted(neg, pos, side="left").sum()
            + np.searchsorted(neg, pos, side="right").sum())
    return float(wins / 2.0 / (pos.size * neg.size))


def candidate_ranks(pos_scores, neg_score_matrix) -> np.ndarray:
    """1-based rank of each positive among itself and its own negatives.

    Ties take the average of the best and worst compatible rank.  Raises
    ValueError on a NaN score.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_score_matrix, dtype=np.float64)
    if neg.ndim != 2 or neg.shape[0] != pos.shape[0]:
        raise ValueError("neg_score_matrix must be (len(pos_scores), per_pos)")
    _check_not_nan(pos, neg)
    beaten_by = (neg > pos[:, None]).sum(axis=1)
    beaten_or_tied = (neg >= pos[:, None]).sum(axis=1)
    return 0.5 * (beaten_by + beaten_or_tied) + 1.0


def mrr(ranks) -> float:
    """Mean reciprocal rank; ranks are 1-based, possibly fractional (ties)."""
    arr = np.asarray(ranks, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mrr needs at least one rank")
    if not (arr >= 1.0).all():  # NaN fails this too
        raise ValueError("ranks must be >= 1, not NaN")
    return float(np.mean(1.0 / arr))


def evaluate(g: HeteroGraph, holdout: float = 0.2, seed: int = 0,
             scorer: str = COMMON_NEIGHBORS, negatives_per_positive: int = 19,
             k: int | None = None, method: str = PER_TYPE) -> EvalReport:
    """Full pipeline on one graph; identical split/negatives per seed.

    ``seed`` keys every stream as it is: the split, the negatives and
    the sweep draw from the ``(seed, SPLIT_TAG)``, ``(seed,
    NEGATIVE_TAG)`` and ``(seed, SWEEP_TAG)`` streams.  So ``hgsparse
    eval --seed`` gives the same report, and the sweep keeps what
    ``hgsparse sparsify`` with the same seed, ``k`` and ``method`` keeps
    of a file of the train edges.  A seed that is not an int in [0,
    2**64) raises ValueError, with ``k`` or without.
    The train side is a boolean selection of ``g``, the complement of
    the split's test mask.  With ``k`` set, only the train edges are
    sparsified, by ``method``, on a subgraph whose rows are the train
    ids in order, and the sweep's mask narrows the selection; the test
    side is untouched.  Without ``k``, ``method`` is not read.  Every
    positive and every negative is scored in one :func:`score_pairs`
    call, positives first; each pair's sum is its own, so the scores are
    those of scoring the two sides apart.
    """
    params = None if k is None else SparsifyParams(k, method, seed)
    test = split_edges(g, holdout, seed)
    pos_ids = np.flatnonzero(test)
    neg = _negative_matrix(g, pos_ids, negatives_per_positive, seed)
    train = ~test
    if params is not None:
        train[train] = sparsify(g.subgraph(train), params).mask
    pos_u = g.src[pos_ids]
    scores = score_pairs(TrainView.from_graph(g, train),
                         np.concatenate((pos_u, np.repeat(pos_u, negatives_per_positive))),
                         np.concatenate((g.dst[pos_ids], neg.ravel())), scorer)
    pos_scores, neg_scores = scores[:pos_u.shape[0]], scores[pos_u.shape[0]:].reshape(neg.shape)
    return EvalReport(
        auc=auc(pos_scores, neg_scores.ravel()),
        mrr=mrr(candidate_ranks(pos_scores, neg_scores)),
        negatives_per_positive=negatives_per_positive,
        scorer=scorer,
        positives=int(pos_ids.shape[0]),
    )
