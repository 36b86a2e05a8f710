"""Structural checks and summary statistics for sparsifier outputs."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graph import IN, OUT, HeteroGraph
from .sparsify import PER_TYPE, SparsifyParams


@dataclass(frozen=True)
class CoverageViolation:
    node: int
    direction: str
    etype: int
    required: int
    actual: int

    def to_dict(self) -> dict:
        return asdict(self)


def coverage_report(g: HeteroGraph, selected, k: int,
                    method: str = PER_TYPE) -> list[CoverageViolation]:
    """Every nonempty bucket whose kept-edge count is under the method's floor.

    The floor is min(k, |bucket|) for per-type and 1 for all-types.
    Violations are listed exhaustively (out-direction buckets first,
    then in-direction, each in (node, etype) order) so reports diff
    cleanly.  ``k`` and ``method`` must pass :class:`SparsifyParams`'
    check; anything it rejects raises ValueError here too.
    """
    SparsifyParams(k=k, method=method)
    mask = g._selection(selected)
    if g.m == 0:
        return []
    layout = g.layout
    ptr = layout.bkt_ptr
    kept = np.add.reduceat(mask[layout.order], ptr[:-1])
    # every bucket is nonempty, so min(1, |bucket|) is all-types' floor of 1
    required = np.minimum(min(k, g.m) if method == PER_TYPE else 1, ptr[1:] - ptr[:-1])
    bad = (kept < required).nonzero()[0]
    if not bad.shape[0]:
        return []
    # bucket b belongs to side d * n + u, the last side starting at or before b
    side = np.searchsorted(layout.side_bkt_ptr, bad, side="right") - 1
    inward, node = np.divmod(side, g.n)
    return [CoverageViolation(node=u, direction=IN if d else OUT, etype=t,
                              required=r, actual=a)
            for u, d, t, r, a in zip(g.node_ids[node].tolist(), inward.tolist(),
                                     g.etype[layout.order[ptr[bad]]].tolist(),
                                     required[bad].tolist(), kept[bad].tolist())]


def isolated_nodes(g: HeteroGraph, selected) -> set[int]:
    """Original ids of nodes with edges in g but none in the selection."""
    mask = g._selection(selected)
    kept_deg = np.bincount(np.concatenate((g.src[mask], g.dst[mask])), minlength=g.n)
    lost = ((g.degrees() > 0) & (kept_deg == 0)).nonzero()[0]
    return set(g.node_ids[lost].tolist()) if lost.shape[0] else set()


def per_type_kept(g: HeteroGraph, selected) -> dict[int, int]:
    """Kept-edge count for every edge type present in g."""
    mask = g._selection(selected)
    # count by the rank of each type, which stays below t whatever the values
    counts = np.bincount(np.searchsorted(g.etype_ids, g.etype[mask]), minlength=g.t)
    return dict(zip(g.etype_ids.tolist(), counts.tolist()))
