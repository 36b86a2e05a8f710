"""Structural checks and summary statistics for sparsifier outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import IN, OUT, HeteroGraph
from .sparsify import METHODS, PER_TYPE


@dataclass(frozen=True)
class CoverageViolation:
    node: int
    direction: str
    etype: int
    required: int
    actual: int

    def to_dict(self) -> dict:
        return {"node": self.node, "direction": self.direction,
                "etype": self.etype, "required": self.required,
                "actual": self.actual}


def coverage_report(g: HeteroGraph, selected, k: int,
                    method: str = PER_TYPE) -> list[CoverageViolation]:
    """Every nonempty bucket whose kept-edge count is under the method's floor.

    The floor is min(k, |bucket|) for per-type and 1 for all-types.
    Violations are listed exhaustively (out-direction buckets first,
    then in-direction, each in (node, etype) order) so reports diff
    cleanly.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    mask = g.edge_mask(selected)
    if g.m == 0:
        return []
    layout = g.layout
    sizes = np.diff(layout.bkt_ptr)
    kept = np.add.reduceat(mask[layout.order], layout.bkt_ptr[:-1])
    required = np.minimum(min(k, g.m), sizes) if method == PER_TYPE else np.ones_like(sizes)
    bad = (kept < required).nonzero()[0]
    # bucket b belongs to side d * n + u, the last side starting at or before b
    side = np.searchsorted(layout.side_bkt_ptr, bad, side="right") - 1
    inward, node = np.divmod(side, g.n)
    return [CoverageViolation(node=u, direction=IN if d else OUT, etype=t,
                              required=r, actual=a)
            for u, d, t, r, a in zip(g.node_ids[node].tolist(), inward.tolist(),
                                     layout.bkt_etype[bad].tolist(),
                                     required[bad].tolist(), kept[bad].tolist())]


def isolated_nodes(g: HeteroGraph, selected) -> set[int]:
    """Original ids of nodes with edges in g but none in the selection."""
    mask = g.edge_mask(selected)
    kept_deg = (np.bincount(g.src[mask], minlength=g.n)
                + np.bincount(g.dst[mask], minlength=g.n))
    lost = (g.degrees() > 0) & (kept_deg == 0)
    return {int(u) for u in g.node_ids[lost]}


def per_type_kept(g: HeteroGraph, selected) -> dict[int, int]:
    """Kept-edge count for every edge type present in g."""
    mask = g.edge_mask(selected)
    # count by the rank of each type, which stays below t whatever the values
    counts = np.bincount(np.searchsorted(g.etype_ids, g.etype[mask]), minlength=g.t)
    return dict(zip(g.etype_ids.tolist(), counts.tolist()))
