"""Seeded synthetic heterogeneous graph generator.

Each edge type draws (src, dst) pairs independently: src from its source
node-type population and dst from its destination population, each with
probability proportional to rank^(-alpha) over a fixed node ordering
(alpha = 0 is uniform).  Draws repeating an already-accepted identity
are rejected and redrawn, so each edge type delivers exactly its
requested count of distinct edges, or fails loudly: immediately when
the count exceeds |src population| * |dst population|, or after a
100 * count draw budget when duplicates keep colliding.  Draw i of an
edge type's src (dst) endpoint is a float made from word i of its own
counter-keyed stream of :mod:`hgsparse._rng`, so the output depends on
the spec alone, not on the numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import counter_words
from .errors import GenSpecError, InfeasibleSpecError, RetryCapError
from .graph import HeteroGraph, build_graph_arrays
from .hgb_io import _opened

# edge type i draws its srcs from stream tag 3 + 2i and its dsts from
# 4 + 2i, clear of the tags 0-2 of eval and the sweep
_FIRST_TAG = 3


@dataclass(frozen=True)
class EdgeTypeSpec:
    src_type: int
    dst_type: int
    count: int
    alpha: float = 0.0


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


@dataclass(frozen=True)
class GenSpec:
    node_type_sizes: tuple[int, ...]
    edge_types: tuple[EdgeTypeSpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "node_type_sizes", tuple(self.node_type_sizes))
        object.__setattr__(self, "edge_types",
                           tuple(EdgeTypeSpec(*e) if not isinstance(e, EdgeTypeSpec) else e
                                 for e in self.edge_types))
        if not self.node_type_sizes:
            raise GenSpecError("at least one node type is required")
        if not all(map(_is_int, self.node_type_sizes)):
            raise GenSpecError(f"node type sizes must be integers, got {self.node_type_sizes!r}")
        if any(s < 1 for s in self.node_type_sizes):
            raise GenSpecError("node type sizes must be positive")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise GenSpecError(f"seed must be in [0, 2**64), got {self.seed!r}")
        n_types = len(self.node_type_sizes)
        for i, e in enumerate(self.edge_types):
            if not all(map(_is_int, (e.src_type, e.dst_type, e.count))):
                raise GenSpecError(f"edge type {i}: endpoint types and count must be "
                                   f"integers, got {e!r}")
            if e.count < 1:
                raise GenSpecError(f"edge type {i}: count must be >= 1")
            if not (0 <= e.src_type < n_types and 0 <= e.dst_type < n_types):
                raise GenSpecError(
                    f"edge type {i}: endpoint types must reference the "
                    f"{n_types} declared node types")
            if not (np.isfinite(e.alpha) and e.alpha >= 0):
                raise GenSpecError(f"edge type {i}: alpha must be finite and >= 0")


def _rank_cdf(size: int, alpha: float) -> np.ndarray:
    weights = np.arange(1, size + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def _uniform(seed: int, tag: int, first: int, count: int) -> np.ndarray:
    """Floats in [0, 1) from words first, first + 1, ... of a stream."""
    word = counter_words(seed, tag, np.arange(first, first + count))
    return (word >> np.uint64(11)).astype(np.float64) * 2.0**-53


def generate(spec: GenSpec) -> HeteroGraph:
    """Build the graph a spec describes; deterministic per spec.seed."""
    n = sum(spec.node_type_sizes)
    try:
        if n >= 2**63:  # np.repeat sums the sizes in int64; a wrapped sum overruns its output
            raise OverflowError
        sizes = np.asarray(spec.node_type_sizes, dtype=np.int64)
        node_types = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    except (OverflowError, ValueError, MemoryError):
        raise GenSpecError(f"cannot allocate a table of {n} nodes") from None
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    all_src: list[np.ndarray] = []
    all_dst: list[np.ndarray] = []
    all_etype: list[np.ndarray] = []
    for etype_id, e in enumerate(spec.edge_types):
        s_size = int(sizes[e.src_type])
        d_size = int(sizes[e.dst_type])
        if e.count > s_size * d_size:
            raise InfeasibleSpecError(
                f"edge type {etype_id}: {e.count} distinct edges requested "
                f"but populations allow only {s_size * d_size}")
        try:
            src_cdf = _rank_cdf(s_size, e.alpha)
            dst_cdf = _rank_cdf(d_size, e.alpha)
        except (ValueError, MemoryError):
            raise GenSpecError(f"edge type {etype_id}: cannot allocate rank weights for "
                               f"populations of {s_size} and {d_size} nodes") from None
        accepted: list[int] = []
        seen: set[int] = set()
        draws_used = 0
        cap = 100 * e.count
        while len(accepted) < e.count:
            need = e.count - len(accepted)
            batch = min(need + max(need // 8, 16), cap - draws_used)
            if batch <= 0:
                raise RetryCapError(
                    f"edge type {etype_id}: exceeded {cap} draws with only "
                    f"{len(accepted)} of {e.count} distinct edges")
            tag = _FIRST_TAG + 2 * etype_id
            try:  # numpy refuses a batch it cannot allocate before taking memory
                us = np.searchsorted(src_cdf, _uniform(spec.seed, tag, draws_used, batch),
                                     side="right")
                vs = np.searchsorted(dst_cdf, _uniform(spec.seed, tag + 1, draws_used, batch),
                                     side="right")
            except (ValueError, MemoryError):
                raise GenSpecError(f"edge type {etype_id}: cannot allocate {batch} draws "
                                   f"for {e.count} edges") from None
            draws_used += batch
            # accept in draw order so batching matches one-at-a-time redraws
            for key in (us * d_size + vs).tolist():
                if key not in seen:
                    seen.add(key)
                    accepted.append(key)
                    if len(accepted) == e.count:
                        break
        keys = np.asarray(accepted, dtype=np.int64)
        all_src.append(offsets[e.src_type] + keys // d_size)
        all_dst.append(offsets[e.dst_type] + keys % d_size)
        all_etype.append(np.full(e.count, etype_id, dtype=np.int64))

    return build_graph_arrays(
        np.concatenate(all_src) if all_src else np.empty(0, dtype=np.int64),
        np.concatenate(all_dst) if all_dst else np.empty(0, dtype=np.int64),
        np.concatenate(all_etype) if all_etype else np.empty(0, dtype=np.int64),
        node_ids=np.arange(n, dtype=np.int64),
        node_types=node_types,
    )


def parse_spec_file(source) -> GenSpec:
    """Parse the flat spec format.

    Lines: ``node_types = <size> [<size> ...]``, ``seed = <int>``, and
    one ``edges <src_type> <dst_type> <count> <alpha>`` per edge type.
    Blank lines and ``#`` comments are skipped.
    """
    with _opened(source, "r") as stream:
        lines = stream.read().splitlines()
    sizes: list[int] | None = None
    seed = 0
    entries: list[EdgeTypeSpec] = []
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("edges"):
                parts = line.split()
                if len(parts) != 5:
                    raise GenSpecError(
                        f"line {line_no}: expected 'edges <src_type> "
                        f"<dst_type> <count> <alpha>', got {line!r}")
                entries.append(EdgeTypeSpec(int(parts[1]), int(parts[2]),
                                            int(parts[3]), float(parts[4])))
            elif "=" in line:
                key, _, value = line.partition("=")
                key = key.strip()
                if key == "node_types":
                    sizes = [int(x) for x in value.replace(",", " ").split()]
                elif key == "seed":
                    seed = int(value.strip())
                else:
                    raise GenSpecError(f"line {line_no}: unknown key {key!r}")
            else:
                raise GenSpecError(f"line {line_no}: unrecognized line {line!r}")
        except ValueError:
            raise GenSpecError(f"line {line_no}: invalid number in {line!r}") from None
    if sizes is None:
        raise GenSpecError("spec file declares no node_types")
    if not entries:
        raise GenSpecError("spec file declares no edge types")
    return GenSpec(tuple(sizes), tuple(entries), seed)


def pubmed_like_spec(seed: int = 0, alpha: float = 1.0) -> GenSpec:
    """A spec shaped like a 63k-node, 236k-edge biomedical network:

    four node types and ten edge types with the same totals (n = 63,109,
    m = 236,458, m/n = 3.7) as the public PubMed benchmark graph.
    """
    sizes = (13561, 20163, 26522, 2863)
    counts = ((0, 0, 35000), (0, 1, 28000), (1, 0, 22000), (1, 1, 40000),
              (2, 0, 30000), (2, 1, 32000), (2, 2, 24000), (3, 0, 9000),
              (3, 1, 9458), (3, 3, 7000))
    return GenSpec(sizes,
                   tuple(EdgeTypeSpec(s, d, c, alpha) for s, d, c in counts),
                   seed)
