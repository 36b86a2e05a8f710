"""hgsparse: per-bucket sparsifiers for typed directed graphs.

Build a :class:`HeteroGraph`, run :func:`sparsify` to keep at most k
edges per (node, direction, edge-type) bucket (or per node-direction
across types), verify the structural guarantees with :mod:`metrics`,
and measure downstream impact with the :mod:`evalproxy` link-prediction
proxy.  Everything runs as numpy passes and plain Python; there is no
compiled path.
"""

from ._rng import substream_seed
from .errors import (DataError, DegenerateSplitError, EmptyGraphError,
                     GenSpecError, InfeasibleSpecError, LinkFormatError,
                     NegativeSamplingError, NodeFileError, NonFiniteWeightError,
                     RetryCapError, UnknownEdgeError, UnknownNodeError,
                     VerificationError)
from .evalproxy import (ADAMIC_ADAR, COMMON_NEIGHBORS, SCORERS, EvalReport,
                        TrainView, auc, candidate_ranks, evaluate, mrr,
                        score_pairs, split_edges)
from .graph import (IN, OUT, GraphStats, HeteroGraph, build_graph,
                    build_graph_arrays)
from .hgb_io import (LinkFileOptions, LinkTable, NodeTable, read_link_file,
                     read_node_file, write_link_file, write_node_file,
                     write_report)
from .metrics import (CoverageViolation, coverage_report, isolated_nodes,
                      per_type_kept)
from .sparsify import (ALL_TYPES, METHODS, PER_TYPE, SparsifierResult,
                       SparsifyParams, sparsify)
from .synthgen import (EdgeTypeSpec, GenSpec, generate, parse_spec_file,
                       pubmed_like_spec)

__version__ = "0.1.0"

# There is no compiled path any more; the flag stays because the benchmark
# (perfbench/run.py) records it with every run.
NUMBA_ENABLED = False

__all__ = [
    "ADAMIC_ADAR", "ALL_TYPES", "COMMON_NEIGHBORS", "IN", "METHODS",
    "NUMBA_ENABLED", "OUT", "PER_TYPE", "SCORERS",
    "CoverageViolation", "DataError", "DegenerateSplitError",
    "EdgeTypeSpec", "EmptyGraphError", "EvalReport", "GenSpec", "GenSpecError",
    "GraphStats", "HeteroGraph", "InfeasibleSpecError", "LinkFileOptions",
    "LinkFormatError", "LinkTable", "NegativeSamplingError", "NodeFileError",
    "NodeTable", "NonFiniteWeightError", "RetryCapError",
    "SparsifierResult", "SparsifyParams", "TrainView", "UnknownEdgeError",
    "UnknownNodeError", "VerificationError", "auc", "build_graph",
    "build_graph_arrays", "candidate_ranks", "coverage_report", "evaluate",
    "generate", "isolated_nodes", "mrr", "parse_spec_file", "per_type_kept",
    "pubmed_like_spec", "read_link_file", "read_node_file",
    "score_pairs", "sparsify", "split_edges", "substream_seed",
    "write_link_file", "write_node_file", "write_report",
]
