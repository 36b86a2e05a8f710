"""Exception taxonomy.

``DataError`` covers everything wrong with user-supplied inputs (files,
graphs, generation specs); the CLI maps it to exit code 2.
``VerificationError`` marks a failed sparsifier check (exit code 3).
Programming errors (bad argument combinations) stay plain ``ValueError``.
"""

from __future__ import annotations


class DataError(Exception):
    """Invalid input data (file contents, graph references, specs)."""


class _LineError(DataError):
    """A fault on one line of an input file; carries its 1-based number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LinkFormatError(_LineError):
    """Malformed line in a link file; carries 1-based line number."""


class NodeFileError(_LineError):
    """Malformed line or duplicate id in a node file."""


class UnknownNodeError(DataError):
    """Node id not present in the graph's node table."""


class UnknownEdgeError(DataError):
    """Edge identity not present in the graph."""


class NonFiniteWeightError(DataError):
    """Edge weight is NaN, inf or -inf."""


class EmptyGraphError(DataError):
    """Operation requires at least one edge."""


class GenSpecError(DataError):
    """Malformed or inconsistent generation spec."""


class InfeasibleSpecError(DataError):
    """Generation spec asks for more simple edges than the populations allow."""


class RetryCapError(DataError):
    """Generator exceeded its duplicate-redraw budget."""


class DegenerateSplitError(DataError):
    """Holdout split would leave the train or test side empty."""


class NegativeSamplingError(DataError):
    """A positive edge has no type-compatible corruption candidate."""


class VerificationError(Exception):
    """Sparsifier output violates a structural guarantee."""
