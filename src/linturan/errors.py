"""Exception types shared across the package.

Every error raised on purpose derives from LinturanError so callers can
catch the package's failures with one except clause.  Input-validation
errors carry enough context in the message to identify the offending
edge or parameter.
"""

from __future__ import annotations

__all__ = [
    "LinturanError",
    "BadParameters",
    "OutOfRangeVertex",
    "RepeatedVertexInEdge",
    "DuplicateEdge",
    "NonUniformEdge",
    "ProductTooLarge",
    "MalformedEmbedding",
    "NotAPathEmbedding",
    "HostNotLinear",
    "HostContainsPath",
    "NoDesignAvailable",
    "InterruptedSearch",
    "FormatError",
    "InvariantViolation",
]


class LinturanError(Exception):
    """Base class for all package errors."""


class BadParameters(LinturanError):
    """Arguments outside an operation's documented domain."""


class OutOfRangeVertex(LinturanError):
    """A vertex index is negative or >= n."""


class RepeatedVertexInEdge(LinturanError):
    """An edge lists the same vertex twice."""


class DuplicateEdge(LinturanError):
    """The same edge (as a vertex set) appears more than once."""


class NonUniformEdge(LinturanError):
    """An edge's order disagrees with the declared uniformity."""


class ProductTooLarge(BadParameters):
    """A product, lattice, design, construction host or realized pattern
    would exceed the size cap."""


class MalformedEmbedding(LinturanError):
    """An embedding's maps are structurally unusable (wrong arity, bad indices)."""


class NotAPathEmbedding(LinturanError):
    """A frame was requested from an embedding that is not a valid path embedding."""


class HostNotLinear(LinturanError):
    """The operation requires a linear host."""


class HostContainsPath(LinturanError):
    """Precondition failure: the host contains the forbidden path.

    The witnessing embedding is attached as ``witness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NoDesignAvailable(LinturanError):
    """No 2-(n, r, 1) design could be produced for the requested parameters."""


class InterruptedSearch(LinturanError):
    """A search exceeded its node or time budget."""


class FormatError(LinturanError):
    """Malformed interchange file or pattern expression."""


class InvariantViolation(LinturanError):
    """An internal consistency check that should be unreachable fired."""
