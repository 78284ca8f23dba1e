"""Exception types shared across the package."""


class ErgokitError(Exception):
    """Base class for all package errors."""


class UnsupportedSpaceError(ErgokitError):
    """Raised when an operation requires a space kind it does not support
    (e.g. a block projection on an embedded-ball space)."""


class DimensionTooLargeError(ErgokitError):
    """Raised when exact kernel-polytope enumeration would exceed the
    combinatorial cap; callers should fall back to bounds."""


class PreconditionError(ErgokitError):
    """Raised when an operation refuses its input because a mathematical
    hypothesis is not met (non-commuting projection, non-convergent
    operator where a rate is requested, and so on)."""


class EigenSolverError(ErgokitError):
    """Raised when the dense eigensolver fails to converge; never silent."""


class ParseError(ErgokitError):
    """Raised on a malformed instance file (bad syntax, wrong shapes, out of
    range indices); carries a location string pointing at the offending key."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ValidationError(ErgokitError):
    """Raised when a well-formed instance fails mathematical validation
    (operator escapes the base cone, projection not idempotent, anchors not
    probability vectors)."""
