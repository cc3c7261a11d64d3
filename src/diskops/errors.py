"""Exception hierarchy shared across the package."""


class DiskOpsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DiskOpsError):
    """An argument left the mathematical domain of the operation
    (point outside the disk, symbol with |constant term| >= 1, zero
    constant term in a reciprocal, ...)."""


class ConvergenceError(DiskOpsError):
    """An iterative estimate failed to stabilize within the configured cap."""


class TruncationError(DiskOpsError):
    """The truncation budget cannot hold the requested computation without leaking
    coefficients past the working order; ``needed``, when known, is the order that can."""

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message if needed is None else f"{message} needs truncation >= {needed}")
        self.needed = needed


class PreconditionError(DiskOpsError):
    """A measured hypothesis of a bound check failed."""


class ShapeError(DiskOpsError):
    """Matrix input with an unusable shape."""
