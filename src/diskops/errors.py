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
    """The truncation budget cannot hold the requested computation without
    leaking coefficients past the working order."""


class PreconditionError(DiskOpsError):
    """A measured hypothesis of a bound check failed."""


class ShapeError(DiskOpsError):
    """Matrix input with an unusable shape."""
