"""Exception hierarchy shared across the package."""


class DiskOpsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DiskOpsError):
    """An argument left the mathematical domain of the operation
    (point outside the disk, symbol with |constant term| >= 1, zero
    constant term in a reciprocal, ...)."""


class ConvergenceError(DiskOpsError):
    """An iterative estimate failed to stabilize within its fixed step cap."""


class TruncationError(DiskOpsError):
    """No series order within a fixed cap holds the requested computation: the order a tail
    bound names passes the cap, or none can, the tail budget being below the float range."""


class PreconditionError(DiskOpsError):
    """A measured hypothesis of a bound check failed."""


class ShapeError(DiskOpsError):
    """Matrix input with an unusable shape."""
