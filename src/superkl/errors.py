"""Exception types shared across the library."""


class SuperklError(ValueError):
    """Base class for all library errors."""


class NotDivisible(SuperklError):
    """Exact division failed; the divisor does not divide the dividend."""


class IntervalInfinite(SuperklError):
    """Operation requires a finite interval."""


class EmptyWeightSet(SuperklError):
    """The weight set for this (interval, type) is empty."""


class DegreeMismatch(SuperklError):
    """Total epsilon-degrees differ, so dominance is undefined."""


class TypeMismatch(SuperklError):
    """Operands live over different types."""


class ContextMismatch(SuperklError):
    """Operands live over different (interval, type) contexts."""


class DeviationOutsideWindow(SuperklError):
    """A matrix deviation falls outside the requested window."""


class ColorOutsideInterval(SuperklError):
    """Generator color does not belong to the interval."""


class NonTriangularBar(SuperklError):
    """Bar involution produced support below the input weight (internal bug)."""


class StabilityViolation(SuperklError):
    """Window enlargement changed a window-stable answer (internal bug)."""


class NotDominant(SuperklError):
    """Weight fails the strict block-dominance condition."""


class DuplicateCoordinate(SuperklError):
    """Repeated shifted coordinate inside one block."""


class BudgetExceeded(SuperklError):
    """Requested computation exceeds a hard size budget."""


class UsageError(SuperklError):
    """The command line was rejected: an unknown command or flag, or a bad value."""
