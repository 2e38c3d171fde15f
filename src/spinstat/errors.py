"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can
serialize failures without string matching.
"""

from __future__ import annotations


class SpinstatError(Exception):
    """Base class for domain errors raised by this package."""

    code = "error"


class ModeMismatchError(SpinstatError):
    """Exact and float values were combined in one operation."""

    code = "mode-mismatch"


class ShapeError(SpinstatError):
    """Particle count or local dimensions do not match the operation."""

    code = "shape-mismatch"


class NotPermutableError(SpinstatError):
    """Slot permutation requested on slots of unequal dimension."""

    code = "not-permutable"


class IncompatibleRadicandsError(SpinstatError):
    """An exact operation needs a single ``q*sqrt(r)`` term or a rational value."""

    code = "incompatible-radicands"


class SizeLimitError(SpinstatError):
    """Input exceeds the factorial-guarded size this package supports."""

    code = "size-limit"


class CapacityError(SpinstatError):
    """More particles than the doubly-degenerate levels can hold."""

    code = "capacity"


class UndefinedConditionalError(SpinstatError):
    """Conditioning event has probability zero."""

    code = "undefined-conditional"


class InsufficientSampleError(SpinstatError):
    """Expected counts too small for the chi-square validity rule."""

    code = "insufficient-sample"


class UnknownTagError(SpinstatError):
    """No state with the requested tag exists in the catalog."""

    code = "unknown-tag"


class InvalidSpinError(SpinstatError):
    """Spin value is not a nonnegative half-integer."""

    code = "invalid-spin"


class InvalidValueError(SpinstatError, ValueError):
    """An input value is outside the domain of the operation."""

    code = "invalid-value"


class StateFileError(SpinstatError, ValueError):
    """A state spec file is malformed."""

    code = "state-file"
