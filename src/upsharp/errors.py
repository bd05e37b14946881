"""Exception hierarchy shared across the package, the base of its name
enums, whose unknown names are usage errors, and its one integer check."""

from enum import Enum
from numbers import Integral


class UpsharpError(Exception):
    """Base class for all package-specific failures."""


class UsageError(UpsharpError, ValueError):
    """Invalid arguments or out-of-range parameters supplied by the caller."""


class DivergentIntegralError(UpsharpError, ArithmeticError):
    """The requested weighted integral diverges near the origin or infinity."""


class QuadratureConvergenceError(UpsharpError, ArithmeticError):
    """A numerical rule could not meet the requested tolerance within budget."""


class FormUnavailableError(UpsharpError, LookupError):
    """No expression exists for the requested (functional, form) pair."""


class SingularWeightError(UpsharpError, ValueError):
    """Profile fails the vanishing-order admissibility check for a singular weight."""


class DegenerateProfileError(UpsharpError, ValueError):
    """Denominator of a quotient is zero (the zero profile), or its moments or
    integrals left the floating-point range."""


class InconclusiveScanError(UpsharpError, RuntimeError):
    """Discrete infimum scan could not certify its tail beyond the scanned range."""


class SolverError(UpsharpError, RuntimeError):
    """Variational minimization failed (non-convergence or degenerate collapse)."""


class _NameEnum(str, Enum):
    """A str enum of names; looking up an unknown name is a UsageError. The
    hook runs only for values that are not members."""

    @classmethod
    def _missing_(cls, value):
        raise UsageError(f"{value!r} is not a valid {cls.__name__}")


def _integer(value, name: str) -> int:
    """``value`` as an int; UsageError for a bool or a non-integer, never truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}; "
                         "non-integers are not truncated")
    return int(value)
