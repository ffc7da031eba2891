"""Typed errors shared across the library."""


class DynctlError(Exception):
    """Base class for all library errors."""


class BothZeroError(DynctlError):
    """(0, 0) is not a point of the projective line."""


class DegenerateMapError(DynctlError):
    """The two defining forms have a common root (resultant is zero)."""


class DegreeDropError(DynctlError):
    """Both forms are divisible by Y, so the true degree is below the nominal one."""


class SizeBudgetExceededError(DynctlError):
    """A coefficient, coordinate or enumeration outgrew its configured budget."""


class DegenerateFamilyError(DynctlError):
    """A family parameter value at which the family map does not exist."""


class ParseError(DynctlError):
    """Expression text rejected by the grammar; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotRationalError(DynctlError):
    """The expression is not a rational function (e.g. the variable in an exponent)."""
