"""Exception hierarchy for the toolkit, and the type rule of its real arguments."""

import numbers


class ObliqueConeError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ObliqueConeError, ValueError):
    """An argument lies outside the validated domain of an operation."""


class BracketError(ObliqueConeError, RuntimeError):
    """A sign-change bracket required by a root search could not be found."""


class InvalidOperator(ObliqueConeError, ValueError):
    """Coefficient matrix fails a symmetry, invariance or ellipticity check."""


class InvalidAlpha(ObliqueConeError, ValueError):
    """Requested barrier degree is outside the certified positivity range."""


class DegenerateBC(ObliqueConeError, ValueError):
    """Boundary operator is degenerate for the requested computation."""


class InvalidTilt(ObliqueConeError, ValueError):
    """Tilt parameter violates the sign preconditions of the tilted operator."""


class NoAdmissibleTilt(ObliqueConeError, RuntimeError):
    """No tilt above the search floor keeps the tilted coefficient negative."""


class SingularSystem(ObliqueConeError, RuntimeError):
    """Discrete linear system is not solvable under the given boundary data."""


class DegenerateFit(ObliqueConeError, ValueError):
    """Exponent fit window contains sign changes or near-zero samples."""


class HypothesisError(ObliqueConeError, ValueError):
    """Exponent bookkeeping of an inequality check violates its hypotheses."""


def real_number(value, name: str, error: type[ObliqueConeError] = DomainError) -> float:
    """value as a float: error unless it is one real number, so that an ndarray,
    a string or None where one angle, degree, radius or exponent is documented
    names its argument."""
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise error(f"{name} must be one real number, got {type(value).__name__}")
    return float(value)
