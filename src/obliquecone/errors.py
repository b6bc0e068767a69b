"""Exception hierarchy for the toolkit, and the type rules of its real,
real-array and integer-choice arguments."""

import math
import numbers

import numpy as np


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
    names its argument, and so does an int or a fraction beyond the float range."""
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise error(f"{name} must be one real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} must lie within the float range") from None


def integer_choice(value, top: int, name: str, error=DomainError) -> int:
    """value as an int: error unless it is a real number equal to one of
    0, ..., top, so 1.0 and True are the choice 1.  For a float `in` walks the
    range, so a mode or an order takes this rule and a count does not."""
    if not (isinstance(value, numbers.Real) and value in range(top + 1)):
        raise error(f"{name} must be an integer in [0, {top}], got {value!r}")
    return int(value)


def real_array(value, name: str, shape=None, error=DomainError, finite: bool = True) -> np.ndarray:
    """value, an ndarray or a nested sequence, as a float ndarray: error unless
    its dtype is bool, integer or float, read before numpy casts a numeric
    string or a complex number to float; its shape fits `shape`, where None
    leaves a length free (a `shape` of None, every length); and, with
    `finite`, no entry is NaN or infinite.  A float64 ndarray is not copied."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a rectangular array of real numbers") from None
    if arr.dtype.char != "d":
        if arr.dtype.kind not in "biuf":
            raise error(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
        arr = arr.astype(float)
    if shape is not None and arr.shape != shape and (
        arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))
    ):
        raise error(f"{name} of shape {arr.shape} does not fit {shape}")
    # a few entries, a 2x2 matrix's say, read faster as Python floats
    if finite and not (
        np.isfinite(arr).all() if arr.size > 16 else all(map(math.isfinite, arr.ravel().tolist()))
    ):
        raise error(f"{name} must be finite")
    return arr


def check_each(check, x, name: str) -> np.ndarray:
    """x as a float ndarray (the dtype rule of `real_array`), after check(v)
    at each element v, naming the first that fails, NaN included.  Each
    domain is an interval, so only a failure at x's extremes walks x."""
    x = real_array(x, name, finite=False)
    try:
        for v in (x.min(), x.max()) if x.size else ():
            check(float(v))
    except DomainError:
        for v in x.ravel().tolist():
            check(float(v))
    return x
