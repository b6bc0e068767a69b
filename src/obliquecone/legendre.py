"""Legendre functions of real degree on the cut, orders 0 and 1.

This module is the single source of truth for P_a(z), P^1_a(z), their
z-derivatives, their angle-derivatives near the axis and finite-difference
degree-derivatives.  Everything else in the package evaluates Legendre
functions through it.

Evaluation uses the Gauss hypergeometric identity (DLMF 14.3.1)

    P_a(z) = 2F1(-a, a + 1; 1; (1 - z)/2)

through scipy's compiled ufunc hyp2f1.  For z < Z_SWITCH that
ufunc goes over to its 1 - x transformation, which loses up to four digits
at degrees just below an integer, so there the non-integer degrees are
summed from the connection formula around z = -1 (`_connection_series`)
instead.  Each (degree, argument) pair is evaluated on exactly one of the
two branches, and both serve the scalar and the vectorised entry points
alike: one degree at one argument is summed in Python floats, an array of
degrees or of arguments in numpy, with the same operations in the same
order, so both give the same bits.  The connection series sums a number of
terms fixed in advance, so no accepted argument can fail to converge.
Degrees above DEGREE_MAX, where both branches lose accuracy for z < 0, are
rejected.

P^1_a and the z-derivatives of P_a and P^1_a are identities in P_a and
P_{a+1} alone, the last through Legendre's equation, so each evaluates the
kernel once at each of the two degrees and accepts a degree up to
DEGREE_MAX - 1.

An independent quadrature oracle (`legendre_p_quadrature`) is provided for
cross-validation only; nothing in the evaluation path depends on it.  It
sums the Mehler-Dirichlet integral with a fixed Gauss-Legendre rule in
numpy, so checking the kernel loads no `scipy.integrate`.

The ufuncs hyp2f1 and psi are taken from scipy's compiled module
`scipy/special/_special_ufuncs`, loaded from its file by `_load_compiled`,
which loads the solver's LAPACK routines too.  They are the very objects
that `scipy.special` exports, so every value is the same; what the direct
load skips is the package `__init__`, whose array-API layer imports
`numpy.testing`, `unittest` and `email` and takes most of a cold start.
Where that file is missing, fails to load or lacks either name (an older
scipy, say), they come from `scipy.special` itself.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import DomainError, check_each, real_array, real_number

_UFUNCS_MODULE = "scipy.special._special_ufuncs"


def _compiled_file(module: str):
    """The file of scipy's compiled `module` (a dotted name under `scipy`), or
    None.  `find_spec` reads the install directory without running scipy's code."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    stem = os.path.join(spec.submodule_search_locations[0], *module.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    return None


def _load_compiled(module: str, names: tuple[str, ...], fallback: str) -> tuple:
    """The named objects of scipy's compiled `module`, loaded from the file of
    `_compiled_file`, or of the module `fallback`, imported as usual, where
    there is no such file, it fails to load or lacks a name."""
    # once the package is imported, its own module is at hand
    path = None if module in sys.modules else _compiled_file(module)
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(module, path)
        try:
            loaded = importlib.util.module_from_spec(importlib.util.spec_from_loader(module, loader))
            loader.exec_module(loaded)
            return tuple(getattr(loaded, name) for name in names)
        except (ImportError, AttributeError):
            pass
        finally:
            # a later import of the package registers the module itself, as an
            # attribute of the package too, with these same objects
            sys.modules.pop(module, None)
    loaded = importlib.import_module(fallback)
    return tuple(getattr(loaded, name) for name in names)


hyp2f1, psi = _load_compiled(_UFUNCS_MODULE, ("hyp2f1", "psi"), "scipy.special")

#: Lower cutoff for the argument: z must satisfy z > -1 + Z_CUTOFF.
Z_CUTOFF = 1e-3

#: Arguments below this take the connection series for non-integer degrees;
#: hyp2f1 takes its 1 - x transformation for x = (1 - z)/2 > 0.9.
Z_SWITCH = -0.8

#: Degrees this close to an integer are evaluated as that integer: P_a moves
#: by less than 1e-17 there, and 1/(k - a) in the series could overflow.
_INTEGER_TOL = 1e-18

#: log(2^-60): the connection series stops once y^k falls below 2^-60.
_LOG_TAIL = -60.0 * math.log(2.0)

#: Step of the finite-difference degree-derivative.
DEGREE_STEP = 1e-5

#: Nodes of the quadrature oracle's Gauss-Legendre rule.  Relative to
#: max(1, |P|), the worst error against mpmath on a grid of degrees in
#: [-1, 4] and arguments across the domain is 5.2e-15 with 64 nodes and
#: 5.4e-14 with 24.
_QUADRATURE_NODES = 64

#: Largest degree the kernel accepts.  The package evaluates degrees up to
#: 3 + DEGREE_STEP.  Relative to max(1, |P|), the worst error against mpmath
#: grows with the degree, from about 2e-14 on [3, 4] to 2e-13 on [4, 5] and
#: 1e-11 on [6, 8]; at a = 27.51, z = -0.709 no digit is right.
DEGREE_MAX = 4.0


def _check_args(alpha: float, z: float) -> None:
    try:
        if not (-1.0 <= alpha <= DEGREE_MAX):
            raise DomainError(f"degree must lie in [-1, {DEGREE_MAX}], got {alpha}")
        if not (-1.0 + Z_CUTOFF < z <= 1.0):
            raise DomainError(f"argument must lie in (-1 + {Z_CUTOFF}, 1], got {z}")
    except TypeError:
        # no float compares with it: the type rule names the argument, and
        # the float fast path pays nothing for it
        real_number(alpha, "degree")
        real_number(z, "argument")
        raise


def _libm(f, x):
    """f(x) at a float, or at each element of an ndarray through the same
    Python-float call, so an ndarray gets the bits of the scalar loop on every
    platform: numpy's vectorised sin, cos and power need not match libm.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return f(x)


def _at(v, mask: np.ndarray):
    """The elements of an ndarray under a mask; a float stands for them all."""
    return v[mask] if isinstance(v, np.ndarray) else v


def _connection_series(alpha, y):
    """P_a(z) for a non-integer degree, or an array of them, about z = -1.

    With y = (1 + z)/2 and t_k = (-a)_k (a+1)_k / (k!)^2, the c = a + b case
    of the 1 - x connection formula (DLMF 15.8.10) reads, after the
    reflection psi(k - a) = psi(1 + a - k) + pi cot(pi a),

        P_a(z) = sum_k t_k y^k [cos(pi a) - (sin(pi a)/pi)
                 (2 psi(k+1) - psi(1+a-k) - psi(1+a+k) - ln y)].

    sin and cos are taken of the offset from the nearest integer, which is
    exact, so a degree close to an integer keeps its full accuracy.  For
    k >= a every ratio |t_{k+1} y / t_k| is at most y, so past the largest
    degree the terms shrink at least like y^k; y < 0.1 on this branch.

    A scalar degree, passed with y as Python floats, is summed in Python
    floats, and an array of degrees at one y, or one degree at an array of y,
    elementwise in numpy; all run the same operations in the same order, so
    a pair gets the same bits either way.  An array of degrees sums the term
    count of its largest degree; an array of y gives each y its own log y and
    term count, as a scalar y has.
    """
    scalar = not isinstance(alpha, np.ndarray)
    n = float(round(alpha)) if scalar else np.round(alpha)
    sign = 1.0 - 2.0 * (n % 2.0)
    sin_a = sign * np.sin(np.pi * (alpha - n)) / np.pi
    cos_a = sign * np.cos(np.pi * (alpha - n))
    # psi(k+1), psi(1+a-k) and psi(1+a+k), advanced by psi(w+1) = psi(w) + 1/w
    psi_k, psi_lo = psi(1.0), psi(1.0 + alpha)
    if scalar:
        sin_a, cos_a, psi_k, psi_lo = float(sin_a), float(cos_a), float(psi_k), float(psi_lo)
    psi_hi = psi_lo
    top = math.ceil(max(alpha if scalar else float(np.max(alpha)), 0.0))
    if isinstance(y, np.ndarray):
        # math.log per argument, as a scalar y takes it: np.log differs from
        # it in the last bit of some arguments
        log_y = _libm(math.log, y)
        n_terms = top + np.ceil(_LOG_TAIL / log_y)
        # y_k = 0 past an argument's own term count zeroes its later terms
        steps = [np.where(j < n_terms, y, 0.0) for j in range(1, int(n_terms.max()) + 1)]
    else:
        log_y = math.log(y)
        steps = [y] * (top + math.ceil(_LOG_TAIL / log_y))
    t, total = 1.0, 0.0
    # k counts in floats: int-float operands cost a third of the scalar sum
    k = 0.0
    for y_k in steps:
        k1 = k + 1.0
        total = total + t * (cos_a - sin_a * (2.0 * psi_k - psi_lo - psi_hi - log_y))
        t = t * ((k - alpha) * (k + alpha + 1.0) / (k1 * k1) * y_k)
        psi_k = psi_k + 1.0 / k1
        psi_lo = psi_lo + 1.0 / (k - alpha)
        psi_hi = psi_hi + 1.0 / (alpha + k + 1.0)
        k = k1
    return total


def _kernel(alpha: float, z: float):
    """P_a(z) at one degree and one argument, both floats and unchecked.

    At or above Z_SWITCH that is hyp2f1; below it the integer degrees stay
    with hyp2f1, which sums their terminating polynomial, and only the others
    go to the series.
    """
    x = 0.5 * (1.0 - z)
    if z >= Z_SWITCH or abs(alpha - round(alpha)) <= _INTEGER_TOL:
        return hyp2f1(-alpha, alpha + 1.0, 1.0, x)
    return _connection_series(alpha, 0.5 * (1.0 + z))


def _kernel_many(alpha, z) -> np.ndarray:
    """`_kernel` over an ndarray of degrees or of arguments, the other a float.

    Each pair takes the branch `_kernel` gives it, so hyp2f1 and the series
    each see only their own pairs.
    """
    x = 0.5 * (1.0 - z)
    below = z < Z_SWITCH
    # a float z is a Python bool here, which np.any takes microseconds to read
    if below is False or not np.any(below):
        return hyp2f1(-alpha, alpha + 1.0, 1.0, x)
    series = below & (np.abs(alpha - np.round(alpha)) > _INTEGER_TOL)
    rest = ~series
    p = np.empty(series.shape)
    a = _at(alpha, rest)
    p[rest] = hyp2f1(-a, a + 1.0, 1.0, _at(x, rest))
    if series.any():
        p[series] = _connection_series(_at(alpha, series), _at(0.5 * (1.0 + z), series))
    return p


def legendre_p(alpha, z):
    """Legendre function P_a(z), degree a in [-1, DEGREE_MAX], z in (-1+1e-3, 1].

    `alpha` and `z` are floats, or one of them is an ndarray, which goes
    through `legendre_p_many`; so callers pass either and never choose
    between the two.  Raises DomainError outside the accepted domain.
    """
    # a Python float z, the hot case, skips the slower ndarray test
    if isinstance(alpha, np.ndarray) or type(z) is not float and isinstance(z, np.ndarray):
        return legendre_p_many(alpha, z)
    _check_args(alpha, z)
    return float(_kernel(float(alpha), float(z)))


def legendre_p_many(alphas, z) -> np.ndarray:
    """Vectorized `legendre_p`: an array of degrees at a float argument, or a
    float degree at an ndarray of arguments, of bool, integer or float dtype.

    Element by element it equals the scalar evaluation bit for bit.
    """
    # the float is checked once ahead of the walk, which an empty ndarray skips
    if isinstance(z, np.ndarray):
        if isinstance(alphas, np.ndarray):
            raise DomainError("pass an ndarray of degrees or of arguments, not both")
        alphas = real_number(alphas, "degree")
        _check_args(alphas, 1.0)
        z = check_each(lambda v: _check_args(alphas, v), z, "argument")
    else:
        z = real_number(z, "argument")
        _check_args(0.0, z)
        alphas = check_each(lambda a: _check_args(a, z), alphas, "degree")
    return _kernel_many(alphas, z)


def legendre_dp_dz(alpha, z):
    """dP_a/dz via the identity P_a'(z) = (a+1)(z P_a(z) - P_{a+1}(z))/(1-z^2).

    `alpha` and `z` are as for `legendre_p`.  The denominator vanishes at
    z = 1, so that point is rejected.
    """
    if z == 1.0 if type(z) is float else np.any(z == 1.0):
        raise DomainError("derivative identity is singular at z = 1")
    return _dp_dz_identity(alpha, z, legendre_p(alpha, z), legendre_p(alpha + 1.0, z))


def _dp_dz_identity(alpha, z, p0, p1):
    """The identity of `legendre_dp_dz` from p0 = P_a(z) and p1 = P_{a+1}(z)."""
    return (alpha + 1.0) * (z * p0 - p1) / (1.0 - z * z)


def legendre_p1(alpha, z):
    """Associated Legendre function P^1_a(z) = -(1-z^2)^(1/2) dP_a/dz.

    `alpha` and `z` are as for `legendre_p`.  At z = 1 the square-root factor
    vanishes faster than the derivative grows, so 0 is returned there by
    continuity.  The kernel calls reject every argument outside the domain
    before the square root sees it.
    """
    if isinstance(z, np.ndarray):
        p1 = np.zeros(z.shape)
        inner = z != 1.0
        zi = z[inner]
        p1[inner] = _p1_identity(alpha, zi, legendre_p(alpha, zi), legendre_p(alpha + 1.0, zi))
        return p1
    if z == 1.0:
        # P_a(1) = 1, and legendre_p rejects a degree outside the domain
        return 0.0 * legendre_p(alpha, z)
    return _p1_identity(alpha, z, legendre_p(alpha, z), legendre_p(alpha + 1.0, z))


def _p1_identity(alpha, z, p0, p1):
    """P^1_a(z) = -(1-z^2)^(1/2) P_a'(z), with P_a' the identity of
    `legendre_dp_dz`, from p0 = P_a(z) and p1 = P_{a+1}(z), z < 1.  Square
    roots are correctly rounded, so numpy's equals libm's."""
    w = 1.0 - z * z
    return _dp_dz_identity(alpha, z, p0, p1) * -(math.sqrt(w) if type(w) is float else np.sqrt(w))


def legendre_dp1_dz(alpha, z):
    """d/dz of P^1_a, from P at the degrees a and a+1 alone.

    P^1_a = -(1-z^2)^(1/2) P_a' and Legendre's equation give
    (P^1_a)' = -(z P_a' - a(a+1) P_a) / (1-z^2)^(1/2), with P_a' the identity
    of `legendre_dp_dz`.  `alpha` and `z` are as for `legendre_p`, apart from
    the degree, which must lie in [-1, DEGREE_MAX - 1] for P_{a+1}.  The
    identity is singular at z = 1, so that point is rejected.
    """
    if z == 1.0 if type(z) is float else np.any(z == 1.0):
        raise DomainError("derivative identity is singular at z = 1")
    return _dp1_dz_identity(alpha, z, legendre_p(alpha, z), legendre_p(alpha + 1.0, z))


def _dp1_dz_identity(alpha, z, p0, p1):
    """The identity of `legendre_dp1_dz` from p0 = P_a(z) and p1 = P_{a+1}(z)."""
    one_m_z2 = 1.0 - z * z
    a1 = alpha + 1.0
    num = alpha * a1 * p0 - z * a1 * (z * p0 - p1) / one_m_z2
    return num / _libm(math.sqrt, one_m_z2)


def legendre_dp_dalpha(alpha, z: float):
    """Central finite difference of P_a(z) in the degree, step h = DEGREE_STEP.

    `alpha` is a float or an ndarray of degrees.  Both stencil points must
    lie in the kernel's domain, so alpha - h >= -1; the error names alpha - h.
    """
    alpha = (real_array(alpha, "degree", finite=False) if isinstance(alpha, np.ndarray)
             else real_number(alpha, "degree"))
    h = DEGREE_STEP
    return (legendre_p(alpha + h, z) - legendre_p(alpha - h, z)) / (2.0 * h)


def _dtheta_near_axis(a: float, m: int, theta):
    """d/dtheta of P^m_a(cos theta), m = 0 or 1, at an unchecked angle or
    ndarray of angles, from P_a'(cos t) = a(a+1)/2 F(1-a, a+2; 2; x) and
    P^1_a(cos t) = -sin(t) a(a+1)/2 F(1-a, a+2; 2; x), x = sin^2(t/2): the
    identities of `legendre_dp_dz` and `legendre_dp1_dz` cancel as t -> 0."""
    x = _libm(lambda t: math.sin(0.5 * t) ** 2, theta)
    st = _libm(math.sin, theta)
    f = hyp2f1(1.0 - a, a + 2.0, 2.0, x)
    if m == 0:
        return -0.5 * a * (a + 1.0) * st * f
    return -0.5 * a * (a + 1.0) * (
        _libm(math.cos, theta) * f
        + 0.25 * st * st * (1.0 - a) * (a + 2.0) * hyp2f1(2.0 - a, a + 3.0, 3.0, x)
    )


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """x^2 and w x / 2 at the Gauss-Legendre nodes mapped to x in (0, 1), for
    u = sqrt(t0) x.  They are built on the oracle's first call: building them
    takes milliseconds, which no import should pay."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
    x = 0.5 * (nodes + 1.0)
    return x * x, 0.5 * weights * x


def legendre_p_quadrature(alpha: float, z: float) -> float:
    """Quadrature oracle for P_a(z), independent of the hypergeometric evaluation.

    It evaluates the Mehler-Dirichlet integral

        P_a(cos t0) = (sqrt(2)/pi) * int_0^t0 cos((a+1/2) t) / sqrt(cos t - cos t0) dt

    for every accepted z, with the substitution t = t0 - u^2 removing the
    endpoint singularity.  The integrand in u is then analytic on
    [0, sqrt(t0)] for every t0 in (0, pi), so a fixed Gauss-Legendre rule
    converges geometrically, and a rule of _QUADRATURE_NODES nodes sits at
    the roundoff floor everywhere in the domain.
    """
    alpha, z = real_number(alpha, "degree"), real_number(z, "argument")
    _check_args(alpha, z)
    if z == 1.0:
        return 1.0
    theta = math.acos(z)
    x2, wx = _gauss_legendre_rule()
    u2 = theta * x2
    h = 0.5 * u2
    # cos t - cos theta = 2 sin(theta - u^2/2) sin(u^2/2), cancellation-free;
    # the Gauss nodes avoid u = 0, where it vanishes
    den = np.sin(theta - h) * np.sin(h)
    integrand = np.cos((alpha + 0.5) * (theta - u2)) / np.sqrt(den)
    return float(wx @ integrand) * theta * 2.0 / math.pi
