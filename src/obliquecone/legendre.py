"""Legendre functions of real degree on the cut, orders 0 and 1.

This module is the single source of truth for P_a(z), P^1_a(z), their
z-derivatives and finite-difference degree-derivatives.  Everything else in
the package evaluates Legendre functions through it.

Evaluation uses the Gauss hypergeometric identity (DLMF 14.3.1)

    P_a(z) = 2F1(-a, a + 1; 1; (1 - z)/2)

through the compiled ufunc `scipy.special.hyp2f1`.  For z < Z_SWITCH that
ufunc goes over to its 1 - x transformation, which loses up to four digits
at degrees just below an integer, so there the non-integer degrees are
summed from the connection formula around z = -1 (`_connection_series`)
instead.  Each degree is evaluated on exactly one of the two branches, and
both serve the scalar and the vectorised entry points alike: a scalar
degree is summed in Python floats, an array in numpy, with the same
operations in the same order, so both give the same bits.  The connection
series sums a number of terms fixed in advance, so no accepted argument can
fail to converge.  Degrees above DEGREE_MAX, where both branches lose
accuracy for z < 0, are rejected.

An independent quadrature oracle (`legendre_p_quadrature`) is provided for
cross-validation only; nothing in the evaluation path depends on it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import hyp2f1, psi

from .errors import DomainError

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

#: Default step for finite-difference degree-derivatives.
DEGREE_STEP = 1e-5

#: Largest degree the kernel accepts.  The package evaluates degrees up to
#: 3 + DEGREE_STEP.  Relative to max(1, |P|), the worst error against mpmath
#: grows with the degree, from about 2e-14 on [3, 4] to 2e-13 on [4, 5] and
#: 1e-11 on [6, 8]; at a = 27.51, z = -0.709 no digit is right.
DEGREE_MAX = 4.0


def _check_z(z: float) -> None:
    if not (-1.0 + Z_CUTOFF < z <= 1.0):
        raise DomainError(
            f"argument must lie in (-1 + {Z_CUTOFF}, 1], got {z}"
        )


def _check_args(alpha: float, z: float) -> None:
    if not (-1.0 <= alpha <= DEGREE_MAX):
        raise DomainError(f"degree must lie in [-1, {DEGREE_MAX}], got {alpha}")
    _check_z(z)


def _connection_series(alpha, y: float):
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
    floats and an array elementwise in numpy; both run the same operations
    in the same order, so a degree gets the same bits either way.
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
    log_y = math.log(y)
    t, total = 1.0, 0.0
    top = alpha if scalar else float(np.max(alpha))
    n_terms = math.ceil(max(top, 0.0)) + math.ceil(_LOG_TAIL / log_y)
    # k counts in floats: int-float operands cost a third of the scalar sum
    k = 0.0
    for _ in range(n_terms):
        k1 = k + 1.0
        total = total + t * (cos_a - sin_a * (2.0 * psi_k - psi_lo - psi_hi - log_y))
        t = t * ((k - alpha) * (k + alpha + 1.0) / (k1 * k1) * y)
        psi_k = psi_k + 1.0 / k1
        psi_lo = psi_lo + 1.0 / (k - alpha)
        psi_hi = psi_hi + 1.0 / (alpha + k + 1.0)
        k = k1
    return total


def _kernel(alpha, z: float):
    """P_a(z) for a float or an array of degrees; arguments are not checked.

    Each degree is evaluated on exactly one branch.  At or above Z_SWITCH that
    is hyp2f1; below it the integer degrees stay with hyp2f1, which sums
    their terminating polynomial, and only the others go to the series.
    """
    x = 0.5 * (1.0 - z)
    if z >= Z_SWITCH:
        return hyp2f1(-alpha, alpha + 1.0, 1.0, x)
    y = 0.5 * (1.0 + z)
    if not isinstance(alpha, np.ndarray):
        if abs(alpha - round(alpha)) > _INTEGER_TOL:
            return _connection_series(alpha, y)
        return hyp2f1(-alpha, alpha + 1.0, 1.0, x)
    frac = np.abs(alpha - np.round(alpha)) > _INTEGER_TOL
    whole = alpha[~frac]
    p = np.empty_like(alpha)
    p[~frac] = hyp2f1(-whole, whole + 1.0, 1.0, x)
    if frac.any():
        p[frac] = _connection_series(alpha[frac], y)
    return p


def legendre_p(alpha: float, z: float) -> float:
    """Legendre function P_a(z), degree a in [-1, DEGREE_MAX], z in (-1+1e-3, 1].

    Raises DomainError outside the accepted domain.
    """
    _check_args(alpha, z)
    return float(_kernel(float(alpha), float(z)))


def legendre_p_many(alphas: np.ndarray, z: float) -> np.ndarray:
    """Vectorized `legendre_p` over an array of degrees at a fixed argument.

    Used by the root-scan paths; element by element it equals the scalar
    evaluation.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((alphas >= -1.0) & (alphas <= DEGREE_MAX)):
        raise DomainError(f"degrees must lie in [-1, {DEGREE_MAX}]")
    _check_z(z)
    return _kernel(alphas, z)


def legendre_dp_dz(alpha: float, z: float) -> float:
    """dP_a/dz via the identity P_a'(z) = (a+1)(z P_a(z) - P_{a+1}(z))/(1-z^2).

    The denominator vanishes at z = 1, so that point is rejected.
    """
    if z == 1.0:
        raise DomainError("derivative identity is singular at z = 1")
    _check_args(alpha, z)
    return (alpha + 1.0) * (z * legendre_p(alpha, z) - legendre_p(alpha + 1.0, z)) / (
        1.0 - z * z
    )


def legendre_p1(alpha: float, z: float) -> float:
    """Associated Legendre function P^1_a(z) = -(1-z^2)^(1/2) dP_a/dz.

    At z = 1 the square-root factor vanishes faster than the derivative
    grows, so 0 is returned by continuity.
    """
    _check_args(alpha, z)
    if z == 1.0:
        return 0.0
    return -math.sqrt(1.0 - z * z) * legendre_dp_dz(alpha, z)


def legendre_dp1_dz(alpha, z: float):
    """d/dz of P^1_a, written out in terms of P at the degrees a, a+1 and a+2.

    It follows from P^1_a = -(1-z^2)^(1/2) P_a' and the derivative identity
    of `legendre_dp_dz`.  `alpha` is a float, or an array of degrees, which
    goes through `legendre_p_many`.  The identity is singular at z = 1, so
    that point is rejected.
    """
    if z == 1.0:
        raise DomainError("derivative identity is singular at z = 1")
    if np.ndim(alpha) == 0:
        p = legendre_p
    else:
        p, alpha = legendre_p_many, np.asarray(alpha, dtype=float)
    p0, p1, p2 = p(alpha, z), p(alpha + 1.0, z), p(alpha + 2.0, z)
    one_m_z2 = 1.0 - z * z
    return (
        alpha * (alpha + 2.0) * (z * p1 - p2) - (alpha + 1.0) ** 2 * z * (z * p0 - p1)
    ) / one_m_z2 ** 1.5


def legendre_dp_dalpha(alpha: float, z: float, h: float = DEGREE_STEP) -> float:
    """Central finite difference of P_a(z) in the degree, error O(h^2).

    Requires alpha - h >= -1 so both stencil points stay in the domain.
    """
    if h <= 0.0:
        raise DomainError(f"degree step must be positive, got {h}")
    if alpha - h < -1.0:
        raise DomainError(
            f"degree step {h} leaves the domain: alpha - h = {alpha - h} < -1"
        )
    return (legendre_p(alpha + h, z) - legendre_p(alpha - h, z)) / (2.0 * h)


def legendre_p_quadrature(alpha: float, z: float) -> float:
    """Quadrature oracle for P_a(z), independent of the hypergeometric evaluation.

    For z >= 0 this is the Laplace integral

        P_a(cos t0) = (1/pi) * int_0^pi Re (cos t0 + i sin t0 cos t)^a dt.

    That representation needs Re(z) > 0; for z < 0 the principal branch of
    the integrand crosses its cut and the formula breaks down, so the
    Mehler-Dirichlet integral

        P_a(cos t0) = (sqrt(2)/pi) * int_0^t0 cos((a+1/2) t) / sqrt(cos t - cos t0) dt

    is used instead, with the substitution t = t0 - u^2 removing the
    endpoint singularity.  Both are evaluated adaptively to ~1e-12.
    """
    from scipy.integrate import IntegrationWarning, quad

    _check_args(alpha, z)
    if z == 1.0:
        return 1.0
    theta = math.acos(z)
    with warnings.catch_warnings():
        # the requested tolerance sits at the roundoff floor by design
        warnings.simplefilter("ignore", IntegrationWarning)
        if z >= 0.0:

            def laplace_integrand(t: float) -> float:
                w = complex(z, math.sin(theta) * math.cos(t))
                return (w ** alpha).real

            val, _ = quad(
                laplace_integrand, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=400
            )
            return val / math.pi

        c = alpha + 0.5

        def md_integrand(u: float) -> float:
            t = theta - u * u
            # cos t - cos theta = 2 sin(theta - u^2/2) sin(u^2/2), cancellation-free
            den = math.sin(theta - 0.5 * u * u) * math.sin(0.5 * u * u)
            if den <= 0.0:
                return math.cos(c * theta) * math.sqrt(2.0 / math.sin(theta))
            return math.cos(c * t) * u / math.sqrt(den)

        val, _ = quad(
            md_integrand, 0.0, math.sqrt(theta), epsabs=1e-13, epsrel=1e-13, limit=400
        )
        return val * 2.0 / math.pi
