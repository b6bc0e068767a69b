"""Isotropic barrier construction and the tilted boundary operators.

The barrier is v_a = r^a F_a(theta) with F_a(theta) = P_a(cos theta); for
the Laplacian this is exactly harmonic, hence the sharpest supersolution
available, and it satisfies c* r^a <= v_a <= r^a with c* = F_a(theta0) as
long as a stays below the positivity threshold alpha0(theta0).

The boundary operators evaluated here act on v_a along the lateral boundary:

    M(t) v = beta0 . Dv + q(t) (a22~/a11~) tau . Dv
             - (1/eps) (q(t) / a11~) (beta1 / (beta2 - t beta1)) (b21 / y2) v,
    q(t) = (nu1 + t nu2) / (beta2 - t beta1),

where t = 0 gives the untilted operator and t > 0 the tilted one used to
control a second derivative direction.  Both scale as r^(a-1) on the
boundary; the functions below return that coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    DegenerateBC,
    DomainError,
    InvalidAlpha,
    InvalidOperator,
    InvalidTilt,
    NoAdmissibleTilt,
    real_array,
    real_number,
)
from .exponent import SeparableSolution, _bracketed_roots
from .geometry import ConeGeometry, ObliqueBC
from .legendre import legendre_p

#: Floor of the dyadic tilt search.
TILT_FLOOR = 1e-6

#: Sign-scan points and bisection width of the positivity-threshold search.
ALPHA0_SCAN_POINTS = 400
ALPHA0_XTOL = 1e-10

#: Smallest barrier degree.  Off the axis F_a' comes from the identity of
#: `legendre_dp_dz`, whose terms of size 1 cancel to a result of size a.  On
#: 80 cones over the admissible range rounding took its sign at a = 3e-16 on
#: most and at 1e-15 on none; the floor keeps three decades above that.
BARRIER_DEGREE_MIN = 1e-12

#: Size of the theta-grid on which `build_barrier` certifies the profile.
BARRIER_CHECK_POINTS = 500


@dataclass(frozen=True)
class MillerBarrier(SeparableSolution):
    """Barrier v_a = r^a F_a(theta), the m = 0 separable mode, certified on build.

    F_a = P_a(cos .) is its profile and theta0 the cone it was certified on;
    c* = F_a(theta0) and the edge slope fprime = F_a'(theta0) are derived from
    both, never passed in.
    """

    m: int = field(default=0, init=False)
    theta0: float
    cstar: float = field(init=False)
    fprime: float = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        ConeGeometry(theta0=self.theta0)
        cstar, fprime = self._profile_and_deriv(self.theta0)
        object.__setattr__(self, "cstar", cstar)
        object.__setattr__(self, "fprime", fprime)


def _alpha0_grid() -> np.ndarray:
    return np.linspace(1e-6, 1.0, ALPHA0_SCAN_POINTS)


def _first_zero(geom: ConeGeometry, alphas: np.ndarray) -> Optional[float]:
    """The first zero of a -> P_a(cos theta0) that the sign scan on alphas, a
    prefix of the alpha0 grid, brackets, bisected to ALPHA0_XTOL; None if none.

    The scan and each bisection step are those of the whole grid, so a zero
    that a prefix holds is the whole grid's first zero bit for bit.
    """
    p = partial(legendre_p, z=geom.z0)
    roots = _bracketed_roots(p, alphas, p(alphas), ALPHA0_XTOL)
    return roots[0] if roots else None


def alpha0(geom: ConeGeometry) -> float:
    """Positivity threshold: smallest a in (0, 1] with P_a(cos theta0) = 0, else 1.

    P_0 = 1 > 0 and a -> P_a(cos theta0) is continuous, so the first zero is
    bracketed by a sign scan and pinned by bisection.
    """
    root = _first_zero(geom, _alpha0_grid())
    return 1.0 if root is None else root


def build_barrier(geom: ConeGeometry, alpha: float) -> MillerBarrier:
    """Construct the barrier for BARRIER_DEGREE_MIN <= alpha < alpha0(geom) -
    ALPHA0_XTOL and certify it.

    alpha0 lies within ALPHA0_XTOL / 2 of the first zero of a -> F_a(theta0),
    so the margin keeps c* positive.  The threshold test scans the alpha0 grid
    only up to its first node g with g - ALPHA0_XTOL > alpha, about
    alpha + ALPHA0_XTOL: a zero there is alpha0's own, and without one alpha0
    is at least g, or 1 when the prefix is the whole grid; alpha0 itself
    still scans the whole grid.  Verifies on a BARRIER_CHECK_POINTS theta-grid,
    with one cosine and one F_a per angle, that c* <= F_a <= 1 with
    c* = F_a(theta0) > 0, that F_a' < 0 on (0, theta0], and that F_a'(0) = 0
    to 1e-8 by Richardson-extrapolated one-sided differences.  Raises
    InvalidAlpha if alpha is not one real number, is out of range or any
    certification fails.
    """
    if not (BARRIER_DEGREE_MIN <= real_number(alpha, "barrier degree", InvalidAlpha) < 1.0):
        raise InvalidAlpha(
            f"barrier degree must lie in [{BARRIER_DEGREE_MIN:g}, 1), got {alpha}"
        )
    grid = _alpha0_grid()
    # a zero of the scan lies at or above its bracket's first node, so a
    # prefix ending at a node g whose g - ALPHA0_XTOL exceeds alpha decides
    end = int(np.searchsorted(grid - ALPHA0_XTOL, alpha, side="right")) + 1
    a0 = _first_zero(geom, grid[:end])
    if a0 is None and end > ALPHA0_SCAN_POINTS:
        a0 = 1.0
    if a0 is not None and alpha >= a0 - ALPHA0_XTOL:
        raise InvalidAlpha(
            f"degree {alpha} is not below the positivity threshold {a0:.12g} "
            f"by its tolerance {ALPHA0_XTOL:g}"
        )
    barrier = MillerBarrier(alpha=alpha, theta0=geom.theta0)
    if not (0.0 < barrier.cstar <= 1.0):
        raise InvalidAlpha(f"boundary value c* = {barrier.cstar} not in (0, 1]")
    values, derivs = barrier._profile_and_deriv(np.linspace(0.0, geom.theta0, BARRIER_CHECK_POINTS))
    if values.min() < barrier.cstar - 1e-12 or values.max() > 1.0 + 1e-12:
        raise InvalidAlpha(
            f"profile leaves [c*, 1]: range [{values.min()}, {values.max()}]"
        )
    if derivs[1:].max() >= 0.0:
        raise InvalidAlpha("profile derivative is not strictly negative on (0, theta0]")
    # F(h) = 1 - a(a+1) h^2/4 + O(h^4): the one-sided quotient D(h) carries an
    # O(h) truncation error, which the Richardson combination 2 D(h/2) - D(h)
    # cancels
    h = 1e-4
    steps = np.array([h, 0.5 * h])
    d_h, d_half = (barrier.profile(steps) - 1.0) / steps
    slope0 = 2.0 * d_half - d_h
    if abs(slope0) > 1e-8:
        raise InvalidAlpha(f"profile derivative at 0 is {slope0}, not 0 to 1e-8")
    return barrier


@dataclass(frozen=True)
class RotatedCoefficients:
    """Plane coefficients expressed in the (beta0, tau) frame.

    atilde = J a0 J^T with J rows beta0 and tau for the boundary condition bc
    it was rotated for; b21 is the singular-term coefficient of the reduced
    operator.
    """

    atilde: np.ndarray
    bc: ObliqueBC
    b21: float

    @property
    def obliqueness(self) -> float:
        return self.bc.obliqueness

    @property
    def a11(self) -> float:
        return float(self.atilde[0, 0])

    @property
    def a22(self) -> float:
        return float(self.atilde[1, 1])


def rotate_coefficients(
    a0: np.ndarray, bc: ObliqueBC, b21: float = 1.0
) -> RotatedCoefficients:
    """Rotate 2x2 plane coefficients into the (beta0, tau) frame.

    Computes atilde = J a0 J^T for J = [[beta1, beta2], [nu2, -nu1]].  Since
    both rows of J are unit vectors, the diagonal entries satisfy
    lam <= a11~, a22~ <= Lam <= Lam / eps^2 for the extreme eigenvalues
    lam, Lam of a0; the bracket is asserted.
    b21 defaults to 1, the reduced Laplacian in R^3.

    Raises InvalidOperator on an a0 that is not a 2x2 array of finite real
    numbers (`errors.real_array`), is not symmetric or is indefinite, or on a
    failed bracket.
    """
    a0 = real_array(a0, "plane coefficients", (2, 2), InvalidOperator)
    (a11, a12), (a21, a22) = a0.tolist()
    if abs(a12 - a21) > 1e-12 * max(1.0, abs(a11), abs(a12), abs(a21), abs(a22)):
        raise InvalidOperator("plane coefficients are not symmetric")
    # the eigenvalues of the lower triangle in closed form; the smaller one as
    # det / Lam, since mid - rad cancels when they are far apart
    Lam = 0.5 * (a11 + a22) + math.hypot(0.5 * (a11 - a22), a21)
    det = a11 * a22 - a21 * a21
    if not (Lam > 0.0 and det > 0.0):
        raise InvalidOperator(
            f"plane coefficients not positive definite: largest eigenvalue {Lam}, "
            f"determinant {det}"
        )
    lam = det / Lam
    if not (0.0 < real_number(b21, "b21", InvalidOperator) < math.inf):
        raise InvalidOperator(f"b21 must be finite and positive, got {b21}")
    b1, b2 = bc.beta0
    t1, t2 = bc.tau
    J = np.array([[b1, b2], [t1, t2]])
    atilde = J @ a0 @ J.T
    eps = bc.obliqueness
    hi = Lam / (eps * eps)
    for entry in atilde.diagonal().tolist():
        if not (lam * (1.0 - 1e-12) <= entry <= hi * (1.0 + 1e-12)):
            raise InvalidOperator(
                f"rotated diagonal {entry} outside the ellipticity bracket "
                f"[{lam}, {hi}]"
            )
    return RotatedCoefficients(atilde=atilde, bc=bc, b21=b21)


def m1_coefficient(
    barrier: MillerBarrier, bc: ObliqueBC, rc: RotatedCoefficients
) -> float:
    """Coefficient c with M(0) v_a = c r^(a-1) on the lateral boundary.

    Negative c certifies the untilted boundary inequality; that sign holds
    for small degrees whenever beta1 and beta2 share a sign.
    """
    return m2_coefficient(barrier, bc, rc, 0.0)


def m2_coefficient(
    barrier: MillerBarrier, bc: ObliqueBC, rc: RotatedCoefficients, tilt: float
) -> float:
    """Coefficient of the tilted operator M(tilt) v_a, in units of r^(a-1).

    Preconditions: tilt >= 0, nu1 + tilt nu2 > 0, and beta2 - tilt beta1
    keeps the sign of beta2.  tilt = 0 is `m1_coefficient`.  The barrier and
    bc must belong to the same cone; F(theta0) and F'(theta0) are then the
    barrier's c* and fprime.  rc must be rotated for bc itself.
    """
    if bc.theta0 != barrier.theta0:
        raise DomainError(f"bc built for theta0 = {bc.theta0}, barrier for {barrier.theta0}")
    if rc.bc != bc:
        raise DomainError(f"coefficients rotated for {rc.bc}, not for {bc}")
    if bc.beta0[1] == 0.0:
        raise DegenerateBC("beta2 = 0: the boundary operator is degenerate")
    if not (0.0 <= real_number(tilt, "tilt", InvalidTilt) < math.inf):
        raise InvalidTilt(f"tilt must be finite and nonnegative, got {tilt}")
    b1, b2 = bc.beta0
    n1, n2 = bc.nu
    if tilt > 0.0:
        if n1 + tilt * n2 <= 0.0:
            raise InvalidTilt(f"nu1 + tilt nu2 = {n1 + tilt * n2} is not positive")
        if (b2 - tilt * b1) * b2 <= 0.0:
            raise InvalidTilt(
                f"beta2 - tilt beta1 = {b2 - tilt * b1} changes the sign of beta2"
            )
    t1, t2 = bc.tau
    eps = bc.obliqueness
    a = barrier.alpha
    theta0 = bc.theta0
    f, fp = barrier.cstar, barrier.fprime
    beta_dot_tau = b1 * t1 + b2 * t2
    q = (n1 + tilt * n2) / (b2 - tilt * b1)
    ratio = rc.a22 / rc.a11
    # beta0 . Dv = r^(a-1) (-a F beta0.tau - eps F'); tau . Dv = -a F r^(a-1);
    # the zero-order term carries 1/y2 = 1/(r sin theta0) on the boundary
    return (
        f * (-a * beta_dot_tau - a * q * ratio)
        - eps * fp
        - (1.0 / eps) * q * (b1 / rc.a11) * rc.b21 * f / math.sin(theta0)
    )


def max_admissible_tilt(
    bc: ObliqueBC, barrier: MillerBarrier, rc: RotatedCoefficients
) -> float:
    """Largest dyadic tilt in (0, 1] whose tilted coefficient stays negative.

    Halves from 1 until the tilt preconditions hold and M(tilt) v_a < 0;
    requires the untilted coefficient to be negative.  Raises
    NoAdmissibleTilt when even the floor fails.
    """
    if m1_coefficient(barrier, bc, rc) >= 0.0:
        raise NoAdmissibleTilt("untilted coefficient is not negative")
    tilt = 1.0
    while tilt >= TILT_FLOOR:
        try:
            if m2_coefficient(barrier, bc, rc, tilt) < 0.0:
                return tilt
        except InvalidTilt:
            pass
        tilt *= 0.5
    raise NoAdmissibleTilt(
        f"no admissible tilt above the floor {TILT_FLOOR} for s = {bc.s}"
    )
