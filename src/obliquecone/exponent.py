"""Critical exponents and regime classification for oblique problems on cones.

The separable harmonic u_a(r, theta) = r^a P_a(cos theta) satisfies the
homogeneous oblique condition beta0 . Du = 0 on the lateral boundary exactly
when the boundary mismatch

    B(theta0, a, s) = cos(s) U1(theta0, a) + sin(s) U2(theta0, a)

vanishes, where U1, U2 are the angular factors of the two Cartesian gradient
components.  B(theta0, 0, s) = 0 always; a root in (0, 1) yields a Hoelder
but not C^1 solution, and its existence is governed by the slope
V(theta0, s) = dB/da at a = 0 and the endpoint value B(theta0, 1, s) = cos s.
This module evaluates these functions, root-finds critical exponents and
critical oblique angles, and classifies the regularity regime of a given
(theta0, s) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import hyp2f1

from .errors import BracketError, DomainError
from .geometry import THETA0_MAX, ConeGeometry, ObliqueBC
from .legendre import (
    legendre_dp1_dz,
    legendre_dp_dz,
    legendre_p,
    legendre_p1,
    legendre_p_many,
)

#: Lower edge of the exponent search window; excludes the trivial root a = 0.
ALPHA_MIN = 1e-3

#: Number of sign-scan points on the exponent search window.
SCAN_POINTS = 2000

#: Bisection interval-width target for exponent roots.
ROOT_XTOL = 1e-12

#: |W(theta0, 1)| at or below this counts as the endpoint root a = 1.
NEUMANN_ENDPOINT_TOL = 1e-12

#: Polar angle below which the profile derivative comes from the
#: hypergeometric forms of P_a and P^1_a, at argument sin^2(theta/2) <= 0.23.
M1_AXIS_CUTOFF = 1.0

# Regime labels
REGULAR_BARRIER = "REGULAR_BARRIER"
IRREGULAR = "IRREGULAR"
AXIS_CONTINUOUS = "AXIS_CONTINUOUS"
UNKNOWN = "UNKNOWN"


def _check_theta_alpha(theta: float, alpha: float) -> None:
    if not (0.0 < theta < THETA0_MAX):
        raise DomainError(f"polar angle must lie in (0, {THETA0_MAX:.4f}), got {theta}")
    if not (0.0 <= alpha <= 2.0):
        raise DomainError(f"degree must lie in [0, 2], got {alpha}")


def _angular_factors(theta: float, alpha, p=legendre_p):
    """(U1, U2) at polar angle theta from P_a and P_{a+1} at cos theta.

    `alpha` is a float with p = legendre_p, or an array of degrees with
    p = legendre_p_many; the formulas are the same for both.
    """
    z, st = math.cos(theta), math.sin(theta)
    p0, p1 = p(alpha, z), p(alpha + 1.0, z)
    f1 = (2.0 * alpha + 1.0) * z * p0 - (alpha + 1.0) * p1
    f2 = st * (alpha - (alpha + 1.0) * z * z / (st * st)) * p0 + (alpha + 1.0) * (
        z / st
    ) * p1
    return f1, f2


def u1(theta: float, alpha: float) -> float:
    """Angular factor of d(u_a)/dy1: (2a+1) cos t P_a(cos t) - (a+1) P_{a+1}(cos t)."""
    _check_theta_alpha(theta, alpha)
    return _angular_factors(theta, alpha)[0]


def u2(theta: float, alpha: float) -> float:
    """Angular factor of d(u_a)/dy2.

    sin t (a - (a+1) cos^2 t / sin^2 t) P_a(cos t) + (a+1) (cos t / sin t) P_{a+1}(cos t).
    """
    _check_theta_alpha(theta, alpha)
    return _angular_factors(theta, alpha)[1]


def _mismatch(geom: ConeGeometry, s: float, alpha, p=legendre_p):
    f1, f2 = _angular_factors(geom.theta0, alpha, p)
    return math.cos(s) * f1 + math.sin(s) * f2


def boundary_mismatch(geom: ConeGeometry, alpha: float, s: float) -> float:
    """B(theta0, a, s) = cos(s) U1 + sin(s) U2 at the lateral boundary.

    Zero means u_a satisfies beta0 . Du = 0 on the cone edge.
    """
    _check_theta_alpha(geom.theta0, alpha)
    return _mismatch(geom, s, alpha)


def _mismatch_profile(geom: ConeGeometry, s: float, alphas: np.ndarray) -> np.ndarray:
    """Vectorized B(theta0, ., s) over an array of degrees."""
    return _mismatch(geom, s, np.asarray(alphas, dtype=float), legendre_p_many)


def slope_at_zero(geom: ConeGeometry, s: float) -> float:
    """Closed form of dB/da at a = 0:  V(theta0, s) = cos s + sin s (1 - cos theta0)/sin theta0."""
    lo, hi = geom.admissible_s_interval()
    if not (lo <= s <= hi):
        raise DomainError(f"oblique angle {s} outside [{lo:.6f}, {hi:.6f}]")
    return math.cos(s) + math.sin(s) * (1.0 - geom.z0) / math.sin(geom.theta0)


def critical_angle_s0(geom: ConeGeometry) -> float:
    """The unique root s0 of V(theta0, .) on the admissible interval.

    V(theta0, s) = cos s + sin s tan(theta0/2), so s0 = (theta0 - pi)/2.
    """
    return 0.5 * (geom.theta0 - math.pi)


def _bracketed_roots(f, grid: np.ndarray, values: np.ndarray, xtol: float) -> list[float]:
    """Every root of f that the sampled values locate on the grid, ascending.

    A node with values == 0 is a root as it stands; a strict sign change
    between neighbouring nodes is bisected on f to width xtol.  A zero node
    next to a nonzero one is not a sign change, so no root is counted twice.
    """
    zeros = np.flatnonzero(values == 0.0)
    changes = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    roots: list[float] = []
    for i in np.union1d(zeros, changes):
        lo = float(grid[i])
        if values[i] == 0.0:
            roots.append(lo)
            continue
        hi, flo = float(grid[i + 1]), values[i]
        while hi - lo > xtol:
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return roots


def critical_exponent_scan(
    geom: ConeGeometry, bc: ObliqueBC
) -> tuple[Optional[float], int]:
    """Smallest root of B(theta0, ., s) on (ALPHA_MIN, 1] plus the sign-change count.

    Returns (None, 0) when the scan finds no sign change; the trivial root at
    a = 0 is excluded by ALPHA_MIN.
    """
    alphas = np.linspace(ALPHA_MIN, 1.0, SCAN_POINTS)
    roots = _bracketed_roots(
        lambda a: boundary_mismatch(geom, a, bc.s),
        alphas,
        _mismatch_profile(geom, bc.s, alphas),
        ROOT_XTOL,
    )
    if not roots:
        return None, 0
    return roots[0], len(roots)


def critical_exponent(geom: ConeGeometry, bc: ObliqueBC) -> Optional[float]:
    """Smallest exponent a in the search window (ALPHA_MIN, 1] with B(theta0, a, s) = 0.

    Returns None when the scan finds no sign change there.  A root in
    (0, ALPHA_MIN], which occurs for s close to s0, is not searched for and
    also gives None.
    """
    root, _ = critical_exponent_scan(geom, bc)
    return root


def neumann_mismatch(geom: ConeGeometry, alpha: float) -> float:
    """W(theta0, a) = (P^1_a)'(cos theta0), from `legendre_dp1_dz`.

    Zero means the first non-axisymmetric separable mode satisfies the
    homogeneous Neumann condition on the lateral boundary.
    """
    if not (0.0 <= alpha <= 1.0 + 1e-12):
        raise DomainError(f"degree must lie in [0, 1], got {alpha}")
    return legendre_dp1_dz(alpha, geom.z0)


def neumann_exponent(geom: ConeGeometry) -> float:
    """Smallest root of W(theta0, .) in (ALPHA_MIN, 1].

    The slope of W at a = 0 is positive; for theta0 >= pi/2 the endpoint
    value W(theta0, 1) = cot theta0 <= 0 guarantees a sign change.  An exact
    endpoint root at a = 1 (half-space Neumann) is accepted within
    NEUMANN_ENDPOINT_TOL.  For theta0 < pi/2 a root is not guaranteed;
    BracketError is raised when the scan finds no sign change.
    """
    alphas = np.linspace(ALPHA_MIN, 1.0, SCAN_POINTS)
    profile = legendre_dp1_dz(alphas, geom.z0)
    roots = _bracketed_roots(
        lambda a: neumann_mismatch(geom, a), alphas, profile, ROOT_XTOL
    )
    if roots:
        return roots[0]
    if abs(profile[-1]) <= NEUMANN_ENDPOINT_TOL:
        return 1.0
    raise BracketError(
        f"no sign change of the Neumann mismatch on ({ALPHA_MIN}, 1] for "
        f"theta0 = {geom.theta0}"
    )


@dataclass(frozen=True)
class SeparableSolution:
    """Separable harmonic r^a P^m_a(cos theta) (times an azimuthal factor for m=1).

    For m = 0 the solution is axisymmetric; for m = 1 the azimuthal factor is
    C sin(phi) + D cos(phi).  alpha in (0, 1] keeps the solution continuous
    and non-C^1 at the vertex.
    """

    alpha: float
    m: int = 0
    c: float = 0.0
    d: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"degree must lie in (0, 1], got {self.alpha}")
        if self.m not in (0, 1):
            raise DomainError(f"azimuthal mode must be 0 or 1, got {self.m}")

    def azimuthal(self, phi: float) -> float:
        if self.m == 0:
            return 1.0
        return self.c * math.sin(phi) + self.d * math.cos(phi)

    def profile(self, theta: float) -> float:
        """Angular profile P^m_a(cos theta)."""
        z = math.cos(theta)
        if self.m == 0:
            return legendre_p(self.alpha, z)
        return legendre_p1(self.alpha, z)

    def profile_deriv(self, theta: float) -> float:
        """d/dtheta of the profile, -sin(theta) (P^m_a)'(cos theta).

        The identities of `legendre_dp_dz` and `legendre_dp1_dz` cancel as
        cos(theta) -> 1, so below M1_AXIS_CUTOFF the derivative comes from
        the hypergeometric forms P_a'(cos t) = a(a+1)/2 F(1-a, a+2; 2; x) and
        P^1_a(cos t) = -sin(t) a(a+1)/2 F(1-a, a+2; 2; x), x = sin^2(t/2).
        """
        a = self.alpha
        if theta < M1_AXIS_CUTOFF:
            x = math.sin(0.5 * theta) ** 2
            st = math.sin(theta)
            if self.m == 0:
                return -0.5 * a * (a + 1.0) * st * float(hyp2f1(1.0 - a, a + 2.0, 2.0, x))
            return -0.5 * a * (a + 1.0) * float(
                math.cos(theta) * hyp2f1(1.0 - a, a + 2.0, 2.0, x)
                + 0.25 * st * st * (1.0 - a) * (a + 2.0) * hyp2f1(2.0 - a, a + 3.0, 3.0, x)
            )
        z = math.cos(theta)
        dz = legendre_dp_dz if self.m == 0 else legendre_dp1_dz
        return -math.sin(theta) * dz(a, z)

    def profile_array(self, thetas: np.ndarray) -> np.ndarray:
        return np.array([self.profile(float(t)) for t in np.asarray(thetas)])


def separable_eval(
    sol: SeparableSolution, point: tuple[float, float, float] | tuple[float, float]
) -> tuple[float, tuple[float, float]]:
    """Value and (y1, y2)-gradient of the separable solution at (r, theta[, phi]).

    With F the profile, the gradient is the in-plane polar formula
    r^(a-1) (a cos t F - sin t F', a sin t F + cos t F'), scaled by the
    azimuthal factor.  For m = 0 it is r^(a-1) (U1(t, a), U2(t, a)); on the
    axis F' takes its limit from `SeparableSolution.profile_deriv`.
    """
    r, theta = float(point[0]), float(point[1])
    phi = float(point[2]) if len(point) > 2 else 0.0
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    if not (0.0 <= theta < THETA0_MAX):
        raise DomainError(f"polar angle must lie in [0, {THETA0_MAX:.4f}), got {theta}")
    a = sol.alpha
    az = sol.azimuthal(phi)
    f, fp = sol.profile(theta), sol.profile_deriv(theta)
    ct, st = math.cos(theta), math.sin(theta)
    return r ** a * f * az, (
        r ** (a - 1.0) * (a * ct * f - st * fp) * az,
        r ** (a - 1.0) * (a * st * f + ct * fp) * az,
    )


@dataclass(frozen=True, slots=True)
class RegimeReport:
    """Classification of a (theta0, s) pair with its numeric witnesses.

    `mismatch_at_root` is B(theta0, a, s) at the critical exponent, None
    when there is no root.
    """

    label: str
    critical_exponent: Optional[float]
    s0: float
    slope: float
    cos_s_sin_s: float
    sign_changes: int
    mismatch_at_root: Optional[float]

    @property
    def witnesses(self) -> tuple[tuple[str, float, float], ...]:
        """(name, value, tolerance) triples, in a fixed order."""
        found = (
            ("slope_at_zero", self.slope, 0.0),
            ("critical_angle_s0", self.s0, 1e-10),
            ("cos_s_sin_s", self.cos_s_sin_s, 0.0),
            ("sign_change_count", float(self.sign_changes), 0.0),
        )
        if self.critical_exponent is None:
            return found
        return found + (
            ("critical_exponent", self.critical_exponent, ROOT_XTOL),
            ("boundary_mismatch_at_root", self.mismatch_at_root, 1e-10),
        )

    def witness(self, name: str) -> Optional[float]:
        for wname, value, _tol in self.witnesses:
            if wname == name:
                return value
        return None


def classify_regime(geom: ConeGeometry, bc: ObliqueBC) -> RegimeReport:
    """Classify the regularity regime of (theta0, s).

    IRREGULAR when a critical exponent exists (attached); REGULAR_BARRIER
    when cos(s) sin(s) > 0 and no root is found; AXIS_CONTINUOUS exactly at
    s = 0; UNKNOWN otherwise.  A root together with cos(s) sin(s) > 0 is a
    numerical inconsistency and yields UNKNOWN with both witnesses attached.
    """
    root, count = critical_exponent_scan(geom, bc)
    s0 = critical_angle_s0(geom)
    slope = slope_at_zero(geom, bc.s)
    cs = math.cos(bc.s) * math.sin(bc.s)
    barrier_regime = cs > 0.0
    if root is not None and barrier_regime:
        label = UNKNOWN
    elif root is not None:
        label = IRREGULAR
    elif barrier_regime:
        label = REGULAR_BARRIER
    elif bc.s == 0.0:
        label = AXIS_CONTINUOUS
    else:
        label = UNKNOWN
    return RegimeReport(
        label=label,
        critical_exponent=root,
        s0=s0,
        slope=slope,
        cos_s_sin_s=cs,
        sign_changes=count,
        mismatch_at_root=None if root is None else boundary_mismatch(geom, root, bc.s),
    )
