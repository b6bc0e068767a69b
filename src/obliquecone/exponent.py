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
critical oblique angles, and classifies the regularity regime of the
(theta0, s) pairs of a theta0 row from one profile of U1 and U2.  U1, U2, B
and the Neumann mismatch W take a float or an ndarray of degrees; an ndarray
gives the scalar loop's values bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import BracketError, DomainError, check_each, integer_choice, real_number
from .geometry import THETA0_MIN, ConeGeometry, ObliqueBC, check_polar_angle
from .grids import SectorGrid
from .legendre import (
    _dp1_dz_identity, _dp_dz_identity, _dtheta_near_axis, _libm, _p1_identity, legendre_dp1_dz,
    legendre_p, legendre_p1,
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


def _check_degree(alpha, hi: float) -> None:
    """DomainError unless 0 <= alpha <= hi, at a degree or each of an ndarray."""
    if isinstance(alpha, np.ndarray):
        check_each(lambda a: _check_degree(a, hi), alpha, "degree")
    elif not (0.0 <= real_number(alpha, "degree") <= hi):
        raise DomainError(f"degree must lie in [0, {hi:g}], got {alpha}")


def _angular_factors(theta: float, alpha):
    """(U1, U2) at polar angle theta from P_a and P_{a+1} at cos theta.

    `alpha` is a float or an array of degrees, as for `legendre_p`.
    """
    z, st = math.cos(theta), math.sin(theta)
    p0, p1 = legendre_p(alpha, z), legendre_p(alpha + 1.0, z)
    f1 = (2.0 * alpha + 1.0) * z * p0 - (alpha + 1.0) * p1
    f2 = st * (alpha - (alpha + 1.0) * z * z / (st * st)) * p0 + (alpha + 1.0) * (
        z / st
    ) * p1
    return f1, f2


def u1(theta: float, alpha):
    """Angular factor of d(u_a)/dy1: (2a+1) cos t P_a(cos t) - (a+1) P_{a+1}(cos t)."""
    check_polar_angle(real_number(theta, "polar angle"), "polar angle", THETA0_MIN)
    _check_degree(alpha, 2.0)
    return _angular_factors(theta, alpha)[0]


def u2(theta: float, alpha):
    """Angular factor of d(u_a)/dy2.

    sin t (a - (a+1) cos^2 t / sin^2 t) P_a(cos t) + (a+1) (cos t / sin t) P_{a+1}(cos t).
    """
    check_polar_angle(real_number(theta, "polar angle"), "polar angle", THETA0_MIN)
    _check_degree(alpha, 2.0)
    return _angular_factors(theta, alpha)[1]


def _check_oblique_angle(geom: ConeGeometry, s: float) -> None:
    lo, hi = geom.admissible_s_interval()
    if not (lo <= real_number(s, "oblique angle") <= hi):
        raise DomainError(f"oblique angle {s} outside [{lo:.6f}, {hi:.6f}]")


def _combine(s: float, f1, f2):
    """B(theta0, ., s) = cos(s) U1 + sin(s) U2 from a cone's factors (U1, U2),
    the one place that writes B: U1 and U2 do not depend on s."""
    return math.cos(s) * f1 + math.sin(s) * f2


def _mismatch(geom: ConeGeometry, s: float, alpha):
    """B(theta0, ., s) at a float or an array of degrees, arguments unchecked."""
    return _combine(s, *_angular_factors(geom.theta0, alpha))


def boundary_mismatch(geom: ConeGeometry, alpha, s: float):
    """B(theta0, a, s) = cos(s) U1 + sin(s) U2 at the lateral boundary.

    Zero means u_a satisfies beta0 . Du = 0 on the cone edge.  s must lie
    in the closed admissible interval, as for `slope_at_zero`.
    """
    _check_degree(alpha, 2.0)
    _check_oblique_angle(geom, s)
    return _mismatch(geom, s, alpha)


def slope_at_zero(geom: ConeGeometry, s: float) -> float:
    """Closed form of dB/da at a = 0:  V(theta0, s) = cos s + sin s (1 - cos theta0)/sin theta0."""
    _check_oblique_angle(geom, s)
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
    report = classify_regime(geom, bc)
    return report.critical_exponent, report.sign_changes


def critical_exponent(geom: ConeGeometry, bc: ObliqueBC) -> Optional[float]:
    """Smallest exponent a in the search window (ALPHA_MIN, 1] with B(theta0, a, s) = 0.

    Returns None when the scan finds no sign change there.  A root in
    (0, ALPHA_MIN], which occurs for s close to s0, is not searched for and
    also gives None.
    """
    return classify_regime(geom, bc).critical_exponent


def neumann_mismatch(geom: ConeGeometry, alpha):
    """W(theta0, a) = (P^1_a)'(cos theta0), from `legendre_dp1_dz`.

    Zero means the first non-axisymmetric separable mode satisfies the
    homogeneous Neumann condition on the lateral boundary.
    """
    _check_degree(alpha, 1.0 + 1e-12)
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
    mismatch = partial(legendre_dp1_dz, z=geom.z0)
    profile = mismatch(alphas)
    roots = _bracketed_roots(mismatch, alphas, profile, ROOT_XTOL)
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
    """Separable harmonic r^a P^m_a(cos theta) cos(m phi) in the meridional
    plane phi = 0: axisymmetric for m = 0, r^a P^1_a(cos t) for m = 1.

    alpha in (0, 1] keeps the solution continuous and non-C^1 at the vertex.
    """

    alpha: float
    m: int = 0

    def __post_init__(self) -> None:
        # a Python float degree, the hot case, skips the type rule's call
        if type(self.alpha) is not float:
            real_number(self.alpha, "degree")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"degree must lie in (0, 1], got {self.alpha}")
        object.__setattr__(self, "m", integer_choice(self.m, 1, "azimuthal mode"))

    def profile(self, theta):
        """Angular profile P^m_a(cos theta) at an angle or an ndarray of angles.

        An ndarray of angles goes through the kernel as one array and equals
        the scalar loop bit for bit.  Angles outside [0, THETA0_MAX) raise
        DomainError.
        """
        check_polar_angle(theta, "polar angle", 0.0)
        # a Python float angle, the hot case, skips _libm's ndarray test
        z = math.cos(theta) if type(theta) is float else _libm(math.cos, theta)
        if self.m == 0:
            return legendre_p(self.alpha, z)
        return legendre_p1(self.alpha, z)

    def field(self, grid: SectorGrid) -> np.ndarray:
        """Nodal values, shape (n_r, n_theta), each the scalar r ** a * profile(theta)
        bit for bit: the radial powers go through libm like the profile's cosines."""
        a = self.alpha
        return np.outer(_libm(lambda r: r ** a, grid.r), self.profile(grid.theta))

    def profile_deriv(self, theta):
        """d/dtheta of the profile, -sin(theta) (P^m_a)'(cos theta).

        `theta` is an angle or an ndarray of angles.  Below M1_AXIS_CUTOFF the
        derivative comes from the hypergeometric forms of `legendre`'s
        `_dtheta_near_axis`, where the z-derivative identities cancel.  Angles
        outside [0, THETA0_MAX) raise DomainError.
        """
        check_polar_angle(theta, "polar angle", 0.0)
        return self._profile_and_deriv(theta)[1]

    def _profile_and_deriv(self, theta):
        """F and F' at an unchecked angle or ndarray of angles, from one cosine
        and one P_a per angle, and one P_{a+1} where either needs it.

        Off the axis F' is the identity of `legendre_dp_dz` (m = 0) or
        `legendre_dp1_dz` (m = 1) on P_a and P_{a+1}.  For m = 0, F is P_a
        itself; for m = 1, F = P^1_a is `legendre_p1`'s -(1-z^2)^(1/2) P_a'
        from the same pair, and 0 where z = 1.  Each equals `profile` and
        `profile_deriv` bit for bit."""
        a, m = self.alpha, self.m
        z = _libm(math.cos, theta)
        p = legendre_p(a, z)
        identity = _dp_dz_identity if m == 0 else _dp1_dz_identity
        if not isinstance(theta, np.ndarray):
            near = theta < M1_AXIS_CUTOFF
            p1 = None if z == 1.0 or near and m == 0 else legendre_p(a + 1.0, z)
            f = p
            if m == 1:
                f = 0.0 if p1 is None else _p1_identity(a, z, p, p1)
            if near:
                return f, float(_dtheta_near_axis(a, m, theta))
            return f, -math.sin(theta) * identity(a, z, p, p1)
        near = theta < M1_AXIS_CUTOFF
        off = ~near
        # off the axis z < cos(1), so the m = 1 pairs cover the off-axis ones
        pair = off if m == 0 else z != 1.0
        p1 = np.empty(theta.shape)
        p1[pair] = legendre_p(a + 1.0, z[pair])
        deriv = np.empty(theta.shape)
        deriv[near] = _dtheta_near_axis(a, m, theta[near])
        z_off = z[off]
        deriv[off] = -_libm(math.sin, theta[off]) * identity(a, z_off, p[off], p1[off])
        if m == 0:
            return p, deriv
        f = np.zeros(theta.shape)
        z_in = z[pair]
        f[pair] = _p1_identity(a, z_in, p[pair], p1[pair])
        return f, deriv


def separable_eval(
    sol: SeparableSolution, point: tuple[float, float]
) -> tuple[float, tuple[float, float]]:
    """Value and (y1, y2)-gradient of the separable solution at (r, theta),
    a point of the meridional plane phi = 0.

    With F the profile, the gradient is the in-plane polar formula
    r^(a-1) (a cos t F - sin t F', a sin t F + cos t F').  For m = 0 it is
    r^(a-1) (U1(t, a), U2(t, a)); on the axis F' takes its limit from
    `SeparableSolution.profile_deriv`.  F and F' come from one pass over
    P_a and P_{a+1}, each equal to `profile` and `profile_deriv` bit for bit.
    point is two real numbers
    (`errors.real_number`); anything else raises DomainError.
    """
    try:
        n = len(point)
    except TypeError:  # None, or one number
        n = 0
    if n != 2:
        raise DomainError(f"point must be (r, theta), got {n} components")
    r, theta = real_number(point[0], "radius"), real_number(point[1], "polar angle")
    # below the smallest normal float, r ** (a - 1) overflows
    if not (sys.float_info.min <= r < math.inf):
        raise DomainError(f"radius must be a normal positive finite float, got {r}")
    check_polar_angle(theta, "polar angle", 0.0)
    a = sol.alpha
    f, fp = sol._profile_and_deriv(theta)
    ct, st = math.cos(theta), math.sin(theta)
    return r ** a * f, (
        r ** (a - 1.0) * (a * ct * f - st * fp),
        r ** (a - 1.0) * (a * st * f + ct * fp),
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


def classify_many(geom: ConeGeometry, bcs: Sequence[ObliqueBC]) -> list[RegimeReport]:
    """Classify the regularity regime of (theta0, s) for each BC of one cone.

    U1 and U2 do not depend on s: the profile on the scan window (ALPHA_MIN, 1]
    is computed once, and each s takes cos(s) U1 + sin(s) U2 from it through
    `_combine`, as `_mismatch` does, on which its roots are then bisected.
    IRREGULAR when a critical exponent exists (attached); REGULAR_BARRIER
    when cos(s) sin(s) > 0 and no root is found; AXIS_CONTINUOUS exactly at
    s = 0; UNKNOWN otherwise.  A root together with cos(s) sin(s) > 0 is a
    numerical inconsistency and yields UNKNOWN with both witnesses attached.
    """
    for bc in bcs:
        if bc.theta0 != geom.theta0:
            raise DomainError(f"bc built for theta0 = {bc.theta0}, cone has {geom.theta0}")
    alphas = np.linspace(ALPHA_MIN, 1.0, SCAN_POINTS)
    f1, f2 = _angular_factors(geom.theta0, alphas)
    reports = []
    for bc in bcs:
        mismatch = partial(_mismatch, geom, bc.s)
        cos_s, sin_s = math.cos(bc.s), math.sin(bc.s)
        roots = _bracketed_roots(mismatch, alphas, _combine(bc.s, f1, f2), ROOT_XTOL)
        root = roots[0] if roots else None
        barrier_regime = cos_s * sin_s > 0.0
        if root is not None:
            label = UNKNOWN if barrier_regime else IRREGULAR
        elif barrier_regime:
            label = REGULAR_BARRIER
        else:
            label = AXIS_CONTINUOUS if bc.s == 0.0 else UNKNOWN
        reports.append(RegimeReport(
            label=label, critical_exponent=root, s0=critical_angle_s0(geom),
            slope=slope_at_zero(geom, bc.s), cos_s_sin_s=cos_s * sin_s,
            sign_changes=len(roots),
            mismatch_at_root=None if root is None else mismatch(root),
        ))
    return reports


def classify_regime(geom: ConeGeometry, bc: ObliqueBC) -> RegimeReport:
    """Classify the regularity regime of one (theta0, s): a row of one."""
    return classify_many(geom, (bc,))[0]
