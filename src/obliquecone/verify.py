"""Self-contained invariant suites behind the `verify` CLI command.

Each suite re-derives its expected values independently of the code path it
checks (quadrature oracles, finite differences, closed forms), prints
nothing itself, and reports one CheckResult per invariant.

A run computes each production result that several of its checks need once,
the first time one of them asks for it, and hands it to the others: the
regime reports of each cone's row of EXPONENT_CELLS, the Neumann exponents
and the barriers certified at BARRIER_DEGREE.  The oracles those results are
compared with stay independent of them, and the classification check still
classifies one cell on its own to test determinism.  Nothing is kept between
runs, so every `run_suite` call pays for the results it shares.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from . import barrier as bar
from . import exponent as exp_mod
from . import holder as hold
from . import solver as sol_mod
from .errors import ObliqueConeError
from .geometry import ConeGeometry, ObliqueBC, reduce_to_axisymmetric
from .grids import SectorGrid
from .legendre import (
    legendre_dp_dalpha,
    legendre_dp_dz,
    legendre_p,
    legendre_p1,
    legendre_p_quadrature,
)


@dataclass(frozen=True, slots=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(suite: str, name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except ObliqueConeError as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(
        suite=suite,
        name=name,
        passed=passed,
        detail=detail,
        seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

#: Rows of theta0 and columns of s in `admissible_grid`.
ADMISSIBLE_GRID_SIZE = 20

#: Central-difference step of the Cartesian FD oracles, relative to r.
FD_STEP_SCALE = 1e-5

#: Central-difference step of `m1_by_directional_differences` at r = 1.
M1_FD_STEP = 1e-6


def admissible_grid() -> list[tuple[float, float]]:
    """(theta0, s) grid spanning the validated admissible region."""
    pairs = []
    for theta0 in np.linspace(0.25, 2.7, ADMISSIBLE_GRID_SIZE):
        lo, hi = ConeGeometry(theta0=float(theta0)).admissible_s_interval()
        for t in np.linspace(0.05, 0.95, ADMISSIBLE_GRID_SIZE):
            pairs.append((float(theta0), float(lo + t * (hi - lo))))
    return pairs


def _rows(pairs) -> dict[float, list[float]]:
    """The oblique angles s of each theta0 in (theta0, s) pairs, so that each
    cone's quantities are computed once for its row."""
    rows: dict[float, list[float]] = {}
    for theta0, s in pairs:
        rows.setdefault(theta0, []).append(s)
    return rows


def _grids(theta0: float, m: int = 0) -> list[SectorGrid]:
    """The refinement study's square grids on [0.25, 1] x [0, theta0]."""
    return [
        SectorGrid(r_min=0.25, r_max=1.0, n_r=n, n_theta=n, theta0=theta0, m=m)
        for n in (25, 49, 97)
    ]


# The Cartesian finite-difference oracle: separable, central_difference, the
# boundary residuals and m1_by_directional_differences.  It is the only one in
# the repository; the tests import it instead of keeping copies.


def separable(p, alpha: float):
    """(y1, y2) -> r^a p(a, y1 / r) in Cartesian coordinates of the plane."""

    def u(y1: float, y2: float) -> float:
        r = math.hypot(y1, y2)
        return r ** alpha * p(alpha, y1 / r)

    return u


def central_difference(u, y1: float, y2: float, d1: float, d2: float, h: float) -> float:
    """Central difference of u at (y1, y2) along the direction (d1, d2), step h."""
    return (u(y1 + h * d1, y2 + h * d2) - u(y1 - h * d1, y2 - h * d2)) / (2.0 * h)


def fd_boundary_residual(
    p, geom: ConeGeometry, direction, alpha: float, radii
) -> float:
    """max over radii of |direction . D u| / r^(a-1) at the lateral boundary
    for u = r^a p(a, cos t), with central differences of step FD_STEP_SCALE * r
    along the Cartesian axes."""
    u = separable(p, alpha)
    d1, d2 = direction
    worst = 0.0
    for r in radii:
        y1, y2 = r * math.cos(geom.theta0), r * math.sin(geom.theta0)
        h = FD_STEP_SCALE * r
        g1 = central_difference(u, y1, y2, 1.0, 0.0, h)
        g2 = central_difference(u, y1, y2, 0.0, 1.0, h)
        worst = max(worst, abs(d1 * g1 + d2 * g2) / r ** (alpha - 1.0))
    return worst


def fd_oblique_residual(geom: ConeGeometry, s: float, alpha: float, radii) -> float:
    """max over radii of |beta0 . D u_a| / r^(a-1) at the lateral boundary,
    with central finite differences of u_a in Cartesian coordinates."""
    beta0 = (math.cos(s), math.sin(s))
    return fd_boundary_residual(legendre_p, geom, beta0, alpha, radii)


def fd_neumann_residual(geom: ConeGeometry, alpha: float, radii) -> float:
    """max |nu . D profile| / r^(a-1) for the m = 1 mode r^a P^1_a(cos t)."""
    nu = (math.sin(geom.theta0), -math.cos(geom.theta0))
    return fd_boundary_residual(legendre_p1, geom, nu, alpha, radii)


def m1_by_directional_differences(
    b: bar.MillerBarrier, bc: ObliqueBC, rc: bar.RotatedCoefficients
) -> float:
    """Untilted operator applied to the barrier at r = 1 by central differences
    of step M1_FD_STEP along beta0 and tau."""
    b1, b2 = bc.beta0
    n1, _ = bc.nu
    t1, t2 = bc.tau
    y1 = math.cos(bc.theta0)
    y2 = math.sin(bc.theta0)
    v = separable(legendre_p, b.alpha)
    beta_deriv = central_difference(v, y1, y2, b1, b2, M1_FD_STEP)
    tau_deriv = central_difference(v, y1, y2, t1, t2, M1_FD_STEP)
    return (
        beta_deriv
        + (n1 / b2) * (rc.a22 / rc.a11) * tau_deriv
        - (1.0 / bc.obliqueness) * (n1 / rc.a11) * (b1 / b2) * rc.b21 / y2 * v(y1, y2)
    )


#: Branches of (theta0, s) where a critical exponent is guaranteed.
GUARANTEED_IRREGULAR = (
    (2.0 * math.pi / 3.0, 1.8),
    (2.0 * math.pi / 3.0, -0.8),
    (3.0 * math.pi / 4.0, -0.6),
    (math.pi / 3.0, -1.3),
    (math.pi / 4.0, -1.35),
)

#: (theta0, s) pairs in the barrier regime cos(s) sin(s) > 0.
BARRIER_REGIME_PAIRS = (
    (math.pi / 3.0, 0.6),
    (2.0 * math.pi / 3.0, 0.7),
    (2.0 * math.pi / 3.0, 1.3),
    (3.0 * math.pi / 4.0, 0.5),
    (1.2, -1.8),
)

#: (theta0, s, label) cases whose labels the classification check pins.
LABELLED_CASES = (
    (2.0 * math.pi / 3.0, 1.8, exp_mod.IRREGULAR),
    (math.pi / 3.0, 0.6, exp_mod.REGULAR_BARRIER),
    (math.pi / 3.0, 0.0, exp_mod.AXIS_CONTINUOUS),
    (2.0 * math.pi / 3.0, -0.3, exp_mod.UNKNOWN),
)

#: The (theta0, s) cells whose critical modes the solver suite solves with:
#: the oblique comparison minimum and the oblique error-order study.
COMPARISON_CELL = (math.pi / 3.0, -1.3)
SOLVE_ORDER_CELL = (2.0 * math.pi / 3.0, 1.8)

#: The oblique angles s of each theta0 whose regime reports the checks read:
#: 12 cells on 5 cones, each cone's row classified by one `classify_many` call.
EXPONENT_CELLS = _rows(dict.fromkeys(
    GUARANTEED_IRREGULAR
    + BARRIER_REGIME_PAIRS
    + tuple((theta0, s) for theta0, s, _ in LABELLED_CASES)
    + (COMPARISON_CELL, SOLVE_ORDER_CELL)
))

#: Degree of the barriers the invariant and tilt checks certify and share.
BARRIER_DEGREE = 0.05


def _classified_row(theta0: float) -> dict[float, exp_mod.RegimeReport]:
    """The report of each s of theta0's EXPONENT_CELLS row, from one
    `classify_many` call."""
    geom = ConeGeometry(theta0=theta0)
    ss = EXPONENT_CELLS[theta0]
    return dict(zip(ss, exp_mod.classify_many(geom, [ObliqueBC.for_cone(geom, s) for s in ss])))


class SharedResults:
    """Production results that several checks of one `run_suite` call read.

    Each is computed the first time a check of the run asks for it, and the
    object, made afresh by every run, drops them all with the run.  A result
    whose computation raises is not kept, so the next check asks again.
    """

    def __init__(self) -> None:
        self._row = cache(_classified_row)
        self.neumann_exponent = cache(
            lambda theta0: exp_mod.neumann_exponent(ConeGeometry(theta0=theta0))
        )
        self.barrier = cache(
            lambda theta0: bar.build_barrier(ConeGeometry(theta0=theta0), BARRIER_DEGREE)
        )

    def report(self, theta0: float, s: float) -> exp_mod.RegimeReport:
        """The regime report of an EXPONENT_CELLS cell."""
        return self._row(theta0)[s]


# ---------------------------------------------------------------------------
# special suite
# ---------------------------------------------------------------------------

def _check_value_at_one(shared: SharedResults) -> tuple[bool, str]:
    worst = max(abs(legendre_p(a, 1.0) - 1.0) for a in np.linspace(0.0, 3.0, 50))
    return worst <= 1e-12, f"max |P_a(1) - 1| = {worst:.3e}"


def _check_integer_degrees(shared: SharedResults) -> tuple[bool, str]:
    polys = {
        0.0: lambda z: 1.0,
        1.0: lambda z: z,
        2.0: lambda z: 0.5 * (3.0 * z * z - 1.0),
        3.0: lambda z: 0.5 * (5.0 * z ** 3 - 3.0 * z),
    }
    worst = 0.0
    for a, poly in polys.items():
        for z in np.linspace(-0.9, 1.0, 41):
            worst = max(worst, abs(legendre_p(a, float(z)) - poly(float(z))))
    return worst <= 1e-12, f"max deviation from explicit polynomials = {worst:.3e}"


def _check_recurrence(shared: SharedResults) -> tuple[bool, str]:
    worst = 0.0
    for a in np.linspace(0.1, 2.0, 20):
        for z in np.linspace(-0.9, 1.0, 21):
            a, z = float(a), float(z)
            res = (
                (a + 1.0) * legendre_p(a + 1.0, z)
                - (2.0 * a + 1.0) * z * legendre_p(a, z)
                + a * legendre_p(a - 1.0, z)
            )
            worst = max(worst, abs(res))
    return worst <= 1e-10, f"max three-term recurrence residual = {worst:.3e}"


def _check_dz_identity(shared: SharedResults) -> tuple[bool, str]:
    worst = 0.0
    for a in (0.3, 0.5, 1.2, 1.7):
        for z in (-0.8, -0.2, 0.3, 0.7, 0.95):
            h = 1e-5
            coarse = (legendre_p(a, z + h) - legendre_p(a, z - h)) / (2.0 * h)
            fine = (legendre_p(a, z + h / 2) - legendre_p(a, z - h / 2)) / h
            richardson = (4.0 * fine - coarse) / 3.0
            exact = legendre_dp_dz(a, z)
            worst = max(worst, abs(exact - richardson) / max(abs(exact), 1.0))
    return worst <= 1e-8, f"max relative gap identity vs Richardson = {worst:.3e}"


def _check_quadrature(shared: SharedResults) -> tuple[bool, str]:
    worst = 0.0
    for a in (0.25, 0.5, 0.75):
        for z in np.linspace(-0.9, 1.0, 20):
            worst = max(
                worst, abs(legendre_p(a, float(z)) - legendre_p_quadrature(a, float(z)))
            )
    return worst <= 1e-9, f"max kernel-vs-quadrature gap = {worst:.3e}"


def _check_degree_derivative_identity(shared: SharedResults) -> tuple[bool, str]:
    # at degree 0: d/da P_{a+1} - z d/da P_a = -P_1 + 2 z P_0 - P_{-1} = z - 1
    worst = 0.0
    for z in np.linspace(-0.9, 0.9, 13):
        z = float(z)
        lhs = legendre_dp_dalpha(1.0, z) - z * legendre_dp_dalpha(0.0, z)
        worst = max(worst, abs(lhs - (z - 1.0)))
    return worst <= 1e-5, f"max degree-derivative identity residual = {worst:.3e}"


# ---------------------------------------------------------------------------
# exponent suite
# ---------------------------------------------------------------------------

def _check_endpoints(shared: SharedResults) -> tuple[bool, str]:
    worst0 = worst1 = 0.0
    for theta0, ss in _rows(admissible_grid()).items():
        f1, f2 = exp_mod._angular_factors(theta0, np.array([0.0, 1.0]))
        for s in ss:
            b0, b1 = exp_mod._combine(s, f1, f2).tolist()
            worst0 = max(worst0, abs(b0))
            worst1 = max(worst1, abs(b1 - math.cos(s)))
    ok = worst0 <= 1e-12 and worst1 <= 1e-10
    return ok, f"|B(.,0,.)| <= {worst0:.2e}, |B(.,1,.) - cos s| <= {worst1:.2e}"


def _check_slope(shared: SharedResults) -> tuple[bool, str]:
    h = 1e-5
    worst = 0.0
    for theta0, ss in _rows(admissible_grid()).items():
        geom = ConeGeometry(theta0=theta0)
        f1, f2 = exp_mod._angular_factors(theta0, np.array([h, 0.0]))
        for s in ss:
            b_h, b_0 = exp_mod._combine(s, f1, f2).tolist()
            worst = max(worst, abs((b_h - b_0) / h - exp_mod.slope_at_zero(geom, s)))
    return worst <= 1e-4, f"max |FD slope - V| = {worst:.3e}"


def _check_critical_angle(shared: SharedResults) -> tuple[bool, str]:
    # bisect V(theta0, .) from -1 at -pi + theta0 to 1 at 0
    worst = 0.0
    for theta0 in np.linspace(0.25, 2.7, 100):
        geom = ConeGeometry(theta0=float(theta0))
        slope = partial(exp_mod.slope_at_zero, geom)
        ends = np.array([geom.admissible_s_interval()[0], 0.0])
        roots = exp_mod._bracketed_roots(
            slope, ends, np.array([slope(e) for e in ends]), 1e-12
        )
        if len(roots) != 1:
            return False, f"{len(roots)} roots of V at theta0={theta0:.4f}"
        worst = max(worst, abs(exp_mod.critical_angle_s0(geom) - roots[0]))
    return worst <= 1e-10, f"max |s0 - bisected root of V| = {worst:.3e}"


def _check_guaranteed_roots(shared: SharedResults) -> tuple[bool, str]:
    radii = np.linspace(0.1, 1.0, 20)
    details = []
    for theta0, s in GUARANTEED_IRREGULAR:
        geom = ConeGeometry(theta0=theta0)
        root = shared.report(theta0, s).critical_exponent
        if root is None or not (0.0 < root < 1.0):
            return False, f"no interior root at (theta0={theta0:.4f}, s={s})"
        bval = abs(exp_mod.boundary_mismatch(geom, root, s))
        fd = fd_oblique_residual(geom, s, root, radii)
        if bval > 1e-10 or fd > 1e-6:
            return False, (
                f"(theta0={theta0:.4f}, s={s}): |B| = {bval:.2e}, FD residual = {fd:.2e}"
            )
        details.append(f"{root:.6f}")
    return True, "roots " + ", ".join(details)


def _check_no_root_in_barrier_regime(shared: SharedResults) -> tuple[bool, str]:
    for theta0, s in BARRIER_REGIME_PAIRS:
        root = shared.report(theta0, s).critical_exponent
        if root is not None:
            return False, f"unexpected root {root} at (theta0={theta0:.4f}, s={s})"
    return True, f"no sign change for {len(BARRIER_REGIME_PAIRS)} pairs"


def separable_gradient_gap(sol: exp_mod.SeparableSolution, points) -> float:
    """max over (r, theta) points of the gap between `separable_eval`'s
    gradient and central differences of its value with step 1e-6 r, relative
    to the gradient's larger component."""

    def value(y1: float, y2: float) -> float:
        return exp_mod.separable_eval(sol, (math.hypot(y1, y2), math.atan2(y2, y1)))[0]

    worst = 0.0
    for r, theta in points:
        _, grad = exp_mod.separable_eval(sol, (r, theta))
        h = 1e-6 * r
        y1, y2 = r * math.cos(theta), r * math.sin(theta)
        fd1 = central_difference(value, y1, y2, 1.0, 0.0, h)
        fd2 = central_difference(value, y1, y2, 0.0, 1.0, h)
        scale = max(abs(grad[0]), abs(grad[1]), 1e-30)
        worst = max(worst, abs(fd1 - grad[0]) / scale, abs(fd2 - grad[1]) / scale)
    return worst


def _check_gradient_consistency(shared: SharedResults) -> tuple[bool, str]:
    points = ((0.5, 0.4), (1.0, 1.0), (2.0, 1.8))
    worst = max(
        separable_gradient_gap(exp_mod.SeparableSolution(alpha=alpha, m=m), points)
        for alpha, m in ((0.5, 0), (0.85, 0), (0.85, 1))
    )
    return worst <= 1e-6, f"max relative gradient gap = {worst:.3e}"


def _check_neumann_identities(shared: SharedResults) -> tuple[bool, str]:
    worst0 = worst1 = worst_slope = 0.0
    for theta0 in (1.0, math.pi / 2.0, 2.0 * math.pi / 3.0, 3.0 * math.pi / 4.0, 2.9):
        geom = ConeGeometry(theta0=theta0)
        worst0 = max(worst0, abs(exp_mod.neumann_mismatch(geom, 0.0)))
        cot = math.cos(theta0) / math.sin(theta0)
        worst1 = max(worst1, abs(exp_mod.neumann_mismatch(geom, 1.0) - cot))
        h = 1e-5
        fd = (exp_mod.neumann_mismatch(geom, h) - exp_mod.neumann_mismatch(geom, 0.0)) / h
        closed = (1.0 - math.cos(theta0)) / math.sin(theta0) ** 3
        worst_slope = max(worst_slope, abs(fd - closed))
    ok = worst0 <= 1e-12 and worst1 <= 1e-10 and worst_slope <= 1e-4
    return ok, (
        f"|W(.,0)| <= {worst0:.2e}, |W(.,1)-cot| <= {worst1:.2e}, "
        f"slope gap <= {worst_slope:.2e}"
    )


def _check_neumann_roots(shared: SharedResults) -> tuple[bool, str]:
    root_half = shared.neumann_exponent(math.pi / 2.0)
    if abs(root_half - 1.0) > 1e-8:
        return False, f"half-space Neumann exponent {root_half} != 1"
    radii = np.linspace(0.1, 1.0, 10)
    for theta0 in (2.0 * math.pi / 3.0, 3.0 * math.pi / 4.0):
        geom = ConeGeometry(theta0=theta0)
        root = shared.neumann_exponent(theta0)
        if not (0.0 < root < 1.0):
            return False, f"Neumann exponent {root} outside (0,1) at theta0={theta0:.4f}"
        wval = abs(exp_mod.neumann_mismatch(geom, root))
        fd = fd_neumann_residual(geom, root, radii)
        if wval > 1e-10 or fd > 1e-6:
            return False, f"theta0={theta0:.4f}: |W| = {wval:.2e}, FD = {fd:.2e}"
    return True, f"half-space root {root_half}, obtuse roots interior"


def _check_classification(shared: SharedResults) -> tuple[bool, str]:
    # a row of one against the shared row of five, which holds the same cell
    theta0, s = 2.0 * math.pi / 3.0, 1.8
    geom = ConeGeometry(theta0=theta0)
    if exp_mod.classify_regime(geom, ObliqueBC.for_cone(geom, s)) != shared.report(theta0, s):
        return False, "classification is not deterministic"
    for theta0, s, expected in LABELLED_CASES:
        report = shared.report(theta0, s)
        if report.label != expected:
            return False, f"(theta0={theta0:.4f}, s={s}) -> {report.label}, expected {expected}"
    return True, f"{len(LABELLED_CASES)} labelled cases and determinism"


def _check_reduction(shared: SharedResults) -> tuple[bool, str]:
    for n in (3, 4, 5):
        a0, b21 = reduce_to_axisymmetric(np.eye(n))
        if not np.allclose(a0, np.eye(2)) or b21 != float(n - 2):
            return False, f"identity reduction failed for n={n}"
        kappa = 2.5
        a0, b21 = reduce_to_axisymmetric(kappa * np.eye(n))
        if not np.allclose(a0, kappa * np.eye(2)) or abs(b21 - (n - 2) * kappa) > 1e-14:
            return False, f"scaled reduction failed for n={n}"
    return True, "identity and scaled-identity reductions exact for n=3,4,5"


# ---------------------------------------------------------------------------
# barrier suite
# ---------------------------------------------------------------------------

_BARRIER_THETAS = (math.pi / 3.0, 2.0 * math.pi / 3.0, 3.0 * math.pi / 4.0)

#: Oblique angles per quadrant of `barrier_regime_angles`.
BARRIER_REGIME_COUNT = 10


def barrier_regime_angles(theta0: float) -> list[float]:
    """Oblique angles with cos(s) sin(s) > 0, kept at a margin from the
    quadrant edges where the untilted coefficient loses its sign for fixed
    degree."""
    q = min(theta0, math.pi / 2.0)
    angles = [
        0.1 * q + t * 0.7 * q for t in np.linspace(0.0, 1.0, BARRIER_REGIME_COUNT)
    ]
    if theta0 < math.pi / 2.0:
        lo, hi = ConeGeometry(theta0=theta0).admissible_s_interval()[0], -math.pi / 2
        angles += [
            lo + t * (hi - lo) for t in np.linspace(0.1, 0.9, BARRIER_REGIME_COUNT)
        ]
    return [float(s) for s in angles]


def _check_barrier_invariants(shared: SharedResults) -> tuple[bool, str]:
    details = []
    for theta0 in _BARRIER_THETAS:
        b = shared.barrier(theta0)
        if not (0.0 < b.cstar < 1.0):
            return False, f"c* = {b.cstar} outside (0,1) at theta0={theta0:.4f}"
        details.append(f"c*({theta0:.3f})={b.cstar:.6f}")
    return True, "; ".join(details)


def _check_barrier_small_degree_limit(shared: SharedResults) -> tuple[bool, str]:
    worst = 0.0
    for theta0 in _BARRIER_THETAS:
        geom = ConeGeometry(theta0=theta0)
        b = bar.build_barrier(geom, 1e-4)
        sup = np.abs(b.profile(np.linspace(0.0, theta0, 200)) - 1.0).max()
        worst = max(worst, float(sup))
    return worst <= 1e-2, f"sup |F - 1| = {worst:.3e} at degree 1e-4"


def _check_m1_sign_grid(shared: SharedResults) -> tuple[bool, str]:
    count = 0
    for theta0 in np.linspace(0.35, 2.5, 20):
        geom = ConeGeometry(theta0=float(theta0))
        b = bar.build_barrier(geom, 0.05)
        for s in barrier_regime_angles(float(theta0)):
            bc = ObliqueBC.for_cone(geom, s)
            rc = bar.rotate_coefficients(np.eye(2), bc)
            val = bar.m1_coefficient(b, bc, rc)
            if val >= 0.0:
                return False, f"m1 = {val} at (theta0={theta0:.4f}, s={s:.4f})"
            count += 1
    return True, f"m1 < 0 at {count} sign-regime nodes"


#: The ten barrier-regime (theta0, s, alpha) cases of
#: `barrier.closed_form_vs_directional_fd`, drawn once with
#: `np.random.default_rng(20240817)`: per try, theta0 = uniform(0.4, 2.6) and
#: s = uniform(lo + 0.1, hi - 0.1) on the cone's admissible interval (lo, hi);
#: a try with cos(s) sin(s) <= 0.01 is rejected before alpha is drawn, and
#: otherwise alpha = uniform(0.01, 0.06).  A table, so that a verify run does
#: not load numpy.random.
M1_FD_CASES = (
    (0.5984400143927456, -2.0482994108763863, 0.05054151841122312),
    (1.721479100482029, 0.16941228450855617, 0.012523632971945184),
    (0.9809954964803637, 0.10497327762997521, 0.010906514169811296),
    (1.7610284827939622, 0.22293357656567392, 0.015226795111376885),
    (1.6215850197250021, 1.0002898286727815, 0.025848070323303073),
    (2.250164736548577, 1.264379959791861, 0.023369957918193903),
    (1.3001238623054308, 0.4103548388243823, 0.0557697785498318),
    (1.3614821275370006, 0.7181831765297431, 0.036707979419201134),
    (2.5642609930377103, 0.04128074838747642, 0.02077910197667039),
    (1.4012608154521318, 1.0036456807997118, 0.026972933782334327),
)


def m1_closed_vs_fd_gap(cases) -> float:
    """max relative gap between `m1_coefficient` and
    `m1_by_directional_differences` over barrier-regime `(theta0, s, alpha)`
    cases."""
    worst = 0.0
    for theta0, s, alpha in cases:
        geom = ConeGeometry(theta0=theta0)
        b = bar.build_barrier(geom, alpha)
        bc = ObliqueBC.for_cone(geom, s)
        rc = bar.rotate_coefficients(np.eye(2), bc)
        closed = bar.m1_coefficient(b, bc, rc)
        fd = m1_by_directional_differences(b, bc, rc)
        worst = max(worst, abs(closed - fd) / abs(closed))
    return worst


def _check_m1_closed_vs_fd(shared: SharedResults) -> tuple[bool, str]:
    worst = m1_closed_vs_fd_gap(M1_FD_CASES)
    return worst <= 1e-8, f"max relative closed-form vs FD gap = {worst:.3e}"


def _check_tilt(shared: SharedResults) -> tuple[bool, str]:
    details = []
    for theta0, s in ((math.pi / 3.0, 0.5), (2.0 * math.pi / 3.0, 0.4), (math.pi / 3.0, -1.8)):
        b = shared.barrier(theta0)
        bc = ObliqueBC.for_cone(ConeGeometry(theta0=theta0), s)
        rc = bar.rotate_coefficients(np.eye(2), bc)
        m1 = bar.m1_coefficient(b, bc, rc)
        if bar.m2_coefficient(b, bc, rc, 0.0) != m1:
            return False, "tilt = 0 does not collapse to the untilted coefficient"
        tilt = bar.max_admissible_tilt(bc, b, rc)
        if tilt < 1e-6:
            return False, f"tilt {tilt} below floor at (theta0={theta0:.4f}, s={s})"
        for t in (1e-2, 5e-3, 1e-3):
            if bar.m2_coefficient(b, bc, rc, t) >= 0.0:
                return False, f"tilted coefficient >= 0 at tilt {t}"
        details.append(f"tilt({theta0:.3f},{s})={tilt:g}")
    return True, "; ".join(details)


def _check_barrier_harmonicity(shared: SharedResults) -> tuple[bool, str]:
    geom = ConeGeometry(theta0=2.0 * math.pi / 3.0)
    sol = exp_mod.SeparableSolution(alpha=0.05, m=0)
    study = sol_mod.residual_convergence(sol, _grids(geom.theta0))
    order = study.observed_order
    return 1.7 <= order <= 2.3, f"observed order = {order:.3f}"


def _check_rotation_cases(shared: SharedResults) -> tuple[bool, str]:
    geom = ConeGeometry(theta0=2.0)
    bc_normal = ObliqueBC.for_cone(geom, 2.0 - math.pi / 2.0)  # beta0 = nu
    rc = bar.rotate_coefficients(np.eye(2), bc_normal)
    if not np.allclose(rc.atilde, np.eye(2), atol=1e-14):
        return False, f"normal obliqueness should give the identity, got {rc.atilde}"
    if abs(rc.obliqueness - 1.0) > 1e-14:
        return False, f"normal obliqueness eps = {rc.obliqueness}"
    bc = ObliqueBC.for_cone(geom, 0.4)
    rc = bar.rotate_coefficients(np.eye(2), bc)
    if abs(rc.a11 - 1.0) > 1e-14 or abs(rc.a22 - 1.0) > 1e-14:
        return False, "unit rows should give unit diagonal for the identity"
    a0 = np.diag([2.0, 1.0])
    rc = bar.rotate_coefficients(a0, bc)
    J = np.array([[bc.beta0[0], bc.beta0[1]], [bc.tau[0], bc.tau[1]]])
    if not np.allclose(rc.atilde, J @ a0 @ J.T, atol=1e-14):
        return False, "direct 2x2 product mismatch"
    return True, "identity, unit-diagonal and direct-product cases"


# ---------------------------------------------------------------------------
# solver suite
# ---------------------------------------------------------------------------

def _check_residual_orders(shared: SharedResults) -> tuple[bool, str]:
    theta0 = 2.0 * math.pi / 3.0
    details = []
    for alpha, m in ((1.0, 0), (0.6, 0)):
        study = sol_mod.residual_convergence(
            exp_mod.SeparableSolution(alpha=alpha, m=m), _grids(theta0, m=m)
        )
        order = study.observed_order
        if not (1.7 <= order <= 2.3):
            return False, f"order {order:.3f} for degree {alpha}, mode {m}"
        details.append(f"{alpha}/m{m}: {order:.2f}")
    a_neu = shared.neumann_exponent(theta0)
    study = sol_mod.residual_convergence(
        exp_mod.SeparableSolution(alpha=a_neu, m=1), _grids(theta0, m=1)
    )
    order = study.observed_order
    if not (1.7 <= order <= 2.3):
        return False, f"order {order:.3f} for the m=1 Neumann mode"
    details.append(f"{a_neu:.3f}/m1: {order:.2f}")
    return True, "; ".join(details)


def _check_m_matrix_default(shared: SharedResults) -> tuple[bool, str]:
    for m in (0, 1):
        grid = SectorGrid.default(2.0 * math.pi / 3.0, n_r=40, n_theta=32, m=m)
        report = sol_mod.check_m_matrix(grid)
        if not report.passed:
            return False, f"default grid mode {m}: {len(report.violations)} violations"
    return True, "default grids pass for modes 0 and 1"


def _check_m_matrix_stress(shared: SharedResults) -> tuple[bool, str]:
    # radial steps far larger than r near the inner edge break monotonicity
    radial = SectorGrid(
        r_min=1e-6, r_max=1.0, n_r=8, n_theta=8, theta0=2.0 * math.pi / 3.0, grading=2.0
    )
    radial_report = sol_mod.check_m_matrix(radial)
    # theta spacing too coarse for the angular transport near theta0 -> pi (m=1)
    angular = SectorGrid(r_min=0.3, r_max=1.0, n_r=8, n_theta=10, theta0=3.05, m=1)
    angular_report = sol_mod.check_m_matrix(angular)
    if radial_report.passed or angular_report.passed:
        return False, "a stress grid unexpectedly certified as monotone"
    return True, (
        f"{len(radial_report.violations)} radial and "
        f"{len(angular_report.violations)} angular violations reported"
    )


def _check_dirichlet_constant(shared: SharedResults) -> tuple[bool, str]:
    grid = SectorGrid.default(2.0 * math.pi / 3.0, n_r=24, n_theta=20)
    field = sol_mod.solve_dirichlet(
        grid, {"r_min": 3.5, "r_max": 3.5, "cone": 3.5}
    )
    worst = float(np.abs(field.values - 3.5).max())
    return worst <= 1e-10, f"constant solve max error = {worst:.3e}"


def _check_comparison_minimum(shared: SharedResults) -> tuple[bool, str]:
    """Nonnegative solves: positive Dirichlet data, and the critical mode's `field`."""
    grid = SectorGrid.default(2.0 * math.pi / 3.0, n_r=40, n_theta=32)
    data = lambda r, t: abs(math.sin(3.0 * r) * math.cos(t)) + 0.1
    field = sol_mod.solve_dirichlet(
        grid, {"r_min": data, "r_max": data, "cone": data}
    )
    min_all_dirichlet = float(field.values.min())
    theta0, s = COMPARISON_CELL
    sol = exp_mod.SeparableSolution(alpha=shared.report(theta0, s).critical_exponent, m=0)
    grid = SectorGrid(r_min=0.02, r_max=1.0, n_r=48, n_theta=32, theta0=theta0)
    exact = sol.field(grid)
    edges = {"r_min": exact[0], "r_max": exact[-1]}
    field = sol_mod.solve_dirichlet(grid, edges, oblique_s=s)
    min_oblique = float(field.values.min())
    ok = min_all_dirichlet >= -1e-12 and min_oblique >= -1e-12
    return ok, f"minima {min_all_dirichlet:.2e} (Dirichlet), {min_oblique:.2e} (oblique)"


def _check_oblique_solve_order(shared: SharedResults) -> tuple[bool, str]:
    """Error order of oblique solves whose exact field and edge data are `field`."""
    theta0, s = SOLVE_ORDER_CELL
    sol = exp_mod.SeparableSolution(alpha=shared.report(theta0, s).critical_exponent, m=0)
    errs, hs = [], []
    for n in (17, 33, 65):
        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=n, n_theta=n, theta0=theta0)
        exact = sol.field(grid)
        edges = {"r_min": exact[0], "r_max": exact[-1]}
        field = sol_mod.solve_dirichlet(grid, edges, oblique_s=s)
        errs.append(float(np.abs(field.values - exact).max()))
        hs.append(grid.h_max)
    slope = sol_mod.ConvergenceStudy(tuple(hs), tuple(errs)).observed_order
    return 1.7 <= slope <= 2.3, f"oblique-solve error order = {slope:.3f}"


def _check_fit_recovery(shared: SharedResults) -> tuple[bool, str]:
    slope, _ = sol_mod.fit_exponent(
        lambda r, t: 2.0 * r ** 0.37, 0.5, (1e-3, 1e-1)
    )
    return abs(slope - 0.37) <= 1e-8, f"pure-power slope gap = {abs(slope - 0.37):.3e}"


def _check_holder_behaviour(shared: SharedResults) -> tuple[bool, str]:
    pts = hold.sector_sample_points(2.0, 1e-2, 1.0)
    u = hold.samples_from_function(lambda y1, y2: math.hypot(y1, y2) ** 0.3, pts)
    v = hold.samples_from_function(lambda y1, y2: math.hypot(y1, y2) ** 0.4, pts)
    product = hold.holder_product_check(
        u, v, alpha=0.25, beta1=-0.25, beta2=0.0, beta1p=0.0, beta2p=-0.25
    )
    if not product.holds:
        return False, f"product inequality fails: {product.lhs} > {product.rhs}"
    interp = hold.holder_interpolation_check(
        hold.samples_from_function(
            lambda y1, y2: math.hypot(y1, y2) ** 0.7, pts, derivatives=2
        ),
        (2, 0.5, -1.5),
        (0, 1.0, 0.0),
        theta=2.0 / 3.0,
    )
    if not math.isfinite(interp.empirical_constant):
        return False, "interpolation constant is not finite"
    spec = hold.HolderSpec(k=0, alpha=0.5, beta=-0.5)
    sub = hold.HolderSamples(points=pts[::2], values=u.values[::2])
    if hold.holder_seminorm(sub, spec) > hold.holder_seminorm(u, spec) + 1e-15:
        return False, "seminorm not monotone under sample inclusion"
    return True, (
        f"product lhs/rhs = {product.lhs:.3g}/{product.rhs:.3g}, "
        f"interpolation constant = {interp.empirical_constant:.3g}"
    )


#: Every check as (suite, name, check), in the order `run_suite("all")` runs them.
CHECKS: tuple[tuple[str, str, Callable[[SharedResults], tuple[bool, str]]], ...] = (
    ("special", "value_at_one", _check_value_at_one),
    ("special", "integer_degree_polynomials", _check_integer_degrees),
    ("special", "three_term_recurrence", _check_recurrence),
    ("special", "dz_identity_vs_richardson", _check_dz_identity),
    ("special", "kernel_vs_quadrature", _check_quadrature),
    ("special", "degree_derivative_identity", _check_degree_derivative_identity),
    ("exponent", "endpoint_identities", _check_endpoints),
    ("exponent", "slope_fd_matches_closed_form", _check_slope),
    ("exponent", "critical_angle_closed_form", _check_critical_angle),
    ("exponent", "roots_in_guaranteed_branches", _check_guaranteed_roots),
    ("exponent", "no_root_in_barrier_regime", _check_no_root_in_barrier_regime),
    ("exponent", "gradient_consistency", _check_gradient_consistency),
    ("exponent", "neumann_identities", _check_neumann_identities),
    ("exponent", "neumann_roots", _check_neumann_roots),
    ("exponent", "classification", _check_classification),
    ("exponent", "axisymmetric_reduction", _check_reduction),
    ("barrier", "invariants_certified", _check_barrier_invariants),
    ("barrier", "profile_limit_small_degree", _check_barrier_small_degree_limit),
    ("barrier", "untilted_coefficient_negative", _check_m1_sign_grid),
    ("barrier", "closed_form_vs_directional_fd", _check_m1_closed_vs_fd),
    ("barrier", "tilt_collapse_and_search", _check_tilt),
    ("barrier", "barrier_harmonicity_order", _check_barrier_harmonicity),
    ("barrier", "coefficient_rotation", _check_rotation_cases),
    ("solver", "residual_convergence_orders", _check_residual_orders),
    ("solver", "m_matrix_default_grids", _check_m_matrix_default),
    ("solver", "m_matrix_stress_grid", _check_m_matrix_stress),
    ("solver", "dirichlet_constant_exact", _check_dirichlet_constant),
    ("solver", "discrete_comparison_minimum", _check_comparison_minimum),
    ("solver", "oblique_solve_order", _check_oblique_solve_order),
    ("solver", "fit_exponent_recovery", _check_fit_recovery),
    ("solver", "holder_estimator_checks", _check_holder_behaviour),
)

#: Suite names in the order of CHECKS.
SUITE_NAMES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS))


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them ("all") in the order of CHECKS,
    with one SharedResults for the run."""
    if name != "all" and name not in SUITE_NAMES:
        raise KeyError(
            f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)} or 'all'"
        )
    shared = SharedResults()
    return [
        _run(suite, check_name, partial(check, shared))
        for suite, check_name, check in CHECKS
        if name in (suite, "all")
    ]
