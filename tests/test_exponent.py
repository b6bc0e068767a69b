"""Counterexample engine: mismatch functions, roots, classification.

The Cartesian finite-difference oracle comes from `obliquecone.verify`; it
differences r^a P_a(cos t) in (y1, y2), independent of the analytic
mismatch and gradient code paths it validates.
"""

import ast
import math
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest

from obliquecone import exponent, legendre
from obliquecone.errors import BracketError, DomainError
from obliquecone.exponent import (
    AXIS_CONTINUOUS,
    IRREGULAR,
    M1_AXIS_CUTOFF,
    REGULAR_BARRIER,
    UNKNOWN,
    SeparableSolution,
    _bracketed_roots,
    boundary_mismatch,
    classify_many,
    classify_regime,
    critical_angle_s0,
    critical_exponent,
    neumann_exponent,
    neumann_mismatch,
    separable_eval,
    slope_at_zero,
    u1,
    u2,
)
from obliquecone.geometry import THETA0_MAX, ConeGeometry, ObliqueBC
from obliquecone.legendre import (
    legendre_dp1_dz,
    legendre_p,
    legendre_p_quadrature,
)
from obliquecone.verify import (
    central_difference,
    fd_neumann_residual,
    fd_oblique_residual,
    separable,
    separable_gradient_gap,
)

THETA_GRID = np.linspace(0.3, 2.7, 9)

# frozen bisection-oracle roots
EXPECTED_ROOTS = {
    (2 * math.pi / 3, 1.8): 0.8511274674741052,
    (2 * math.pi / 3, -0.8): 0.3368558636642419,
    (3 * math.pi / 4, -0.6): 0.25574725655675634,
    (math.pi / 3, -1.3): 0.5012394347722653,
    (math.pi / 4, -1.35): 0.4472980580486001,
}
EXPECTED_NEUMANN = {
    2 * math.pi / 3: 0.8563132551458703,
    3 * math.pi / 4: 0.857167676523837,
}


#: Opening angles just below THETA0_MAX (about 3.0966), where cos(theta0)
#: nears the kernel's argument cutoff.
EDGE_THETA0 = (3.07, 3.08, 3.09)


def quadrature_mismatch(theta0, alpha, s):
    """B(theta0, alpha, s) with every P from the quadrature oracle."""
    z, st = math.cos(theta0), math.sin(theta0)
    p0 = legendre_p_quadrature(alpha, z)
    p1 = legendre_p_quadrature(alpha + 1.0, z)
    f1 = (2 * alpha + 1) * z * p0 - (alpha + 1) * p1
    f2 = st * (alpha - (alpha + 1) * z * z / st ** 2) * p0 + (alpha + 1) * z / st * p1
    return math.cos(s) * f1 + math.sin(s) * f2


def quadrature_neumann(theta0, alpha):
    """W(theta0, alpha) in terms of P at three degrees, all from quadrature."""
    z = math.cos(theta0)
    p0, p1, p2 = (legendre_p_quadrature(alpha + k, z) for k in range(3))
    return (
        alpha * (alpha + 2) * (z * p1 - p2) - (alpha + 1) ** 2 * z * (z * p0 - p1)
    ) / (1 - z * z) ** 1.5


class TestAngularFactors:
    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_degree_one(self, theta):
        theta = float(theta)
        assert u1(theta, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert u2(theta, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_degree_zero(self, theta):
        theta = float(theta)
        assert u1(theta, 0.0) == pytest.approx(0.0, abs=1e-13)
        assert u2(theta, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_matches_cartesian_finite_differences(self):
        theta, alpha, r = math.pi / 3, 0.5, 1.0
        y1, y2 = r * math.cos(theta), r * math.sin(theta)
        u = separable(legendre_p, alpha)
        g1 = central_difference(u, y1, y2, 1.0, 0.0, 1e-6)
        g2 = central_difference(u, y1, y2, 0.0, 1.0, 1e-6)
        assert u1(theta, alpha) == pytest.approx(g1, abs=1e-8)
        assert u2(theta, alpha) == pytest.approx(g2, abs=1e-8)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            u1(0.0, 0.5)
        with pytest.raises(DomainError):
            u2(1.0, 2.5)

    @pytest.mark.parametrize("theta", [np.array([1.0, 2.0]), np.array([0.5]), "1.0", None])
    def test_one_angle_is_documented_and_anything_else_is_named(self, theta):
        for f in (u1, u2):
            with pytest.raises(DomainError, match="^polar angle must be one real number"):
                f(theta, 0.5)


class TestBoundaryMismatch:
    @pytest.mark.parametrize("theta0", THETA_GRID)
    @pytest.mark.parametrize("s_frac", [0.1, 0.5, 0.9])
    def test_endpoint_identities(self, theta0, s_frac):
        theta0 = float(theta0)
        geom = ConeGeometry(theta0=theta0)
        lo, hi = geom.admissible_s_interval()
        s = lo + s_frac * (hi - lo)
        assert abs(boundary_mismatch(geom, 0.0, s)) <= 1e-12
        assert boundary_mismatch(geom, 1.0, s) == pytest.approx(
            math.cos(s), abs=1e-10
        )

    def test_equals_oblique_derivative_of_separable_solution(self):
        geom = ConeGeometry(theta0=2 * math.pi / 3)
        alpha, s = 0.5, -1.0
        y1 = math.cos(geom.theta0)
        y2 = math.sin(geom.theta0)
        u = separable(legendre_p, alpha)
        g1 = central_difference(u, y1, y2, 1.0, 0.0, 1e-6)
        g2 = central_difference(u, y1, y2, 0.0, 1.0, 1e-6)
        fd = math.cos(s) * g1 + math.sin(s) * g2
        assert boundary_mismatch(geom, alpha, s) == pytest.approx(fd, abs=1e-6)

    def test_rejects_an_angle_outside_the_closed_interval(self):
        # the closed interval slope_at_zero accepts: its ends evaluate
        geom = ConeGeometry(theta0=2.0)
        lo, hi = geom.admissible_s_interval()
        for s in (math.nan, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(DomainError, match="oblique angle"):
                boundary_mismatch(geom, 0.5, s)
        assert math.isfinite(boundary_mismatch(geom, 0.5, lo) + boundary_mismatch(geom, 0.5, hi))

    @pytest.mark.parametrize("s", [np.array([1.0, 2.0]), np.array([0.5]), "0.5", None])
    def test_an_oblique_angle_that_is_not_one_number_is_named(self, s):
        geom = ConeGeometry(theta0=2.0)
        with pytest.raises(DomainError, match="^oblique angle must be one real number"):
            boundary_mismatch(geom, 0.5, s)
        with pytest.raises(DomainError, match="^oblique angle must be one real number"):
            slope_at_zero(geom, s)


class TestArraysOfDegrees:
    """u1, u2, boundary_mismatch and neumann_mismatch over an ndarray of
    degrees: the scalar loop bit for bit, or DomainError naming the first
    degree outside the range."""

    DEGREES = np.concatenate((np.linspace(0.0, 2.0, 41), [1e-3, 0.999999999, 1.5 + 1e-12]))

    # 2.9 puts cos(theta) below the kernel's series switch
    @pytest.mark.parametrize("theta", [0.3, 1.2, 2 * math.pi / 3, 2.9])
    def test_angular_factors_equal_the_scalar_loop(self, theta):
        for fn in (u1, u2):
            loop = np.array([fn(theta, float(a)) for a in self.DEGREES])
            np.testing.assert_array_equal(fn(theta, self.DEGREES), loop)

    @pytest.mark.parametrize("theta0,s", [(0.7, -2.0), (2 * math.pi / 3, 1.8), (2.9, 0.4)])
    def test_boundary_mismatch_equals_the_scalar_loop(self, theta0, s):
        geom = ConeGeometry(theta0=theta0)
        loop = np.array([boundary_mismatch(geom, float(a), s) for a in self.DEGREES])
        np.testing.assert_array_equal(boundary_mismatch(geom, self.DEGREES, s), loop)

    @pytest.mark.parametrize("theta0", [1.0, 2 * math.pi / 3, 3.08])
    def test_neumann_mismatch_equals_the_scalar_loop(self, theta0):
        geom = ConeGeometry(theta0=theta0)
        alphas = self.DEGREES[self.DEGREES <= 1.0]
        loop = np.array([neumann_mismatch(geom, float(a)) for a in alphas])
        np.testing.assert_array_equal(neumann_mismatch(geom, alphas), loop)

    def test_first_bad_degree_is_named(self):
        geom = ConeGeometry(theta0=2.0)
        for call in (
            lambda a: u1(1.0, a),
            lambda a: u2(1.0, a),
            lambda a: boundary_mismatch(geom, a, 0.5),
        ):
            with pytest.raises(DomainError, match=r"got 2\.5$"):
                call(np.array([0.5, 2.5, -0.1]))
            with pytest.raises(DomainError, match="got nan"):
                call(np.array([0.5, np.nan]))
        with pytest.raises(DomainError, match=r"got 1\.5$"):
            neumann_mismatch(geom, np.array([0.2, 1.5, 3.0]))


@pytest.mark.parametrize("theta", [5e-324, 1e-200, 1e-160])
def test_edge_angle_below_the_floor_is_rejected(theta):
    # sin(theta)^2 underflows to 0 here, and U2 divided by it
    for fn in (u1, u2):
        with pytest.raises(DomainError, match="polar angle"):
            fn(theta, 0.5)


class TestSlopeAndCriticalAngle:
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_slope_endpoint_values(self, theta0):
        geom = ConeGeometry(theta0=float(theta0))
        assert slope_at_zero(geom, 0.0) == pytest.approx(1.0, abs=1e-15)
        lo, _ = geom.admissible_s_interval()
        assert slope_at_zero(geom, lo) == pytest.approx(-1.0, abs=1e-12)

    def test_slope_root_closed_form(self):
        geom = ConeGeometry(theta0=3 * math.pi / 4)
        assert slope_at_zero(geom, -math.pi / 8) == pytest.approx(0.0, abs=1e-15)

    def test_slope_matches_finite_difference(self):
        h = 1e-5
        for theta0 in THETA_GRID:
            geom = ConeGeometry(theta0=float(theta0))
            lo, hi = geom.admissible_s_interval()
            for frac in (0.2, 0.6):
                s = lo + frac * (hi - lo)
                fd = (
                    boundary_mismatch(geom, h, s) - boundary_mismatch(geom, 0.0, s)
                ) / h
                assert fd == pytest.approx(slope_at_zero(geom, s), abs=1e-4)

    @pytest.mark.parametrize(
        "theta0,expected",
        [
            (3 * math.pi / 4, -math.pi / 8),
            (math.pi / 2, -math.pi / 4),
            (math.pi / 3, -math.pi / 3),
        ],
    )
    def test_critical_angle_values(self, theta0, expected):
        geom = ConeGeometry(theta0=theta0)
        assert critical_angle_s0(geom) == pytest.approx(expected, abs=1e-10)


def reference_roots(f, grid, values, xtol):
    """Node-by-node sign scan with bisection, one bracket at a time."""

    def bisect(lo, hi, flo):
        while hi - lo > xtol:
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if fmid == 0.0:
                return mid
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        return 0.5 * (lo + hi)

    roots = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0.0:
            roots.append(bisect(float(grid[i]), float(grid[i + 1]), a))
    if len(values) and values[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


class TestBracketedRoots:
    @pytest.mark.parametrize(
        "f,grid,expected",
        [
            # exact zero at an interior node
            (lambda x: x - 0.5, np.linspace(0.0, 1.0, 5), [0.5]),
            # exact zero at the last node
            (lambda x: x - 1.0, np.linspace(0.0, 1.0, 5), [1.0]),
            # zero node at 0.25, then a sign change in the cell [0.5, 0.75]
            (lambda x: (x - 0.25) * (x - 0.6), np.linspace(0.0, 1.0, 5), [0.25, 0.6]),
            # several sign changes
            (
                lambda x: math.sin(10.0 * x),
                np.linspace(0.1, 3.0, 50),
                [k * math.pi / 10.0 for k in range(1, 10)],
            ),
            # none
            (lambda x: x * x + 1.0, np.linspace(-1.0, 1.0, 7), []),
        ],
    )
    def test_matches_reference_scan(self, f, grid, expected):
        values = np.array([f(float(x)) for x in grid])
        roots = _bracketed_roots(f, grid, values, 1e-12)
        assert roots == reference_roots(f, grid, values, 1e-12)
        assert len(roots) == len(expected)
        for got, want in zip(roots, expected):
            assert got == pytest.approx(want, abs=1e-12)


class TestCriticalExponent:
    @pytest.mark.parametrize("key", sorted(EXPECTED_ROOTS))
    def test_roots_in_guaranteed_branches(self, key):
        theta0, s = key
        geom = ConeGeometry(theta0=theta0)
        root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
        assert root is not None
        assert 0.0 < root < 1.0
        assert root == pytest.approx(EXPECTED_ROOTS[key], abs=1e-9)
        assert abs(boundary_mismatch(geom, root, s)) <= 1e-10

    def test_root_satisfies_oblique_condition_pointwise(self):
        theta0, s = 2 * math.pi / 3, 1.8
        geom = ConeGeometry(theta0=theta0)
        root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
        assert fd_oblique_residual(geom, s, root, np.linspace(0.1, 1.0, 20)) <= 1e-6

    @pytest.mark.parametrize(
        "theta0,s",
        [
            (2 * math.pi / 3, 0.7),
            (2 * math.pi / 3, 1.3),
            (math.pi / 3, 0.6),
            (math.pi / 3, -1.8),
        ],
    )
    def test_absent_in_barrier_regime(self, theta0, s):
        geom = ConeGeometry(theta0=theta0)
        assert critical_exponent(geom, ObliqueBC.for_cone(geom, s)) is None


class TestNeumann:
    @pytest.mark.parametrize("theta0", [1.0, math.pi / 2, 2 * math.pi / 3, 2.9])
    def test_endpoint_identities(self, theta0):
        geom = ConeGeometry(theta0=theta0)
        assert abs(neumann_mismatch(geom, 0.0)) <= 1e-12
        assert neumann_mismatch(geom, 1.0) == pytest.approx(
            math.cos(theta0) / math.sin(theta0), abs=1e-10
        )

    def test_slope_matches_closed_form(self):
        h = 1e-5
        for theta0 in (1.0, 1.8, 2 * math.pi / 3, 2.6):
            geom = ConeGeometry(theta0=theta0)
            fd = (neumann_mismatch(geom, h) - neumann_mismatch(geom, 0.0)) / h
            closed = (1.0 - math.cos(theta0)) / math.sin(theta0) ** 3
            assert fd == pytest.approx(closed, abs=1e-4)

    @pytest.mark.parametrize("theta0", [1.0, 2 * math.pi / 3, 3.08])
    def test_mismatch_is_the_p1_derivative(self, theta0):
        geom = ConeGeometry(theta0=theta0)
        for alpha in np.linspace(0.0, 1.0, 11):
            alpha = float(alpha)
            assert neumann_mismatch(geom, alpha) == legendre_dp1_dz(alpha, geom.z0)

    def test_half_space_exponent_is_one(self):
        geom = ConeGeometry(theta0=math.pi / 2)
        assert neumann_exponent(geom) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("theta0", sorted(EXPECTED_NEUMANN))
    def test_obtuse_roots(self, theta0):
        geom = ConeGeometry(theta0=theta0)
        root = neumann_exponent(geom)
        assert root == pytest.approx(EXPECTED_NEUMANN[theta0], abs=1e-9)
        assert abs(neumann_mismatch(geom, root)) <= 1e-10

    def test_obtuse_root_kills_normal_derivative(self):
        theta0 = 2 * math.pi / 3
        geom = ConeGeometry(theta0=theta0)
        root = neumann_exponent(geom)
        assert fd_neumann_residual(geom, root, np.linspace(0.2, 1.0, 10)) <= 1e-6

    def test_root_near_domain_edge(self):
        # W falls with slope ~ -1.5e4 here, so the root is pinned by a sign
        # change of the quadrature-built W rather than by a small |W|
        geom = ConeGeometry(theta0=3.09)
        root = neumann_exponent(geom)
        assert 1e-3 < root <= 1.0
        h = 1e-9
        assert quadrature_neumann(3.09, root - h) > 0.0 > quadrature_neumann(3.09, root + h)

    def test_acute_cone_raises_bracket_error(self):
        with pytest.raises(BracketError):
            neumann_exponent(ConeGeometry(theta0=math.pi / 3))

    def test_half_space_exponent_is_the_exact_endpoint_root(self):
        assert neumann_exponent(ConeGeometry(theta0=math.pi / 2)) == 1.0

    @pytest.mark.parametrize("theta0", [math.pi / 2, 2 * math.pi / 3, 3.08])
    def test_kernel_runs_at_degrees_a_and_a_plus_one_only(self, monkeypatch, theta0):
        # each W evaluation, in the scan and in the bisection, calls the kernel
        # twice: at the degrees a and a + 1, never at a + 2
        calls, kernel_degrees = [], []
        real_w, real_p = exponent.legendre_dp1_dz, legendre.legendre_p

        def w_spy(alpha, z):
            calls.append(np.asarray(alpha, dtype=float).copy())
            return real_w(alpha, z)

        def p_spy(alpha, z):
            kernel_degrees.append(np.asarray(alpha, dtype=float).copy())
            return real_p(alpha, z)

        monkeypatch.setattr(exponent, "legendre_dp1_dz", w_spy)
        monkeypatch.setattr(legendre, "legendre_p", p_spy)
        neumann_exponent(ConeGeometry(theta0=theta0))
        assert calls and len(kernel_degrees) == 2 * len(calls)
        for alpha, lo, hi in zip(calls, kernel_degrees[::2], kernel_degrees[1::2]):
            assert lo.tobytes() == alpha.tobytes()
            assert hi.tobytes() == (alpha + 1.0).tobytes()


class TestSeparableEval:
    def test_degree_one_is_linear(self):
        sol = SeparableSolution(alpha=1.0, m=0)
        for r, theta in ((0.5, 0.3), (2.0, 1.4)):
            value, grad = separable_eval(sol, (r, theta))
            assert value == pytest.approx(r * math.cos(theta), abs=1e-14)
            assert grad[0] == pytest.approx(1.0, abs=1e-12)
            assert grad[1] == pytest.approx(0.0, abs=1e-12)

    def test_m0_gradient_is_the_angular_factors(self):
        for alpha in np.linspace(0.05, 1.0, 9):
            alpha = float(alpha)
            sol = SeparableSolution(alpha=alpha, m=0)
            for r in (0.5, 1.0, 2.0):
                for theta in np.linspace(0.05, 3.09, 25):
                    theta = float(theta)
                    _, grad = separable_eval(sol, (r, theta))
                    scaled = r ** (alpha - 1.0)
                    for got, u in zip(
                        grad, (scaled * u1(theta, alpha), scaled * u2(theta, alpha))
                    ):
                        assert abs(got - u) <= 1e-12 * max(1.0, abs(u))

    @pytest.mark.parametrize("m", [0, 1])
    def test_profile_deriv_matches_finite_differences(self, m):
        sol = SeparableSolution(alpha=0.7, m=m)
        h = 1e-5
        for theta in (0.3, 1.2, 2.5):
            fd = (sol.profile(theta + h) - sol.profile(theta - h)) / (2 * h)
            assert sol.profile_deriv(theta) == pytest.approx(fd, rel=1e-8)

    @staticmethod
    def assert_profile_deriv_matches_mpmath(alpha, m):
        # d/dt P^m_a(cos t) differentiated by mpmath at 30 digits; the last
        # two angles sit on either side of the cutoff
        below = math.nextafter(M1_AXIS_CUTOFF, 0.0)
        sol = SeparableSolution(alpha=alpha, m=m)
        for theta in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, below, M1_AXIS_CUTOFF):
            with mpmath.workdps(30):
                want = float(
                    mpmath.diff(
                        lambda t: mpmath.legenp(alpha, m, mpmath.cos(t), type=2),
                        mpmath.mpf(theta),
                    )
                )
            got = sol.profile_deriv(theta)
            assert abs(got - want) <= 1e-12 * abs(want), (theta, got, want)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_m1_profile_deriv_matches_mpmath(self, alpha):
        self.assert_profile_deriv_matches_mpmath(alpha, 1)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_m0_profile_deriv_matches_mpmath(self, alpha):
        # the identity of legendre_dp_dz divides by 1 - z^2, which cancels
        # near the axis
        self.assert_profile_deriv_matches_mpmath(alpha, 0)

    @pytest.mark.parametrize("m", [0, 1])
    def test_profile_of_an_array_equals_the_scalar_loop(self, m):
        # bit for bit, profile_deriv included, on grids that cross
        # M1_AXIS_CUTOFF and, past theta = 2.498, Z_SWITCH
        for alpha in (0.013, 0.3, 0.62, 0.8563132551458703, 1.0):
            sol = SeparableSolution(alpha=alpha, m=m)
            for theta0 in np.linspace(0.2, 3.09, 12):
                thetas = np.linspace(0.0 if m == 0 else 1e-3, theta0, 97)
                want = np.array([sol.profile(float(t)) for t in thetas])
                assert sol.profile(thetas).tobytes() == want.tobytes()
                want = np.array([sol.profile_deriv(float(t)) for t in thetas])
                assert sol.profile_deriv(thetas).tobytes() == want.tobytes()

    def test_profile_deriv_of_an_array_near_the_axis(self):
        # the last three angles are where numpy's square of sin(t/2) and
        # libm's pow differ in a bit that reaches the derivative
        for m in (0, 1):
            sol = SeparableSolution(alpha=0.7, m=m)
            thetas = np.array(
                [0.0, 1e-9, M1_AXIS_CUTOFF, 2.0, 0.5967482140486617, 0.8842664973389067,
                 0.9240356117947824]
            )
            want = [sol.profile_deriv(float(t)) for t in thetas]
            assert sol.profile_deriv(thetas).tolist() == want
            assert sol.profile(thetas).tolist() == [sol.profile(float(t)) for t in thetas]

    @pytest.mark.parametrize("theta", [0.0, 1e-9])
    def test_profile_deriv_on_the_axis(self, theta):
        # cos(1e-9) rounds to 1, where the derivative identities are singular
        slope = SeparableSolution(alpha=0.7, m=0).profile_deriv(theta)
        assert slope == pytest.approx(-theta * 0.7 * 1.7 / 2, abs=1e-20)
        slope = SeparableSolution(alpha=0.7, m=1).profile_deriv(theta)
        assert slope == pytest.approx(-0.7 * 1.7 / 2, abs=1e-15)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("theta", [-0.5, 4.0, THETA0_MAX, math.inf, -math.inf, math.nan])
    def test_angle_outside_every_cone_is_rejected(self, m, theta):
        # profile and profile_deriv raise separable_eval's error and message
        sol = SeparableSolution(alpha=0.7, m=m)
        for call in (sol.profile, sol.profile_deriv, lambda t: separable_eval(sol, (1.0, t))):
            with pytest.raises(DomainError, match=r"polar angle must lie in \[0, "):
                call(theta)

    @pytest.mark.parametrize("m", [0, 1])
    def test_array_with_an_angle_outside_every_cone_is_rejected(self, m):
        # the error names the first angle that fails
        sol = SeparableSolution(alpha=0.7, m=m)
        thetas = np.array([0.3, 1.0, 4.0, -0.5, math.nan, 2.0])
        for call in (sol.profile, sol.profile_deriv):
            with pytest.raises(DomainError, match=r"polar angle .* got 4\.0$"):
                call(thetas)

    @pytest.mark.parametrize("r", [5e-324, 1e-310])
    def test_subnormal_radius_is_rejected(self, r):
        # r ** (a - 1) overflows there
        for m in (0, 1):
            with pytest.raises(DomainError, match="radius"):
                separable_eval(SeparableSolution(alpha=0.03125, m=m), (r, 0.0))

    def test_axis_gradient_component_vanishes(self):
        sol = SeparableSolution(alpha=0.6, m=0)
        _, grad_axis = separable_eval(sol, (1.0, 0.0))
        assert grad_axis[1] == 0.0
        for theta in (1e-3, 1e-4):
            _, grad = separable_eval(sol, (1.0, theta))
            assert abs(grad[1]) <= 2.0 * theta

    @pytest.mark.parametrize("alpha,m", [(0.5, 0), (0.8563132551458703, 1)])
    def test_gradient_matches_finite_differences(self, alpha, m):
        theta0 = 2 * math.pi / 3
        points = ((1.0, theta0 / 2), (0.7, 0.9 * theta0))
        assert separable_gradient_gap(SeparableSolution(alpha=alpha, m=m), points) <= 1e-6

    def test_m1_axis_gradient_closed_form(self):
        # near the axis the m=1 profile is -theta a(a+1)/2 + O(theta^3), so
        # the plane gradient at theta = 0 is (0, -a(a+1)/2) r^(a-1)
        alpha = 0.5
        sol = SeparableSolution(alpha=alpha, m=1)
        value, grad = separable_eval(sol, (1.0, 0.0))
        assert value == 0.0
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(-alpha * (alpha + 1) / 2, abs=1e-14)
        # probe angle large enough that the derivative identity in the value
        # path stays well-conditioned (1 - z^2 ~ h^2 near the axis)
        h = 1e-3
        v_plus, _ = separable_eval(sol, (math.hypot(1.0, h), math.atan2(h, 1.0)))
        assert v_plus / h == pytest.approx(grad[1], abs=1e-5)

    @pytest.mark.parametrize("m", [0, 1])
    def test_value_and_gradient_are_the_profile_and_its_derivative(self, m):
        # one pass gives profile and profile_deriv bit for bit, on the axis,
        # where cos t rounds to 1, and on both sides of M1_AXIS_CUTOFF
        thetas = [0.0, 1e-9, 1e-4, 0.5, math.nextafter(M1_AXIS_CUTOFF, 0.0),
                  M1_AXIS_CUTOFF, 2.0, 3.09]
        for alpha in (1e-3, 0.5, 1.0):
            sol = SeparableSolution(alpha=alpha, m=m)
            for r, theta in zip((0.5, 1.0, 7.0) * 3, thetas):
                f, fp = sol.profile(theta), sol.profile_deriv(theta)
                ct, st = math.cos(theta), math.sin(theta)
                want = (r ** alpha * f, (
                    r ** (alpha - 1.0) * (alpha * ct * f - st * fp),
                    r ** (alpha - 1.0) * (alpha * st * f + ct * fp),
                ))
                assert separable_eval(sol, (r, theta)) == want
            f, fp = sol._profile_and_deriv(np.array(thetas))
            assert f.tobytes() == sol.profile(np.array(thetas)).tobytes()
            assert fp.tolist() == [sol.profile_deriv(t) for t in thetas]

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_each_point_takes_each_degree_once(self, monkeypatch, m, theta):
        # F and F' share P_a(cos theta), and P_{a+1} where either needs it: on
        # either side of M1_AXIS_CUTOFF
        calls = []

        def spy(a, z):
            calls.append((a, z))
            return legendre_p(a, z)

        for module in (exponent, legendre):
            monkeypatch.setattr(module, "legendre_p", spy)
        separable_eval(SeparableSolution(alpha=0.5, m=m), (0.5, theta))
        z = math.cos(theta)
        degrees = (0.5,) if m == 0 and theta < M1_AXIS_CUTOFF else (0.5, 1.5)
        assert calls == [(a, z) for a in degrees]

    def test_rejects_bad_points(self):
        sol = SeparableSolution(alpha=0.5)
        for r in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="radius"):
                separable_eval(sol, (r, 0.3))
        # the point lies in the meridional plane: no azimuth component
        with pytest.raises(DomainError, match="components"):
            separable_eval(sol, (1.0, 0.3, 0.0))
        with pytest.raises(DomainError):
            SeparableSolution(alpha=1.5)
        with pytest.raises(DomainError):
            SeparableSolution(alpha=0.5, m=2)


class TestClassification:
    def test_irregular_with_root_attached(self):
        geom = ConeGeometry(theta0=2 * math.pi / 3)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, 1.8))
        assert report.label == IRREGULAR
        assert report.critical_exponent is not None
        assert abs(report.witness("boundary_mismatch_at_root")) <= 1e-10

    def test_regular_barrier(self):
        geom = ConeGeometry(theta0=math.pi / 3)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, 0.6))
        assert report.label == REGULAR_BARRIER
        assert report.critical_exponent is None
        assert report.witness("cos_s_sin_s") > 0.0

    def test_axis_continuous_exactly_at_zero(self):
        geom = ConeGeometry(theta0=math.pi / 3)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, 0.0))
        assert report.label == AXIS_CONTINUOUS

    def test_unknown_band(self):
        geom = ConeGeometry(theta0=2 * math.pi / 3)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, -0.3))
        assert report.label == UNKNOWN

    def test_deterministic(self):
        geom = ConeGeometry(theta0=2.2)
        bc = ObliqueBC.for_cone(geom, -0.9)
        assert classify_regime(geom, bc) == classify_regime(geom, bc)

    def test_s0_attached_everywhere(self):
        for theta0, s in ((1.0, 0.3), (2.0, -0.8), (2.5, 1.1)):
            geom = ConeGeometry(theta0=theta0)
            report = classify_regime(geom, ObliqueBC.for_cone(geom, s))
            assert report.s0 == pytest.approx((theta0 - math.pi) / 2, abs=1e-10)

    def test_witness_order(self):
        geom = ConeGeometry(theta0=2 * math.pi / 3)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, 1.8))
        assert [name for name, _, _ in report.witnesses] == [
            "slope_at_zero",
            "critical_angle_s0",
            "cos_s_sin_s",
            "sign_change_count",
            "critical_exponent",
            "boundary_mismatch_at_root",
        ]
        assert report.witness("critical_exponent") == report.critical_exponent
        barrier = classify_regime(geom, ObliqueBC.for_cone(geom, 0.7))
        assert len(barrier.witnesses) == 4
        assert barrier.witness("critical_exponent") is None

    def test_root_in_the_barrier_regime_is_unknown(self, monkeypatch):
        # a root together with cos(s) sin(s) > 0 contradicts the barrier
        # argument; the scan never finds one, so a stub stands in for it
        geom = ConeGeometry(theta0=math.pi / 3)
        monkeypatch.setattr(exponent, "_bracketed_roots", lambda f, grid, values, xtol: [0.5])
        report = classify_regime(geom, ObliqueBC.for_cone(geom, 0.6))
        assert report.label == UNKNOWN
        assert report.critical_exponent == 0.5
        assert report.witness("cos_s_sin_s") > 0.0
        assert report.mismatch_at_root == boundary_mismatch(geom, 0.5, 0.6)

    def test_boundary_condition_of_another_cone_is_rejected(self):
        # unchecked, this pair classifies as REGULAR_BARRIER on the wrong cone
        geom = ConeGeometry(theta0=2.0)
        other = ObliqueBC.for_cone(ConeGeometry(theta0=1.0), 0.5)
        for call in (
            classify_regime,
            critical_exponent,
            exponent.critical_exponent_scan,
            lambda g, b: classify_many(g, [b]),
        ):
            with pytest.raises(DomainError, match="cone"):
                call(geom, other)

    def test_classify_many_equals_one_cell_at_a_time(self):
        # one profile per row gives each cell the report a row of one gives it
        # (dataclass == compares the floats exactly), and the root and count
        # of a scan of that cell's own mismatch profile
        alphas = np.linspace(exponent.ALPHA_MIN, 1.0, exponent.SCAN_POINTS)
        fractions = [k / 21 for k in range(1, 21)]
        for theta0 in (*(f * THETA0_MAX for f in fractions), *EDGE_THETA0):
            geom = ConeGeometry(theta0=theta0)
            lo, hi = geom.admissible_s_interval()
            bcs = [ObliqueBC.for_cone(geom, lo + f * (hi - lo)) for f in fractions]
            reports = classify_many(geom, bcs)
            assert reports == [classify_regime(geom, bc) for bc in bcs]
            for bc, report in zip(bcs, reports):
                mismatch = partial(boundary_mismatch, geom, s=bc.s)
                roots = _bracketed_roots(mismatch, alphas, mismatch(alphas), exponent.ROOT_XTOL)
                assert report.critical_exponent == (roots[0] if roots else None)
                assert report.sign_changes == len(roots)

    def test_classify_many_of_no_boundary_condition_is_empty(self):
        assert classify_many(ConeGeometry(theta0=2.0), []) == []

    @pytest.mark.parametrize("theta0", EDGE_THETA0)
    def test_domain_edge_root(self, theta0):
        # s just above the admissible minimum: slope < 0 < cos s guarantees a root
        geom = ConeGeometry(theta0=theta0)
        lo, hi = geom.admissible_s_interval()
        s = lo + 0.002 * (hi - lo)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, s))
        assert report.label == IRREGULAR
        root = report.critical_exponent
        assert 1e-3 < root < 1.0
        assert abs(quadrature_mismatch(theta0, root, s)) <= 1e-8
        assert report.s0 == pytest.approx((theta0 - math.pi) / 2, abs=1e-10)

    @pytest.mark.parametrize("theta0", EDGE_THETA0)
    def test_domain_edge_barrier_regime(self, theta0):
        geom = ConeGeometry(theta0=theta0)
        report = classify_regime(geom, ObliqueBC.for_cone(geom, 1.0))
        assert report.label == REGULAR_BARRIER


def test_no_module_loops_profile_over_angles():
    # an angular profile over a grid is one array call to profile or
    # profile_deriv, never a comprehension of scalar calls
    package = Path(exponent.__file__).parent
    loops = []
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for comp in (n for n in ast.walk(tree) if isinstance(n, comprehensions)):
            for node in ast.walk(comp):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("profile", "profile_deriv"):
                    loops.append(f"{path.name}:{node.lineno}")
    assert loops == []
