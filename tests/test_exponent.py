"""Counterexample engine: mismatch functions, roots, classification.

Finite-difference oracles are implemented locally so they stay independent
of the analytic code paths they validate.
"""

import math

import mpmath
import numpy as np
import pytest

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
from obliquecone.geometry import ConeGeometry, ObliqueBC
from obliquecone.legendre import (
    legendre_dp1_dz,
    legendre_p,
    legendre_p1,
    legendre_p_quadrature,
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


def u_value(alpha, y1, y2):
    r = math.hypot(y1, y2)
    return r ** alpha * legendre_p(alpha, y1 / r)


def fd_gradient(fn, y1, y2, h):
    g1 = (fn(y1 + h, y2) - fn(y1 - h, y2)) / (2 * h)
    g2 = (fn(y1, y2 + h) - fn(y1, y2 - h)) / (2 * h)
    return g1, g2


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
        g1, g2 = fd_gradient(lambda a, b: u_value(alpha, a, b), y1, y2, 1e-6)
        assert u1(theta, alpha) == pytest.approx(g1, abs=1e-8)
        assert u2(theta, alpha) == pytest.approx(g2, abs=1e-8)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            u1(0.0, 0.5)
        with pytest.raises(DomainError):
            u2(1.0, 2.5)


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
        g1, g2 = fd_gradient(lambda a, b: u_value(alpha, a, b), y1, y2, 1e-6)
        fd = math.cos(s) * g1 + math.sin(s) * g2
        assert boundary_mismatch(geom, alpha, s) == pytest.approx(fd, abs=1e-6)


class TestSlopeAndCriticalAngle:
    @pytest.mark.parametrize("theta0", THETA_GRID)
    def test_slope_endpoint_values(self, theta0):
        geom = ConeGeometry(theta0=float(theta0))
        assert slope_at_zero(geom, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert slope_at_zero(geom, -math.pi + geom.theta0) == pytest.approx(
            -1.0, abs=1e-12
        )

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

    def test_critical_angle_closed_form_on_grid(self):
        for theta0 in np.linspace(0.25, 2.7, 100):
            geom = ConeGeometry(theta0=float(theta0))
            assert abs(critical_angle_s0(geom) - (geom.theta0 - math.pi) / 2) <= 1e-10


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
        for r in np.linspace(0.1, 1.0, 20):
            r = float(r)
            y1, y2 = r * math.cos(theta0), r * math.sin(theta0)
            g1, g2 = fd_gradient(lambda a, b: u_value(root, a, b), y1, y2, 1e-5 * r)
            residual = abs(math.cos(s) * g1 + math.sin(s) * g2)
            assert residual <= 1e-6 * r ** (root - 1.0)

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
        n1, n2 = math.sin(theta0), -math.cos(theta0)

        def mode(y1, y2):
            r = math.hypot(y1, y2)
            return r ** root * legendre_p1(root, y1 / r)

        for r in np.linspace(0.2, 1.0, 10):
            r = float(r)
            y1, y2 = r * math.cos(theta0), r * math.sin(theta0)
            g1, g2 = fd_gradient(mode, y1, y2, 1e-5 * r)
            assert abs(n1 * g1 + n2 * g2) <= 1e-6 * r ** (root - 1.0)

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

    @pytest.mark.parametrize("theta", [0.0, 1e-9])
    def test_profile_deriv_on_the_axis(self, theta):
        # cos(1e-9) rounds to 1, where the derivative identities are singular
        slope = SeparableSolution(alpha=0.7, m=0).profile_deriv(theta)
        assert slope == pytest.approx(-theta * 0.7 * 1.7 / 2, abs=1e-20)
        slope = SeparableSolution(alpha=0.7, m=1).profile_deriv(theta)
        assert slope == pytest.approx(-0.7 * 1.7 / 2, abs=1e-15)

    def test_axis_gradient_component_vanishes(self):
        sol = SeparableSolution(alpha=0.6, m=0)
        _, grad_axis = separable_eval(sol, (1.0, 0.0))
        assert grad_axis[1] == 0.0
        for theta in (1e-3, 1e-4):
            _, grad = separable_eval(sol, (1.0, theta))
            assert abs(grad[1]) <= 2.0 * theta

    @pytest.mark.parametrize("alpha,m", [(0.5, 0), (0.8563132551458703, 1)])
    def test_gradient_matches_finite_differences(self, alpha, m):
        sol = SeparableSolution(alpha=alpha, m=m)
        theta0 = 2 * math.pi / 3
        for r, theta in ((1.0, theta0 / 2), (0.7, 0.9 * theta0)):

            def value(y1, y2):
                rr = math.hypot(y1, y2)
                return separable_eval(sol, (rr, math.atan2(y2, y1), 0.0))[0]

            y1, y2 = r * math.cos(theta), r * math.sin(theta)
            g1, g2 = fd_gradient(value, y1, y2, 1e-6 * r)
            _, grad = separable_eval(sol, (r, theta, 0.0))
            scale = max(abs(grad[0]), abs(grad[1]))
            assert abs(grad[0] - g1) <= 1e-6 * scale
            assert abs(grad[1] - g2) <= 1e-6 * scale

    def test_m1_axis_gradient_closed_form(self):
        # near the axis the m=1 profile is -theta a(a+1)/2 + O(theta^3), so
        # the plane gradient at theta = 0 is (0, -a(a+1)/2) r^(a-1)
        alpha = 0.5
        sol = SeparableSolution(alpha=alpha, m=1)
        value, grad = separable_eval(sol, (1.0, 0.0, 0.0))
        assert value == 0.0
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(-alpha * (alpha + 1) / 2, abs=1e-14)
        # probe angle large enough that the derivative identity in the value
        # path stays well-conditioned (1 - z^2 ~ h^2 near the axis)
        h = 1e-3
        v_plus, _ = separable_eval(sol, (math.hypot(1.0, h), math.atan2(h, 1.0), 0.0))
        assert v_plus / h == pytest.approx(grad[1], abs=1e-5)

    def test_azimuthal_factor(self):
        sol = SeparableSolution(alpha=0.5, m=1, c=0.0, d=1.0)
        v0, _ = separable_eval(sol, (1.0, 0.7, 0.0))
        vq, _ = separable_eval(sol, (1.0, 0.7, math.pi / 2))
        assert vq == pytest.approx(0.0, abs=1e-15)
        assert v0 == pytest.approx(legendre_p1(0.5, math.cos(0.7)), abs=1e-14)

    def test_rejects_bad_points(self):
        sol = SeparableSolution(alpha=0.5)
        with pytest.raises(DomainError):
            separable_eval(sol, (0.0, 0.3))
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
