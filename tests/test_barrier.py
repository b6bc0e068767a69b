"""Barrier construction and the tilted boundary-operator coefficients."""

import math

import numpy as np
import pytest

from obliquecone import barrier as barrier_module
from obliquecone import exponent, legendre
from obliquecone.barrier import (
    ALPHA0_XTOL,
    BARRIER_CHECK_POINTS,
    BARRIER_DEGREE_MIN,
    TILT_FLOOR,
    MillerBarrier,
    alpha0,
    build_barrier,
    m1_coefficient,
    m2_coefficient,
    max_admissible_tilt,
    rotate_coefficients,
)
from obliquecone.errors import (
    DegenerateBC,
    DomainError,
    InvalidAlpha,
    InvalidOperator,
    InvalidTilt,
    NoAdmissibleTilt,
)
from obliquecone.exponent import M1_AXIS_CUTOFF, SeparableSolution, separable_eval
from obliquecone.geometry import ConeGeometry, ObliqueBC
from obliquecone.legendre import legendre_p
from obliquecone.verify import (
    M1_FD_CASES,
    central_difference,
    m1_closed_vs_fd_gap,
    separable,
)


def draw_m1_fd_cases(seed):
    """Ten barrier-regime (theta0, s, alpha) cases drawn from `seed`:
    theta0 in [0.4, 2.6], s at least 0.1 inside the admissible interval with
    cos(s) sin(s) > 0.01 (a rejected s draws no degree), degree in
    [0.01, 0.06]."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < 10:
        theta0 = float(rng.uniform(0.4, 2.6))
        lo, hi = ConeGeometry(theta0=theta0).admissible_s_interval()
        s = float(rng.uniform(lo + 0.1, hi - 0.1))
        if math.cos(s) * math.sin(s) <= 0.01:
            continue
        cases.append((theta0, s, float(rng.uniform(0.01, 0.06))))
    return tuple(cases)


# frozen bisection-oracle thresholds
ALPHA0_EXPECTED = {
    2 * math.pi / 3: 0.6015093093965375,
    3 * math.pi / 4: 0.4630985617533726,
    3.0: 0.18600902113698425,
}
# frozen quadrature-oracle value of P_0.1(cos(3 pi/4))
CSTAR_TENTH_AT_3PI4 = 0.797387587234196


class TestAlpha0:
    def test_no_zero_means_one(self):
        assert alpha0(ConeGeometry(theta0=math.pi / 3)) == 1.0
        assert alpha0(ConeGeometry(theta0=math.pi / 2)) == 1.0

    @pytest.mark.parametrize("theta0", sorted(ALPHA0_EXPECTED))
    def test_first_positivity_loss(self, theta0):
        geom = ConeGeometry(theta0=theta0)
        threshold = alpha0(geom)
        assert threshold == pytest.approx(ALPHA0_EXPECTED[theta0], abs=1e-9)
        # sign change certified by endpoint evaluations around the threshold
        assert legendre_p(threshold - 1e-6, geom.z0) > 0.0
        assert legendre_p(threshold + 1e-6, geom.z0) < 0.0


class TestBuildBarrier:
    def test_certified_profile(self):
        geom = ConeGeometry(theta0=3 * math.pi / 4)
        b = build_barrier(geom, 0.1)
        assert b.cstar == pytest.approx(CSTAR_TENTH_AT_3PI4, abs=1e-11)
        thetas = np.linspace(0.0, geom.theta0, 500)
        values = np.array([b.profile(float(t)) for t in thetas])
        assert values.min() >= b.cstar - 1e-12
        assert values.max() <= 1.0 + 1e-12
        assert max(b.profile_deriv(float(t)) for t in thetas[1:]) < 0.0
        assert abs((b.profile(1e-7) - 1.0) / 1e-7) <= 1e-8

    def test_bounds_on_sample_grid(self):
        geom = ConeGeometry(theta0=2 * math.pi / 3)
        b = build_barrier(geom, 0.05)
        for r in (0.1, 0.5, 1.0):
            for theta in np.linspace(0.0, geom.theta0, 50):
                v, _ = separable_eval(b, (r, float(theta)))
                assert b.cstar * r ** 0.05 - 1e-12 <= v <= r ** 0.05 + 1e-12

    def test_profile_tends_to_one_for_small_degree(self):
        geom = ConeGeometry(theta0=3 * math.pi / 4)
        b = build_barrier(geom, 1e-4)
        sup = max(
            abs(b.profile(float(t)) - 1.0)
            for t in np.linspace(0.0, geom.theta0, 200)
        )
        assert sup <= 1e-2

    @pytest.mark.parametrize("alpha", [0.34, 0.5])
    def test_certifies_larger_degrees(self, alpha):
        # alpha0 = 1 here, so these are valid barriers; a plain one-sided
        # F'(0) quotient with h = 1e-7 would reject them through its
        # truncation error a(a+1)h/4 > 1e-8
        geom = ConeGeometry(theta0=1.2)
        assert alpha0(geom) == 1.0
        b = build_barrier(geom, alpha)
        assert b.cstar == pytest.approx(legendre_p(alpha, geom.z0), abs=0.0)

    def test_rejects_degree_beyond_threshold(self):
        geom = ConeGeometry(theta0=2 * math.pi / 3)
        with pytest.raises(InvalidAlpha):
            build_barrier(geom, 0.7)
        with pytest.raises(InvalidAlpha):
            build_barrier(geom, 0.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-16, 0.5 * barrier_module.BARRIER_DEGREE_MIN])
    def test_rejects_a_degree_below_the_floor_up_front(self, alpha):
        # at 1e-16 the off-axis F' rounds to 0 and certification used to fail
        with pytest.raises(InvalidAlpha, match=r"must lie in \[1e-12, 1\)"):
            build_barrier(ConeGeometry(theta0=1.5), alpha)
        build_barrier(ConeGeometry(theta0=1.5), barrier_module.BARRIER_DEGREE_MIN)

    @pytest.mark.parametrize("theta0", [1.61, 1.62, 2.5])
    def test_degrees_within_the_threshold_tolerance_are_rejected(self, theta0):
        # alpha0 is a bisection midpoint up to ALPHA0_XTOL / 2 above the zero
        # of F_a(theta0): just below it c* could be negative
        geom = ConeGeometry(theta0=theta0)
        a0 = alpha0(geom)
        with pytest.raises(InvalidAlpha, match="by its tolerance"):
            build_barrier(geom, math.nextafter(a0, 0.0))
        assert build_barrier(geom, a0 - barrier_module.ALPHA0_XTOL * 1.01).cstar > 0.0

    def test_cstar_is_derived_from_the_cone(self):
        # c* = F(theta0) is computed, so a barrier cannot carry a wrong one
        geom = ConeGeometry(theta0=1.0)
        assert MillerBarrier(alpha=0.05, theta0=1.0) == build_barrier(geom, 0.05)
        with pytest.raises(TypeError):
            MillerBarrier(alpha=0.05, theta0=1.0, cstar=7.0)

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 2.0, 3.0])
    def test_edge_slope_is_the_profile_derivative_bit_for_bit(self, theta0):
        # F'(theta0) is derived once, on both sides of M1_AXIS_CUTOFF = 1
        for alpha in (1e-12, 0.05, 0.3):
            b = MillerBarrier(alpha=alpha, theta0=theta0)
            want = SeparableSolution(alpha=alpha).profile_deriv(theta0)
            assert type(b.fprime) is float and b.fprime == want
        with pytest.raises(TypeError):
            MillerBarrier(alpha=0.05, theta0=1.0, fprime=7.0)

    def test_direct_barrier_on_no_cone_is_rejected(self):
        # unchecked, m2_coefficient would read F(5.0) as c*
        with pytest.raises(DomainError):
            MillerBarrier(alpha=0.05, theta0=5.0)

    def test_gradient_matches_finite_differences(self):
        geom = ConeGeometry(theta0=2.0)
        b = build_barrier(geom, 0.3)
        r, theta = 0.8, 1.1
        y1, y2 = r * math.cos(theta), r * math.sin(theta)
        u = separable(legendre_p, 0.3)
        g1 = central_difference(u, y1, y2, 1.0, 0.0, 1e-6)
        g2 = central_difference(u, y1, y2, 0.0, 1.0, 1e-6)
        _, got = separable_eval(b, (r, theta))
        assert got[0] == pytest.approx(g1, rel=1e-8)
        assert got[1] == pytest.approx(g2, rel=1e-8)


class TestRotateCoefficients:
    def test_normal_obliqueness_gives_identity(self):
        theta0 = 2.0
        bc = ObliqueBC(s=theta0 - math.pi / 2, theta0=theta0)  # beta0 = nu
        rc = rotate_coefficients(np.eye(2), bc)
        np.testing.assert_allclose(rc.atilde, np.eye(2), atol=1e-15)
        assert rc.obliqueness == pytest.approx(1.0, abs=1e-15)

    def test_unit_rows_give_unit_diagonal(self):
        bc = ObliqueBC(s=0.4, theta0=2.0)
        rc = rotate_coefficients(np.eye(2), bc)
        assert rc.a11 == pytest.approx(1.0, abs=1e-15)
        assert rc.a22 == pytest.approx(1.0, abs=1e-15)

    def test_direct_product(self):
        bc = ObliqueBC(s=-0.7, theta0=1.3)
        a0 = np.diag([2.0, 1.0])
        rc = rotate_coefficients(a0, bc)
        J = np.array([bc.beta0, bc.tau])
        np.testing.assert_allclose(rc.atilde, J @ a0 @ J.T, atol=1e-15)
        lam, Lam = 1.0, 2.0
        eps = bc.obliqueness
        for entry in (rc.a11, rc.a22):
            assert lam - 1e-12 <= entry <= Lam / eps ** 2 + 1e-12

    def test_rejects_bad_matrices(self):
        bc = ObliqueBC(s=0.4, theta0=2.0)
        with pytest.raises(InvalidOperator):
            rotate_coefficients(np.array([[1.0, 0.2], [0.0, 1.0]]), bc)
        with pytest.raises(InvalidOperator):
            rotate_coefficients(np.diag([1.0, -1.0]), bc)
        with pytest.raises(InvalidOperator):
            rotate_coefficients(np.eye(2), bc, b21=0.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_entry_before_the_eigenvalues(self, entry):
        bc = ObliqueBC(s=0.4, theta0=2.0)
        for a0 in (np.diag([entry, 1.0]), np.array([[1.0, entry], [entry, 1.0]])):
            with pytest.raises(InvalidOperator, match="^plane coefficients must be finite$"):
                rotate_coefficients(a0, bc)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_certifies_widely_spread_eigenvalues(self, s):
        # at s = 0, a11~ = 1e-8 is the smaller eigenvalue itself: mid - rad
        # gives it 5e-10 too large, outside the bracket's 1e-12 margin
        bc = ObliqueBC(s=s, theta0=2.0)
        rc = rotate_coefficients(np.diag([1e-8, 1.0]), bc)
        if s == 0.0:
            assert rc.atilde[0, 0] == 1e-8
        assert 1e-8 * (1.0 - 1e-12) <= min(rc.a11, rc.a22)

    def test_atilde_is_the_matrix_product_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.uniform(-1.0, 1.0, (2, 2))
            a0 = m @ m.T + 0.1 * np.eye(2)
            theta0 = float(rng.uniform(0.3, 3.0))
            s = float(rng.uniform(theta0 - math.pi + 0.1, theta0 - 0.1))
            bc = ObliqueBC(s=s, theta0=theta0)
            J = np.array([bc.beta0, bc.tau])
            assert rotate_coefficients(a0, bc).atilde.tobytes() == (J @ a0 @ J.T).tobytes()

    @pytest.mark.parametrize("b21", [math.nan, math.inf])
    def test_rejects_non_finite_singular_term(self, b21):
        bc = ObliqueBC(s=0.4, theta0=2.0)
        with pytest.raises(InvalidOperator, match="finite and positive"):
            rotate_coefficients(np.eye(2), bc, b21=b21)


def make_setup(theta0, s, alpha):
    geom = ConeGeometry(theta0=theta0)
    bc = ObliqueBC.for_cone(geom, s)
    b = build_barrier(geom, alpha)
    rc = rotate_coefficients(np.eye(2), bc)
    return geom, bc, b, rc


class TestBoundaryCoefficients:
    def test_barrier_of_another_cone_is_rejected(self):
        # unchecked, m1 reads -3.80 here: F and F' of the theta0 = 2 cone
        # combined with the geometry of the theta0 = 1 edge
        _, bc, _, rc = make_setup(1.0, 0.5, 0.05)
        other = build_barrier(ConeGeometry(theta0=2.0), 0.05)
        for call in (
            lambda: m1_coefficient(other, bc, rc),
            lambda: m2_coefficient(other, bc, rc, 0.25),
            lambda: max_admissible_tilt(bc, other, rc),
        ):
            with pytest.raises(DomainError, match="barrier"):
                call()

    def test_coefficients_rotated_for_another_bc_are_rejected(self):
        # unchecked, diag(1, 3) rotated for s = -1.8 read m1 = -1.3153 on the
        # s = 0.5 edge
        _, bc, b, rc = make_setup(1.0, 0.5, 0.05)
        assert rc.bc == bc and rc.obliqueness == bc.obliqueness
        assert m1_coefficient(b, bc, rc) == -3.7955275645657407
        # other plane coefficients rotated for the same bc are accepted
        assert m1_coefficient(b, bc, rotate_coefficients(np.diag([1.0, 3.0]), bc)) < 0.0
        other = rotate_coefficients(np.diag([1.0, 3.0]), ObliqueBC(s=-1.8, theta0=1.0))
        for call in (
            lambda: m1_coefficient(b, bc, other),
            lambda: m2_coefficient(b, bc, other, 0.25),
            lambda: max_admissible_tilt(bc, b, other),
        ):
            with pytest.raises(DomainError, match="rotated"):
                call()

    @pytest.mark.parametrize("theta0", [0.4, math.pi / 3, 2.0, 3 * math.pi / 4, 3.0])
    def test_cstar_is_the_profile_at_the_edge(self, theta0):
        # m2_coefficient reads F(theta0) as c*; both are the same kernel call
        b = build_barrier(ConeGeometry(theta0=theta0), 0.05)
        assert b.cstar == b.profile(theta0)

    def test_small_degree_limit(self):
        # with F -> 1 and F' -> 0 only the zero-order term survives
        theta0, s = 2.0, 0.5
        _, bc, b, rc = make_setup(theta0, s, 1e-6)
        b1, b2 = bc.beta0
        limit = -(1.0 / bc.obliqueness) * (b1 / b2) * (rc.b21 / rc.a11)
        assert m1_coefficient(b, bc, rc) == pytest.approx(limit, abs=1e-4)

    @pytest.mark.parametrize(
        "theta0,s",
        [
            (math.pi / 3, 0.5),
            (math.pi / 3, -1.8),
            (2 * math.pi / 3, 0.4),
            (3 * math.pi / 4, 0.7),
        ],
    )
    def test_negative_in_sign_regime(self, theta0, s):
        assert math.cos(s) * math.sin(s) > 0.0
        _, bc, b, rc = make_setup(theta0, s, 0.05)
        assert m1_coefficient(b, bc, rc) < 0.0

    def test_closed_form_matches_directional_differences(self):
        assert m1_closed_vs_fd_gap(draw_m1_fd_cases(seed=7)) <= 1e-8

    def test_verify_cases_are_the_draw_from_seed_20240817(self):
        # verify keeps the draw as a table, so a run does not load numpy.random
        drawn = draw_m1_fd_cases(seed=20240817)
        assert [tuple(map(float.hex, case)) for case in M1_FD_CASES] == [
            tuple(map(float.hex, case)) for case in drawn
        ]
        assert all(type(x) is float for case in M1_FD_CASES for x in case)

    def test_tilt_zero_collapses_exactly(self):
        _, bc, b, rc = make_setup(2 * math.pi / 3, 0.4, 0.05)
        assert m2_coefficient(b, bc, rc, 0.0) == m1_coefficient(b, bc, rc)

    def test_tilted_coefficient_stays_negative(self):
        _, bc, b, rc = make_setup(2 * math.pi / 3, 0.4, 0.05)
        values = [m2_coefficient(b, bc, rc, t) for t in (1e-2, 5e-3, 1e-3)]
        assert all(v < 0.0 for v in values)
        # continuity: shrinking tilt approaches the untilted coefficient
        m1 = m1_coefficient(b, bc, rc)
        gaps = [abs(v - m1) for v in values]
        assert gaps == sorted(gaps, reverse=True)

    def test_tilt_preconditions(self):
        _, bc, b, rc = make_setup(math.pi / 3, 0.5, 0.05)
        with pytest.raises(InvalidTilt):
            m2_coefficient(b, bc, rc, -0.1)
        with pytest.raises(InvalidTilt):
            # nu1 + tilt nu2 <= 0 for an acute cone and large tilt
            m2_coefficient(b, bc, rc, 2.0)
        _, bc2, b2, rc2 = make_setup(2.0, 0.1, 0.05)
        with pytest.raises(InvalidTilt):
            # beta2 - tilt beta1 changes sign
            m2_coefficient(b2, bc2, rc2, 0.5)

    @pytest.mark.parametrize("tilt", [math.nan, math.inf])
    def test_non_finite_tilt_rejected(self, tilt):
        _, bc, b, rc = make_setup(math.pi / 3, 0.5, 0.05)
        with pytest.raises(InvalidTilt, match="finite and nonnegative"):
            m2_coefficient(b, bc, rc, tilt)

    def test_degenerate_boundary_vector(self):
        theta0 = 2.0
        geom = ConeGeometry(theta0=theta0)
        bc = ObliqueBC.for_cone(geom, 0.0)  # beta0 = (1, 0)
        b = build_barrier(geom, 0.05)
        rc = rotate_coefficients(np.eye(2), bc)
        with pytest.raises(DegenerateBC):
            m1_coefficient(b, bc, rc)


class TestMaxAdmissibleTilt:
    @pytest.mark.parametrize(
        "theta0,s",
        [(math.pi / 3, 0.5), (2 * math.pi / 3, 0.4), (math.pi / 3, -1.8)],
    )
    def test_positive_tilt_found(self, theta0, s):
        _, bc, b, rc = make_setup(theta0, s, 0.05)
        tilt = max_admissible_tilt(bc, b, rc)
        assert tilt >= 1e-6
        assert m2_coefficient(b, bc, rc, tilt) < 0.0

    def test_floor_reached_raises(self, monkeypatch):
        # a negative untilted coefficient and a positive one at every tilt:
        # the search halves down to the floor and gives up there
        _, bc, b, rc = make_setup(math.pi / 3, 0.5, 0.05)
        tried = []

        def stub(barrier_, bc_, rc_, tilt):
            tried.append(tilt)
            return -1.0 if tilt == 0.0 else 1.0

        monkeypatch.setattr(barrier_module, "m2_coefficient", stub)
        with pytest.raises(NoAdmissibleTilt, match="floor"):
            max_admissible_tilt(bc, b, rc)
        assert tried[0] == 0.0 and tried[1] == 1.0
        assert min(tried[1:]) >= TILT_FLOOR > 0.5 * min(tried[1:])

    def test_requires_negative_untilted_coefficient(self):
        # s in the irregular branch flips the zero-order sign
        _, bc, b, rc = make_setup(2 * math.pi / 3, 1.8, 0.05)
        with pytest.raises(NoAdmissibleTilt):
            max_admissible_tilt(bc, b, rc)


#: Cones of the threshold table: a sweep of the admissible range and the
#: cones the other barrier tests pin.
TABLE_CONES = np.linspace(0.2, 3.09, 60).tolist() + [
    math.pi / 3, 2 * math.pi / 3, 3 * math.pi / 4, 1.61, 1.62, 2.5,
]


def full_scan_outcome(geom, alpha):
    """build_barrier's outcome, (c*, fprime) or the error's type and text,
    with the threshold taken from the whole alpha0 scan."""
    try:
        if not (BARRIER_DEGREE_MIN <= alpha < 1.0):
            raise InvalidAlpha(
                f"barrier degree must lie in [{BARRIER_DEGREE_MIN:g}, 1), got {alpha}"
            )
        a0 = alpha0(geom)
        if alpha >= a0 - ALPHA0_XTOL:
            raise InvalidAlpha(
                f"degree {alpha} is not below the positivity threshold {a0:.12g} "
                f"by its tolerance {ALPHA0_XTOL:g}"
            )
    except InvalidAlpha as exc:
        return type(exc), str(exc)
    b = MillerBarrier(alpha=alpha, theta0=geom.theta0)
    # no degree of the table fails the certificate itself
    thetas = np.linspace(0.0, geom.theta0, BARRIER_CHECK_POINTS)
    values = b.profile(thetas)
    assert 0.0 < b.cstar <= 1.0
    assert b.cstar - 1e-12 <= values.min() and values.max() <= 1.0 + 1e-12
    assert b.profile_deriv(thetas[1:]).max() < 0.0
    return b.cstar, b.fprime


@pytest.mark.parametrize("seed,theta0", list(enumerate(TABLE_CONES)))
def test_threshold_from_a_prefix_of_the_scan_decides_as_the_whole_scan(seed, theta0):
    # build_barrier scans alpha0's grid only as far as alpha needs; on a cone
    # with no zero alpha0 is 1, so the degrees in [1 - ALPHA0_XTOL, 1) stay
    # rejected there
    geom = ConeGeometry(theta0=theta0)
    a0 = alpha0(geom)
    degrees = [
        1e-12, 1e-4, 0.05, 0.3, 0.7, 1.0 - 1e-10, math.nextafter(1.0, 0.0),
        a0 - 1.01 * ALPHA0_XTOL, a0 - ALPHA0_XTOL, math.nextafter(a0, 0.0), a0,
        *np.random.default_rng(seed).uniform(BARRIER_DEGREE_MIN, 1.0, 5).tolist(),
    ]
    for alpha in degrees:
        try:
            b = build_barrier(geom, alpha)
            got = b.cstar, b.fprime
        except InvalidAlpha as exc:
            got = type(exc), str(exc)
        assert got == full_scan_outcome(geom, alpha), alpha


def test_threshold_scan_and_certificate_evaluate_each_point_once(monkeypatch):
    # at 2pi/3 alpha0 is 0.60, so a = 0.05 needs about a twentieth of the
    # 400-node scan; the certificate takes P_a once at each grid angle and
    # P_{a+1} once at each angle off the axis
    geom, alpha = ConeGeometry(theta0=2 * math.pi / 3), 0.05
    scan, grid_calls = [], []

    def spy(calls, real):
        def p(a, z):
            calls.append((np.asarray(a, dtype=float).copy(), np.asarray(z, dtype=float).copy()))
            return real(a, z)
        return p

    monkeypatch.setattr(barrier_module, "legendre_p", spy(scan, legendre_p))
    monkeypatch.setattr(exponent, "legendre_p", spy(grid_calls, legendre_p))
    monkeypatch.setattr(legendre, "legendre_p", spy(grid_calls, legendre_p))
    build_barrier(geom, alpha)
    # the one scalar call at alpha itself is c*
    scanned = [a for a, _ in scan if not (a.ndim == 0 and a == alpha)]
    assert 0 < sum(a.size for a in scanned) <= 25
    thetas = np.linspace(0.0, geom.theta0, BARRIER_CHECK_POINTS)
    cosines = np.array([math.cos(t) for t in thetas])
    at_a = np.concatenate([z for a, z in grid_calls if z.ndim == 1 and a == alpha])
    at_a1 = np.concatenate([z for a, z in grid_calls if z.ndim == 1 and a == alpha + 1.0])
    assert np.isin(cosines, at_a).all()
    assert np.isin(at_a, cosines).sum() == BARRIER_CHECK_POINTS
    assert sorted(at_a1) == sorted(cosines[thetas >= M1_AXIS_CUTOFF])


@pytest.mark.parametrize("bad", ["0.05", None, np.array([0.05]), np.array(0.05)])
def test_a_barrier_degree_of_no_real_type_is_named(bad):
    with pytest.raises(InvalidAlpha, match="^barrier degree must be one real number"):
        build_barrier(ConeGeometry(theta0=2.0), bad)
    # numpy scalars are real numbers
    geom = ConeGeometry(theta0=2.0)
    assert build_barrier(geom, np.float64(0.05)) == build_barrier(geom, 0.05)


@pytest.mark.parametrize("theta0", [0.5, 2.0])
def test_construction_takes_p_a_at_the_edge_once(monkeypatch, theta0):
    # c* and F'(theta0) come from one P_a(cos theta0), on either side of
    # M1_AXIS_CUTOFF
    calls = []

    def spy(a, z):
        calls.append((a, z))
        return legendre_p(a, z)

    for module in (barrier_module, exponent, legendre):
        monkeypatch.setattr(module, "legendre_p", spy)
    MillerBarrier(alpha=0.3, theta0=theta0)
    assert calls.count((0.3, math.cos(theta0))) == 1


@pytest.mark.parametrize(
    "grid,lo,points",
    [
        (exponent.SCAN_ALPHAS, exponent.ALPHA_MIN, exponent.SCAN_POINTS),
        (barrier_module.ALPHA0_GRID, 1e-6, barrier_module.ALPHA0_SCAN_POINTS),
    ],
    ids=["exponent", "alpha0"],
)
def test_a_shared_scan_grid_is_read_only(grid, lo, points):
    # every scan reads one module-level grid, so a write would move them all
    assert np.array_equal(grid, np.linspace(lo, 1.0, points))
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.5
