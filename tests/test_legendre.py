"""Tests of the real-degree Legendre kernel.

Derived expectations follow the quadrature oracle, mpmath and Richardson
finite differences, all independent of the hypergeometric evaluation path.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquecone import legendre
from obliquecone.errors import DomainError
from obliquecone.geometry import THETA0_MAX
from obliquecone.legendre import (
    _INTEGER_TOL,
    DEGREE_MAX,
    Z_SWITCH,
    legendre_dp1_dz,
    legendre_dp_dalpha,
    legendre_dp_dz,
    legendre_p,
    legendre_p1,
    legendre_p_many,
    legendre_p_quadrature,
)

# frozen from the quadrature oracle
P_HALF_AT_ZERO = 0.5393526011883792
P_QUARTER_AT_MINUS09 = 0.20586649239981056


def richardson_dz(alpha, z, h=1e-6):
    coarse = (legendre_p(alpha, z + h) - legendre_p(alpha, z - h)) / (2 * h)
    fine = (legendre_p(alpha, z + h / 2) - legendre_p(alpha, z - h / 2)) / h
    return (4 * fine - coarse) / 3


class TestLegendreP:
    def test_degree_one_is_identity(self):
        assert legendre_p(1.0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_value_one_at_argument_one(self):
        assert legendre_p(0.7, 1.0) == 1.0

    def test_half_degree_at_zero_matches_quadrature_oracle(self):
        assert legendre_p(0.5, 0.0) == pytest.approx(P_HALF_AT_ZERO, abs=1e-12)
        # the oracle itself reproduces its frozen value
        assert legendre_p_quadrature(0.5, 0.0) == pytest.approx(
            P_HALF_AT_ZERO, abs=1e-12
        )

    def test_negative_argument_matches_oracle(self):
        assert legendre_p(0.25, -0.9) == pytest.approx(
            P_QUARTER_AT_MINUS09, abs=1e-11
        )

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 3.0, 50))
    def test_value_at_one_is_one(self, alpha):
        assert abs(legendre_p(float(alpha), 1.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "alpha,poly",
        [
            (0.0, lambda z: 1.0),
            (1.0, lambda z: z),
            (2.0, lambda z: 0.5 * (3 * z * z - 1)),
            (3.0, lambda z: 0.5 * (5 * z ** 3 - 3 * z)),
        ],
    )
    def test_integer_degrees_match_polynomials(self, alpha, poly):
        for z in np.linspace(-0.9, 1.0, 39):
            assert abs(legendre_p(alpha, float(z)) - poly(float(z))) <= 1e-12

    def test_series_vs_quadrature_cross_validation(self):
        worst = 0.0
        for alpha in (0.25, 0.5, 0.75):
            for z in np.linspace(-0.9, 1.0, 25):
                gap = abs(legendre_p(alpha, float(z)) - legendre_p_quadrature(alpha, float(z)))
                worst = max(worst, gap)
        assert worst <= 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            legendre_p(0.5, -0.9999)
        with pytest.raises(DomainError):
            legendre_p(0.5, 1.0 + 1e-12)
        with pytest.raises(DomainError):
            legendre_p(-1.5, 0.2)
        with pytest.raises(DomainError):
            legendre_p(math.inf, 0.2)

    def test_rejects_degrees_above_cap(self):
        # uncapped, the kernel gives 3117 here, where mpmath gives -0.141
        with pytest.raises(DomainError):
            legendre_p(27.51, -0.709)
        with pytest.raises(DomainError):
            legendre_p_many(np.array([0.5, 27.51]), -0.709)
        with pytest.raises(DomainError):
            legendre_p(math.nextafter(DEGREE_MAX, math.inf), 0.2)
        assert legendre_p(DEGREE_MAX, 1.0) == 1.0

    def test_near_cutoff_matches_quadrature(self):
        # just inside the argument cutoff -1 + 1e-3
        assert legendre_p(0.5, -0.9985) == pytest.approx(
            legendre_p_quadrature(0.5, -0.9985), abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        alphas = np.array([0.0, 0.3, 1.0, 1.7, 2.4])
        got = legendre_p_many(alphas, -0.4)
        want = [legendre_p(float(a), -0.4) for a in alphas]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.1, max_value=2.0),
    z=st.floats(min_value=-0.9, max_value=1.0),
)
def test_three_term_recurrence(alpha, z):
    residual = (
        (alpha + 1.0) * legendre_p(alpha + 1.0, z)
        - (2.0 * alpha + 1.0) * z * legendre_p(alpha, z)
        + alpha * legendre_p(alpha - 1.0, z)
    )
    assert abs(residual) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=DEGREE_MAX),
    z=st.floats(min_value=math.cos(THETA0_MAX), max_value=1.0),
)
def test_matches_mpmath(alpha, z):
    # relative to max(1, |P|): P_a has zeros in the domain, where a pure
    # relative error is undefined
    with mpmath.workdps(30):
        want = float(mpmath.legenp(alpha, 0, z, type=2))
    assert abs(legendre_p(alpha, z) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("z", [-0.95, -0.998])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("delta", [1e-4, -1e-8, 1e-8, 1e-12])
def test_near_integer_degrees_match_mpmath(z, n, delta):
    # hyp2f1 alone is off by up to 6e-5 at n - 1e-12 for z < -0.8
    alpha = n - delta
    with mpmath.workdps(30):
        want = float(mpmath.legenp(alpha, 0, z, type=2))
    assert abs(legendre_p(alpha, z) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-17])
def test_tiny_degrees(alpha):
    # P_a = 1 + O(a log(1 + z)) as a -> 0
    assert abs(legendre_p(alpha, -0.998) - 1.0) <= 1e-15


# integers, degrees within 1e-19 of 0, degrees 1e-15 off an integer, the
# domain ends -1 and DEGREE_MAX, and generic degrees
MIXED_DEGREES = np.array(
    [-1.0, 0.0, 1.0, 2.0, 3.0, DEGREE_MAX, 1e-19, -1e-19, 5e-20]
    + [1.0 + 1e-15, 2.0 - 1e-15, 3.0 + 1e-15, -1.0 + 1e-15, 1e-15]
    + [-0.5, 0.3, 0.7, 1.25, 2.999, 3.5]
)
BELOW_SWITCH = [-0.81, -0.95, -0.9985]


class TestOneBranchPerDegree:
    @pytest.mark.parametrize("z", [-0.79] + BELOW_SWITCH)
    def test_vectorized_equals_scalar_bit_for_bit(self, z):
        got = legendre_p_many(MIXED_DEGREES, z)
        want = np.array([legendre_p(float(a), z) for a in MIXED_DEGREES])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z", [-0.79] + BELOW_SWITCH)
    def test_scalar_results_are_python_floats(self, z):
        for a in MIXED_DEGREES:
            got = legendre_p(float(a), z)
            assert type(got) is float
            from_numpy = legendre_p(np.float64(a), np.float64(z))
            assert type(from_numpy) is float
            assert np.float64(got).tobytes() == np.float64(from_numpy).tobytes()

    @pytest.mark.parametrize("z", BELOW_SWITCH)
    def test_hyp2f1_sees_only_integer_degrees_below_the_switch(self, monkeypatch, z):
        assert z < Z_SWITCH
        seen, real = [], legendre.hyp2f1

        def spy(a, b, c, x):
            seen.append(-np.asarray(a, dtype=float))
            return real(a, b, c, x)

        monkeypatch.setattr(legendre, "hyp2f1", spy)
        legendre_p_many(MIXED_DEGREES, z)
        for a in MIXED_DEGREES:
            legendre_p(float(a), z)
        degrees = np.concatenate([np.ravel(d) for d in seen])
        assert degrees.size > 0
        assert np.all(np.abs(degrees - np.round(degrees)) <= _INTEGER_TOL)


class TestDerivatives:
    def test_dz_of_degree_one(self):
        assert legendre_dp_dz(1.0, 0.4) == pytest.approx(1.0, abs=1e-13)

    def test_dz_of_degree_two(self):
        assert legendre_dp_dz(2.0, 0.5) == pytest.approx(1.5, abs=1e-13)

    def test_dz_matches_richardson(self):
        assert legendre_dp_dz(0.5, 0.2) == pytest.approx(
            richardson_dz(0.5, 0.2), rel=1e-8
        )
        for alpha, z in ((0.3, -0.7), (1.4, 0.1), (1.9, 0.85)):
            assert legendre_dp_dz(alpha, z) == pytest.approx(
                richardson_dz(alpha, z), rel=1e-8
            )

    def test_dz_rejects_argument_one(self):
        with pytest.raises(DomainError):
            legendre_dp_dz(0.5, 1.0)

    def test_p1_explicit_low_degrees(self):
        for z in np.linspace(-0.9, 0.99, 15):
            z = float(z)
            assert legendre_p1(0.0, z) == pytest.approx(0.0, abs=1e-14)
            assert legendre_p1(1.0, z) == pytest.approx(
                -math.sqrt(1 - z * z), abs=1e-13
            )
        assert legendre_p1(2.0, 0.5) == pytest.approx(
            -3 * 0.5 * math.sqrt(0.75), abs=1e-13
        )

    def test_p1_vanishes_at_one_by_continuity(self):
        assert legendre_p1(0.7, 1.0) == 0.0
        assert legendre_p1(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.85, 1.0])
    def test_dp1_dz_matches_mpmath(self, alpha):
        # mpmath's own P^1 in the order-1 identity (DLMF 14.10.5)
        # (1 - z^2) (P^1_a)' = (a + 1) z P^1_a - a P^1_{a+1}, at 30 digits
        for theta in np.linspace(0.01, 3.09, 12):
            z = math.cos(float(theta))
            with mpmath.workdps(30):
                x = mpmath.mpf(z)
                want = float(
                    (
                        (alpha + 1) * x * mpmath.legenp(alpha, 1, x, type=2)
                        - alpha * mpmath.legenp(alpha + 1, 1, x, type=2)
                    )
                    / (1 - x * x)
                )
            got = legendre_dp1_dz(alpha, z)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_dp1_dz_array_matches_scalar(self):
        alphas = np.linspace(0.05, 1.0, 9)
        for z in (-0.95, 0.3):
            got = legendre_dp1_dz(alphas, z)
            assert got.tolist() == [legendre_dp1_dz(float(a), z) for a in alphas]

    def test_dp1_dz_rejects_argument_one(self):
        with pytest.raises(DomainError):
            legendre_dp1_dz(0.5, 1.0)


class TestDegreeDerivative:
    def test_zero_at_argument_one(self):
        assert legendre_dp_dalpha(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_identity_at_degree_zero(self):
        # d/da P_{a+1} - z d/da P_a at a = 0 equals -P_1 + 2 z P_0 - P_{-1} = z - 1
        for z in np.linspace(-0.9, 0.9, 9):
            z = float(z)
            combo = legendre_dp_dalpha(1.0, z) - z * legendre_dp_dalpha(0.0, z)
            assert abs(combo - (z - 1.0)) <= 1e-5

    def test_step_halving_consistency(self):
        coarse = legendre_dp_dalpha(0.5, 0.5, h=1e-4)
        fine = legendre_dp_dalpha(0.5, 0.5, h=1e-5)
        # both are O(h^2) approximations of the same limit
        assert coarse == pytest.approx(fine, abs=1e-7)

    def test_degree_step_domain(self):
        with pytest.raises(DomainError):
            legendre_dp_dalpha(-1.0, 0.3, h=1e-5)
        with pytest.raises(DomainError):
            legendre_dp_dalpha(0.5, 0.3, h=0.0)
