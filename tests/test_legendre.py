"""Tests of the real-degree Legendre kernel.

Derived expectations follow the quadrature oracle, mpmath and Richardson
finite differences, all independent of the hypergeometric evaluation path.
"""

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

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
from obliquecone.verify import CHECKS, SharedResults

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
        # the degrees 0.25, 0.5 and 0.75 against the oracle are verify's check
        check = {(suite, name): fn for suite, name, fn in CHECKS}
        passed, detail = check["special", "kernel_vs_quadrature"](SharedResults())
        assert passed, detail

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
            legendre_p(np.array([0.5, 27.51]), -0.709)
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


def test_quadrature_oracle_matches_mpmath():
    # z = 0, 1e-12 and 1e-6 at a = -1, where P = 1, sit at the edge of the
    # Laplace integral (it needs Re z > 0); the worst error measured on this
    # grid is 4.4e-15, at a = 3.5, z = -0.9989, a margin of 2.3 to the bound
    arguments = np.concatenate((np.linspace(-0.998, 1.0, 40), [0.0, 1e-12, 1e-6, -0.9989]))
    worst = 0.0
    with mpmath.workdps(30):
        for alpha in np.linspace(-1.0, DEGREE_MAX, 21):
            for z in arguments:
                want = float(mpmath.legenp(alpha, 0, z, type=2))
                got = legendre_p_quadrature(float(alpha), float(z))
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-14


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
        assert legendre_p(MIXED_DEGREES, z).tobytes() == got.tobytes()

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


#: Arguments on both sides of Z_SWITCH, down to the cutoff, and z = 1.
ARGUMENTS = np.concatenate(
    [np.linspace(-0.9989, 1.0, 401), [-0.79, -0.8, -0.81, -0.95, -0.9985, 1.0]]
)


class TestOneBranchPerArgument:
    @pytest.mark.parametrize("alpha", MIXED_DEGREES)
    def test_vectorized_equals_scalar_bit_for_bit(self, alpha):
        got = legendre_p(alpha, ARGUMENTS)
        want = np.array([legendre_p(alpha, float(z)) for z in ARGUMENTS])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "alpha,z",
        [
            # P_a vanishes close by, so the terms a longer count would add
            # (the one of z = -0.8001) reach its last bit
            (0.13307692307692306, -0.9988623685980739),
            (0.1376923076923077, -0.9985322833445707),
            # np.log(y) differs from math.log(y) in the last bit here
            (-0.27433493245300333, -0.9925472408680399),
            (0.7129681353931066, -0.8777394862621504),
            (3.6330653470773706, -0.8634684058520326),
        ],
    )
    def test_each_argument_keeps_its_own_log_and_term_count(self, alpha, z):
        zs = np.array([z, -0.8001])
        want = [legendre_p(alpha, z), legendre_p(alpha, -0.8001)]
        assert legendre_p(alpha, zs).tolist() == want

    def test_hyp2f1_sees_only_integer_degrees_below_the_switch(self, monkeypatch):
        seen, real = [], legendre.hyp2f1

        def spy(a, b, c, x):
            degrees, xs = np.broadcast_arrays(-np.asarray(a, dtype=float), x)
            seen.append(degrees[xs > 0.5 * (1.0 - Z_SWITCH)])
            return real(a, b, c, x)

        monkeypatch.setattr(legendre, "hyp2f1", spy)
        for alpha in MIXED_DEGREES:
            legendre_p(alpha, ARGUMENTS)
        degrees = np.concatenate(seen)
        assert degrees.size > 0
        assert np.all(np.abs(degrees - np.round(degrees)) <= _INTEGER_TOL)

    @pytest.mark.parametrize("bad", [-0.9995, 1.0 + 1e-12, math.nan])
    def test_rejects_any_argument_outside_the_domain(self, bad):
        zs = np.array([0.3, bad, -0.5])
        for f in (legendre_p, legendre_p1, legendre_dp_dz, legendre_dp1_dz):
            with pytest.raises(DomainError):
                f(0.5, zs)
        with pytest.raises(DomainError):
            legendre_p(4.5, np.array([0.3]))

    def test_empty_and_both_arrays(self):
        assert legendre_p(0.5, np.array([])).shape == (0,)
        with pytest.raises(DomainError):
            legendre_p(np.array([0.3, 0.5]), np.array([0.2, 0.4]))

    @pytest.mark.parametrize("f", [legendre_dp_dz, legendre_p1, legendre_dp1_dz])
    def test_derivatives_equal_the_scalar_loop(self, f):
        zs = ARGUMENTS[ARGUMENTS < 1.0]
        for alpha in (0.05, 0.5, 0.85, 1.0, 2.0 - 1e-15):
            got = f(alpha, zs)
            want = np.array([f(alpha, float(z)) for z in zs])
            assert got.tobytes() == want.tobytes()

    def test_argument_one_element_wise(self):
        zs = np.array([0.2, 1.0, -0.9])
        got = legendre_p1(0.7, zs)
        assert got[1] == 0.0
        assert got[[0, 2]].tolist() == [legendre_p1(0.7, 0.2), legendre_p1(0.7, -0.9)]
        for f in (legendre_dp_dz, legendre_dp1_dz):
            with pytest.raises(DomainError):
                f(0.7, zs)


class TestArrayOfDegrees:
    def test_p1_evaluates_an_array_of_degrees(self):
        # an ndarray of degrees evaluates element by element, or raises
        # DomainError, as for legendre_p
        alphas = np.array([0.3, 0.5])
        got = legendre_p1(alphas, 0.2)
        assert got.tolist() == [legendre_p1(0.3, 0.2), legendre_p1(0.5, 0.2)]
        assert legendre_p1(alphas, 1.0).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("z", [0.2, 1.0])
    def test_p1_rejects_a_degree_outside_the_domain(self, z):
        with pytest.raises(DomainError):
            legendre_p1(np.array([0.3, 4.5]), z)
        with pytest.raises(DomainError):
            legendre_p1(-1.5, z)


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

    @pytest.mark.parametrize("alpha,z", [(-1.5, 0.2), (3.5, 0.2), (0.5, -0.9999)])
    def test_dz_rejects_arguments_its_kernel_calls_reject(self, alpha, z):
        # a = 3.5 is accepted itself, but the identity also needs P_{a+1}
        with pytest.raises(DomainError):
            legendre_dp_dz(alpha, z)

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

    @pytest.mark.parametrize(
        "alpha", [0.05, 0.3, 0.6, 0.85, 1.0, 1.25, 1.5, 1.9, 2.0, 2.3, 2.75, 3.0]
    )
    def test_dp1_dz_matches_mpmath_to_2e_11(self, alpha):
        # the same oracle, over every degree that P at a and a + 1 admits and
        # angles up to THETA0_MAX; the worst error on this grid is 1.4e-11
        for theta in np.linspace(0.01, THETA0_MAX, 14):
            z = math.cos(float(theta))
            with mpmath.workdps(30):
                x = mpmath.mpf(z)
                p1_a, p1_next = (mpmath.legenp(d, 1, x, type=2) for d in (alpha, alpha + 1))
                want = float(((alpha + 1) * x * p1_a - alpha * p1_next) / (1 - x * x))
            got = legendre_dp1_dz(alpha, z)
            assert abs(got - want) <= 2e-11 * max(1.0, abs(want))

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

    def test_degree_step_domain(self):
        with pytest.raises(DomainError):
            legendre_dp_dalpha(-1.0, 0.3)

    @pytest.mark.parametrize("z", [0.9, 0.3, -0.5, -0.95])
    def test_array_of_degrees_equals_the_scalar_loop(self, z):
        alphas = np.concatenate((np.linspace(-0.99, 3.0, 57), [1.0 - 1e-5, 2.0]))
        loop = np.array([legendre_dp_dalpha(float(a), z) for a in alphas])
        np.testing.assert_array_equal(legendre_dp_dalpha(alphas, z), loop)

    def test_array_names_the_first_degree_that_leaves_the_domain(self):
        alphas = np.array([0.5, -0.999995, -1.0])
        with pytest.raises(DomainError, match=repr(float(alphas[1] - 1e-5))):
            legendre_dp_dalpha(alphas, 0.3)
        with pytest.raises(DomainError, match="got 4.5"):
            legendre_dp_dalpha(np.array([0.5, 4.5 - 1e-5]), 0.3)


def test_libm_equals_the_list_comprehension_bit_for_bit():
    rng = np.random.default_rng(5)
    for shape in ((0,), (1,), (37,), (4, 6)):
        x = rng.uniform(0.01, 3.1, shape)
        for f in (math.sin, math.cos, math.log, lambda w: w ** 1.5):
            want = np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)
            got = legendre._libm(f, x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_only_the_kernel_imports_legendre_p_many():
    # callers pass float or array degrees to legendre_p; choosing between the
    # scalar and the array path stays inside legendre.py, and so does every
    # special-function call behind a Legendre value
    package = Path(legendre.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "legendre.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.alias) and node.name == "legendre_p_many") or (
                isinstance(node, ast.Attribute) and node.attr == "legendre_p_many"
            ):
                importers.append((path.name, "legendre_p_many"))
            if (isinstance(node, ast.ImportFrom) and node.module == "scipy.special") or (
                isinstance(node, ast.alias) and node.name == "scipy.special"
            ):
                importers.append((path.name, "scipy.special"))
    assert importers == []


@pytest.mark.parametrize("bad", ["0.5", None, 1j])
def test_a_degree_or_argument_of_no_real_type_is_named(bad):
    # the type rule runs only once a comparison has failed: floats pay nothing
    for f in (legendre_p, legendre_p1, legendre_dp_dz, legendre_dp1_dz, legendre_dp_dalpha,
              legendre_p_quadrature):
        with pytest.raises(DomainError, match="^degree must be one real number"):
            f(bad, 0.3)
        with pytest.raises(DomainError, match="^argument must be one real number"):
            f(0.5, bad)
    with pytest.raises(DomainError, match="^degree must be one real number"):
        legendre_p(bad, np.array([0.3]))
    with pytest.raises(DomainError, match="^argument must be one real number"):
        legendre_p(np.array([0.5]), bad)


@pytest.mark.parametrize(
    "f,alpha,z,scalar",
    [
        (legendre_p, 10.0, np.array([]), (10.0, 0.3)),
        (legendre_p, np.array([]), 5.0, (0.5, 5.0)),
        (legendre_dp1_dz, 3.5, np.array([]), (3.5, 0.3)),
        (legendre_p1, math.nan, np.array([1.0]), (math.nan, 1.0)),
    ],
    ids=["degree-beside-no-arguments", "argument-beside-no-degrees",
         "next-degree-beside-no-arguments", "degree-beside-only-z-one"],
)
def test_the_float_beside_an_ndarray_is_checked_when_no_element_is(f, alpha, z, scalar):
    # the elements' checks never see the float when the ndarray is empty, or
    # when legendre_p1 drops every z = 1 before its kernel calls
    with pytest.raises(DomainError) as want:
        f(*scalar)
    with pytest.raises(DomainError) as got:
        f(alpha, z)
    assert str(got.value) == str(want.value)


def _compiled_ufuncs_exist() -> bool:
    """Whether scipy has a compiled `special/_special_ufuncs` with hyp2f1 and psi."""
    try:
        module = importlib.import_module("scipy.special._special_ufuncs")
    except ImportError:
        return False
    return hasattr(module, "hyp2f1") and hasattr(module, "psi")


class TestUfuncLoader:
    @pytest.mark.skipif(not _compiled_ufuncs_exist(), reason="scipy has no _special_ufuncs")
    def test_cli_import_loads_no_scipy_special_package(self):
        # the package __init__ is what imports numpy.testing and unittest; a
        # later import of the package still finds its compiled module
        src = str(Path(legendre.__file__).resolve().parents[1])
        code = (
            "import sys, obliquecone.cli; print(' '.join(m for m in "
            "('scipy.special', 'numpy.testing', 'unittest') if m in sys.modules))\n"
            "import scipy.special; from obliquecone.legendre import psi\n"
            "print(scipy.special._special_ufuncs.psi(1.5) == psi(1.5))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.stdout.split("\n")[:2] == ["", "True"]

    def test_kernel_ufuncs_equal_scipy_special_bit_for_bit(self):
        import scipy.special

        # degrees across [-1, DEGREE_MAX], integers included, and x = (1 - z)/2
        # on both sides of Z_SWITCH's x = 0.9, up to the domain edge
        a = np.concatenate([np.linspace(-1.0, DEGREE_MAX, 41), np.arange(-1.0, 5.0)])[:, None]
        x = np.linspace(0.0, 0.5 * (2.0 - legendre.Z_CUTOFF), 41)[None, :]
        for args in ((-a, a + 1.0, 1.0, x), (1.0 - a, a + 2.0, 2.0, x),
                     (2.0 - a, a + 3.0, 3.0, x)):
            assert legendre.hyp2f1(*args).tobytes() == scipy.special.hyp2f1(*args).tobytes()
        # the connection series' psi(1) and psi(1 + a)
        w = np.concatenate([[1.0], 1.0 + a.ravel()])
        assert legendre.psi(w).tobytes() == scipy.special.psi(w).tobytes()

    @pytest.mark.parametrize("lookup", ["none", "no-extension"])
    def test_without_the_compiled_file_the_ufuncs_come_from_scipy_special(
        self, monkeypatch, tmp_path, lookup
    ):
        import scipy.special

        bogus = tmp_path / "_special_ufuncs.so"
        bogus.write_bytes(b"not a shared object")
        looked = []

        def compiled_file(module):
            looked.append(module)
            return None if lookup == "none" else str(bogus)

        monkeypatch.delitem(sys.modules, legendre._UFUNCS_MODULE, raising=False)
        monkeypatch.setattr(legendre, "_compiled_file", compiled_file)
        hyp2f1, psi = legendre._load_compiled(
            legendre._UFUNCS_MODULE, ("hyp2f1", "psi"), "scipy.special"
        )
        assert looked == [legendre._UFUNCS_MODULE]
        assert hyp2f1 is scipy.special.hyp2f1 and psi is scipy.special.psi
        assert legendre._UFUNCS_MODULE not in sys.modules
