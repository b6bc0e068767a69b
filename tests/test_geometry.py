"""Geometry types and the axisymmetric coefficient reduction."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from obliquecone import geometry
from obliquecone.errors import DomainError, InvalidOperator
from obliquecone.geometry import (
    THETA0_MAX,
    ConeGeometry,
    ObliqueBC,
    reduce_to_axisymmetric,
)
from obliquecone.grids import SectorGrid
from obliquecone.legendre import Z_CUTOFF, legendre_p


class TestConeGeometry:
    def test_admissible_interval(self):
        geom = ConeGeometry(theta0=2.0)
        lo, hi = geom.admissible_s_interval()
        assert lo == pytest.approx(-math.pi + 2.0)
        assert hi == 2.0

    @pytest.mark.parametrize("theta0", [0.0, -0.5, math.pi - 0.01, math.pi])
    def test_rejects_bad_opening_angle(self, theta0):
        with pytest.raises(DomainError):
            ConeGeometry(theta0=theta0)

    def test_widest_cone_stays_inside_the_kernel_cutoff(self):
        # ConeGeometry checks only theta0 < THETA0_MAX; that bound alone keeps
        # cos(theta0) a valid kernel argument
        assert math.cos(THETA0_MAX) > -1.0 + Z_CUTOFF
        geom = ConeGeometry(theta0=math.nextafter(THETA0_MAX, 0.0))
        assert math.isfinite(legendre_p(0.5, geom.z0))

    def test_refuses_radius_and_dimension(self):
        # every computation is the R^3 one on the unbounded cone, so the cone
        # holds theta0 only and a radius or a dimension is refused, not ignored
        assert [f.name for f in dataclasses.fields(ConeGeometry)] == ["theta0"]
        with pytest.raises(TypeError):
            ConeGeometry(theta0=1.0, R=1.0)
        with pytest.raises(TypeError):
            ConeGeometry(theta0=1.0, n=3)


class TestObliqueBC:
    def test_unit_vector_and_obliqueness(self):
        bc = ObliqueBC(s=0.4, theta0=2.0)
        b1, b2 = bc.beta0
        assert math.hypot(b1, b2) == pytest.approx(1.0, abs=1e-15)
        assert bc.obliqueness == pytest.approx(math.sin(2.0 - 0.4), abs=1e-15)
        assert bc.obliqueness > 0.0

    def test_normal_and_tangent(self):
        bc = ObliqueBC(s=0.0, theta0=1.2)
        n1, n2 = bc.nu
        assert (n1, n2) == (math.sin(1.2), -math.cos(1.2))
        t1, t2 = bc.tau
        assert (t1, t2) == (n2, -n1)
        assert n1 * t1 + n2 * t2 == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("s", [2.0, 1.0472, -2.1, -3.0])
    def test_rejects_inadmissible_angles(self, s):
        with pytest.raises(DomainError):
            ObliqueBC(s=s, theta0=1.0472)

    @pytest.mark.parametrize("s,theta0", [(3.0, 5.0), (-1.0, -0.1), (1.0, THETA0_MAX)])
    def test_rejects_opening_angles_outside_the_cone_range(self, s, theta0):
        # s lies inside (-pi + theta0, theta0), so only the cone check rejects it
        with pytest.raises(DomainError, match="opening angle"):
            ObliqueBC(s=s, theta0=theta0)

    @pytest.mark.parametrize("theta0", [5e-324, 1e-200, 1e-100, 0.5 * geometry.THETA0_MIN])
    def test_rejects_opening_angles_below_the_floor(self, theta0):
        # sin(theta0)^2 underflows below about 1.5e-154, and U2's cancellation
        # error grows like 1/theta0 above it
        with pytest.raises(DomainError, match=r"opening angle must lie in \[1e-05, "):
            ConeGeometry(theta0=theta0)
        assert ConeGeometry(theta0=geometry.THETA0_MIN).theta0 == geometry.THETA0_MIN

    @pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.array([0.5]), "0.5", None])
    def test_an_angle_that_is_not_one_number_is_named(self, bad):
        with pytest.raises(DomainError, match="^opening angle must be one real number"):
            ConeGeometry(theta0=bad)
        with pytest.raises(DomainError, match="^opening angle must be one real number"):
            ObliqueBC(s=0.5, theta0=bad)
        with pytest.raises(DomainError, match="^oblique angle s must be one real number"):
            ObliqueBC(s=bad, theta0=2.0)
        # numpy scalars are real numbers
        assert ConeGeometry(theta0=np.float64(2.0)) == ConeGeometry(theta0=2.0)
        assert ObliqueBC(s=np.float64(0.5), theta0=2.0) == ObliqueBC(s=0.5, theta0=2.0)

    def test_for_cone(self):
        geom = ConeGeometry(theta0=2.0)
        bc = ObliqueBC.for_cone(geom, -1.0)
        assert bc.theta0 == geom.theta0


class TestReduction:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identity_operator(self, n):
        a0, b21 = reduce_to_axisymmetric(np.eye(n))
        np.testing.assert_array_equal(a0, np.eye(2))
        assert b21 == float(n - 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.5])
    def test_scaled_identity(self, n, kappa):
        a0, b21 = reduce_to_axisymmetric(kappa * np.eye(n))
        np.testing.assert_array_equal(a0, kappa * np.eye(2))
        assert b21 == (n - 2) * kappa

    def test_axis_weight_differs_from_plane(self):
        A = np.diag([2.0, 2.0, 3.0])
        a0, b21 = reduce_to_axisymmetric(A)
        np.testing.assert_array_equal(a0, np.diag([3.0, 2.0]))
        assert b21 == 2.0

    def test_rejects_asymmetric(self):
        A = np.eye(3)
        A[0, 1] = 0.5
        with pytest.raises(InvalidOperator):
            reduce_to_axisymmetric(A)

    def test_rejects_axis_mixing(self):
        A = np.eye(3)
        A[0, 2] = A[2, 0] = 0.3
        with pytest.raises(InvalidOperator):
            reduce_to_axisymmetric(A)

    def test_rejects_anisotropic_plane_block(self):
        with pytest.raises(InvalidOperator):
            reduce_to_axisymmetric(np.diag([1.0, 2.0, 1.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidOperator):
            reduce_to_axisymmetric(np.diag([-1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 2)])
    def test_rejects_a_non_finite_entry(self, bad, entry):
        # checked before np.allclose, whose tolerance would turn non-finite
        # and warn; the test config makes that warning an error
        A = np.eye(3)
        A[entry] = bad
        with pytest.raises(InvalidOperator, match="finite"):
            reduce_to_axisymmetric(A)


def _adds_negated_pi(node: ast.AST) -> bool:
    """True for `-math.pi + x` and `x + -math.pi`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    return any(
        isinstance(side, ast.UnaryOp)
        and isinstance(side.op, ast.USub)
        and isinstance(side.operand, ast.Attribute)
        and side.operand.attr == "pi"
        for side in (node.left, node.right)
    )


def test_geometry_imports_nothing_from_the_legendre_kernel():
    # its type rules come from errors.py; the kernel is no dependency of the cone
    tree = ast.parse(Path(geometry.__file__).read_text(encoding="utf-8"))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "errors" in modules and "legendre" not in modules


def test_only_geometry_writes_the_admissible_interval():
    # the interval (-pi + theta0, theta0) has one owner,
    # ConeGeometry.admissible_s_interval; every other module and test asks it.
    # This file is exempt: it tests the definition against the formula.
    paths = sorted(Path(geometry.__file__).parent.glob("*.py")) + sorted(
        path for path in Path(__file__).parent.glob("*.py") if path.name != "test_geometry.py"
    )
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _adds_negated_pi(node)
        ]
    assert [where.split(":")[0] for where in found] == ["geometry.py"], found


@pytest.mark.parametrize("bad", [np.array([0.1, 0.2]), np.array(0.1), "0.1", None])
def test_radii_and_grading_of_no_real_type_are_named(bad):
    with pytest.raises(DomainError, match="^sector radii r_min must be one real number"):
        SectorGrid(bad, 1.0, 5, 5, 1.0)
    with pytest.raises(DomainError, match="^sector radii r_max must be one real number"):
        SectorGrid(0.1, bad, 5, 5, 1.0)
    with pytest.raises(DomainError, match="^grading must be one real number"):
        SectorGrid(0.1, 1.0, 5, 5, 1.0, bad)


def _twin(value):
    """The float64 number that a numpy float32 stands for."""
    return float(np.float32(value))


def test_a_float32_cone_and_oblique_angle_are_stored_as_their_floats():
    # under NEP 50 a float32 kept in the dataclass would keep every Python
    # float sum with it in float32
    geom = ConeGeometry(theta0=np.float32(2.0))
    assert type(geom.theta0) is float
    assert geom.admissible_s_interval() == ConeGeometry(theta0=2.0).admissible_s_interval()
    assert all(type(end) is float for end in geom.admissible_s_interval())
    bc = ObliqueBC(s=np.float32(0.4), theta0=np.float32(2.0))
    twin = ObliqueBC(s=_twin(0.4), theta0=2.0)
    assert (type(bc.s), type(bc.theta0)) == (float, float)
    assert (bc.s, bc.theta0) == (twin.s, twin.theta0)
    assert (bc.beta0, bc.obliqueness) == (twin.beta0, twin.obliqueness)


def test_a_float32_grid_has_the_float64_nodes_of_its_twin():
    grid = SectorGrid(np.float32(0.05), np.float32(1.0), 9, 7, np.float32(2.0),
                      np.float32(1.05))
    twin = SectorGrid(_twin(0.05), 1.0, 9, 7, 2.0, _twin(1.05))
    assert grid == twin
    assert all(type(getattr(grid, f)) is float for f in ("r_min", "r_max", "theta0", "grading"))
    assert (grid.r.dtype, grid.theta.dtype) == (np.float64, np.float64)
    assert grid.r.tobytes() == twin.r.tobytes()
    assert grid.theta.tobytes() == twin.theta.tobytes()
