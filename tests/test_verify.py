"""The Cartesian finite-difference oracle of `obliquecone.verify`.

Every FD assertion in the suite goes through this one oracle, so it is
checked here against degree-1 modes whose gradients are known in closed
form, without the Legendre kernel's own accuracy in play.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from obliquecone import verify
from obliquecone.geometry import ConeGeometry
from obliquecone.legendre import legendre_p
from obliquecone.verify import (
    central_difference,
    fd_boundary_residual,
    fd_neumann_residual,
    separable,
)

RADII = np.linspace(0.1, 1.0, 20)


def test_degree_one_mode_is_the_first_coordinate():
    # P_1(z) = z, so r P_1(y1 / r) = y1 and its gradient is (1, 0)
    geom = ConeGeometry(theta0=2.0)
    along_y1 = fd_boundary_residual(legendre_p, geom, (1.0, 0.0), 1.0, RADII)
    along_y2 = fd_boundary_residual(legendre_p, geom, (0.0, 1.0), 1.0, RADII)
    assert along_y1 == pytest.approx(1.0, abs=1e-9)
    assert along_y2 == pytest.approx(0.0, abs=1e-9)


def test_degree_one_m1_mode_has_normal_derivative_cos_theta0():
    # P^1_1(cos t) = -sin t, so the m = 1 mode is -y2 and nu . D u = cos theta0
    geom = ConeGeometry(theta0=2.0)
    residual = fd_neumann_residual(geom, 1.0, RADII)
    assert residual == pytest.approx(abs(math.cos(2.0)), abs=1e-9)


def test_central_difference_is_exact_on_a_quadratic():
    # the O(h^2) error term of a central difference vanishes on a quadratic
    u = separable(lambda a, z: z * z, 2.0)  # r^2 (y1 / r)^2 = y1^2
    assert u(0.3, 0.4) == pytest.approx(0.09, abs=1e-15)
    got = central_difference(u, 0.3, 0.4, 0.6, 0.8, 1e-4)
    assert got == pytest.approx(2.0 * 0.3 * 0.6, abs=1e-10)


def _on_a_quotient(node):
    """A call with a division among its arguments, such as p(a, y1 / r)."""
    return isinstance(node, ast.Call) and any(
        isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Div)
        for arg in [*node.args, *(kw.value for kw in node.keywords)]
    )


def _is_cartesian_mode(node):
    """r ** a * p(a, y1 / r) in either order, or a Legendre call on a quotient."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        sides = (node.left, node.right)
        return any(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Pow) for side in sides
        ) and any(_on_a_quotient(side) for side in sides)
    if not _on_a_quotient(node):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name in ("legendre_p", "legendre_p1")


def cartesian_modes(paths):
    """(module, line) of every Cartesian mode written out in the given files."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(
            (f"{path.parent.name}/{path.name}", node.lineno)
            for node in ast.walk(tree)
            if _is_cartesian_mode(node)
        )
    return sorted(found)


def test_only_verify_defines_a_cartesian_mode():
    # r^a p(a, y1 / r) has one definition, verify.separable; the tests and the
    # rest of the package import it instead of writing their own
    package = Path(verify.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [module for module, _ in cartesian_modes(paths)] == ["obliquecone/verify.py"]
