"""Finite-difference harness: grids, residuals, solves, fits."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obliquecone
from obliquecone.errors import DegenerateFit, DomainError, SingularSystem
from obliquecone.exponent import SeparableSolution, critical_exponent, neumann_exponent
from obliquecone.geometry import ConeGeometry, ObliqueBC
from obliquecone import legendre, solver
from obliquecone.grids import DiscreteField, SectorGrid
from obliquecone.solver import (
    ROW_DIRICHLET,
    ROW_INTERIOR,
    ROW_OBLIQUE,
    SOLVE_TOL,
    ConvergenceStudy,
    MMatrixReport,
    MMatrixViolation,
    _apply,
    _assemble,
    check_m_matrix,
    fit_exponent,
    laplacian_residual,
    residual_convergence,
    solve_dirichlet,
)
from obliquecone.verify import CHECKS

THETA0 = 2 * math.pi / 3

#: Radial steps far larger than r near the inner edge: not monotone.
RADIAL_STRESS = SectorGrid(
    r_min=1e-6, r_max=1.0, n_r=8, n_theta=8, theta0=THETA0, grading=2.0
)


def annulus_grids(theta0, sizes=(25, 49, 97), m=0):
    return [
        SectorGrid(r_min=0.25, r_max=1.0, n_r=n, n_theta=n, theta0=theta0, m=m)
        for n in sizes
    ]


def reference_assemble(grid, oblique_s):
    """Node-by-node assembly of A = -L: the loop `_assemble` vectorises."""
    import scipy.sparse as sp

    nr, nt = grid.n_r, grid.n_theta
    r, th = grid.r, grid.theta
    ht = grid.h_theta
    rows, cols, vals = [], [], []
    kind = np.full(nr * nt, ROW_DIRICHLET, dtype=np.int8)

    def node(i, j):
        return i * nt + j

    def add(k, k2, v):
        rows.append(k)
        cols.append(k2)
        vals.append(v)

    def angular_m1(j):
        sj, cj = math.sin(th[j]), math.cos(th[j])
        pairs = {}

        def fold(col, w):
            if col == 0:
                fold(1, 4.0 * w / 3.0)
                fold(2, -w / 3.0)
                return
            pairs[col] = pairs.get(col, 0.0) + w / math.sin(th[col])

        fold(j - 1, sj / (ht * ht) - 3.0 * cj / (2.0 * ht))
        fold(j, -2.0 * sj / (ht * ht) - 2.0 * sj)
        fold(j + 1, sj / (ht * ht) + 3.0 * cj / (2.0 * ht))
        return sorted(pairs.items())

    for i in range(nr):
        for j in range(nt):
            k = node(i, j)
            if i == 0 or i == nr - 1 or (j == 0 and grid.m == 1):
                add(k, k, 1.0)
                continue
            hm = r[i] - r[i - 1]
            hp = r[i + 1] - r[i]
            dm = -hp / (hm * (hm + hp))
            d0 = (hp - hm) / (hm * hp)
            dp = hm / (hp * (hm + hp))
            if j == nt - 1:
                if oblique_s is None:
                    add(k, k, 1.0)
                    continue
                cr = math.cos(oblique_s - grid.theta0)
                ct = math.sin(oblique_s - grid.theta0)
                scale = -1.0 / ct
                add(k, node(i - 1, j), scale * cr * dm)
                add(k, node(i + 1, j), scale * cr * dp)
                add(k, k, scale * (cr * d0 + ct * 3.0 / (2.0 * ht * r[i])))
                add(k, node(i, j - 1), scale * ct * (-4.0) / (2.0 * ht * r[i]))
                add(k, node(i, j - 2), scale * ct * 1.0 / (2.0 * ht * r[i]))
                kind[k] = ROW_OBLIQUE
                continue
            kind[k] = ROW_INTERIOR
            wm = 2.0 / (hm * (hm + hp)) + (2.0 / r[i]) * dm
            w0 = -2.0 / (hm * hp) + (2.0 / r[i]) * d0
            wp = 2.0 / (hp * (hm + hp)) + (2.0 / r[i]) * dp
            inv_r2 = 1.0 / (r[i] * r[i])
            add(k, node(i - 1, j), -wm)
            add(k, node(i + 1, j), -wp)
            diag = -w0
            if grid.m == 0:
                if j == 0:
                    am, a0, ap = 0.0, -4.0 / (ht * ht), 4.0 / (ht * ht)
                else:
                    cot = math.cos(th[j]) / math.sin(th[j])
                    am = 1.0 / (ht * ht) - cot / (2.0 * ht)
                    a0 = -2.0 / (ht * ht)
                    ap = 1.0 / (ht * ht) + cot / (2.0 * ht)
                    add(k, node(i, j - 1), -inv_r2 * am)
                add(k, node(i, j + 1), -inv_r2 * ap)
                diag += -inv_r2 * a0
            else:
                for col, w in angular_m1(j):
                    if col == j:
                        diag += -inv_r2 * w
                    else:
                        add(k, node(i, col), -inv_r2 * w)
            add(k, k, diag)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(nr * nt, nr * nt))
    A.sum_duplicates()
    return A, kind


def reference_solve(grid, data, rhs, oblique_s):
    """Sparse LU solve of the row-equilibrated reference system.

    Returns (u, A_eq, b_eq).  Rows are scaled to unit max magnitude, as in
    `solve_dirichlet`; without it SuperLU loses 1e-6 relative at 129^2 and
    1e-3 at 257^2 on `SectorGrid.default`.  Every Dirichlet node but the
    m = 1 axis takes `data`.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A, kind = reference_assemble(grid, oblique_s)
    b = np.zeros(A.shape[0])
    for i, r in enumerate(grid.r.tolist()):
        for j, t in enumerate(grid.theta.tolist()):
            k = i * grid.n_theta + j
            if kind[k] == ROW_INTERIOR:
                b[k] = -rhs(r, t)
            elif kind[k] == ROW_DIRICHLET and (i in (0, grid.n_r - 1) or j > 0):
                b[k] = data(r, t)
    row_max = abs(A).max(axis=1).toarray().ravel()
    A_eq = (sp.diags(1.0 / row_max) @ A).tocsc()
    b_eq = b / row_max
    return spla.spsolve(A_eq, b_eq), A_eq, b_eq


def reference_m_matrix(grid, A, kind):
    """Row-by-row M-matrix check of (A, kind): the loop `check_m_matrix` vectorises."""
    violations = []
    n_interior = 0
    for k in range(A.shape[0]):
        if kind[k] != ROW_INTERIOR:
            continue
        n_interior += 1
        row_cols = A.indices[A.indptr[k]:A.indptr[k + 1]]
        row_vals = A.data[A.indptr[k]:A.indptr[k + 1]]
        scale = np.abs(row_vals).max()
        i, j = divmod(k, grid.n_theta)
        for col, v in zip(row_cols, row_vals):
            if col != k and v > 1e-14 * scale:
                violations.append(MMatrixViolation(i, j, "positive_offdiagonal", float(v)))
        row_sum = float(row_vals.sum())
        if row_sum < -1e-12 * scale:
            violations.append(MMatrixViolation(i, j, "negative_row_sum", row_sum))
    return MMatrixReport(not violations, n_interior, tuple(violations))


class TestSectorGrid:
    def test_uniform_nodes(self):
        g = SectorGrid(r_min=0.1, r_max=1.0, n_r=10, n_theta=5, theta0=1.5)
        assert g.r[0] == 0.1 and g.r[-1] == 1.0
        np.testing.assert_allclose(np.diff(g.r), np.diff(g.r)[0])
        assert g.theta[0] == 0.0 and g.theta[-1] == 1.5

    def test_geometric_grading(self):
        g = SectorGrid(r_min=0.01, r_max=1.0, n_r=20, n_theta=5, theta0=1.5, grading=1.05)
        steps = np.diff(g.r)
        np.testing.assert_allclose(steps[1:] / steps[:-1], 1.05, rtol=1e-12)
        assert g.r[-1] == 1.0

    def test_default_grid(self):
        g = SectorGrid.default(2.0)
        assert g.r_min == pytest.approx(1e-3)
        assert g.grading == 1.05

    def test_validation(self):
        with pytest.raises(DomainError):
            SectorGrid(r_min=0.0, r_max=1.0, n_r=5, n_theta=5, theta0=1.0)
        with pytest.raises(DomainError):
            SectorGrid(r_min=0.1, r_max=1.0, n_r=2, n_theta=5, theta0=1.0)
        with pytest.raises(DomainError):
            SectorGrid(r_min=0.1, r_max=1.0, n_r=5, n_theta=5, theta0=1.0, grading=0.9)
        with pytest.raises(DomainError):
            SectorGrid(r_min=0.1, r_max=1.0, n_r=5, n_theta=5, theta0=1.0, m=2)

    @pytest.mark.parametrize(
        "override",
        [
            {"r_max": math.inf},
            {"r_min": math.nan},
            {"grading": math.nan},
            {"grading": math.inf},
            {"n_r": 10.0},
            {"n_theta": 10.0},
            {"theta0": 5.0},
            # finite gradings whose first steps vanish below the ulp of r_min
            # or whose powers overflow
            {"grading": 2.0, "n_r": 70},
            {"grading": 1e10, "n_r": 64},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_rejects_inputs_that_build_bad_nodes(self, override):
        args = dict(r_min=1e-3, r_max=1.0, n_r=10, n_theta=5, theta0=1.0, grading=1.05)
        with pytest.raises(DomainError):
            SectorGrid(**{**args, **override})

    def test_accepts_numpy_integer_counts(self):
        g = SectorGrid(r_min=0.1, r_max=1.0, n_r=np.int64(6), n_theta=np.int32(4), theta0=1.0)
        assert g.node_count() == 24

    @pytest.mark.parametrize("mode", [1.0, np.int64(1), True], ids=["float", "int64", "bool"])
    def test_an_integer_valued_mode_is_stored_as_that_int(self, mode):
        # the mode is an integer choice, as a Hoelder order is; the solver
        # slices with it, so it must be a plain int
        args = dict(r_min=0.1, r_max=1.0, n_r=9, n_theta=9, theta0=2.0)
        grid, sol = SectorGrid(**args, m=mode), SeparableSolution(alpha=0.5, m=mode)
        assert type(grid.m) is type(sol.m) is int and grid.m == sol.m == 1
        want_grid, want_sol = SectorGrid(**args, m=1), SeparableSolution(alpha=0.5, m=1)
        assert grid == want_grid and hash(sol) == hash(want_sol)
        edges = {"r_min": 1.0, "r_max": 2.0, "cone": 0.0}
        assert (
            solve_dirichlet(grid, edges).values.tobytes()
            == solve_dirichlet(want_grid, edges).values.tobytes()
        )
        assert check_m_matrix(grid, 1.2) == check_m_matrix(want_grid, 1.2)
        assert (
            laplacian_residual(sol, grid)[0].values.tobytes()
            == laplacian_residual(want_sol, want_grid)[0].values.tobytes()
        )


class TestLaplacianResidual:
    def test_residual_field_masks_boundary_ring(self):
        grid = annulus_grids(THETA0, sizes=(25,))[0]
        field, norm = laplacian_residual(SeparableSolution(alpha=0.5, m=0), grid)
        assert norm > 0.0
        assert field.max_norm() == norm
        np.testing.assert_array_equal(field.values[0, :], 0.0)
        np.testing.assert_array_equal(field.values[-1, :], 0.0)
        np.testing.assert_array_equal(field.values[:, -1], 0.0)

    @pytest.mark.parametrize("alpha,m", [(1.0, 0), (0.6, 0)])
    def test_axisymmetric_orders(self, alpha, m):
        study = residual_convergence(
            SeparableSolution(alpha=alpha, m=m), annulus_grids(THETA0, m=m)
        )
        assert 1.7 <= study.observed_order <= 2.3

    def test_m1_order(self):
        geom = ConeGeometry(theta0=THETA0)
        root = neumann_exponent(geom)
        study = residual_convergence(
            SeparableSolution(alpha=root, m=1), annulus_grids(THETA0, m=1)
        )
        assert 1.7 <= study.observed_order <= 2.3

    def test_residual_ratio_near_four_for_smooth_solution(self):
        study = residual_convergence(
            SeparableSolution(alpha=1.0, m=0), annulus_grids(THETA0)
        )
        for lo, hi in zip(study.residuals[1:], study.residuals[:-1]):
            assert 3.2 <= hi / lo <= 4.9

    def test_mode_mismatch_rejected(self):
        grid = annulus_grids(THETA0, sizes=(25,), m=1)[0]
        with pytest.raises(DomainError):
            laplacian_residual(SeparableSolution(alpha=0.5, m=0), grid)


class TestConvergenceStudy:
    @pytest.mark.parametrize(
        "hs,res",
        [
            ((0.1,), (0.01,)),
            ((), ()),
            ((0.1, 0.05), (0.01, 0.0025, 0.0006)),
            ((0.1, 0.05), (0.01, 0.0)),
            ((0.1, 0.05), (0.01, math.nan)),
            ((0.1, math.inf), (0.01, 0.0025)),
            ((0.1, -0.05), (0.01, 0.0025)),
            ((0.1, 0.1), (0.01, 0.0025)),
        ],
        ids=[
            "one-grid", "no-grid", "unequal-counts", "zero-residual",
            "nan-residual", "inf-h", "negative-h", "repeated-h",
        ],
    )
    def test_rejects_pairs_without_an_order(self, hs, res):
        with pytest.raises(DomainError):
            ConvergenceStudy(hs, res)

    def test_residual_convergence_rejects_no_grids(self):
        with pytest.raises(DomainError):
            residual_convergence(SeparableSolution(alpha=0.5, m=0), [])


class TestSeparableField:
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("alpha", [0.1, 0.4312, 1.0])
    def test_equals_the_nodewise_closure(self, m, alpha):
        sol = SeparableSolution(alpha=alpha, m=m)
        for grading in (1.0, 1.05):
            grid = SectorGrid(
                r_min=0.01, r_max=1.0, n_r=33, n_theta=17, theta0=2.0,
                grading=grading, m=m,
            )
            closure = DiscreteField.from_function(
                grid, lambda r, t: r ** alpha * sol.profile(t)
            )
            assert sol.field(grid).tobytes() == closure.values.tobytes()


class TestSolveDirichlet:
    def test_constant_solution_exact(self):
        grid = SectorGrid.default(THETA0, n_r=24, n_theta=20)
        field = solve_dirichlet(grid, {"r_min": 2.0, "r_max": 2.0, "cone": 2.0})
        assert np.abs(field.values - 2.0).max() <= 1e-10

    @pytest.mark.parametrize("m", [0, 1])
    def test_corner_nodes_take_the_radial_data(self, m):
        grid = SectorGrid(r_min=0.5, r_max=1.0, n_r=5, n_theta=5, theta0=THETA0, m=m)
        field = solve_dirichlet(grid, {"r_min": 1.0, "r_max": 2.0, "cone": 7.0})
        cone = field.values[:, -1]
        np.testing.assert_allclose(cone, [1.0, 7.0, 7.0, 7.0, 2.0], rtol=0.0, atol=1e-12)

    def test_manufactured_quadratic_with_source(self):
        # u = r^2 solves L u = 6 exactly for the discrete operator too:
        # 3-point stencils are exact on quadratics and the angular part
        # annihilates theta-independent fields
        grid = SectorGrid(
            r_min=0.05, r_max=1.0, n_r=30, n_theta=12, theta0=THETA0, grading=1.05
        )
        exact = lambda r, t: r * r
        field = solve_dirichlet(
            grid, {"r_min": exact, "r_max": exact, "cone": exact}, rhs=6.0
        )
        assert np.abs(field.values - (grid.r ** 2)[:, None]).max() <= 1e-9

    def test_oblique_solve_converges_at_order_two(self):
        # the 17/33/65 error study at (THETA0, s = 1.8) is verify's check
        check = {(suite, name): fn for suite, name, fn in CHECKS}
        passed, detail = check["solver", "oblique_solve_order"]()
        assert passed, detail

    def test_m1_dirichlet_solve_converges_at_order_two(self):
        geom = ConeGeometry(theta0=THETA0)
        root = neumann_exponent(geom)
        sol = SeparableSolution(alpha=root, m=1)
        errs, hs = [], []
        for n in (17, 33, 65):
            grid = SectorGrid(r_min=0.25, r_max=1.0, n_r=n, n_theta=n, theta0=THETA0, m=1)
            exact = sol.field(grid)
            edges = {"r_min": exact[0], "r_max": exact[-1], "cone": exact[:, -1]}
            field = solve_dirichlet(grid, edges)
            errs.append(np.abs(field.values - exact).max())
            hs.append(grid.h_max)
        assert 1.7 <= ConvergenceStudy(tuple(hs), tuple(errs)).observed_order <= 2.3

    def test_discrete_maximum_principle(self):
        grid = SectorGrid.default(THETA0, n_r=40, n_theta=32)
        data = lambda r, t: abs(math.sin(3 * r) * math.cos(t)) + 0.05
        field = solve_dirichlet(grid, {"r_min": data, "r_max": data, "cone": data})
        assert field.values.min() >= -1e-12

    def test_maximum_principle_with_oblique_edge(self):
        theta0, s = math.pi / 3, -1.3
        geom = ConeGeometry(theta0=theta0)
        root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
        sol = SeparableSolution(alpha=root, m=0)
        grid = SectorGrid(r_min=0.02, r_max=1.0, n_r=48, n_theta=32, theta0=theta0)
        assert check_m_matrix(grid, oblique_s=s).passed
        exact = sol.field(grid)
        field = solve_dirichlet(
            grid, {"r_min": exact[0], "r_max": exact[-1]}, oblique_s=s
        )
        assert field.values.min() >= -1e-12

    def test_solve_is_bit_stable(self):
        grid = SectorGrid.default(THETA0, n_r=20, n_theta=16)
        data = lambda r, t: math.cos(2 * r) + t
        first = solve_dirichlet(grid, {"r_min": data, "r_max": data, "cone": data})
        second = solve_dirichlet(grid, {"r_min": data, "r_max": data, "cone": data})
        np.testing.assert_array_equal(first.values, second.values)

    def test_missing_edge_data(self):
        grid = SectorGrid.default(THETA0, n_r=12, n_theta=8)
        with pytest.raises(DomainError):
            solve_dirichlet(grid, {"r_min": 0.0})

    @pytest.mark.parametrize(
        "edges,oblique_s",
        [
            pytest.param({"r_min": 1.0, "r_max": 2.0, "cone": 7.0}, 1.2, id="oblique-cone"),
            pytest.param(
                {"r_min": 1.0, "r_max": 2.0, "cone": 7.0, "axis": 0.0}, None, id="axis"
            ),
            pytest.param({"r_min": 1.0, "r_max": 2.0, "axis": 0.0}, 1.2, id="oblique-axis"),
        ],
    )
    def test_rejects_edge_data_it_would_ignore(self, edges, oblique_s):
        # an oblique cone edge takes no data, and the axis edge never does
        grid = SectorGrid(r_min=0.5, r_max=1.0, n_r=9, n_theta=9, theta0=THETA0)
        with pytest.raises(DomainError, match="exactly the Dirichlet edges"):
            solve_dirichlet(grid, edges, oblique_s=oblique_s)

    @pytest.mark.parametrize("oblique_s", [None, 1.8])
    def test_array_edge_data_equals_callable_data(self, oblique_s):
        # an array along an edge lists the values at that edge's nodes, in
        # grid order: r_min and r_max along theta, the cone along r
        grid = SectorGrid.default(THETA0, n_r=16, n_theta=12)
        data = lambda r, t: math.cos(2 * r) + t * r
        edges = {
            "r_min": [data(grid.r[0], t) for t in grid.theta],
            "r_max": [data(grid.r[-1], t) for t in grid.theta],
        }
        if oblique_s is None:
            edges["cone"] = np.array([data(r, grid.theta0) for r in grid.r])
        callables = dict.fromkeys(edges, data)
        arrays = solve_dirichlet(grid, edges, oblique_s=oblique_s)
        reference = solve_dirichlet(grid, callables, oblique_s=oblique_s)
        np.testing.assert_array_equal(arrays.values, reference.values)

    def test_edge_array_of_the_wrong_length(self):
        grid = SectorGrid.default(THETA0, n_r=12, n_theta=8)
        with pytest.raises(DomainError, match="does not fit"):
            solve_dirichlet(grid, {"r_min": 0.0, "r_max": np.zeros(9), "cone": 0.0})
        with pytest.raises(DomainError, match="does not fit"):
            solve_dirichlet(grid, {"r_min": 0.0, "r_max": 0.0, "cone": np.zeros(8)})

    def test_inadmissible_oblique_angle(self):
        grid = SectorGrid.default(THETA0, n_r=12, n_theta=8)
        with pytest.raises(DomainError):
            solve_dirichlet(grid, {"r_min": 0.0, "r_max": 0.0}, oblique_s=THETA0 + 0.1)

    @pytest.mark.parametrize(
        "edge,override,rhs,oblique_s",
        [
            pytest.param("r_min", {"r_min": math.nan}, None, None, id="nan-r_min"),
            pytest.param(
                "r_max", {"r_max": np.full(8, math.inf)}, None, None, id="inf-r_max"
            ),
            pytest.param(
                "cone", {"cone": lambda r, t: math.nan}, None, None, id="nan-cone"
            ),
            pytest.param("rhs", {}, math.nan, None, id="nan-rhs"),
            pytest.param("r_min", {"r_min": math.nan}, None, 1.0, id="nan-r_min-oblique"),
        ],
    )
    def test_non_finite_data_names_its_edge(self, edge, override, rhs, oblique_s):
        grid = SectorGrid(r_min=0.1, r_max=1.0, n_r=8, n_theta=8, theta0=2.0)
        edges = {"r_min": 1.0, "r_max": 1.0, "cone": 1.0, **override}
        if oblique_s is not None:
            del edges["cone"]
        with pytest.raises(DomainError, match=f"^{edge} data must be finite"):
            solve_dirichlet(grid, edges, rhs=rhs, oblique_s=oblique_s)


def _solver_grids():
    for m in (0, 1):
        for oblique_s in (None, 1.2, -0.9):
            for grading in (1.0, 1.05):
                for shape in ((7, 6), (12, 9)):
                    grid = SectorGrid(
                        r_min=0.05, r_max=1.0, n_r=shape[0], n_theta=shape[1],
                        theta0=2.0, grading=grading, m=m,
                    )
                    yield pytest.param(
                        grid, oblique_s, id=f"m{m}-{oblique_s}-{grading}-{shape}"
                    )
    yield pytest.param(RADIAL_STRESS, None, id="radial-stress")
    yield pytest.param(RADIAL_STRESS, 1.9, id="radial-stress-oblique")
    yield pytest.param(
        SectorGrid(r_min=0.3, r_max=1.0, n_r=8, n_theta=10, theta0=3.05, m=1), None,
        id="angular-stress",
    )
    for m in (0, 1):
        for oblique_s in (None, 1.2):
            for shape in ((3, 7), (7, 3), (3, 3)):
                grid = SectorGrid(
                    r_min=0.3, r_max=1.0, n_r=shape[0], n_theta=shape[1],
                    theta0=2.0, m=m,
                )
                yield pytest.param(grid, oblique_s, id=f"small-m{m}-{oblique_s}-{shape}")
    yield pytest.param(
        SectorGrid(r_min=0.05, r_max=1.0, n_r=129, n_theta=129, theta0=2.0, m=0), 1.8,
        id="129-m0-oblique",
    )
    yield pytest.param(
        SectorGrid.default(THETA0, n_r=129, n_theta=129, m=1), None,
        id="129-m1-dirichlet",
    )


class TestTensorSolve:
    @pytest.mark.parametrize("grid,oblique_s", list(_solver_grids()))
    def test_matches_sparse_lu(self, grid, oblique_s):
        data = lambda r, t: math.cos(2.0 * r) + t * r
        rhs = lambda r, t: r * math.sin(t) - 1.0
        edges = {"r_min": data, "r_max": data}
        if oblique_s is None:
            edges["cone"] = data
        u = solve_dirichlet(grid, edges, rhs=rhs, oblique_s=oblique_s).values.ravel()
        ref, A_eq, b_eq = reference_solve(grid, data, rhs, oblique_s)
        assert np.abs(u - ref).max() <= 1e-11 * np.abs(ref).max()
        # the refinement certificate, against the reference system
        resid = np.abs(b_eq - A_eq @ u).max()
        assert resid <= SOLVE_TOL * np.abs(b_eq).max() + SOLVE_TOL

    def test_refinement_failure_names_stage_and_grid(self, monkeypatch):
        monkeypatch.setattr(solver, "SOLVE_TOL", 0.0)
        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=12, n_theta=9, theta0=2.0)
        with pytest.raises(SingularSystem) as err:
            solve_dirichlet(grid, {"r_min": 1.0, "r_max": 2.0}, oblique_s=1.2)
        assert str(err.value).startswith("refinement failed: linear-solve residual")
        assert str(err.value).endswith(
            "grid (n_r, n_theta, m, theta0, oblique_s) = (12, 9, 0, 2.0, 1.2)"
        )

    def test_zero_eigenvalue_sum_names_the_eigendecomposition(self, monkeypatch):
        def zero_spectrum(diag, sub, sup):
            eye = np.eye(len(diag))
            return np.zeros(len(diag)), eye, eye

        monkeypatch.setattr(solver, "_eigen", zero_spectrum)
        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=7, n_theta=6, theta0=2.0, m=1)
        with pytest.raises(SingularSystem, match="^eigendecomposition failed") as err:
            solve_dirichlet(grid, {"r_min": 1.0, "r_max": 2.0, "cone": 0.0})
        assert "(7, 6, 1, 2.0, None)" in str(err.value)

    def test_singular_schur_complement_names_its_stage(self, monkeypatch):
        # the assembly gets the true oblique weights, the solver zeros, so
        # the Schur complement in the cone values is the zero matrix
        weights = solver._oblique_weights
        calls = []

        def zero_after_assembly(grid, s, first):
            calls.append(s)
            w = weights(grid, s, first)
            return w if len(calls) == 1 else tuple(0.0 * x for x in w)

        monkeypatch.setattr(solver, "_oblique_weights", zero_after_assembly)
        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=7, n_theta=6, theta0=2.0)
        with pytest.raises(SingularSystem, match="^cone Schur complement failed") as err:
            solve_dirichlet(grid, {"r_min": 1.0, "r_max": 2.0}, oblique_s=1.2)
        assert "(7, 6, 0, 2.0, 1.2)" in str(err.value)

    def test_import_loads_no_sparse_or_dense_linear_algebra(self):
        src = str(Path(obliquecone.__file__).resolve().parents[1])
        code = (
            "import sys, obliquecone; print(' '.join(m for m in "
            "('scipy.sparse', 'scipy.sparse.linalg', 'scipy.linalg') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.stdout.strip() == ""

    def test_cli_import_loads_no_test_only_module_and_no_integrate_or_linear_algebra(self):
        src = str(Path(obliquecone.__file__).resolve().parents[1])
        code = (
            "import sys, obliquecone.cli; print(' '.join(m for m in "
            "('mpmath', 'hypothesis', 'pytest', 'scipy.integrate', 'scipy.linalg', "
            "'scipy.sparse') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.stdout.strip() == ""

    def test_operator_uses_load_no_sparse(self):
        # the stencil table replaces the CSR matrix in every use of A
        src = str(Path(obliquecone.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from obliquecone.exponent import SeparableSolution\n"
            "from obliquecone.grids import SectorGrid\n"
            "from obliquecone.solver import check_m_matrix, laplacian_residual, "
            "solve_dirichlet\n"
            "grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=12, n_theta=9, theta0=2.0)\n"
            "solve_dirichlet(grid, {'r_min': 1.0, 'r_max': 2.0}, oblique_s=1.2)\n"
            "check_m_matrix(grid, 1.2)\n"
            "laplacian_residual(SeparableSolution(alpha=0.5, m=0), grid)\n"
            "print('scipy.sparse' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.stdout.strip() == "False"

    def test_special_suite_loads_no_integrate_or_optimize(self):
        # the quadrature oracle sums its rule in numpy
        src = str(Path(obliquecone.__file__).resolve().parents[1])
        code = (
            "import sys; from obliquecone.verify import run_suite; "
            "run_suite('special'); print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.stdout.strip() == ""


class TestLapackRoutines:
    @pytest.mark.parametrize("lookup", ["none", "no-extension", "missing-name"])
    def test_without_the_compiled_file_the_routines_come_from_scipy_linalg(
        self, monkeypatch, tmp_path, lookup
    ):
        import scipy.linalg.lapack

        if lookup == "missing-name":
            # a compiled module that loads from its file but has no such routine
            if legendre._compiled_file(legendre._UFUNCS_MODULE) is None:
                pytest.skip("scipy has no compiled _special_ufuncs file")
            monkeypatch.setattr(solver, "_LAPACK_MODULE", legendre._UFUNCS_MODULE)
        bogus = tmp_path / "_flapack.so"
        bogus.write_bytes(b"not a shared object")
        compiled_file = legendre._compiled_file
        looked = []

        def lookup_file(module):
            looked.append(module)
            if lookup == "none":
                return None
            return str(bogus) if lookup == "no-extension" else compiled_file(module)

        monkeypatch.delitem(sys.modules, solver._LAPACK_MODULE, raising=False)
        monkeypatch.setattr(legendre, "_compiled_file", lookup_file)
        routines = solver._lapack.__wrapped__()
        assert looked == [solver._LAPACK_MODULE]
        assert list(routines) == list(solver._LAPACK_ROUTINES)
        assert all(f is getattr(scipy.linalg.lapack, name) for name, f in routines.items())
        assert solver._LAPACK_MODULE not in sys.modules

    @pytest.mark.parametrize(
        "m,oblique_s", [(0, 1.8), (1, None)], ids=["257-m0-oblique", "257-m1-dirichlet"]
    )
    def test_routines_equal_scipy_linalg_bit_for_bit(self, monkeypatch, m, oblique_s):
        import scipy.linalg as la

        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=257, n_theta=257, theta0=2.0, m=m)
        edges = {"r_min": 1.0, "r_max": lambda r, t: math.cos(t)}
        if oblique_s is None:
            edges["cone"] = 0.5

        def run(routines):
            calls = []

            def recorded(name, routine):
                def call(*args, **kwargs):
                    out = routine(*args, **kwargs)
                    calls.append((name, [np.asarray(x).tobytes() for x in out]))
                    return out

                return call

            recording = {name: recorded(name, f) for name, f in routines.items()}
            monkeypatch.setattr(solver, "_lapack", lambda: recording)
            u = solve_dirichlet(grid, edges, oblique_s=oblique_s).values
            return calls, u.tobytes()

        ours = run(solver._lapack())
        # scipy.linalg's entry points in place of the routines they call
        theirs = run({
            "dstevd": lambda d, e, compute_v: (*la.eigh_tridiagonal(d, e), 0),
            "dgetrf": lambda a: (*la.lu_factor(a), 0),
            "dgetrs": lambda lu, piv, b: (la.lu_solve((lu, piv), b), 0),
        })
        names = [name for name, _ in ours[0]]
        assert names[:2] == ["dstevd", "dstevd"]
        assert names[2:3] == (["dgetrf"] if oblique_s else [])
        assert ours == theirs

    def test_solves_load_no_scipy_linalg_package(self):
        # the import loads no routine; the solves load them from their file,
        # the very objects scipy.linalg.lapack exports once it is imported
        src = str(Path(obliquecone.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import obliquecone.cli\n"
            "from obliquecone import solver\n"
            "from obliquecone.grids import SectorGrid\n"
            "heavy = ('scipy.linalg', 'numpy.testing', 'unittest')\n"
            "print(solver._lapack.cache_info().currsize, solver._LAPACK_MODULE in sys.modules)\n"
            "print(' '.join(m for m in heavy if m in sys.modules))\n"
            "for m, s, edges in ((0, 1.2, {'r_min': 1.0, 'r_max': 2.0}),\n"
            "                    (1, None, {'r_min': 1.0, 'r_max': 2.0, 'cone': 0.0})):\n"
            "    grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=33, n_theta=33, theta0=2.0, m=m)\n"
            "    solver.solve_dirichlet(grid, edges, oblique_s=s)\n"
            "print(' '.join(m for m in heavy if m in sys.modules))\n"
            "import scipy.linalg.lapack\n"
            "print(all(f is getattr(scipy.linalg.lapack, n) for n, f in solver._lapack().items()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        unloaded, after_import, after_solves, same = out.stdout.split("\n")[:4]
        assert unloaded == "0 False"
        # where scipy.special's compiled module is missing, its package import
        # brings numpy.testing and unittest; the solves add nothing either way
        assert after_solves == after_import and "scipy.linalg" not in after_solves.split()
        assert same == "True"


class TestAssembly:
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("oblique_s", [None, 1.2, -0.9])
    @pytest.mark.parametrize("grading", [1.0, 1.05])
    @pytest.mark.parametrize("shape", [(7, 6), (12, 9)])
    def test_matches_reference_loop(self, m, oblique_s, grading, shape):
        grid = SectorGrid(
            r_min=0.05, r_max=1.0, n_r=shape[0], n_theta=shape[1], theta0=2.0,
            grading=grading, m=m,
        )
        cols, weights, kind = _assemble(grid, oblique_s)
        ref, ref_kind = reference_assemble(grid, oblique_s)
        # a slot with no neighbour points at the diagonal with weight 0; the
        # other slots are the reference's CSR entries, row by row in order
        stored = ((cols != np.arange(cols.shape[1])) | (weights != 0.0)).T
        indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
        np.testing.assert_array_equal(indptr, ref.indptr)
        np.testing.assert_array_equal(cols.T[stored], ref.indices)
        assert weights.T[stored].tobytes() == ref.data.tobytes()
        np.testing.assert_array_equal(kind, ref_kind)
        for x in np.random.default_rng(0).standard_normal((3, cols.shape[1])):
            assert _apply(cols, weights, x).tobytes() == (ref @ x).tobytes()

    @pytest.mark.parametrize(
        "radii", [(1e-200, 1e-199), (1.0, 1e300)], ids=["tiny-radii", "huge-span"]
    )
    def test_non_finite_stencil_is_one_domain_error(self, radii):
        # 1/(hm hp) and 1/r^2 overflow on the tiny radii; on the huge span
        # h^2 and r^2 do, which would leave the interior rows with zero weights
        grid = SectorGrid(r_min=radii[0], r_max=radii[1], n_r=9, n_theta=9, theta0=1.0)
        calls = (
            lambda: check_m_matrix(grid),
            lambda: check_m_matrix(grid, 0.5),
            lambda: solve_dirichlet(grid, {"r_min": 1.0, "r_max": 2.0, "cone": 0.0}),
            lambda: solve_dirichlet(grid, {"r_min": 1.0, "r_max": 2.0}, oblique_s=0.5),
            lambda: laplacian_residual(SeparableSolution(alpha=0.5, m=0), grid),
        )
        named = re.escape(f"the stencil of radii ({radii[0]!r}, {radii[1]!r})")
        for call in calls:
            with pytest.raises(DomainError, match=f"^{named}"):
                call()

    def test_residual_is_interior_rows_of_the_operator(self):
        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=12, n_theta=9, theta0=2.0, m=1)
        sol = SeparableSolution(alpha=0.7, m=1)
        field, _ = laplacian_residual(sol, grid)
        A, kind = reference_assemble(grid, None)
        U = sol.field(grid).ravel()
        expected = np.where(kind == ROW_INTERIOR, -(A @ U), 0.0)
        np.testing.assert_array_equal(field.values.ravel(), expected)


class TestMMatrix:
    @pytest.mark.parametrize(
        "grid,oblique_s",
        [
            (SectorGrid.default(THETA0, n_r=40, n_theta=32, m=0), None),
            (SectorGrid.default(THETA0, n_r=40, n_theta=32, m=1), None),
            (RADIAL_STRESS, None),
            (SectorGrid(r_min=0.3, r_max=1.0, n_r=8, n_theta=10, theta0=3.05, m=1), None),
            (RADIAL_STRESS, 1.9),
        ],
        ids=["default-m0", "default-m1", "radial-stress", "angular-stress",
             "radial-stress-oblique"],
    )
    def test_report_matches_reference_loop(self, grid, oblique_s):
        A, kind = reference_assemble(grid, oblique_s)
        assert check_m_matrix(grid, oblique_s) == reference_m_matrix(grid, A, kind)

    def test_row_sum_violation_follows_its_rows_offdiagonals(self, monkeypatch):
        # no assembled row has a negative sum, so lower some diagonals of
        # the radial stress matrix to interleave both kinds of violation
        grid = RADIAL_STRESS
        cols, weights, kind = _assemble(grid, None)
        A, _ = reference_assemble(grid, None)
        weights, A = weights.copy(), A.copy()
        for k in np.flatnonzero(kind == ROW_INTERIOR)[::3]:
            weights[2, k] -= 3.0 * np.abs(weights[:, k]).max()
            A[k, k] -= 3.0 * abs(A[k]).max()
        monkeypatch.setattr(solver, "_assemble", lambda g, s: (cols, weights, kind))
        report = check_m_matrix(grid)
        ref = reference_m_matrix(grid, A, kind)
        # the table and ndarray.sum both add a row's entries left to right,
        # so the row sums agree to the bit
        assert report == ref
        assert [(v.i, v.j, v.kind) for v in report.violations] == [
            (v.i, v.j, v.kind) for v in ref.violations
        ]
        assert [v.value for v in report.violations] == pytest.approx(
            [v.value for v in ref.violations], rel=1e-14, abs=0.0
        )
        kinds = [v.kind for v in report.violations]
        assert "negative_row_sum" in kinds and "positive_offdiagonal" in kinds
        first_sum = kinds.index("negative_row_sum")
        assert kinds[first_sum + 1] == "positive_offdiagonal"

    @pytest.mark.parametrize("oblique_s", [2.0, 2.5, -1.2, math.nan])
    def test_inadmissible_oblique_angle(self, oblique_s):
        # theta0 = 2.0 admits s in (2 - pi, 2): 2.0 zeroes the oblique
        # scale, 2.5 and -1.2 point outward, nan is undefined
        grid = SectorGrid(r_min=0.3, r_max=1.0, n_r=8, n_theta=8, theta0=2.0)
        with pytest.raises(DomainError, match="admissible interval"):
            check_m_matrix(grid, oblique_s)

    def test_default_grids_pass(self):
        for m in (0, 1):
            grid = SectorGrid.default(THETA0, n_r=36, n_theta=28, m=m)
            assert check_m_matrix(grid).passed

    def test_radial_stress_grid_reports_violations(self):
        grid = SectorGrid(
            r_min=1e-6, r_max=1.0, n_r=8, n_theta=8, theta0=THETA0, grading=2.0
        )
        report = check_m_matrix(grid)
        assert not report.passed
        assert any(v.kind == "positive_offdiagonal" for v in report.violations)

    def test_coarse_theta_near_pi_reports_violations_m1(self):
        grid = SectorGrid(r_min=0.3, r_max=1.0, n_r=8, n_theta=10, theta0=3.05, m=1)
        report = check_m_matrix(grid)
        assert not report.passed
        # violations sit at the last interior angular node where the
        # transport coefficient is largest
        assert {v.j for v in report.violations} == {grid.n_theta - 2}


class TestFitExponent:
    def test_pure_power_callable(self):
        slope, diag = fit_exponent(lambda r, t: 3.0 * r ** 1.0, 0.4, (1e-3, 1e-1))
        assert slope == pytest.approx(1.0, abs=1e-8)
        assert diag.n_samples >= 10

    def test_separable_solution_exact_samples(self):
        geom = ConeGeometry(theta0=THETA0)
        root = critical_exponent(geom, ObliqueBC.for_cone(geom, 1.8))
        sol = SeparableSolution(alpha=root, m=0)
        slope, _ = fit_exponent(
            lambda r, t: r ** root * sol.profile(t), THETA0 / 2, (1e-3, 1e-1)
        )
        assert slope == pytest.approx(root, abs=1e-3)

    def test_discrete_field_path(self):
        grid = SectorGrid(
            r_min=1e-3, r_max=1.0, n_r=60, n_theta=10, theta0=1.2, grading=1.1
        )
        field = DiscreteField.from_function(grid, lambda r, t: r ** 0.42)
        slope, diag = fit_exponent(field, 0.6, (2e-3, 0.5))
        assert slope == pytest.approx(0.42, abs=1e-6)
        assert diag.n_samples >= 10

    def test_ray_outside_the_field_is_rejected(self):
        grid = SectorGrid(r_min=0.1, r_max=1.0, n_r=17, n_theta=9, theta0=1.2)
        field = DiscreteField.from_function(grid, lambda r, t: r ** 0.5)
        for theta in (math.nan, -3.0, 7.0, math.inf):
            with pytest.raises(DomainError, match="ray"):
                fit_exponent(field, theta, (0.1, 1.0))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, -0.5, 4.0])
    def test_callable_ray_outside_every_cone_is_rejected(self, theta):
        with pytest.raises(DomainError, match=r"^ray theta must lie in \[0, "):
            fit_exponent(lambda r, t: r, theta, (1e-3, 1e-1))

    @pytest.mark.parametrize("theta", [np.array([1.0, 2.0]), np.array([0.5]), "0.5", None])
    def test_a_ray_that_is_not_one_number_is_named(self, theta):
        grid = SectorGrid(r_min=0.1, r_max=1.0, n_r=17, n_theta=9, theta0=1.2)
        field = DiscreteField.from_function(grid, lambda r, t: r ** 0.5)
        for source in (lambda r, t: r, field):
            with pytest.raises(DomainError, match="^ray theta must be one real number"):
                fit_exponent(source, theta, (0.1, 1.0))

    def test_sign_change_rejected(self):
        with pytest.raises(DegenerateFit):
            fit_exponent(lambda r, t: math.sin(40.0 * r), 0.4, (1e-2, 1.0))

    def test_too_few_samples_rejected(self):
        grid = SectorGrid(r_min=0.1, r_max=1.0, n_r=5, n_theta=5, theta0=1.2)
        field = DiscreteField.from_function(grid, lambda r, t: r)
        with pytest.raises(DegenerateFit):
            fit_exponent(field, 0.6, (0.1, 0.3))

    def test_bad_window(self):
        with pytest.raises(DomainError):
            fit_exponent(lambda r, t: r, 0.4, (0.5, 0.1))

    def test_unbounded_window_rejected(self):
        with pytest.raises(DomainError, match="invalid fit window"):
            fit_exponent(lambda r, t: r, 0.4, (1e-3, math.inf))

    def test_non_finite_callable_samples_rejected(self):
        with pytest.raises(DomainError, match="non-finite samples"):
            fit_exponent(lambda r, t: math.inf, 0.4, (1e-3, 1e-1))
