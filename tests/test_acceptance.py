"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s`).  Expected
values come from closed forms, independent finite-difference oracles, the
quadrature oracle, or bisection brackets, never from the code path under
test alone.  Where a criterion is an invariant `verify` certifies, with the
same inputs and gate, the test runs that check from `verify.CHECKS` instead
of computing it again.
"""

import math
import time

import numpy as np

from obliquecone.barrier import (
    build_barrier,
    m1_coefficient,
    m2_coefficient,
    max_admissible_tilt,
    rotate_coefficients,
)
from obliquecone.exponent import (
    SeparableSolution,
    boundary_mismatch,
    critical_angle_s0,
    critical_exponent,
    neumann_exponent,
)
from obliquecone.geometry import ConeGeometry, ObliqueBC, reduce_to_axisymmetric
from obliquecone.grids import SectorGrid
from obliquecone.holder import (
    HolderSamples,
    HolderSpec,
    holder_seminorm,
    sector_sample_points,
)
from obliquecone.legendre import legendre_p
from obliquecone.solver import fit_exponent, residual_convergence, solve_dirichlet
from obliquecone.verify import (
    CHECKS,
    barrier_regime_angles,
    fd_neumann_residual,
    fd_oblique_residual,
    m1_by_directional_differences,
    separable,
)

#: Boundary radii of the Cartesian FD residuals.
FD_RADII = np.linspace(0.1, 1.0, 20)

#: guaranteed-branch s-values per opening angle (5 per branch)
BRANCHES = {
    2 * math.pi / 3: [
        np.linspace(1.63, 2.03, 5),  # (pi/2, theta0)
        np.linspace(-1.00, -0.58, 5),  # (-pi + theta0, s0)
    ],
    3 * math.pi / 4: [
        np.linspace(1.63, 2.30, 5),
        np.linspace(-0.75, -0.43, 5),
    ],
    math.pi / 3: [np.linspace(-1.55, -1.10, 5)],  # (-pi/2, s0)
    math.pi / 4: [np.linspace(-1.55, -1.21, 5)],
}

NO_ROOT_PAIRS = (
    (math.pi / 3, 0.3),
    (math.pi / 3, 0.6),
    (math.pi / 3, -1.7),
    (math.pi / 3, -1.9),
    (2 * math.pi / 3, 0.5),
    (2 * math.pi / 3, 1.0),
    (2 * math.pi / 3, 1.3),
    (3 * math.pi / 4, 0.3),
    (3 * math.pi / 4, 0.9),
    (1.0, -1.8),
)

CHECKS_BY_ID = {f"{suite}.{name}": check for suite, name, check in CHECKS}

_cache = {}


def report(cid, ok, detail):
    print(f"[{cid} {'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{cid}: {detail}"


def run_checks(*check_ids):
    """(passed, detail) of the `verify` checks named "suite.name", run in order."""
    results = [(check_id, CHECKS_BY_ID[check_id]()) for check_id in check_ids]
    return (
        all(passed for _, (passed, _) in results),
        "; ".join(f"{check_id}: {detail}" for check_id, (_, detail) in results),
    )


def certified_roots():
    """(theta0, s, alpha) for every guaranteed-branch case, computed once."""
    if "roots" not in _cache:
        out = []
        for theta0, branches in BRANCHES.items():
            geom = ConeGeometry(theta0=theta0)
            for branch in branches:
                for s in branch:
                    s = float(s)
                    root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
                    out.append((theta0, s, root))
        _cache["roots"] = out
    return _cache["roots"]


def test_c01_endpoint_identities():
    start = time.perf_counter()
    ok, detail = run_checks("exponent.endpoint_identities")
    elapsed = time.perf_counter() - start
    report("C1", ok and elapsed < 10.0, f"{detail}, {elapsed:.2f}s (need < 10s)")


def test_c02_slope_matches_closed_form():
    report("C2", *run_checks("exponent.slope_fd_matches_closed_form"))


def test_c03_critical_angle_closed_form():
    worst = 0.0
    for theta0 in np.linspace(0.25, 2.7, 100):
        geom = ConeGeometry(theta0=float(theta0))
        worst = max(worst, abs(critical_angle_s0(geom) - (geom.theta0 - math.pi) / 2))
    report("C3", worst <= 1e-10, f"max |s0 - (theta0 - pi)/2| = {worst:.3e} (tol 1e-10)")


def test_c04_counterexample_existence():
    start = time.perf_counter()
    roots = certified_roots()
    elapsed = time.perf_counter() - start
    worst_b = 0.0
    for theta0, s, root in roots:
        assert root is not None, f"no root at (theta0={theta0:.4f}, s={s})"
        assert 0.0 < root < 1.0
        worst_b = max(worst_b, abs(boundary_mismatch(ConeGeometry(theta0=theta0), root, s)))
    ok = worst_b <= 1e-10 and elapsed < 30.0
    report(
        "C4",
        ok,
        f"{len(roots)} guaranteed-branch roots, max |B| = {worst_b:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s",
    )


def test_c05_counterexample_certification():
    worst_order_lo, worst_order_hi = math.inf, -math.inf
    worst_fd = 0.0
    worst_fit_exact = 0.0
    worst_fit_solve = 0.0
    for theta0, s, root in certified_roots():
        sol = SeparableSolution(alpha=root, m=0)
        grids = [
            SectorGrid(r_min=0.25, r_max=1.0, n_r=n, n_theta=n, theta0=theta0)
            for n in (33, 65, 129)
        ]
        order = residual_convergence(sol, grids).observed_order
        worst_order_lo = min(worst_order_lo, order)
        worst_order_hi = max(worst_order_hi, order)
        worst_fd = max(
            worst_fd, fd_oblique_residual(ConeGeometry(theta0=theta0), s, root, FD_RADII)
        )
        slope, _ = fit_exponent(
            lambda r, t: r ** root * sol.profile(t), theta0 / 2, (1e-3, 1e-1)
        )
        worst_fit_exact = max(worst_fit_exact, abs(slope - root))
        grid = SectorGrid(r_min=0.05, r_max=1.0, n_r=65, n_theta=49, theta0=theta0)
        exact = sol.field(grid)
        field = solve_dirichlet(
            grid, {"r_min": exact[0], "r_max": exact[-1]}, oblique_s=s
        )
        slope, _ = fit_exponent(field, theta0 / 2, (0.06, 0.5))
        worst_fit_solve = max(worst_fit_solve, abs(slope - root))
    ok = (
        1.7 <= worst_order_lo
        and worst_order_hi <= 2.3
        and worst_fd <= 1e-6
        and worst_fit_exact <= 1e-3
        and worst_fit_solve <= 1e-2
    )
    report(
        "C5",
        ok,
        f"orders in [{worst_order_lo:.2f}, {worst_order_hi:.2f}] (need [1.7, 2.3]), "
        f"FD residual <= {worst_fd:.2e} (tol 1e-6), "
        f"fit gaps {worst_fit_exact:.2e}/{worst_fit_solve:.2e} (tol 1e-3/1e-2)",
    )


def test_c06_regular_regime_has_no_root():
    for theta0, s in NO_ROOT_PAIRS:
        assert math.cos(s) * math.sin(s) > 0.0
        geom = ConeGeometry(theta0=theta0)
        root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
        assert root is None, f"unexpected root {root} at (theta0={theta0:.4f}, s={s})"
    report("C6", True, f"no sign change of B for {len(NO_ROOT_PAIRS)} pairs")


def test_c07_holder_dichotomy():
    # pick a certified case whose shifted exponent alpha + 0.1 stays in (0, 1]
    theta0, s, root = next(rt for rt in certified_roots() if rt[2] <= 0.9)
    u = separable(legendre_p, root)
    prev_at = prev_above = None
    ratios = []
    for r_min in (1e-2, 5e-3, 2.5e-3):
        pts = sector_sample_points(theta0, r_min, 1.0)
        values = np.array([u(p[0], p[1]) for p in pts])
        samples = HolderSamples(points=pts, values=values)
        at = holder_seminorm(samples, HolderSpec(0, root, beta=-root))
        above = holder_seminorm(
            samples, HolderSpec(0, root + 0.1, beta=-(root + 0.1))
        )
        if prev_at is not None:
            ratios.append((at / prev_at, above / prev_above))
        prev_at, prev_above = at, above
    ok = all(r_at <= 1.05 and r_above >= 2 ** 0.05 for r_at, r_above in ratios)
    report(
        "C7",
        ok,
        "seminorm ratios per refinement "
        + ", ".join(f"({a:.4f}, {b:.4f})" for a, b in ratios)
        + f" (need <= 1.05 and >= {2 ** 0.05:.4f})",
    )


def test_c08_barrier_suite():
    alpha = 0.05
    worst_gap = 0.0
    for theta0 in (math.pi / 3, 2 * math.pi / 3, 3 * math.pi / 4):
        geom = ConeGeometry(theta0=theta0)
        barrier = build_barrier(geom, alpha)
        thetas = np.linspace(0.0, theta0, 500)
        assert max(barrier.profile_deriv(float(t)) for t in thetas[1:]) < 0.0
        assert abs((barrier.profile(1e-7) - 1.0) / 1e-7) <= 1e-8
        sign_regime = barrier_regime_angles(theta0)
        for s in sign_regime:
            bc = ObliqueBC.for_cone(geom, s)
            rc = rotate_coefficients(np.eye(2), bc)
            m1 = m1_coefficient(barrier, bc, rc)
            assert m1 < 0.0, f"m1 = {m1} at (theta0={theta0:.4f}, s={s:.4f})"
        for s in (sign_regime[1], sign_regime[4], sign_regime[-1]):
            bc = ObliqueBC.for_cone(geom, s)
            rc = rotate_coefficients(np.eye(2), bc)
            closed = m1_coefficient(barrier, bc, rc)
            fd = m1_by_directional_differences(barrier, bc, rc)
            worst_gap = max(worst_gap, abs(closed - fd) / abs(closed))
            tilt = max_admissible_tilt(bc, barrier, rc)
            assert tilt >= 1e-6
            assert m2_coefficient(barrier, bc, rc, tilt) < 0.0
    ok, detail = run_checks("barrier.invariants_certified")
    report(
        "C8",
        ok and worst_gap <= 1e-8,
        f"{detail}; barrier certificates for three angles; closed-form vs FD gap "
        f"<= {worst_gap:.2e} (tol 1e-8)",
    )


def test_c09_neumann_mode():
    identities_ok, identities = run_checks("exponent.neumann_identities")
    half = neumann_exponent(ConeGeometry(theta0=math.pi / 2))
    assert abs(half - 1.0) <= 1e-8
    worst_res = 0.0
    orders = []
    for theta0 in (2 * math.pi / 3, 3 * math.pi / 4):
        geom = ConeGeometry(theta0=theta0)
        root = neumann_exponent(geom)
        assert 0.0 < root < 1.0
        worst_res = max(worst_res, fd_neumann_residual(geom, root, FD_RADII))
        grids = [
            SectorGrid(r_min=0.25, r_max=1.0, n_r=n, n_theta=n, theta0=theta0, m=1)
            for n in (33, 65, 129)
        ]
        orders.append(
            residual_convergence(SeparableSolution(alpha=root, m=1), grids).observed_order
        )
    ok = identities_ok and worst_res <= 1e-6 and all(1.7 <= o <= 2.3 for o in orders)
    report(
        "C9",
        ok,
        f"{identities}; half-space exponent {half}, "
        f"Neumann FD residual <= {worst_res:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}",
    )


def test_c10_special_function_kernel():
    report(
        "C10",
        *run_checks(
            "special.integer_degree_polynomials",
            "special.three_term_recurrence",
            "special.kernel_vs_quadrature",
        ),
    )


def test_c11_discrete_comparison():
    checks_ok, checks = run_checks(
        "solver.m_matrix_default_grids", "solver.discrete_comparison_minimum"
    )
    grid = SectorGrid.default(2 * math.pi / 3, n_r=40, n_theta=32)
    data = lambda r, t: abs(math.sin(3 * r) * math.cos(t)) + 0.05
    field = solve_dirichlet(grid, {"r_min": data, "r_max": data, "cone": data})
    min_dirichlet = float(field.values.min())
    report(
        "C11",
        checks_ok and min_dirichlet >= -1e-12,
        f"{checks}; Dirichlet minimum with offset 0.05 {min_dirichlet:.2e} >= -1e-12",
    )


def test_c12_reduction_formulas():
    for n in (3, 4, 5):
        for kappa in (1.0, 2.5):
            a0, b21 = reduce_to_axisymmetric(kappa * np.eye(n))
            assert b21 == (n - 2) * kappa
            assert np.array_equal(a0, kappa * np.eye(2))
    report("C12", True, "b21 = (n-2) kappa exactly for n in {3,4,5}")


def test_c13_pairwise_orders_on_fine_grids():
    # the 25/49/97 gates pass at about 1.74 against [1.7, 2.3] because the
    # coarse pair is pre-asymptotic; on finer grids every pair sits near 2
    theta0 = 2 * math.pi / 3
    grids = {
        m: [
            SectorGrid(r_min=0.25, r_max=1.0, n_r=n, n_theta=n, theta0=theta0, m=m)
            for n in (97, 193, 385)
        ]
        for m in (0, 1)
    }
    studies = [(0.05, 0), (1.0, 0), (0.6, 0), (neumann_exponent(ConeGeometry(theta0=theta0)), 1)]
    orders = {
        f"{alpha:.3f}/m{m}": residual_convergence(
            SeparableSolution(alpha=alpha, m=m), grids[m]
        ).pairwise_orders
        for alpha, m in studies
    }
    ok = all(1.85 <= o <= 2.15 for pair in orders.values() for o in pair)
    report(
        "C13",
        ok,
        "pairwise orders on n = 97/193/385 in [1.85, 2.15]: "
        + "; ".join(f"{k}: {', '.join(f'{o:.3f}' for o in v)}" for k, v in orders.items()),
    )
