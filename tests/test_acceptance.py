"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s`).  Expected
values come from closed forms, independent finite-difference oracles, the
quadrature oracle, or bisection brackets, never from the code path under
test alone.
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
    neumann_mismatch,
    slope_at_zero,
)
from obliquecone.geometry import ConeGeometry, ObliqueBC, reduce_to_axisymmetric
from obliquecone.grids import SectorGrid
from obliquecone.holder import (
    HolderSamples,
    HolderSpec,
    holder_seminorm,
    sector_sample_points,
)
from obliquecone.legendre import legendre_p, legendre_p_quadrature
from obliquecone.solver import (
    check_m_matrix,
    fit_exponent,
    residual_convergence,
    solve_dirichlet,
)
from obliquecone.verify import (
    admissible_grid,
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

_cache = {}


def report(cid, ok, detail):
    print(f"[{cid} {'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{cid}: {detail}"


def admissible_pairs():
    for theta0, s in admissible_grid():
        yield ConeGeometry(theta0=theta0), s


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
    worst0 = worst1 = 0.0
    for geom, s in admissible_pairs():
        worst0 = max(worst0, abs(boundary_mismatch(geom, 0.0, s)))
        worst1 = max(worst1, abs(boundary_mismatch(geom, 1.0, s) - math.cos(s)))
    elapsed = time.perf_counter() - start
    ok = worst0 <= 1e-12 and worst1 <= 1e-10 and elapsed < 10.0
    report(
        "C1",
        ok,
        f"|B(.,0,.)| <= {worst0:.2e} (tol 1e-12), "
        f"|B(.,1,.) - cos s| <= {worst1:.2e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_c02_slope_matches_closed_form():
    h = 1e-5
    worst = 0.0
    for geom, s in admissible_pairs():
        fd = (boundary_mismatch(geom, h, s) - boundary_mismatch(geom, 0.0, s)) / h
        worst = max(worst, abs(fd - slope_at_zero(geom, s)))
    report("C2", worst <= 1e-4, f"max |FD slope - V| = {worst:.3e} (tol 1e-4)")


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
        data = lambda r, t: r ** root * sol.profile(t)
        field = solve_dirichlet(grid, {"r_min": data, "r_max": data}, oblique_s=s)
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
        assert 0.0 < barrier.cstar < 1.0
        thetas = np.linspace(0.0, theta0, 500)
        assert max(barrier.profile_deriv(float(t)) for t in thetas[1:]) < 0.0
        assert abs((barrier.profile(1e-7) - 1.0) / 1e-7) <= 1e-8
        q = min(theta0, math.pi / 2)
        sign_regime = [0.1 * q + f * 0.7 * q for f in np.linspace(0.0, 1.0, 8)]
        if theta0 < math.pi / 2:
            lo, hi = -math.pi + theta0, -math.pi / 2
            sign_regime += [lo + f * (hi - lo) for f in np.linspace(0.1, 0.9, 8)]
        for s in sign_regime:
            bc = ObliqueBC.for_cone(geom, float(s))
            rc = rotate_coefficients(np.eye(2), bc)
            m1 = m1_coefficient(barrier, bc, rc)
            assert m1 < 0.0, f"m1 = {m1} at (theta0={theta0:.4f}, s={s:.4f})"
        for s in (sign_regime[1], sign_regime[4], sign_regime[-1]):
            bc = ObliqueBC.for_cone(geom, float(s))
            rc = rotate_coefficients(np.eye(2), bc)
            closed = m1_coefficient(barrier, bc, rc)
            fd = m1_by_directional_differences(barrier, bc, rc)
            worst_gap = max(worst_gap, abs(closed - fd) / abs(closed))
            tilt = max_admissible_tilt(bc, barrier, rc)
            assert tilt >= 1e-6
            assert m2_coefficient(barrier, bc, rc, tilt) < 0.0
    report(
        "C8",
        worst_gap <= 1e-8,
        f"barrier certificates for three angles; closed-form vs FD gap "
        f"<= {worst_gap:.2e} (tol 1e-8)",
    )


def test_c09_neumann_mode():
    worst0 = worst1 = worst_slope = 0.0
    for theta0 in (1.0, math.pi / 2, 2 * math.pi / 3, 3 * math.pi / 4, 2.9):
        geom = ConeGeometry(theta0=theta0)
        worst0 = max(worst0, abs(neumann_mismatch(geom, 0.0)))
        worst1 = max(
            worst1,
            abs(neumann_mismatch(geom, 1.0) - math.cos(theta0) / math.sin(theta0)),
        )
        h = 1e-5
        fd = (neumann_mismatch(geom, h) - neumann_mismatch(geom, 0.0)) / h
        closed = (1.0 - math.cos(theta0)) / math.sin(theta0) ** 3
        worst_slope = max(worst_slope, abs(fd - closed))
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
    ok = (
        worst0 <= 1e-12
        and worst1 <= 1e-10
        and worst_slope <= 1e-4
        and worst_res <= 1e-6
        and all(1.7 <= o <= 2.3 for o in orders)
    )
    report(
        "C9",
        ok,
        f"|W(.,0)| <= {worst0:.2e}, |W(.,1) - cot| <= {worst1:.2e}, "
        f"slope gap <= {worst_slope:.2e}, half-space exponent {half}, "
        f"Neumann FD residual <= {worst_res:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}",
    )


def test_c10_special_function_kernel():
    polys = {
        0.0: lambda z: 1.0,
        1.0: lambda z: z,
        2.0: lambda z: 0.5 * (3 * z * z - 1),
        3.0: lambda z: 0.5 * (5 * z ** 3 - 3 * z),
    }
    worst_poly = 0.0
    for a, poly in polys.items():
        for z in np.linspace(-0.9, 1.0, 41):
            worst_poly = max(worst_poly, abs(legendre_p(a, float(z)) - poly(float(z))))
    worst_rec = 0.0
    for a in np.linspace(0.1, 2.0, 20):
        for z in np.linspace(-0.9, 1.0, 21):
            a, z = float(a), float(z)
            worst_rec = max(
                worst_rec,
                abs(
                    (a + 1) * legendre_p(a + 1, z)
                    - (2 * a + 1) * z * legendre_p(a, z)
                    + a * legendre_p(a - 1, z)
                ),
            )
    worst_quad = 0.0
    for a in (0.25, 0.5, 0.75):
        for z in np.linspace(-0.9, 1.0, 20):
            worst_quad = max(
                worst_quad,
                abs(legendre_p(a, float(z)) - legendre_p_quadrature(a, float(z))),
            )
    ok = worst_poly <= 1e-12 and worst_rec <= 1e-10 and worst_quad <= 1e-9
    report(
        "C10",
        ok,
        f"integer-degree gap {worst_poly:.2e} (tol 1e-12), recurrence "
        f"{worst_rec:.2e} (tol 1e-10), quadrature {worst_quad:.2e} (tol 1e-9)",
    )


def test_c11_discrete_comparison():
    ok_m = all(
        check_m_matrix(SectorGrid.default(2 * math.pi / 3, n_r=40, n_theta=32, m=m)).passed
        for m in (0, 1)
    )
    grid = SectorGrid.default(2 * math.pi / 3, n_r=40, n_theta=32)
    data = lambda r, t: abs(math.sin(3 * r) * math.cos(t)) + 0.05
    field = solve_dirichlet(grid, {"r_min": data, "r_max": data, "cone": data})
    min_dirichlet = float(field.values.min())
    theta0, s = math.pi / 3, -1.3
    geom = ConeGeometry(theta0=theta0)
    root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
    sol = SeparableSolution(alpha=root, m=0)
    grid = SectorGrid(r_min=0.02, r_max=1.0, n_r=48, n_theta=32, theta0=theta0)
    exact = lambda r, t: r ** root * sol.profile(t)
    field = solve_dirichlet(grid, {"r_min": exact, "r_max": exact}, oblique_s=s)
    min_oblique = float(field.values.min())
    ok = ok_m and min_dirichlet >= -1e-12 and min_oblique >= -1e-12
    report(
        "C11",
        ok,
        f"monotone rows certified; minima {min_dirichlet:.2e} (Dirichlet), "
        f"{min_oblique:.2e} (oblique) >= -1e-12",
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
