"""Layer probe of the traced run: one span per public call into each layer.

Every call is timed by a span named `<layer>.<call>`; `layer_metrics` turns
the span totals into the per-layer metrics named in BENCHMARK.json.  Inputs
come from the workload generators (phase rows and solve cases of the run's
seed) or are fixed below, so a traced run covers every layer whichever
workload it belongs to.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import obliquecone as oc
from obliquecone import barrier, cli, holder, verify
from obliquecone.exponent import critical_exponent_scan
from obliquecone.legendre import legendre_p, legendre_p_many, legendre_p_quadrature

import workloads as wl

#: The degree scan of the root search: 2000 points on [1e-3, 1], and the
#: same degrees shifted by one, as the mismatch profile needs both.
SCAN_ALPHAS = np.linspace(1e-3, 1.0, 2000)

#: Rows above the kernel's NonConvergence edge; classify_regime raises there
#: at the time of writing.  Counted, not failed: they are inside the domain.
EDGE_ROWS = (3.07, 3.08, 3.09)

SCALAR_CALLS = 1000
M1_CALLS = 200
FIT_CALLS = 20
NEUMANN_CASES = 4
#: The degree the verify suite certifies barriers at.
BARRIER_DEGREE = 0.05
BARRIER_THETA0 = (math.pi / 3.0, 2.0 * math.pi / 3.0, 3.0 * math.pi / 4.0)
PHASE_MAP_ARGS = [
    "phase-map", "--theta0-lo", "0.4", "--theta0-hi", "2.6", "--theta0-count", "5",
    "--s-count", "5",
]


def _ms(tracer, name: str) -> float:
    return 1e3 * tracer.mean(name)


def probe_exponent(tracer, seed: int) -> dict:
    """Kernel profiles, scans and classifications at one cell per phase row.

    Row i takes its cell from s-stratum i mod 12 of the seed's grid, so the
    cells cross every stratum and include roots.
    """
    columns = wl.WORKLOADS["phase-sweep"].blocks(seed)
    cells = [columns[i % len(columns)][i] for i in range(len(wl.PHASE_ROWS))]
    brackets = 0
    refine_ms = []
    for theta0, s in cells:
        geom = oc.ConeGeometry(theta0=theta0)
        bc = oc.ObliqueBC.for_cone(geom, s)
        with tracer.span("legendre.legendre_p_many"):
            legendre_p_many(SCAN_ALPHAS, geom.z0)
            legendre_p_many(SCAN_ALPHAS + 1.0, geom.z0)
        with tracer.span("exponent.critical_exponent_scan"):
            critical_exponent_scan(geom, bc)
        profile, scan = tracer.spans[-2:]
        refine_ms.append(1e3 * (scan["end"] - scan["start"] - profile["end"] + profile["start"]))
        with tracer.span("exponent.critical_angle_s0"):
            oc.critical_angle_s0(geom)
        with tracer.span("exponent.classify_regime"):
            report = oc.classify_regime(geom, bc)
        brackets += int(report.witness("sign_change_count"))
    edge_failures = 0
    for theta0 in EDGE_ROWS:
        geom = oc.ConeGeometry(theta0=theta0)
        try:
            with tracer.span("exponent.classify_regime_edge"):
                oc.classify_regime(geom, oc.ObliqueBC.for_cone(geom, 0.5 * theta0))
        except oc.ObliqueConeError:
            edge_failures += 1
    profile_s, profiles = tracer.totals("legendre.legendre_p_many")
    return {
        "legendre.profile_ms": _ms(tracer, "legendre.legendre_p_many"),
        "legendre.degrees_per_s": profiles * 2 * SCAN_ALPHAS.size / profile_s,
        "exponent.scan_ms": _ms(tracer, "exponent.critical_exponent_scan"),
        "exponent.refine_ms": statistics.median(refine_ms),
        "exponent.brackets": brackets,
        "exponent.s0_ms": _ms(tracer, "exponent.critical_angle_s0"),
        "exponent.classify_ms": _ms(tracer, "exponent.classify_regime"),
        "exponent.edge_failures": edge_failures,
    }


def probe_legendre_scalar(tracer) -> dict:
    alphas = np.linspace(0.01, 1.99, SCALAR_CALLS)
    zs = (math.cos(1.0), math.cos(2.0), math.cos(2.5))
    with tracer.span("legendre.legendre_p"):
        for z in zs:
            for a in alphas:
                legendre_p(float(a), z)
    quad_points = [(a, math.cos(t)) for a in (0.3, 0.8, 1.6) for t in (0.7, 1.4, 2.2, 2.8)]
    for a, z in quad_points:
        with tracer.span("legendre.legendre_p_quadrature"):
            legendre_p_quadrature(a, z)
    return {
        "legendre.scalar_us": 1e6 * tracer.mean("legendre.legendre_p") / (len(zs) * SCALAR_CALLS),
        "legendre.quadrature_ms": _ms(tracer, "legendre.legendre_p_quadrature"),
    }


def probe_barrier(tracer) -> dict:
    for theta0 in BARRIER_THETA0:
        geom = oc.ConeGeometry(theta0=theta0)
        with tracer.span("barrier.alpha0"):
            barrier.alpha0(geom)
        with tracer.span("barrier.build_barrier"):
            bar = barrier.build_barrier(geom, BARRIER_DEGREE)
        # s in (0, min(theta0, pi/2)): cos s sin s > 0, the barrier regime
        bc = oc.ObliqueBC.for_cone(geom, 0.5 * min(theta0, 0.5 * math.pi))
        rc = barrier.rotate_coefficients(np.eye(2), bc)
        with tracer.span("barrier.m1_coefficient"):
            for _ in range(M1_CALLS):
                barrier.m1_coefficient(bar, bc, rc)
    return {
        "barrier.alpha0_ms": _ms(tracer, "barrier.alpha0"),
        "barrier.build_ms": _ms(tracer, "barrier.build_barrier"),
        "barrier.m1_us": 1e6 * tracer.mean("barrier.m1_coefficient") / M1_CALLS,
    }


def probe_solver(tracer, seed: int) -> tuple[dict, list]:
    """Neumann exponents of the seed's m=1 cases, then one m=0 solve, step by step."""
    workload = wl.WORKLOADS["oblique-solve"]
    pairs = workload.blocks(seed)
    for _, (_, theta0, _) in pairs[:NEUMANN_CASES]:
        with tracer.span("exponent.neumann_exponent"):
            oc.neumann_exponent(oc.ConeGeometry(theta0=theta0))
    case = pairs[0][0]
    out = wl.solve_case(case, tracer)
    problem = workload.check(wl.Outcome("probe", "m0", case, 0.0, out))
    field = oc.DiscreteField(grid=out["grid"], values=out["values"])
    for _ in range(FIT_CALLS):
        with tracer.span("solver.fit_exponent"):
            oc.fit_exponent(field, 0.0, (0.1, 0.9))
    solve_s = tracer.mean("solver.solve_dirichlet")
    return {
        "exponent.neumann_ms": _ms(tracer, "exponent.neumann_exponent"),
        "grids.from_function_ms": _ms(tracer, "grids.from_function"),
        "solver.solve_ms": 1e3 * solve_s,
        "solver.mmatrix_ms": _ms(tracer, "solver.check_m_matrix"),
        "solver.residual_ms": _ms(tracer, "solver.laplacian_residual"),
        "solver.unknowns_per_s": out["grid"].node_count() / solve_s,
        "solver.interior_rows": out["interior_rows"],
        "solver.fit_ms": _ms(tracer, "solver.fit_exponent"),
    }, [None if problem is None else f"probe solve: {problem}"]


def probe_holder(tracer) -> dict:
    pts = holder.sector_sample_points(2.0, 1e-2, 1.0)
    with tracer.span("holder.samples_from_function"):
        samples = holder.samples_from_function(
            lambda y1, y2: math.hypot(y1, y2) ** 0.7, pts, derivatives=2
        )
    spec = holder.HolderSpec(k=0, alpha=0.5, beta=-0.5)
    for _ in range(10):
        with tracer.span("holder.holder_seminorm"):
            holder.holder_seminorm(samples, spec)
    n = len(samples)
    return {
        "holder.samples_ms": _ms(tracer, "holder.samples_from_function"),
        "holder.seminorm_ms": _ms(tracer, "holder.holder_seminorm"),
        "holder.pairs": n * (n - 1) // 2,
    }


def probe_verify(tracer) -> tuple[dict, list]:
    with tracer.span("verify.run_suite"):
        results = verify.run_suite("all")
    metrics = {
        f"verify.{suite}_s": sum(r.seconds for r in results if r.suite == suite)
        for suite in wl.VERIFY_SUITES
    }
    return metrics, [None if r.passed else f"verify {r.suite}.{r.name}: {r.detail}" for r in results]


def probe_cli(tracer, out_dir: Path, env: dict) -> tuple[dict, list]:
    """Cold `classify` in fresh interpreters, and in-process phase-map twice."""
    checks = []
    for _ in range(3):
        with tracer.span("cli.classify_cold"):
            done = subprocess.run(
                [sys.executable, "-m", "obliquecone.cli", "classify", "--theta0", "2.0",
                 "--s", "1.0"],
                env=env, capture_output=True, timeout=60,
            )
        checks.append(None if done.returncode == 0 else f"classify exited {done.returncode}")
    outputs = []
    for k in range(2):
        path = out_dir / f"phase-map-{k}.csv"
        with tracer.span("cli.phase_map"):
            code = cli.main(PHASE_MAP_ARGS + ["--output", str(path)])
        checks.append(None if code == 0 else f"phase-map exited {code}")
        outputs.append(path.read_bytes() if code == 0 else None)
    same = outputs[0] is not None and outputs[0] == outputs[1]
    checks.append(None if same else "phase-map CSV differs between two identical invocations")
    cold_s = [s["end"] - s["start"] for s in tracer.spans if s["name"] == "cli.classify_cold"]
    return {
        "cli.classify_cold_s": statistics.median(cold_s),
        "cli.phase_map_s": tracer.mean("cli.phase_map"),
    }, checks


def layer_metrics(tracer, seed: int, out_dir: Path, env: dict) -> tuple[dict, list]:
    """Run every probe; returns the per-layer metrics and one entry per output
    check: None when it passed, else the reason it failed."""
    metrics: dict = {}
    checks: list = []
    tracer.op = "probe"
    metrics.update(probe_exponent(tracer, seed))
    metrics.update(probe_legendre_scalar(tracer))
    metrics.update(probe_barrier(tracer))
    metrics.update(probe_holder(tracer))
    for probe in (
        lambda: probe_solver(tracer, seed),
        lambda: probe_verify(tracer),
        lambda: probe_cli(tracer, out_dir, env),
    ):
        values, results = probe()
        metrics.update(values)
        checks.extend(results)
    return metrics, checks
