"""Seeded inputs, timed operations and output checks of the benchmark workloads.

Each workload is a closed loop with one caller: the next block of operations
is issued only after the previous block has returned.  A block is the unit at
which a timed run may stop (one s-column of the phase grid, one m=0/m=1 solve
pair, one verify suite), so every run does whole blocks and the mix of work
does not depend on where the clock ran out.

The timed code calls obliquecone's public functions only.  The checks run
after the clock stops and use oracles off the production path: closed forms,
the quadrature oracle `legendre_p_quadrature`, and the documented labelling
rule of `classify_regime`.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from obliquecone import (
    ConeGeometry,
    DiscreteField,
    ObliqueBC,
    ObliqueConeError,
    SectorGrid,
    SeparableSolution,
    check_m_matrix,
    classify_regime,
    critical_exponent,
    laplacian_residual,
    neumann_exponent,
    solve_dirichlet,
)
from obliquecone.legendre import legendre_p_quadrature
from obliquecone.verify import run_suite
from tracing import NullTracer


@dataclass
class Outcome:
    op: int
    kind: str
    inputs: Any
    latency_s: float
    output: Any = None
    error: Optional[str] = None


class Workload:
    """Interface of a workload; see PhaseSweep for one implementation."""

    name = ""

    def blocks(self, seed: int) -> list:
        """One input cycle; a run repeats it block by block."""
        raise NotImplementedError

    def run_block(self, block, tracer, ids) -> list[Outcome]:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> Optional[str]:
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def notes(self, outcomes: list[Outcome]) -> dict:
        """Extra observations for the run's report."""
        return {}

    def warm_up(self) -> None:
        raise NotImplementedError


def _attempt(tracer, op: int, kind: str, inputs, fn: Callable[[], Any]) -> Outcome:
    """Time one operation; an ObliqueConeError makes it a failed operation."""
    tracer.op = op
    start = time.perf_counter()
    try:
        output, error = fn(), None
    except ObliqueConeError as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(op, kind, inputs, time.perf_counter() - start, output, error)


# ---------------------------------------------------------------------------
# oracles (independent of the series kernel and of the solver)
# ---------------------------------------------------------------------------

def oracle_p(alpha: float, z: float) -> float:
    return legendre_p_quadrature(alpha, z)


def oracle_p1(alpha: float, z: float) -> float:
    """P^1_a(z) = -(a+1)(z P_a(z) - P_{a+1}(z)) / sqrt(1 - z^2) from the oracle."""
    if z >= 1.0:
        return 0.0
    return -(alpha + 1.0) * (z * oracle_p(alpha, z) - oracle_p(alpha + 1.0, z)) / math.sqrt(
        1.0 - z * z
    )


def oracle_mismatch(theta0: float, alpha: float, s: float) -> tuple[float, float]:
    """B(theta0, a, s) = cos s U1 + sin s U2 through the quadrature oracle.

    Returns (B, scale), where scale is the largest term magnitude of the sum.
    """
    z, st = math.cos(theta0), math.sin(theta0)
    p, p_next = oracle_p(alpha, z), oracle_p(alpha + 1.0, z)
    terms = (
        math.cos(s) * (2.0 * alpha + 1.0) * z * p,
        -math.cos(s) * (alpha + 1.0) * p_next,
        math.sin(s) * st * (alpha - (alpha + 1.0) * z * z / (st * st)) * p,
        math.sin(s) * (alpha + 1.0) * (z / st) * p_next,
    )
    return sum(terms), max(1.0, *(abs(t) for t in terms))


def oracle_neumann(theta0: float, alpha: float) -> tuple[float, float]:
    """W = (P^1_a)'(z0) = (-a P^1_{a+1} + (a+1) z P^1_a) / (1 - z^2) from the oracle."""
    z = math.cos(theta0)
    terms = (
        -alpha * oracle_p1(alpha + 1.0, z) / (1.0 - z * z),
        (alpha + 1.0) * z * oracle_p1(alpha, z) / (1.0 - z * z),
    )
    return sum(terms), max(1.0, *(abs(t) for t in terms))


#: Boundary mismatch (relative to its largest term) accepted at a reported root.
ROOT_MISMATCH_TOL = 1e-8

#: Accepted distance of the reported s0 from the closed form (theta0 - pi)/2.
S0_TOL = 1e-9

#: Lower edge of the exponent window; roots must lie in (ALPHA_LO, 1].
ALPHA_LO = 1e-3


# ---------------------------------------------------------------------------
# phase-sweep: classify_regime over a jittered (theta0, s) grid
# ---------------------------------------------------------------------------

#: Fixed theta0 rows, 0.2 to 3.05.  3.05 is the last row below the kernel's
#: NonConvergence edge (about 3.067), where a cell costs the most.
PHASE_ROWS = tuple(round(0.2 + 0.19 * k, 2) for k in range(16))

#: s-fraction strata per row; the seed jitters s inside each stratum.
PHASE_COLUMNS = 12


def expected_label(root: Optional[float], s: float) -> str:
    """The labelling rule documented on `classify_regime`."""
    barrier_regime = math.cos(s) * math.sin(s) > 0.0
    if root is not None:
        return "UNKNOWN" if barrier_regime else "IRREGULAR"
    if barrier_regime:
        return "REGULAR_BARRIER"
    return "AXIS_CONTINUOUS" if s == 0.0 else "UNKNOWN"


class PhaseSweep(Workload):
    name = "phase-sweep"

    def blocks(self, seed: int) -> list[list[tuple[float, float]]]:
        """One block per s-stratum: every row once, so any whole block keeps the mix."""
        rng = random.Random(seed)
        columns = []
        for j in range(PHASE_COLUMNS):
            column = []
            for theta0 in PHASE_ROWS:
                frac = (j + rng.uniform(0.05, 0.95)) / PHASE_COLUMNS
                lo, hi = -math.pi + theta0, theta0
                column.append((theta0, lo + frac * (hi - lo)))
            columns.append(column)
        return columns

    def run_block(self, block, tracer, ids) -> list[Outcome]:
        return [
            _attempt(tracer, next(ids), "classify", cell, lambda c=cell: self._op(c, tracer))
            for cell in block
        ]

    @staticmethod
    def _op(cell, tracer):
        theta0, s = cell
        geom = ConeGeometry(theta0=theta0)
        bc = ObliqueBC.for_cone(geom, s)
        with tracer.span("exponent.classify_regime"):
            return classify_regime(geom, bc)

    def check(self, outcome: Outcome) -> Optional[str]:
        theta0, s = outcome.inputs
        report = outcome.output
        if abs(report.s0 - 0.5 * (theta0 - math.pi)) > S0_TOL:
            return f"s0 {report.s0!r} differs from (theta0 - pi)/2"
        root = report.critical_exponent
        if root is None and self.root_guaranteed(theta0, s):
            return f"no root reported although B({ALPHA_LO}) and B(1) = cos s differ in sign"
        if root is not None:
            if not (ALPHA_LO < root <= 1.0):
                return f"root {root!r} outside ({ALPHA_LO}, 1]"
            mismatch, scale = oracle_mismatch(theta0, root, s)
            if abs(mismatch) > ROOT_MISMATCH_TOL * scale:
                return f"quadrature mismatch {mismatch:.3e} at the reported root"
        label = expected_label(root, s)
        if report.label != label:
            return f"label {report.label} where the rule gives {label}"
        return None

    @staticmethod
    def root_guaranteed(theta0: float, s: float) -> Optional[bool]:
        """Whether B(theta0, ., s) must vanish in the search window (ALPHA_LO, 1].

        B(0) = 0, so slope_at_zero V and B(1) = cos s of opposite signs
        guarantee a root in (0, 1).  It lies in the window exactly when the
        oracle's B(ALPHA_LO) still has the sign of V; None when V alone
        guarantees a root and it lies below the window (s close to s0).
        """
        slope = math.cos(s) + math.sin(s) * (1.0 - math.cos(theta0)) / math.sin(theta0)
        if slope * math.cos(s) >= 0.0:
            return False
        b_lo, scale = oracle_mismatch(theta0, ALPHA_LO, s)
        if b_lo * math.cos(s) < 0.0 and abs(b_lo) > ROOT_MISMATCH_TOL * scale:
            return True
        return None

    def notes(self, outcomes) -> dict:
        """Cells with a root in (0, ALPHA_LO], below the exponent search window."""
        below = [
            o.inputs for o in outcomes
            if o.output is not None and o.output.critical_exponent is None
            and self.root_guaranteed(*o.inputs) is None
        ]
        return {"roots_below_window": len(below), "roots_below_window_cells": below}

    def warm_up(self) -> None:
        geom = ConeGeometry(theta0=2.0)
        classify_regime(geom, ObliqueBC.for_cone(geom, 1.0))


# ---------------------------------------------------------------------------
# oblique-solve: certified finite-difference solves on a 257^2 sector grid
# ---------------------------------------------------------------------------

SOLVE_N = 257
SOLVE_R_MIN = 0.05

#: Pairs in one input cycle; a run does whole pairs.
SOLVE_PAIRS = 8

#: Opening angles drawn for the solves; pi/2 < theta0 guarantees both roots.
SOLVE_THETA0 = (1.8, 2.6)

#: Max nodal error against the exact separable solution on the 257^2 grid.
#: Observed worst cases over SOLVE_THETA0 are 9e-5 (m=0) and 3e-6 (m=1).
NODAL_ERROR_BOUND = {0: 5e-4, 1: 5e-5}

#: Accepted gap between grids.from_function's exact field and the oracle's.
EXACT_FIELD_TOL = 1e-9


class ObliqueSolve(Workload):
    name = "oblique-solve"

    def blocks(self, seed: int) -> list[tuple[tuple, tuple]]:
        rng = random.Random(seed)
        pairs = []
        for k in range(SOLVE_PAIRS):
            theta0 = rng.uniform(*SOLVE_THETA0)
            frac = rng.uniform(0.2, 0.8)
            if k % 2 == 0:
                # cos s < 0 < B'(0): a root is guaranteed
                s = 0.5 * math.pi + frac * (theta0 - 0.5 * math.pi)
            else:
                # B'(0) < 0 < cos s: a root is guaranteed
                lo = -math.pi + theta0
                s = lo + frac * (0.5 * (theta0 - math.pi) - lo)
            pairs.append(((0, theta0, s), (1, rng.uniform(*SOLVE_THETA0), None)))
        return pairs

    def run_block(self, block, tracer, ids) -> list[Outcome]:
        return [
            _attempt(tracer, next(ids), f"m{case[0]}", case, lambda c=case: solve_case(c, tracer))
            for case in block
        ]

    def check(self, outcome: Outcome) -> Optional[str]:
        m, theta0, s = outcome.inputs
        out = outcome.output
        alpha = out["alpha"]
        if alpha is None:
            return "no critical exponent where a root is guaranteed"
        if not (ALPHA_LO < alpha <= 1.0):
            return f"exponent {alpha!r} outside ({ALPHA_LO}, 1]"
        if m == 0:
            mismatch, scale = oracle_mismatch(theta0, alpha, s)
        else:
            mismatch, scale = oracle_neumann(theta0, alpha)
        if abs(mismatch) > ROOT_MISMATCH_TOL * scale:
            return f"quadrature mismatch {mismatch:.3e} at the exponent"
        if not out["m_matrix_passed"]:
            return "M-matrix check failed"
        if not math.isfinite(out["residual"]):
            return "non-finite Laplacian residual"
        grid = out["grid"]
        profile = oracle_p if m == 0 else oracle_p1
        angular = np.array([profile(alpha, math.cos(t)) for t in grid.theta])
        exact = np.outer(grid.r ** alpha, angular)
        field_gap = float(np.abs(out["exact_field"] - exact).max())
        if field_gap > EXACT_FIELD_TOL:
            return f"from_function field differs from the oracle by {field_gap:.3e}"
        error = float(np.abs(out["values"] - exact).max())
        if error > NODAL_ERROR_BOUND[m]:
            return f"nodal error {error:.3e} above {NODAL_ERROR_BOUND[m]:.1e}"
        return None

    def warm_up(self) -> None:
        solve_case((0, 2.0, 1.8), NullTracer(), n=33)
        solve_case((1, 2.0, None), NullTracer(), n=33)


def solve_case(case, tracer, n: int = SOLVE_N) -> dict:
    """Exponent, solve, M-matrix report, exact field and residual of one case."""
    m, theta0, s = case
    geom = ConeGeometry(theta0=theta0)
    if m == 0:
        with tracer.span("exponent.critical_exponent"):
            alpha = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
        if alpha is None:
            return {"alpha": None}
    else:
        with tracer.span("exponent.neumann_exponent"):
            alpha = neumann_exponent(geom)
    sol = SeparableSolution(alpha=alpha, m=m)
    grid = SectorGrid(
        r_min=SOLVE_R_MIN, r_max=1.0, n_r=n, n_theta=n, theta0=theta0, m=m
    )

    def exact(r: float, t: float) -> float:
        return r ** alpha * sol.profile(t)

    edges = {"r_min": exact, "r_max": exact}
    if m == 1:
        edges["cone"] = exact
    with tracer.span("solver.solve_dirichlet"):
        field = solve_dirichlet(grid, edges, oblique_s=s)
    with tracer.span("solver.check_m_matrix"):
        report = check_m_matrix(grid, oblique_s=s)
    with tracer.span("grids.from_function"):
        exact_field = DiscreteField.from_function(grid, exact)
    with tracer.span("solver.laplacian_residual"):
        _, residual = laplacian_residual(sol, grid)
    return {
        "alpha": alpha,
        "grid": grid,
        "values": field.values,
        "exact_field": exact_field.values,
        "m_matrix_passed": report.passed,
        "interior_rows": report.n_interior_rows,
        "residual": residual,
    }


# ---------------------------------------------------------------------------
# verify-suite: the full invariant suite, one CheckResult per operation
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("special", "exponent", "barrier", "solver")


class VerifySuite(Workload):
    name = "verify-suite"

    def blocks(self, seed: int) -> list[str]:
        # the suite takes no inputs; the seed has nothing to move
        return ["all"]

    def run_block(self, block, tracer, ids) -> list[Outcome]:
        tracer.op = first = next(ids)
        with tracer.span("verify.run_suite"):
            results = run_suite(block)
        ops = [first] + [next(ids) for _ in results[1:]]
        return [
            Outcome(op, r.suite, r.name, r.seconds, r, None) for op, r in zip(ops, results)
        ]

    def check(self, outcome: Outcome) -> Optional[str]:
        result = outcome.output
        if result.suite not in VERIFY_SUITES:
            return f"unexpected suite {result.suite!r}"
        return None if result.passed else f"check failed: {result.detail}"

    def warm_up(self) -> None:
        run_suite("special")


WORKLOADS = {w.name: w for w in (PhaseSweep(), ObliqueSolve(), VerifySuite())}


def input_digest(workload, seed: int) -> str:
    """Hash of the generated inputs of one cycle; equal seeds give equal hashes."""
    text = repr((workload.name, workload.blocks(seed))).encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]
