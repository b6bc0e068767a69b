"""Command-line interface: output formats, determinism, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from obliquecone import exponent
from obliquecone.cli import main
from obliquecone.exponent import boundary_mismatch
from obliquecone.geometry import ConeGeometry
from obliquecone.verify import CheckResult, run_suite


#: Stdout of `barrier-check`, `exponent` and `classify`, byte for byte: the
#: barrier's c*, m1 and m2, the Neumann and oblique roots with their
#: mismatches, and the labels and witnesses of one cell per regime must not
#: move.  theta0 = 2.8 puts the boundary below Z_SWITCH, so its cells run the
#: connection series.
STDOUT_PINS = {
    'barrier-check --theta0 1.0471975511965976 --s 0.5': (
        'theta0: 1.0471975511965976\n'
        's: 0.5\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 1\n'
        'cstar: 0.98495180842281249\n'
        'm1_coefficient: -3.4964695239668089\n'
        'tilt: 0.5\n'
        'm2_coefficient: -29.771149244024983\n'
    ),
    'barrier-check --theta0 1.0471975511965976 --s 0.5 --json': (
        '{"schema_version": 1, "theta0": 1.0471975511965976, "s": 0.5, '
        '"alpha": 0.05, "alpha0": 1.0, "cstar": 0.9849518084228125, '
        '"m1_coefficient": -3.496469523966809, "tilt": 0.5, '
        '"m2_coefficient": -29.771149244024983}\n'
    ),
    'barrier-check --theta0 1.0471975511965976 --s 0.5 --tilt 0.01': (
        'theta0: 1.0471975511965976\n'
        's: 0.5\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 1\n'
        'cstar: 0.98495180842281249\n'
        'm1_coefficient: -3.4964695239668089\n'
        'tilt: 0.01\n'
        'm2_coefficient: -3.5418388114090957\n'
    ),
    'barrier-check --theta0 1.0471975511965976 --s 0.5 --tilt 0.01 --json': (
        '{"schema_version": 1, "theta0": 1.0471975511965976, "s": 0.5, '
        '"alpha": 0.05, "alpha0": 1.0, "cstar": 0.9849518084228125, '
        '"m1_coefficient": -3.496469523966809, "tilt": 0.01, '
        '"m2_coefficient": -3.5418388114090957}\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s 0.5': (
        'theta0: 2.0943951023931953\n'
        's: 0.5\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 0.60150930939653746\n'
        'cstar: 0.92833619839577786\n'
        'm1_coefficient: -1.6963586288452799\n'
        'tilt: 0.5\n'
        'm2_coefficient: -27.031907943771238\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s 0.5 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": 0.5, '
        '"alpha": 0.05, "alpha0": 0.6015093093965375, '
        '"cstar": 0.9283361983957779, "m1_coefficient": -1.6963586288452799, '
        '"tilt": 0.5, "m2_coefficient": -27.031907943771238}\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s 0.5 --tilt 0.01': (
        'theta0: 2.0943951023931953\n'
        's: 0.5\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 0.60150930939653746\n'
        'cstar: 0.92833619839577786\n'
        'm1_coefficient: -1.6963586288452799\n'
        'tilt: 0.01\n'
        'm2_coefficient: -1.7401062912953611\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s 0.5 --tilt 0.01 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": 0.5, '
        '"alpha": 0.05, "alpha0": 0.6015093093965375, '
        '"cstar": 0.9283361983957779, "m1_coefficient": -1.6963586288452799, '
        '"tilt": 0.01, "m2_coefficient": -1.740106291295361}\n'
    ),
    'barrier-check --theta0 2.356194490192345 --s 0.5': (
        'theta0: 2.3561944901923448\n'
        's: 0.5\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 0.46309856175337261\n'
        'cstar: 0.90114460121066708\n'
        'm1_coefficient: -1.6808221418483371\n'
        'tilt: 0.5\n'
        'm2_coefficient: -31.495242120369689\n'
    ),
    'barrier-check --theta0 2.356194490192345 --s 0.5 --json': (
        '{"schema_version": 1, "theta0": 2.356194490192345, "s": 0.5, '
        '"alpha": 0.05, "alpha0": 0.4630985617533726, '
        '"cstar": 0.9011446012106671, "m1_coefficient": -1.6808221418483371, '
        '"tilt": 0.5, "m2_coefficient": -31.49524212036969}\n'
    ),
    'barrier-check --theta0 2.356194490192345 --s 0.5 --tilt 0.01': (
        'theta0: 2.3561944901923448\n'
        's: 0.5\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 0.46309856175337261\n'
        'cstar: 0.90114460121066708\n'
        'm1_coefficient: -1.6808221418483371\n'
        'tilt: 0.01\n'
        'm2_coefficient: -1.7323036062978532\n'
    ),
    'barrier-check --theta0 2.356194490192345 --s 0.5 --tilt 0.01 --json': (
        '{"schema_version": 1, "theta0": 2.356194490192345, "s": 0.5, '
        '"alpha": 0.05, "alpha0": 0.4630985617533726, '
        '"cstar": 0.9011446012106671, "m1_coefficient": -1.6808221418483371, '
        '"tilt": 0.01, "m2_coefficient": -1.7323036062978532}\n'
    ),
    'exponent --theta0 2.0944 --neumann': (
        'theta0: 2.0943999999999998\n'
        'mode: 1\n'
        'exponent: 0.85631285351565434\n'
        'mismatch_at_root: 2.0075787213075863e-13\n'
    ),
    'exponent --theta0 2.0944 --neumann --json': (
        '{"schema_version": 1, "theta0": 2.0944, "mode": 1, '
        '"exponent": 0.8563128535156543, '
        '"mismatch_at_root": 2.0075787213075863e-13}\n'
    ),
    'exponent --theta0 3.08 --neumann': (
        'theta0: 3.0800000000000001\n'
        'mode: 1\n'
        'exponent: 0.99809675929312736\n'
        'mismatch_at_root: 1.3614642642470426e-09\n'
    ),
    'exponent --theta0 3.08 --neumann --json': (
        '{"schema_version": 1, "theta0": 3.08, "mode": 1, '
        '"exponent": 0.9980967592931274, '
        '"mismatch_at_root": 1.3614642642470426e-09}\n'
    ),
    'classify --theta0 1.0471975511965976 --s 0': (
        'theta0: 1.0471975511965976\n'
        's: 0\n'
        'label: AXIS_CONTINUOUS\n'
        's0: -1.0471975511965979\n'
        'witness slope_at_zero: 1 (tolerance 0)\n'
        'witness critical_angle_s0: -1.0471975511965979 (tolerance 1e-10)\n'
        'witness cos_s_sin_s: 0 (tolerance 0)\n'
        'witness sign_change_count: 0 (tolerance 0)\n'
    ),
    'classify --theta0 1.0471975511965976 --s 0 --json': (
        '{"schema_version": 1, "theta0": 1.0471975511965976, "s": 0.0, '
        '"label": "AXIS_CONTINUOUS", "critical_exponent": null, '
        '"s0": -1.0471975511965979, "witnesses": [{"name": "slope_at_zero", '
        '"value": 1.0, "tolerance": 0.0}, {"name": "critical_angle_s0", '
        '"value": -1.0471975511965979, "tolerance": 1e-10}, '
        '{"name": "cos_s_sin_s", "value": 0.0, "tolerance": 0.0}, '
        '{"name": "sign_change_count", "value": 0.0, "tolerance": 0.0}]}\n'
    ),
    'classify --theta0 1.0471975511965976 --s 0.6': (
        'theta0: 1.0471975511965976\n'
        's: 0.59999999999999998\n'
        'label: REGULAR_BARRIER\n'
        's0: -1.0471975511965979\n'
        'witness slope_at_zero: 1.1513320989201981 (tolerance 0)\n'
        'witness critical_angle_s0: -1.0471975511965979 (tolerance 1e-10)\n'
        'witness cos_s_sin_s: 0.4660195429836132 (tolerance 0)\n'
        'witness sign_change_count: 0 (tolerance 0)\n'
    ),
    'classify --theta0 1.0471975511965976 --s 0.6 --json': (
        '{"schema_version": 1, "theta0": 1.0471975511965976, "s": 0.6, '
        '"label": "REGULAR_BARRIER", "critical_exponent": null, '
        '"s0": -1.0471975511965979, "witnesses": [{"name": "slope_at_zero", '
        '"value": 1.151332098920198, "tolerance": 0.0}, '
        '{"name": "critical_angle_s0", "value": -1.0471975511965979, '
        '"tolerance": 1e-10}, {"name": "cos_s_sin_s", '
        '"value": 0.4660195429836132, "tolerance": 0.0}, '
        '{"name": "sign_change_count", "value": 0.0, "tolerance": 0.0}]}\n'
    ),
    'classify --theta0 2.0943951023931953 --s -0.3': (
        'theta0: 2.0943951023931953\n'
        's: -0.29999999999999999\n'
        'label: UNKNOWN\n'
        's0: -0.52359877559829893\n'
        'witness slope_at_zero: 0.4434804765249114 (tolerance 0)\n'
        'witness critical_angle_s0: -0.52359877559829893 (tolerance 1e-10)\n'
        'witness cos_s_sin_s: -0.28232123669751763 (tolerance 0)\n'
        'witness sign_change_count: 0 (tolerance 0)\n'
    ),
    'classify --theta0 2.0943951023931953 --s -0.3 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": -0.3, '
        '"label": "UNKNOWN", "critical_exponent": null, '
        '"s0": -0.5235987755982989, "witnesses": [{"name": "slope_at_zero", '
        '"value": 0.4434804765249114, "tolerance": 0.0}, '
        '{"name": "critical_angle_s0", "value": -0.5235987755982989, '
        '"tolerance": 1e-10}, {"name": "cos_s_sin_s", '
        '"value": -0.28232123669751763, "tolerance": 0.0}, '
        '{"name": "sign_change_count", "value": 0.0, "tolerance": 0.0}]}\n'
    ),
    'classify --theta0 2.0943951023931953 --s 1.8': (
        'theta0: 2.0943951023931953\n'
        's: 1.8\n'
        'label: IRREGULAR\n'
        'critical_exponent: 0.85112746747410517\n'
        's0: -0.52359877559829893\n'
        'witness slope_at_zero: 1.4595514808185284 (tolerance 0)\n'
        'witness critical_angle_s0: -0.52359877559829893 (tolerance 1e-10)\n'
        'witness cos_s_sin_s: -0.22126022164742623 (tolerance 0)\n'
        'witness sign_change_count: 1 (tolerance 0)\n'
        'witness critical_exponent: 0.85112746747410517'
        ' (tolerance 9.9999999999999998e-13)\n'
        'witness boundary_mismatch_at_root: -3.3650859876388495e-13 (tolerance 1e-10)\n'
    ),
    'classify --theta0 2.0943951023931953 --s 1.8 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": 1.8, '
        '"label": "IRREGULAR", "critical_exponent": 0.8511274674741052, '
        '"s0": -0.5235987755982989, "witnesses": [{"name": "slope_at_zero", '
        '"value": 1.4595514808185284, "tolerance": 0.0}, '
        '{"name": "critical_angle_s0", "value": -0.5235987755982989, '
        '"tolerance": 1e-10}, {"name": "cos_s_sin_s", '
        '"value": -0.22126022164742623, "tolerance": 0.0}, '
        '{"name": "sign_change_count", "value": 1.0, "tolerance": 0.0}, '
        '{"name": "critical_exponent", "value": 0.8511274674741052, '
        '"tolerance": 1e-12}, {"name": "boundary_mismatch_at_root", '
        '"value": -3.3650859876388495e-13, "tolerance": 1e-10}]}\n'
    ),
    'classify --theta0 2.8 --s 2.0': (
        'theta0: 2.7999999999999998\n'
        's: 2\n'
        'label: IRREGULAR\n'
        'critical_exponent: 0.90312436214212433\n'
        's0: -0.17079632679489665\n'
        'witness slope_at_zero: 4.8558539069759696 (tolerance 0)\n'
        'witness critical_angle_s0: -0.17079632679489665 (tolerance 1e-10)\n'
        'witness cos_s_sin_s: -0.37840124765396416 (tolerance 0)\n'
        'witness sign_change_count: 1 (tolerance 0)\n'
        'witness critical_exponent: 0.90312436214212433'
        ' (tolerance 9.9999999999999998e-13)\n'
        'witness boundary_mismatch_at_root: -1.5948353748740374e-12 (tolerance 1e-10)\n'
    ),
    'classify --theta0 2.8 --s 2.0 --json': (
        '{"schema_version": 1, "theta0": 2.8, "s": 2.0, '
        '"label": "IRREGULAR", "critical_exponent": 0.9031243621421243, '
        '"s0": -0.17079632679489665, "witnesses": [{"name": "slope_at_zero", '
        '"value": 4.85585390697597, "tolerance": 0.0}, '
        '{"name": "critical_angle_s0", "value": -0.17079632679489665, '
        '"tolerance": 1e-10}, {"name": "cos_s_sin_s", '
        '"value": -0.37840124765396416, "tolerance": 0.0}, '
        '{"name": "sign_change_count", "value": 1.0, "tolerance": 0.0}, '
        '{"name": "critical_exponent", "value": 0.9031243621421243, '
        '"tolerance": 1e-12}, {"name": "boundary_mismatch_at_root", '
        '"value": -1.5948353748740374e-12, "tolerance": 1e-10}]}\n'
    ),
    'exponent --theta0 1.0471975511965976 --s 0.6': (
        'theta0: 1.0471975511965976\n'
        's: 0.59999999999999998\n'
        'mode: 0\n'
        'exponent: absent\n'
        'mismatch_at_root: absent\n'
    ),
    'exponent --theta0 1.0471975511965976 --s 0.6 --json': (
        '{"schema_version": 1, "theta0": 1.0471975511965976, "s": 0.6, '
        '"mode": 0, "exponent": null, "mismatch_at_root": null}\n'
    ),
    'exponent --theta0 2.0943951023931953 --s 1.8': (
        'theta0: 2.0943951023931953\n'
        's: 1.8\n'
        'mode: 0\n'
        'exponent: 0.85112746747410517\n'
        'mismatch_at_root: -3.3650859876388495e-13\n'
    ),
    'exponent --theta0 2.0943951023931953 --s 1.8 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": 1.8, '
        '"mode": 0, "exponent": 0.8511274674741052, '
        '"mismatch_at_root": -3.3650859876388495e-13}\n'
    ),
    'exponent --theta0 2.8 --s 2.0': (
        'theta0: 2.7999999999999998\n'
        's: 2\n'
        'mode: 0\n'
        'exponent: 0.90312436214212433\n'
        'mismatch_at_root: -1.5948353748740374e-12\n'
    ),
    'exponent --theta0 2.8 --s 2.0 --json': (
        '{"schema_version": 1, "theta0": 2.8, "s": 2.0, "mode": 0, '
        '"exponent": 0.9031243621421243, '
        '"mismatch_at_root": -1.5948353748740374e-12}\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s -0.3': (
        'theta0: 2.0943951023931953\n'
        's: -0.29999999999999999\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 0.60150930939653746\n'
        'cstar: 0.92833619839577786\n'
        'm1_coefficient: 4.5780545069615544\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s -0.3 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": -0.3, '
        '"alpha": 0.05, "alpha0": 0.6015093093965375, '
        '"cstar": 0.9283361983957779, "m1_coefficient": 4.578054506961554}\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s 1.8 --tilt 0.1': (
        'theta0: 2.0943951023931953\n'
        's: 1.8\n'
        'alpha: 0.050000000000000003\n'
        'alpha0: 0.60150930939653746\n'
        'cstar: 0.92833619839577786\n'
        'm1_coefficient: 0.77521657240411357\n'
        'tilt: 0.10000000000000001\n'
        'm2_coefficient: 0.79892391563667176\n'
    ),
    'barrier-check --theta0 2.0943951023931953 --s 1.8 --tilt 0.1 --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "s": 1.8, '
        '"alpha": 0.05, "alpha0": 0.6015093093965375, '
        '"cstar": 0.9283361983957779, "m1_coefficient": 0.7752165724041136, '
        '"tilt": 0.1, "m2_coefficient": 0.7989239156366718}\n'
    ),
    'classify --theta0 120 --s 103.13 --degrees': (
        'theta0: 2.0943951023931953\n'
        's: 1.799958057581752\n'
        'label: IRREGULAR\n'
        'critical_exponent: 0.85115803898755549\n'
        's0: -0.52359877559829893\n'
        'witness slope_at_zero: 1.459608830473474 (tolerance 0)\n'
        'witness critical_angle_s0: -0.52359877559829893 (tolerance 1e-10)\n'
        'witness cos_s_sin_s: -0.22122260865243787 (tolerance 0)\n'
        'witness sign_change_count: 1 (tolerance 0)\n'
        'witness critical_exponent: 0.85115803898755549'
        ' (tolerance 9.9999999999999998e-13)\n'
        'witness boundary_mismatch_at_root: 1.6983636719203332e-13 (tolerance 1e-10)\n'
    ),
    'exponent --theta0 120 --s 103.13 --degrees': (
        'theta0: 2.0943951023931953\n'
        's: 1.799958057581752\n'
        'mode: 0\n'
        'exponent: 0.85115803898755549\n'
        'mismatch_at_root: 1.6983636719203332e-13\n'
    ),
    'exponent --theta0 120 --neumann --degrees --json': (
        '{"schema_version": 1, "theta0": 2.0943951023931953, "mode": 1, '
        '"exponent": 0.8563132551458703, '
        '"mismatch_at_root": 1.6018279177575083e-12}\n'
    ),
}

#: sha256 of the CSV `phase-map --theta0-lo 0.2 --theta0-hi 3.09
#: --theta0-count 20 --s-count 20` writes: every label, root and witness
#: digest of a sweep that reaches the connection series and theta0 = 3.09.
PHASE_MAP_SHA256 = "c43fd2c41992c7889fe116a3acab5942da533275f970bddfab6d413f799a43e9"

#: Every check `verify --suite all` runs, in the order it prints them, with
#: its detail string byte for byte; the timings are not pinned.
VERIFY_DETAILS = {
    "special.value_at_one": "max |P_a(1) - 1| = 0.000e+00",
    "special.integer_degree_polynomials": (
        "max deviation from explicit polynomials = 6.661e-16"
    ),
    "special.three_term_recurrence": "max three-term recurrence residual = 4.996e-15",
    "special.dz_identity_vs_richardson": (
        "max relative gap identity vs Richardson = 1.104e-10"
    ),
    "special.kernel_vs_quadrature": "max kernel-vs-quadrature gap = 1.443e-15",
    "special.degree_derivative_identity": (
        "max degree-derivative identity residual = 1.252e-10"
    ),
    "exponent.endpoint_identities": (
        "|B(.,0,.)| <= 2.48e-16, |B(.,1,.) - cos s| <= 1.67e-15"
    ),
    "exponent.slope_fd_matches_closed_form": "max |FD slope - V| = 3.107e-05",
    "exponent.critical_angle_closed_form": "max |s0 - bisected root of V| = 4.998e-13",
    "exponent.roots_in_guaranteed_branches": (
        "roots 0.851127, 0.336856, 0.255747, 0.501239, 0.447298"
    ),
    "exponent.no_root_in_barrier_regime": "no sign change for 5 pairs",
    "exponent.gradient_consistency": "max relative gradient gap = 4.364e-10",
    "exponent.neumann_identities": (
        "|W(.,0)| <= 7.87e-15, |W(.,1)-cot| <= 3.02e-14, slope gap <= 4.80e-05"
    ),
    "exponent.neumann_roots": (
        "half-space root 1.0, obtuse roots interior"
    ),
    "exponent.classification": "4 labelled cases and determinism",
    "exponent.axisymmetric_reduction": (
        "identity and scaled-identity reductions exact for n=3,4,5"
    ),
    "barrier.invariants_certified": (
        "c*(1.047)=0.984952; c*(2.094)=0.928336; c*(2.356)=0.901145"
    ),
    "barrier.profile_limit_small_degree": "sup |F - 1| = 1.921e-04 at degree 1e-4",
    "barrier.untilted_coefficient_negative": "m1 < 0 at 310 sign-regime nodes",
    "barrier.closed_form_vs_directional_fd": (
        "max relative closed-form vs FD gap = 2.572e-10"
    ),
    "barrier.tilt_collapse_and_search": (
        "tilt(1.047,0.5)=0.5; tilt(2.094,0.4)=0.25; tilt(1.047,-1.8)=1"
    ),
    "barrier.barrier_harmonicity_order": "observed order = 1.735",
    "barrier.coefficient_rotation": "identity, unit-diagonal and direct-product cases",
    "solver.residual_convergence_orders": "1.0/m0: 1.93; 0.6/m0: 1.75; 0.856/m1: 1.86",
    "solver.m_matrix_default_grids": "default grids pass for modes 0 and 1",
    "solver.m_matrix_stress_grid": "42 radial and 6 angular violations reported",
    "solver.dirichlet_constant_exact": "constant solve max error = 2.127e-13",
    "solver.discrete_comparison_minimum": (
        "minima 1.00e-01 (Dirichlet), 1.12e-01 (oblique)"
    ),
    "solver.oblique_solve_order": "oblique-solve error order = 2.016",
    "solver.fit_exponent_recovery": "pure-power slope gap = 1.665e-16",
    "solver.holder_estimator_checks": (
        "product lhs/rhs = 0.963/1.59, interpolation constant = 0.315"
    ),
}
VERIFY_IDS = tuple(VERIFY_DETAILS)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_irregular_prints_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--theta0", "2.0944", "--s", "1.8"
        )
        assert code == 0
        assert "label: IRREGULAR" in out
        assert "critical_exponent:" in out

    def test_axis_continuous(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta0", "1.0472", "--s", "0.0")
        assert code == 0
        assert "label: AXIS_CONTINUOUS" in out

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta0", "1.0472", "--s", "2.0")
        assert code == 2
        assert "error:" in err

    def test_unknown_label_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta0", "2.0944", "--s", "-0.3")
        assert code == 0
        assert "label: UNKNOWN" in out

    def test_domain_edge_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta0", "3.08", "--s", "1.0")
        assert code == 0
        assert "label: REGULAR_BARRIER" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--theta0", "2.0944", "--s", "1.8", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["label"] == "IRREGULAR"
        assert 0.0 < payload["critical_exponent"] < 1.0

    def test_degrees_flag(self, capsys):
        code, out_rad, _ = run_cli(
            capsys, "classify", "--theta0", "2.0944", "--s", "1.8", "--json"
        )
        code2, out_deg, _ = run_cli(
            capsys,
            "classify",
            "--theta0",
            str(math.degrees(2.0944)),
            "--s",
            str(math.degrees(1.8)),
            "--degrees",
            "--json",
        )
        assert code == code2 == 0
        a, b = json.loads(out_rad), json.loads(out_deg)
        assert a["label"] == b["label"]
        assert a["critical_exponent"] == pytest.approx(
            b["critical_exponent"], abs=1e-12
        )


class TestExponentCommand:
    def test_absent_root(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--theta0", "2.0944", "--s", "0.7")
        assert code == 0
        assert "exponent: absent" in out

    def test_neumann(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--theta0", "2.0944", "--neumann")
        assert code == 0
        assert "exponent: 0.85631285" in out

    def test_neumann_domain_edge_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--theta0", "3.08", "--neumann")
        assert code == 0
        assert "exponent: 0.998" in out

    def test_neumann_acute_cone_bracket_error(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--theta0", "1.0472", "--neumann")
        assert code == 2
        assert "error:" in err

    def test_missing_s(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--theta0", "2.0944")
        assert code == 2

    def test_s_with_neumann_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "exponent", "--theta0", "2.0", "--neumann", "--s", "0.3")
        assert code == 2 and out == ""
        assert "--s" in err


class TestBarrierCheck:
    def test_reports_negative_coefficient(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "barrier-check",
            "--theta0",
            "2.0944",
            "--s",
            "0.4",
            "--alpha",
            "0.05",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m1_coefficient"] < 0.0
        assert payload["m2_coefficient"] < 0.0
        assert payload["tilt"] >= 1e-6
        assert 0.0 < payload["cstar"] < 1.0

    def test_rejects_degree_beyond_threshold(self, capsys):
        code, _, err = run_cli(
            capsys, "barrier-check", "--theta0", "2.0944", "--s", "0.4", "--alpha", "0.9"
        )
        assert code == 2


class TestPhaseMap:
    ARGS = (
        "phase-map",
        "--theta0-lo",
        "1.7",
        "--theta0-hi",
        "2.6",
        "--theta0-count",
        "4",
        "--s-count",
        "5",
    )

    def test_csv_deterministic_across_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run_cli(capsys, *self.ARGS, "--output", str(p1))
        code2, _, _ = run_cli(capsys, *self.ARGS, "--output", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_bytes_of_a_20_by_20_sweep(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys, "phase-map", "--theta0-lo", "0.2", "--theta0-hi", "3.09",
            "--theta0-count", "20", "--s-count", "20", "--output", str(path),
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PHASE_MAP_SHA256

    def test_one_mismatch_profile_per_theta0_row(self, capsys, tmp_path, monkeypatch):
        # U1 and U2 do not depend on s: a row's cells share one profile, and
        # only b_at_1 and the bisection evaluate single degrees
        profiles = []
        factors = exponent._angular_factors

        def counted(theta, alpha):
            if isinstance(alpha, np.ndarray):
                profiles.append(theta)
            return factors(theta, alpha)

        monkeypatch.setattr(exponent, "_angular_factors", counted)
        code, _, _ = run_cli(
            capsys, "phase-map", "--theta0-lo", "0.2", "--theta0-hi", "3.09",
            "--theta0-count", "20", "--s-count", "20", "--output", str(tmp_path / "map.csv"),
        )
        assert code == 0
        assert len(profiles) == 20

    def test_csv_shape_and_header(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--output", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# obliquecone ")
        assert lines[1] == (
            "theta0,s,label,critical_exponent,s0,b_at_1,witnesses_digest,clamped"
        )
        assert len(lines) == 2 + 4 * 5
        # theta0 outer, s inner ordering
        theta0s = [float(line.split(",")[0]) for line in lines[2:]]
        assert theta0s == sorted(theta0s)

    def test_irregular_rows_revalidate(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        run_cli(capsys, *self.ARGS, "--output", str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        checked = 0
        for row in rows:
            if row[2] == "IRREGULAR":
                geom = ConeGeometry(theta0=float(row[0]))
                assert abs(boundary_mismatch(geom, float(row[3]), float(row[1]))) <= 1e-10
                checked += 1
        assert checked > 0

    def test_second_quadrant_rows_are_irregular(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.7",
            "--theta0-hi",
            "2.6",
            "--theta0-count",
            "10",
            "--s-count",
            "10",
            "--output",
            str(path),
        )
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        in_branch = 0
        for row in rows:
            theta0, s, label = float(row[0]), float(row[1]), row[2]
            if math.pi / 2 < s < theta0:
                assert label == "IRREGULAR", (theta0, s, label)
                in_branch += 1
            if label == "REGULAR_BARRIER":
                assert math.cos(s) * math.sin(s) > 0.0
                assert row[3] == ""  # no critical exponent on regular rows
        assert in_branch > 0

    def test_exact_zero_column_is_axis_continuous(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.0",
            "--theta0-hi",
            "1.5",
            "--theta0-count",
            "2",
            "--s-mode",
            "absolute",
            "--s-lo",
            "-0.5",
            "--s-hi",
            "0.5",
            "--s-count",
            "3",
            "--output",
            str(path),
        )
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        zero_rows = [row for row in rows if float(row[1]) == 0.0]
        assert zero_rows and all(row[2] == "AXIS_CONTINUOUS" for row in zero_rows)

    def test_absolute_mode_clamps_and_flags(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        code, _, _ = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.7",
            "--theta0-hi",
            "2.0",
            "--theta0-count",
            "2",
            "--s-mode",
            "absolute",
            "--s-lo",
            "-3.5",
            "--s-hi",
            "3.0",
            "--s-count",
            "3",
            "--output",
            str(path),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        clamped = [row for row in payload["rows"] if row["clamped"]]
        assert clamped
        for row in payload["rows"]:
            lo, hi = ConeGeometry(theta0=row["theta0"]).admissible_s_interval()
            assert lo < row["s"] < hi

    def test_csv_header_and_cells_match_the_json_rows(self, capsys, tmp_path):
        sweep = (
            "phase-map", "--theta0-lo", "1.0", "--theta0-hi", "2.6",
            "--theta0-count", "3", "--s-mode", "absolute", "--s-lo", "-3.5",
            "--s-hi", "3.0", "--s-count", "5",
        )
        csv_path, json_path = tmp_path / "map.csv", tmp_path / "map.json"
        assert run_cli(capsys, *sweep, "--output", str(csv_path))[0] == 0
        assert run_cli(
            capsys, *sweep, "--output", str(json_path), "--format", "json"
        )[0] == 0
        header, *lines = csv_path.read_text().splitlines()[1:]
        rows = json.loads(json_path.read_text())["rows"]
        assert len(lines) == len(rows) == 15
        assert any(row["critical_exponent"] is None for row in rows)
        assert any(row["critical_exponent"] is not None for row in rows)
        assert any(row["clamped"] for row in rows)
        for line, row in zip(lines, rows):
            assert header.split(",") == list(row)
            assert line.split(",") == [
                "" if v is None else format(v, ".17g") if isinstance(v, float) else str(v)
                for v in row.values()
            ]

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            capsys, *self.ARGS, "--output", "/nonexistent-dir/map.csv"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "bounds,option",
        [
            (("--s-mode", "absolute", "--s-lo=-inf"), "--s-lo"),
            (("--s-mode", "absolute", "--s-hi=nan"), "--s-hi"),
            (("--theta0-lo=-inf",), "--theta0-lo"),
            (("--theta0-hi=inf", "--degrees"), "--theta0-hi"),
            (("--s-mode", "absolute", "--s-lo=-1e308", "--s-hi=1e308"), "--s-lo and --s-hi"),
        ],
    )
    def test_non_finite_bound_names_the_option(self, capsys, tmp_path, bounds, option):
        # np.linspace warned twice and the error named a NaN cell instead
        code, out, err = run_cli(
            capsys, *self.ARGS, *bounds, "--output", str(tmp_path / "map.csv")
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {option} ")
        assert "Warning" not in err
        assert not (tmp_path / "map.csv").exists()

    def test_bad_counts(self, capsys):
        code, _, err = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.7",
            "--theta0-hi",
            "2.6",
            "--theta0-count",
            "1",
            "--output",
            "/tmp/x.csv",
        )
        assert code == 2


class TestStdoutPins:
    @pytest.mark.parametrize("argv", sorted(STDOUT_PINS))
    def test_stdout_bytes(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert out == STDOUT_PINS[argv]


class TestVerifyCommand:
    def test_all_suites_print_the_pinned_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == f"{len(VERIFY_IDS)}/{len(VERIFY_IDS)} checks passed"
        assert tuple(line.split()[1] for line in lines[:-1]) == VERIFY_IDS

    def test_every_check_keeps_its_pinned_detail(self):
        got = {f"{r.suite}.{r.name}": r.detail for r in run_suite("all")}
        assert got == VERIFY_DETAILS

    @pytest.mark.parametrize("suite", ["special", "exponent", "barrier", "solver"])
    def test_single_suite_runs_its_slice_in_order(self, suite):
        got = tuple(f"{r.suite}.{r.name}" for r in run_suite(suite))
        assert got == tuple(i for i in VERIFY_IDS if i.startswith(suite + "."))

    def test_unknown_suite_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown suite 'nope'"):
            run_suite("nope")

    def test_special_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "special")
        assert code == 0
        assert "[PASS] special.value_at_one" in out
        assert "checks passed" in out

    def test_failure_exits_one(self, capsys, monkeypatch):
        import obliquecone.cli as cli_mod

        def fake_suite(name):
            return [
                CheckResult(
                    suite="special",
                    name="poisoned",
                    passed=False,
                    detail="deliberate",
                    seconds=0.0,
                )
            ]

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "special")
        assert code == 1
        assert "[FAIL] special.poisoned" in out
