"""The input contract of the public API, as one table.

Every name in `obliquecone.__all__` is either listed in TABLE, with a valid
call and the kind of each argument, or in EXEMPT with the reason it takes no
input to check.  Each argument is fed its kind's bad values (NaN, infinities,
an int beyond the float range, empty and repeated inputs, wrong shapes, values outside the cone or the
admissible interval, values of the wrong type where one angle, degree, radius
or exponent is documented, strings and None where a degree or an argument may
also be an ndarray, and strings, None, ragged lists, lists holding a string,
complex and numeric-string ndarrays and tuples of the wrong length where an
array or a tuple is) with the others kept valid, and warnings raised as
errors: the call must return or raise an `ObliqueConeError` subclass, never
anything else.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obliquecone as oc
from obliquecone import (
    ConeGeometry,
    ObliqueBC,
    ObliqueConeError,
    SeparableSolution,
    alpha0,
    boundary_mismatch,
    build_barrier,
    classify_regime,
    separable_eval,
)
from obliquecone.barrier import ALPHA0_XTOL, BARRIER_DEGREE_MIN
from obliquecone.errors import real_array
from obliquecone.geometry import THETA0_MAX, THETA0_MIN
from obliquecone.legendre import DEGREE_MAX, Z_CUTOFF

NAN, INF = math.nan, math.inf

THETA0 = 2.0
GEOM = ConeGeometry(theta0=THETA0)
S_LO, S_HI = GEOM.admissible_s_interval()
BC = ObliqueBC(s=0.5, theta0=THETA0)
OTHER_BC = ObliqueBC(s=0.5, theta0=1.0)
BARRIER = build_barrier(GEOM, 0.05)
RC = oc.rotate_coefficients(np.eye(2), BC)
SOL = SeparableSolution(alpha=0.5)
GRID = oc.SectorGrid(r_min=0.1, r_max=1.0, n_r=9, n_theta=9, theta0=THETA0)
FINE_GRID = oc.SectorGrid(r_min=0.1, r_max=1.0, n_r=17, n_theta=17, theta0=THETA0)
POINTS = oc.sector_sample_points(THETA0, 0.1)
SAMPLES = oc.samples_from_function(lambda y1, y2: y1 + 2.0 * y2, POINTS, 2)
FIELD = SOL.field(GRID)


def power(y1, y2):
    return math.hypot(y1, y2) ** 0.5


#: Values outside most real domains: not finite, negative, zero, tiny, large,
#: and an int beyond the float range.
REAL = (NAN, INF, -INF, -0.5, 0.0, 1e-300, 4.5, 10**400)
ARRAYS = (np.array([0.3, NAN]), np.array([0.3, 4.5]), np.array([]), np.zeros((2, 0)))

#: Values of no real type, for the kinds that take an ndarray too.
NOT_REAL = ("0.5", None)

#: Values of the wrong type where one real number is documented.
NOT_ONE_ANGLE = (np.array([1.0, 2.0]), np.array([0.5]), np.array(0.5)) + NOT_REAL

#: Values of no real array type, for the kinds that take an array or a tuple:
#: a string, None, a ragged list and a list holding a string.
NOT_ARRAY = ("0.5", None, [[0.5, 0.5], [0.5]], [0.5, "0.5"])


def retyped(valid) -> tuple:
    """A valid array or tuple as a complex and as a numeric-string ndarray."""
    valid = np.asarray(valid, dtype=float)
    return (valid + 0.5j, valid.astype(str))


#: Bad values of each argument kind.
BAD = {
    "real": REAL + NOT_ONE_ANGLE,
    "int": (-1, 0, 2, 3, 2.5, NAN, np.array([0, 1]), np.array([1]), np.array(0), "1", None),
    "theta0": REAL + NOT_ONE_ANGLE + (THETA0_MAX, 0.5 * THETA0_MIN, 5e-324, 1e-200),
    "s": REAL + NOT_ONE_ANGLE + (
        S_LO, S_HI, math.nextafter(S_LO, -INF), math.nextafter(S_HI, INF),
        math.nextafter(S_HI, 0.0),
    ),
    "degree": REAL + ARRAYS + NOT_REAL + (-1.0 - 1e-9, DEGREE_MAX + 1e-9, 5e-324)
    + NOT_ARRAY + retyped([0.5, 0.3]),
    "z": REAL + ARRAYS + NOT_REAL + (-1.0, -1.0 + Z_CUTOFF, 1.0, 1.0 + 1e-12)
    + NOT_ARRAY + retyped([0.5, 0.3]),
    "ray": REAL + NOT_ONE_ANGLE + (THETA0_MAX, THETA0),
    "geom": tuple(
        ConeGeometry(theta0=t)
        for t in (THETA0_MIN, math.nextafter(THETA0_MAX, 0.0), 0.5 * math.pi)
    ),
    "bc": (OTHER_BC, ObliqueBC(s=math.nextafter(S_HI, 0.0), theta0=THETA0)),
    "bcs": ((), (OTHER_BC,), (BC, OTHER_BC)),
    "point": (
        (NAN, 0.3), (1.0, NAN), (INF, 0.3), (0.0, 0.3), (5e-324, 0.3), (1.0, 4.0),
        (1.0, -0.5), (1.0,), (1.0, 0.3, 0.0),
    ) + NOT_ARRAY + retyped((1.0, 0.3)) + (("1", 0.3), (np.array([1.0]), 0.3), (1.0, None)),
    "radius": REAL + NOT_ONE_ANGLE,
    "window": ((NAN, 1.0), (0.5, 0.1), (0.0, 1.0), (1e-3, INF), (0.1, 0.1))
    + NOT_ARRAY + retyped((1e-3, 1e-1)) + ((1e-3, 1e-2, 1e-1), (1e-3,), ("1e-3", 1e-1)),
    "fit_source": (
        lambda r, t: NAN, lambda r, t: 0.0, lambda r, t: r - 0.05, lambda r, t: INF,
    ),
    "matrix3": (
        np.full((3, 3), NAN), np.diag([INF, 1.0, 1.0]), np.eye(2), np.eye(3)[:, :2],
        np.zeros((0, 0)), -np.eye(3), np.diag([1.0, 2.0, 1.0]), np.ones((3, 3)),
    ) + NOT_ARRAY + retyped(np.eye(3)) + ([["a", 0, 0], [0, 1, 0], [0, 0, 1]],),
    "matrix2": (
        np.array([[NAN, 0.0], [0.0, 1.0]]), np.array([[INF, 0.0], [0.0, 1.0]]),
        np.eye(3), np.zeros((0, 0)), -np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]),
        np.ones((2, 2)),
    ) + NOT_ARRAY + retyped(np.eye(2)) + ([["a", 0], [0, 1]],),
    "points": (
        np.zeros((0, 2)), np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones((3, 3)),
        np.array([[1.0, NAN]]), np.array([[INF, 0.0]]), np.array([[0.0, 0.0]]),
    ) + NOT_ARRAY + retyped(POINTS),
    "values": (
        np.array([]), np.full(len(POINTS), NAN), np.ones(len(POINTS) + 1),
        np.ones((len(POINTS), 2)),
    ) + NOT_ARRAY + retyped(np.ones(len(POINTS))),
    "field_values": (np.full(FIELD.shape, NAN), np.ones((9, 8)), np.array([]))
    + NOT_ARRAY + retyped(FIELD),
    "gradients": (np.full((len(POINTS), 2), INF), np.ones((len(POINTS), 3)))
    + NOT_ARRAY + retyped(SAMPLES.gradients),
    "hessians": (np.full((len(POINTS), 2, 2), NAN), np.ones((len(POINTS), 2)))
    + NOT_ARRAY + retyped(SAMPLES.hessians),
    "samples": (
        oc.HolderSamples(points=POINTS[:1], values=np.ones(1)),
        oc.HolderSamples(points=POINTS, values=np.zeros(len(POINTS))),
    ),
    "exponent_tuple": ((0, NAN, 0.0), (0, 2.0, 0.0), (0, 0.5, INF), (0, 0.5, -1.0))
    + NOT_ARRAY + retyped((0, 0.5, 0.0)) + ((0, 0.5), (0, 0.5, 0.0, 0.0), ("0", 0.5, 0.0)),
    "sequence": ((), (NAN, 0.1), (0.1, 0.1), (0.1,), (0.2, INF), (0.1, -0.1))
    + NOT_ARRAY + retyped((0.2, 0.1)) + (("a", "b"), (0.2, "0.1")),
    "grids": ((), (GRID,), (GRID, GRID)),
    "sol": (SeparableSolution(alpha=0.5, m=1), SeparableSolution(alpha=1.0)),
    "edges": (
        {}, {"r_min": 0.0}, {"r_min": 0.0, "r_max": NAN},
        {"r_min": 0.0, "r_max": np.ones(3)}, {"r_min": 0.0, "r_max": 1.0, "cone": 0.0},
        {"r_min": 0.0, "r_max": 1.0, "axis": 0.0}, {"r_min": 0.0, "r_max": lambda r, t: INF},
    ) + tuple(
        {"r_min": 0.0, "r_max": bad} for bad in NOT_ARRAY + retyped(np.ones(GRID.n_theta))
    ) + (None, "r_min", {"r_min": 0.0, "r_max": lambda r, t: "1"}),
    "rhs": (NAN, np.ones(3), lambda r, t: NAN)
    + NOT_ARRAY + retyped(np.ones((GRID.n_r - 2) * (GRID.n_theta - 1))),
}

#: name -> (callable, valid arguments, kind of each argument; None where the
#: argument is a checked object with no bad value of its own).
TABLE = {
    "ConeGeometry": (ConeGeometry, (THETA0,), ("theta0",)),
    "ObliqueBC": (ObliqueBC, (0.5, THETA0), ("s", "theta0")),
    "SectorGrid": (
        oc.SectorGrid, (0.1, 1.0, 9, 9, THETA0, 1.05, 0),
        ("radius", "radius", "int", "int", "theta0", "real", "int"),
    ),
    "DiscreteField": (oc.DiscreteField, (GRID, FIELD), (None, "field_values")),
    "SeparableSolution": (SeparableSolution, (0.5, 1), ("real", "int")),
    "MillerBarrier": (oc.MillerBarrier, (0.05, THETA0), ("real", "theta0")),
    "HolderSpec": (oc.HolderSpec, (1, 0.5, 0.0), ("int", "real", "real")),
    "HolderSamples": (
        oc.HolderSamples,
        (POINTS, np.ones(len(POINTS)), SAMPLES.gradients, SAMPLES.hessians),
        ("points", "values", "gradients", "hessians"),
    ),
    "ConvergenceStudy": (
        oc.ConvergenceStudy, ((0.2, 0.1), (1e-2, 2.5e-3)), ("sequence", "sequence"),
    ),
    "legendre_p": (oc.legendre_p, (0.5, 0.3), ("degree", "z")),
    "legendre_p1": (oc.legendre_p1, (0.5, 0.3), ("degree", "z")),
    "legendre_dp_dz": (oc.legendre_dp_dz, (0.5, 0.3), ("degree", "z")),
    "legendre_dp_dalpha": (oc.legendre_dp_dalpha, (0.5, 0.3), ("degree", "z")),
    "legendre_p_quadrature": (oc.legendre_p_quadrature, (0.5, 0.3), ("real", "real")),
    "u1": (oc.u1, (THETA0, 0.5), ("theta0", "degree")),
    "u2": (oc.u2, (THETA0, 0.5), ("theta0", "degree")),
    "boundary_mismatch": (boundary_mismatch, (GEOM, 0.5, 0.5), ("geom", "degree", "s")),
    "slope_at_zero": (oc.slope_at_zero, (GEOM, 0.5), ("geom", "s")),
    "critical_angle_s0": (oc.critical_angle_s0, (GEOM,), ("geom",)),
    "critical_exponent": (oc.critical_exponent, (GEOM, BC), ("geom", "bc")),
    "classify_regime": (classify_regime, (GEOM, BC), ("geom", "bc")),
    "classify_many": (oc.classify_many, (GEOM, (BC,)), ("geom", "bcs")),
    "neumann_mismatch": (oc.neumann_mismatch, (GEOM, 0.5), ("geom", "degree")),
    "neumann_exponent": (oc.neumann_exponent, (GEOM,), ("geom",)),
    "separable_eval": (separable_eval, (SOL, (1.0, 0.3)), ("sol", "point")),
    "reduce_to_axisymmetric": (oc.reduce_to_axisymmetric, (np.eye(3),), ("matrix3",)),
    "alpha0": (alpha0, (GEOM,), ("geom",)),
    "build_barrier": (build_barrier, (GEOM, 0.05), ("geom", "real")),
    "rotate_coefficients": (
        oc.rotate_coefficients, (np.eye(2), BC, 1.0), ("matrix2", "bc", "real"),
    ),
    "m1_coefficient": (oc.m1_coefficient, (BARRIER, BC, RC), (None, "bc", None)),
    "m2_coefficient": (oc.m2_coefficient, (BARRIER, BC, RC, 0.5), (None, "bc", None, "real")),
    "max_admissible_tilt": (oc.max_admissible_tilt, (BC, BARRIER, RC), ("bc", None, None)),
    "laplacian_residual": (oc.laplacian_residual, (SOL, GRID), ("sol", None)),
    "residual_convergence": (
        oc.residual_convergence, (SOL, (GRID, FINE_GRID)), ("sol", "grids"),
    ),
    "check_m_matrix": (oc.check_m_matrix, (GRID, 0.5), (None, "s")),
    "solve_dirichlet": (
        oc.solve_dirichlet, (GRID, {"r_min": 0.0, "r_max": 1.0}, 1.0, 0.5),
        (None, "edges", "rhs", "s"),
    ),
    "fit_exponent": (
        oc.fit_exponent, (lambda r, t: r ** 0.5, 0.3, (1e-3, 1e-1)),
        ("fit_source", "ray", "window"),
    ),
    "sector_sample_points": (
        oc.sector_sample_points, (THETA0, 0.1, 1.0), ("theta0", "radius", "radius"),
    ),
    "samples_from_function": (
        oc.samples_from_function, (power, POINTS, 1), ("fit_source", "points", "int"),
    ),
    "holder_seminorm": (oc.holder_seminorm, (SAMPLES, oc.HolderSpec(1, 0.5)), ("samples", None)),
    "weighted_norm": (
        oc.weighted_norm, (SAMPLES, 2, 0.5, 0.0), ("samples", "int", "real", "real"),
    ),
    "holder_product_check": (
        oc.holder_product_check, (SAMPLES, SAMPLES, 0.5, 0.0, 0.0, 0.0, 0.0),
        ("samples", "samples", "real", "real", "real", "real", "real"),
    ),
    "holder_interpolation_check": (
        oc.holder_interpolation_check, (SAMPLES, (0, 0.5, 0.0), (1, 0.5, 0.0), 0.5),
        ("samples", "exponent_tuple", "exponent_tuple", "real"),
    ),
}

EXEMPT = {
    **dict.fromkeys(
        ("AXIS_CONTINUOUS", "IRREGULAR", "REGULAR_BARRIER", "UNKNOWN"),
        "a regime label: a string constant",
    ),
    **{
        name: "an exception class of the contract itself"
        for name in oc.__all__
        if isinstance(getattr(oc, name), type) and issubclass(getattr(oc, name), Exception)
    },
    **dict.fromkeys(
        ("barrier", "errors", "exponent", "geometry", "grids", "holder", "legendre", "solver"),
        "a submodule: its public names are listed here one by one",
    ),
    "RegimeReport": "a result record of classify_many, built from checked inputs",
    "RotatedCoefficients": "a result record of rotate_coefficients",
    "FitDiagnostics": "a result record of fit_exponent",
    "MMatrixReport": "a result record of check_m_matrix",
}


def _escapes(fn, args, kinds) -> list[str]:
    """The calls with one argument swapped for a bad value that raise
    anything but an ObliqueConeError, a warning included."""
    escaped = []
    for i, kind in enumerate(kinds):
        for bad in BAD[kind] if kind else ():
            call = args[:i] + (bad,) + args[i + 1:]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    fn(*call)
                except ObliqueConeError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the escape is the finding
                    escaped.append(f"argument {i} = {bad!r}: {type(exc).__name__}: {exc}")
    return escaped


@pytest.mark.parametrize("name", oc.__all__)
def test_only_contract_errors_escape(name):
    if name in EXEMPT:
        assert EXEMPT[name] and name not in TABLE
        return
    assert name in TABLE, f"{name} is public but not in the contract table"
    fn, args, kinds = TABLE[name]
    assert len(args) == len(kinds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(*args)
    assert _escapes(fn, args, kinds) == []


@settings(max_examples=40, deadline=None)
@given(
    theta0=st.floats(THETA0_MIN, THETA0_MAX, exclude_max=True),
    frac=st.floats(0.0, 1.0),
    a=st.floats(0.0, 1.0),
    r=st.floats(np.finfo(float).tiny, INF, exclude_max=True),
    t=st.floats(0.0, 1.0),
)
def test_admissible_inputs_evaluate(theta0, frac, a, r, t):
    """No exception escapes the regime, mismatch, separable-mode and barrier
    entry points anywhere on their admissible domain."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = ConeGeometry(theta0=theta0)
        lo, hi = geom.admissible_s_interval()
        s = min(lo + frac * (hi - lo), hi)
        boundary_mismatch(geom, 2.0 * a, s)
        try:
            bc = ObliqueBC(s=s, theta0=theta0)
        except ObliqueConeError:
            bc = None  # s is an end of the interval, or its obliqueness rounds to 0
        if bc is not None:
            classify_regime(geom, bc)
        if a > 0.0:
            for m in (0, 1):
                separable_eval(SeparableSolution(alpha=a, m=m), (r, t * theta0))
        top = alpha0(geom) - ALPHA0_XTOL
        degree = BARRIER_DEGREE_MIN + a * (top - BARRIER_DEGREE_MIN)
        if degree < top:
            build_barrier(geom, degree)


#: One call for each array or tuple argument that escaped the contract, or
#: evaluated a value of no real type: (call, error class, message).
LEAKS = {
    "numeric-string-degrees": (
        lambda: oc.legendre_p(np.array(["0.5"]), 0.3), oc.DomainError, "^degree must be",
    ),
    "complex-degrees": (
        lambda: oc.legendre_p(np.array([0.5 + 0.5j]), 0.3), oc.DomainError, "^degree must be",
    ),
    "u1-numeric-string-degrees": (
        lambda: oc.u1(2.0, np.array(["0.5"])), oc.DomainError, "^degree must be",
    ),
    "string-plane-coefficients": (
        lambda: oc.rotate_coefficients([["a", 0], [0, 1]], BC), oc.InvalidOperator,
        "^plane coefficients must be",
    ),
    "numeric-string-coefficient-matrix": (
        lambda: oc.reduce_to_axisymmetric(np.eye(3).astype(str)), oc.InvalidOperator,
        "^coefficient matrix must be",
    ),
    "string-field-values": (
        lambda: oc.DiscreteField(GRID, "x"), oc.DomainError, "^field values must be",
    ),
    "string-sample-points": (
        lambda: oc.HolderSamples("x", [1.0]), oc.DomainError, "^points must be",
    ),
    "string-edge-data": (
        lambda: oc.solve_dirichlet(GRID, {"r_min": "x", "r_max": 1.0, "cone": 0.0}),
        oc.DomainError, "^r_min data must be",
    ),
    "string-rhs": (
        lambda: oc.solve_dirichlet(GRID, {"r_min": 0.0, "r_max": 1.0, "cone": 0.0}, "x"),
        oc.DomainError, "^rhs data must be",
    ),
    "three-element-window": (
        lambda: oc.fit_exponent(lambda r, t: r, 0.3, (1e-3, 1e-2, 1e-1)), oc.DomainError,
        r"^fit window of shape \(3,\) does not fit",
    ),
    "two-element-exponent-tuple": (
        lambda: oc.holder_interpolation_check(SAMPLES, (0, 0.5, 0.0), (1, 0.5), 0.5),
        oc.HypothesisError, r"^second tuple of shape \(2,\) does not fit",
    ),
    "string-fit-samples": (
        lambda: oc.fit_exponent(lambda r, t: "1", 0.3, (1e-3, 1e-1)), oc.DomainError,
        "^samples must be",
    ),
    "string-mesh-sizes": (
        lambda: oc.ConvergenceStudy(("a", "b"), (1.0, 2.0)), oc.DomainError,
        "^mesh sizes must be",
    ),
    "numeric-string-point": (
        lambda: separable_eval(SOL, ("1", 0.3)), oc.DomainError,
        "^radius must be one real number",
    ),
    "array-in-point": (
        lambda: separable_eval(SOL, (np.array([1.0]), 0.3)), oc.DomainError,
        "^radius must be one real number",
    ),
    "no-point": (lambda: separable_eval(SOL, None), oc.DomainError, "got 0 components"),
    "no-edge-mapping": (
        lambda: oc.solve_dirichlet(GRID, None), oc.DomainError, "^boundary data must map",
    ),
    "derivative-order-3": (
        lambda: oc.samples_from_function(power, POINTS, 3), oc.DomainError,
        "^derivative order must be",
    ),
    "derivative-order-negative": (
        lambda: oc.samples_from_function(power, POINTS, -1), oc.DomainError,
        "^derivative order must be",
    ),
    "derivative-order-fraction": (
        lambda: oc.samples_from_function(power, POINTS, 2.5), oc.DomainError,
        "^derivative order must be",
    ),
    "derivative-order-string": (
        lambda: oc.samples_from_function(power, POINTS, "1"), oc.DomainError,
        "^derivative order must be",
    ),
    "overflowing-sample-radii": (
        lambda: oc.sector_sample_points(THETA0, 1e-300, 1e300), oc.DomainError,
        "^sample radii span",
    ),
}


@pytest.mark.parametrize("leak", LEAKS)
def test_an_array_or_tuple_of_no_real_type_is_named(leak):
    call, error, match = LEAKS[leak]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


def test_the_array_rule_keeps_a_fitting_float64_array_uncopied():
    values = np.ones((3, 2))
    assert real_array(values, "values", (None, 2)) is values
    assert real_array(values, "values", (3, 2)) is values
    got = real_array([[1, 2]], "values", (1, 2))
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize(
    "value,shape,finite,match",
    [
        (np.array(["0.5"]), None, False, "dtype <U3"),
        (np.array([0.5 + 0j]), None, False, "dtype complex128"),
        ([0.5, None], None, False, "dtype object"),
        ([[0.5], [0.5, 0.5]], None, False, "rectangular"),
        (np.ones(3), (2,), True, r"of shape \(3,\) does not fit \(2,\)$"),
        (np.ones((3, 3)), (None, 2), True, r"does not fit \(None, 2\)$"),
        (np.ones(3), (None, 2), True, r"does not fit \(None, 2\)$"),
        (np.array([0.5, NAN]), (None,), True, "^x must be finite$"),
    ],
    ids=["string", "complex", "object", "ragged", "length", "width", "rank", "nan"],
)
def test_the_array_rule_reads_dtype_then_shape_then_finiteness(value, shape, finite, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oc.HypothesisError, match=match):
            real_array(value, "x", shape, oc.HypothesisError, finite=finite)
    # without the finiteness rule a NaN is the caller's to name
    assert math.isnan(real_array([NAN], "x", (1,), finite=False)[0])


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: ConeGeometry(theta0=10**400), "^opening angle must lie within the float range"),
        (lambda: oc.SectorGrid(0.1, 10**400, 9, 9, 2.0), "^sector radii r_max must lie within"),
        (lambda: oc.HolderSpec(0, 0.5, 10**400), "^weight exponent must lie within"),
        # the degree's range is compared first, exactly, and keeps its message
        (lambda: oc.legendre_p(10**400, 0.3), r"^degree must lie in \[-1, "),
    ],
    ids=["theta0", "r_max", "beta", "degree"],
)
def test_an_int_beyond_the_float_range_is_named(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oc.DomainError, match=match):
            call()
