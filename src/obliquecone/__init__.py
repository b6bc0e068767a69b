"""Numerical toolkit for axisymmetric oblique-derivative problems on cones.

Classifies boundary-regularity regimes, computes critical Hoelder exponents
and critical oblique angles from real-degree Legendre functions, constructs
isotropic barriers with certified boundary-operator signs, and verifies every
computed object with finite-difference residuals and discrete Hoelder-norm
diagnostics.
"""

__version__ = "0.1.0"

from .barrier import (
    MillerBarrier,
    RotatedCoefficients,
    alpha0,
    build_barrier,
    m1_coefficient,
    m2_coefficient,
    max_admissible_tilt,
    rotate_coefficients,
)
from .errors import (
    BracketError,
    DegenerateBC,
    DegenerateFit,
    DomainError,
    HypothesisError,
    InvalidAlpha,
    InvalidOperator,
    InvalidTilt,
    NoAdmissibleTilt,
    ObliqueConeError,
    SingularSystem,
)
from .exponent import (
    AXIS_CONTINUOUS,
    IRREGULAR,
    REGULAR_BARRIER,
    UNKNOWN,
    RegimeReport,
    SeparableSolution,
    boundary_mismatch,
    classify_many,
    classify_regime,
    critical_angle_s0,
    critical_exponent,
    neumann_exponent,
    neumann_mismatch,
    separable_eval,
    slope_at_zero,
    u1,
    u2,
)
from .geometry import ConeGeometry, ObliqueBC, reduce_to_axisymmetric
from .grids import DiscreteField, SectorGrid
from .holder import (
    HolderSamples,
    HolderSpec,
    holder_interpolation_check,
    holder_product_check,
    holder_seminorm,
    samples_from_function,
    sector_sample_points,
    weighted_norm,
)
from .legendre import (
    legendre_dp_dalpha,
    legendre_dp_dz,
    legendre_p,
    legendre_p1,
    legendre_p_quadrature,
)
from .solver import (
    ConvergenceStudy,
    FitDiagnostics,
    MMatrixReport,
    check_m_matrix,
    fit_exponent,
    laplacian_residual,
    residual_convergence,
    solve_dirichlet,
)

__all__ = [name for name in dir() if not name.startswith("_")]
