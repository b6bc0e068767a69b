"""Cone geometry, oblique boundary vectors, and the axisymmetric reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidOperator, check_each, real_array, real_number

#: Largest admissible opening angle; cos(THETA0_MAX) stays above the Legendre
#: kernel's argument cutoff -1 + Z_CUTOFF, so every admissible cone evaluates.
THETA0_MAX = math.pi - 0.045

#: Smallest admissible opening angle.  U2 at the cone's edge cancels terms of
#: size 1/theta0: against mpmath its absolute error is about 3e-16/theta0
#: (theta0 from 1e-10 to 1e-4), so from 1e-5 up it stays below the 1e-10
#: tolerance of the mismatch witness.  Below about 1.5e-154, sin(theta0)^2
#: underflows and U2 divides by zero.
THETA0_MIN = 1e-5


def check_polar_angle(theta, name: str, lo: float) -> None:
    """DomainError unless lo <= theta < THETA0_MAX: lo is 0 in a cone, THETA0_MIN at its edge."""
    # a Python float angle, the hot case, skips the slower ndarray test
    if type(theta) is not float and isinstance(theta, np.ndarray):
        check_each(lambda t: check_polar_angle(t, name, lo), theta, name)
    elif not (lo <= theta < THETA0_MAX):
        raise DomainError(f"{name} must lie in [{lo:g}, {THETA0_MAX:.4f}), got {theta}")


def check_radii(r_min: float, r_max: float, name: str) -> tuple[float, float]:
    """(r_min, r_max) as floats: DomainError unless 0 < r_min < r_max < inf,
    the radii of an annulus."""
    lo, hi = real_number(r_min, f"{name} r_min"), real_number(r_max, f"{name} r_max")
    if not (0.0 < lo < hi < math.inf):
        raise DomainError(f"invalid {name}: need 0 < r_min < r_max < inf, got ({r_min}, {r_max})")
    return lo, hi


@dataclass(frozen=True)
class ConeGeometry:
    """Circular cone in R^3 of opening angle theta0.

    theta0 is the polar angle of the lateral boundary measured from the
    symmetry axis; the axisymmetric reduction works on the plane sector
    {(r, theta): r > 0, 0 <= theta < theta0}.  ObliqueBC and SectorGrid
    validate their theta0 here, and `admissible_s_interval` is the one
    definition of the oblique angles that point into the cone.
    """

    theta0: float

    def __post_init__(self) -> None:
        # a cone has one angle, and check_polar_angle takes an ndarray too;
        # the float is stored, so a numpy float32 does not keep the cone's
        # arithmetic in float32
        theta0 = real_number(self.theta0, "opening angle")
        check_polar_angle(theta0, "opening angle", THETA0_MIN)
        object.__setattr__(self, "theta0", theta0)

    @property
    def z0(self) -> float:
        """cos(theta0), the Legendre argument of the lateral boundary."""
        return math.cos(self.theta0)

    def admissible_s_interval(self) -> tuple[float, float]:
        """Open interval of oblique angles pointing into the cone."""
        return (-math.pi + self.theta0, self.theta0)


@dataclass(frozen=True)
class ObliqueBC:
    """Constant oblique boundary vector beta0 = (cos s, sin s) on the cone edge.

    s is measured in the (y1, y2) symmetry plane; admissibility
    s in (-pi + theta0, theta0) is exactly the inward-pointing condition,
    and the obliqueness is eps = beta0 . nu = sin(theta0 - s) > 0.
    """

    s: float
    theta0: float

    def __post_init__(self) -> None:
        geom = ConeGeometry(theta0=self.theta0)
        object.__setattr__(self, "theta0", geom.theta0)
        lo, hi = geom.admissible_s_interval()
        s = real_number(self.s, "oblique angle s")
        object.__setattr__(self, "s", s)
        if not (lo < s < hi):
            raise DomainError(
                f"oblique angle s = {self.s} outside the admissible interval "
                f"({lo:.6f}, {hi:.6f}) for theta0 = {self.theta0}"
            )
        if self.obliqueness <= 0.0:
            raise DomainError(f"obliqueness {self.obliqueness} is not positive")

    @classmethod
    def for_cone(cls, geom: ConeGeometry, s: float) -> "ObliqueBC":
        return cls(s=s, theta0=geom.theta0)

    @property
    def beta0(self) -> tuple[float, float]:
        return (math.cos(self.s), math.sin(self.s))

    @property
    def nu(self) -> tuple[float, float]:
        """Inward unit normal of the lateral boundary."""
        return (math.sin(self.theta0), -math.cos(self.theta0))

    @property
    def tau(self) -> tuple[float, float]:
        """Unit tangent (nu2, -nu1) of the lateral boundary."""
        n1, n2 = self.nu
        return (n2, -n1)

    @property
    def obliqueness(self) -> float:
        """eps = beta0 . nu = sin(theta0 - s)."""
        (b1, b2), (n1, n2) = self.beta0, self.nu
        return b1 * n1 + b2 * n2


#: Absolute tolerance, relative to max(|A|, 1), of the symmetry, invariance
#: and bracket checks of `reduce_to_axisymmetric`.
REDUCTION_RTOL = 1e-12


def reduce_to_axisymmetric(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Reduce constant principal coefficients A (n x n, vertex values) to the plane.

    For an operator that is symmetric and invariant under rotations about the
    axis (last coordinate), the axisymmetric reduction produces 2x2 plane
    coefficients and one singular first-order coefficient:

        a11 = A[n-1, n-1],      a12 = a21 = sum_i A[i, n-1] x_i / y2 = 0,
        a22 = kappa (the common in-plane diagonal),
        b21 = sum_{i<n} A[i, i] - kappa = (n - 2) kappa.

    Returns (a0, b21) where a0 is the reduced 2x2 matrix.  The bracket
    (n-2) lam <= b21 <= (n-2) Lam is asserted against the ellipticity bounds
    lam, Lam, the extreme eigenvalues of A from `np.linalg.eigvalsh`.

    Raises InvalidOperator on an entry that is not a finite real number
    (`errors.real_array`), a shape that is not square, or failed symmetry,
    invariance or ellipticity.
    """
    A = real_array(A, "coefficient matrix", (None, None), InvalidOperator)
    n = A.shape[0]
    if A.shape != (n, n) or n < 3:
        raise InvalidOperator(f"coefficient matrix must be square of size >= 3, got {A.shape}")
    tol = REDUCTION_RTOL * max(np.abs(A).max(), 1.0)
    if not np.allclose(A, A.T, atol=tol):
        raise InvalidOperator("coefficient matrix is not symmetric")

    block = A[: n - 1, : n - 1]
    kappa = block[0, 0]
    # rotational invariance about the axis: in-plane block = kappa * I, no mixing
    if not np.allclose(block, kappa * np.eye(n - 1), atol=tol):
        raise InvalidOperator("in-plane block is not a multiple of the identity")
    if not np.allclose(A[: n - 1, n - 1], 0.0, atol=tol):
        raise InvalidOperator("axis-mixing entries A[i, n-1] must vanish")

    eigs = np.linalg.eigvalsh(A)
    if eigs.min() <= 0.0:
        raise InvalidOperator(f"matrix is not positive definite (min eig {eigs.min()})")
    lam, Lam = float(eigs.min()), float(eigs.max())

    a0 = np.array([[A[n - 1, n - 1], 0.0], [0.0, kappa]])
    b21 = float(np.trace(block) - kappa)
    lo, hi = (n - 2) * lam, (n - 2) * Lam
    if not (lo - tol <= b21 <= hi + tol):
        raise InvalidOperator(
            f"singular-term coefficient {b21} outside [{lo}, {hi}]"
        )
    return a0, b21
