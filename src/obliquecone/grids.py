"""Graded polar grids on the annular sector and nodal fields on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, integer_choice, real_array, real_number
from .geometry import ConeGeometry, check_radii

#: Default radial grading ratio of the vertex-clustered grid.
DEFAULT_GRADING = 1.05

#: Inner radius of the vertex-clustered default grid on [r_min, 1].
DEFAULT_R_MIN = 1e-3


@dataclass(frozen=True)
class SectorGrid:
    """Tensor grid on the annular sector [r_min, r_max] x [0, theta0].

    Radial steps grow geometrically away from r_min by the factor `grading`
    (grading = 1 gives uniform spacing); theta nodes are uniform.  The mode
    m selects the azimuthal behaviour of fields living on the grid: m = 0 is
    axisymmetric, m = 1 is the cos(phi) mode read at phi = 0 and vanishes on
    the axis.
    """

    r_min: float
    r_max: float
    n_r: int
    n_theta: int
    theta0: float
    grading: float = 1.0
    m: int = 0
    r: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the floats are stored, so numpy float32 input builds float64 nodes
        object.__setattr__(self, "theta0", ConeGeometry(theta0=self.theta0).theta0)
        r_min, r_max = check_radii(self.r_min, self.r_max, "sector radii")
        object.__setattr__(self, "r_min", r_min)
        object.__setattr__(self, "r_max", r_max)
        counts = (self.n_r, self.n_theta)
        if not all(isinstance(n, (int, np.integer)) and n >= 3 for n in counts):
            raise DomainError(f"need integer node counts >= 3, got {counts}")
        grading = real_number(self.grading, "grading")
        if not (1.0 <= grading < math.inf):
            raise DomainError(f"grading must be finite and >= 1, got {self.grading}")
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "m", integer_choice(self.m, 1, "azimuthal mode"))
        if self.grading == 1.0:
            r = np.linspace(self.r_min, self.r_max, self.n_r)
        else:
            # a grading whose power overflows gives NaN steps, rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                steps = self.grading ** np.arange(self.n_r - 1)
                steps *= (self.r_max - self.r_min) / steps.sum()
            r = self.r_min + np.concatenate(([0.0], np.cumsum(steps)))
            r[-1] = self.r_max
        if not np.all(np.diff(r) > 0.0):
            raise DomainError(f"radial nodes at grading {self.grading} do not increase")
        object.__setattr__(self, "r", r)
        object.__setattr__(
            self, "theta", np.linspace(0.0, self.theta0, self.n_theta)
        )

    @classmethod
    def default(
        cls, theta0: float, n_r: int = 64, n_theta: int = 48, m: int = 0
    ) -> "SectorGrid":
        """Vertex-clustered default on [1e-3, 1], grading 1.05."""
        return cls(
            r_min=DEFAULT_R_MIN,
            r_max=1.0,
            n_r=n_r,
            n_theta=n_theta,
            theta0=theta0,
            grading=DEFAULT_GRADING,
            m=m,
        )

    @property
    def h_theta(self) -> float:
        return self.theta0 / (self.n_theta - 1)

    @property
    def h_max(self) -> float:
        """Largest step of either direction, the refinement-study mesh size."""
        return max(float(np.diff(self.r).max()), self.h_theta)

    def node_count(self) -> int:
        return self.n_r * self.n_theta


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values on a SectorGrid: finite real numbers of shape (n_r, n_theta)
    (`errors.real_array`), else DomainError."""

    grid: SectorGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_r, self.grid.n_theta)
        object.__setattr__(self, "values", real_array(self.values, "field values", shape))

    @classmethod
    def from_function(cls, grid: SectorGrid, fn) -> "DiscreteField":
        """Sample fn(r, theta) at the nodes."""
        thetas = grid.theta.tolist()
        return cls(grid=grid, values=[[fn(ri, tj) for tj in thetas] for ri in grid.r.tolist()])

    def max_norm(self) -> float:
        return float(np.abs(self.values).max())
