"""Discrete weighted Hoelder seminorms and the product/interpolation checks.

Seminorms are evaluated exactly over a finite sample set: for points x1, x2
with distances d_x = |x| to the vertex and d_{x1,x2} = min(d_x1, d_x2),

    [u]_{k,a}^{(b)} = max over pairs of
        d_{x1,x2}^{max(k+a+b, 0)} |D^k u(x1) - D^k u(x2)| / |x1 - x2|^a,

and the weighted sup part is sum_j sup_x d_x^{max(j+b, 0)} |D^j u(x)|.
These are lower bounds of the continuum suprema; all trend assertions about
them are phrased under sample refinement, never as continuum claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError, HypothesisError, ObliqueConeError, integer_choice, real_array, real_number,
)
from .geometry import ConeGeometry, check_radii

#: Central-difference step of `samples_from_function`, relative to the
#: distance to the vertex (its square root for second derivatives).
FD_SCALE = 1e-6

#: Geometric shells per decade of radius and rays of `sector_sample_points`.
SHELLS_PER_DECADE = 6
SAMPLE_RAYS = 7


@dataclass(frozen=True)
class HolderSpec:
    """Seminorm order k, exponent alpha, weight exponent beta.

    The distance weight is d^(max(k + alpha + beta, 0)); beta = -(k + alpha)
    gives the plain unweighted seminorm.
    """

    k: int
    alpha: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", integer_choice(self.k, 1, "seminorm order"))
        _check_exponents(DomainError, self.alpha, self.beta)


def _check_exponents(error: type[ObliqueConeError], alpha: float, *betas: float) -> None:
    """error unless the exponent lies in (0, 1] and each weight exponent is
    one finite real number: the rules of `HolderSpec`, `weighted_norm` and the
    two inequality checks, which raise HypothesisError."""
    if not (0.0 < real_number(alpha, "exponent", error) <= 1.0):
        raise error(f"exponent must lie in (0, 1], got {alpha}")
    for beta in betas:
        if not math.isfinite(real_number(beta, "weight exponent", error)):
            raise error(f"weight exponent must be finite, got {beta}")


@dataclass(frozen=True)
class HolderSamples:
    """Point-value samples in the (y1, y2) plane, with optional derivatives:
    N >= 1 distinct points (N, 2), values (N,), gradients (N, 2) and hessians
    (N, 2, 2), all finite real numbers (`errors.real_array`), else DomainError."""

    points: np.ndarray
    values: np.ndarray
    gradients: Optional[np.ndarray] = None
    hessians: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        pts = real_array(self.points, "points", (None, 2))
        n = len(pts)
        if n == 0:
            raise DomainError("at least one sample point is required")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", real_array(self.values, "values", (n,)))
        for name, shape in (("gradients", (n, 2)), ("hessians", (n, 2, 2))):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, real_array(getattr(self, name), name, shape))
        # a repeated point has zero separation, so no pair quotient exists;
        # row tuples in a set, where -0.0 equals 0.0 as in np.unique, which
        # would load numpy.ma
        if len(set(map(tuple, pts.tolist()))) < len(pts):
            raise DomainError("points must be distinct")

    def __len__(self) -> int:
        return self.points.shape[0]

    def vertex_distances(self) -> np.ndarray:
        return np.hypot(self.points[:, 0], self.points[:, 1])

    def derivative_magnitudes(self, order: int) -> np.ndarray:
        """|D^j u| per sample: the 2-norm of each `derivative_table` row."""
        return np.sqrt((self.derivative_table(order) ** 2).sum(axis=1))

    def derivative_table(self, order: int) -> np.ndarray:
        """Flattened D^j u rows used for pairwise differences, j = 0, 1 or 2."""
        order = integer_choice(order, 2, "derivative order")
        if order == 0:
            return self.values[:, None]
        if order == 1:
            if self.gradients is None:
                raise DomainError("gradient samples required for order 1")
            return self.gradients
        if self.hessians is None:
            raise DomainError("hessian samples required for order 2")
        return self.hessians.reshape(len(self), 4)


def samples_from_function(
    fn: Callable[[float, float], float], points: np.ndarray, derivatives: int = 0
) -> HolderSamples:
    """Sample fn, and its FD derivatives up to order `derivatives` (0, 1 or 2),
    at (y1, y2) points that follow `HolderSamples`' rules, checked before fn
    sees one; fn takes Python floats.

    Derivative samples use central differences with steps proportional to
    the distance to the vertex, adequate for the reported-constant checks;
    the step vanishes at the vertex, so a vertex point with derivatives
    raises DomainError.  The second differences reuse the point's own value.
    """
    order = integer_choice(derivatives, 2, "derivative order")
    pts = real_array(points, "points", (None, 2))
    HolderSamples(points=pts, values=np.zeros(len(pts)))
    vals, grads, hess = [], [], []
    for x, y in pts.tolist():
        f0 = fn(x, y)
        vals.append(f0)
        if order >= 1:
            h = FD_SCALE * math.hypot(x, y)
            if h == 0.0:
                raise DomainError(f"no difference step at the vertex {[x, y]}")
            grads.append(((fn(x + h, y) - fn(x - h, y)) / (2 * h),
                          (fn(x, y + h) - fn(x, y - h)) / (2 * h)))
        if order == 2:
            h = (FD_SCALE ** 0.5) * math.hypot(x, y)
            mixed = (
                fn(x + h, y + h) - fn(x + h, y - h) - fn(x - h, y + h) + fn(x - h, y - h)
            ) / (4 * h * h)
            hess.append((((fn(x + h, y) - 2 * f0 + fn(x - h, y)) / (h * h), mixed),
                         (mixed, (fn(x, y + h) - 2 * f0 + fn(x, y - h)) / (h * h))))
    return HolderSamples(points=pts, values=vals, gradients=grads or None, hessians=hess or None)


def sector_sample_points(theta0: float, r_min: float, r_max: float = 1.0) -> np.ndarray:
    """Vertex-clustered (y1, y2) sample points: geometric shells times rays,
    the outer product of the radii and the rays' unit vectors.  Radii whose
    ratio r_max / r_min overflows raise DomainError."""
    theta0 = ConeGeometry(theta0=theta0).theta0
    r_min, r_max = check_radii(r_min, r_max, "sample radii")
    if r_max / r_min == math.inf:
        raise DomainError(f"sample radii span more than the float range: ({r_min}, {r_max})")
    n_shells = max(2, int(round(SHELLS_PER_DECADE * math.log10(r_max / r_min))) + 1)
    rays = [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, theta0, SAMPLE_RAYS).tolist()]
    return np.multiply.outer(np.geomspace(r_min, r_max, n_shells), rays).reshape(-1, 2)


def _pair_quotients(samples: HolderSamples, k: int, alpha: float, wexp: float) -> np.ndarray:
    table = samples.derivative_table(k)
    pts = samples.points
    iu, ju = np.triu_indices(len(samples), 1)
    sep = np.hypot(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1])
    diff = np.sqrt(((table[iu] - table[ju]) ** 2).sum(axis=1))
    d = samples.vertex_distances()
    dmin = np.minimum(d[iu], d[ju])
    return dmin ** wexp * diff / sep ** alpha


def holder_seminorm(samples: HolderSamples, spec: HolderSpec) -> float:
    """Exact weighted Hoelder seminorm over the finite sample set."""
    return _seminorm_raw(samples, spec.k, spec.alpha, spec.beta)


def _seminorm_raw(samples: HolderSamples, k: int, alpha: float, beta: float) -> float:
    if len(samples) < 2:
        return 0.0
    wexp = max(k + alpha + beta, 0.0)
    return float(_pair_quotients(samples, k, alpha, wexp).max())


def weighted_sup_norm(samples: HolderSamples, k: int, beta: float) -> float:
    """sum_{j<=k} sup_x d_x^(max(j+beta,0)) |D^j u(x)|."""
    d = samples.vertex_distances()
    total = 0.0
    for j in range(k + 1):
        wexp = max(j + beta, 0.0)
        mags = samples.derivative_magnitudes(j)
        total += float((d ** wexp * mags).max())
    return total


def weighted_norm(samples: HolderSamples, k: int, alpha: float, beta: float) -> float:
    """Full weighted norm: sup part plus the order-k seminorm.

    k is 0, 1 or 2, and the samples must carry its derivatives; alpha and
    beta follow `HolderSpec`'s rules.
    """
    _check_exponents(DomainError, alpha, beta)
    k = integer_choice(k, 2, "derivative order")
    # the samples must carry the order's derivatives
    samples.derivative_table(k)
    return weighted_sup_norm(samples, k, beta) + _seminorm_raw(samples, k, alpha, beta)


@dataclass(frozen=True)
class ProductCheckReport:
    lhs: float
    rhs: float
    holds: bool
    beta: float


def holder_product_check(
    u: HolderSamples,
    v: HolderSamples,
    alpha: float,
    beta1: float,
    beta2: float,
    beta1p: float,
    beta2p: float,
) -> ProductCheckReport:
    """Product inequality on the discrete estimator:

        [uv]_{0,a}^(b) <= [u]_{0,a}^(b1) ||v||_0^(b2) + ||u||_0^(b1') [v]_{0,a}^(b2')

    with b = b1 + b2 = b1' + b2'.  The hypothesis bookkeeping requires
    b >= -a, b1 >= -a, b2' >= -a, b2 >= 0, b1' >= 0.  The inequality is a
    pointwise-pair bound, so it holds exactly over any finite sample set; it
    is still evaluated two-sided and reported.
    """
    _check_exponents(HypothesisError, alpha, beta1, beta2, beta1p, beta2p)
    beta = beta1 + beta2
    if abs(beta - (beta1p + beta2p)) > 1e-12:
        raise HypothesisError(
            f"weight splits disagree: {beta1}+{beta2} != {beta1p}+{beta2p}"
        )
    if beta < -alpha or beta1 < -alpha or beta2p < -alpha:
        raise HypothesisError("a weight exponent falls below -alpha")
    if beta2 < 0.0 or beta1p < 0.0:
        raise HypothesisError("sup-norm weight exponents must be nonnegative")
    if u.points.shape != v.points.shape or not np.allclose(u.points, v.points):
        raise HypothesisError("u and v must be sampled on the same points")
    product = HolderSamples(points=u.points, values=u.values * v.values)
    lhs = _seminorm_raw(product, 0, alpha, beta)
    rhs = _seminorm_raw(u, 0, alpha, beta1) * weighted_sup_norm(v, 0, beta2)
    rhs += weighted_sup_norm(u, 0, beta1p) * _seminorm_raw(v, 0, alpha, beta2p)
    holds = lhs <= rhs * (1.0 + 1e-12) + 1e-300
    return ProductCheckReport(lhs=lhs, rhs=rhs, holds=holds, beta=beta)


@dataclass(frozen=True)
class InterpolationCheckReport:
    lhs: float
    rhs_first: float
    rhs_second: float
    theta: float
    k: int
    alpha: float
    beta: float
    empirical_constant: float


def holder_interpolation_check(
    samples: HolderSamples,
    first: tuple[int, float, float],
    second: tuple[int, float, float],
    theta: float,
) -> InterpolationCheckReport:
    """Interpolation inequality on the discrete estimator:

        ||u||_{k,a}^(b) <= C (||u||_{k1,a1}^(b1))^theta (||u||_{k2,a2}^(b2))^(1-theta),

    with k + a = theta (k1 + a1) + (1-theta)(k2 + a2) and
    b = theta b1 + (1-theta) b2.  The constant is not specified, so the check
    evaluates both sides and reports the empirical ratio.  Each tuple is three
    real numbers (`errors.real_array`), its order k one of 0, 1, 2; any other
    tuple raises HypothesisError before a norm is computed.
    """
    if not (0.0 < real_number(theta, "interpolation parameter", HypothesisError) < 1.0):
        raise HypothesisError(f"interpolation parameter must lie in (0, 1), got {theta}")
    first = real_array(first, "first tuple", (3,), HypothesisError, finite=False).tolist()
    second = real_array(second, "second tuple", (3,), HypothesisError, finite=False).tolist()
    for k_j, a_j, b_j in (first, second):
        integer_choice(k_j, 2, "derivative order", HypothesisError)
        _check_exponents(HypothesisError, a_j, b_j)
        if k_j + a_j + b_j < 0.0:
            raise HypothesisError(f"tuple ({k_j}, {a_j}, {b_j}) has negative k+a+b")
    if max(sum(first), sum(second)) <= 0.0:
        raise HypothesisError("at least one tuple must have k + a + b > 0")
    total = theta * (first[0] + first[1]) + (1.0 - theta) * (second[0] + second[1])
    k = int(math.ceil(total)) - 1
    alpha = total - k
    if k < 0:
        raise HypothesisError(f"derived smoothness k + a = {total} is below 1")
    beta = theta * first[2] + (1.0 - theta) * second[2]
    lhs = weighted_norm(samples, k, alpha, beta)
    rhs1, rhs2 = weighted_norm(samples, *first), weighted_norm(samples, *second)
    rhs = (rhs1 ** theta) * (rhs2 ** (1.0 - theta))
    return InterpolationCheckReport(
        lhs=lhs, rhs_first=rhs1, rhs_second=rhs2, theta=theta, k=k, alpha=alpha, beta=beta,
        empirical_constant=lhs / rhs if rhs > 0.0 else math.inf,
    )
