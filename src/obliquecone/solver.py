"""Finite-difference verification harness on the axisymmetric annular sector.

The discrete operator is the axisymmetric spherical Laplacian

    L u = u_rr + (2/r) u_r + (1/r^2) (u_tt + cot(t) u_t - m^2 u / sin^2 t),

second-order centered, with nonuniform 3-point radial stencils.  Axis
handling at t = 0:

  * m = 0: reflected ghost node (u_t = 0) and the limit value of the
    singular term, cot(t) u_t -> u_tt, so the angular part becomes 2 u_tt.
  * m = 1: the profile vanishes linearly on the axis (Dirichlet 0 there)
    and the angular part is assembled in the scaled variable w = u/sin(t),

        u_tt + cot(t) u_t - u/sin^2 t  =  sin(t) w'' + 3 cos(t) w' - 2 sin(t) w,

    with the even extrapolation w_0 = (4 w_1 - w_2)/3 closing the stencil at
    the first interior node.  The scaling keeps the stencil second-order
    accurate up to the axis, which the raw form is not (its cot(t)-weighted
    truncation error is O(h) there).

The lateral edge t = theta0 takes either Dirichlet data or the homogeneous
oblique condition beta0 . Du = 0 by a second-order one-sided stencil.
Assembled systems use the sign convention A = -L, so monotone rows have
nonpositive off-diagonal entries.

One assembly, `_assemble`, stores A as a five-slot stencil table: integer
`cols` and float `weights` of shape (5, nodes), filled by slice assignment
with no loop over nodes, each row's slots in ascending column order.  One
apply, `_apply`, sums each row's slots in that order, and the table serves
all three uses of the operator: the solve, the M-matrix check (sign masks
and row sums on the table) and the residual of exact solutions (its
interior rows).

The solve uses the tensor structure of A rather than a sparse factorization.
The interior rows are a radial tridiagonal times an angular one, which fast
diagonalisation (Lynch, Rice & Thomas 1964) inverts with four dense products;
an oblique cone column adds a dense Schur complement in the cone values, the
capacitance matrix of Buzbee, Dorr, George & Golub (1971).  Iterative
refinement against the assembled matrix certifies every solve.

The dense work goes to three LAPACK routines, taken from scipy's compiled
module `scipy/linalg/_flapack` on the first solve (`_lapack`): dstevd for
the symmetrised tridiagonal eigenproblems, and getrf and getrs, with the
d or z prefix of the matrix's dtype, to factor the Schur complement once and
solve with it per right-hand side.  The direct load skips the `scipy.linalg`
package, whose import costs more than the solves of the verify suite.  A
tridiagonal factor that cannot be symmetrised goes to numpy's `eig` and
`inv`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFit, DomainError, SingularSystem, real_array, real_number
from .exponent import SeparableSolution
from .geometry import ObliqueBC, check_polar_angle, check_radii
from .grids import DiscreteField, SectorGrid
from .legendre import _load_compiled

#: Target for the verified linear-solve residual: tol * ||rhs||_inf + tol.
SOLVE_TOL = 1e-12

#: Fewest samples `fit_exponent` fits, and the number of radii it samples a
#: callable at.
FIT_MIN_SAMPLES = 10
FIT_SAMPLES = 32

_EdgeData = Union[float, Sequence[float], Callable[[float, float], float]]


# ---------------------------------------------------------------------------
# stencil helpers
# ---------------------------------------------------------------------------

def _radial_weights(r: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """Weights (w_m, w_0, w_p) of u_r and of u_rr + (2/r) u_r at the interior nodes."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    first = (-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp)))
    c = 2.0 / r[1:-1]
    radial = (
        2.0 / (hm * (hm + hp)) + c * first[0],
        -2.0 / (hm * hp) + c * first[1],
        2.0 / (hp * (hm + hp)) + c * first[2],
    )
    return first, radial


def _angular_weights(grid: SectorGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (lower, centre, upper) on u of the angular operator, per column.

    The columns are the interior ones, j = m .. n_theta - 2.  The first of
    them has no lower neighbour (the axis for m = 0, folded into the upper
    side for m = 1), so `lower` starts at the second.  Sines and cosines come
    from `math`, whose results do not depend on the numpy build.
    """
    ht = grid.h_theta
    th = grid.theta.tolist()
    sin = np.array([math.sin(t) for t in th])
    cos = np.array([math.cos(t) for t in th])
    if grid.m == 0:
        # u_tt + cot(t) u_t; at the axis 2 u_tt with a reflected ghost node
        cot = cos[1:-1] / sin[1:-1]
        lower = 1.0 / (ht * ht) - cot / (2.0 * ht)
        centre = np.full(len(th) - 1, -2.0 / (ht * ht))
        centre[0] = -4.0 / (ht * ht)
        upper = np.concatenate(([4.0 / (ht * ht)], 1.0 / (ht * ht) + cot / (2.0 * ht)))
        return lower, centre, upper
    # sin(t) w'' + 3 cos(t) w' - 2 sin(t) w on w = u / sin(t)
    s, c = sin[1:-1], cos[1:-1]
    wm = s / (ht * ht) - 3.0 * c / (2.0 * ht)
    w0 = -2.0 * s / (ht * ht) - 2.0 * s
    wp = s / (ht * ht) + 3.0 * c / (2.0 * ht)
    lower = wm[1:] / sin[1:-2]
    centre = w0 / s
    upper = wp / sin[2:]
    # w_0 = (4 w_1 - w_2) / 3, even extrapolation across the axis
    centre[0] = 4.0 * wm[0] / 3.0 / sin[1] + centre[0]
    upper[0] = -wm[0] / 3.0 / sin[2] + upper[0]
    return lower, centre, upper


def _oblique_weights(
    grid: SectorGrid, oblique_s: float, first: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """Weights of the oblique rows on u at (i-1, J), (i, J-2), (i, J-1), (i, J), (i+1, J).

    The rows are cos(s - t0) u_r + sin(s - t0) u_t / r = 0 at the interior
    radii of the cone column J, one-sided in theta, scaled by -1/sin(s - t0)
    so that the diagonal is positive.  `first` holds the u_r weights of
    `_radial_weights`.
    """
    dm, d0, dp = first
    cr = math.cos(oblique_s - grid.theta0)
    ct = math.sin(oblique_s - grid.theta0)
    scale = -1.0 / ct  # ct < 0 for admissible s
    two_h = 2.0 * grid.h_theta * grid.r[1:-1]
    return (
        scale * cr * dm,
        scale * ct / two_h,
        scale * ct * (-4.0) / two_h,
        scale * (cr * d0 + ct * 3.0 / two_h),
        scale * cr * dp,
    )


# ---------------------------------------------------------------------------
# residual of exact separable solutions
# ---------------------------------------------------------------------------

def laplacian_residual(
    sol: SeparableSolution, grid: SectorGrid
) -> tuple[DiscreteField, float]:
    """Discrete Laplacian applied to the exact nodal values `sol.field(grid)`.

    The operator is the interior rows of the assembled Dirichlet system,
    L = -A, so a refinement study certifies the matrix `solve_dirichlet`
    solves.  Returns the residual field (zero on the boundary rows) and its
    max norm over the interior nodes.
    """
    if sol.m != grid.m:
        raise DomainError(f"solution mode {sol.m} does not match grid mode {grid.m}")
    cols, weights, kind = _assemble(grid, None)
    U = sol.field(grid)
    res = np.where(kind == ROW_INTERIOR, -_apply(cols, weights, U.ravel()), 0.0)
    field = DiscreteField(grid=grid, values=res.reshape(U.shape))
    return field, field.max_norm()


@dataclass(frozen=True)
class ConvergenceStudy:
    """Refinement study: residual max norms, mesh sizes, and observed order;
    DomainError unless `errors.real_array` reads two or more distinct mesh
    sizes and one residual each, all positive and finite."""

    h_values: tuple[float, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        hs = real_array(self.h_values, "mesh sizes", (None,))
        res = real_array(self.residuals, "residuals", hs.shape)
        if len(hs) < 2 or min(hs.min(), res.min()) <= 0.0:
            raise DomainError(f"need two or more positive (h, residual) pairs, got {hs}, {res}")
        # a set of floats, not np.unique, which would load numpy.ma
        if len(set(hs.tolist())) < len(hs):
            raise DomainError(f"mesh sizes must be distinct, got {self.h_values}")

    @property
    def observed_order(self) -> float:
        """Least-squares slope of log(residual) against log(h)."""
        return float(np.polyfit(np.log(self.h_values), np.log(self.residuals), 1)[0])

    @property
    def pairwise_orders(self) -> tuple[float, ...]:
        res, hs = self.residuals, self.h_values
        return tuple(
            math.log(res[i] / res[i + 1]) / math.log(hs[i] / hs[i + 1])
            for i in range(len(res) - 1)
        )


def residual_convergence(
    sol: SeparableSolution, grids: Sequence[SectorGrid]
) -> ConvergenceStudy:
    """Run `laplacian_residual` over a sequence of successively finer grids."""
    hs, res = [], []
    for grid in grids:
        _, norm = laplacian_residual(sol, grid)
        hs.append(grid.h_max)
        res.append(norm)
    return ConvergenceStudy(h_values=tuple(hs), residuals=tuple(res))


# ---------------------------------------------------------------------------
# assembly and solve
# ---------------------------------------------------------------------------

#: Row kinds of the assembled system.
ROW_INTERIOR = 0
ROW_DIRICHLET = 1
ROW_OBLIQUE = 2


def _assemble(
    grid: SectorGrid, oblique_s: Optional[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble A = -L as a stencil table, with identity rows on Dirichlet nodes.

    Returns (cols, weights, kind): row k of A holds weights[:, k] at columns
    cols[:, k], five slots in ascending column order, and kind flags each row
    as interior, Dirichlet or oblique.  The slots are (i-1, j), (i, j-1),
    (i, j), (i, j+1), (i+1, j) on interior rows and (i-1, J), (i, J-2),
    (i, J-1), (i, J), (i+1, J) on the oblique rows of the cone column J,
    which are scaled positive-diagonal.  A slot with no neighbour (the lower
    one of the first interior column, and every slot but the centre of a
    Dirichlet row) points at the diagonal with weight 0.  An inadmissible
    oblique angle raises DomainError, and so do radii whose stencil weights
    overflow, divide by zero or turn NaN in floating point: the table must be
    finite, and weights that overflowed to 0 would leave rows empty.
    """
    if oblique_s is not None:
        ObliqueBC(s=oblique_s, theta0=grid.theta0)
    nr, nt = grid.n_r, grid.n_theta
    r = grid.r
    node = np.arange(nr * nt).reshape(nr, nt)
    cols = np.broadcast_to(node, (5, nr, nt)).copy()
    weights = np.zeros((5, nr, nt))
    kind = np.full((nr, nt), ROW_DIRICHLET, dtype=np.int8)
    j0 = grid.m  # first interior column; the m = 1 axis is Dirichlet 0
    kind[1:-1, j0:-1] = ROW_INTERIOR
    cols[:, 1:-1, j0:-1] += np.array([-nt, -1, 0, 1, nt])[:, None, None]
    cols[1, 1:-1, j0] += 1  # the first interior column has no lower neighbour
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            first, (wm, w0, wp) = _radial_weights(r)
            inv_r2 = (1.0 / (r[1:-1] * r[1:-1]))[:, None]
            lower, centre, upper = _angular_weights(grid)
            weights[0, 1:-1, j0:-1] = -wm[:, None]
            weights[1, 1:-1, j0 + 1:-1] = -inv_r2 * lower
            weights[2, 1:-1, j0:-1] = -w0[:, None] - inv_r2 * centre
            weights[3, 1:-1, j0:-1] = -inv_r2 * upper
            weights[4, 1:-1, j0:-1] = -wp[:, None]
            if oblique_s is not None:
                weights[:, 1:-1, -1] = _oblique_weights(grid, oblique_s, first)
    except FloatingPointError as exc:
        raise DomainError(
            f"the stencil of radii ({grid.r_min!r}, {grid.r_max!r}) with {nr} nodes is "
            f"not finite in floating point ({exc})"
        ) from None
    if oblique_s is not None:
        kind[1:-1, -1] = ROW_OBLIQUE
        cols[:, 1:-1, -1] += np.array([-nt, -2, -1, 0, nt])[:, None]
    weights[2][kind == ROW_DIRICHLET] = 1.0
    return cols.reshape(5, -1), weights.reshape(5, -1), kind.ravel()


def _apply(cols: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the stencil table of A, each row summed in ascending column order."""
    return (weights * x[cols]).sum(axis=0)


def _edge_values(name: str, data: _EdgeData, rs: np.ndarray, ths: np.ndarray) -> np.ndarray:
    """The named data at the nodes (rs, ths): a callable's values there, one
    real number at each node, or an array of one value per node, each finite
    and real (`errors.real_array`); DomainError otherwise."""
    if callable(data):
        data = [data(a, b) for a, b in zip(rs.tolist(), ths.tolist())]
    elif np.isscalar(data) or isinstance(data, np.ndarray) and data.ndim == 0:
        data = np.full(rs.shape, data)
    return real_array(data, f"{name} data", rs.shape)


def _singular(
    grid: SectorGrid, oblique_s: Optional[float], stage: str, detail: str
) -> SingularSystem:
    return SingularSystem(
        f"{stage} failed: {detail}; grid (n_r, n_theta, m, theta0, oblique_s) = "
        f"({grid.n_r}, {grid.n_theta}, {grid.m}, {grid.theta0!r}, {oblique_s!r})"
    )


#: scipy's compiled LAPACK wrappers, and the routines the solve takes from them.
_LAPACK_MODULE = "scipy.linalg._flapack"
_LAPACK_ROUTINES = ("dstevd", "dgetrf", "dgetrs", "zgetrf", "zgetrs")


@functools.cache
def _lapack() -> dict[str, Callable]:
    """The routines of _LAPACK_ROUTINES by name, loaded on the first solve, so
    that importing the package costs nothing for them; where scipy's compiled
    file cannot serve, `scipy.linalg.lapack` supplies the same routines."""
    routines = _load_compiled(_LAPACK_MODULE, _LAPACK_ROUTINES, "scipy.linalg.lapack")
    return dict(zip(_LAPACK_ROUTINES, routines))


def _eigen(
    diag: np.ndarray, sub: np.ndarray, sup: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, eigenvectors Y and Y^-1 of a tridiagonal matrix T.

    sub[k] and sup[k] are T[k+1, k] and T[k, k+1].  When every product
    sub[k] sup[k] is positive, D^-1 T D is symmetric for the diagonal D with
    d[k+1] / d[k] = sqrt(sub[k] / sup[k]), and LAPACK's dstevd applies, as
    in scipy's `eigh_tridiagonal`.  Otherwise the dense matrix goes to
    numpy's general `eig`, and the results may be complex.  A failed
    eigensolve raises numpy's LinAlgError.
    """
    prod = sub * sup
    if np.all(prod > 0.0):
        if len(diag) == 1:  # dstevd rejects a 1 x 1 matrix
            return diag.copy(), np.ones((1, 1)), np.ones((1, 1))
        log_d = np.concatenate(([0.0], np.cumsum(0.5 * np.log(sub / sup))))
        d = np.exp(log_d - 0.5 * (log_d.max() + log_d.min()))
        w, Z, info = _lapack()["dstevd"](diag, np.copysign(np.sqrt(prod), sup), compute_v=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dstevd did not converge (LAPACK info = {info})")
        return w, d[:, None] * Z, Z.T / d
    w, Y = np.linalg.eig(np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1))
    return w, Y, np.linalg.inv(Y)


def _sector_solver(
    grid: SectorGrid,
    oblique_s: Optional[float],
    cols: np.ndarray,
    weights: np.ndarray,
    kind: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Direct solver v -> A^-1 v of the assembled system, by its tensor structure.

    Dirichlet rows fix their nodes; the rest of v, less the couplings to
    those nodes, drives the other rows.  The interior rows times -r_i^2 read
    P X + X Q^T = F, with P = diag(r^2) times the radial tridiagonal and Q
    the angular one; with P = Y M Y^-1 and Q = V L V^-1,
    X = Y [(Y^-1 F V^-T) / (mu_i + lambda_j)] V^T.  Cone values c enter F
    through the last interior column, to which the columns J-1 and J-2
    respond by Y diag(sigma) Y^-1, so the oblique rows give a dense Schur
    complement in c, factored once.
    """
    nr, nt, j0 = grid.n_r, grid.n_theta, grid.m
    first, (wm, w0, wp) = _radial_weights(grid.r)
    r2 = grid.r[1:-1] ** 2
    lower, centre, upper = _angular_weights(grid)
    try:
        mu, Y, Yi = _eigen(r2 * w0, r2[1:] * wm[1:], r2[:-1] * wp[:-1])
        lam, V, Vi = _eigen(centre, lower, upper[:-1])
    except np.linalg.LinAlgError as exc:
        raise _singular(grid, oblique_s, "eigendecomposition", str(exc)) from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sum = 1.0 / (mu[:, None] + lam)
    if not all(np.all(np.isfinite(x)) for x in (inv_sum, Y, Yi, V, Vi)):
        raise _singular(
            grid, oblique_s, "eigendecomposition",
            "non-finite eigenvectors or a zero eigenvalue sum",
        )
    fixed = kind == ROW_DIRICHLET

    if oblique_s is not None:
        om, o2, o1, o0, op = _oblique_weights(grid, oblique_s, first)
        last = len(centre) - 1  # column J-1; J-2 is interior unless the m = 1 axis
        near = [last, last - 1] if last > 0 else [last]
        near_w = np.stack((o1, o2)[: len(near)], axis=1)
        sigma = inv_sum @ (V[near] * Vi[:, last]).T
        schur = np.diag(o0) + np.diag(om[1:], -1) + np.diag(op[:-1], 1)
        schur = schur - upper[-1] * ((near_w @ sigma.T) * Y) @ Yi
        if not np.all(np.isfinite(schur)):
            raise _singular(grid, oblique_s, "cone Schur complement", "non-finite entries")
        prefix = "z" if schur.dtype.kind == "c" else "d"
        schur_lu, piv, info = _lapack()[prefix + "getrf"](schur)
        if info > 0:
            raise _singular(
                grid, oblique_s, "cone Schur complement",
                f"diagonal number {info} of its LU factor is exactly zero",
            )
        getrs = _lapack()[prefix + "getrs"]

    def solve(v: np.ndarray) -> np.ndarray:
        x = np.where(fixed, v, 0.0)
        g = (v - _apply(cols, weights, x)).reshape(nr, nt)
        x = x.reshape(nr, nt)
        G = Yi @ (-r2[:, None] * g[1:-1, j0:-1]) @ Vi.T
        if oblique_s is not None:
            x_near = Y @ ((G * inv_sum) @ V[near].T)
            rhs = g[1:-1, -1] - (near_w * x_near).sum(axis=1)
            c = getrs(schur_lu, piv, rhs)[0].real
            G = G - upper[-1] * np.outer(Yi @ c, Vi[:, last])
            x[1:-1, -1] = c
        x[1:-1, j0:-1] = (Y @ (G * inv_sum) @ V.T).real
        return x.ravel()

    return solve


def solve_dirichlet(
    grid: SectorGrid,
    boundary_values: dict[str, _EdgeData],
    rhs: Optional[_EdgeData] = None,
    oblique_s: Optional[float] = None,
) -> DiscreteField:
    """Solve L u = rhs on the sector with per-edge boundary data.

    boundary_values maps edge names to data (scalar, array along the edge,
    or callable of (r, theta)): "r_min" and "r_max" are required Dirichlet
    edges; "cone" (theta = theta0) is Dirichlet unless `oblique_s` is given,
    in which case the homogeneous oblique condition is imposed there.  The
    axis edge is the symmetry condition for m = 0 and Dirichlet 0 for m = 1.
    A boundary_values that is no mapping, missing data, data for any other
    edge ("cone" with `oblique_s` included), or data that are not finite real
    numbers of the edge's shape (`errors.real_array`) raise DomainError naming
    the edge ("rhs" for the right-hand side), before assembly.  Corner nodes
    belong to the radial edges.

    The assembled system is solved through its tensor structure: fast
    diagonalisation of the radial and angular factors (Lynch, Rice & Thomas
    1964) and, for an oblique edge, a dense Schur complement in the cone
    values (the capacitance matrix of Buzbee, Dorr, George & Golub 1971).
    Iterative refinement against the row-equilibrated assembled matrix then
    certifies the residual SOLVE_TOL * ||rhs|| + SOLVE_TOL; a failure names
    its stage and the grid in the SingularSystem it raises.
    """
    if not isinstance(boundary_values, Mapping):
        raise DomainError(f"boundary data must map edge names to data, got {boundary_values!r}")
    required = {"r_min", "r_max"} | ({"cone"} if oblique_s is None else set())
    if set(boundary_values) != required:
        raise DomainError(
            f"boundary data must be given for exactly the Dirichlet edges "
            f"{sorted(required)}, got {sorted(map(str, boundary_values))}"
        )

    nr, nt = grid.n_r, grid.n_theta
    rr = np.repeat(grid.r, nt)
    tt = np.tile(grid.theta, nr)
    b = np.zeros(nr * nt)
    node = np.arange(nr * nt).reshape(nr, nt)
    if rhs is not None:
        # A = -L, so the right-hand side enters negated on the interior rows
        k = node[1:-1, grid.m:-1].ravel()
        b[k] = -_edge_values("rhs", rhs, rr[k], tt[k])
    # every node of a Dirichlet edge is a Dirichlet row; the radial edges
    # come last, so the corner nodes take their data
    edges = {"cone": node[:, -1], "r_min": node[0], "r_max": node[-1]}
    for name, k in edges.items():
        if name in boundary_values:
            b[k] = _edge_values(name, boundary_values[name], rr[k], tt[k])

    cols, weights, kind = _assemble(grid, oblique_s)
    # equilibrate rows to unit max magnitude; the 1/r^2 factors otherwise
    # spread row scales over many orders and defeat the residual target
    row_max = np.abs(weights).max(axis=0)
    if row_max.min() <= 0.0:
        raise _singular(grid, oblique_s, "equilibration", "an assembled row is empty")
    weights_eq = weights * (1.0 / row_max)
    b_eq = b / row_max
    solve = _sector_solver(grid, oblique_s, cols, weights, kind)
    u = solve(b)
    if not np.all(np.isfinite(u)):
        raise _singular(grid, oblique_s, "refinement", "non-finite solve")
    target = SOLVE_TOL * np.abs(b_eq).max() + SOLVE_TOL
    for _ in range(5):
        resid = b_eq - _apply(cols, weights_eq, u)
        if np.abs(resid).max() <= target:
            break
        # the equilibrated system (A / row_max) d = resid is A d = row_max * resid
        u = u + solve(row_max * resid)
    else:
        worst = np.abs(b_eq - _apply(cols, weights_eq, u)).max()
        if worst > target:
            raise _singular(
                grid, oblique_s, "refinement",
                f"linear-solve residual {worst} above {target}",
            )
    # callers keep the field: copy it out once the operator is released, so
    # that it reuses the memory the table held rather than growing the heap
    del cols, weights, weights_eq, solve
    return DiscreteField(grid=grid, values=u.reshape(nr, nt).copy())


# ---------------------------------------------------------------------------
# monotone-scheme certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MMatrixViolation:
    i: int
    j: int
    kind: str
    value: float


@dataclass(frozen=True)
class MMatrixReport:
    passed: bool
    n_interior_rows: int
    violations: tuple[MMatrixViolation, ...]


def check_m_matrix(
    grid: SectorGrid, oblique_s: Optional[float] = None
) -> MMatrixReport:
    """Verify the monotone-scheme sign structure of the interior rows.

    In the convention A = -L, every interior row must have nonpositive
    off-diagonal entries and a nonnegative row sum.  Both are read off the
    stencil table of `_assemble`: a sign mask over its off-diagonal slots
    and the sum of each row's slots.  Violations (typically from the
    transport terms on under-resolved grids) are reported per node, by row,
    the off-diagonals in column order before the row sum.  An inadmissible
    oblique angle raises DomainError.
    """
    cols, weights, kind = _assemble(grid, oblique_s)
    scale = np.abs(weights).max(axis=0)
    row_sum = weights.sum(axis=0)
    interior = kind == ROW_INTERIOR
    # five slot masks, then the row-sum mask as a sixth slot
    flagged = interior & np.vstack((
        (cols != np.arange(len(kind))) & (weights > 1e-14 * scale),
        row_sum < -1e-12 * scale,
    ))
    at, slot = np.nonzero(flagged.T)
    value = np.vstack((weights, row_sum))[slot, at]
    violations = tuple(
        MMatrixViolation(
            i=k // grid.n_theta,
            j=k % grid.n_theta,
            kind="negative_row_sum" if sl == 5 else "positive_offdiagonal",
            value=v,
        )
        for k, sl, v in zip(at.tolist(), slot.tolist(), value.tolist())
    )
    return MMatrixReport(
        passed=not violations,
        n_interior_rows=int(interior.sum()),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# exponent fitting along rays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitDiagnostics:
    slope: float
    intercept: float
    max_abs_residual: float
    n_samples: int
    window: tuple[float, float]


def fit_exponent(
    source: Union[DiscreteField, Callable[[float, float], float]],
    theta: float,
    window: tuple[float, float],
) -> tuple[float, FitDiagnostics]:
    """Least-squares slope of log|u| against log r along the ray theta = const.

    For a DiscreteField the ray, which must lie in [0, theta0], snaps to the
    nearest theta column and uses the grid's own radial nodes inside the
    window; for a callable, whose ray must lie in [0, THETA0_MAX),
    FIT_SAMPLES geometrically spaced radii are used.  Raises DegenerateFit
    when the window holds fewer than FIT_MIN_SAMPLES points, contains sign
    changes, or touches near-zero values; a window that is not a pair of
    real numbers (`errors.real_array`) in (0, inf), a ray outside its range
    or a callable's sample that is not one finite real number raises
    DomainError.
    """
    theta = real_number(theta, "ray theta")
    r_lo, r_hi = real_array(window, "fit window", (2,), finite=False).tolist()
    check_radii(r_lo, r_hi, "fit window")
    if isinstance(source, DiscreteField):
        if not (0.0 <= theta <= source.grid.theta0):
            raise DomainError(f"ray theta = {theta} outside [0, {source.grid.theta0}]")
        jstar = int(np.argmin(np.abs(source.grid.theta - theta)))
        mask = (source.grid.r >= r_lo) & (source.grid.r <= r_hi)
        rs = source.grid.r[mask]
        us = source.values[mask, jstar]
    else:
        check_polar_angle(theta, "ray theta", 0.0)
        rs = np.geomspace(r_lo, r_hi, FIT_SAMPLES)
        us = real_array([source(r, theta) for r in rs.tolist()], "samples", rs.shape, finite=False)
        if not np.isfinite(us).all():
            raise DomainError(f"non-finite samples of the callable in window {window}")
    if len(rs) < FIT_MIN_SAMPLES:
        raise DegenerateFit(
            f"window {window} holds {len(rs)} samples, need {FIT_MIN_SAMPLES}"
        )
    umax = np.abs(us).max()
    if umax == 0.0 or np.abs(us).min() < 1e-13 * umax:
        raise DegenerateFit("near-zero samples in the fit window")
    signs = np.sign(us)
    if signs.max() != signs.min():
        raise DegenerateFit("sign change inside the fit window")
    x = np.log(rs)
    y = np.log(np.abs(us))
    slope, intercept = np.polyfit(x, y, 1)
    fit_res = y - (slope * x + intercept)
    return float(slope), FitDiagnostics(
        slope=float(slope),
        intercept=float(intercept),
        max_abs_residual=float(np.abs(fit_res).max()),
        n_samples=len(rs),
        window=(r_lo, r_hi),
    )
