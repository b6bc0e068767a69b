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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFit, DomainError, SingularSystem
from .exponent import SeparableSolution
from .grids import DiscreteField, SectorGrid

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Target for the verified linear-solve residual: tol * ||rhs||_inf + tol.
SOLVE_TOL = 1e-12

_EdgeData = Union[float, Sequence[float], Callable[[float, float], float]]


# ---------------------------------------------------------------------------
# stencil helpers
# ---------------------------------------------------------------------------

def _radial_weights(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (w_m, w_0, w_p) of u_rr + (2/r) u_r at the interior nodes."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    ri = r[1:-1]
    wm = 2.0 / (hm * (hm + hp)) + (2.0 / ri) * (-hp / (hm * (hm + hp)))
    w0 = -2.0 / (hm * hp) + (2.0 / ri) * ((hp - hm) / (hm * hp))
    wp = 2.0 / (hp * (hm + hp)) + (2.0 / ri) * (hm / (hp * (hm + hp)))
    return wm, w0, wp


def _angular_weights_m0(grid: SectorGrid, j: int) -> tuple[float, float, float]:
    """Weights of u_tt + cot(t) u_t on (u_{j-1}, u_j, u_{j+1}); j = 0 is the axis."""
    ht = grid.h_theta
    if j == 0:
        return 0.0, -4.0 / (ht * ht), 4.0 / (ht * ht)
    cot = math.cos(grid.theta[j]) / math.sin(grid.theta[j])
    return (
        1.0 / (ht * ht) - cot / (2.0 * ht),
        -2.0 / (ht * ht),
        1.0 / (ht * ht) + cot / (2.0 * ht),
    )


def _angular_weights_m1(grid: SectorGrid, j: int) -> list[tuple[int, float]]:
    """Weights on u of the scaled-variable angular operator at node j >= 1.

    Returns (column j', weight) pairs for
    sin(t_j) w'' + 3 cos(t_j) w' - 2 sin(t_j) w with w = u / sin(t).
    """
    ht = grid.h_theta
    th = grid.theta
    sj, cj = math.sin(th[j]), math.cos(th[j])
    wm = sj / (ht * ht) - 3.0 * cj / (2.0 * ht)
    w0 = -2.0 * sj / (ht * ht) - 2.0 * sj
    wp = sj / (ht * ht) + 3.0 * cj / (2.0 * ht)
    pairs: dict[int, float] = {}

    def add(col: int, w_on_w: float) -> None:
        if col == 0:
            # w_0 = (4 w_1 - w_2) / 3, even extrapolation across the axis
            add(1, 4.0 * w_on_w / 3.0)
            add(2, -w_on_w / 3.0)
            return
        pairs[col] = pairs.get(col, 0.0) + w_on_w / math.sin(th[col])

    add(j - 1, wm)
    add(j, w0)
    add(j + 1, wp)
    return sorted(pairs.items())


# ---------------------------------------------------------------------------
# residual of exact separable solutions
# ---------------------------------------------------------------------------

def laplacian_residual(
    sol: SeparableSolution, grid: SectorGrid
) -> tuple[DiscreteField, float]:
    """Discrete Laplacian applied to exact nodal values of the solution.

    Returns the residual field (zero on the rows/columns where the centered
    stencil does not reach) and its max norm over the evaluated nodes.
    """
    if sol.m != grid.m:
        raise DomainError(f"solution mode {sol.m} does not match grid mode {grid.m}")
    r, th = grid.r, grid.theta
    prof = sol.profile_array(th)
    U = np.outer(r ** sol.alpha, prof)
    res = np.zeros_like(U)
    wm, w0, wp = _radial_weights(r)
    radial = (
        wm[:, None] * U[:-2, :] + w0[:, None] * U[1:-1, :] + wp[:, None] * U[2:, :]
    )
    ht = grid.h_theta
    inv_r2 = 1.0 / (r[1:-1] ** 2)
    if grid.m == 0:
        ang = np.zeros_like(U[1:-1, :])
        ang[:, 0] = 4.0 * (U[1:-1, 1] - U[1:-1, 0]) / (ht * ht)
        cot = np.cos(th[1:-1]) / np.sin(th[1:-1])
        ang[:, 1:-1] = (
            (U[1:-1, :-2] - 2.0 * U[1:-1, 1:-1] + U[1:-1, 2:]) / (ht * ht)
            + cot[None, :] * (U[1:-1, 2:] - U[1:-1, :-2]) / (2.0 * ht)
        )
        res[1:-1, :-1] = radial[:, :-1] + inv_r2[:, None] * ang[:, :-1]
    else:
        W = np.zeros_like(U)
        W[:, 1:] = U[:, 1:] / np.sin(th[1:])
        W[:, 0] = (4.0 * W[:, 1] - W[:, 2]) / 3.0
        sj = np.sin(th[1:-1])
        cj = np.cos(th[1:-1])
        ang = (
            sj[None, :]
            * (W[1:-1, :-2] - 2.0 * W[1:-1, 1:-1] + W[1:-1, 2:])
            / (ht * ht)
            + 3.0 * cj[None, :] * (W[1:-1, 2:] - W[1:-1, :-2]) / (2.0 * ht)
            - 2.0 * sj[None, :] * W[1:-1, 1:-1]
        )
        res[1:-1, 1:-1] = radial[:, 1:-1] + inv_r2[:, None] * ang
    field = DiscreteField(grid=grid, values=res)
    return field, field.max_norm()


@dataclass(frozen=True)
class ConvergenceStudy:
    """Refinement study: residual max norms, mesh sizes, and observed order."""

    h_values: tuple[float, ...]
    residuals: tuple[float, ...]

    @property
    def observed_order(self) -> float:
        """Least-squares slope of log(residual) against log(h)."""
        x = np.log(np.asarray(self.h_values))
        y = np.log(np.asarray(self.residuals))
        slope = np.polyfit(x, y, 1)[0]
        return float(slope)

    @property
    def pairwise_orders(self) -> tuple[float, ...]:
        res = self.residuals
        hs = self.h_values
        return tuple(
            math.log(res[i] / res[i + 1]) / math.log(hs[i] / hs[i + 1])
            for i in range(len(res) - 1)
        )


def residual_convergence(
    sol: SeparableSolution, grids: Sequence[SectorGrid]
) -> ConvergenceStudy:
    """Run `laplacian_residual` over a sequence of refined grids."""
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
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble A = -L with identity rows on Dirichlet nodes.

    Returns (A, kind) where kind flags each row as interior, Dirichlet or
    oblique.  The oblique rows are scaled positive-diagonal.
    """
    import scipy.sparse as sp

    nr, nt = grid.n_r, grid.n_theta
    r, th = grid.r, grid.theta
    ht = grid.h_theta
    n = nr * nt
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    kind = np.full(n, ROW_DIRICHLET, dtype=np.int8)

    def add(k: int, k2: int, v: float) -> None:
        rows.append(k)
        cols.append(k2)
        vals.append(v)

    wm_all, w0_all, wp_all = _radial_weights(r)
    for i in range(nr):
        for j in range(nt):
            k = grid.index(i, j)
            on_r_edge = i == 0 or i == nr - 1
            if on_r_edge or (j == 0 and grid.m == 1):
                add(k, k, 1.0)
                continue
            if j == nt - 1:
                if oblique_s is None:
                    add(k, k, 1.0)
                    continue
                # cos(s - t0) u_r + sin(s - t0) u_t / r = 0, one-sided in theta
                cr = math.cos(oblique_s - grid.theta0)
                ct = math.sin(oblique_s - grid.theta0)
                hm = r[i] - r[i - 1]
                hp = r[i + 1] - r[i]
                dm = -hp / (hm * (hm + hp))
                d0 = (hp - hm) / (hm * hp)
                dp = hm / (hp * (hm + hp))
                scale = -1.0 / ct  # ct < 0 for admissible s
                add(k, grid.index(i - 1, j), scale * cr * dm)
                add(k, grid.index(i + 1, j), scale * cr * dp)
                add(k, k, scale * (cr * d0 + ct * 3.0 / (2.0 * ht * r[i])))
                add(k, grid.index(i, j - 1), scale * ct * (-4.0) / (2.0 * ht * r[i]))
                add(k, grid.index(i, j - 2), scale * ct * 1.0 / (2.0 * ht * r[i]))
                kind[k] = ROW_OBLIQUE
                continue
            kind[k] = ROW_INTERIOR
            wm, w0, wp = wm_all[i - 1], w0_all[i - 1], wp_all[i - 1]
            inv_r2 = 1.0 / (r[i] * r[i])
            add(k, grid.index(i - 1, j), -wm)
            add(k, grid.index(i + 1, j), -wp)
            diag = -w0
            if grid.m == 0:
                am, a0, ap = _angular_weights_m0(grid, j)
                if j > 0:
                    add(k, grid.index(i, j - 1), -inv_r2 * am)
                add(k, grid.index(i, j + 1), -inv_r2 * ap)
                diag += -inv_r2 * a0
            else:
                for col, w in _angular_weights_m1(grid, j):
                    if col == j:
                        diag += -inv_r2 * w
                    else:
                        add(k, grid.index(i, col), -inv_r2 * w)
            add(k, k, diag)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    return A, kind


def _edge_values(data: _EdgeData, rs: np.ndarray, ths: np.ndarray) -> np.ndarray:
    if callable(data):
        return np.array([data(float(a), float(b)) for a, b in zip(rs, ths)])
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full(len(rs), float(arr))
    if arr.shape != rs.shape:
        raise DomainError(f"edge data of length {arr.shape} does not fit {rs.shape}")
    return arr


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
    Corner nodes belong to the radial edges.

    The sparse system is solved by a direct factorization with iterative
    refinement until the residual meets SOLVE_TOL * ||rhs|| + SOLVE_TOL.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    required = {"r_min", "r_max"} | ({"cone"} if oblique_s is None else set())
    missing = required - set(boundary_values)
    if missing:
        raise DomainError(f"missing boundary data for edges: {sorted(missing)}")
    if oblique_s is not None and not (
        -math.pi + grid.theta0 < oblique_s < grid.theta0
    ):
        raise DomainError(f"oblique angle {oblique_s} is not admissible")

    A, kind = _assemble(grid, oblique_s)
    nr, nt = grid.n_r, grid.n_theta
    b = np.zeros(nr * nt)
    if rhs is not None:
        rr = np.repeat(grid.r, nt)
        tt = np.tile(grid.theta, nr)
        interior = kind == ROW_INTERIOR
        # A = -L, so the right-hand side enters negated on interior rows
        b[interior] = -_edge_values(rhs, rr[interior], tt[interior])

    edge_nodes = {
        "r_min": (np.zeros(nt, dtype=int), np.arange(nt)),
        "r_max": (np.full(nt, nr - 1, dtype=int), np.arange(nt)),
        "cone": (np.arange(nr), np.full(nr, nt - 1, dtype=int)),
    }
    for name, (ii, jj) in edge_nodes.items():
        if name == "cone" and oblique_s is not None:
            continue
        vals = _edge_values(boundary_values[name], grid.r[ii], grid.theta[jj])
        for i, j, v in zip(ii, jj, vals):
            k = grid.index(int(i), int(j))
            if kind[k] == ROW_DIRICHLET:
                b[k] = v

    # equilibrate rows to unit max magnitude; the 1/r^2 factors otherwise
    # spread row scales over many orders and defeat the residual target
    row_max = np.abs(A).max(axis=1).toarray().ravel()
    if row_max.min() <= 0.0:
        raise SingularSystem("assembled system has an empty row")
    D = sp.diags(1.0 / row_max)
    A_eq = (D @ A).tocsc()
    b_eq = b / row_max
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            lu = spla.splu(A_eq)
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise SingularSystem(f"factorization failed: {exc}") from exc
        u = lu.solve(b_eq)
        if not np.all(np.isfinite(u)):
            raise SingularSystem("solver returned non-finite values")
        target = SOLVE_TOL * np.abs(b_eq).max() + SOLVE_TOL
        for _ in range(5):
            resid = b_eq - A_eq @ u
            if np.abs(resid).max() <= target:
                break
            u = u + lu.solve(resid)
        else:
            if np.abs(b_eq - A_eq @ u).max() > target:
                raise SingularSystem(
                    f"linear-solve residual {np.abs(b_eq - A_eq @ u).max()} above {target}"
                )
    return DiscreteField(grid=grid, values=u.reshape(nr, nt))


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
    off-diagonal entries and a nonnegative row sum.  Violations (typically
    from the transport terms on under-resolved grids) are reported per node.
    """
    A, kind = _assemble(grid, oblique_s)
    A = A.tocsr()
    violations: list[MMatrixViolation] = []
    n_interior = 0
    nt = grid.n_theta
    for k in range(A.shape[0]):
        if kind[k] != ROW_INTERIOR:
            continue
        n_interior += 1
        start, end = A.indptr[k], A.indptr[k + 1]
        row_cols = A.indices[start:end]
        row_vals = A.data[start:end]
        scale = np.abs(row_vals).max()
        i, j = divmod(k, nt)
        for col, v in zip(row_cols, row_vals):
            if col != k and v > 1e-14 * scale:
                violations.append(
                    MMatrixViolation(i=i, j=j, kind="positive_offdiagonal", value=float(v))
                )
        row_sum = float(row_vals.sum())
        if row_sum < -1e-12 * scale:
            violations.append(
                MMatrixViolation(i=i, j=j, kind="negative_row_sum", value=row_sum)
            )
    return MMatrixReport(
        passed=not violations,
        n_interior_rows=n_interior,
        violations=tuple(violations),
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
    min_samples: int = 10,
    n_samples: int = 32,
) -> tuple[float, FitDiagnostics]:
    """Least-squares slope of log|u| against log r along the ray theta = const.

    For a DiscreteField the ray snaps to the nearest theta column and uses
    the grid's own radial nodes inside the window; for a callable,
    `n_samples` geometrically spaced radii are used.  Raises DegenerateFit
    when the window holds fewer than `min_samples` points, contains sign
    changes, or touches near-zero values.
    """
    r_lo, r_hi = window
    if not (0.0 < r_lo < r_hi):
        raise DomainError(f"invalid fit window {window}")
    if isinstance(source, DiscreteField):
        jstar = int(np.argmin(np.abs(source.grid.theta - theta)))
        mask = (source.grid.r >= r_lo) & (source.grid.r <= r_hi)
        rs = source.grid.r[mask]
        us = source.values[mask, jstar]
    else:
        rs = np.geomspace(r_lo, r_hi, max(n_samples, min_samples))
        us = np.array([source(float(r), float(theta)) for r in rs])
    if len(rs) < min_samples:
        raise DegenerateFit(
            f"window {window} holds {len(rs)} samples, need {min_samples}"
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
        window=(float(r_lo), float(r_hi)),
    )
