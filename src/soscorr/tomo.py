"""Tomographic slowness reconstruction from differential delay maps.

Builds the sparse differential Tx-path matrix by exact ray/cell
intersection, applies anisotropic total-variation regularization, and
minimizes the Charbonnier-smoothed L1 objective

    sum phi(L sigma - dtau) + lambda * sum phi(D sigma),
    phi(t) = sqrt(t^2 + eps^2) - eps,

with L-BFGS. The unknown is the slowness deviation from 1/c_bf, so a
zero delay vector maps to the zero solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from .geometry import ImagingGrid, TransducerArray, element_position, slab_clip
from .synthsim import SOS_MAX, SOS_MIN


# the solve's settings, fixed, all on the dimensionless problem that
# reconstruct solves: the TV weight; the Charbonnier smoothing of the L1
# terms, in units of the median absolute delay; the iteration cap; the
# weights of the axial and the lateral TV differences; and the L-BFGS
# history length (scipy's maxcor) and stopping tolerances (scipy's gtol
# and ftol)
LAM = 0.1
L1_EPSILON = 1e-2
MAX_ITER = 500
TV_AXIAL_WEIGHT = 1.0
TV_LATERAL_WEIGHT = 0.5
LBFGS_MEMORY = 10
LBFGS_GRAD_TOL = 1e-9
LBFGS_OBJ_TOL = 1e-10


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathMatrix:
    """Sparse differential path operator on its slowness grid."""

    matrix: sp.csr_matrix  # (n_rows, nx*nz of the slowness grid), meters
    slow_grid: ImagingGrid


@dataclass
class ReconInfo:
    """Solver record; objective and gradient are those of the
    dimensionless problem that :func:`reconstruct` solves."""

    objective_trace: list[float]
    converged: bool
    iterations: int
    grad_norm: float
    message: str = ""


def ray_weights(
    p_from: tuple[float, float], p_to: tuple[float, float], grid: ImagingGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-cell intersection lengths of one straight segment.

    Returns (flat cell indices, lengths in meters); the segment is
    clipped to the grid's cell-edge bounding box. A zero-length ray
    gives an empty row.
    """
    cols, lens, _ = _traverse_batch(
        np.asarray(p_from, dtype=float),
        np.asarray(p_to, dtype=float)[None, :],
        grid,
    )
    return cols, lens


def _traverse_batch(origin: np.ndarray, targets: np.ndarray, grid: ImagingGrid):
    """Cell crossings for rays from one origin to many targets.

    Returns (flat cell cols, lengths, ray row ids) ready for COO
    assembly.
    """
    ox, oz = origin
    d = targets - origin
    dx_r, dz_r = d[:, 0], d[:, 1]
    seg_len = np.hypot(dx_r, dz_r)
    x_lo, z_lo = grid.x_min, grid.z_min

    t_in, t_out = slab_clip(origin, d, (x_lo, z_lo), (grid.x_max, grid.z_max))
    t_in = np.maximum(t_in, 0.0)
    t_out = np.minimum(t_out, 1.0)
    # a zero-length ray inside the grid has no length to share out
    miss = (seg_len == 0) | (t_in >= t_out)

    x_edges = x_lo + np.arange(grid.nx + 1) * grid.dx
    z_edges = z_lo + np.arange(grid.nz + 1) * grid.dz
    with np.errstate(divide="ignore", invalid="ignore"):
        ts_x = (x_edges[None, :] - ox) / dx_r[:, None]
        ts_z = (z_edges[None, :] - oz) / dz_r[:, None]
    ts_x = np.where(np.isfinite(ts_x), ts_x, 0.0)
    ts_z = np.where(np.isfinite(ts_z), ts_z, 0.0)

    n = targets.shape[0]
    ts = np.concatenate(
        [t_in[:, None], t_out[:, None], ts_x, ts_z], axis=1
    )
    ts = np.clip(ts, t_in[:, None], t_out[:, None])
    ts.sort(axis=1)

    dts = np.diff(ts, axis=1)
    mids = 0.5 * (ts[:, 1:] + ts[:, :-1])
    px = ox + mids * dx_r[:, None]
    pz = oz + mids * dz_r[:, None]
    # every piece lies in the box, whose edges count as inside: a
    # midpoint on the far edge falls in the last column or row, and one
    # past an edge by rounding in the nearest cell
    ix = np.clip(np.floor((px - x_lo) / grid.dx).astype(np.int64),
                 0, grid.nx - 1)
    iz = np.clip(np.floor((pz - z_lo) / grid.dz).astype(np.int64),
                 0, grid.nz - 1)
    keep = (dts > 1e-15) & ~miss[:, None]

    rows = np.broadcast_to(np.arange(n)[:, None], dts.shape)[keep]
    cols = (iz * grid.nx + ix)[keep]
    lens = (dts * seg_len[:, None])[keep]
    return cols, lens, rows


def build_path_matrix(
    pairs: list[tuple[int, int]],
    meas_grid: ImagingGrid,
    slow_grid: ImagingGrid,
    masks: list[np.ndarray],
    array: TransducerArray,
) -> PathMatrix:
    """Differential Tx-path matrix for a set of frame pairs.

    Row for (pair (a, b), node p) = ray_weights(pos_a, p) -
    ray_weights(pos_b, p); the rows of each pair follow the flat node
    order, and rows for nodes outside the pair's mask on meas_grid are
    dropped. Receive paths are identical between the frames of a pair
    and do not appear.
    """
    X, Z = meas_grid.meshgrid()
    nodes = np.column_stack([X.ravel(), Z.ravel()])
    n_nodes = nodes.shape[0]
    n_cells = slow_grid.nx * slow_grid.nz

    # one traversal per distinct element, shared between pairs
    elements = sorted({e for p in pairs for e in p})
    per_element: dict[int, sp.csr_matrix] = {}
    for e in elements:
        pos = np.array(element_position(array, e))
        cols, lens, rows = _traverse_batch(pos, nodes, slow_grid)
        per_element[e] = sp.coo_matrix(
            (lens, (rows, cols)), shape=(n_nodes, n_cells)
        ).tocsr()

    blocks = []
    for m, (a, b) in enumerate(pairs):
        diff = (per_element[a] - per_element[b]).tocsr()
        blocks.append(diff[np.flatnonzero(np.asarray(masks[m]).ravel())])

    matrix = sp.vstack(blocks, format="csr") if blocks else sp.csr_matrix((0, n_cells))
    return PathMatrix(matrix=matrix, slow_grid=slow_grid)


def tv_operator(grid: ImagingGrid) -> sp.csr_matrix:
    """Stacked forward-difference operators with anisotropic weights.

    Axial differences are scaled by TV_AXIAL_WEIGHT, lateral ones by
    TV_LATERAL_WEIGHT; boundary rows are omitted (no wraparound).
    """

    def diff(n):
        return sp.eye(n - 1, n, 1) - sp.eye(n - 1, n)

    # format="csr": kron's default BSR would store explicit zeros
    d_ax = sp.kron(diff(grid.nz), sp.eye(grid.nx), format="csr")
    d_lat = sp.kron(sp.eye(grid.nz), diff(grid.nx), format="csr")
    return sp.vstack([TV_AXIAL_WEIGHT * d_ax, TV_LATERAL_WEIGHT * d_lat],
                     format="csr")


def make_objective(
    L: sp.csr_matrix,
    delays: np.ndarray,
    D: sp.csr_matrix,
    lam_eff: float,
    eps: float,
):
    """Smoothed L1 data + TV objective: sigma -> (value, analytic gradient).

    L.T and D.T are built once in CSR form here, so an iterative solver
    does not transpose them on every call.
    """
    LT, DT = L.T.tocsr(), D.T.tocsr()

    def objective(sigma: np.ndarray) -> tuple[float, np.ndarray]:
        r = L @ sigma - delays
        g = D @ sigma
        # phi(t) = sqrt(t^2 + eps^2) - eps: one root gives value and gradient
        sr = np.sqrt(r * r + eps * eps)
        sg = np.sqrt(g * g + eps * eps)
        f = float(np.sum(sr - eps) + lam_eff * np.sum(sg - eps))
        grad = LT @ (r / sr) + lam_eff * (DT @ (g / sg))
        return f, grad

    return objective


def reconstruct(
    L: PathMatrix,
    delays: np.ndarray,
    D: sp.csr_matrix,
) -> tuple[np.ndarray, ReconInfo]:
    """Solve for the slowness deviation from 1/c_bf, an (nz, nx)
    array on L.slow_grid, from stacked delays.

    L is in meters, delays in seconds and the map in s/m, but the
    solver works on a dimensionless problem: path lengths in slowness
    cells and delays in units of the median absolute nonzero delay.
    So LAM weighs delay misfit against TV of the delay per cell
    whatever the units or the data amplitude, and L1_EPSILON applies to
    that problem. The regularization strength is also normalized by the
    measurement/TV row ratio, so LAM is comparable across grid sizes.
    Starts from sigma = 0 and runs L-BFGS until its gradient or
    objective tolerance (LBFGS_GRAD_TOL, LBFGS_OBJ_TOL) or MAX_ITER is
    hit.
    """
    A = L.matrix
    delays = np.asarray(delays, dtype=float).ravel()
    if delays.size != A.shape[0]:
        raise ValueError(
            f"delay vector length {delays.size} != path matrix rows {A.shape[0]}"
        )
    if not np.all(np.isfinite(delays)):
        raise SolverError("non-finite delays")
    g = L.slow_grid
    cell = float(np.sqrt(g.dx * g.dz))
    nonzero = np.abs(delays[delays != 0])
    tau = float(np.median(nonzero)) if nonzero.size else 1.0
    A = A * (1.0 / cell)
    b = delays / tau
    n = A.shape[1]
    n_tv = max(D.shape[0], 1)
    objective = make_objective(A, b, D, LAM * (A.shape[0] / n_tv),
                               L1_EPSILON)

    trace: list[float] = []

    def fun(x):
        f, grad = objective(x)
        if not np.isfinite(f) or not np.all(np.isfinite(grad)):
            raise SolverError("non-finite objective or gradient")
        return f, grad

    def cb(intermediate_result):
        trace.append(float(intermediate_result.fun))

    x0 = np.zeros(n)
    trace.append(fun(x0)[0])
    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=cb,
        options=dict(
            maxcor=LBFGS_MEMORY,
            maxiter=MAX_ITER,
            gtol=LBFGS_GRAD_TOL,
            ftol=LBFGS_OBJ_TOL,
        ),
    )
    converged = bool(res.success) and res.nit < MAX_ITER
    grad_norm = float(np.max(np.abs(res.jac))) if res.jac is not None else np.nan
    info = ReconInfo(
        objective_trace=trace,
        converged=converged,
        iterations=int(res.nit),
        grad_norm=grad_norm,
        message=str(res.message),
    )
    return (res.x * (tau / cell)).reshape(g.nz, g.nx), info


def to_sos(dsigma: np.ndarray, c_bf: float) -> tuple[np.ndarray, float]:
    """Absolute SoS map 1/(1/c_bf + dsigma), clamped to the sanity
    band, and the fraction of its cells that were clamped."""
    sos = 1.0 / (1.0 / c_bf + dsigma)
    clamped = float(np.mean((sos < SOS_MIN) | (sos > SOS_MAX)))
    if clamped:
        warnings.warn(
            f"reconstructed SoS left the [{SOS_MIN:g}, {SOS_MAX:g}] m/s "
            f"band; clamping {clamped:.1%} of the map",
            RuntimeWarning,
        )
        sos = np.clip(sos, SOS_MIN, SOS_MAX)
    return sos, clamped
