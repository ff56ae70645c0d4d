"""Angular delay-pattern extraction and line fitting.

The delay map is reduced to a 1-D pattern: median delay per angular bin
over a depth band near the probe, then a line is fit against the angle
by ordinary, weighted, or robust (IRLS, Tukey bisquare) least squares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .delaytrack import DelayMap
from .geometry import PolarROI, polar_coords

BISQUARE_C = 4.685
MAD_SCALE = 1.4826
# IRLS stops after ROBUST_MAX_ITER iterations, or once no coefficient
# moves by ROBUST_TOL (s/rad)
ROBUST_MAX_ITER = 50
ROBUST_TOL = 1e-10


class EmptyPatternError(ValueError):
    """No valid delay nodes fall inside the requested ROI."""


class InsufficientDataError(ValueError):
    pass


class RankDeficiencyError(ValueError):
    pass


@dataclass(frozen=True)
class DelayPattern:
    thetas: np.ndarray  # strictly increasing bin centers, radians
    median_delays: np.ndarray  # seconds
    weights: np.ndarray  # mean ncc per bin, [0, 1]


@dataclass(frozen=True)
class RegressionResult:
    slope: float  # seconds per radian
    intercept: float  # seconds
    r_squared: float
    iterations: int = 0
    converged: bool = True


def extract_pattern(dmap: DelayMap, roi: PolarROI) -> DelayPattern:
    """Median delay per angular bin over the ROI depth band.

    Valid nodes are assigned to uniform angular bins; empty bins are
    dropped. Bin weights are the mean NCC of the contributing nodes.
    """
    X, Z = dmap.grid.meshgrid()
    r, theta = polar_coords(X, Z, roi.reference_x)
    sel = (
        dmap.valid
        & (r >= roi.depth_min)
        & (r <= roi.depth_max)
        & (theta >= roi.theta_min)
        & (theta <= roi.theta_max)
    )
    if not np.any(sel):
        raise EmptyPatternError(
            "no valid delay nodes in ROI; widen the ROI or lower min_ncc"
        )
    th = theta[sel]
    dl = dmap.delays[sel]
    cc = dmap.ncc[sel]

    edges = roi.bin_edges()
    idx = np.clip(np.digitize(th, edges) - 1, 0, roi.num_bins - 1)
    centers = roi.bin_centers()

    thetas, medians, weights = [], [], []
    for b in range(roi.num_bins):
        m = idx == b
        if not np.any(m):
            continue
        thetas.append(centers[b])
        medians.append(float(np.median(dl[m])))
        weights.append(float(np.clip(np.mean(cc[m]), 0.0, 1.0)))
    return DelayPattern(
        thetas=np.array(thetas),
        median_delays=np.array(medians),
        weights=np.array(weights),
    )


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination; 0 by convention for constant y."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    ss_res = float(np.sum((y - y_hat) ** 2))
    return 1.0 - ss_res / ss_tot


def _line_fit(theta, y, w=None):
    """Weighted least-squares line through (theta, y); returns (b0, b1)."""
    X = np.column_stack([np.ones_like(theta), theta])
    if w is None:
        w = np.ones_like(theta)
    xtwx = X.T @ (w[:, None] * X)
    if np.linalg.matrix_rank(xtwx) < 2:
        raise RankDeficiencyError("design matrix is rank deficient")
    b = np.linalg.solve(xtwx, X.T @ (w * y))
    return float(b[0]), float(b[1])


def _result(theta, y, b0, b1, iterations=0, converged=True):
    return RegressionResult(
        slope=b1,
        intercept=b0,
        r_squared=r_squared(y, b0 + b1 * theta),
        iterations=iterations,
        converged=converged,
    )


def fit_ols(pattern: DelayPattern) -> RegressionResult:
    """Ordinary least-squares line fit of delay against angle."""
    theta, y = pattern.thetas, pattern.median_delays
    if np.unique(theta).size < 2:
        raise InsufficientDataError("need >= 2 distinct theta values")
    b0, b1 = _line_fit(theta, y)
    return _result(theta, y, b0, b1)


def fit_weighted(pattern: DelayPattern) -> RegressionResult:
    """Weighted least squares with the NCC confidences as weights.

    Solves b = (X^T W X)^-1 X^T W y with W = diag(weights); equal
    weights reduce exactly to the OLS fit.
    """
    theta, y, w = pattern.thetas, pattern.median_delays, pattern.weights
    keep = w > 0
    if np.sum(keep) < 2:
        raise InsufficientDataError("need >= 2 points with positive weight")
    b0, b1 = _line_fit(theta[keep], y[keep], w[keep])
    return _result(theta, y, b0, b1)


def fit_robust(pattern: DelayPattern) -> RegressionResult:
    """IRLS line fit with Tukey bisquare weights.

    Scale is the MAD of the residuals times 1.4826, re-estimated each
    iteration; iteration stops when the largest coefficient change
    drops below ROBUST_TOL (s/rad) or after ROBUST_MAX_ITER iterations,
    in which case the last iterate is returned with a convergence
    warning.
    """
    theta, y = pattern.thetas, pattern.median_delays
    if theta.size < 3:
        raise InsufficientDataError("robust fit needs >= 3 points")
    if np.unique(theta).size < 2:
        raise RankDeficiencyError("all theta values identical")

    b0, b1 = _line_fit(theta, y)
    iterations = 0
    converged = False
    for iterations in range(1, ROBUST_MAX_ITER + 1):
        resid = y - (b0 + b1 * theta)
        scale = MAD_SCALE * np.median(np.abs(resid - np.median(resid)))
        if scale == 0.0:
            converged = True
            break
        u = resid / (BISQUARE_C * scale)
        w = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 2, 0.0)
        if np.sum(w > 0) < 2:
            break
        nb0, nb1 = _line_fit(theta, y, w)
        if max(abs(nb0 - b0), abs(nb1 - b1)) < ROBUST_TOL:
            b0, b1 = nb0, nb1
            converged = True
            break
        b0, b1 = nb0, nb1
    if not converged:
        warnings.warn(
            f"robust fit did not converge in {ROBUST_MAX_ITER} iterations",
            RuntimeWarning,
        )
    return _result(theta, y, b0, b1, iterations, converged)


FITTERS = {"ols": fit_ols, "weighted": fit_weighted, "robust": fit_robust}
