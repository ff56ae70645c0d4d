"""Axial normalized-cross-correlation delay tracking between frames.

Integer-lag zero-mean NCC with 3-point parabolic subsample refinement.
Tracked lags are converted to seconds through the two-way axial time of
the beamformed grid, and the sign is oriented so that the reported delay
equals the differential echo-shift model (1/c - 1/c_bf) * (d_a - d_b)
for a frame pair (a, b).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beamform import BeamformedFrame
from .geometry import ImagingGrid


@dataclass(frozen=True)
class TrackConfig:
    window_len: int = 96  # axial samples
    search_radius: int = 16  # axial samples
    axial_step: int = 2  # pixels between measurement nodes
    lateral_step: int = 1
    min_ncc: float = 0.2
    # columns (odd) whose correlation sums are pooled into one node
    lateral_window: int = 1

    def __post_init__(self):
        if self.window_len < 8:
            raise ValueError("window_len must be >= 8")
        if self.search_radius < 1:
            raise ValueError("search_radius must be >= 1")
        if self.axial_step < 1 or self.lateral_step < 1:
            raise ValueError("steps must be >= 1")
        if self.lateral_window < 1 or self.lateral_window % 2 == 0:
            raise ValueError("lateral_window must be odd and >= 1")
        if not 0.0 <= self.min_ncc <= 1.0:
            raise ValueError("min_ncc must be in [0, 1]")


@dataclass(frozen=True)
class DelayMap:
    """Per-node relative delay and NCC confidence on a decimated grid."""

    delays: np.ndarray  # (nz', nx') seconds
    ncc: np.ndarray  # (nz', nx') in [-1, 1]
    valid: np.ndarray  # (nz', nx') bool
    grid: ImagingGrid  # measurement grid (node centers)
    frame_pair: tuple[int, int]


def _parabolic_offset(cm1, c0, cp1):
    """Subsample peak offset from three correlation samples."""
    denom = cm1 - 2.0 * c0 + cp1
    with np.errstate(divide="ignore", invalid="ignore"):
        off = 0.5 * (cm1 - cp1) / denom
    off = np.where(np.abs(denom) > 0, off, 0.0)
    return np.clip(off, -1.0, 1.0)


def ncc_delay_1d(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Best-matching fractional lag of window a inside search region b.

    The lag is measured relative to the centered alignment of a in b;
    positive lag means b's content is deeper (later) than a's. Returns
    (lag, peak_ncc); on zero-variance input the lag is NaN and ncc 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.size < a.size + 2:
        raise ValueError("search region must be at least window + 2 samples")
    w = a.size
    ad = a - a.mean()
    na = np.sqrt(np.sum(ad * ad))
    bw = sliding_window_view(b, w)
    bd = bw - bw.mean(axis=1, keepdims=True)
    nb = np.sqrt(np.sum(bd * bd, axis=1))
    if na == 0 or np.all(nb == 0):
        return (float("nan"), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = (bd @ ad) / (na * nb)
    ncc = np.where(nb > 0, ncc, 0.0)
    k = int(np.argmax(ncc))
    peak = float(ncc[k])
    frac = 0.0
    if 0 < k < ncc.size - 1:
        frac = float(_parabolic_offset(ncc[k - 1], ncc[k], ncc[k + 1]))
    center = (b.size - w) / 2.0
    return (k + frac - center, peak)


def track_delays(
    frame_a: BeamformedFrame, frame_b: BeamformedFrame, cfg: TrackConfig
) -> DelayMap:
    """Delay map between two beamformed frames of a transmit pair.

    Each node correlates an axial window of frame a with lagged windows
    of frame b. With lateral_window > 1 the dot products and energies
    of the columns around the node are summed before normalizing, a 2-D
    kernel that pools independent speckle columns. A node is valid when
    its peak NCC reaches min_ncc and the peak lies inside the search
    range: a peak at the first or last lag was not located.
    """
    if frame_a.grid != frame_b.grid:
        raise ValueError("frames must share the same grid")
    if frame_a.c_bf_used != frame_b.c_bf_used:
        raise ValueError("frames must share the same beamforming SoS")

    grid = frame_a.grid
    w = cfg.window_len
    r = cfg.search_radius
    h = cfg.lateral_window // 2
    nz, nx = frame_a.rf.shape
    z_first, z_last = r, nz - w - r
    if z_last < z_first:
        raise ValueError(
            f"grid depth ({nz} px) too small for window {w} + search {r}"
        )
    zs = np.arange(z_first, z_last + 1, cfg.axial_step)
    xs = np.arange(0, nx, cfg.lateral_step)
    lags = np.arange(-r, r + 1)
    n_nodes = zs.size
    nodes = np.arange(n_nodes)

    # per column: window energies of a and lagged dot products/energies
    # of b; only columns that some node's lateral window covers
    ea = np.zeros((nx, n_nodes))
    eb = np.zeros((nx, lags.size, n_nodes))
    dots = np.zeros((nx, lags.size, n_nodes))
    needed = np.zeros(nx, dtype=bool)
    for o in range(-h, h + 1):
        needed[np.clip(xs + o, 0, nx - 1)] = True
    for x in np.flatnonzero(needed):
        aw = sliding_window_view(frame_a.rf[:, x], w)
        bw = sliding_window_view(frame_b.rf[:, x], w)
        awd = aw - aw.mean(axis=1, keepdims=True)
        bwd = bw - bw.mean(axis=1, keepdims=True)
        a_sel = awd[zs]
        ea[x] = np.einsum("ij,ij->i", a_sel, a_sel)
        eb_all = np.einsum("ij,ij->i", bwd, bwd)
        for li, lag in enumerate(lags):
            rows = slice(z_first + lag, z_last + lag + 1, cfg.axial_step)
            dots[x, li] = np.einsum("ij,ij->i", a_sel, bwd[rows])
            eb[x, li] = eb_all[rows]

    delays = np.zeros((n_nodes, xs.size))
    nccs = np.zeros((n_nodes, xs.size))
    valid = np.zeros((n_nodes, xs.size), dtype=bool)
    for j, x in enumerate(xs):
        cols = slice(max(x - h, 0), min(x + h, nx - 1) + 1)
        na_sel = np.sqrt(ea[cols].sum(axis=0))
        denom = na_sel * np.sqrt(eb[cols].sum(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ncc_mat = np.where(denom > 0, dots[cols].sum(axis=0) / denom, 0.0)

        am = np.argmax(ncc_mat, axis=0)
        peak = ncc_mat[am, nodes]
        interior = (am > 0) & (am < lags.size - 1)
        cm1 = ncc_mat[np.maximum(am - 1, 0), nodes]
        cp1 = ncc_mat[np.minimum(am + 1, lags.size - 1), nodes]
        frac = np.where(interior, _parabolic_offset(cm1, peak, cp1), 0.0)
        lag_total = lags[am] + frac

        ok = (peak >= cfg.min_ncc) & (na_sel > 0) & interior
        # negated so the delay matches (1/c - 1/c_bf) * (d_a - d_b)
        delays[:, j] = np.where(
            ok, -lag_total * (2.0 * grid.dz / frame_a.c_bf_used), 0.0
        )
        nccs[:, j] = peak
        valid[:, j] = ok

    meas_grid = ImagingGrid(
        x0=grid.x0 + xs[0] * grid.dx,
        z0=grid.z0 + (zs[0] + (w - 1) / 2.0) * grid.dz,
        dx=grid.dx * cfg.lateral_step,
        dz=grid.dz * cfg.axial_step,
        nx=xs.size,
        nz=n_nodes,
    )
    return DelayMap(
        delays=delays,
        ncc=nccs,
        valid=valid,
        grid=meas_grid,
        frame_pair=(frame_a.tx_element, frame_b.tx_element),
    )


def export_delay_map(path: Path, dmap: DelayMap) -> None:
    """CSV dump (x, z, delay_s, ncc, valid), one row per node."""
    X, Z = dmap.grid.meshgrid()
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["x_m", "z_m", "delay_s", "ncc", "valid"])
        for iz in range(dmap.grid.nz):
            for ix in range(dmap.grid.nx):
                wr.writerow(
                    [
                        f"{X[iz, ix]:.6e}",
                        f"{Z[iz, ix]:.6e}",
                        f"{dmap.delays[iz, ix]:.9e}",
                        f"{dmap.ncc[iz, ix]:.6f}",
                        int(dmap.valid[iz, ix]),
                    ]
                )
