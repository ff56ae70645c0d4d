"""Axial normalized-cross-correlation delay tracking between frames.

One kernel correlates every node, column and integer lag at once with
running sums, as in Lewis's fast normalized cross-correlation (Vision
Interface 1995): window sums and energies come from running sums down
each column; the dot products, one lag at a time, from a running sum
of the lagged products a[z] * b[z + lag] over blocks of
gcd(window_len, axial_step) rows; and the pooling over lateral_window
columns from a running sum across columns. The peak lag is refined by
a 3-point parabola. Tracked lags are converted to seconds through the
two-way axial time of the beamformed grid, and the sign is oriented so
that the reported delay equals the differential echo-shift model
(1/c - 1/c_bf) * (d_a - d_b) for a frame pair (a, b). Where
kernels.NCC is set, one compiled pass runs that NumPy arithmetic, in
its order, on frames of float64 rows and more than one column; the
NumPy code runs otherwise and defines the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
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


def _parabolic_offset(cm1, c0, cp1):
    """Subsample peak offset from three correlation samples."""
    denom = cm1 - 2.0 * c0 + cp1
    with np.errstate(divide="ignore", invalid="ignore"):
        off = 0.5 * (cm1 - cp1) / denom
    off = np.where(np.abs(denom) > 0, off, 0.0)
    return np.clip(off, -1.0, 1.0)


def _window_stats(rf: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and de-meaned energy of every w-sample window down each column.

    Both come from running sums, so each costs O(1) per window start.
    Returns two (nz - w + 1, nx) arrays indexed by window start.
    """
    head = np.zeros((1, rf.shape[1]))
    c1 = np.concatenate([head, np.cumsum(rf, axis=0)])
    c2 = np.concatenate([head, np.cumsum(rf * rf, axis=0)])
    sums = c1[w:] - c1[:-w]
    energy = (c2[w:] - c2[:-w]) - sums * sums / w
    # rounding can leave a flat window's energy a little below zero
    return sums, np.maximum(energy, 0.0)


def _pool_columns(q: np.ndarray, xs: np.ndarray, h: int) -> np.ndarray:
    """Sum of q over columns x-h..x+h, clipped to the grid, at each x in xs.

    Columns run along the last axis; the sums come from a running sum.
    With h = 0 pooling is the identity: the node columns are returned.
    """
    if h == 0:
        return q[..., xs]
    c = np.cumsum(q, axis=-1)
    c = np.concatenate([np.zeros(q.shape[:-1] + (1,)), c], axis=-1)
    hi = np.minimum(xs + h, q.shape[-1] - 1) + 1
    lo = np.maximum(xs - h, 0)
    return c[..., hi] - c[..., lo]


def _track(rf_a: np.ndarray, rf_b: np.ndarray, cfg: TrackConfig,
           zs: np.ndarray, xs: np.ndarray, scale: float):
    """(delays, peak NCC, valid) at the nodes zs and columns xs: the NumPy
    body of :func:`track_delays`, whose arithmetic the NCC pass keeps."""
    w = cfg.window_len
    r = cfg.search_radius
    h = cfg.lateral_window // 2
    # NCC does not see a column's mean; removing it keeps the running
    # sums small, so they lose no precision on a DC offset
    a, b = (rf - rf.mean(axis=0, dtype=float) for rf in (rf_a, rf_b))
    nx = a.shape[1]
    lags = np.arange(-r, r + 1)
    at_nodes = slice(r, zs[-1] + 1, cfg.axial_step)
    b_starts = zs[:, None] + lags  # (nodes, lags) windows of b

    sum_a, energy_a = _window_stats(a, w)
    sum_b, energy_b = _window_stats(b, w)
    # node n's dot at lag l is the window sum of a[z] * b[z + l], read
    # from a running sum over blocks of g rows (every window starts and
    # ends on a block edge), less mean_a * sum_b, which de-means the
    # window of a
    g = np.gcd(w, cfg.axial_step)
    n = zs[-1] + w - r  # rows the windows of a cover, from row r
    lo = (zs - r) // g
    hi = lo + w // g
    run = np.zeros((n // g + 1, nx))
    dots = np.empty((zs.size, lags.size, nx))
    for k, lag in enumerate(lags):
        prod = a[r:r + n] * b[r + lag:r + lag + n]
        np.cumsum(prod.reshape(-1, g, nx).sum(axis=1), axis=0, out=run[1:])
        dots[:, k] = run[hi] - run[lo]
    dots -= (sum_a[at_nodes] / w)[:, None, :] * sum_b[b_starts]

    # pooled over the lateral window: (nodes, lags, xs)
    ea = _pool_columns(energy_a[at_nodes], xs, h)[:, None, :]
    eb = _pool_columns(energy_b[b_starts], xs, h)
    denom = np.sqrt(ea) * np.sqrt(eb)
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 0, _pool_columns(dots, xs, h) / denom, 0.0)

    def ncc_at(k):
        k = np.clip(k, 0, lags.size - 1)[:, None]
        return np.take_along_axis(ncc, k, axis=1)[:, 0]

    am = np.argmax(ncc, axis=1)  # (nodes, xs)
    peak = ncc_at(am)
    interior = (am > 0) & (am < lags.size - 1)
    frac = np.where(
        interior, _parabolic_offset(ncc_at(am - 1), peak, ncc_at(am + 1)), 0.0
    )
    valid = (peak >= cfg.min_ncc) & (ea[:, 0] > 0) & interior
    # negated so the delay matches (1/c - 1/c_bf) * (d_a - d_b)
    delays = np.where(valid, -(lags[am] + frac) * scale, 0.0)
    return delays, peak, valid


def track_delays(
    frame_a: BeamformedFrame, frame_b: BeamformedFrame, cfg: TrackConfig
) -> DelayMap:
    """Delay map between two beamformed frames of a transmit pair.

    Each node correlates an axial window of frame a with lagged windows
    of frame b. With lateral_window > 1 the dot products and energies
    of the columns around the node are summed before normalizing, a 2-D
    kernel that pools independent speckle columns. A node is valid when
    its window of a has energy, its peak NCC reaches min_ncc and the
    peak lies inside the search range: a peak at the first or last lag
    was not located.
    """
    if frame_a.grid != frame_b.grid:
        raise ValueError("frames must share the same grid")
    if frame_a.c_bf_used != frame_b.c_bf_used:
        raise ValueError("frames must share the same beamforming SoS")

    grid = frame_a.grid
    w = cfg.window_len
    r = cfg.search_radius
    nz, nx = frame_a.rf.shape
    z_last = nz - w - r
    if z_last < r:
        raise ValueError(
            f"grid depth ({nz} px) too small for window {w} + search {r}"
        )
    # node n's window of a starts at zs[n] = r + n * axial_step
    zs = np.arange(r, z_last + 1, cfg.axial_step)
    xs = np.arange(0, nx, cfg.lateral_step)
    scale = 2.0 * grid.dz / frame_a.c_bf_used
    kernel = kernels.NCC
    # one column makes NumPy's column sums pairwise, which the pass's
    # running sums are not
    if kernel is not None and nx > 1 and frame_b.rf.shape == (nz, nx) \
            and all(f.rf.dtype == np.float64 and f.rf.flags.c_contiguous
                    for f in (frame_a, frame_b)):
        shape = (zs.size, xs.size)
        delays, peak = np.empty(shape), np.empty(shape)
        valid = np.empty(shape, dtype=bool)
        args = [frame_a.rf.ctypes.data, frame_b.rf.ctypes.data, nz, nx, w,
                r, cfg.axial_step, cfg.lateral_step, cfg.lateral_window // 2,
                cfg.min_ncc, scale]
        outputs = [a.ctypes.data for a in (delays, peak, valid)]
        work = np.zeros(kernel(*args, None, *outputs))
        kernel(*args, work.ctypes.data, *outputs)
    else:
        delays, peak, valid = _track(frame_a.rf, frame_b.rf, cfg, zs, xs,
                                     scale)

    meas_grid = ImagingGrid(
        x0=grid.x0 + xs[0] * grid.dx,
        z0=grid.z0 + (zs[0] + (w - 1) / 2.0) * grid.dz,
        dx=grid.dx * cfg.lateral_step,
        dz=grid.dz * cfg.axial_step,
        nx=xs.size,
        nz=zs.size,
    )
    return DelayMap(delays=delays, ncc=peak, valid=valid, grid=meas_grid)
