"""Delay-and-sum beamforming of diverging-wave frames.

Dynamic receive focusing with full aperture; the transmit
delay is measured from the single transmitting element with t = 0 at
the pulse center, so matched-SoS beamforming focuses scatterers at
their true positions and any residual constant offset cancels in the
differential delay measurements downstream.

Each receiver's pass over the image runs in das_rx of the package's
compiled library (see :mod:`soscorr.kernels`). It adds the same bytes
as the NumPy loop it stands beside: inside [0, ns - 1) the truncation
(int)s equals floor(s), and receivers are added to each pixel in
ascending order. Where the library does not load, the NumPy loop runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ImagingGrid, TransducerArray, element_position
from .kernels import LIBRARY
from .synthsim import ChannelFrame, SOS_MAX, SOS_MIN


APODIZATIONS = ("none", "hann")

# Sample-time table holds at most this many nx*nz images; one receiver adds
# at most nx distinct offsets, so a group of this many receivers fits.
TABLE_IMAGES = 16

# the compiled per-receiver pass of das_beamform; None runs the NumPy loop
KERNEL = None if LIBRARY is None else LIBRARY.das_rx


def das_kernel() -> str:
    """The per-receiver pass das_beamform runs: "compiled" or "numpy"."""
    return "numpy" if KERNEL is None else "compiled"


@dataclass(frozen=True)
class BFConfig:
    c_bf: float
    grid: ImagingGrid
    apodization: str = "none"  # one of APODIZATIONS

    def __post_init__(self):
        if not SOS_MIN <= self.c_bf <= SOS_MAX:
            raise ValueError(f"c_bf {self.c_bf} outside [{SOS_MIN}, {SOS_MAX}]")
        if self.apodization not in APODIZATIONS:
            raise ValueError(f"unknown apodization {self.apodization!r}")


@dataclass(frozen=True)
class BeamformedFrame:
    rf: np.ndarray  # (nz, nx)
    c_bf_used: float
    grid: ImagingGrid


def das_beamform(
    frame: ChannelFrame, array: TransducerArray, cfg: BFConfig
) -> BeamformedFrame:
    """Delay-and-sum with dynamic receive focusing.

    rf(p) = sum_rx a(rx) * interp(samples[rx], s(p, rx)) at the sample
    time s(p, rx) = (|p - tx| + |p - rx|) / c_bf * fs - t0 * fs. Linear
    interpolation; sample times outside [0, ns - 1) contribute zero.

    The arithmetic is in sample units, with k = fs / c_bf:
    s = |p - rx| k + (|p - tx| k - t0 fs). |p - e| depends only on
    |x_p - x_e| and z_p, so the receive leg is gathered from a table of
    hypot * k over the distinct lateral offsets of a group of
    receivers, and the transmit leg is computed once per frame. One
    group holds every receiver when their rows fit in TABLE_IMAGES
    images, as on every pipeline grid, and then the distinct offsets
    are found once. Images are built column by column, (nx, nz), so
    each gather reads a contiguous table row. With i0 = floor(s) and
    f = s - i0 a pixel reads diff[i0] * f + ch[i0] from a float64 copy
    of the channel and its difference row diff[i] = ch[i + 1] - ch[i].
    Each receiver's pass runs in KERNEL, the compiled das_rx, or in the
    NumPy loop when it is None. In the loop, float addition is
    monotone, so the smallest and largest table entry of a receiver's
    rows plus those of the transmit leg bound every s; only a receiver
    whose bound leaves [0, ns - 1) builds the mask of samples outside
    the record. The arithmetic per pixel and the receiver order of the
    sum do not depend on the kernel, the table or the bound.
    """
    if frame.num_rx != array.num_elements:
        raise ValueError(
            f"frame has {frame.num_rx} channels but array has "
            f"{array.num_elements} elements"
        )
    grid = cfg.grid
    xc = grid.x_coords()
    z = grid.z_coords()
    n_el = array.num_elements
    ns = frame.num_samples
    fs = frame.fs
    k = fs / cfg.c_bf
    tx_x, _ = element_position(array, frame.tx_element)
    s_tx = np.hypot(np.abs(xc - tx_x)[:, None], z[None, :])
    s_tx *= k
    s_tx -= frame.t0 * fs

    apod = np.hanning(n_el) if cfg.apodization == "hann" else None
    offsets = np.abs(xc[None, :] - array.element_x()[:, None])
    # the distinct offsets of all receivers: when their rows fit in the
    # table, one group holds every receiver and reuses them
    whole = np.unique(offsets, return_inverse=True)
    n_rows, group = whole[0].size, n_el
    if n_rows > TABLE_IMAGES * grid.nx:
        n_rows, group = TABLE_IMAGES * grid.nx, TABLE_IMAGES
    table = np.empty((n_rows, grid.nz))

    shape = (grid.nx, grid.nz)
    rf = np.zeros(shape)
    kernel = KERNEL
    if kernel is None:
        tx_lo, tx_hi = s_tx.min(), s_tx.max()
        s = np.empty(shape)
        val = np.empty(shape)
        idx = np.empty(shape, dtype=np.intp)
    ch = np.empty(ns)
    diff = np.zeros(ns)
    table_p, s_tx_p, ch_p, diff_p, rf_p = (
        a.ctypes.data for a in (table, s_tx, ch, diff, rf))
    for start in range(0, n_el, group):
        u, inv = whole if group == n_el else np.unique(
            offsets[start:start + group], return_inverse=True)
        inv = np.ascontiguousarray(inv.reshape(-1, grid.nx), dtype=np.int64)
        inv_p = inv.ctypes.data
        rows = table[:u.size]
        np.hypot(u[:, None], z[None, :], out=rows)
        rows *= k
        if kernel is None:
            row_lo, row_hi = rows.min(axis=1), rows.max(axis=1)
        for j, rx in enumerate(range(start, min(start + group, n_el))):
            ch[:] = frame.samples[rx]
            np.subtract(ch[1:], ch[:-1], out=diff[:-1])
            if kernel is not None:
                # v * 1.0 is v, so the unapodized gain changes no bit
                kernel(table_p, inv_p + j * inv.strides[0], s_tx_p,
                       ch_p, diff_p, ns, grid.nx, grid.nz,
                       1.0 if apod is None else apod[rx], rf_p)
                continue
            np.take(table, inv[j], axis=0, out=s, mode="clip")
            s += s_tx
            outside = None
            if (row_lo[inv[j]].min() + tx_lo < 0
                    or row_hi[inv[j]].max() + tx_hi >= ns - 1):
                outside = (s < 0) | (s >= ns - 1)
            # i0 = floor(s), and s becomes the fraction; wrapped indices
            # only occur where the sample is outside and masked below
            np.floor(s, out=val)
            np.copyto(idx, val, casting="unsafe")
            s -= val
            np.take(diff, idx, out=val, mode="wrap")
            val *= s
            np.take(ch, idx, out=s, mode="wrap")
            val += s
            if outside is not None:
                val[outside] = 0.0
            if apod is not None:
                val *= apod[rx]
            rf += val

    return BeamformedFrame(rf=np.ascontiguousarray(rf.T), c_bf_used=cfg.c_bf,
                           grid=grid)
