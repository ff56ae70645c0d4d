"""Delay-and-sum beamforming of diverging-wave frames.

Dynamic receive focusing with full aperture; the transmit
delay is measured from the single transmitting element with t = 0 at
the pulse center, so matched-SoS beamforming focuses scatterers at
their true positions and any residual constant offset cancels in the
differential delay measurements downstream.

A frame's receivers run in one call of kernels.DAS, the DAS pass that
:mod:`soscorr.kernels` picks, or one per group of TABLE_IMAGES
receivers: das_rx_avx512, 8 pixels a step, where the host has AVX-512F,
else the scalar das_rx. Each adds the same bytes as the NumPy loop it
stands beside: inside [0, ns - 1) the truncation (int)s equals
floor(s), and receivers are added to each pixel in ascending order.
Where DAS is None, as where the library does not load, the NumPy loop
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry import ImagingGrid, TransducerArray, element_position
from .synthsim import ChannelFrame, SOS_MAX, SOS_MIN


APODIZATIONS = ("none", "hann")

# Sample-time table holds at most this many nx*nz images; one receiver adds
# at most nx distinct offsets, so a group of this many receivers fits.
TABLE_IMAGES = 16

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


@dataclass(frozen=True)
class ReceiveTable:
    """The receive legs of every element over one grid: rows[inv[e, x]]
    is hypot(|x - x_e|, z) over the grid's depths z, one row per
    distinct lateral offset |x - x_e|. It depends on neither the
    transmit nor c_bf, so a caller that beamforms many frames, or one
    frame at many c_bf, builds it once (:func:`receive_table`) and
    passes it to each :func:`das_beamform`."""

    grid: ImagingGrid
    array: TransducerArray
    rows: np.ndarray  # (distinct offsets, nz), float64
    inv: np.ndarray  # (num_elements, nx), int64

    def __post_init__(self):
        # the compiled passes read both arrays through raw pointers
        rows, inv = self.rows, self.inv
        if not (rows.dtype == np.float64 and rows.ndim == 2
                and rows.shape[1] == self.grid.nz
                and rows.flags.c_contiguous):
            raise ValueError("table rows must be C-ordered float64 of "
                             "shape (offsets, grid.nz)")
        if not (inv.dtype == np.int64 and inv.flags.c_contiguous
                and inv.shape == (self.array.num_elements, self.grid.nx)
                and 0 <= inv.min() and inv.max() < rows.shape[0]):
            raise ValueError("table inv must be C-ordered int64 row "
                             "indices of shape (num_elements, grid.nx)")


def _offsets(array: TransducerArray, grid: ImagingGrid) -> np.ndarray:
    """|x - x_e| for every element e and grid column x, (n_el, nx)."""
    return np.abs(grid.x_coords()[None, :] - array.element_x()[:, None])


def receive_table(array: TransducerArray,
                  grid: ImagingGrid) -> ReceiveTable | None:
    """The grid's :class:`ReceiveTable`; None where its rows do not fit
    in TABLE_IMAGES images, and das_beamform then builds one table per
    group of TABLE_IMAGES receivers."""
    offsets = _offsets(array, grid)
    u, inv = np.unique(offsets, return_inverse=True)
    if u.size > TABLE_IMAGES * grid.nx:
        return None
    return ReceiveTable(
        grid=grid, array=array,
        rows=np.hypot(u[:, None], grid.z_coords()[None, :]),
        inv=inv.reshape(offsets.shape).astype(np.int64))


def das_beamform(
    frame: ChannelFrame, array: TransducerArray, cfg: BFConfig,
    table: ReceiveTable | None = None,
) -> BeamformedFrame:
    """Delay-and-sum with dynamic receive focusing.

    rf(p) = sum_rx a(rx) * interp(samples[rx], s(p, rx)) at the sample
    time s(p, rx) = (|p - tx| + |p - rx|) / c_bf * fs - t0 * fs. Linear
    interpolation; sample times outside [0, ns - 1) contribute zero.
    The samples must be float32, :class:`ChannelFrame`'s type.

    The arithmetic is in sample units, with k = fs / c_bf:
    s = |p - rx| k + (|p - tx| k - t0 fs). |p - e| depends only on
    |x_p - x_e| and z_p, so the receive leg is gathered from the rows
    of table, the grid's :class:`ReceiveTable`, and scaled by k per
    pixel; the transmit leg is computed once per frame. Without a table
    one is built for the frame, or, where its rows do not fit in
    TABLE_IMAGES images, one per group of TABLE_IMAGES receivers.
    Images are built column by column, (nx, nz), so each gather reads a
    contiguous table row. With i0 = floor(s) and f = s - i0 a pixel
    reads (c1 - c0) * f + c0, c0 and c1 being the samples i0 and
    i0 + 1 as float64. Each group runs in one call of kernels.DAS,
    read at call time: the compiled das_rx_avx512 where the host has
    AVX-512F, else das_rx, or the NumPy loop when it is None. The
    arithmetic per pixel and the receiver order of the sum do not
    depend on the pass or the table.
    """
    if frame.num_rx != array.num_elements:
        raise ValueError(
            f"frame has {frame.num_rx} channels but array has "
            f"{array.num_elements} elements"
        )
    if frame.samples.dtype != np.float32:
        raise ValueError(f"channel samples are {frame.samples.dtype}, "
                         f"not float32")
    grid = cfg.grid
    if table is None:
        table = receive_table(array, grid)
    elif (table.grid, table.array) != (grid, array):
        raise ValueError("the receive table was built for another grid "
                         "or array")
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
    # v * 1.0 is v, so the unapodized gain changes no bit
    gain = np.hanning(n_el) if cfg.apodization == "hann" else np.ones(n_el)
    samples = np.ascontiguousarray(frame.samples)

    shape = (grid.nx, grid.nz)
    rf = np.zeros(shape)
    kernel = kernels.DAS
    if kernel is None:
        s = np.empty(shape)
        val = np.empty(shape)
        idx = np.empty(shape, dtype=np.intp)
        ch = np.empty(ns)
        diff = np.zeros(ns)
    for start, rows, inv in _table_groups(array, grid, table):
        n = inv.shape[0]
        if kernel is not None:
            kernel(rows.ctypes.data, inv.ctypes.data, s_tx.ctypes.data, k,
                   samples[start].ctypes.data, ns, gain[start:].ctypes.data,
                   n, grid.nx, grid.nz, rf.ctypes.data)
            continue
        for j, rx in enumerate(range(start, start + n)):
            ch[:] = samples[rx]
            np.subtract(ch[1:], ch[:-1], out=diff[:-1])
            np.take(rows, inv[j], axis=0, out=s, mode="clip")
            s *= k
            s += s_tx
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
            val[outside] = 0.0
            if cfg.apodization == "hann":
                val *= gain[rx]
            rf += val

    return BeamformedFrame(rf=np.ascontiguousarray(rf.T), c_bf_used=cfg.c_bf,
                           grid=grid)


def _table_groups(array: TransducerArray, grid: ImagingGrid,
                  table: ReceiveTable | None):
    """(first receiver, rows, inv) of each receiver group: the whole
    table, or, without one, a table of TABLE_IMAGES receivers at a time
    in one buffer of TABLE_IMAGES images."""
    if table is not None:
        yield 0, table.rows, table.inv
        return
    offsets = _offsets(array, grid)
    z = grid.z_coords()
    buf = np.empty((TABLE_IMAGES * grid.nx, grid.nz))
    for start in range(0, array.num_elements, TABLE_IMAGES):
        u, inv = np.unique(offsets[start:start + TABLE_IMAGES],
                           return_inverse=True)
        rows = np.hypot(u[:, None], z[None, :], out=buf[:u.size])
        yield start, rows, np.ascontiguousarray(
            inv.reshape(-1, grid.nx), dtype=np.int64)
