"""Delay-and-sum beamforming of diverging-wave frames.

Dynamic receive focusing with full aperture; the transmit
delay is measured from the single transmitting element with t = 0 at
the pulse center, so matched-SoS beamforming focuses scatterers at
their true positions and any residual constant offset cancels in the
differential delay measurements downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ImagingGrid, TransducerArray, element_position
from .synthsim import ChannelFrame, SOS_MAX, SOS_MIN


APODIZATIONS = ("none", "hann")

# Distance table holds at most this many nx*nz images; one receiver adds
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
    tx_element: int
    rf: np.ndarray  # (nz, nx)
    c_bf_used: float
    grid: ImagingGrid


def das_beamform(
    frame: ChannelFrame, array: TransducerArray, cfg: BFConfig
) -> BeamformedFrame:
    """Delay-and-sum with dynamic receive focusing.

    rf(p) = sum_rx a(rx) * interp(samples[rx], t(p, rx) * fs) with
    t(p, rx) = (|p - tx| + |p - rx|) / c_bf. Linear interpolation;
    out-of-range sample times contribute zero.

    |p - e| depends only on |x_p - x_e| and z_p, so the receive
    distances are gathered from a table of hypot over the distinct
    lateral offsets of a group of receivers. Images are built column
    by column, (nx, nz), so each gather is a contiguous row copy. The
    arithmetic per pixel and the receiver order of the sum are those of
    the direct formula, so the output does not depend on the table.
    """
    if frame.num_rx != array.num_elements:
        raise ValueError(
            f"frame has {frame.num_rx} channels but array has "
            f"{array.num_elements} elements"
        )
    grid = cfg.grid
    xc = grid.x_coords()
    z = grid.z_coords()
    tx_x, _ = element_position(array, frame.tx_element)
    d_tx = np.hypot(np.abs(xc - tx_x)[:, None], z[None, :])

    n_el = array.num_elements
    ns = frame.num_samples
    fs = frame.fs
    apod = np.hanning(n_el) if cfg.apodization == "hann" else None
    offsets = np.abs(xc[None, :] - array.element_x()[:, None])
    n_rows = np.unique(offsets).size
    group = n_el
    if n_rows > TABLE_IMAGES * grid.nx:
        n_rows, group = TABLE_IMAGES * grid.nx, TABLE_IMAGES
    table = np.empty((n_rows, grid.nz))

    shape = (grid.nx, grid.nz)
    rf = np.zeros(shape)
    s = np.empty(shape)
    fl = np.empty(shape)
    frac = np.empty(shape)
    val = np.empty(shape)
    g = np.empty(shape)
    idx = np.empty(shape, dtype=np.int64)
    for start in range(0, n_el, group):
        u, inv = np.unique(offsets[start:start + group], return_inverse=True)
        inv = inv.reshape(-1, grid.nx)
        np.hypot(u[:, None], z[None, :], out=table[:u.size])
        for k, rx in enumerate(range(start, min(start + group, n_el))):
            # s = ((d_tx + d_rx) / c_bf - t0) * fs, i0 = floor(s)
            np.take(table, inv[k], axis=0, out=s, mode="clip")
            np.add(d_tx, s, out=s)
            s /= cfg.c_bf
            s -= frame.t0
            s *= fs
            np.floor(s, out=fl)
            np.subtract(s, fl, out=frac)
            idx[...] = fl
            # (1 - frac) * ch[i0] + frac * ch[min(i0 + 1, ns - 1)]; clipped
            # indices only occur where the sample is masked to zero below
            ch = frame.samples[rx].astype(np.float64)
            np.take(ch, idx, out=g, mode="clip")
            np.subtract(1.0, frac, out=val)
            val *= g
            ch[:-1] = ch[1:]
            np.take(ch, idx, out=g, mode="clip")
            g *= frac
            val += g
            if fl.min() < 0 or fl.max() >= ns - 1:
                val[(fl < 0) | (fl >= ns - 1)] = 0.0
            if apod is not None:
                val *= apod[rx]
            rf += val

    return BeamformedFrame(
        tx_element=frame.tx_element, rf=np.ascontiguousarray(rf.T),
        c_bf_used=cfg.c_bf, grid=grid,
    )


def echo_shift_model(c: float, c_bf: float, d: float) -> float:
    """Analytic echo shift (1/c - 1/c_bf) * d in seconds.

    Reference model used by the tests; pairwise differences of this over
    two transmit paths give the differential delay between frames.
    """
    if c <= 0 or c_bf <= 0:
        raise ValueError("speeds must be positive")
    return (1.0 / c - 1.0 / c_bf) * d

