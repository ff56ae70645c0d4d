"""Geometric ray-based forward simulator for diverging-wave channel data.

Scatterer echoes are delayed by straight-ray travel times through a
piecewise-constant speed-of-sound map. The times are exact chord
lengths through each inclusion, so the simulator is the exact forward
model of the straight-path delay equations the rest of the pipeline
relies on. The transmit pulse is read from a table oversampled
PULSE_TABLE_STEPS times per sample. No diffraction, refraction or
attenuation.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .geometry import ImagingGrid, TransducerArray, element_position, slab_clip

SOS_MIN = 1300.0
SOS_MAX = 1700.0

FRAME_MAGIC = b"SOSC"
FRAME_VERSION = 1
# a MANIFEST.txt [frames] line, as write_frame_set writes it
MANIFEST_FRAME = re.compile(r"(\S+)\s+tx=(\d+)\s+sha256_16=([0-9a-f]{16})")

# spreading floor: below this radius the 1/(r_tx*r_rx) factor is clamped
R_MIN = 1.0e-3

# rays traced per block in travel_times: with one inclusion a block's
# (cuts x rays) arrays are 4 x 8192 x 8 B = 256 KB each, so its working
# set stays within a 2 MB per-core L2 cache
TRACE_CHUNK = 1 << 13

# pulse table rows per sample period: simulate_frame interpolates the
# pulse linearly between rows, within 1e-7 of its peak at the default pulse
PULSE_TABLE_STEPS = 256

def thread_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], run on `threads` threads, the
    calling one included: min(threads, len(items)) - 1 are started.

    At one thread, or one item, the loop runs inline and no thread is
    started. Each thread takes the next item from one locked counter,
    so work is spread as it finishes, and results keep the order of
    items. After a failure no thread starts another item; the failure
    of the lowest-numbered item is raised here, as a loop would.
    """
    items = list(items)
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failed = {}
    lock = threading.Lock()
    counter = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if failed else next(counter, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failed[i] = exc

    started = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in started:
        t.start()
    work()
    for t in started:
        t.join()
    if failed:
        raise failed[min(failed)]
    return results


def _blocks(n: int, threads: int) -> list[np.ndarray]:
    """range(n) split into contiguous blocks, one per thread."""
    return np.array_split(np.arange(n), min(threads, n))


@dataclass(frozen=True)
class Inclusion:
    """Elliptical or rectangular SoS inclusion."""

    shape: str  # "ellipse" | "rectangle"
    center: tuple[float, float]
    half_axes: tuple[float, float]  # (hx, hz); half sizes for rectangles
    sos: float

    def __post_init__(self):
        if self.shape not in ("ellipse", "rectangle"):
            raise ValueError(f"unknown inclusion shape {self.shape!r}")
        if not SOS_MIN <= self.sos <= SOS_MAX:
            raise ValueError(f"inclusion sos {self.sos} outside sanity band")
        if not all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        if not all(0 < h < np.inf for h in self.half_axes):
            raise ValueError("half_axes must be finite and positive")

    def contains(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        cx, cz = self.center
        hx, hz = self.half_axes
        if self.shape == "ellipse":
            return ((x - cx) / hx) ** 2 + ((z - cz) / hz) ** 2 <= 1.0
        return (np.abs(x - cx) <= hx) & (np.abs(z - cz) <= hz)

    def crossing(
        self, p: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ray parameters (t_in, t_out), each a row of shape (n,), between
        which the points p + t*d of the rays lie inside the inclusion;
        p and d hold the rays' x and z as rows, shape (2, n).

        t_in >= t_out when a ray's line misses it; t may lie outside
        [0, 1]. An ellipse solves the line-ellipse quadratic, a
        rectangle is the box of :func:`~soscorr.geometry.slab_clip`.
        """
        cx, cz = self.center
        hx, hz = self.half_axes
        if self.shape == "ellipse":
            u, v = (p[0] - cx) / hx, (p[1] - cz) / hz
            du, dv = d[0] / hx, d[1] / hz
            a = du**2 + dv**2
            b = u * du + v * dv
            root = np.sqrt(np.maximum(b**2 - a * (u**2 + v**2 - 1.0), 0.0))
            # a is 0 only for a zero-length ray, whose cuts fall at t = 0
            a = np.where(a > 0.0, a, np.inf)
            return (-b - root) / a, (-b + root) / a
        # on the edge counts as inside, as in contains
        return slab_clip(p.T, d.T, (cx - hx, cz - hz), (cx + hx, cz + hz))

    def trace_fields(self) -> list[float]:
        """The inclusion as trace_rays reads it (kernels.c's INC_*
        order): 1 for an ellipse else 0, the centre, the half axes, the
        SoS, and the corners crossing gives slab_clip."""
        (cx, cz), (hx, hz) = self.center, self.half_axes
        return [float(self.shape == "ellipse"), cx, cz, hx, hz, self.sos,
                cx - hx, cz - hz, cx + hx, cz + hz]


@dataclass(frozen=True)
class MediumSpec:
    """Piecewise-constant SoS medium: background plus ordered inclusions.

    When inclusions overlap, the last one listed wins at that point.
    The grid fixes the bounds that travel-time end points must lie in.
    """

    background_sos: float
    grid: ImagingGrid
    inclusions: tuple[Inclusion, ...] = ()

    def __post_init__(self):
        if not SOS_MIN <= self.background_sos <= SOS_MAX:
            raise ValueError(
                f"background sos {self.background_sos} outside sanity band"
            )

    @property
    def is_homogeneous(self) -> bool:
        return len(self.inclusions) == 0

    def sos_at(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """SoS sampled at arbitrary points (vectorized)."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        c = np.full(np.broadcast(x, z).shape, self.background_sos)
        for inc in self.inclusions:
            c[inc.contains(x, z)] = inc.sos
        return c

    def rasterize(self, grid: ImagingGrid) -> np.ndarray:
        """Ground-truth SoS map on the grid's pixel centers, shape (nz, nx)."""
        X, Z = grid.meshgrid()
        return self.sos_at(X, Z)

    def describe(self) -> str:
        lines = [f"background_sos {self.background_sos!r}"]
        for inc in self.inclusions:
            lines.append(
                f"inclusion {inc.shape} center {inc.center[0]!r} {inc.center[1]!r} "
                f"half_axes {inc.half_axes[0]!r} {inc.half_axes[1]!r} sos {inc.sos!r}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian-windowed sinusoid transmit pulse."""

    center_frequency: float = 5.0e6
    half_cycles: int = 4
    sampling_frequency: float = 1.6e8

    def __post_init__(self):
        if not 0 < self.center_frequency < np.inf:
            raise ValueError("center_frequency must be finite and > 0")
        if not 10 * self.center_frequency <= self.sampling_frequency < np.inf:
            raise ValueError("sampling_frequency must be finite and >= 10x "
                             "center_frequency")
        if self.half_cycles < 1:
            raise ValueError("half_cycles must be >= 1")

    @property
    def duration(self) -> float:
        return self.half_cycles / (2.0 * self.center_frequency)

    @property
    def envelope_sigma(self) -> float:
        return self.duration / 4.0

    @property
    def support_halfwidth(self) -> float:
        """Time beyond which the pulse is treated as zero (4 sigma)."""
        return 4.0 * self.envelope_sigma

    def waveform(self, t: np.ndarray) -> np.ndarray:
        """Pulse amplitude at times t (seconds, centered on 0)."""
        t = np.asarray(t, dtype=float)
        env = np.exp(-0.5 * (t / self.envelope_sigma) ** 2)
        return env * np.sin(2.0 * np.pi * self.center_frequency * t)


@dataclass(frozen=True)
class ScattererField:
    """Random point scatterers with unit-variance amplitudes."""

    positions: np.ndarray  # (n, 2) meters
    amplitudes: np.ndarray  # (n,)


@dataclass(frozen=True)
class ChannelFrame:
    """Raw RF channel data for one single-element transmit."""

    tx_element: int
    samples: np.ndarray  # (num_rx, num_samples) float32
    t0: float
    fs: float

    @property
    def num_rx(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


def gen_scatterers(grid: ImagingGrid, density: float, seed: int) -> ScattererField:
    """Uniform random scatterers over the grid extent.

    density is in scatterers per mm^2; the count is round(density * area).
    Same seed and config give a bit-identical field.
    """
    if not density > 0:
        raise ValueError("density must be > 0")
    count = int(round(density * grid.extent_area_mm2))
    rng = np.random.default_rng(seed)
    x = rng.uniform(grid.x_min, grid.x_max, size=count)
    z = rng.uniform(grid.z_min, grid.z_max, size=count)
    amp = rng.standard_normal(count)
    return ScattererField(positions=np.column_stack([x, z]), amplitudes=amp)


def _check_bounds(points: np.ndarray, medium: MediumSpec) -> None:
    g = medium.grid
    wx = g.x_max - g.x_min
    wz = g.z_max - g.z_min
    lo_x, hi_x = g.x_min - wx / 2, g.x_max + wx / 2
    lo_z, hi_z = g.z_min - wz, g.z_max + wz
    x = points[..., 0]
    z = points[..., 1]
    # written so that a NaN coordinate fails too
    if not (
        np.all((x >= lo_x) & (x <= hi_x))
        and np.all((z >= min(lo_z, -1e-9)) & (z <= hi_z))
    ):
        raise ValueError("point outside 2x imaging extent")


def travel_times(
    p_from: np.ndarray,
    p_to: np.ndarray,
    medium: MediumSpec,
    *,
    threads: int = 1,
    lengths: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Straight-ray travel time(s) between point pairs, in seconds.

    Exact for the piecewise-constant medium: each ray is cut at the
    points where it enters and leaves every inclusion (Siddon 1985),
    and each piece between two cuts is charged the slowness at its
    midpoint, so overlapping inclusions resolve as in
    :meth:`MediumSpec.sos_at` (the last one listed wins). Broadcasts
    over leading dimensions of (..., 2) point arrays. For homogeneous
    media the integral collapses to distance / c. Rays are traced in
    blocks of at most TRACE_CHUNK, shared among `threads` threads, the
    calling one included (threads - 1 are started; see
    :func:`thread_map`); each block writes its own slice of the one
    output table and each ray has its own arithmetic, so the times
    depend neither on the block size nor on the thread count. With
    lengths, returns (times, lengths), the second the rays' lengths,
    the np.hypot of each ray's end point minus its start.

    NumPy takes each block's end points and lengths; the cuts, their
    order and the pieces run in kernels.TRACE, the compiled trace, read
    at call time, which holds no GIL, or, where it is None, in a NumPy
    block of the same arithmetic. Both give the same bytes.
    """
    p_from = np.atleast_2d(np.asarray(p_from, dtype=float))
    p_to = np.atleast_2d(np.asarray(p_to, dtype=float))
    # checked before broadcasting, once per given point
    _check_bounds(p_from, medium)
    _check_bounds(p_to, medium)
    shape = np.broadcast_shapes(p_from.shape, p_to.shape)
    # rays as a (rows, columns) table over the last leading axis: a view
    # for the one- and two-axis tables the package traces
    p_from = np.broadcast_to(p_from, shape).reshape(-1, shape[-2], 2)
    p_to = np.broadcast_to(p_to, shape).reshape(-1, shape[-2], 2)
    out = np.empty(p_from.shape[:2])
    dist_out = np.empty(out.shape) if lengths else None
    kernel = None if medium.is_homogeneous else kernels.TRACE
    if kernel is not None:
        fields = np.array([inc.trace_fields() for inc in medium.inclusions])

    # each block copies its own end points as (2, rays) rows of x and z,
    # so nothing of the table's size but out is allocated
    def trace(block):
        p = np.ascontiguousarray(
            np.moveaxis(p_from[block], -1, 0).reshape(2, -1))
        d = np.moveaxis(p_to[block], -1, 0).reshape(2, -1) - p
        dist = np.hypot(d[0], d[1])
        if dist_out is not None:
            dist_out[block] = dist.reshape(dist_out[block].shape)
        if medium.is_homogeneous:
            times = dist / medium.background_sos
        elif kernel is not None:
            times = np.empty(dist.size)
            # a column of 8 lanes per cut, as the vector pass needs
            cuts = np.empty((2 + 2 * len(fields), 8))
            kernel(p.ctypes.data, d.ctypes.data, dist.ctypes.data, dist.size,
                   fields.ctypes.data, len(fields), medium.background_sos,
                   cuts.ctypes.data, times.ctypes.data)
        else:
            # one row of cuts per ray end and inclusion boundary
            t = np.empty((2 + 2 * len(medium.inclusions), dist.size))
            t[0], t[-1] = 0.0, 1.0
            for k, inc in enumerate(medium.inclusions):
                t[1 + 2 * k], t[2 + 2 * k] = inc.crossing(p, d)
            # cuts outside the ray clip to its ends, where they are harmless
            inner = np.clip(t[1:-1], 0.0, 1.0, out=t[1:-1])
            _sort_rows(inner)
            mid = 0.5 * (t[1:] + t[:-1])
            c = medium.sos_at(p[0] + d[0] * mid, p[1] + d[1] * mid)
            # each ray's pieces added one after another, in order along
            # it: np.sum may add 8 or more rows pairwise, and picks its
            # order by the block's shape
            pieces = np.diff(t, axis=0) / c
            times = pieces[0]
            for piece in pieces[1:]:
                times += piece
            times *= dist
        out[block] = times.reshape(out[block].shape)

    thread_map(trace, _ray_blocks(*out.shape), threads)
    if lengths:
        return out.reshape(shape[:-1]), dist_out.reshape(shape[:-1])
    return out.reshape(shape[:-1])


def _sort_rows(t: np.ndarray) -> None:
    """Sort each column of t in place: an odd-even transposition network
    of row minima and maxima, t.shape[0] rounds (Knuth, TAOCP vol. 3,
    5.3.4), each a whole-row pass."""
    for r in range(t.shape[0]):
        for i in range(r % 2, t.shape[0] - 1, 2):
            low = np.minimum(t[i], t[i + 1])
            np.maximum(t[i], t[i + 1], out=t[i + 1])
            t[i] = low


def _ray_blocks(rows: int, cols: int):
    """Slices of a (rows, cols) ray table into blocks of at most
    TRACE_CHUNK rays: whole rows, or pieces of one row."""
    width = max(min(cols, TRACE_CHUNK), 1)
    height = TRACE_CHUNK // width
    for r0 in range(0, rows, height):
        for c0 in range(0, cols, width):
            yield np.s_[r0:r0 + height, c0:c0 + width]


def _samples_needed(
    t_tx: np.ndarray, s: np.ndarray, pulse: PulseSpec, array: TransducerArray
) -> int:
    """Record length, in samples from t = 0, that holds every two-way
    echo of the scatterers at s, given the transmit leg's travel times
    t_tx to them: the receive leg to the farthest element at SOS_MIN,
    plus the pulse's half-width."""
    ex = array.element_x()
    # farthest receive element bounds the two-way time; a rounded
    # difference is monotone in the element's x, so its largest size
    # over the array is at one of the two end elements
    d_rx_max = np.hypot(np.maximum(np.abs(s[:, 0] - ex.min()),
                                   np.abs(s[:, 0] - ex.max())), s[:, 1])
    t_max = float(np.max(t_tx + d_rx_max / SOS_MIN))
    return int(np.ceil((t_max + pulse.support_halfwidth) * pulse.sampling_frequency)) + 1


def receive_travel_times(
    field: ScattererField,
    medium: MediumSpec,
    array: TransducerArray,
    threads: int = 1,
    *,
    lengths: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Scatterer-to-element travel times, shape (num_elements, n).

    One broadcast :func:`travel_times` call on `threads` threads, the
    calling one included; threads - 1 are started.
    Each ray is traced on its own, so the table equals a per-element
    loop of calls byte for byte, whatever the thread count. With
    lengths, returns (times, distances), the second the table of ray
    lengths, which :func:`simulate_frame` takes as r_rx.
    """
    ex = array.element_x()
    rx = np.column_stack([ex, np.zeros_like(ex)])
    return travel_times(field.positions[None, :, :], rx[:, None, :], medium,
                        threads=threads, lengths=lengths)


def _outside_the_record(rx: int) -> ValueError:
    return ValueError(f"receive channel {rx}: an echo lies outside the "
                      "record; check t_rx")


def _element_directivity(
    dx: np.ndarray, r: np.ndarray, width: float, wavelength: float
) -> np.ndarray:
    """Soft directivity of a finite-width element: sinc(w sin/lambda) cos.

    The sinc null at grazing incidence is what keeps the lambda-pitch
    array from flooding the images with grating-lobe energy.
    """
    sin_t = np.abs(dx) / np.maximum(r, 1e-9)
    cos_t = np.sqrt(np.maximum(1.0 - sin_t**2, 0.0))
    return np.sinc(width * sin_t / wavelength) * cos_t


def simulate_frame(
    tx: int,
    field: ScattererField,
    medium: MediumSpec,
    pulse: PulseSpec,
    array: TransducerArray,
    noise_snr_db: float | None = None,
    noise_seed: int = 0,
    t_rx: np.ndarray | None = None,
    threads: int = 1,
    *,
    r_rx: np.ndarray | None = None,
) -> ChannelFrame:
    """Channel data for one diverging-wave transmit.

    Each scatterer contributes a delayed copy of the pulse on every
    receive channel, weighted by its amplitude, geometric spreading
    1/max(r_tx*r_rx, R_MIN^2), and the finite-element
    directivity of both the Tx and Rx elements with an effective
    element width of one pitch. Deterministic given the field;
    optional additive white Gaussian noise at the given finite SNR (in
    dB over the clean frame power). t_rx, shape (num_rx, n_scatterers),
    holds the receive travel times from :func:`receive_travel_times`,
    and r_rx the receive distances it gives with lengths; they do not
    depend on the transmit, so a caller simulating several transmits of
    one field builds them once. Without r_rx the distances are taken
    per group of receivers, by the same np.hypot.

    The record starts at t = 0 and ends where this transmit's latest
    echo can end: the transmit leg, already traced for the echo times,
    plus the receive leg to the farthest element at SOS_MIN and the
    pulse's half-width (:func:`_samples_needed`). An empty field gives
    one sample. So the frames of one field may differ in length, each
    as long as its own transmit needs. The receive channels are
    split into contiguous blocks, one per thread: `threads` threads,
    the calling one included, so threads - 1 are started. Each channel
    is computed the same way whatever the thread count, so the frame
    does not depend on it.

    Each channel sums, for every scatterer in order, its pulse: the two
    rows of the pulse table T around its echo time, weighted a and b,
    a T[row] + b T[row + 1], added with bincount into a float64 record
    padded by the pulse's half-width on both sides, so a pulse cut at
    either end of the record keeps its in-record part and the padding
    is dropped. That NumPy loop, one receiver at a time, runs where
    kernels.SYNTH is None and defines the frame's bytes. Elsewhere
    NumPy takes the receive directivities, whose sinc needs np.sin, as
    whole arrays over a few receivers at a time; the rest of a channel,
    from the spreading and the rounded echo times to the pulse sum,
    runs in kernels.SYNTH, the compiled synth_rx, which holds no GIL,
    adds the same terms in the same order into each thread's one zeroed
    padded record, and so gives the same bytes; the sine arguments come
    from kernels.SINC, rx_sinc. Both are read at call time.
    An echo centre outside the record, which a caller's t_rx can place
    there, is a ValueError naming the channel. r_rx without t_rx is a
    ValueError too: the traced distances would replace it.
    """
    if not 0 <= tx < array.num_elements:
        raise ValueError(f"tx element {tx} out of range")
    if noise_snr_db is not None and not np.isfinite(noise_snr_db):
        raise ValueError(f"noise_snr_db must be finite, got {noise_snr_db}")
    if r_rx is not None and t_rx is None:
        raise ValueError("r_rx given without t_rx: pass both, or neither "
                         "to trace them")
    fs = pulse.sampling_frequency
    s = field.positions
    n_sc = s.shape[0]
    # each receiver's float64 row is cast as it is stored, as a cast of
    # the whole frame would round it; the noise power needs float64
    dtype = np.float32 if noise_snr_db is None else np.float64
    samples = np.zeros((array.num_elements, 1), dtype=dtype)

    if n_sc > 0:
        tx_pos = np.array(element_position(array, tx))
        t_tx, r_tx = travel_times(tx_pos[None, :], s, medium, lengths=True)
        num_samples = _samples_needed(t_tx, s, pulse, array)
        samples = np.zeros((array.num_elements, num_samples), dtype=dtype)
        wavelength = medium.background_sos / pulse.center_frequency
        d_tx = _element_directivity(
            s[:, 0] - tx_pos[0], r_tx, array.pitch, wavelength
        )

        half = int(np.ceil(pulse.support_halfwidth * fs))
        offs = np.arange(-half, half + 1, dtype=np.int32)
        # the pulse is read at offs + (k0 - t*fs) samples, with that
        # fraction in [-1/2, 1/2]: tabulate it once on a fine fraction grid
        steps = PULSE_TABLE_STEPS
        frac = np.arange(steps + 1) / steps - 0.5
        table = pulse.waveform((offs[None, :] + frac[:, None]) / fs)
        ex = array.element_x()
        if t_rx is None:
            t_rx, r_rx = receive_travel_times(field, medium, array, threads,
                                              lengths=True)
        # the compiled pass reads the tables' rows through raw pointers
        t_rx = np.ascontiguousarray(t_rx, dtype=float)
        if r_rx is not None:
            r_rx = np.ascontiguousarray(r_rx, dtype=float)
        for name, t in (("t_rx", t_rx), ("r_rx", r_rx)):
            if t is not None and t.shape != (array.num_elements, n_sc):
                raise ValueError(f"{name} has shape {t.shape}, not "
                                 f"{(array.num_elements, n_sc)}")
        kernel = kernels.SYNTH
        padded = num_samples + 2 * half
        # receivers whose distances and directivities NumPy takes in one
        # array, a few TRACE_CHUNK-sized blocks
        group = max(1, TRACE_CHUNK // n_sc)
        if kernel is not None:
            sinc_args = kernels.SINC
            sx = np.ascontiguousarray(s[:, 0])
            amp = np.ascontiguousarray(field.amplitudes, dtype=float)
            # the table, then each scatterer's amplitude and transmit leg
            fixed = [table.ctypes.data, offs.size, steps,
                     *(a.ctypes.data for a in (amp, r_tx, d_tx, t_tx))]
            row_bytes = 8 * n_sc

        def receive(block):
            if kernel is not None:
                # the thread's padded record, and its group's sines,
                # sine arguments and cosines of the receive directivity
                rec = np.empty(padded)
                sinc = np.empty((3, group, n_sc))
                sin_y, y, cos_t = (a.ctypes.data for a in sinc)
            else:
                # the thread's (scatterers, pulse) padded-record indices,
                # and its lower-row and upper-row pulse values
                idx = np.empty((n_sc, offs.size), dtype=np.intp)
                vals, upper = np.empty((2, n_sc, offs.size))
            for start in range(block[0], block[-1] + 1, group):
                rows = slice(start, min(start + group, block[-1] + 1))
                n_rows = rows.stop - rows.start
                r = (np.hypot(s[:, 0] - ex[rows, None], s[:, 1])
                     if r_rx is None else r_rx[rows])
                if kernel is not None:
                    sinc_args(sx.ctypes.data, ex[rows].ctypes.data,
                              r.ctypes.data, n_rows, n_sc, array.pitch,
                              wavelength, np.pi, np.finfo(float).eps, y,
                              cos_t)
                    np.sin(sinc[1, :n_rows], out=sinc[0, :n_rows])
                    for i, rx in enumerate(range(rows.start, rows.stop)):
                        rec.fill(0.0)
                        if kernel(*fixed, t_rx.ctypes.data + rx * row_bytes,
                                  *(a + i * row_bytes
                                    for a in (r.ctypes.data, sin_y, y, cos_t)),
                                  n_sc, fs, R_MIN**2, num_samples,
                                  rec.ctypes.data):
                            raise _outside_the_record(rx)
                        samples[rx] = rec[half:half + num_samples]
                    continue
                d_rx = _element_directivity(s[:, 0] - ex[rows, None], r,
                                            array.pitch, wavelength)
                for i, rx in enumerate(range(rows.start, rows.stop)):
                    spreading = 1.0 / np.maximum(r_tx * r[i], R_MIN**2) * d_tx
                    spreading *= d_rx[i]
                    k_exact = (t_tx + t_rx[rx]) * fs
                    k0 = np.rint(k_exact)
                    # a NaN time fails this test too
                    if not (k0.min() >= 0 and k0.max() < num_samples):
                        raise _outside_the_record(rx)
                    pos = (k0 - k_exact + 0.5) * steps
                    row = np.minimum(pos.astype(np.intp), steps - 1)
                    w = pos - row
                    weight = field.amplitudes * spreading
                    # the pulse interpolated linearly between table rows;
                    # "clip" gathers in place, where "raise" copies through
                    # a buffer, and clips nothing, as row + 1 <= steps
                    np.take(table, row, axis=0, out=vals, mode="clip")
                    vals *= (weight * (1.0 - w))[:, None]
                    np.take(table, row + 1, axis=0, out=upper, mode="clip")
                    upper *= (weight * w)[:, None]
                    vals += upper
                    # added over the padded record in scatterer order
                    np.add((k0.astype(np.intp) + half)[:, None], offs,
                           out=idx)
                    samples[rx] = np.bincount(
                        idx.ravel(), weights=vals.ravel(),
                        minlength=padded)[half:half + num_samples]

        # each thread writes its own rows of samples
        thread_map(receive, _blocks(array.num_elements, threads), threads)

    if noise_snr_db is not None:
        power = float(np.mean(samples**2))
        if power > 0:
            sigma = np.sqrt(power / 10.0 ** (noise_snr_db / 10.0))
            rng = np.random.default_rng(noise_seed)
            samples += rng.normal(0.0, sigma, size=samples.shape)

    return ChannelFrame(tx_element=tx, t0=0.0, fs=fs,
                        samples=samples.astype(np.float32, copy=False))


# ---------------------------------------------------------------------------
# frame set IO: one binary file per frame plus a plain-text manifest


def frame_filename(tx: int) -> str:
    return f"frame_tx{tx:03d}.sosc"


def write_frame(path: Path, frame: ChannelFrame) -> str:
    """Write frame to path as one .sosc file: the header, then the
    sample array's own buffer. Returns the sha256_16 digest of the
    bytes written, hashed from those two buffers."""
    header = FRAME_MAGIC + struct.pack(
        "<HHIIdd", FRAME_VERSION, frame.tx_element, frame.num_rx,
        frame.num_samples, frame.fs, frame.t0)
    samples = np.ascontiguousarray(frame.samples, dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        f.write(samples)
    digest = hashlib.sha256(header)
    digest.update(samples)
    return digest.hexdigest()[:16]


def read_frame(path: Path) -> tuple[ChannelFrame, str]:
    """The frame a .sosc file holds, and the sha256_16 digest of its
    bytes, hashed from the header and the array the payload is read
    into; path names the file in errors."""
    off = 4 + struct.calcsize("<HHIIdd")
    with open(path, "rb") as f:
        header = f.read(off)
        if header[:4] != FRAME_MAGIC:
            raise ValueError(f"{path}: not a SOSC frame file")
        if len(header) < off:
            raise ValueError(f"{path}: truncated frame header")
        version, tx, num_rx, num_samples, fs, t0 = struct.unpack_from(
            "<HHIIdd", header, 4)
        if version != FRAME_VERSION:
            raise ValueError(f"{path}: unsupported frame version {version}")
        # a NaN fs or t0 fails these comparisons too
        if not (0 < fs < np.inf and -np.inf < t0 < np.inf):
            raise ValueError(f"{path}: header has fs {fs} and t0 {t0}; fs "
                             "must be finite and > 0, and t0 finite")
        size = num_rx * num_samples * 4
        payload = os.fstat(f.fileno()).st_size - off
        if payload != size:
            raise ValueError(
                f"{path}: payload has {payload} bytes, header needs "
                f"{num_rx} x {num_samples} float32 = {size}"
            )
        samples = np.empty((num_rx, num_samples), dtype="<f4")
        f.readinto(samples)
    digest = hashlib.sha256(header)
    digest.update(samples)
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: frame has non-finite samples")
    frame = ChannelFrame(tx_element=tx, samples=samples, t0=t0, fs=fs)
    return frame, digest.hexdigest()[:16]


def write_frame_set(
    out_dir: Path, frames: Iterable[ChannelFrame], medium: MediumSpec
) -> None:
    """Frame directory: one .sosc file per transmit plus MANIFEST.txt.

    Each frame is written and hashed as it is taken from frames, so a
    generator of frames is never held whole."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["soscorr frame set v1", "", "[frames]"]
    for fr in frames:
        name = frame_filename(fr.tx_element)
        digest = write_frame(out / name, fr)
        lines.append(f"{name} tx={fr.tx_element} sha256_16={digest}")
        del fr  # not held while the next frame is simulated
    lines += ["", "[medium]", medium.describe(), ""]
    (out / "MANIFEST.txt").write_text("\n".join(lines))


def listed_frames(in_dir: Path, txs=None) -> dict[int, str]:
    """The sha256_16 digest MANIFEST.txt lists for each needed frame,
    keyed by tx element; with txs, only those transmits. A needed frame
    that the manifest does not list, or that it lists but is absent, is
    a FileNotFoundError. A frame line whose name is not
    frame_filename(tx), which keeps every read inside in_dir, and a
    transmit listed twice are ValueErrors."""
    in_dir = Path(in_dir)
    manifest = in_dir / "MANIFEST.txt"
    if not manifest.exists():
        raise FileNotFoundError(f"no MANIFEST.txt in {in_dir}")
    listed, section = {}, None
    for line in manifest.read_text().splitlines():
        if line.startswith("["):
            section = line
        elif section == "[frames]" and line.strip():
            entry = MANIFEST_FRAME.fullmatch(line.strip())
            if entry is None:
                raise ValueError(f"{manifest}: malformed frame line {line!r}")
            name, tx, digest = entry.groups()
            tx = int(tx)
            if name != frame_filename(tx):
                raise ValueError(f"{manifest}: frame line {line!r} does not "
                                 f"name {frame_filename(tx)}")
            if tx in listed:
                raise ValueError(f"{manifest}: tx {tx} is listed twice")
            listed[tx] = digest
    needed = sorted(listed) if txs is None else sorted(set(txs))
    unlisted = [tx for tx in needed if tx not in listed]
    if unlisted:
        raise FileNotFoundError(f"{manifest} lists no frame for tx {unlisted}")
    for tx in needed:
        path = in_dir / frame_filename(tx)
        if not path.exists():
            raise FileNotFoundError(f"{path}: listed in {manifest.name} "
                                    "but absent")
    return {tx: listed[tx] for tx in needed}


def read_frame_set(in_dir: Path, txs=None) -> dict[int, ChannelFrame]:
    """The frames :func:`listed_frames` finds, keyed by tx element; one
    whose bytes do not match the manifest's sha256_16 is a ValueError."""
    in_dir = Path(in_dir)
    frames = {}
    for tx, listed in listed_frames(in_dir, txs).items():
        path = in_dir / frame_filename(tx)
        frames[tx], digest = read_frame(path)
        if frames[tx].tx_element != tx:
            raise ValueError(f"{path}: holds tx {frames[tx].tx_element}, "
                             f"MANIFEST.txt says tx {tx}")
        if digest != listed:
            raise ValueError(f"{path}: sha256 differs from MANIFEST.txt")
    return frames
