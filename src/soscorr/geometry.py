"""Transducer-array, imaging-grid and polar-coordinate bookkeeping.

All types are immutable after construction and all operations are pure,
so they can be shared freely across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TransducerArray:
    """Linear array at z = 0, elements centered on x = 0.

    Element i sits at x_i = (i - (N-1)/2) * pitch.
    """

    num_elements: int = 128
    pitch: float = 3.0e-4

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError("num_elements must be >= 2")
        if not 0 < self.pitch < np.inf:
            raise ValueError("pitch must be finite and > 0")

    @property
    def aperture(self) -> float:
        """Center-to-center width of the array in meters."""
        return (self.num_elements - 1) * self.pitch

    def element_x(self) -> np.ndarray:
        """x coordinates of all element centers, shape (num_elements,)."""
        n = self.num_elements
        return (np.arange(n) - (n - 1) / 2.0) * self.pitch


def element_position(array: TransducerArray, i: int) -> tuple[float, float]:
    """(x, z) position of element i in meters."""
    if not 0 <= i < array.num_elements:
        raise ValueError(
            f"element index {i} out of range [0, {array.num_elements})"
        )
    return (float(array.element_x()[i]), 0.0)


def slab_clip(
    p: np.ndarray, d: np.ndarray, lo: tuple[float, float], hi: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Ray parameters (t_in, t_out) between which the points p + t*d lie
    in the axis-aligned box lo <= (x, z) <= hi.

    p and d broadcast over (..., 2). t_in >= t_out when a ray's line
    misses the box; t may lie outside [0, 1]. Each of the two slabs
    clips the ray in turn (Amanatides & Woo 1987). A ray parallel to a
    slab is inside it everywhere or nowhere, and on its edge counts as
    inside.
    """
    t_in, t_out = -np.inf, np.inf
    for k in range(2):
        a = lo[k] - p[..., k]
        b = hi[k] - p[..., k]
        dk = d[..., k]
        parallel = dk == 0.0
        t_par = np.where((a <= 0.0) & (b >= 0.0), -np.inf, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(parallel, t_par, a / dk)
            t2 = np.where(parallel, np.inf, b / dk)
        t_in = np.maximum(t_in, np.minimum(t1, t2))
        t_out = np.minimum(t_out, np.maximum(t1, t2))
    return t_in, t_out


@dataclass(frozen=True)
class ImagingGrid:
    """Regular Cartesian pixel grid; (x0, z0) is the top-left pixel center."""

    x0: float
    z0: float
    dx: float
    dz: float
    nx: int
    nz: int

    def __post_init__(self):
        if not (self.dx > 0 and self.dz > 0):
            raise ValueError("dx and dz must be > 0")
        if not self.z0 >= 0:
            raise ValueError("z0 must be >= 0 (image starts below the array)")
        if self.nx < 1 or self.nz < 1:
            raise ValueError("nx and nz must be >= 1")

    def x_coords(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.dx

    def z_coords(self) -> np.ndarray:
        return self.z0 + np.arange(self.nz) * self.dz

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Z) pixel-center coordinate arrays of shape (nz, nx)."""
        return np.meshgrid(self.x_coords(), self.z_coords())

    @property
    def x_min(self) -> float:
        """Left cell edge."""
        return self.x0 - self.dx / 2.0

    @property
    def x_max(self) -> float:
        return self.x0 + (self.nx - 0.5) * self.dx

    @property
    def z_min(self) -> float:
        return self.z0 - self.dz / 2.0

    @property
    def z_max(self) -> float:
        return self.z0 + (self.nz - 0.5) * self.dz

    @property
    def extent_area_mm2(self) -> float:
        """Cell-edge-to-cell-edge area in mm^2."""
        return (self.nx * self.dx * 1e3) * (self.nz * self.dz * 1e3)


@dataclass(frozen=True)
class PolarROI:
    """Angular/depth region of interest for delay-pattern extraction.

    The polar frame is apexed at (reference_x, 0) on the transducer face;
    theta is measured from the vertical (depth) axis, positive toward +x.
    """

    depth_min: float
    depth_max: float
    theta_min: float
    theta_max: float
    num_bins: int
    reference_x: float = 0.0

    def __post_init__(self):
        # written as "not <" so that a NaN bound fails too
        if not self.depth_min < self.depth_max:
            raise ValueError("depth_min must be < depth_max")
        if not self.theta_min < self.theta_max:
            raise ValueError("theta_min must be < theta_max")
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")

    def bin_edges(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.num_bins + 1)

    def bin_centers(self) -> np.ndarray:
        edges = self.bin_edges()
        return 0.5 * (edges[:-1] + edges[1:])


def polar_coords(
    x: np.ndarray, z: np.ndarray, reference_x: float
) -> tuple[np.ndarray, np.ndarray]:
    """Polar (r, theta) of pixel coordinates in the frame apexed at
    (reference_x, 0): theta = atan2(x - reference_x, z), so theta = 0
    points straight down and pixels right of the apex get theta > 0."""
    dx = np.asarray(x) - reference_x
    z = np.asarray(z)
    return np.hypot(dx, z), np.arctan2(dx, z)
