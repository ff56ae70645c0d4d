"""Array geometry, imaging grids and the polar ROI frame."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from soscorr.geometry import (
    ImagingGrid,
    PolarROI,
    TransducerArray,
    element_position,
    polar_coords,
)


class TestTransducerArray:
    def test_center_pair_positions(self):
        arr = TransducerArray(num_elements=128, pitch=3e-4)
        assert element_position(arr, 63) == pytest.approx((-1.5e-4, 0.0))
        assert element_position(arr, 64) == pytest.approx((+1.5e-4, 0.0))

    def test_first_element_position(self):
        arr = TransducerArray(num_elements=128, pitch=3e-4)
        x, z = element_position(arr, 0)
        assert x == pytest.approx(-0.019050, abs=1e-12)
        assert z == 0.0

    def test_element_x_matches_scalar_positions(self):
        arr = TransducerArray(num_elements=16, pitch=2e-4)
        xs = arr.element_x()
        for i in range(arr.num_elements):
            assert xs[i] == pytest.approx(element_position(arr, i)[0])

    def test_aperture(self):
        arr = TransducerArray(num_elements=128, pitch=3e-4)
        assert arr.aperture == pytest.approx(127 * 3e-4)

    def test_symmetry_about_center(self):
        arr = TransducerArray()
        xs = arr.element_x()
        assert np.allclose(xs, -xs[::-1])

    def test_out_of_range_element(self):
        arr = TransducerArray(num_elements=8)
        with pytest.raises(ValueError):
            element_position(arr, 8)
        with pytest.raises(ValueError):
            element_position(arr, -1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TransducerArray(num_elements=1)
        with pytest.raises(ValueError):
            TransducerArray(pitch=0.0)


class TestImagingGrid:
    def test_coords_and_extent(self):
        g = ImagingGrid(x0=-1e-3, z0=5e-3, dx=1e-4, dz=2e-4, nx=21, nz=11)
        assert g.x_coords()[0] == pytest.approx(-1e-3)
        assert g.x_coords()[-1] == pytest.approx(1e-3)
        assert g.z_coords()[-1] == pytest.approx(7e-3)
        assert g.x_min == pytest.approx(-1e-3 - 0.5e-4)
        assert g.z_max == pytest.approx(7e-3 + 1e-4)

    def test_extent_area(self):
        # 21 x 0.1 mm by 11 x 0.2 mm of cell extent
        g = ImagingGrid(x0=0.0, z0=1e-3, dx=1e-4, dz=2e-4, nx=21, nz=11)
        assert g.extent_area_mm2 == pytest.approx(2.1 * 2.2)

    def test_meshgrid_shape(self):
        g = ImagingGrid(x0=0.0, z0=1e-3, dx=1e-4, dz=2e-4, nx=4, nz=3)
        X, Z = g.meshgrid()
        assert X.shape == (3, 4)
        assert X[0, 1] == pytest.approx(1e-4)
        assert Z[1, 0] == pytest.approx(1.2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImagingGrid(x0=0, z0=-1e-3, dx=1e-4, dz=1e-4, nx=2, nz=2)
        with pytest.raises(ValueError):
            ImagingGrid(x0=0, z0=0, dx=0, dz=1e-4, nx=2, nz=2)


class TestPolarROI:
    def roi(self):
        return PolarROI(depth_min=7.5e-3, depth_max=15e-3, theta_min=-0.4,
                        theta_max=0.4, num_bins=40)

    def test_on_axis_point(self):
        r, th = polar_coords(0.0, 0.01, 0.0)
        assert r == pytest.approx(0.01)
        assert th == pytest.approx(0.0)

    def test_45_degree_point(self):
        r, th = polar_coords(0.01, 0.01, 0.0)
        assert r == pytest.approx(0.01 * np.sqrt(2))
        assert th == pytest.approx(np.pi / 4)

    def test_3_4_5_triangle_point(self):
        r, th = polar_coords(0.002 - 0.005, 0.012, 0.002)
        assert r == pytest.approx(0.013)
        assert th == pytest.approx(np.arctan2(-0.005, 0.012))
        assert th == pytest.approx(-0.39479, abs=1e-5)

    def test_bin_edges_and_centers(self):
        roi = self.roi()
        edges = roi.bin_edges()
        centers = roi.bin_centers()
        assert edges.size == 41
        assert centers.size == 40
        assert edges[0] == pytest.approx(-0.4)
        assert edges[-1] == pytest.approx(0.4)
        assert np.allclose(centers, 0.5 * (edges[:-1] + edges[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PolarROI(depth_min=0.02, depth_max=0.01, theta_min=-0.4,
                     theta_max=0.4, num_bins=10)
        with pytest.raises(ValueError):
            PolarROI(depth_min=0.01, depth_max=0.02, theta_min=-0.4,
                     theta_max=0.4, num_bins=1)

    @given(
        x=st.floats(-0.02, 0.02),
        z=st.floats(1e-4, 0.04),
        ref=st.floats(-0.01, 0.01),
    )
    def test_polar_roundtrip_property(self, x, z, ref):
        """r, theta always reproduce the Cartesian point exactly."""
        r, th = polar_coords(x, z, ref)
        assert r * np.sin(th) + ref == pytest.approx(x, abs=1e-12)
        assert r * np.cos(th) == pytest.approx(z, abs=1e-12)

