"""Pattern extraction and OLS / weighted / robust line fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soscorr.delaytrack import DelayMap
from soscorr.geometry import ImagingGrid, PolarROI
from soscorr.pipeline import ESTIMATION_ROI
from soscorr.regress import (
    DelayPattern,
    EmptyPatternError,
    InsufficientDataError,
    RankDeficiencyError,
    extract_pattern,
    fit_ols,
    fit_robust,
    fit_weighted,
    r_squared,
)


def make_pattern(thetas, delays, weights=None):
    thetas = np.asarray(thetas, dtype=float)
    delays = np.asarray(delays, dtype=float)
    if weights is None:
        weights = np.ones_like(thetas)
    return DelayPattern(
        thetas=thetas, median_delays=delays,
        weights=np.asarray(weights, dtype=float),
    )


def make_delay_map(delays, x0=-5e-3, z0=8e-3, dx=5e-4, dz=5e-4,
                   ncc=None, valid=None):
    delays = np.asarray(delays, dtype=float)
    nz, nx = delays.shape
    grid = ImagingGrid(x0=x0, z0=z0, dx=dx, dz=dz, nx=nx, nz=nz)
    if ncc is None:
        ncc = np.full_like(delays, 0.9)
    if valid is None:
        valid = np.ones_like(delays, dtype=bool)
    return DelayMap(delays=delays, ncc=ncc, valid=valid, grid=grid)


class TestExtractPattern:
    def roi(self, bins=8):
        return PolarROI(depth_min=5e-3, depth_max=20e-3, theta_min=-0.6,
                        theta_max=0.6, num_bins=bins)

    def test_constant_delays_give_constant_pattern(self):
        dmap = make_delay_map(np.full((20, 20), 3.5e-9))
        pat = extract_pattern(dmap, self.roi())
        assert np.allclose(pat.median_delays, 3.5e-9)

    def test_linear_in_theta_reproduces_line(self):
        alpha = 2.0e-8
        dmap = make_delay_map(np.zeros((20, 20)))
        X, Z = dmap.grid.meshgrid()
        theta = np.arctan2(X, Z)
        dmap = make_delay_map(alpha * theta)
        pat = extract_pattern(dmap, self.roi(bins=12))
        bin_width = (0.6 - (-0.6)) / 12
        dev = np.abs(pat.median_delays - alpha * pat.thetas)
        assert np.all(dev <= alpha * bin_width / 2 + 1e-15)

    def test_empty_roi_raises(self):
        dmap = make_delay_map(np.zeros((4, 4)),
                              valid=np.zeros((4, 4), dtype=bool))
        with pytest.raises(EmptyPatternError):
            extract_pattern(dmap, self.roi())

    def test_weights_are_mean_ncc(self):
        ncc = np.full((20, 20), 0.7)
        dmap = make_delay_map(np.zeros((20, 20)), ncc=ncc)
        pat = extract_pattern(dmap, self.roi())
        assert np.allclose(pat.weights, 0.7)

    def test_default_roi_shape(self):
        roi = ESTIMATION_ROI
        assert roi.depth_min == pytest.approx(7.5e-3)
        assert roi.depth_max == pytest.approx(15e-3)
        assert roi.theta_min == pytest.approx(-0.4)
        assert roi.theta_max == pytest.approx(0.4)
        assert roi.num_bins == 40


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 5.0])
        assert r_squared(y, y) == 1.0

    def test_null_model(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_hand_value(self):
        y = np.array([0.0, 1.0, 2.0])
        y_hat = np.array([0.5, 1.0, 1.5])
        assert r_squared(y, y_hat) == pytest.approx(0.75)

    def test_constant_y_convention(self):
        y = np.full(5, 2.0)
        assert r_squared(y, y + 0.1) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            r_squared(np.array([1.0]), np.array([1.0]))


class TestFitOLS:
    def test_exact_line(self):
        pat = make_pattern([0.0, 1.0], [0.0, 2.0])
        fit = fit_ols(pat)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_symmetric_data_zero_slope(self):
        pat = make_pattern([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        fit = fit_ols(pat)
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept == pytest.approx(1.0 / 3.0)
        assert fit.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_constant_y(self):
        pat = make_pattern([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        fit = fit_ols(pat)
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == 0.0

    def test_single_theta_raises(self):
        pat = make_pattern([1.0, 1.0], [0.0, 2.0])
        with pytest.raises(InsufficientDataError):
            fit_ols(pat)


class TestFitWeighted:
    def test_unit_weights_match_ols(self):
        rng = np.random.default_rng(3)
        pat = make_pattern(np.linspace(-0.4, 0.4, 15),
                           rng.standard_normal(15) * 1e-8)
        a = fit_ols(pat)
        b = fit_weighted(pat)
        assert b.slope == pytest.approx(a.slope, rel=1e-12)
        assert b.intercept == pytest.approx(a.intercept, rel=1e-12, abs=1e-24)

    def test_zero_weight_point_is_ignored(self):
        pat = make_pattern([0.0, 1.0, 2.0], [0.0, 1.0, 10.0],
                           weights=[1.0, 1.0, 0.0])
        fit = fit_weighted(pat)
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_weighted_centroid_hand_case(self):
        # (0,0) w=1, (1,0) w=1, (1,3) w=2 -> slope 2, intercept 0
        pat = make_pattern([0.0, 1.0, 1.0], [0.0, 0.0, 3.0],
                           weights=[1.0, 1.0, 2.0])
        fit = fit_weighted(pat)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_weighted_points(self):
        pat = make_pattern([0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                           weights=[1.0, 0.0, 0.0])
        with pytest.raises(InsufficientDataError):
            fit_weighted(pat)


class TestFitRobust:
    def test_clean_line_matches_ols(self):
        thetas = np.linspace(-0.4, 0.4, 21)
        pat = make_pattern(thetas, 3.0 * thetas)
        robust = fit_robust(pat)
        ols = fit_ols(pat)
        assert robust.slope == pytest.approx(3.0, abs=1e-9)
        assert robust.slope == pytest.approx(ols.slope, abs=1e-9)
        assert robust.converged

    def test_single_outlier_rejected(self):
        thetas = np.linspace(-0.4, 0.4, 20)
        y = 3.0 * thetas
        y_out = y.copy()
        y_out[7] += 10.0 * (y.max() - y.min())
        pat = make_pattern(thetas, y_out)
        robust = fit_robust(pat)
        ols = fit_ols(pat)
        assert abs(robust.slope - 3.0) < 0.02 * 3.0
        assert abs(robust.slope - 3.0) < abs(ols.slope - 3.0)

    def test_identical_thetas_raise(self):
        pat = make_pattern([0.2, 0.2, 0.2], [1.0, 2.0, 3.0])
        with pytest.raises(RankDeficiencyError):
            fit_robust(pat)

    def test_needs_three_points(self):
        pat = make_pattern([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(InsufficientDataError):
            fit_robust(pat)

    @given(
        slope=st.floats(-5.0, 5.0),
        intercept=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_any_exact_line(self, slope, intercept):
        thetas = np.linspace(-0.4, 0.4, 11)
        pat = make_pattern(thetas, slope * thetas + intercept)
        fit = fit_robust(pat)
        assert fit.slope == pytest.approx(slope, abs=1e-7)
        assert fit.intercept == pytest.approx(intercept, abs=1e-7)
