"""NCC delay tracking: 1-D shift oracles, the reference tracker and 2-D
delay maps."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from soscorr.beamform import BeamformedFrame
from soscorr.delaytrack import DelayMap, TrackConfig, track_delays
from soscorr.geometry import ImagingGrid, element_position, polar_coords
from soscorr.pipeline import ESTIMATION_TRACKING


def speckle(n, seed=0, corr=4):
    """Noise lowpassed with a moving average, a stand-in for RF speckle."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(n + corr)
    return np.convolve(s, np.ones(corr) / corr, mode="valid")[:n]


def shifted_frames(shift, period=None, nz=300, nx=6):
    """Frame pair whose second frame is `shift` samples deeper.

    Columns are speckle, or sinusoids of the given period in samples.
    """
    grid = ImagingGrid(x0=0.0, z0=5e-3, dx=3e-4, dz=3.75e-5, nx=nx, nz=nz)
    m = 16
    k = np.arange(nz + 2 * m)
    cols = [speckle(nz + 2 * m, seed=s) if period is None
            else np.sin(2 * np.pi * k / period + s) for s in range(nx)]
    a = np.column_stack([c[m:m + nz] for c in cols])
    b = np.column_stack([c[m - shift:m - shift + nz] for c in cols])
    return (BeamformedFrame(rf=a, c_bf_used=1500.0, grid=grid),
            BeamformedFrame(rf=b, c_bf_used=1500.0, grid=grid))


def shifted_region(signal, i0, w, margin, shift):
    """Search region whose content is `signal` delayed by `shift` samples."""
    start = i0 - margin - shift
    return signal[start:start + w + 2 * margin]


def _parabolic_offset(cm1, c0, cp1):
    """Subsample peak offset from three correlation samples."""
    denom = cm1 - 2.0 * c0 + cp1
    with np.errstate(divide="ignore", invalid="ignore"):
        off = 0.5 * (cm1 - cp1) / denom
    off = np.where(np.abs(denom) > 0, off, 0.0)
    return np.clip(off, -1.0, 1.0)


def reference_track_delays(
    frame_a: BeamformedFrame, frame_b: BeamformedFrame, cfg: TrackConfig
) -> DelayMap:
    """Reference delay map: per-column loops over the lags.

    The tracker as it was before the one-pass kernel; its code is kept
    verbatim.
    track_delays computes the same correlation sums from running sums
    and one strided product, so the two agree to rounding. Each node
    correlates an axial window of frame a with lagged windows of frame
    b. With lateral_window > 1 the dot products and energies of the
    columns around the node are summed before normalizing. A node is
    valid when its peak NCC reaches min_ncc and the peak lies inside
    the search range.
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
    return DelayMap(delays=delays, ncc=nccs, valid=valid, grid=meas_grid)


def track_1d(a, b):
    """(lag, peak NCC, valid) of window a inside search region b.

    b pads a's alignment by the same margin on both sides, and that
    margin is the search radius. Both become one-column frames for
    track_delays, whose one node is a's window. Positive lag means b's
    content is deeper (later) than a's.
    """
    w, r = a.size, max((b.size - a.size) // 2, 1)
    grid = ImagingGrid(x0=0.0, z0=5e-3, dx=3e-4, dz=3.75e-5, nx=1,
                       nz=b.size)
    col_a = np.zeros(b.size)
    col_a[r:r + w] = a

    def frame(col):
        return BeamformedFrame(rf=col[:, None], c_bf_used=1500.0, grid=grid)

    dmap = track_delays(frame(col_a), frame(np.asarray(b, float)),
                        TrackConfig(window_len=w, search_radius=r,
                                    min_ncc=0.0))
    one_sample = 2.0 * grid.dz / 1500.0
    return (float(-dmap.delays[0, 0] / one_sample), float(dmap.ncc[0, 0]),
            bool(dmap.valid[0, 0]))


class TestNCCDelay1D:
    def test_symmetric_padding_is_zero_lag(self):
        s = speckle(256, seed=1)
        a = s[64:128]
        b = s[48:144]  # a padded by 16 on both sides
        lag, ncc, _ = track_1d(a, b)
        # subsample refinement on asymmetric speckle sidelobes may move
        # the estimate slightly off the exact integer peak
        assert lag == pytest.approx(0.0, abs=0.05)
        assert ncc == pytest.approx(1.0, abs=1e-9)

    def test_integer_shift_of_three(self):
        s = speckle(512, seed=2)
        a = s[200:264]
        b = shifted_region(s, 200, 64, 16, shift=3)
        lag, ncc, _ = track_1d(a, b)
        assert lag == pytest.approx(3.0, abs=0.01)
        assert ncc >= 0.999

    def test_half_sample_sine_shift(self):
        # search margin below half the sine period, so only one lag matches
        w, m = 64, 4
        k = np.arange(w)
        a = np.sin(2 * np.pi * 0.1 * k)
        j = np.arange(-m, w + m)
        b = np.sin(2 * np.pi * 0.1 * (j - 2.5))
        lag, _, _ = track_1d(a, b)
        assert lag == pytest.approx(2.5, abs=0.05)

    def test_zero_variance_input(self):
        a = np.zeros(32)
        b = np.zeros(64)
        _, ncc, valid = track_1d(a, b)
        assert not valid
        assert ncc == 0.0

    def test_region_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            track_1d(np.ones(32), np.ones(33))

    @given(shift=st.integers(-8, 8), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_integer_shift_recovery_property(self, shift, seed):
        """Any integer shift within the search margin is recovered."""
        s = speckle(512, seed=seed)
        a = s[200:264]
        b = shifted_region(s, 200, 64, 12, shift=shift)
        lag, ncc, valid = track_1d(a, b)
        assert valid
        assert lag == pytest.approx(float(shift), abs=0.05)
        assert ncc >= 0.99


class TestTrackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackConfig(window_len=4)
        with pytest.raises(ValueError):
            TrackConfig(search_radius=0)
        with pytest.raises(ValueError):
            TrackConfig(axial_step=0)
        with pytest.raises(ValueError):
            TrackConfig(min_ncc=1.5)
        with pytest.raises(ValueError):
            TrackConfig(lateral_window=2)


def reference_case(shift, period, column):
    """Frame pair with noise added to b, and `column` applied to both.

    `column` is "zero" (column 2 set to zero), "dc" (an offset of 100
    times the speckle std) or None.
    """
    fa, fb = shifted_frames(shift, period=period, nx=9)
    rng = np.random.default_rng(abs(shift))
    a, b = fa.rf.copy(), fb.rf + 0.3 * fb.rf.std() * rng.standard_normal(
        fb.rf.shape)
    if column == "zero":
        a[:, 2] = b[:, 2] = 0.0
    elif column == "dc":
        dc = 100.0 * a.std()
        a += dc
        b += dc
    return replace(fa, rf=a), replace(fb, rf=b)


class TestAgainstReference:
    """track_delays against reference_track_delays.

    The correlation sums are accumulated in another order, so peak NCC
    and delay (in samples) may differ by rounding: NCC_TOL and
    DELAY_TOL are a few thousand ulps. Valid masks must be identical.
    """

    NCC_TOL = 1e-12
    DELAY_TOL = 1e-12  # samples

    @pytest.mark.parametrize(
        "shift, period, column, lateral_window, lateral_step, axial_step",
        [
            (2, None, None, 1, 1, 1),
            (2, None, None, 5, 2, 8),
            (-3, None, None, 5, 1, 1),
            (1, None, None, 1, 2, 8),
            (7, 60, None, 1, 1, 2),
            (7, 60, None, 5, 2, 1),
            (2, None, "zero", 1, 1, 1),
            (2, None, "zero", 5, 2, 8),
            (2, None, "dc", 1, 1, 8),
            (-3, None, "dc", 5, 2, 1),
        ],
        ids=["plain", "pooled-strided", "pooled", "strided",
             "edge-peaks", "edge-peaks-pooled", "zero-column",
             "zero-column-pooled", "dc", "dc-pooled"],
    )
    def test_matches_reference(self, shift, period, column, lateral_window,
                               lateral_step, axial_step):
        fa, fb = reference_case(shift, period, column)
        # min_ncc near the median peak, so the masks mix valid and invalid
        cfg = TrackConfig(window_len=64, search_radius=4, min_ncc=0.95,
                          lateral_window=lateral_window,
                          lateral_step=lateral_step, axial_step=axial_step)
        out = track_delays(fa, fb, cfg)
        ref = reference_track_delays(fa, fb, cfg)
        assert out.grid == ref.grid
        assert out.delays.shape == ref.delays.shape
        np.testing.assert_array_equal(out.valid, ref.valid)
        one_sample = 2.0 * fa.grid.dz / fa.c_bf_used
        np.testing.assert_allclose(out.ncc, ref.ncc, rtol=0,
                                   atol=self.NCC_TOL)
        np.testing.assert_allclose(out.delays / one_sample,
                                   ref.delays / one_sample, rtol=0,
                                   atol=self.DELAY_TOL)
        if period is None:
            assert 0 < np.count_nonzero(ref.valid) < ref.valid.size
        else:
            assert not np.any(ref.valid)
        if column == "zero" and lateral_window == 1:
            assert not np.any(ref.valid[:, 2 // lateral_step])


class TestTrackDelays:
    def test_shift_beyond_search_radius_is_invalid(self):
        """A peak at the edge of the search range was not located.

        For a long-period sinusoid the NCC rises toward the true lag of
        7 samples, so within +-4 it peaks at the last lag, where a node
        must not be reported valid with a lag of 4.
        """
        fa, fb = shifted_frames(7, period=60)
        dmap = track_delays(fa, fb, TrackConfig(window_len=64,
                                                search_radius=4))
        assert dmap.valid.size > 0
        assert not np.any(dmap.valid)

    @pytest.mark.parametrize("lateral_window", [1, 3])
    def test_shift_within_search_radius_is_recovered(self, lateral_window):
        fa, fb = shifted_frames(2)
        dmap = track_delays(fa, fb, TrackConfig(
            window_len=64, search_radius=4, lateral_window=lateral_window))
        assert np.all(dmap.valid)
        one_sample = 2.0 * fa.grid.dz / fa.c_bf_used
        # positive lag (b deeper) is reported as a negative delay; the
        # parabolic refinement on asymmetric speckle peaks may move it a
        # little off the integer lag
        assert np.allclose(dmap.delays, -2.0 * one_sample, rtol=0,
                           atol=0.15 * one_sample)

    def test_measurement_grid_geometry(self, full_cfg, null_estimate):
        _, _, dmap = null_estimate
        est_grid = full_cfg.estimation_grid()
        w = ESTIMATION_TRACKING.window_len
        r = ESTIMATION_TRACKING.search_radius
        # node centers start half a window past the first search offset
        expected_z0 = est_grid.z0 + (r + (w - 1) / 2.0) * est_grid.dz
        assert dmap.grid.z0 == pytest.approx(expected_z0)
        assert dmap.grid.dz == pytest.approx(
            est_grid.dz * ESTIMATION_TRACKING.axial_step)

    def test_zero_offset_median_below_one_sample(self, full_cfg, null_estimate):
        _, _, dmap = null_estimate
        med = np.median(np.abs(dmap.delays[dmap.valid]))
        assert med < 1.0 / full_cfg.pulse.sampling_frequency  # 6.25 ns

    @pytest.mark.parametrize("c_bf", [1520.0, 1480.0])
    def test_pattern_matches_transmit_path_model(self, full_cfg, est_frames,
                                                 c_bf):
        """Binned delays follow (1/c - 1/c_bf)(d_a - d_b) within 25% MAD.

        The comparison applies the same angular binning to the tracked
        and to the analytic node delays, then requires the median
        absolute deviation to stay below a quarter of the analytic
        pattern's dynamic range.
        """
        from soscorr.pipeline import estimate_slope

        _, _, dmap = estimate_slope(est_frames, c_bf, full_cfg)
        X, Z = dmap.grid.meshgrid()
        pa = element_position(full_cfg.array, 55)
        pb = element_position(full_cfg.array, 65)
        da = np.hypot(X - pa[0], Z - pa[1])
        db = np.hypot(X - pb[0], Z - pb[1])
        pred = (1.0 / 1500.0 - 1.0 / c_bf) * (da - db)

        roi = full_cfg.roi()
        r, th = polar_coords(X, Z, roi.reference_x)
        sel = ((r >= roi.depth_min) & (r <= roi.depth_max)
               & (th >= roi.theta_min) & (th <= roi.theta_max) & dmap.valid)
        edges = roi.bin_edges()
        measured, analytic = [], []
        for i in range(roi.num_bins):
            m = sel & (th >= edges[i]) & (th < edges[i + 1])
            if np.any(m):
                measured.append(np.median(dmap.delays[m]))
                analytic.append(np.median(pred[m]))
        measured = np.array(measured)
        analytic = np.array(analytic)
        mad = np.median(np.abs(measured - analytic))
        dyn_range = analytic.max() - analytic.min()
        assert mad < 0.25 * dyn_range

    def test_rejects_mismatched_frames(self, full_cfg, est_frames):
        from soscorr.beamform import BFConfig, das_beamform

        grid = ImagingGrid(x0=-2e-3, z0=5e-3, dx=3e-4, dz=3.75e-5,
                           nx=8, nz=300)
        fa = das_beamform(est_frames[55], full_cfg.array,
                          BFConfig(c_bf=1500.0, grid=grid))
        fb = das_beamform(est_frames[65], full_cfg.array,
                          BFConfig(c_bf=1510.0, grid=grid))
        with pytest.raises(ValueError, match="beamforming SoS"):
            track_delays(fa, fb, TrackConfig())

    def test_grid_too_shallow_raises(self, full_cfg, est_frames):
        from soscorr.beamform import BFConfig, das_beamform

        grid = ImagingGrid(x0=-2e-3, z0=5e-3, dx=3e-4, dz=3.75e-5,
                           nx=4, nz=64)
        fa = das_beamform(est_frames[55], full_cfg.array,
                          BFConfig(c_bf=1500.0, grid=grid))
        with pytest.raises(ValueError, match="too small"):
            track_delays(fa, fa, TrackConfig(window_len=96, search_radius=16))
