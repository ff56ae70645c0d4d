"""Delay-and-sum beamforming."""

import ctypes
import mmap
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from soscorr import kernels
from soscorr.beamform import BFConfig, das_beamform, receive_table
from soscorr.delaytrack import TrackConfig, track_delays
from soscorr.geometry import ImagingGrid, TransducerArray, element_position
from soscorr.synthsim import (
    ChannelFrame,
    MediumSpec,
    PulseSpec,
    ScattererField,
    simulate_frame,
)
from soscorr.pipeline import (
    ESTIMATION_APODIZATION,
    default_phantom_set,
    simulate_frames,
)


# each DAS pass by the name a record gives it; a compiled pass the host
# lacks is None
LIB = kernels.LIBRARY
PASSES = {"numpy": None, "compiled": None if LIB is None else LIB.das_rx,
          "avx512": LIB.das_rx_avx512 if LIB and LIB.avx512() else None}


@pytest.fixture(params=list(PASSES))
def das_pass(request):
    """Each DAS pass in turn; a compiled pass the host lacks is skipped."""
    if request.param != "numpy" and PASSES[request.param] is None:
        pytest.skip(f"no {request.param} DAS pass on this host")
    return PASSES[request.param]


def make_medium():
    grid = ImagingGrid(x0=-0.02 + 1.5e-4, z0=1.5e-4, dx=3e-4, dz=3e-4,
                       nx=134, nz=134)
    return MediumSpec(background_sos=1500.0, grid=grid)


class TestDASBeamform:
    def test_zero_input_gives_zero_output(self):
        array = TransducerArray()
        frame = ChannelFrame(
            tx_element=63,
            samples=np.zeros((128, 256), dtype=np.float32),
            t0=0.0, fs=1.6e8,
        )
        grid = ImagingGrid(x0=-2e-3, z0=5e-3, dx=2e-4, dz=1e-4, nx=21, nz=31)
        out = das_beamform(frame, array, BFConfig(c_bf=1500.0, grid=grid))
        assert not np.any(out.rf)
        assert out.c_bf_used == 1500.0
        assert out.grid == grid

    def test_single_scatterer_focuses_at_true_position(self):
        array = TransducerArray()
        pulse = PulseSpec()
        medium = make_medium()
        field = ScattererField(positions=np.array([[0.0, 0.02]]),
                               amplitudes=np.array([1.0]))
        frame = simulate_frame(63, field, medium, pulse, array)
        grid = ImagingGrid(x0=-2e-3, z0=18e-3, dx=1e-4, dz=5e-5, nx=41, nz=81)
        out = das_beamform(frame, array, BFConfig(c_bf=1500.0, grid=grid))
        iz, ix = np.unravel_index(np.argmax(np.abs(out.rf)), out.rf.shape)
        x_peak = grid.x0 + ix * grid.dx
        z_peak = grid.z0 + iz * grid.dz
        assert abs(x_peak - 0.0) <= grid.dx + 1e-12
        assert abs(z_peak - 0.02) <= grid.dz + 1e-12

    def test_channel_count_mismatch(self):
        array = TransducerArray(num_elements=64)
        frame = ChannelFrame(tx_element=0,
                             samples=np.zeros((128, 16), dtype=np.float32),
                             t0=0.0, fs=1.6e8)
        grid = ImagingGrid(x0=0, z0=1e-3, dx=1e-4, dz=1e-4, nx=4, nz=4)
        with pytest.raises(ValueError, match="channels"):
            das_beamform(frame, array, BFConfig(c_bf=1500.0, grid=grid))

    def test_config_validation(self):
        grid = ImagingGrid(x0=0, z0=1e-3, dx=1e-4, dz=1e-4, nx=4, nz=4)
        with pytest.raises(ValueError):
            BFConfig(c_bf=900.0, grid=grid)
        with pytest.raises(ValueError):
            BFConfig(c_bf=1500.0, grid=grid, apodization="tukey")

    def test_zero_offset_pair_tracks_to_null(self, full_cfg, null_estimate):
        """Matched BF-SoS leaves the (55, 65) pair with near-zero delays."""
        _, _, dmap = null_estimate
        med = np.median(np.abs(dmap.delays[dmap.valid]))
        one_sample = 1.0 / full_cfg.pulse.sampling_frequency
        assert med < one_sample

    def test_self_tracking_is_identity(self, full_cfg, est_frames):
        grid = full_cfg.estimation_grid()
        fa = das_beamform(est_frames[55], full_cfg.array,
                          BFConfig(c_bf=1500.0, grid=grid))
        dmap = track_delays(fa, fa, TrackConfig(axial_step=16, lateral_step=8))
        assert np.all(dmap.valid)
        assert np.allclose(dmap.delays, 0.0)
        assert np.allclose(dmap.ncc, 1.0)

    def test_offsets_are_made_unique_once_per_frame(self, quick_cfg,
                                                    monkeypatch):
        """On the quick recon grid one table group holds every receiver,
        so das_beamform takes np.unique of the offsets once per frame:
        the call that sizes the table also gives the group its rows.
        Given the grid's receive table, it takes none, and the bytes are
        the same."""
        frame = simulate_frames(quick_cfg, tx_list=[40])[40]
        cfg = BFConfig(c_bf=1522.5, grid=quick_cfg.full_grid())
        expected = das_beamform(frame, quick_cfg.array, cfg).rf
        table = receive_table(quick_cfg.array, cfg.grid)
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(kwargs)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        out = das_beamform(frame, quick_cfg.array, cfg)
        shared = das_beamform(frame, quick_cfg.array, cfg, table=table)
        monkeypatch.undo()
        assert calls == [{"return_inverse": True}]
        assert out.rf.tobytes() == expected.tobytes()
        assert shared.rf.tobytes() == expected.tobytes()

    def test_table_of_another_grid_is_refused(self, quick_cfg):
        frame = simulate_frames(quick_cfg, tx_list=[40])[40]
        cfg = BFConfig(c_bf=1500.0, grid=quick_cfg.full_grid())
        table = receive_table(quick_cfg.array, quick_cfg.estimation_grid())
        with pytest.raises(ValueError, match="another grid"):
            das_beamform(frame, quick_cfg.array, cfg, table=table)

    def test_malformed_table_is_refused(self, quick_cfg):
        """The compiled passes index rows with inv through raw pointers,
        so a table whose arrays do not match its grid is refused when it
        is made."""
        table = receive_table(quick_cfg.array, quick_cfg.estimation_grid())
        bad_inv = table.inv.copy()
        bad_inv[-1, -1] = table.rows.shape[0]
        for change in ({"inv": bad_inv},
                       {"inv": table.inv.astype(np.int32)},
                       {"rows": table.rows.astype(np.float32)},
                       {"rows": np.asfortranarray(table.rows)},
                       {"rows": table.rows[:, :-1]}):
            with pytest.raises(ValueError, match="table"):
                replace(table, **change)

    def test_samples_other_than_float32_are_refused(self):
        """ChannelFrame's samples are float32; the compiled passes read
        them as such, so a float64 record is an error naming its type."""
        frame = noise_frame(63, 700)
        frame = replace(frame, samples=frame.samples.astype(np.float64))
        cfg = BFConfig(c_bf=1500.0, grid=ALIGNED)
        with pytest.raises(ValueError, match="float64"):
            das_beamform(frame, TransducerArray(), cfg)

    def test_three_passes_give_the_same_bytes(self, quick_cfg,
                                              monkeypatch):
        """Each compiled DAS pass beamforms the quick pipeline frames of
        ellipse_p40 to the NumPy loop's bytes, on both grids, at three
        c_bf, with the grid's receive table and without it."""
        compiled = [PASSES[name] for name in ("compiled", "avx512")
                    if PASSES[name] is not None]
        if not compiled:
            pytest.skip("no compiled DAS pass on this host")
        cfg = replace(quick_cfg,
                      inclusions=dict(default_phantom_set())["ellipse_p40"])
        frames = simulate_frames(cfg, tx_list=[40, 55])
        grids = ((cfg.full_grid(), "none"),
                 (cfg.estimation_grid(), ESTIMATION_APODIZATION))
        for (grid, apodization), c_bf in product(grids,
                                                (1477.5, 1500.0, 1522.5)):
            bfc = BFConfig(c_bf=c_bf, grid=grid, apodization=apodization)
            table = receive_table(cfg.array, grid)
            for fr in frames.values():
                monkeypatch.setattr(kernels, "DAS", None)
                expected = das_beamform(fr, cfg.array, bfc).rf
                assert np.abs(expected).max() > 0
                for kernel in compiled:
                    monkeypatch.setattr(kernels, "DAS", kernel)
                    for tab in (None, table):
                        out = das_beamform(fr, cfg.array, bfc, table=tab)
                        assert out.rf.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_samples", [1, 2, 40])
    def test_records_that_end_before_every_pixel_read_zero(
            self, das_pass, monkeypatch, num_samples):
        """A 1-sample record (simulate_frame's record of an empty field)
        leaves no sample interval to read, and a record that ends
        before the nearest pixel's echo leaves every pixel past it: each
        pass beamforms both to zeros, on an aligned and an unaligned
        grid, and the vector pass reads nothing past the record."""
        monkeypatch.setattr(kernels, "DAS", das_pass)
        array = TransducerArray()
        for grid in (ALIGNED, UNALIGNED):
            frame = guarded_frame(63, num_samples)
            cfg = BFConfig(c_bf=1500.0, grid=grid, apodization="hann")
            assert sample_index_range(frame, array, cfg)[0] >= num_samples
            out = das_beamform(frame, array, cfg)
            assert out.rf.shape == (grid.nz, grid.nx)
            assert not np.any(out.rf)

    def test_empty_field_frame_beamforms_to_zeros(self, das_pass,
                                                  monkeypatch):
        monkeypatch.setattr(kernels, "DAS", das_pass)
        medium = make_medium()
        array = TransducerArray()
        empty = ScattererField(positions=np.zeros((0, 2)),
                               amplitudes=np.zeros(0))
        frame = simulate_frame(63, empty, medium, PulseSpec(), array)
        assert frame.num_samples == 1
        out = das_beamform(frame, array,
                           BFConfig(c_bf=1500.0, grid=UNALIGNED))
        assert not np.any(out.rf)

    def test_own_record_beamforms_as_the_padded_record(self, quick_cfg):
        """Each frame of a set ends after its own transmit's latest echo.
        Zero-padded to the set's longest record it beamforms to the same
        bytes at c_bf 1477.5, 1500 and 1522.5 m/s, on the full grid and
        on the estimation grid: nothing DAS reads lies in the padding."""
        cfg = replace(quick_cfg,
                      inclusions=dict(default_phantom_set())["ellipse_p40"])
        frames = simulate_frames(cfg)
        longest = max(fr.num_samples for fr in frames.values())
        assert len(frames) == 6
        assert min(fr.num_samples for fr in frames.values()) < longest
        grids = ((cfg.full_grid(), "none"),
                 (cfg.estimation_grid(), ESTIMATION_APODIZATION))
        for fr in frames.values():
            pad = longest - fr.num_samples
            padded = replace(fr, samples=np.pad(fr.samples, ((0, 0), (0, pad))))
            for c_bf, (grid, apodization) in product((1477.5, 1500.0, 1522.5),
                                                     grids):
                bfc = BFConfig(c_bf=c_bf, grid=grid, apodization=apodization)
                own = das_beamform(fr, cfg.array, bfc).rf
                assert own.tobytes() == \
                    das_beamform(padded, cfg.array, bfc).rf.tobytes()


def reference_das(frame, array, cfg):
    """Reference rf: per-receiver DAS in sample units on the pixel mesh.

    s = |p - rx| k + (|p - tx| k - t0 fs) with k = fs / c_bf and
    ch[i0] + frac * (ch[i0 + 1] - ch[i0]) on the float64 channel.
    das_beamform does the same arithmetic on tabulated rows, so the two
    must agree byte for byte.
    """
    X, Z = cfg.grid.meshgrid()
    tx_x, _ = element_position(array, frame.tx_element)
    k = frame.fs / cfg.c_bf
    s_tx = np.hypot(X - tx_x, Z) * k - frame.t0 * frame.fs
    ex = array.element_x()
    n_el = array.num_elements
    ns = frame.num_samples
    rf = np.zeros_like(X)
    static_apod = np.hanning(n_el) if cfg.apodization == "hann" else None
    for rx in range(n_el):
        s = np.hypot(X - ex[rx], Z) * k + s_tx
        i0 = np.floor(s).astype(np.int64)
        frac = s - i0
        valid = (i0 >= 0) & (i0 < ns - 1)
        i0c = np.where(valid, i0, 0)
        ch = frame.samples[rx].astype(np.float64)
        val = ch[i0c] + frac * (ch[i0c + 1] - ch[i0c])
        val = np.where(valid, val, 0.0)
        if static_apod is not None:
            val = val * static_apod[rx]
        rf += val
    return rf


def distance_das(frame, array, cfg):
    """Per-receiver DAS in distance units with np.hypot on the pixel mesh.

    s = ((d_tx + d_rx) / c_bf - t0) * fs and (1 - frac) * ch[i0] +
    frac * ch[i0 + 1]: the formula of the distance-table kernel that
    the sample-unit kernel replaced, kept as an independent check.
    """
    X, Z = cfg.grid.meshgrid()
    tx_x, _ = element_position(array, frame.tx_element)
    d_tx = np.hypot(X - tx_x, Z)
    ex = array.element_x()
    n_el = array.num_elements
    ns = frame.num_samples
    fs = frame.fs
    rf = np.zeros_like(X)
    static_apod = np.hanning(n_el) if cfg.apodization == "hann" else None
    for rx in range(n_el):
        d_rx = np.hypot(X - ex[rx], Z)
        s = ((d_tx + d_rx) / cfg.c_bf - frame.t0) * fs
        i0 = np.floor(s).astype(np.int64)
        frac = s - i0
        valid = (i0 >= 0) & (i0 < ns - 1)
        i0c = np.where(valid, i0, 0)
        ch = frame.samples[rx]
        val = (1.0 - frac) * ch[i0c] + frac * ch[np.minimum(i0c + 1, ns - 1)]
        val = np.where(valid, val, 0.0)
        if static_apod is not None:
            val = val * static_apod[rx]
        rf += val
    return rf


ALIGNED = ImagingGrid(x0=-6e-3, z0=4e-3, dx=1.5e-4, dz=5e-5, nx=81, nz=120)
# dx does not divide the pitch and x0 is off the element lattice, so
# nearly every element-column offset is distinct
UNALIGNED = ImagingGrid(x0=-7.3127e-3, z0=4e-3, dx=2.137e-4, dz=5e-5,
                        nx=70, nz=120)


def noise_frame(tx, num_samples, t0=1e-7, fs=4e7, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((128, num_samples)).astype(np.float32)
    return ChannelFrame(tx_element=tx, samples=samples, t0=t0, fs=fs)


def guarded_frame(tx, num_samples):
    """noise_frame's record in memory that an unreadable page follows, so
    a pass that reads past the last sample of the last receiver faults
    instead of reading whatever lies there."""
    page = mmap.PAGESIZE
    nbytes = 128 * num_samples * 4
    size = -(-nbytes // page) * page
    buf = mmap.mmap(-1, size + page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    mprotect = ctypes.CDLL(None, use_errno=True).mprotect
    mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    assert mprotect(base + size, page, 0) == 0, ctypes.get_errno()
    samples = np.frombuffer(buf, np.float32, count=nbytes // 4,
                            offset=size - nbytes).reshape(128, num_samples)
    samples[:] = noise_frame(tx, num_samples).samples
    return replace(noise_frame(tx, 1), samples=samples)


def sample_indices(frame, array, cfg):
    """Interpolation index of every pixel and receiver, (nz, nx, n_el)."""
    X, Z = cfg.grid.meshgrid()
    tx_x, _ = element_position(array, frame.tx_element)
    d = np.hypot(X - tx_x, Z)[..., None] + np.hypot(
        X[..., None] - array.element_x(), Z[..., None])
    return np.floor((d / cfg.c_bf - frame.t0) * frame.fs)


def sample_index_range(frame, array, cfg):
    """Smallest and largest interpolation index the grid asks for."""
    s = sample_indices(frame, array, cfg)
    return s.min(), s.max()


KERNEL_CASES = pytest.mark.parametrize(
    "tx, num_samples, grid, apodization, inside",
    [
        (63, 1600, ALIGNED, "none", True),
        (63, 700, ALIGNED, "none", False),
        (63, 1600, ALIGNED, "hann", True),
        (63, 1600, UNALIGNED, "none", True),
        (0, 1600, ALIGNED, "none", True),
        (127, 700, UNALIGNED, "hann", False),
    ],
    ids=["inside", "past-record-end", "hann", "unaligned", "tx0",
         "tx127-unaligned-hann-past-end"],
)


def assert_close_to_distance_formula(frame, array, cfg, out):
    """The sample-unit kernel rounds differently from the distance
    formula it replaced, by about 1e-14 of the largest rf value."""
    old = distance_das(frame, array, cfg)
    assert np.abs(out.rf - old).max() <= 1e-12 * np.abs(old).max()


class TestDistanceTableKernel:
    """das_beamform against reference_das, byte for byte, and against
    distance_das within 1e-12 of the largest rf value, on the kernel
    the module loaded: the compiled one where a C compiler is found.
    TestNumPyLoop runs the same checks on the NumPy loop."""

    @KERNEL_CASES
    @pytest.mark.parametrize("c_bf", [1400.0, 1522.5])
    def test_matches_reference(self, tx, num_samples, grid, apodization,
                               inside, c_bf):
        array = TransducerArray()
        frame = noise_frame(tx, num_samples)
        cfg = BFConfig(c_bf=c_bf, grid=grid, apodization=apodization)
        lo, hi = sample_index_range(frame, array, cfg)
        assert lo >= 0
        assert (hi < num_samples - 1) == inside
        out = das_beamform(frame, array, cfg)
        ref = reference_das(frame, array, cfg)
        assert out.rf.shape == ref.shape == (grid.nz, grid.nx)
        assert out.rf.dtype == ref.dtype
        assert out.rf.flags.c_contiguous
        assert out.rf.tobytes() == ref.tobytes()

    def test_record_start_is_masked(self):
        """Pixels whose echo time precedes the first sample read zero."""
        array = TransducerArray()
        frame = noise_frame(63, 1200, t0=1.5e-5)
        cfg = BFConfig(c_bf=1500.0, grid=ALIGNED)
        lo, _ = sample_index_range(frame, array, cfg)
        assert lo < 0
        out = das_beamform(frame, array, cfg)
        assert out.rf.tobytes() == reference_das(frame, array, cfg).tobytes()

    @KERNEL_CASES
    @pytest.mark.parametrize("c_bf", [1400.0, 1522.5])
    def test_close_to_distance_formula(self, tx, num_samples, grid,
                                       apodization, inside, c_bf):
        array = TransducerArray()
        frame = noise_frame(tx, num_samples)
        cfg = BFConfig(c_bf=c_bf, grid=grid, apodization=apodization)
        assert_close_to_distance_formula(
            frame, array, cfg, das_beamform(frame, array, cfg))

    def test_quick_recon_frame_close_to_distance_formula(self, quick_cfg):
        frame = simulate_frames(quick_cfg, tx_list=[40])[40]
        cfg = BFConfig(c_bf=1522.5, grid=quick_cfg.full_grid())
        out = das_beamform(frame, quick_cfg.array, cfg)
        assert np.abs(out.rf).max() > 0
        assert_close_to_distance_formula(frame, quick_cfg.array, cfg, out)

    def test_one_receiver_past_record_end(self):
        """Only the receiver farthest from the deepest pixels needs the
        mask, so a range bound that misses part of s shows."""
        array = TransducerArray()
        cfg = BFConfig(c_bf=1500.0, grid=ALIGNED)
        per_rx = sample_indices(noise_frame(127, 2), array, cfg).max(
            axis=(0, 1))
        top = int(np.argmax(per_rx))
        num_samples = int(per_rx[top]) - 1
        past = np.flatnonzero(per_rx >= num_samples - 1)
        assert past.tolist() == [top]
        frame = noise_frame(127, num_samples)
        assert np.count_nonzero(
            sample_indices(frame, array, cfg)[..., top] >= num_samples - 1
        ) > 0
        out = das_beamform(frame, array, cfg)
        assert out.rf.tobytes() == reference_das(frame, array, cfg).tobytes()

    def test_table_memory_is_bounded_on_unaligned_grid(self):
        array = TransducerArray()
        frame = noise_frame(40, 1200)
        cfg = BFConfig(c_bf=1500.0, grid=UNALIGNED)
        offsets = np.abs(UNALIGNED.x_coords()[None, :]
                         - array.element_x()[:, None])
        # one table for all receivers would hold ~128 images
        assert np.unique(offsets).size > 100 * UNALIGNED.nx
        image = UNALIGNED.nx * UNALIGNED.nz * 8
        tracemalloc.start()
        try:
            das_beamform(frame, array, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a table of TABLE_IMAGES = 16 images plus about 6 images of
        # transmit leg, offsets and output (22 in all); the NumPy loop's
        # s, val and idx add 3 (25); the per-receiver loop before the
        # table peaked at 14 images
        assert peak < 32 * image


class TestScalarKernel(TestDistanceTableKernel):
    """Every check above on the scalar compiled pass, the one hosts
    without AVX-512F run."""

    @pytest.fixture(autouse=True)
    def scalar_pass(self, monkeypatch):
        if PASSES["compiled"] is None:
            pytest.skip("no compiled DAS pass on this host")
        monkeypatch.setattr(kernels, "DAS", PASSES["compiled"])


class TestNumPyLoop(TestDistanceTableKernel):
    """The kernel axis: every check above on the NumPy loop, the pass
    that runs where no compiled kernel loads."""

    @pytest.fixture(autouse=True)
    def numpy_loop(self, monkeypatch):
        monkeypatch.setattr(kernels, "DAS", None)
