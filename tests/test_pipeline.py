"""Config files, stage orchestration, reporting, and the CLI contract."""

import contextlib
import hashlib
import io
import json
import re
import shutil
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from soscorr.cli import main as cli_main
from soscorr.pipeline import (
    ESTIMATION_ROI,
    RECON_TRACKING,
    ConfigError,
    PipelineConfig,
    apply_quick,
    cmd_reconstruct,
    cmd_report,
    cmd_simulate,
    correct_case,
    dump_config,
    load_config,
    recon_search_radius,
    region_labels,
    run_calibration_sweep,
    simulate_frames,
    write_record,
)
from soscorr import beamform, kernels, metrics, pipeline
from soscorr.calibrate import (CalibrationDataset, CalibrationEntry,
                               CalibrationModel, build_calibration,
                               export_sweep, load_model, save_model)
from soscorr.geometry import ImagingGrid, element_position
from soscorr.metrics import cnr_db, contrast, rmse_map
from soscorr.regress import (
    EmptyPatternError,
    InsufficientDataError,
    RankDeficiencyError,
)
from soscorr.synthsim import (SOS_MAX, SOS_MIN, Inclusion, read_frame_set,
                              write_frame_set)
from soscorr.tomo import build_path_matrix
from tests.test_tomo import full_path_matrix

CHEAP_CONFIG = """\
[scatterers]
density = 0.5
seed = 7

[reconstruction]
pairs = 55,65
"""

# the estimation grid of the cheap config with --quick, and of the
# default config, as a model file names them
QUICK_GRID = pipeline._grid_line(apply_quick(PipelineConfig()).estimation_grid())
FULL_GRID = pipeline._grid_line(PipelineConfig().estimation_grid())

# a model whose invertible slope range excludes any observed slope
NARROW_MODEL = f"""\
soscorr calibration model v1
convention delta_c = c_bf - c
estimation_grid {QUICK_GRID}
degree 1
domain -1.0 1.0
coefficients 0.0 1e-15
training_indices 0 1
sweep_metadata_hash 0
"""

# keys that a resolved config of an earlier version holds and that are
# now fixed or renamed: the ROI and its origin, the estimation
# apodization, the two tracker setups, the fit method, the TV weights,
# the numbered inclusion keys, the probe, the pulse, the axial pixel,
# the solver settings, the estimation pair and the calibration degree
REMOVED_KEYS = [
    "[roi]\nreference = pair_midpoint\n",
    "[roi]\ndepth_min = 0.0075\n",
    "[roi]\ndepth_max = 0.015\n",
    "[roi]\ntheta_min = -0.4\n",
    "[roi]\ntheta_max = 0.4\n",
    "[roi]\nnum_bins = 40\n",
    "[medium]\ninclusion1 = ellipse -0.004 0.02 0.005 0.004 1540.0\n",
    "[estimation]\napodization = hann\n",
    "[tracking]\nwindow_len = 96\n",
    "[tracking]\nsearch_radius = 16\n",
    "[tracking]\naxial_step = 2\n",
    "[tracking]\nlateral_step = 1\n",
    "[tracking]\nmin_ncc = 0.2\n",
    "[regression]\nmethod = robust\n",
    "[estimation]\nwindow_len = 224\n",
    "[reconstruction]\naxial_step = 16\n",
    "[reconstruction]\nlateral_step = 2\n",
    "[reconstruction]\ntv_axial_weight = 1.0\n",
    "[reconstruction]\ntv_lateral_weight = 0.5\n",
    "[array]\nnum_elements = 128\n",
    "[array]\npitch = 0.0003\n",
    "[pulse]\ncenter_frequency = 5000000.0\n",
    "[pulse]\nhalf_cycles = 4\n",
    "[pulse]\nsampling_frequency = 160000000.0\n",
    "[grids]\nbf_dz = 3.75e-05\n",
    "[grids]\nbf_z0 = 0.005\n",
    "[reconstruction]\nlam = 0.1\n",
    "[reconstruction]\nl1_epsilon = 0.01\n",
    "[reconstruction]\nmax_iter = 500\n",
    "[estimation]\npair = 55,65\n",
    "[calibration]\ndegree = 1\n",
]


def unknown_key_error(text):
    """The error for the one-key config text: an unknown key, or an
    unknown section when the key's whole section is gone."""
    section, line = text.splitlines()
    key = line.partition(" =")[0]
    return rf"unknown (key '{key}' in section|config section) {re.escape(section)}"


def roundtrip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_text(dump_config(cfg))
        return load_config(path)


lengths = st.floats(1e-5, 1e-3)
# a pair transmits on two distinct elements
element_pairs = st.lists(st.integers(0, 127), min_size=2, max_size=2,
                         unique=True).map(tuple)
inclusions = st.builds(
    Inclusion,
    shape=st.sampled_from(["ellipse", "rectangle"]),
    # inside the default slowness grid's x [-19.05, 19.05] mm and
    # z [0, 39] mm, as an inclusion outside the medium is refused
    center=st.tuples(st.floats(-0.019, 0.019), st.floats(0.0, 0.038)),
    half_axes=st.tuples(st.floats(1e-4, 0.01), st.floats(1e-4, 0.01)),
    sos=st.floats(SOS_MIN, SOS_MAX),
)
# a valid value for every field the config file sets, by field name
FIELD_VALUES = {
    "background_sos": st.floats(SOS_MIN, SOS_MAX),
    "inclusions": st.lists(inclusions, max_size=3).map(tuple),
    "scatterer_density": st.floats(0.01, 20.0),
    "seed": st.integers(0, 2**32),
    "noise_snr_db": st.none() | st.floats(-20.0, 80.0),
    "bf_dx": lengths,
    # deep enough for the reconstruction tracker on the default pairs,
    # which needs 5.14 mm
    "bf_depth": st.floats(0.006, 0.08),
    "slow_nx": st.integers(2, 128),
    "slow_nz": st.integers(2, 128),
    "recon_pairs": st.lists(element_pairs, min_size=1, max_size=8).map(tuple),
}


# a degree-1 model that inverts any slope the cheap config's frames give
WIDE_MODEL = CalibrationModel(degree=1, coefficients=np.array([0.0, 1e-9]),
                              domain=(-1e3, 1e3), training_indices=(0, 1),
                              metadata={"estimation_grid": QUICK_GRID})

# the cheap config with a background outside the 1300-1700 m/s band
HOT_BACKGROUND = CHEAP_CONFIG + "\n[medium]\nbackground_sos = 1800\n"

# the error for an inclusion that misses the slowness grid, and the
# cheap config with an inclusion 0.5 m beside the medium
OUTSIDE_MEDIUM = r"\[medium\] inclusions: 'ellipse .*' lies outside the medium"
OUTSIDE_INCLUSION = (CHEAP_CONFIG + "\n[medium]\n"
                     "inclusions = ellipse 0.5 0.02 0.004 0.003 1540\n")


def cheap_cfg():
    cfg = PipelineConfig(scatterer_density=0.5, seed=7,
                         recon_pairs=((55, 65),))
    return apply_quick(cfg)


class TestConfigFiles:
    def test_dump_load_roundtrip(self, tmp_path):
        cfg = PipelineConfig(
            background_sos=1540.0,
            inclusions=(
                Inclusion("ellipse", (1e-3, 0.02), (4e-3, 3e-3), 1560.0),
            ),
            scatterer_density=2.0,
            seed=99,
            noise_snr_db=30.0,
            slow_nx=24,
            recon_pairs=((40, 56), (72, 88)),
        )
        path = tmp_path / "cfg.ini"
        path.write_text(dump_config(cfg))
        back = load_config(path)
        assert back.background_sos == cfg.background_sos
        assert back.inclusions == cfg.inclusions
        assert back.noise_snr_db == cfg.noise_snr_db
        assert back.seed == cfg.seed
        assert back.slow_nx == 24
        assert back.recon_pairs == ((40, 56), (72, 88))

    def test_every_table_field_has_a_strategy(self):
        assert [row[2] for row in pipeline._FIELDS] == list(FIELD_VALUES)

    @given(row=st.sampled_from(pipeline._FIELDS), data=st.data())
    def test_changed_field_roundtrips(self, row, data):
        """Any one field changed from its default dumps and loads back."""
        name = row[2]
        default = PipelineConfig()
        cfg = replace(default, **{name: data.draw(FIELD_VALUES[name])})
        assume(cfg != default)
        back = roundtrip(cfg)
        assert back == cfg
        assert dump_config(back) == dump_config(cfg)

    def test_inclusions_keep_numeric_order(self):
        """Overlapping inclusions: the last one wins, so order matters."""
        incs = tuple(
            Inclusion("ellipse", (0.0, 0.02), (4e-3, 3e-3), 1400.0 + 10 * i)
            for i in range(12)
        )
        cfg = PipelineConfig(inclusions=incs)
        back = roundtrip(cfg)
        assert back.inclusions == incs
        grid = cfg.slow_grid()
        assert np.array_equal(back.medium().rasterize(grid),
                              cfg.medium().rasterize(grid))

    @pytest.mark.parametrize("key", ["inclusion", "inclusion_a", "inclusionx1"])
    def test_inclusion_key_needs_a_number(self, tmp_path, key):
        """No key but inclusions sets an inclusion: a singular, numbered
        or misspelt key is unknown and named."""
        path = tmp_path / "cfg.ini"
        path.write_text(f"[medium]\n{key} = ellipse 0 0.02 0.004 0.003 1540\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("section, line", [
        ("reconstruction", "pairs = 40,56 72"),
        ("grids", "slow_nx = 9.5"),
        ("simulation", "noise_snr_db = loud"),
        ("simulation", "noise_snr_db = nan"),
        ("simulation", "noise_snr_db = inf"),
        ("simulation", "noise_snr_db = -inf"),
        ("medium", "background_sos = 15%"),
        ("reconstruction", "pairs = 40,56 120,136"),
        ("grids", "slow_nx = 0"),
        ("scatterers", "density = nan"),
        ("medium", "inclusions = ellipse nan 0.02 0.004 0.003 1540"),
    ])
    def test_bad_value_names_section_and_key(self, tmp_path, section, line):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_config(path)

    @pytest.mark.parametrize("text", REMOVED_KEYS)
    def test_removed_keys_are_unknown(self, tmp_path, text):
        """A resolved config that still sets a fixed value is refused,
        naming the key or its section."""
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=unknown_key_error(text)):
            load_config(path)

    def test_unparseable_file_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[grids]\nslow_nx = 24\nslow_nx = 32\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[bogus]\nx = 1\n")
        with pytest.raises(ConfigError, match="section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[grids]\nwibble = 1\n")
        with pytest.raises(ConfigError, match="wibble"):
            load_config(path)

    def test_bad_inclusion_string(self, tmp_path):
        """A line with too few values is refused, also when it is not
        the first line of the inclusions value."""
        path = tmp_path / "cfg.ini"
        for value in ("ellipse 0 0.02",
                      "ellipse 0 0.02 0.004 0.003 1540\n    rectangle 0 0.02"):
            path.write_text(f"[medium]\ninclusions = {value}\n")
            with pytest.raises(ConfigError, match=r"\[medium\] inclusions = "
                               ".*'shape cx cz hx hz sos'"):
                load_config(path)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 3\n",
        "[DEFAULT]\nseed = 3\n\n[grids]\nslow_nx = 24\n",
    ], ids=["alone", "with-section"])
    def test_default_section_rejected(self, tmp_path, text):
        """configparser keeps [DEFAULT] out of sections() and copies its
        keys into every other section, so it must be refused by name."""
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ConfigError,
                           match=r"^unknown config section \[DEFAULT\]$"):
            load_config(path)

    def test_blank_lines_in_inclusions_are_skipped(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[medium]\ninclusions =\n"
                        "    ellipse 0 0.02 0.004 0.003 1540\n\n"
                        "    rectangle 0.001 0.02 0.002 0.002 1480\n")
        assert load_config(path).inclusions == (
            Inclusion("ellipse", (0.0, 0.02), (0.004, 0.003), 1540.0),
            Inclusion("rectangle", (0.001, 0.02), (0.002, 0.002), 1480.0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")


class TestDerivedConfig:
    @pytest.mark.parametrize("kwargs, key", [
        ({"bf_dx": np.nan}, r"\[grids\] bf_dx"),
        ({"bf_dx": -1.0}, r"\[grids\] bf_dx"),
        ({"bf_depth": 0.0}, r"\[grids\] bf_depth"),
        ({"bf_depth": np.inf}, r"\[grids\] bf_depth"),
        ({"slow_nx": 0}, r"\[grids\] slow_nx"),
        ({"slow_nz": 0}, r"\[grids\] slow_nz"),
        ({"scatterer_density": np.nan}, r"\[scatterers\] density"),
    ], ids=["dx-nan", "dx-negative", "depth-zero", "depth-inf",
            "slow-nx-zero", "slow-nz-zero", "density-nan"])
    def test_bad_grid_rejected_at_construction(self, kwargs, key):
        """Not later, when a grid is built or a frame simulated."""
        with pytest.raises(ConfigError, match=key + " = .*must be finite"):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_snr_rejected_at_construction(self, snr):
        with pytest.raises(ConfigError, match=r"\[simulation\] noise_snr_db "
                           "= .*must be finite"):
            PipelineConfig(noise_snr_db=snr)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, r"\[scatterers\] seed = -1: must be >= 0"),
        ({"background_sos": 1800.0},
         r"\[medium\] background_sos = 1800.0: must be in \[1300.0, 1700.0\]"),
        ({"background_sos": 1299.0}, r"\[medium\] background_sos = 1299.0"),
        ({"background_sos": np.nan}, r"\[medium\] background_sos = nan"),
    ], ids=["seed-negative", "background-high", "background-low",
            "background-nan"])
    def test_bad_medium_value_rejected_at_construction(self, kwargs, message):
        """Not later, when the scatterers are drawn or the medium built."""
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("center", [(0.5, 0.02), (0.0, 0.1),
                                        (0.0, -0.01)],
                             ids=["beside", "below", "above"])
    def test_inclusion_outside_the_medium_rejected(self, center):
        """Not dropped from the medium, which would leave it homogeneous."""
        inc = Inclusion("ellipse", center, (0.004, 0.003), 1540.0)
        with pytest.raises(ConfigError, match=OUTSIDE_MEDIUM):
            PipelineConfig(inclusions=(inc,))

    def test_quick_grid_rejects_an_inclusion_below_it(self):
        """The slowness grid reaches 39 mm deep, and 33 mm with --quick."""
        cfg = PipelineConfig(inclusions=(
            Inclusion("ellipse", (0.0, 0.037), (0.004, 0.003), 1540.0),))
        with pytest.raises(ConfigError, match=OUTSIDE_MEDIUM):
            apply_quick(cfg)

    def test_inclusion_across_the_medium_edge_is_kept(self):
        inc = Inclusion("rectangle", (0.021, 0.02), (0.004, 0.003), 1540.0)
        assert PipelineConfig(inclusions=(inc,)).inclusions == (inc,)

    def test_roi_origin_is_the_pair_midpoint(self):
        """The estimation pair is two elements on the array, 55 and 65 at
        -2.55 and +0.45 mm, so the fixed ROI's origin is -1.05 mm,
        exactly their midpoint."""
        pair = PipelineConfig.estimation_pair
        assert len(set(pair)) == 2
        assert set(pair) <= set(range(PipelineConfig.array.num_elements))
        a, b = (element_position(PipelineConfig.array, e)[0] for e in pair)
        assert ESTIMATION_ROI.reference_x == -1.05e-3 == 0.5 * (a + b)

    @pytest.mark.parametrize("kwargs", [
        {"recon_pairs": ((40, 56), (120, 128))},
        # the pairs are checked before the grid depth their search needs
        {"recon_pairs": ((40, 56), (120, 128)), "bf_depth": 0.002},
    ], ids=["recon-128", "recon-128-shallow-grid"])
    def test_pair_element_off_the_array_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=r"\[reconstruction\] pairs: "
                           "element .* not on the"):
            PipelineConfig(**kwargs)

    def test_grid_too_shallow_for_the_recon_tracker_rejected(self):
        """The reconstruction tracker's window and its lag search at
        SOS_MAX, the widest in the band, must fit the grid: 96 + 2 x 21
        rows for the default pairs. Refused when the config is built,
        not after the recon transmits are beamformed."""
        r = recon_search_radius(PipelineConfig(), SOS_MAX)
        assert r == max(recon_search_radius(PipelineConfig(), c)
                        for c in np.linspace(SOS_MIN, SOS_MAX, 41))
        rows = RECON_TRACKING.window_len + 2 * r
        dz = PipelineConfig.bf_dz
        assert PipelineConfig(bf_depth=(rows - 1) * dz).full_grid().nz == rows
        with pytest.raises(ConfigError, match=rf"\[grids\] bf_depth = .*: "
                           rf"{rows - 1} rows, fewer than .* window 96 \+ "
                           rf"2 x search {r}"):
            PipelineConfig(bf_depth=(rows - 2) * dz)

    def test_required_tx_default(self):
        cfg = PipelineConfig()
        txs = cfg.required_tx()
        # union of the estimation pair {55, 65} and the 7 distinct elements
        # of the chained default reconstruction pairs
        assert txs == [24, 40, 55, 56, 65, 72, 88, 104, 120]

    def test_apply_quick_coarsens(self):
        cfg = apply_quick(PipelineConfig())
        assert cfg.scatterer_density <= 2.0
        assert cfg.bf_dx == pytest.approx(3.0e-4)
        assert cfg.slow_nx == 24 and cfg.slow_nz == 24
        assert len(cfg.recon_pairs) == 3

    def test_recon_nodes_are_a_sixth_of_a_window_apart(self):
        assert RECON_TRACKING.axial_step * 6 == RECON_TRACKING.window_len

    def test_apply_quick_keeps_coarser_grid_spacing(self, tmp_path):
        path = tmp_path / "grids.ini"
        path.write_text("[grids]\nbf_dx = 6e-4\n")
        assert apply_quick(load_config(path)).bf_dx == 6e-4

    def test_apply_quick_keeps_small_pair_lists(self):
        cfg = apply_quick(PipelineConfig(recon_pairs=((55, 65),)))
        assert cfg.recon_pairs == ((55, 65),)

    def test_slow_grid_shape(self):
        cfg = PipelineConfig()
        g = cfg.slow_grid()
        assert (g.nz, g.nx) == (32, 32)

    @pytest.mark.parametrize("c_bf", [1400.0, 1500.0, 1600.0])
    def test_recon_search_radius_covers_uniform_band_edges(self, c_bf):
        """A uniform medium at either end of the sanity band must give
        reconstruction-pair lags whose peak lies inside the search range."""
        cfg = PipelineConfig()
        r = recon_search_radius(cfg, c_bf)
        g = cfg.full_grid()
        nodes = ImagingGrid(x0=g.x0, z0=g.z0, dx=4 * g.dx, dz=8 * g.dz,
                            nx=g.nx // 4, nz=g.nz // 8)
        sg = cfg.slow_grid()
        A = full_path_matrix(list(cfg.recon_pairs), nodes, sg,
                             cfg.array).matrix
        worst = max(
            np.abs(A @ np.full(sg.nx * sg.nz, 1.0 / sos - 1.0 / c_bf)).max()
            * c_bf / (2.0 * cfg.bf_dz)
            for sos in (SOS_MIN, SOS_MAX)
        )
        assert 0.5 * (r - 1) < worst <= r - 1


class TestSimulateStage:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = cheap_cfg()
        a = tmp_path / "run_a"
        b = tmp_path / "run_b"
        cmd_simulate(cfg, a)
        cmd_simulate(cfg, b)
        for name in ("MANIFEST.txt", "gt_sos.csv", "config_resolved.ini",
                     "frame_tx055.sosc", "frame_tx065.sosc"):
            assert (a / name).exists(), name
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_gt_map_matches_background(self, tmp_path):
        cfg = cheap_cfg()
        out = tmp_path / "run"
        cmd_simulate(cfg, out)
        gt = np.loadtxt(out / "gt_sos.csv", delimiter=",")
        assert gt.shape == (cfg.slow_nz, cfg.slow_nx)
        assert np.allclose(gt, 1500.0)

    def test_different_seed_changes_frames(self, tmp_path):
        cfg = cheap_cfg()
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_simulate(cfg, a)
        cmd_simulate(replace(cfg, seed=8), b)
        assert (a / "frame_tx055.sosc").read_bytes() != \
            (b / "frame_tx055.sosc").read_bytes()

    @pytest.mark.parametrize("synth", ["loaded", "numpy"])
    def test_frames_stream_to_disk(self, tmp_path, monkeypatch, synth):
        """cmd_simulate writes each transmit before it simulates the next:
        the same manifest as writing the collected frames, at a traced
        peak below 2 frames of 6, with the pulse sum as loaded and with
        kernels.SYNTH None. The float32 frame, whose rows are cast
        as they are simulated and which is written and hashed from its
        own buffer, takes 1; the receive working set the rest, at most
        about half a frame at this density (the NumPy pulse sum's
        per-thread index and pulse arrays). A float64 frame and its
        float32 copy would take 3, and holding every frame, as
        collecting them does, near 8."""
        if synth == "numpy":
            monkeypatch.setattr(kernels, "SYNTH", None)
        cfg = apply_quick(PipelineConfig(scatterer_density=0.5))
        assert len(cfg.required_tx()) == 6
        whole = tmp_path / "whole"
        frames = simulate_frames(cfg)
        write_frame_set(whole, frames.values(), cfg.medium())
        frame_bytes = frames[cfg.required_tx()[0]].samples.nbytes
        del frames
        streamed = tmp_path / "streamed"
        tracemalloc.start()
        try:
            cmd_simulate(cfg, streamed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (streamed / "MANIFEST.txt").read_text() \
            == (whole / "MANIFEST.txt").read_text()
        assert peak < 2 * frame_bytes


class TestCalibrationSweep:
    @pytest.mark.parametrize("half_range", [-5.0, 42.0, 5.0],
                             ids=["range", "off-step", "one-step"])
    def test_bad_sweep_fails_before_simulating(self, tmp_path, monkeypatch,
                                               half_range):
        """A half-range off the step would leave the model's domain short
        of it on one side; one step would leave one offset held out,
        whose R^2 is undefined."""
        def no_simulation(*args, **kw):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        with pytest.raises(ConfigError, match="calibration range"):
            pipeline.cmd_calibrate(cheap_cfg(), tmp_path, half_range)

    def test_calibrate_writes_the_recipe(self, tmp_path):
        """calibration_model.txt is the calibration_degree fit on every
        offset of the 17-offset sweep at 5 m/s steps; calibrate.json
        holds the held-out row of that degree fitted on every second
        offset, the split calibration_sweep.csv marks."""
        cfg = cheap_cfg()
        pipeline.cmd_calibrate(cfg, tmp_path)
        frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
        sweep = run_calibration_sweep(cfg, frames, step=5.0,
                                      degrees=(cfg.calibration_degree,),
                                      train_selector="every-2")
        expected = build_calibration(sweep.dataset,
                                     degree=cfg.calibration_degree,
                                     train_selector="every-1")
        model = load_model(tmp_path / "calibration_model.txt")
        assert model.degree == expected.degree
        assert model.coefficients.tobytes() == expected.coefficients.tobytes()
        assert model.domain == expected.domain == (-40.0, 40.0)
        assert model.training_indices == tuple(range(17))
        assert json.loads((tmp_path / "calibrate.json").read_text()) == \
            {"rows": sweep.report_rows,
             **loaded_passes("das_kernel", "synth_kernel")}
        [row] = sweep.report_rows
        assert (row["n_train"], row["n_test"]) == (9, 8)
        table = (tmp_path / "calibration_sweep.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in table[1:]] == \
            ["train", "test"] * 8 + ["train"]

    def test_thread_count_does_not_change_sweep(self):
        """The sweep's threads share nothing that changes a fit."""
        cfg = apply_quick(PipelineConfig(threads=1))
        frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
        # every-2 holds out -10 and +10: the held-out R^2 needs two points
        runs = [
            run_calibration_sweep(
                replace(cfg, threads=t), frames, delta_c_min=-20.0,
                delta_c_max=20.0, step=10.0, degrees=(1,),
                train_selector="every-2",
            )
            for t in (1, 2, 4)
        ]
        one = runs[0].dataset.entries
        assert [e.delta_c for e in one] == [-20.0, -10.0, 0.0, 10.0, 20.0]
        for run in runs[1:]:
            assert [e.slope for e in run.dataset.entries] == \
                [e.slope for e in one]
        assert np.all(np.diff([e.slope for e in one]) > 0)

    def test_model_records_its_estimation_grid(self, monkeypatch, tmp_path):
        """The sweep's metadata, and so its models and the model file,
        name the estimation grid the slopes were measured on."""
        def linear_fit(frames, c_bf, cfg, table=None):
            return SimpleNamespace(slope=c_bf * 1e-9, r_squared=1.0), None, None

        monkeypatch.setattr(pipeline, "estimate_slope", linear_fit)
        sweep = run_calibration_sweep(apply_quick(PipelineConfig()), {},
                                      step=20.0, degrees=(1,))
        assert sweep.dataset.metadata["estimation_grid"] == QUICK_GRID
        assert QUICK_GRID == ("x0 -0.008444414079890914, z0 0.0025, "
                              "dx 0.0003, dz 3.75e-05, nx 51, nz 492")
        path = tmp_path / "calibration_model.txt"
        save_model(path, sweep.models[1])
        assert f"estimation_grid {QUICK_GRID}\n" in path.read_text()
        assert load_model(path).metadata["estimation_grid"] == QUICK_GRID

    def test_one_held_out_point_is_insufficient(self, monkeypatch):
        """The held-out R^2 of one point is an error, not 0."""
        def linear_fit(frames, c_bf, cfg, table=None):
            return SimpleNamespace(slope=c_bf * 1e-9, r_squared=1.0), None, None

        monkeypatch.setattr(pipeline, "estimate_slope", linear_fit)
        with pytest.raises(InsufficientDataError):
            run_calibration_sweep(
                apply_quick(PipelineConfig()), {}, delta_c_min=-20.0,
                delta_c_max=20.0, step=20.0, degrees=(1,),
                train_selector="every-2",
            )


def inclusion_cfg():
    return replace(
        cheap_cfg(), recon_pairs=((40, 56), (56, 72)),
        inclusions=(Inclusion("ellipse", (0.0, 18e-3), (5e-3, 4e-3),
                              1540.0),),
    )


# the keys of a reconstruct record that are not map scores
HEALTH_KEYS = {"converged", "iterations", "grad_norm", "message", "rows",
               "valid_fraction", "clamped_fraction", "das_kernel"}


def no_table(*args):
    raise AssertionError("a frame built its own receive table")


class TestSharedReceiveTable:
    """The receive table depends on neither the transmit nor c_bf, so
    each command builds it once per grid, before its workers start, and
    every frame and every c_bf reads that one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The grids pipeline.receive_table is called for; a table built
        inside das_beamform fails the test."""
        built = []
        build = beamform.receive_table

        def counting(array, grid):
            built.append(grid)
            return build(array, grid)

        monkeypatch.setattr(pipeline, "receive_table", counting)
        monkeypatch.setattr(beamform, "receive_table", no_table)
        return built

    def test_reconstruction_builds_one_table(self, tmp_path, builds):
        cfg = inclusion_cfg()
        cmd_simulate(cfg, tmp_path)
        maps = []
        for t in (1, 2):
            builds.clear()
            res = cmd_reconstruct(replace(cfg, threads=t), tmp_path, 1522.5)
            assert builds == [cfg.full_grid()]
            maps.append(res.sos_map.tobytes())
        assert maps[0] == maps[1]

    def test_sweep_builds_one_table(self, builds):
        cfg = apply_quick(PipelineConfig(threads=1))
        frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
        slopes = []
        for t in (1, 2):
            builds.clear()
            sweep = run_calibration_sweep(
                replace(cfg, threads=t), frames, delta_c_min=-20.0,
                delta_c_max=20.0, step=10.0, degrees=(1,),
                train_selector="every-2")
            assert builds == [cfg.estimation_grid()]
            slopes.append([e.slope for e in sweep.dataset.entries])
        assert len(slopes[0]) == 5
        assert slopes[0] == slopes[1]

    def test_record_splits_the_error_by_region(self, tmp_path):
        """With an inclusion in the frames' medium, reconstruct.json holds
        the map's RMSE over the inclusion's cells and over the rest, and
        that of a flat map at c_bf; together the regions make up
        rmse_vs_gt_mps. A region with no cell on the map is left out, and
        so are the contrasts and the CNR, which need 2 cells in each."""
        cfg = inclusion_cfg()
        frames = tmp_path / "frames"
        cmd_simulate(cfg, frames)
        res = cmd_reconstruct(cfg, frames, 1522.5, out_dir=tmp_path / "out")
        metrics = json.loads((tmp_path / "out/reconstruct.json").read_text())
        grid = cfg.slow_grid()
        gt = cfg.medium().rasterize(grid)
        inc = cfg.inclusions[0].contains(*grid.meshgrid())
        assert 0 < np.count_nonzero(inc) < inc.size
        err = res.sos_map - gt
        expected = {
            "rmse_inclusion_mps": np.sqrt(np.mean(err[inc] ** 2)),
            "rmse_background_mps": np.sqrt(np.mean(err[~inc] ** 2)),
            "rmse_flat_mps": np.sqrt(np.mean((1522.5 - gt) ** 2)),
        }
        for key, value in expected.items():
            assert metrics[key] == pytest.approx(value, rel=1e-12)
        assert metrics["rmse_vs_gt_mps"] ** 2 * inc.size == pytest.approx(
            metrics["rmse_inclusion_mps"] ** 2 * np.count_nonzero(inc)
            + metrics["rmse_background_mps"] ** 2 * np.count_nonzero(~inc),
            rel=1e-9)
        assert metrics["rmse_flat_mps"] > 20.0
        # a map that ends above the inclusion has no inclusion cell, so
        # only the background is scored
        shallow = replace(cfg, inclusions=(), bf_depth=7e-3)
        assert shallow.slow_grid().z_max < 14e-3
        cmd_reconstruct(shallow, frames, 1500.0, out_dir=tmp_path / "shallow")
        metrics = json.loads(
            (tmp_path / "shallow/reconstruct.json").read_text())
        assert not {"rmse_inclusion_mps", "contrast_mps", "contrast_true_mps",
                    "cnr_db"} & set(metrics)
        assert metrics["rmse_background_mps"] == metrics["rmse_vs_gt_mps"]

    def test_homogeneous_record_has_no_regions(self, tmp_path):
        """Without an inclusion there is no region to split by, nor a
        contrast or CNR; the flat map is still scored."""
        cfg = replace(inclusion_cfg(), inclusions=())
        cmd_simulate(cfg, tmp_path)
        cmd_reconstruct(cfg, tmp_path, 1510.0, out_dir=tmp_path / "out")
        metrics = json.loads((tmp_path / "out/reconstruct.json").read_text())
        assert metrics["rmse_flat_mps"] == pytest.approx(10.0, rel=1e-12)
        assert set(metrics) - HEALTH_KEYS == {"rmse_vs_gt_mps",
                                              "rmse_flat_mps"}


class TestCorrectCase:
    def test_case_holds_its_records_scores(self, tmp_path):
        """A correction case's two maps carry the scores their
        reconstruct records hold, bit for bit, and its estimate is the
        one its estimate record holds. The contrast and the CNR are those
        metrics computes again from the map and the frames' medium."""
        cfg = inclusion_cfg()
        frames = cmd_simulate(cfg, tmp_path / "frames")
        out = tmp_path / "case"
        case = correct_case(cfg, frames, WIDE_MODEL, 1522.5, out_dir=out)
        assert case.c_bf_assumed == 1522.5
        estimated = json.loads((out / "estimate/estimate.json").read_text())
        assert estimated["corrected_sos_mps"] == case.estimate.corrected_sos
        labels = region_labels(cfg)
        for step in ("before", "after"):
            res = getattr(case, step)
            record = json.loads((out / step / "reconstruct.json").read_text())
            assert set(record) - HEALTH_KEYS == set(res.scores) == {
                "rmse_vs_gt_mps", "rmse_flat_mps", "rmse_inclusion_mps",
                "rmse_background_mps", "contrast_mps", "contrast_true_mps",
                "cnr_db"}
            for key, value in res.scores.items():
                assert struct.pack("<d", record[key]) == \
                    struct.pack("<d", value), key
            assert res.rmse_vs_gt == record["rmse_vs_gt_mps"]
            assert res.scores["contrast_mps"] == contrast(res.sos_map, labels)
            assert res.scores["cnr_db"] == cnr_db(res.sos_map, labels)
        gt = cfg.medium().rasterize(cfg.slow_grid())
        assert case.after.scores["contrast_true_mps"] == contrast(gt, labels)


class TestReconstructStage:
    def test_thread_count_does_not_change_map(self, tmp_path):
        """Two threads beamform three recon transmits, one of them alone;
        four threads are three, one per transmit."""
        cfg = inclusion_cfg()
        cmd_simulate(cfg, tmp_path)
        one, *more = (cmd_reconstruct(replace(cfg, threads=t), tmp_path,
                                      1522.5)
                      for t in (1, 2, 4))
        assert np.ptp(one.sos_map) > 0
        for run in more:
            assert run.sos_map.tobytes() == one.sos_map.tobytes()

    def test_frames_are_read_one_at_a_time(self, tmp_path):
        """At one thread, cmd_reconstruct holds one recon frame at a time:
        the quick set's four frames peak below 5 frames, near 3.
        Reading the set up front held all four, near 7."""
        cfg = apply_quick(PipelineConfig(scatterer_density=0.5))
        txs = [40, 56, 72, 88]
        assert sorted({e for p in cfg.recon_pairs for e in p}) == txs
        cmd_simulate(cfg, tmp_path)
        frame_bytes = max(f.samples.nbytes
                          for f in read_frame_set(tmp_path, txs).values())
        tracemalloc.start()
        try:
            cmd_reconstruct(cfg, tmp_path, 1522.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * frame_bytes


def loaded_passes(*names):
    """The passes of names that kernels picked at import, as a record
    names them: on a host with AVX-512F the vector DAS and trace and
    synth_rx's AVX-512F clone, else the scalar ones; "numpy" without the
    library."""
    lib = kernels.LIBRARY
    name = "numpy" if lib is None else "avx512" if lib.avx512() else \
        "compiled"
    return dict.fromkeys(names, name)


def recon_cfg():
    return replace(cheap_cfg(), recon_pairs=((40, 56), (56, 72)))


class TestReconMetrics:
    @pytest.fixture(scope="class")
    def frames_dir(self, tmp_path_factory):
        """The frames recon_cfg needs, with their ground truth."""
        return cmd_simulate(recon_cfg(), tmp_path_factory.mktemp("recon"))

    @pytest.fixture(scope="class")
    def run(self, frames_dir, tmp_path_factory):
        """(out_dir, result) of a reconstruction of frames_dir at 1500."""
        out = tmp_path_factory.mktemp("recon_out")
        return out, cmd_reconstruct(recon_cfg(), frames_dir, 1500.0,
                                    out_dir=out)

    def test_solver_health_is_written_without_ground_truth(
            self, frames_dir, tmp_path, monkeypatch):
        built = []

        def keep(pairs, meas_grid, *args):
            built.append((len(pairs), meas_grid.nx * meas_grid.nz,
                          build_path_matrix(pairs, meas_grid, *args)))
            return built[-1][2]

        frames = tmp_path / "frames"
        shutil.copytree(frames_dir, frames)
        (frames / "config_resolved.ini").unlink()
        monkeypatch.setattr(pipeline, "build_path_matrix", keep)
        out = tmp_path / "out"
        res = cmd_reconstruct(recon_cfg(), frames, 1500.0, out_dir=out)
        metrics = json.loads((out / "reconstruct.json").read_text())
        [(n_pairs, n_nodes, L)] = built
        rows = L.matrix.shape[0]
        assert metrics == {
            "converged": res.info.converged,
            "iterations": res.info.iterations,
            "grad_norm": res.info.grad_norm,
            "message": res.info.message,
            "rows": rows,
            "valid_fraction": rows / (n_pairs * n_nodes),
            "clamped_fraction": res.clamped_fraction,
            **loaded_passes("das_kernel"),
        }
        assert metrics["iterations"] > 0 and metrics["message"]
        assert 0 < metrics["valid_fraction"] <= 1
        assert res.clamped_fraction == 0.0
        assert res.rmse_vs_gt is None

    def test_rmse_is_added_with_ground_truth(self, frames_dir, run):
        """The ground truth is the medium of the frame directory's
        config_resolved.ini on the map's slowness grid."""
        out, res = run
        metrics = json.loads((out / "reconstruct.json").read_text())
        gt = load_config(frames_dir / "config_resolved.ini").medium() \
            .rasterize(recon_cfg().slow_grid())
        assert res.rmse_vs_gt == rmse_map(res.sos_map, gt)
        assert metrics["rmse_vs_gt_mps"] == res.rmse_vs_gt
        assert metrics["iterations"] == res.info.iterations
        assert {"rows", "valid_fraction", "clamped_fraction"} <= set(metrics)

    def test_map_is_written_once_with_its_grid(self, run):
        """One map file, sos_map.csv, beside a sidecar that names c_bf and
        holds the slowness grid as gt_sos.csv.txt does."""
        out, res = run
        assert sorted(p.name for p in out.iterdir()) == [
            "objective_trace.csv", "reconstruct.json", "sos_map.csv",
            "sos_map.csv.txt"]
        np.testing.assert_allclose(
            np.loadtxt(out / "sos_map.csv", delimiter=","), res.sos_map,
            rtol=0, atol=5e-7)
        lines = (out / "sos_map.csv.txt").read_text().splitlines()
        assert lines[1] == "c_bf 1500.0"
        assert lines[2:] == pipeline._grid_sidecar(
            "", recon_cfg().slow_grid()).splitlines()


# each pass a record names, and the kernels global that picks it
SWITCHES = {"das_kernel": "DAS", "trace_kernel": "TRACE",
            "synth_kernel": "SYNTH"}


def passes_cfg():
    """The cheap config with an inclusion, so the ray trace runs."""
    return replace(cheap_cfg(), inclusions=(
        Inclusion("ellipse", (0.0, 18e-3), (5e-3, 4e-3), 1540.0),))


class TestRecordPasses:
    """Each command's record names the passes it runs as
    kernels.passes() does: as loaded, and with each of DAS, TRACE and
    SYNTH set to None in turn. Where the command runs that pass its
    name reads "numpy" and the command writes the same bytes, the rest
    of its record included; where it does not, the record and the
    outputs are the same bytes."""

    @pytest.fixture(scope="class")
    def frames_dir(self, tmp_path_factory):
        """passes_cfg's frames, simulated with the passes as loaded."""
        return cmd_simulate(passes_cfg(), tmp_path_factory.mktemp("passes"))

    @staticmethod
    def check(tmp_path, run, command, outputs, ran):
        """run(out_dir) writes command.json, naming the passes of ran,
        and the files outputs into out_dir."""
        def written(label):
            run(tmp_path / label)
            return [(tmp_path / label / name).read_bytes()
                    for name in (f"{command}.json", *outputs)]

        loaded = written("loaded")
        record = json.loads(loaded[0])
        assert kernels.passes() == loaded_passes(*SWITCHES)
        assert {k: record[k] for k in SWITCHES if k in record} \
            == loaded_passes(*ran)
        for name, switch in SWITCHES.items():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, switch, None)
                assert kernels.passes() == {**loaded_passes(*SWITCHES),
                                            name: "numpy"}
                switched = written(switch)
                if name in ran:
                    assert json.loads(switched[0]) == {**record,
                                                       name: "numpy"}
                    assert switched[1:] == loaded[1:]
                else:
                    assert switched == loaded

    def test_simulate_record(self, tmp_path):
        self.check(tmp_path, lambda out: cmd_simulate(passes_cfg(), out),
                   "simulate", ["MANIFEST.txt"],
                   ["trace_kernel", "synth_kernel"])

    def test_homogeneous_simulate_record(self, tmp_path):
        """Without an inclusion the travel times take no ray trace, and
        simulate.json names the pulse sum alone."""
        self.check(tmp_path, lambda out: cmd_simulate(cheap_cfg(), out),
                   "simulate", ["MANIFEST.txt"], ["synth_kernel"])

    def test_calibrate_record(self, tmp_path):
        self.check(tmp_path, lambda out: pipeline.cmd_calibrate(
            cheap_cfg(), out, half_range=10.0), "calibrate",
            ["calibration_model.txt", "calibration_sweep.csv"],
            ["das_kernel", "synth_kernel"])

    def test_estimate_record(self, frames_dir, tmp_path):
        self.check(tmp_path, lambda out: pipeline.cmd_estimate(
            passes_cfg(), frames_dir, WIDE_MODEL, 1510.0, out_dir=out),
            "estimate", ["pattern.csv", "delay_map.csv"], ["das_kernel"])

    def test_reconstruct_record(self, frames_dir, tmp_path):
        def run(out):
            res = cmd_reconstruct(passes_cfg(), frames_dir, 1510.0,
                                  out_dir=out)
            # the map's own bytes, which sos_map.csv rounds
            np.save(out / "sos_map.npy", res.sos_map)

        self.check(tmp_path, run, "reconstruct",
                   ["sos_map.npy", "objective_trace.csv"], ["das_kernel"])


class TestCommandTables:
    """The CSV tables of estimate and reconstruct hold what the commands
    computed, to one unit in the last written digit."""

    @pytest.fixture(scope="class")
    def run(self, workspace, tmp_path_factory):
        """(out_dir, (fit, pattern, dmap), reconstruction): estimate and
        reconstruct of the workspace frames, both written to out_dir."""
        root, cfg_path = workspace
        cfg = apply_quick(load_config(cfg_path))
        out = tmp_path_factory.mktemp("tables")
        original = pipeline.estimate_slope
        kept = []

        def keep(*args):
            kept.append(original(*args))
            return kept[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "estimate_slope", keep)
            pipeline.cmd_estimate(cfg, root / "sim", WIDE_MODEL, 1510.0,
                                  out_dir=out)
        recon = cmd_reconstruct(cfg, root / "sim", 1510.0, out_dir=out)
        [estimated] = kept
        return out, estimated, recon

    @staticmethod
    def table(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def test_pattern_has_a_row_per_bin(self, run):
        out, (fit, pattern, _), _ = run
        lines = (out / "pattern.csv").read_text().splitlines()
        assert lines[0] == "theta_rad,median_delay_s,weight,fitted_value_s"
        table = self.table(out / "pattern.csv")
        assert table.shape == (pattern.thetas.size, 4)
        assert pattern.thetas.size > 1
        np.testing.assert_allclose(table[:, 0], pattern.thetas, rtol=0,
                                   atol=1e-6)
        np.testing.assert_allclose(table[:, 1], pattern.median_delays,
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(table[:, 2], pattern.weights, rtol=0,
                                   atol=1e-6)
        np.testing.assert_allclose(
            table[:, 3], fit.intercept + fit.slope * pattern.thetas,
            rtol=1e-9, atol=0)

    def test_estimate_record_holds_the_fit_health(self, run):
        """estimate.json holds the robust fit's iterations and convergence
        and the estimation map's valid fraction, as reconstruct.json
        does for its solve and maps."""
        out, (fit, _, dmap), _ = run
        record = json.loads((out / "estimate.json").read_text())
        assert set(record) == {
            "convention", "c_bf_assumed", "observed_slope_s_per_rad",
            "delta_c_hat_mps", "corrected_sos_mps", "fit_r_squared",
            "fit_iterations", "fit_converged", "valid_fraction",
            "das_kernel"}
        assert loaded_passes("das_kernel").items() <= record.items()
        assert record["fit_iterations"] == fit.iterations > 0
        assert record["fit_converged"] is fit.converged is True
        assert record["valid_fraction"] == dmap.valid.sum() / dmap.valid.size
        assert 0 < record["valid_fraction"] < 1

    def test_delay_map_has_a_row_per_node(self, run):
        out, (_, _, dmap), _ = run
        lines = (out / "delay_map.csv").read_text().splitlines()
        assert lines[0] == "x_m,z_m,delay_s,ncc,valid"
        table = self.table(out / "delay_map.csv")
        assert table.shape == (dmap.grid.nx * dmap.grid.nz, 5)
        X, Z = dmap.grid.meshgrid()
        for column, values in ((0, X), (1, Z)):
            np.testing.assert_allclose(table[:, column], values.ravel(),
                                       rtol=1e-6, atol=0)
        np.testing.assert_allclose(table[:, 2], dmap.delays.ravel(),
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(table[:, 3], dmap.ncc.ravel(), rtol=0,
                                   atol=1e-6)
        assert np.array_equal(table[:, 4], dmap.valid.ravel())
        assert 0 < dmap.valid.sum() < dmap.valid.size

    def test_objective_trace_has_a_row_per_iterate(self, run):
        out, _, recon = run
        table = self.table(out / "objective_trace.csv")
        assert table.shape == (recon.info.iterations + 1, 2)
        assert np.array_equal(table[:, 0], np.arange(table.shape[0]))
        np.testing.assert_allclose(table[:, 1], recon.info.objective_trace,
                                   rtol=1e-9, atol=0)

    def test_no_table_holds_a_carriage_return(self, run, workspace, tmp_path):
        """Every table ends its lines with LF alone; the calibration sweep
        is written by the exporter cmd_calibrate calls."""
        out, _, _ = run
        root, _ = workspace
        dataset = CalibrationDataset(entries=tuple(
            CalibrationEntry(dc, dc * 1e-9) for dc in (-10.0, 0.0, 10.0)))
        export_sweep(tmp_path / "calibration_sweep.csv", dataset, WIDE_MODEL)
        tables = [*out.glob("*.csv"), *(root / "sim").glob("*.csv"),
                  tmp_path / "calibration_sweep.csv"]
        assert sorted(p.name for p in tables) == [
            "calibration_sweep.csv", "delay_map.csv", "gt_sos.csv",
            "objective_trace.csv", "pattern.csv", "sos_map.csv"]
        assert [p.name for p in tables if b"\r" in p.read_bytes()] == []


class TestReport:
    def write_case(self, root, name, rmse_before, rmse_after):
        for step, rmse in (("before", rmse_before), ("after", rmse_after)):
            d = root / name / step
            d.mkdir(parents=True)
            write_record(d, "reconstruct", {"rmse_vs_gt_mps": rmse})

    def test_collects_records_per_command(self, tmp_path):
        run = tmp_path / "run"
        self.write_case(run, "caseB", 6.0, 2.0)
        self.write_case(run, "caseA", 10.0, 4.0)
        report = cmd_report(run)
        assert report == {
            "calibrate": [],
            "estimate": [],
            "reconstruct": [
                {"dir": "caseA/after", "rmse_vs_gt_mps": 4.0},
                {"dir": "caseA/before", "rmse_vs_gt_mps": 10.0},
                {"dir": "caseB/after", "rmse_vs_gt_mps": 2.0},
                {"dir": "caseB/before", "rmse_vs_gt_mps": 6.0},
            ],
            "missing": ["calibrate", "estimate"],
        }
        saved = run / "report" / "report.json"
        assert json.loads(saved.read_text()) == report
        # the report directory lies inside the run directory: it is not
        # read back in
        assert cmd_report(run) == report

    def test_record_is_strict_json(self, tmp_path):
        """A float that is not finite, such as the -inf dB CNR of a map
        without contrast or a NaN gradient norm, is written as null, at
        any depth, so a strict parser reads the record."""
        write_record(tmp_path, "reconstruct", {
            "cnr_db": -np.inf, "grad_norm": float("nan"), "rows": 3,
            "runs": [{"x": np.float64(np.inf)}, (1.5, float("-inf"))]})

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        text = (tmp_path / "reconstruct.json").read_text()
        assert json.loads(text, parse_constant=refuse) == {
            "cnr_db": None, "grad_norm": None, "rows": 3,
            "runs": [{"x": None}, [1.5, None]]}

    def test_empty_run_dir_raises(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(FileNotFoundError):
            cmd_report(d)

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cmd_report(tmp_path / "nope")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """(root, cfg_path): the cheap config file, the frames it simulates
    with --quick in root / "sim" and NARROW_MODEL in root /
    "narrow_model.txt", so each test can run alone."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cheap.ini"
    cfg_path.write_text(CHEAP_CONFIG)
    cmd_simulate(apply_quick(load_config(cfg_path)), root / "sim")
    (root / "narrow_model.txt").write_text(NARROW_MODEL)
    return root, cfg_path


class TestCLIExitCodes:
    def test_simulate_success_is_zero(self, workspace, capsys):
        root, cfg_path = workspace
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "frames"),
            "--quick", "simulate",
        ])
        assert rc == 0
        assert (root / "frames" / "MANIFEST.txt").exists()

    def test_config_error_is_two(self, workspace, capsys):
        root, _ = workspace
        bad = root / "bad.ini"
        bad.write_text("[grids]\nwobble = 3\n")
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "x"), "simulate",
        ])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "[reconstruction]\npairs =\n",
        "[reconstruction]\npairs = 40,56 40,40\n",
    ])
    def test_bad_config_value_is_two(self, workspace, capsys, text):
        root, _ = workspace
        bad = root / "bad_value.ini"
        bad.write_text(text)
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "x"), "simulate",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        section, line = text.splitlines()
        assert "config error" in err
        assert f"{section} {line.partition(' =')[0]}" in err

    @pytest.mark.parametrize("text", REMOVED_KEYS)
    def test_removed_key_is_two(self, workspace, capsys, text):
        root, _ = workspace
        bad = root / "removed_key.ini"
        bad.write_text(text)
        out = root / "removed_key"
        rc = cli_main(["--config", str(bad), "--out", str(out), "simulate"])
        assert rc == 2
        assert re.search(unknown_key_error(text), capsys.readouterr().err)
        assert not out.exists()

    def test_default_section_is_two(self, workspace, capsys):
        """A [DEFAULT] seed is not read as the scatterer seed: the run
        stops before any frame is written."""
        root, _ = workspace
        bad = root / "default_section.ini"
        bad.write_text("[DEFAULT]\nseed = 3\n")
        out = root / "default_section"
        rc = cli_main([
            "--config", str(bad), "--out", str(out), "--quick", "simulate",
        ])
        assert rc == 2
        assert ("unknown config section [DEFAULT]"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_earlier_resolved_config_is_two(self, workspace, capsys):
        """A config_resolved.ini written while the trackers and the fit
        method were set in the file: its first such entry, the
        [tracking] section before [estimation], is named, and no frame
        is written."""
        root, cfg_path = workspace
        resolved = dump_config(apply_quick(load_config(cfg_path)))
        earlier = resolved.replace("[reconstruction]\n", (
            "[tracking]\nwindow_len = 96\nsearch_radius = 16\n"
            "axial_step = 2\nlateral_step = 1\nmin_ncc = 0.2\n\n"
            "[regression]\nmethod = robust\n\n"
            "[estimation]\npair = 55,65\nwindow_len = 224\n\n"
            "[reconstruction]\n"))
        earlier += ("axial_step = 16\nlateral_step = 2\n\n"
                    "[calibration]\ndegree = 1\n")
        assert earlier.count("\n") == resolved.count("\n") + 19
        bad = root / "earlier_resolved.ini"
        bad.write_text(earlier)
        out = root / "earlier"
        rc = cli_main(["--config", str(bad), "--out", str(out), "simulate"])
        assert rc == 2
        assert "unknown config section [tracking]" in capsys.readouterr().err
        assert not out.exists()

    def test_resolved_config_with_tv_weights_is_two(self, workspace, capsys):
        """A config_resolved.ini written while the TV weights were set in
        the file: the first weight is named, and no frame is written."""
        root, cfg_path = workspace
        resolved = dump_config(apply_quick(load_config(cfg_path)))
        earlier = resolved + "tv_axial_weight = 1.0\ntv_lateral_weight = 0.5\n"
        assert earlier.count("\n") == resolved.count("\n") + 2
        bad = root / "tv_weights_resolved.ini"
        bad.write_text(earlier)
        out = root / "tv_weights"
        rc = cli_main(["--config", str(bad), "--out", str(out), "simulate"])
        assert rc == 2
        assert ("unknown key 'tv_axial_weight' in section [reconstruction]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("sections, named", [
        ("[estimation]\npair = 55,65\n\n", "[estimation] with keys 'pair'"),
        ("", "[calibration] with keys 'degree'"),
    ], ids=["pair-and-degree", "degree"])
    def test_resolved_config_with_pair_or_degree_is_two(
            self, workspace, capsys, sections, named):
        """A config_resolved.ini written while the estimation pair and the
        calibration degree were set in the file, or one with only its
        [estimation] section deleted: the first removed key is named
        with its section, and no output directory is made."""
        root, cfg_path = workspace
        resolved = dump_config(apply_quick(load_config(cfg_path)))
        earlier = (resolved.replace("[reconstruction]\n",
                                    sections + "[reconstruction]\n")
                   + "\n[calibration]\ndegree = 1\n")
        bad = root / "pair_degree_resolved.ini"
        bad.write_text(earlier)
        out = root / "pair_degree"
        rc = cli_main(["--config", str(bad), "--out", str(out), "simulate"])
        assert rc == 2
        assert f"unknown config section {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "bf_dx = nan", "bf_depth = nan",
        "bf_dx = -1", "slow_nx = 0",
    ])
    def test_bad_grid_is_two_before_any_frame(self, workspace, capsys,
                                             monkeypatch, line):
        """--quick keeps a NaN (max(nan, 3e-4) is nan), so the value
        must be refused when the file is read."""
        root, _ = workspace
        bad = root / "bad_grid.ini"
        bad.write_text(f"{CHEAP_CONFIG}\n[grids]\n{line}\n")

        def no_simulation(*args, **kwargs):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        out = root / "bad_grid"
        rc = cli_main([
            "--config", str(bad), "--out", str(out), "--quick", "simulate",
        ])
        assert rc == 2
        assert f"[grids] {line.partition(' =')[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_grid_too_shallow_for_the_recon_tracker_is_two(
            self, workspace, capsys, monkeypatch, command):
        """Named with its key before the output directory is made or any
        frame simulated or beamformed, not by the tracker after every
        recon transmit is beamformed."""
        root, _ = workspace
        bad = root / "shallow.ini"
        bad.write_text("[grids]\nbf_depth = 0.002\n")

        def no_frame(*args, **kwargs):
            raise AssertionError("no frame may be simulated or beamformed")

        monkeypatch.setattr(pipeline, "simulate_frame", no_frame)
        monkeypatch.setattr(pipeline, "das_beamform", no_frame)
        out = root / "shallow"
        argv = (["reconstruct", "--frames", str(root / "sim"), "--c-bf", "1500"]
                if command == "reconstruct" else [command])
        rc = cli_main(["--config", str(bad), "--out", str(out), "--quick",
                       *argv])
        assert rc == 2
        assert "[grids] bf_depth = 0.002: 54 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_recon_pair_off_the_array_is_two_before_any_frame(
            self, workspace, capsys):
        root, _ = workspace
        bad = root / "off_array.ini"
        bad.write_text("[reconstruction]\npairs = 40,56 120,136\n")
        out = root / "off_array"
        rc = cli_main([
            "--config", str(bad), "--out", str(out), "--quick", "simulate",
        ])
        assert rc == 2
        assert "[reconstruction] pairs: element 136" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_noise_snr_is_two_before_any_frame(
            self, workspace, capsys, monkeypatch, text):
        root, _ = workspace
        bad = root / "noise.ini"
        bad.write_text(f"{CHEAP_CONFIG}\n[simulation]\nnoise_snr_db = {text}\n")

        def no_simulation(*args, **kwargs):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "noisy"), "--quick",
            "simulate",
        ])
        assert rc == 2
        assert "[simulation] noise_snr_db" in capsys.readouterr().err
        assert not (root / "noisy").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("simulate", CHEAP_CONFIG.replace("seed = 7", "seed = -1"),
         "[scatterers] seed = -1"),
        ("simulate", HOT_BACKGROUND, "[medium] background_sos = 1800.0"),
        ("reconstruct", HOT_BACKGROUND, "[medium] background_sos = 1800.0"),
        ("simulate", OUTSIDE_INCLUSION, "[medium] inclusions"),
        ("reconstruct", OUTSIDE_INCLUSION, "[medium] inclusions"),
    ], ids=["seed-simulate", "background-simulate", "background-reconstruct",
            "inclusion-outside-simulate", "inclusion-outside-reconstruct"])
    def test_bad_medium_value_is_two_before_any_frame(
            self, workspace, capsys, monkeypatch, command, text, key):
        """A config error naming the key, raised before the output
        directory is made, a frame simulated or a frame beamformed."""
        root, _ = workspace
        bad = root / "bad_medium.ini"
        bad.write_text(text)

        def no_frame(*args, **kwargs):
            raise AssertionError("no frame may be simulated or beamformed")

        monkeypatch.setattr(pipeline, "simulate_frame", no_frame)
        monkeypatch.setattr(pipeline, "das_beamform", no_frame)
        out = root / "bad_medium"
        argv = (["reconstruct", "--frames", str(root / "sim"), "--c-bf", "1500"]
                if command == "reconstruct" else [command])
        rc = cli_main(["--config", str(bad), "--out", str(out), "--quick",
                       *argv])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["slow_nx = 16\nslow_nz = 16",
                                      "bf_depth = 0.02"],
                             ids=["shape", "cell-height"])
    def test_ground_truth_on_another_grid_is_scored(
            self, workspace, capsys, monkeypatch, tmp_path, line):
        """Frames simulated on the 24 x 24 slowness grid, reconstructed on
        another grid, of another shape or with cells of another height,
        are scored against the medium of the frame directory's
        config_resolved.ini rasterized on the map's own grid. The
        inclusion added to that file shows the truth is read from it."""
        root, _ = workspace
        frames = tmp_path / "sim"
        shutil.copytree(root / "sim", frames)
        resolved = frames / "config_resolved.ini"
        resolved.write_text(resolved.read_text().replace(
            "inclusions = \n",
            "inclusions = ellipse -0.004 0.02 0.005 0.004 1540.0\n"))
        other = tmp_path / "other_grid.ini"
        other.write_text(f"{CHEAP_CONFIG}\n[grids]\n{line}\n")
        scored = []

        def keep(sos_map, gt):
            scored.append((sos_map, gt))
            return rmse_map(sos_map, gt)

        monkeypatch.setattr(metrics, "rmse_map", keep)
        out = tmp_path / "rec"
        rc = cli_main([
            "--config", str(other), "--out", str(out), "--quick",
            "reconstruct", "--frames", str(frames), "--c-bf", "1500",
        ])
        assert rc == 0
        assert "RMSE vs ground truth" in capsys.readouterr().out
        grid = apply_quick(load_config(other)).slow_grid()
        truth = load_config(resolved).medium().rasterize(grid)
        assert 1540.0 in truth
        # the map, then the flat map at c_bf, then the two regions
        [(sos_map, gt), (flat, flat_gt), *regions] = scored
        assert gt.shape == sos_map.shape == (grid.nz, grid.nx)
        np.testing.assert_array_equal(gt, truth)
        np.testing.assert_array_equal(flat_gt, truth)
        assert np.all(flat == 1500.0)
        assert sorted(g.size for g, _ in regions) == sorted(
            [np.count_nonzero(truth == 1540.0),
             np.count_nonzero(truth == 1500.0)])
        record = json.loads((out / "reconstruct.json").read_text())
        assert record["rmse_vs_gt_mps"] == rmse_map(sos_map, truth)

    def test_frame_config_that_does_not_load_is_two_before_frames_are_read(
            self, workspace, capsys, monkeypatch, tmp_path):
        """The frame directory's config_resolved.ini, not the --config
        file, is named, and no output directory is made."""
        root, cfg_path = workspace
        frames = tmp_path / "sim"
        shutil.copytree(root / "sim", frames)
        resolved = frames / "config_resolved.ini"
        resolved.write_text(resolved.read_text() + "wobble = 3\n")
        reads = []
        monkeypatch.setattr(pipeline, "read_frame_set",
                            lambda *args: reads.append(args))
        out = tmp_path / "rec"
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(out), "--quick",
            "reconstruct", "--frames", str(frames), "--c-bf", "1500",
        ])
        assert rc == 2
        assert (f"config error: {resolved}: unknown key 'wobble' in section "
                "[reconstruction]") in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_grid_below_the_frames_speckle_is_two_before_frames_are_read(
            self, workspace, capsys, monkeypatch):
        """The --quick frames hold speckle to 33 mm; a 45 mm grid starting
        at 5 mm would beamform echo-free rows below it into the map."""
        root, _ = workspace
        deep = root / "deep.ini"
        deep.write_text(CHEAP_CONFIG + "\n[grids]\nbf_depth = 0.045\n"
                        "bf_dx = 0.0003\n")
        reads = []
        monkeypatch.setattr(pipeline, "read_frame_set",
                            lambda *args: reads.append(args))
        out = root / "rec_deep"
        rc = cli_main([
            "--config", str(deep), "--out", str(out),
            "reconstruct", "--frames", str(root / "sim"), "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(root / "sim" / "config_resolved.ini") in err
        assert "50.02 mm deep" in err and "ends at 33.00 mm" in err
        assert reads == []
        assert not out.exists()

    def test_calibrating_a_medium_with_inclusions_is_two_before_any_work(
            self, workspace, capsys, monkeypatch):
        root, _ = workspace
        bad = root / "inclusion.ini"
        bad.write_text(CHEAP_CONFIG + "\n[medium]\ninclusions = "
                       "ellipse -0.004 0.02 0.005 0.004 1540\n")

        def no_simulation(*args, **kwargs):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        out = root / "cal_inclusion"
        rc = cli_main(["--config", str(bad), "--out", str(out), "--quick",
                       "calibrate"])
        assert rc == 2
        assert ("calibration requires a homogeneous medium"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--range", "-5"), ("--range", "0"), ("--range", "nan"),
        ("--range", "inf"), ("--range", "42"), ("--range", "5"),
        ("--step", "0"), ("--step", "-1"), ("--step", "nan"),
        ("--step", "inf"), ("--step", "5"),
    ])
    def test_bad_sweep_argument_is_two(self, workspace, capsys, monkeypatch,
                                       flag, value):
        """Checked before any frame is simulated.

        The sweep's step is the recipe's, not an option, so any --step,
        a good value too, is an unknown argument.
        """
        root, cfg_path = workspace

        def no_simulation(*args, **kwargs):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        argv = ["--config", str(cfg_path), "--out", str(root / "cal_bad"),
                "--quick", "calibrate", flag, value]
        if flag == "--step":
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --step {value}" \
                in capsys.readouterr().err
            assert not (root / "cal_bad").exists()
            return
        rc = cli_main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "range" in err

    def test_numerical_error_is_three(self, workspace, capsys):
        """A model whose invertible slope range excludes the observation."""
        root, cfg_path = workspace
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "est"),
            "--quick", "estimate",
            "--frames", str(root / "sim"),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 3
        assert ("rebuild the calibration over a wider sweep with calibrate "
                "--range") in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("domain -1.0 1.0\n", "", "domain"),
        ("degree 1\n", "degree 4\n", "degree"),
        ("degree 1\n", "degree 3\n", "coefficients"),
        ("domain -1.0 1.0\n", "domain 1.0 1.0\n", "domain"),
        # a model file written before models named their grid
        (f"estimation_grid {QUICK_GRID}\n", "", "estimation_grid"),
        # another format version, and a key written on the header's line
        ("model v1\n", "model v9\n", "'soscorr calibration model v9'"),
        ("soscorr calibration model v1\n", "", "first line 'convention"),
    ], ids=["no-domain", "degree-4", "degree-3-with-2-coefficients",
            "empty-domain", "no-estimation-grid", "header-v9", "no-header"])
    def test_malformed_model_file_is_two(self, workspace, capsys, tmp_path,
                                         old, new, key):
        root, cfg_path = workspace
        model = tmp_path / "bad_model.txt"
        model.write_text(NARROW_MODEL.replace(old, new))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(tmp_path / "est"),
            "--quick", "estimate",
            "--frames", str(root / "sim"),
            "--model", str(model),
            "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_model.txt" in err and key in err

    @pytest.mark.parametrize("model_grid, quick, run_grid", [
        (FULL_GRID, ["--quick"], QUICK_GRID),
        (QUICK_GRID, [], FULL_GRID),
    ], ids=["default-model-quick-run", "quick-model-default-run"])
    def test_model_on_another_grid_is_two_before_frames_are_read(
            self, workspace, capsys, tmp_path, monkeypatch, model_grid,
            quick, run_grid):
        """A model holds for the estimation grid its sweep beamformed on:
        a --quick model does not serve a default-config estimate, nor the
        other way round. Both grids are named."""
        root, cfg_path = workspace
        model = tmp_path / "other_grid_model.txt"
        model.write_text(NARROW_MODEL.replace(QUICK_GRID, model_grid))
        reads = []
        monkeypatch.setattr(pipeline, "read_frame_set",
                            lambda *args: reads.append(args))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(tmp_path / "est"), *quick,
            "estimate", "--frames", str(root / "sim"), "--model", str(model),
            "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"built on the estimation grid {model_grid};" in err
        assert f"the config's estimation grid is {run_grid}" in err
        assert reads == []
        assert not (tmp_path / "est").exists()

    def test_model_without_a_grid_is_refused_before_frames_are_read(
            self, workspace, monkeypatch):
        """A model built in code from a dataset that names no grid."""
        root, cfg_path = workspace
        reads = []
        monkeypatch.setattr(pipeline, "read_frame_set",
                            lambda *args: reads.append(args))
        with pytest.raises(ConfigError, match="estimation grid unknown; "):
            pipeline.cmd_estimate(apply_quick(load_config(cfg_path)),
                                  root / "sim", replace(WIDE_MODEL, metadata={}),
                                  1500.0)
        assert reads == []

    def test_malformed_model_with_missing_frames_is_two(self, workspace,
                                                        capsys, tmp_path):
        """The model is checked first: a missing frame directory does not
        hide a malformed model."""
        _, cfg_path = workspace
        model = tmp_path / "bad_model.txt"
        model.write_text(NARROW_MODEL.replace("degree 1\n", "degree 4\n"))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(tmp_path / "est"),
            "--quick", "estimate",
            "--frames", str(tmp_path / "does_not_exist"),
            "--model", str(model),
            "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad_model.txt" in err and "degree" in err

    def test_malformed_model_fails_before_frames_are_read(
            self, workspace, capsys, tmp_path, monkeypatch):
        root, cfg_path = workspace
        model = tmp_path / "bad_model.txt"
        model.write_text(NARROW_MODEL.replace("degree 1\n", "degree 4\n"))
        reads = []
        monkeypatch.setattr(pipeline, "read_frame_set",
                            lambda *args: reads.append(args))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(tmp_path / "est"),
            "--quick", "estimate",
            "--frames", str(root / "sim"),
            "--model", str(model),
            "--c-bf", "1500",
        ])
        assert rc == 2
        assert reads == []

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    @pytest.mark.parametrize("c_bf", ["1800", "nan"])
    def test_c_bf_outside_the_band_is_two_before_frames_are_read(
            self, workspace, capsys, monkeypatch, command, c_bf):
        """--c-bf is checked, and named, before any frame is read: a
        missing frame directory does not hide it either."""
        root, cfg_path = workspace
        reads = []
        monkeypatch.setattr(pipeline, "read_frame_set",
                            lambda *args: reads.append(args))
        model = ["--model", str(root / "narrow_model.txt")]
        for frames in (root / "sim", root / "does_not_exist"):
            rc = cli_main([
                "--config", str(cfg_path), "--out", str(root / "bad_c_bf"),
                "--quick", command, "--frames", str(frames),
                *(model if command == "estimate" else []), "--c-bf", c_bf,
            ])
            assert rc == 2
            assert "--c-bf" in capsys.readouterr().err
        assert reads == []
        assert not (root / "bad_c_bf").exists()

    @pytest.mark.parametrize("error", [
        EmptyPatternError, InsufficientDataError, RankDeficiencyError,
    ])
    def test_regression_error_is_three(self, workspace, capsys, monkeypatch,
                                       error):
        """Pattern and fit errors subclass ValueError but are numerical."""
        root, cfg_path = workspace

        def fail(*args, **kwargs):
            raise error("no usable delay pattern")

        monkeypatch.setattr(pipeline, "cmd_estimate", fail)
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "est"),
            "--quick", "estimate",
            "--frames", str(root / "sim"),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    def test_non_finite_frame_is_two(self, workspace, capsys):
        """A NaN sample would spread down its column in the tracker."""
        root, cfg_path = workspace
        bad = root / "nan_frames"
        shutil.copytree(root / "sim", bad)
        path = bad / "frame_tx055.sosc"
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "est_nan"),
            "--quick", "estimate",
            "--frames", str(bad),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "frame_tx055.sosc" in err and "non-finite" in err

    @pytest.mark.parametrize("cut", [-4, 4], ids=["truncated", "extra"])
    def test_frame_of_wrong_size_is_two(self, workspace, capsys, cut):
        root, cfg_path = workspace
        bad = root / f"size{cut}_frames"
        shutil.copytree(root / "sim", bad)
        path = bad / "frame_tx065.sosc"
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / f"est{cut}"),
            "--quick", "estimate",
            "--frames", str(bad),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "frame_tx065.sosc" in err and "payload" in err

    @pytest.mark.parametrize("field, value", [
        ("fs", 0.0), ("fs", -1.6e8), ("fs", np.nan), ("fs", np.inf),
        ("t0", np.nan), ("t0", -np.inf),
    ], ids=["fs-zero", "fs-negative", "fs-nan", "fs-inf", "t0-nan",
            "t0-inf"])
    def test_bad_frame_header_is_two(self, workspace, capsys, field, value):
        """A header fs that is not finite and > 0, or a t0 that is not
        finite, is refused before the frame is beamformed, though the
        manifest lists the frame's digest."""
        root, cfg_path = workspace
        bad = root / f"header_{field}_{value}_frames"
        shutil.copytree(root / "sim", bad)
        path = bad / "frame_tx055.sosc"
        raw = bytearray(path.read_bytes())
        listed = hashlib.sha256(raw).hexdigest()[:16]
        # the header's two float64s follow the magic, version, tx,
        # num_rx and num_samples
        at = {"fs": 16, "t0": 24}[field]
        raw[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        manifest = bad / "MANIFEST.txt"
        manifest.write_text(manifest.read_text().replace(
            listed, hashlib.sha256(raw).hexdigest()[:16]))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "est_header"),
            "--quick", "estimate",
            "--frames", str(bad),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "frame_tx055.sosc" in err and f"{field} {value}" in err

    @given(tx=st.sampled_from([55, 65]), bit=st.integers(0, 2**40))
    @settings(max_examples=40, deadline=None)
    def test_bit_flip_in_a_frame_is_two(self, workspace, tx, bit):
        """One bit flipped anywhere in a needed frame fails the header,
        sample or manifest digest check."""
        root, cfg_path = workspace
        bad = root / "flipped_frames"
        if not bad.exists():
            shutil.copytree(root / "sim", bad)
        path = bad / f"frame_tx{tx:03d}.sosc"
        raw = path.read_bytes()
        bit %= 8 * len(raw)
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli_main([
                    "--config", str(cfg_path), "--out", str(root / "est_flip"),
                    "--quick", "estimate",
                    "--frames", str(bad),
                    "--model", str(root / "narrow_model.txt"),
                    "--c-bf", "1500",
                ])
        finally:
            path.write_bytes(raw)
        assert rc == 2
        assert path.name in err.getvalue()

    def test_frame_line_naming_another_file_is_two(self, workspace, capsys):
        """A manifest frame line must name frame_filename(tx), so no frame
        is read from outside the frame directory."""
        root, cfg_path = workspace
        bad = root / "renamed_frames"
        shutil.copytree(root / "sim", bad)
        manifest = bad / "MANIFEST.txt"
        manifest.write_text(manifest.read_text().replace(
            "frame_tx055.sosc", "../sim/frame_tx055.sosc"))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "rec_renamed"),
            "--quick", "reconstruct",
            "--frames", str(bad),
            "--c-bf", "1500",
        ])
        assert rc == 2
        assert "does not name frame_tx055.sosc" in capsys.readouterr().err

    def test_listed_frame_deleted_is_four(self, workspace, capsys):
        root, cfg_path = workspace
        bad = root / "deleted_frames"
        shutil.copytree(root / "sim", bad)
        (bad / "frame_tx055.sosc").unlink()
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "rec_deleted"),
            "--quick", "reconstruct",
            "--frames", str(bad),
            "--c-bf", "1500",
        ])
        assert rc == 4
        assert "frame_tx055.sosc" in capsys.readouterr().err

    def test_missing_recon_frame_is_four_before_beamforming(
            self, workspace, capsys, monkeypatch):
        """Every recon transmit is looked up before the first one is
        beamformed, so the transmit ahead of a missing one is not."""
        root, cfg_path = workspace
        bad = root / "last_deleted_frames"
        shutil.copytree(root / "sim", bad)
        (bad / "frame_tx065.sosc").unlink()
        beamformed = []
        monkeypatch.setattr(pipeline, "das_beamform",
                            lambda *args: beamformed.append(args))
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "rec_last_deleted"),
            "--quick", "reconstruct", "--frames", str(bad), "--c-bf", "1500",
        ])
        assert rc == 4
        assert "frame_tx065.sosc" in capsys.readouterr().err
        assert beamformed == []

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_two(self, workspace, capsys, threads):
        root, _ = workspace
        out = root / f"threads{threads}"
        rc = cli_main([
            "--threads", threads, "--out", str(out), "--quick", "simulate",
        ])
        assert rc == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_four(self, workspace, capsys):
        root, cfg_path = workspace
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "y"),
            "--quick", "estimate",
            "--frames", str(root / "does_not_exist"),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 4

    def test_report_on_cli_run(self, workspace, capsys):
        root, _ = workspace
        case = root / "agg" / "c1"
        case.mkdir(parents=True)
        write_record(case, "reconstruct", {"rmse_vs_gt_mps": 2.0})
        rc = cli_main([
            "--out", str(root / "agg" / "report"),
            "report", "--run-dir", str(root / "agg"),
        ])
        assert rc == 0
        assert (root / "agg" / "report" / "report.json").exists()

    @pytest.mark.parametrize("text", ['{"rmse_vs_gt_mps": 2.0', "[2.0]"],
                             ids=["truncated", "not-an-object"])
    def test_malformed_record_is_two(self, workspace, capsys, tmp_path, text):
        (tmp_path / "rec").mkdir()
        (tmp_path / "rec" / "reconstruct.json").write_text(text)
        rc = cli_main(["--out", str(tmp_path / "report"),
                       "report", "--run-dir", str(tmp_path)])
        assert rc == 2
        assert "reconstruct.json" in capsys.readouterr().err


class TestReportRoundTrip:
    def test_report_holds_each_command_record(self, workspace, monkeypatch,
                                              capsys):
        """calibrate, estimate and reconstruct write into one run
        directory, as in the README round trip; report collects their
        records with the numbers the commands returned."""
        root, cfg_path = workspace
        run = root / "run"
        returned = {}

        def spy(name):
            command = getattr(pipeline, name)

            def call(*args, **kwargs):
                returned[name] = command(*args, **kwargs)
                return returned[name]
            monkeypatch.setattr(pipeline, name, call)

        for name in ("cmd_calibrate", "cmd_estimate", "cmd_reconstruct"):
            spy(name)
        frames = str(root / "sim")
        for out, argv in (
            ("cal", ["calibrate", "--range", "20"]),
            ("est", ["estimate", "--frames", frames, "--model",
                     str(run / "cal" / "calibration_model.txt"),
                     "--c-bf", "1510"]),
            ("rec", ["reconstruct", "--frames", frames, "--c-bf", "1510"]),
        ):
            assert cli_main(["--config", str(cfg_path), "--quick",
                             "--out", str(run / out), *argv]) == 0

        rows = returned["cmd_calibrate"].report_rows
        assert json.loads((run / "cal" / "calibrate.json").read_text()) == \
            {"rows": rows, **loaded_passes("das_kernel", "synth_kernel")}

        report_argv = ["--out", str(run / "report"), "report",
                       "--run-dir", str(run)]
        assert cli_main(report_argv) == 0
        saved = run / "report" / "report.json"
        first = saved.read_bytes()
        report = json.loads(first)
        assert report["missing"] == []
        [calibrated] = report["calibrate"]
        assert calibrated == {"dir": "cal", "rows": rows,
                              **loaded_passes("das_kernel", "synth_kernel")}
        [estimated] = report["estimate"]
        assert estimated["dir"] == "est"
        assert estimated["delta_c_hat_mps"] == \
            returned["cmd_estimate"].delta_c_hat
        [reconstructed] = report["reconstruct"]
        assert reconstructed["dir"] == "rec"
        assert reconstructed["rmse_vs_gt_mps"] == \
            returned["cmd_reconstruct"].rmse_vs_gt

        assert cli_main(report_argv) == 0
        assert saved.read_bytes() == first
