"""Config files, stage orchestration, reporting, and the CLI contract."""

import contextlib
import io
import json
import re
import shutil
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
    RECON_TRACKING,
    ConfigError,
    PipelineConfig,
    apply_quick,
    cmd_reconstruct,
    cmd_report,
    cmd_simulate,
    dump_config,
    load_config,
    recon_search_radius,
    run_calibration_sweep,
    simulate_frames,
    write_record,
)
from soscorr import pipeline
from soscorr.geometry import ImagingGrid, TransducerArray
from soscorr.regress import (
    EmptyPatternError,
    InsufficientDataError,
    RankDeficiencyError,
)
from soscorr.synthsim import (SOS_MAX, SOS_MIN, Inclusion, PulseSpec,
                              write_frame_set)
from soscorr.tomo import build_path_matrix

CHEAP_CONFIG = """\
[scatterers]
density = 0.5
seed = 7

[estimation]
pair = 55,65

[reconstruction]
pairs = 55,65
"""

# a model whose invertible slope range excludes any observed slope
NARROW_MODEL = """\
soscorr calibration model v1
convention delta_c = c_bf - c
c_true 1500.0
degree 1
domain -1.0 1.0
coefficients 0.0 1e-15
training_indices 0 1
sweep_metadata_hash 0
"""

# keys that a resolved config of an earlier version holds and that are
# now fixed: the ROI origin, the estimation apodization, the two
# tracker setups and the fit method
REMOVED_KEYS = [
    "[roi]\nreference = pair_midpoint\n",
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


def with_field(cfg, path, value):
    owner, _, attr = path.rpartition(".")
    if owner:
        value = replace(getattr(cfg, owner), **{attr: value})
        attr = owner
    return replace(cfg, **{attr: value})


lengths = st.floats(1e-5, 1e-3)
# a pair transmits on two distinct elements
element_pairs = st.lists(st.integers(0, 127), min_size=2, max_size=2,
                         unique=True).map(tuple)
inclusions = st.builds(
    Inclusion,
    shape=st.sampled_from(["ellipse", "rectangle"]),
    center=st.tuples(st.floats(-0.02, 0.02), st.floats(0.0, 0.04)),
    half_axes=st.tuples(st.floats(1e-4, 0.01), st.floats(1e-4, 0.01)),
    sos=st.floats(SOS_MIN, SOS_MAX),
)
# a valid value for every field the config file sets, by field path;
# the array keeps every element of the default pairs
FIELD_VALUES = {
    "array.num_elements": st.integers(max(PipelineConfig().required_tx()) + 1,
                                      512),
    "array.pitch": lengths,
    # the other pulse field keeps its default: sampling 1.6e8, center 5e6
    "pulse.center_frequency": st.floats(1e5, 1.6e7),
    "pulse.half_cycles": st.integers(1, 16),
    "pulse.sampling_frequency": st.floats(5e7, 1e10),
    "background_sos": st.floats(SOS_MIN, SOS_MAX),
    "inclusions": st.lists(inclusions, max_size=3).map(tuple),
    "scatterer_density": st.floats(0.01, 20.0),
    "seed": st.integers(0, 2**32),
    "noise_snr_db": st.none() | st.floats(-20.0, 80.0),
    "bf_dx": lengths,
    "bf_dz": lengths,
    "bf_z0": st.floats(0.0, 0.02),
    "bf_depth": st.floats(0.005, 0.08),
    "slow_nx": st.integers(2, 128),
    "slow_nz": st.integers(2, 128),
    "roi_depth_min": st.floats(0.0, 0.01),
    "roi_depth_max": st.floats(0.01, 0.05),
    "roi_theta_min": st.floats(-1.0, 0.0),
    "roi_theta_max": st.floats(0.0, 1.0),
    "roi_num_bins": st.integers(2, 200),
    "estimation_pair": element_pairs,
    "recon_pairs": st.lists(element_pairs, min_size=1, max_size=8).map(tuple),
    "recon.lam": st.floats(0.0, 10.0),
    "recon.tv_axial_weight": st.floats(0.0, 10.0),
    "recon.tv_lateral_weight": st.floats(0.0, 10.0),
    "recon.l1_epsilon": st.floats(1e-6, 1.0),
    "recon.max_iter": st.integers(1, 5000),
    "calibration_degree": st.sampled_from([1, 3, 5]),
}


def cheap_cfg():
    cfg = PipelineConfig(
        scatterer_density=0.5, seed=7,
        estimation_pair=(55, 65), recon_pairs=((55, 65),),
    )
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
            estimation_pair=(50, 70),
            recon_pairs=((40, 56), (72, 88)),
            calibration_degree=3,
        )
        path = tmp_path / "cfg.ini"
        path.write_text(dump_config(cfg))
        back = load_config(path)
        assert back.background_sos == cfg.background_sos
        assert back.inclusions == cfg.inclusions
        assert back.noise_snr_db == cfg.noise_snr_db
        assert back.seed == cfg.seed
        assert back.slow_nx == 24
        assert back.estimation_pair == (50, 70)
        assert back.recon_pairs == ((40, 56), (72, 88))
        assert back.calibration_degree == 3
        assert back.recon == cfg.recon

    def test_every_table_field_has_a_strategy(self):
        assert [row[2] for row in pipeline._FIELDS] == list(FIELD_VALUES)

    @given(row=st.sampled_from(pipeline._FIELDS), data=st.data())
    def test_changed_field_roundtrips(self, row, data):
        """Any one field changed from its default dumps and loads back."""
        path = row[2]
        default = PipelineConfig()
        value = data.draw(FIELD_VALUES[path])
        cfg = with_field(default, path, value)
        assume(cfg != default)
        back = roundtrip(cfg)
        assert back == cfg
        assert dump_config(back) == dump_config(cfg)

    def test_pulse_keys_apply_together(self):
        """Each value alone breaks sampling_frequency >= 10x
        center_frequency against the other's default; together they
        are valid."""
        cfg = PipelineConfig(
            pulse=PulseSpec(center_frequency=2.0e7, sampling_frequency=2.5e8)
        )
        assert roundtrip(cfg) == cfg

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
        path = tmp_path / "cfg.ini"
        path.write_text(f"[medium]\n{key} = ellipse 0 0.02 0.004 0.003 1540\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("section, line", [
        ("estimation", "pair = 55"),
        ("reconstruction", "pairs = 40,56 72"),
        ("grids", "slow_nx = 9.5"),
        ("calibration", "degree = 2"),
        ("simulation", "noise_snr_db = loud"),
        ("simulation", "noise_snr_db = nan"),
        ("simulation", "noise_snr_db = inf"),
        ("simulation", "noise_snr_db = -inf"),
        ("reconstruction", "max_iter = 0"),
        ("reconstruction", "max_iter = -5"),
        ("medium", "background_sos = 15%"),
        ("estimation", "pair = 55,200"),
        ("reconstruction", "pairs = 40,56 120,136"),
        ("roi", "depth_min = 0.02"),
        ("roi", "depth_min = nan"),
        ("roi", "theta_min = 0.5"),
        ("roi", "num_bins = 1"),
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

    def test_invalid_combination_names_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pulse]\ncenter_frequency = 2e7\n")
        with pytest.raises(ConfigError, match=r"\[pulse\].*sampling_frequency"):
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
        path = tmp_path / "cfg.ini"
        path.write_text("[medium]\ninclusion1 = ellipse 0 0.02\n")
        with pytest.raises(ConfigError, match="inclusion"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")


class TestDerivedConfig:
    @pytest.mark.parametrize("field, value, key", [
        ("calibration_degree", 2, r"\[calibration\] degree"),
    ])
    def test_unknown_choice_rejected_at_construction(self, field, value, key):
        """A degree that the INI parser would refuse fails when the
        config is built in code, naming its INI key, not later inside
        the calibration."""
        with pytest.raises(ConfigError, match=key + " = .*must be one of"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, key", [
        ({"roi_depth_min": 0.02}, "depth_min"),
        ({"roi_depth_max": 5e-3}, "depth_min"),
        ({"roi_theta_min": 0.5}, "theta_min"),
        ({"roi_theta_max": np.nan}, "theta_min"),
        ({"roi_num_bins": 1}, "num_bins"),
    ], ids=["depth-min", "depth-max", "theta-min", "theta-max-nan",
            "num-bins"])
    def test_bad_roi_rejected_at_construction(self, kwargs, key):
        """Not later, when the pattern is extracted."""
        with pytest.raises(ConfigError, match=rf"\[roi\] {key} must be"):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_snr_rejected_at_construction(self, snr):
        with pytest.raises(ConfigError, match=r"\[simulation\] noise_snr_db "
                           "= .*must be finite"):
            PipelineConfig(noise_snr_db=snr)

    def test_roi_origin_is_the_pair_midpoint(self):
        # elements 64 and 65 lie at 0.15 and 0.45 mm
        cfg = PipelineConfig(estimation_pair=(64, 65))
        assert cfg.roi().reference_x == pytest.approx(3e-4, abs=1e-12)

    @pytest.mark.parametrize("kwargs, key", [
        ({"estimation_pair": (55, 200)}, r"\[estimation\] pair"),
        ({"estimation_pair": (-1, 65)}, r"\[estimation\] pair"),
        ({"recon_pairs": ((40, 56), (120, 128))}, r"\[reconstruction\] pairs"),
        ({"array": TransducerArray(num_elements=64)},
         r"\[estimation\] pair"),
    ], ids=["estimation-200", "estimation-minus-1", "recon-128",
            "64-element-array"])
    def test_pair_element_off_the_array_rejected(self, kwargs, key):
        with pytest.raises(ConfigError, match=key + ": element .* not on the"):
            PipelineConfig(**kwargs)

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
        path.write_text("[grids]\nbf_dx = 6e-4\nbf_dz = 5e-5\n")
        cfg = apply_quick(load_config(path))
        assert (cfg.bf_dx, cfg.bf_dz) == (6e-4, 5e-5)

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
        A = build_path_matrix(list(cfg.recon_pairs), nodes, sg, None,
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

    def test_frames_stream_to_disk(self, tmp_path):
        """cmd_simulate writes each transmit before it simulates the next:
        the same manifest as writing the collected frames, at a traced
        peak below 4 frames of 6. A frame's float64 samples and float32
        copy take 3; holding every frame, as collecting them does, peaks
        near 8."""
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
        assert peak < 4 * frame_bytes


class TestCalibrationSweep:
    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0}, {"delta_c_min": 5.0, "delta_c_max": -5.0},
    ], ids=["step", "range"])
    def test_bad_sweep_fails_before_simulating(self, tmp_path, monkeypatch,
                                               kwargs):
        def no_simulation(*args, **kw):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        with pytest.raises(ConfigError, match="calibration"):
            pipeline.cmd_calibrate(cheap_cfg(), tmp_path, **kwargs)

    def test_thread_count_does_not_change_sweep(self):
        """The sweep's worker threads share nothing that changes a fit."""
        cfg = apply_quick(PipelineConfig(threads=1))
        frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
        # every-2 holds out -10 and +10: the held-out R^2 needs two points
        runs = [
            run_calibration_sweep(
                replace(cfg, threads=t), frames, delta_c_min=-20.0,
                delta_c_max=20.0, step=10.0, degrees=(1,),
                train_selector="every-2",
            )
            for t in (1, 2)
        ]
        one, two = (r.dataset.entries for r in runs)
        assert [e.delta_c for e in one] == [-20.0, -10.0, 0.0, 10.0, 20.0]
        assert [e.slope for e in one] == [e.slope for e in two]
        assert np.all(np.diff([e.slope for e in one]) > 0)

    def test_one_held_out_point_is_insufficient(self, monkeypatch):
        """The held-out R^2 of one point is an error, not 0."""
        def linear_fit(frames, c_bf, cfg):
            return SimpleNamespace(slope=c_bf * 1e-9, r_squared=1.0), None, None

        monkeypatch.setattr(pipeline, "estimate_slope", linear_fit)
        with pytest.raises(InsufficientDataError):
            run_calibration_sweep(
                apply_quick(PipelineConfig()), {}, delta_c_min=-20.0,
                delta_c_max=20.0, step=20.0, degrees=(1,),
                train_selector="every-2",
            )


class TestReconstructStage:
    def test_thread_count_does_not_change_map(self):
        """Two workers beamform three recon transmits, one of them alone."""
        cfg = replace(
            cheap_cfg(), recon_pairs=((40, 56), (56, 72)),
            inclusions=(Inclusion("ellipse", (0.0, 18e-3), (5e-3, 4e-3),
                                  1540.0),),
        )
        frames = simulate_frames(cfg, tx_list=[40, 56, 72])
        one, two = (cmd_reconstruct(replace(cfg, threads=t), frames, 1522.5)
                    for t in (1, 2))
        assert np.ptp(one.sos_map) > 0
        assert two.sos_map.tobytes() == one.sos_map.tobytes()


def recon_cfg():
    return replace(cheap_cfg(), recon_pairs=((40, 56), (56, 72)))


class TestReconMetrics:
    @pytest.fixture(scope="class")
    def frames(self):
        return simulate_frames(recon_cfg(), tx_list=[40, 56, 72])

    def test_solver_health_is_written_without_ground_truth(
            self, frames, tmp_path, monkeypatch):
        built = []

        def keep(pairs, meas_grid, *args):
            built.append((len(pairs), meas_grid.nx * meas_grid.nz,
                          build_path_matrix(pairs, meas_grid, *args)))
            return built[-1][2]

        monkeypatch.setattr(pipeline, "build_path_matrix", keep)
        res = cmd_reconstruct(recon_cfg(), frames, 1500.0, out_dir=tmp_path)
        metrics = json.loads((tmp_path / "reconstruct.json").read_text())
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
        }
        assert metrics["iterations"] > 0 and metrics["message"]
        assert 0 < metrics["valid_fraction"] <= 1
        assert res.clamped_fraction == 0.0
        assert res.rmse_vs_gt is None

    def test_rmse_is_added_with_ground_truth(self, frames, tmp_path):
        cfg = recon_cfg()
        gt = cfg.medium().rasterize(cfg.slow_grid())
        res = cmd_reconstruct(cfg, frames, 1500.0, out_dir=tmp_path,
                              gt_map=gt)
        metrics = json.loads((tmp_path / "reconstruct.json").read_text())
        assert metrics["rmse_vs_gt_mps"] == res.rmse_vs_gt
        assert metrics["iterations"] == res.info.iterations
        assert {"rows", "valid_fraction", "clamped_fraction"} <= set(metrics)


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
        "[calibration]\ndegree = 2\n",
        "[reconstruction]\npairs =\n",
        "[reconstruction]\npairs = 40,56 40,40\n",
        "[estimation]\npair = 55,55\n",
        "[reconstruction]\nmax_iter = 0\n",
        "[reconstruction]\nmax_iter = -5\n",
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
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "x"), "simulate",
        ])
        assert rc == 2
        assert re.search(unknown_key_error(text), capsys.readouterr().err)

    def test_earlier_resolved_config_is_two(self, workspace, capsys):
        """A config_resolved.ini written while the trackers and the fit
        method were set in the file: its first such entry, the
        [tracking] section, is named, and no frame is written."""
        root, cfg_path = workspace
        resolved = dump_config(apply_quick(load_config(cfg_path)))
        earlier = resolved
        for before, lines in (
                ("[roi]\n", "[tracking]\nwindow_len = 96\nsearch_radius = 16\n"
                 "axial_step = 2\nlateral_step = 1\nmin_ncc = 0.2\n\n"),
                ("[estimation]\n", "[regression]\nmethod = robust\n\n"),
                ("\n[reconstruction]\n", "window_len = 224\n"),
                ("\n[calibration]\n", "axial_step = 16\nlateral_step = 2\n")):
            earlier = earlier.replace(before, lines + before)
        assert earlier.count("\n") == resolved.count("\n") + 13
        bad = root / "earlier_resolved.ini"
        bad.write_text(earlier)
        out = root / "earlier"
        rc = cli_main(["--config", str(bad), "--out", str(out), "simulate"])
        assert rc == 2
        assert "unknown config section [tracking]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("calibrate", "depth_min = 0.02"), ("simulate", "num_bins = 1"),
    ])
    def test_bad_roi_is_two_before_any_frame(self, workspace, capsys,
                                             monkeypatch, command, line):
        root, _ = workspace
        bad = root / "bad_roi.ini"
        bad.write_text(f"{CHEAP_CONFIG}\n[roi]\n{line}\n")

        def no_simulation(*args, **kwargs):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        out = root / f"bad_roi_{command}"
        rc = cli_main([
            "--config", str(bad), "--out", str(out), "--quick", command,
        ])
        assert rc == 2
        assert f"[roi] {line.partition(' =')[0]}" in capsys.readouterr().err
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

    def test_estimation_pair_off_the_array_is_two(self, workspace, capsys):
        """A config error, not a frame missing from the directory."""
        root, _ = workspace
        bad = root / "off_array_pair.ini"
        bad.write_text(CHEAP_CONFIG.replace("pair = 55,65", "pair = 55,200"))
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "est_off_array"),
            "--quick", "estimate",
            "--frames", str(root / "sim"),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 2
        assert "[estimation] pair: element 200" in capsys.readouterr().err

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

    def test_quick_calibrate_with_unfitted_degree_is_two(self, workspace,
                                                         capsys, monkeypatch):
        """--quick fits degree 1 only; degree 3 fails before the sweep."""
        root, _ = workspace
        cfg_path = root / "degree3.ini"
        cfg_path.write_text(CHEAP_CONFIG + "\n[calibration]\ndegree = 3\n")

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(pipeline, "run_calibration_sweep", no_sweep)
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "cal3"),
            "--quick", "calibrate",
        ])
        assert rc == 2
        assert "degree" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--step", "0"), ("--step", "-1"), ("--step", "nan"),
        ("--step", "inf"), ("--range", "-5"), ("--range", "0"),
        ("--range", "nan"), ("--range", "inf"),
    ])
    def test_bad_sweep_argument_is_two(self, workspace, capsys, monkeypatch,
                                       flag, value):
        """Checked before any frame is simulated, and before --quick
        coarsens the step."""
        root, cfg_path = workspace

        def no_simulation(*args, **kwargs):
            raise AssertionError("no frame may be simulated")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "cal_bad"),
            "--quick", "calibrate", flag, value,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert ("step" if flag == "--step" else "range") in err

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

    @pytest.mark.parametrize("old, new, key", [
        ("domain -1.0 1.0\n", "", "domain"),
        ("degree 1\n", "degree 4\n", "degree"),
        ("degree 1\n", "degree 3\n", "coefficients"),
        ("domain -1.0 1.0\n", "domain 1.0 1.0\n", "domain"),
    ], ids=["no-domain", "degree-4", "degree-3-with-2-coefficients",
            "empty-domain"])
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
            ("cal", ["calibrate", "--range", "20", "--step", "10"]),
            ("est", ["estimate", "--frames", frames, "--model",
                     str(run / "cal" / "calibration_model.txt"),
                     "--c-bf", "1510"]),
            ("rec", ["reconstruct", "--frames", frames, "--c-bf", "1510"]),
        ):
            assert cli_main(["--config", str(cfg_path), "--quick",
                             "--out", str(run / out), *argv]) == 0

        rows = returned["cmd_calibrate"].report_rows
        assert json.loads((run / "cal" / "calibrate.json").read_text()) == \
            {"rows": rows}

        report_argv = ["--out", str(run / "report"), "report",
                       "--run-dir", str(run)]
        assert cli_main(report_argv) == 0
        saved = run / "report" / "report.json"
        first = saved.read_bytes()
        report = json.loads(first)
        assert report["missing"] == []
        [calibrated] = report["calibrate"]
        assert calibrated == {"dir": "cal", "rows": rows}
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
