"""Config files, stage orchestration, reporting, and the CLI contract."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from soscorr.cli import main as cli_main
from soscorr.pipeline import (
    ConfigError,
    PipelineConfig,
    apply_quick,
    cmd_report,
    cmd_simulate,
    dump_config,
    load_config,
    recon_search_radius,
    run_calibration_sweep,
    simulate_frames,
)
from soscorr import pipeline
from soscorr.geometry import ImagingGrid
from soscorr.regress import (
    FITTERS,
    EmptyPatternError,
    InsufficientDataError,
    RankDeficiencyError,
)
from soscorr.synthsim import SOS_MAX, SOS_MIN, Inclusion, PulseSpec
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
element_pairs = st.tuples(st.integers(0, 127), st.integers(0, 127))
inclusions = st.builds(
    Inclusion,
    shape=st.sampled_from(["ellipse", "rectangle"]),
    center=st.tuples(st.floats(-0.02, 0.02), st.floats(0.0, 0.04)),
    half_axes=st.tuples(st.floats(1e-4, 0.01), st.floats(1e-4, 0.01)),
    sos=st.floats(SOS_MIN, SOS_MAX),
)
# a valid value for every field the config file sets, by field path
FIELD_VALUES = {
    "array.num_elements": st.integers(2, 512),
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
    "tracking.window_len": st.integers(8, 512),
    "tracking.search_radius": st.integers(1, 64),
    "tracking.axial_step": st.integers(1, 16),
    "tracking.lateral_step": st.integers(1, 16),
    "tracking.min_ncc": st.floats(0.0, 1.0),
    "roi_depth_min": st.floats(0.0, 0.01),
    "roi_depth_max": st.floats(0.01, 0.05),
    "roi_theta_min": st.floats(-1.0, 0.0),
    "roi_theta_max": st.floats(0.0, 1.0),
    "roi_num_bins": st.integers(2, 200),
    "roi_reference": st.sampled_from(["pair_midpoint", "probe_center"]),
    "regression_method": st.sampled_from(sorted(FITTERS)),
    "estimation_pair": element_pairs,
    "estimation_window_len": st.integers(8, 512),
    "estimation_apodization": st.sampled_from(["none", "hann"]),
    "recon_pairs": st.lists(element_pairs, min_size=1, max_size=8).map(tuple),
    "recon.lam": st.floats(0.0, 10.0),
    "recon.tv_axial_weight": st.floats(0.0, 10.0),
    "recon.tv_lateral_weight": st.floats(0.0, 10.0),
    "recon.l1_epsilon": st.floats(1e-6, 1.0),
    "recon.max_iter": st.integers(1, 5000),
    "recon_axial_step": st.integers(1, 16),
    "recon_lateral_step": st.integers(1, 16),
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
            estimation_window_len=192,
            estimation_apodization="none",
            recon_pairs=((40, 56), (72, 88)),
            calibration_degree=3,
            regression_method="weighted",
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
        assert back.estimation_window_len == 192
        assert back.estimation_apodization == "none"
        assert back.recon_pairs == ((40, 56), (72, 88))
        assert back.calibration_degree == 3
        assert back.regression_method == "weighted"
        assert back.tracking == cfg.tracking
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
        ("tracking", "window_len = 9.5"),
        ("roi", "reference = probe_centre"),
        ("calibration", "degree = 2"),
        ("simulation", "noise_snr_db = loud"),
        ("medium", "background_sos = 15%"),
    ])
    def test_bad_value_names_section_and_key(self, tmp_path, section, line):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_config(path)

    def test_invalid_combination_names_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pulse]\ncenter_frequency = 2e7\n")
        with pytest.raises(ConfigError, match=r"\[pulse\].*sampling_frequency"):
            load_config(path)

    def test_unparseable_file_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[tracking]\nwindow_len = 96\nwindow_len = 128\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[bogus]\nx = 1\n")
        with pytest.raises(ConfigError, match="section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[tracking]\nwibble = 1\n")
        with pytest.raises(ConfigError, match="wibble"):
            load_config(path)

    def test_bad_inclusion_string(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[medium]\ninclusion1 = ellipse 0 0.02\n")
        with pytest.raises(ConfigError, match="inclusion"):
            load_config(path)

    def test_unknown_regression_method(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[regression]\nmethod = lasso\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")


class TestDerivedConfig:
    def test_required_tx_default(self):
        cfg = PipelineConfig()
        txs = cfg.required_tx()
        # union of the estimation pair {55, 65} and the 7 distinct elements
        # of the chained default reconstruction pairs
        assert txs == [24, 40, 55, 56, 65, 72, 88, 104, 120]

    def test_apply_quick_coarsens(self):
        cfg = apply_quick(PipelineConfig())
        assert cfg.quick
        assert cfg.scatterer_density <= 2.0
        assert cfg.bf_dx == pytest.approx(3.0e-4)
        assert cfg.slow_nx == 24 and cfg.slow_nz == 24
        assert len(cfg.recon_pairs) == 3

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


class TestCalibrationSweep:
    def test_thread_count_does_not_change_sweep(self):
        """The sweep's worker threads share nothing that changes a fit."""
        cfg = apply_quick(PipelineConfig(threads=1))
        frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
        runs = [
            run_calibration_sweep(
                replace(cfg, threads=t), frames, delta_c_min=-20.0,
                delta_c_max=20.0, step=20.0, degrees=(1,),
                train_selector="every-2",
            )
            for t in (1, 2)
        ]
        one, two = (r.dataset.entries for r in runs)
        assert [e.delta_c for e in one] == [-20.0, 0.0, 20.0]
        assert [(e.slope, e.r_squared) for e in one] == \
            [(e.slope, e.r_squared) for e in two]
        assert np.all(np.diff([e.slope for e in one]) > 0)


class TestReport:
    def write_case(self, root, name, rmse_before, rmse_after):
        d = root / name
        d.mkdir(parents=True)
        (d / "case_metrics.csv").write_text(
            "case_id,rmse_before,rmse_after\n"
            f"{name},{rmse_before},{rmse_after}\n"
        )

    def test_aggregates_cases_with_mean_row(self, tmp_path):
        run = tmp_path / "run"
        self.write_case(run, "caseA", 10.0, 4.0)
        self.write_case(run, "caseB", 6.0, 2.0)
        summary = cmd_report(run)
        assert summary["cases"] == 2
        table = (run / "report" / "metrics_table.csv").read_text().splitlines()
        assert len(table) == 4  # header + 2 cases + mean
        assert table[-1].startswith("mean,")
        assert table[-1].split(",")[1] == "8.000000"

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
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cheap.ini"
    cfg_path.write_text(CHEAP_CONFIG)
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
        bad.write_text("[tracking]\nwobble = 3\n")
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "x"), "simulate",
        ])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "[roi]\nreference = probe_centre\n",
        "[calibration]\ndegree = 2\n",
    ])
    def test_bad_config_value_is_two(self, workspace, capsys, text):
        root, _ = workspace
        bad = root / "bad_value.ini"
        bad.write_text(text)
        rc = cli_main([
            "--config", str(bad), "--out", str(root / "x"), "simulate",
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

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

    def test_numerical_error_is_three(self, workspace, capsys):
        """A model whose invertible slope range excludes the observation."""
        root, cfg_path = workspace
        model = root / "narrow_model.txt"
        model.write_text(
            "soscorr calibration model v1\n"
            "convention delta_c = c_bf - c\n"
            "c_true 1500.0\n"
            "degree 1\n"
            "domain -1.0 1.0\n"
            "coefficients 0.0 1e-15\n"
            "training_indices 0 1\n"
            "sweep_metadata_hash 0\n"
        )
        rc = cli_main([
            "--config", str(cfg_path), "--out", str(root / "est"),
            "--quick", "estimate",
            "--frames", str(root / "frames"),
            "--model", str(model),
            "--c-bf", "1500",
        ])
        assert rc == 3

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
            "--frames", str(root / "frames"),
            "--model", str(root / "narrow_model.txt"),
            "--c-bf", "1500",
        ])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

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
        (case / "case_metrics.csv").write_text(
            "case_id,rmse_before,rmse_after\nc1,5.0,2.0\n"
        )
        rc = cli_main([
            "--out", str(root / "agg" / "report"),
            "report", "--run-dir", str(root / "agg"),
        ])
        assert rc == 0
        assert (root / "agg" / "report" / "metrics_table.csv").exists()
