"""Config files, stage orchestration, reporting, and the CLI contract."""

import numpy as np
import pytest

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
    EmptyPatternError,
    InsufficientDataError,
    RankDeficiencyError,
)
from soscorr.synthsim import SOS_MAX, SOS_MIN, Inclusion
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
        from dataclasses import replace

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
        from dataclasses import replace

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
