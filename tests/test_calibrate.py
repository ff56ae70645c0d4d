"""Calibration model fitting, inversion, and persistence."""

import numpy as np
import pytest

from soscorr.calibrate import (
    CONVENTION,
    CalibrationDataset,
    CalibrationEntry,
    CalibrationError,
    OffsetOutOfRangeError,
    build_calibration,
    corrected_sos,
    estimate_offset,
    export_sweep,
    holdout_score,
    load_model,
    save_model,
)


def linear_dataset(a0=1e-9, a1=2e-9, dcs=None):
    if dcs is None:
        dcs = np.arange(-40.0, 41.0, 1.0)
    entries = tuple(
        CalibrationEntry(delta_c=float(dc), slope=a0 + a1 * dc)
        for dc in dcs
    )
    return CalibrationDataset(entries=entries)


class TestDataset:
    def test_duplicate_delta_c_rejected(self):
        with pytest.raises(ValueError):
            CalibrationDataset(entries=(
                CalibrationEntry(0.0, 1.0),
                CalibrationEntry(0.0, 2.0),
            ))

    def test_out_of_order_delta_c_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CalibrationDataset(entries=(
                CalibrationEntry(1.0, 1.0),
                CalibrationEntry(0.0, 2.0),
            ))

    def test_nonfinite_slope_rejected(self):
        with pytest.raises(ValueError):
            CalibrationDataset(entries=(
                CalibrationEntry(0.0, np.nan),
                CalibrationEntry(1.0, 1.0),
            ))


class TestBuildCalibration:
    def test_every4_split_on_81_points(self):
        ds = linear_dataset()
        model = build_calibration(ds, degree=1, train_selector="every-4")
        assert len(model.training_indices) == 21
        assert model.domain == (-40.0, 40.0)

    def test_recovers_exact_linear_coefficients(self):
        model = build_calibration(linear_dataset(a0=3e-9, a1=-2e-9), degree=1)
        assert model.coefficients[0] == pytest.approx(3e-9, rel=1e-9)
        assert model.coefficients[1] == pytest.approx(-2e-9, rel=1e-12)

    def test_higher_degree_fits_linear_data(self):
        model = build_calibration(linear_dataset(), degree=5,
                                  train_selector="every-4")
        pred = model.predict(np.array([-10.0, 0.0, 25.0]))
        assert np.allclose(pred, 1e-9 + 2e-9 * np.array([-10.0, 0.0, 25.0]),
                           rtol=1e-6)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            build_calibration(linear_dataset(), degree=2)

    def test_too_few_training_points(self):
        ds = linear_dataset(dcs=np.arange(-2.0, 3.0, 1.0))
        with pytest.raises(ValueError, match="training points"):
            build_calibration(ds, degree=5, train_selector="every-4")

    def test_nonmonotone_fit_raises_with_interval(self):
        dcs = np.arange(-40.0, 41.0, 1.0)
        entries = tuple(
            CalibrationEntry(float(dc), 1e-9 * dc * dc) for dc in dcs
        )
        ds = CalibrationDataset(entries=entries)
        with pytest.raises(CalibrationError, match="not monotonic"):
            build_calibration(ds, degree=3, train_selector="every-4")


class TestEstimateOffset:
    def test_degree1_analytic_inverse(self):
        model = build_calibration(linear_dataset(a0=1e-9, a1=2e-9), degree=1)
        slope = 1e-9 + 2e-9 * 17.0
        assert estimate_offset(model, slope) == pytest.approx(17.0, abs=1e-9)

    def test_degree1_zero_slope_at_origin(self):
        model = build_calibration(linear_dataset(a0=0.0, a1=2e-9), degree=1)
        assert estimate_offset(model, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_degree1_mild_extrapolation_allowed(self):
        model = build_calibration(linear_dataset(a0=0.0, a1=1e-9), degree=1)
        # 5% past the modeled range stays within the 10% grace band
        slope = 1e-9 * 42.0
        assert estimate_offset(model, slope) == pytest.approx(42.0, abs=1e-6)

    def test_degree1_far_out_of_range(self):
        model = build_calibration(linear_dataset(a0=0.0, a1=1e-9), degree=1)
        with pytest.raises(OffsetOutOfRangeError) as exc:
            estimate_offset(model, 1e-9 * 100.0)
        assert exc.value.nearest_delta_c == pytest.approx(40.0)

    def test_degree3_bisection_roundtrip(self):
        dcs = np.arange(-40.0, 41.0, 1.0)
        entries = tuple(
            CalibrationEntry(float(dc), 2e-9 * dc + 1e-12 * dc**3)
            for dc in dcs
        )
        ds = CalibrationDataset(entries=entries)
        model = build_calibration(ds, degree=3, train_selector="every-4")
        for dc in (-35.0, -7.0, 0.0, 12.0, 33.0):
            slope = float(model.predict(dc))
            assert estimate_offset(model, slope) == pytest.approx(dc, abs=1e-2)

    def test_degree3_out_of_range_reports_nearest(self):
        dcs = np.arange(-40.0, 41.0, 1.0)
        entries = tuple(
            CalibrationEntry(float(dc), 2e-9 * dc) for dc in dcs
        )
        model = build_calibration(CalibrationDataset(entries=entries),
                                  degree=3, train_selector="every-4")
        with pytest.raises(OffsetOutOfRangeError) as exc:
            estimate_offset(model, -2e-9 * 50.0)
        assert exc.value.nearest_delta_c == pytest.approx(-40.0)


class TestHoldoutScore:
    def test_out_of_range_slope_counts_as_nearest_boundary(self):
        """every-2 fits -20, 0 and +20 and holds out -10 and +10; the
        slope held out at +10 lies far past the model's range, so it
        is scored as the +20 boundary."""
        entries = tuple(CalibrationEntry(dc, 1e-9 * dc)
                        for dc in (-20.0, -10.0, 0.0, 20.0))
        ds = CalibrationDataset(entries=(
            *entries[:3], CalibrationEntry(10.0, 1e-7), entries[3]))
        model = build_calibration(ds, degree=1, train_selector="every-2")
        with pytest.raises(OffsetOutOfRangeError):
            estimate_offset(model, 1e-7)
        score = holdout_score(ds, model)
        # estimates -10 and +20 against true -10 and +10
        assert score["n_train"] == 3
        assert score["n_test"] == 2
        assert score["test_rmse_mps"] == pytest.approx(np.sqrt(50.0))
        assert score["test_r2"] == pytest.approx(0.5)


class TestCorrectedSoS:
    def test_overestimated_bf_sos(self):
        assert corrected_sos(1540.0, 40.0) == pytest.approx(1500.0)

    def test_underestimated_bf_sos(self):
        assert corrected_sos(1460.0, -31.0) == pytest.approx(1491.0)

    def test_zero_offset_identity(self):
        assert corrected_sos(1525.0, 0.0) == 1525.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = build_calibration(linear_dataset(a0=1.5e-9, a1=-3e-9),
                                  degree=1)
        path = tmp_path / "model.txt"
        save_model(path, model)
        back = load_model(path)
        assert back.degree == 1
        assert np.allclose(back.coefficients, model.coefficients)
        assert back.domain == model.domain
        assert back.training_indices == model.training_indices

    def test_estimation_grid_is_persisted_and_required(self, tmp_path):
        """The grid a model was measured on is kept as text, "unknown"
        when its dataset named none; a file without the line, written
        before models named their grid, is refused."""
        ds = linear_dataset()
        grid = "x0 -0.5, z0 0.0025, dx 0.0003, dz 3.75e-05, nx 3, nz 4"
        path = tmp_path / "model.txt"
        for metadata, expected in (({"estimation_grid": grid}, grid),
                                   ({}, "unknown")):
            model = build_calibration(CalibrationDataset(ds.entries, metadata))
            save_model(path, model)
            assert load_model(path).metadata["estimation_grid"] == expected
        path.write_text("".join(
            line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith("estimation_grid ")))
        with pytest.raises(ValueError, match="no 'estimation_grid' line"):
            load_model(path)

    def test_unknown_line_is_ignored(self, tmp_path):
        """A model file of an earlier version, with its
        sweep_metadata_hash or c_true line, still loads: an unknown key
        is ignored."""
        model = build_calibration(linear_dataset(), degree=1)
        path = tmp_path / "model.txt"
        save_model(path, model)
        text = path.read_text()
        assert "sweep_metadata_hash" not in text and "c_true" not in text
        path.write_text(text + "sweep_metadata_hash 555838704105a3ce\n"
                        "c_true 1500.0\n")
        back = load_model(path)
        assert back.coefficients.tobytes() == model.coefficients.tobytes()
        assert back.metadata.keys() == {"estimation_grid"}

    def test_convention_is_persisted_and_checked(self, tmp_path):
        model = build_calibration(linear_dataset(), degree=1)
        path = tmp_path / "model.txt"
        save_model(path, model)
        text = path.read_text()
        assert CONVENTION in text
        path.write_text(text.replace(CONVENTION, "delta_c = c - c_bf"))
        with pytest.raises(ValueError, match="convention"):
            load_model(path)

    def test_export_sweep_marks_split(self, tmp_path):
        ds = linear_dataset()
        model = build_calibration(ds, degree=1, train_selector="every-4")
        path = tmp_path / "sweep.csv"
        export_sweep(path, ds, model)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 82
        splits = [ln.split(",")[2] for ln in lines[1:]]
        assert splits.count("train") == 21
        assert splits.count("test") == 60


class TestSweepRoundTrip:
    """End-to-end behavior of models built from the real 81-point sweep."""

    def test_degree1_holdout_quality(self, sweep81):
        row = next(r for r in sweep81.report_rows if r["degree"] == 1)
        assert row["n_train"] == 21
        assert row["n_test"] == 60
        assert row["test_r2"] >= 0.9
        assert row["test_rmse_mps"] <= 5.0

    def test_degree5_not_worse_than_degree1(self, sweep81):
        rows = {r["degree"]: r for r in sweep81.report_rows}
        assert rows[5]["test_rmse_mps"] <= rows[1]["test_rmse_mps"]

    def test_sweep_slope_is_increasing_in_offset(self, sweep81):
        """Larger c_bf - c gives a larger fitted angular slope."""
        model = sweep81.models[1]
        assert model.coefficients[1] > 0
