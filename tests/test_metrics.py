"""Image-quality metrics: map RMSE, contrast-to-noise ratio and the map
scorer."""

import numpy as np
import pytest

from soscorr.metrics import (RegionLabels, cnr_db, cnr_linear, contrast,
                             rmse_map, score_map)


def labels_top_bottom(shape=(4, 4)):
    inc = np.zeros(shape, dtype=bool)
    inc[: shape[0] // 2] = True
    return RegionLabels(inclusion=inc, background=~inc)


class TestRMSEMap:
    def test_identical_maps(self):
        a = np.arange(12.0).reshape(3, 4)
        assert rmse_map(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros((5, 5))
        assert rmse_map(a + 5.0, a) == pytest.approx(5.0)

    def test_hand_value(self):
        est = np.array([[1.0, 2.0], [3.0, 4.0]])
        ref = np.array([[1.0, 2.0], [3.0, 10.0]])
        assert rmse_map(est, ref) == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse_map(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRegionLabels:
    def test_overlapping_masks_rejected(self):
        m = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValueError):
            RegionLabels(inclusion=m, background=m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RegionLabels(inclusion=np.ones((2, 2), dtype=bool),
                         background=np.zeros((3, 3), dtype=bool))


class TestCNR:
    def test_zero_contrast_is_zero_linear(self):
        # both regions have exactly zero mean but nonzero variance
        labels = labels_top_bottom((2, 2))
        img = np.array([[1.0, -1.0], [2.0, -2.0]])
        assert cnr_linear(img, labels) == 0.0
        assert cnr_db(img, labels) == -np.inf

    def test_hand_value_25_linear(self):
        # mean difference 5, both population variances 1 -> 2*25/2 = 25
        labels = labels_top_bottom((2, 2))
        img = np.array([[6.0, 4.0], [1.0, -1.0]])
        assert cnr_linear(img, labels) == pytest.approx(25.0)
        assert cnr_db(img, labels) == pytest.approx(10 * np.log10(25.0))
        assert cnr_db(img, labels) == pytest.approx(13.979, abs=1e-3)

    def test_zero_variance_contrast_is_inf(self):
        labels = labels_top_bottom((2, 2))
        img = np.array([[2.0, 2.0], [0.0, 0.0]])
        assert cnr_linear(img, labels) == np.inf
        assert cnr_db(img, labels) == np.inf

    def test_tiny_region_rejected(self):
        img = np.zeros((3, 3))
        inc = np.zeros((3, 3), dtype=bool)
        inc[0, 0] = True
        bkg = ~inc
        with pytest.raises(ValueError):
            cnr_linear(img, RegionLabels(inclusion=inc, background=bkg))


class TestScoreMap:
    def test_without_regions_scores_map_and_flat_map(self):
        gt = np.full((3, 3), 1500.0)
        assert score_map(gt + 2.0, gt, None, 1510.0) == {
            "rmse_vs_gt_mps": 2.0, "rmse_flat_mps": 10.0}

    def test_regions_contrast_and_cnr(self):
        labels = labels_top_bottom((2, 2))
        gt = np.array([[1540.0, 1540.0], [1500.0, 1500.0]])
        img = np.array([[1536.0, 1534.0], [1501.0, 1499.0]])
        scores = score_map(img, gt, labels, 1500.0)
        assert scores == {
            "rmse_vs_gt_mps": rmse_map(img, gt),
            "rmse_flat_mps": rmse_map(np.full((2, 2), 1500.0), gt),
            "rmse_inclusion_mps": rmse_map(img[:1], gt[:1]),
            "rmse_background_mps": 1.0,
            "contrast_mps": contrast(img, labels),
            "contrast_true_mps": 40.0,
            "cnr_db": cnr_db(img, labels),
        }
        assert scores["contrast_mps"] == 35.0

    def test_one_inclusion_cell_has_no_contrast_and_does_not_raise(self):
        """A contrast or CNR needs 2 cells in each region; a region
        RMSE needs one."""
        inc = np.zeros((3, 3), dtype=bool)
        inc[0, 0] = True
        gt = np.where(inc, 1540.0, 1500.0)
        scores = score_map(gt + 1.0, gt, RegionLabels(inc, ~inc), 1500.0)
        assert set(scores) == {"rmse_vs_gt_mps", "rmse_flat_mps",
                               "rmse_inclusion_mps", "rmse_background_mps"}
        assert scores["rmse_inclusion_mps"] == 1.0
