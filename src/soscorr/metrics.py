"""Evaluation metrics: map RMSE and inclusion/background CNR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegionLabels:
    """Disjoint inclusion and background masks over a map."""

    inclusion: np.ndarray  # bool (nz, nx)
    background: np.ndarray

    def __post_init__(self):
        if self.inclusion.shape != self.background.shape:
            raise ValueError("masks must share a shape")
        if np.any(self.inclusion & self.background):
            raise ValueError("inclusion and background masks must be disjoint")


def rmse_map(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square difference between two maps in m/s."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"grid mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def contrast(sos_map: np.ndarray, labels: RegionLabels) -> float:
    """Mean inclusion minus mean background value, in the map's unit."""
    return float(sos_map[labels.inclusion].mean()
                 - sos_map[labels.background].mean())


def cnr_linear(sos_map: np.ndarray, labels: RegionLabels) -> float:
    """Contrast-to-noise ratio 2(mu_inc - mu_bkg)^2 / (var_inc + var_bkg).

    Population variances. Degenerate cases: zero contrast gives 0; zero
    variance with nonzero contrast gives +inf.
    """
    inc = sos_map[labels.inclusion]
    bkg = sos_map[labels.background]
    if inc.size < 2 or bkg.size < 2:
        raise ValueError("both regions need at least 2 pixels")
    num = 2.0 * (inc.mean() - bkg.mean()) ** 2
    den = inc.var() + bkg.var()
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return float(num / den)


def cnr_db(sos_map: np.ndarray, labels: RegionLabels) -> float:
    """CNR on the decibel scale, 10*log10 of the linear value.

    Zero contrast is reported as the undefined sentinel -inf dB.
    """
    lin = cnr_linear(sos_map, labels)
    if lin == 0.0:
        return float("-inf")
    if np.isinf(lin):
        return float("inf")
    return float(10.0 * np.log10(lin))

