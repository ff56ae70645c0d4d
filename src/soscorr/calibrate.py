"""Slope-vs-offset calibration model and its inverse lookup.

Convention used throughout: delta_c = c_bf - c, so a positive offset
means the beamforming SoS overestimates the medium. Every persisted
model and CSV carries this tag explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .regress import r_squared

CONVENTION = "delta_c = c_bf - c"
# polynomial degrees a calibration model may have
DEGREES = (1, 3, 5)


class CalibrationError(ValueError):
    """Fitted calibration polynomial is unusable (e.g. non-monotonic)."""


class OffsetOutOfRangeError(ValueError):
    def __init__(self, msg: str, nearest_delta_c: float):
        super().__init__(msg)
        self.nearest_delta_c = nearest_delta_c


@dataclass(frozen=True)
class CalibrationEntry:
    delta_c: float  # m/s, c_bf - c
    slope: float  # s/rad


@dataclass(frozen=True)
class CalibrationDataset:
    """Sweep entries in strictly increasing delta_c order."""

    entries: tuple[CalibrationEntry, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.delta_cs()) <= 0):
            raise ValueError("delta_c values must be strictly increasing")
        if not all(np.isfinite(e.slope) for e in self.entries):
            raise ValueError("slopes must be finite")

    def delta_cs(self) -> np.ndarray:
        return np.array([e.delta_c for e in self.entries])

    def slopes(self) -> np.ndarray:
        return np.array([e.slope for e in self.entries])


@dataclass(frozen=True)
class CalibrationModel:
    """Polynomial slope(delta_c), strictly monotonic over its domain."""

    degree: int
    coefficients: np.ndarray  # ascending order
    domain: tuple[float, float]  # m/s
    training_indices: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    def predict(self, delta_c):
        return np.polynomial.polynomial.polyval(delta_c, self.coefficients)


def _train_indices(n: int, selector: str) -> np.ndarray:
    """Indices 0, k, 2k, ... below n of an "every-k" selector."""
    if not selector.startswith("every-"):
        raise ValueError(f"train selector must be 'every-k', got {selector!r}")
    return np.arange(0, n, int(selector.removeprefix("every-")))


def build_calibration(
    dataset: CalibrationDataset, degree: int = 1, train_selector: str = "every-4"
) -> CalibrationModel:
    """Least-squares polynomial fit of slope against delta_c.

    The default every-4 selector turns an 81-point sweep into a 21-point
    training set with the remaining 60 points held out. Monotonicity is
    validated on a 0.1 m/s grid; a non-monotone fit raises
    CalibrationError naming the violating interval.
    """
    if degree not in DEGREES:
        raise ValueError(f"degree must be one of {DEGREES}")
    dcs = dataset.delta_cs()
    slopes = dataset.slopes()
    train = _train_indices(dcs.size, train_selector)
    if train.size < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} training points for degree {degree}"
        )
    coeffs = np.polynomial.polynomial.polyfit(dcs[train], slopes[train], degree)

    lo, hi = float(dcs[0]), float(dcs[-1])
    grid = np.arange(lo, hi + 0.05, 0.1)
    vals = np.polynomial.polynomial.polyval(grid, coeffs)
    diffs = np.diff(vals)
    if np.any(diffs >= 0) and np.any(diffs <= 0):
        bad = np.flatnonzero(diffs * diffs[0] <= 0)
        a, b = grid[bad[0]], grid[min(bad[0] + 1, grid.size - 1)]
        raise CalibrationError(
            f"fitted degree-{degree} polynomial is not monotonic over "
            f"[{lo}, {hi}] m/s (violation near [{a:.1f}, {b:.1f}] m/s)"
        )
    return CalibrationModel(
        degree=degree,
        coefficients=coeffs,
        domain=(lo, hi),
        training_indices=tuple(int(i) for i in train),
        metadata=dict(dataset.metadata),
    )


def holdout_score(dataset: CalibrationDataset,
                  model: CalibrationModel) -> dict:
    """Round-trip score of the sweep points the model was not fit on.

    Each held-out slope is inverted through the model; a slope outside
    the invertible range counts as its nearest domain boundary. Returns
    n_train, n_test, and the R^2 and RMSE (m/s) of the estimates.
    """
    train = set(model.training_indices)
    test = [e for i, e in enumerate(dataset.entries) if i not in train]
    est = []
    for e in test:
        try:
            est.append(estimate_offset(model, e.slope))
        except OffsetOutOfRangeError as err:
            est.append(err.nearest_delta_c)
    est = np.array(est)
    true = np.array([e.delta_c for e in test])
    return {
        "n_train": len(train),
        "n_test": true.size,
        "test_r2": r_squared(true, est),
        "test_rmse_mps": float(np.sqrt(np.mean((est - true)**2))),
    }


def estimate_offset(model: CalibrationModel, observed_slope: float) -> float:
    """Invert the calibration model: observed slope -> delta_c in m/s.

    Degree 1 inverts analytically and tolerates mild (10% of the slope
    span) extrapolation; higher degrees bisect the monotone polynomial
    and require the slope to be inside the modeled range.
    """
    lo, hi = model.domain
    s_lo = float(model.predict(lo))
    s_hi = float(model.predict(hi))
    s_min, s_max = min(s_lo, s_hi), max(s_lo, s_hi)
    linear = model.degree == 1
    if linear and model.coefficients[1] == 0:
        raise CalibrationError("degree-1 model has zero slope")
    margin = 0.1 * (s_max - s_min) if linear else 0.0
    if not s_min - margin <= observed_slope <= s_max + margin:
        nearest = lo if abs(observed_slope - s_lo) < abs(observed_slope - s_hi) else hi
        raise OffsetOutOfRangeError(
            f"observed slope {observed_slope:.3e} s/rad outside the "
            f"invertible range [{s_min:.3e}, {s_max:.3e}]"
            f"{' (+-10%)' if linear else ''}; "
            f"nearest boundary delta_c = {nearest:+.1f} m/s",
            nearest,
        )
    if linear:
        a0, a1 = model.coefficients
        return float((observed_slope - a0) / a1)
    # brentq returns an end point that is a root as it is
    return float(brentq(lambda dc: float(model.predict(dc)) - observed_slope,
                        lo, hi, xtol=1e-3))


def corrected_sos(c_bf_assumed: float, delta_c_hat: float) -> float:
    """Apply the estimated offset: c_corrected = c_bf - delta_c_hat."""
    return c_bf_assumed - delta_c_hat


# ---------------------------------------------------------------------------
# persistence


# the first line of a model file, naming its format
MODEL_HEADER = "soscorr calibration model v1"


def save_model(path: Path, model: CalibrationModel) -> None:
    lines = [
        MODEL_HEADER,
        f"convention {CONVENTION}",
        f"estimation_grid {model.metadata.get('estimation_grid', 'unknown')}",
        f"degree {model.degree}",
        f"domain {model.domain[0]!r} {model.domain[1]!r}",
        "coefficients " + " ".join(repr(float(c)) for c in model.coefficients),
        "training_indices " + " ".join(str(i) for i in model.training_indices),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path: Path) -> CalibrationModel:
    """Model saved by :func:`save_model`. A first line other than
    MODEL_HEADER, a missing key, a degree not in DEGREES, a coefficient
    count other than degree + 1 or a domain with lo >= hi is a
    ValueError naming the file and, but for the header, the key."""
    header, *lines = Path(path).read_text().splitlines() or [""]
    if header != MODEL_HEADER:
        raise ValueError(f"{path}: first line {header!r} is not "
                         f"{MODEL_HEADER!r}")
    fields: dict[str, str] = {}
    for line in lines:
        if line.strip():
            key, _, val = line.partition(" ")
            fields[key] = val
    if fields.get("convention") != CONVENTION:
        raise ValueError(f"{path}: unexpected sign convention")

    def values(key, parse):
        if key not in fields:
            raise ValueError(f"{path}: no {key!r} line")
        try:
            return [parse(v) for v in fields[key].split()]
        except ValueError as err:
            raise ValueError(f"{path}: {key}: {err}") from None

    degree = values("degree", int)
    coefficients = values("coefficients", float)
    domain = values("domain", float)
    training = values("training_indices", int)
    if len(degree) != 1 or degree[0] not in DEGREES:
        raise ValueError(f"{path}: degree {fields['degree']!r} is not one of "
                         f"{DEGREES}")
    if len(coefficients) != degree[0] + 1:
        raise ValueError(f"{path}: coefficients has {len(coefficients)} values, "
                         f"degree {degree[0]} needs {degree[0] + 1}")
    if len(domain) != 2 or not domain[0] < domain[1]:
        raise ValueError(f"{path}: domain {fields['domain']!r} is not 'lo hi' "
                         "with lo < hi")
    values("estimation_grid", str)  # required; kept as its text
    return CalibrationModel(
        degree=degree[0],
        coefficients=np.array(coefficients),
        domain=(domain[0], domain[1]),
        training_indices=tuple(training),
        metadata={"estimation_grid": fields["estimation_grid"]},
    )


def export_sweep(path: Path, dataset: CalibrationDataset,
                 model: CalibrationModel) -> None:
    """CSV of (delta_c, slope, split) for calibration-curve plots."""
    train = set(model.training_indices)
    np.savetxt(path, np.array([
        (e.delta_c, e.slope, "train" if i in train else "test", CONVENTION)
        for i, e in enumerate(dataset.entries)
    ], dtype=object), fmt=("%.3f", "%.9e", "%s", "%s"), delimiter=",",
        header="delta_c_mps,slope_s_per_rad,split,convention", comments="")
