#!/usr/bin/env python3
"""Acceptance criterion 4 on held-out scatterer seeds.

Runs the steps of criterion 4 (tests/test_acceptance.py) once per seed:
the calibration model that cmd_calibrate writes for the quick config,
then the 8-phantom desk set at +-1.5 % c_bf offsets, corrected and
reconstructed. The model is calibrated on --cal-seed, or on each
phantom seed itself when it is not given, as criterion 4 does. Each
seed prints one line: the mean and max |delta_c_hat - delta_c| of the
offset estimates, then the numbers criterion 4 checks on seed 12345:
cases whose RMSE fell, the mean RMSE reduction over all cases and per
offset sign (paper: 63 % over, 29 % under), cases whose CNR rose per
sign, the mean share of the true contrast the after maps recover, and
their mean RMSE over the inclusion, over the background and that of a
flat map at the corrected SoS. Nothing is asserted; about 20-35 s per
seed on 2 cores.

Run:  python demos/heldout_seeds.py [--seeds 777 2024 31415] [--cal-seed 12345]
"""

import argparse
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from soscorr.calibrate import CalibrationModel, load_model
from soscorr.pipeline import (
    PipelineConfig,
    apply_quick,
    cmd_calibrate,
    evaluate_phantom_set,
)


def calibrate(cfg: PipelineConfig) -> CalibrationModel:
    """The model cmd_calibrate writes for cfg, read back from its file."""
    with tempfile.TemporaryDirectory() as out:
        cmd_calibrate(cfg, out)
        return load_model(Path(out) / "calibration_model.txt")


def score(cfg: PipelineConfig, model: CalibrationModel) -> str:
    """Criterion 4's steps and numbers on cfg's scatterer seed."""
    t0 = time.perf_counter()
    cases = list(evaluate_phantom_set(cfg, model).values())
    over = [c for c in cases if c.c_bf_assumed > cfg.background_sos]
    under = [c for c in cases if c.c_bf_assumed < cfg.background_sos]
    err = [abs(c.estimate.delta_c_hat - (c.c_bf_assumed - cfg.background_sos))
           for c in cases]

    def reduction(group):
        return np.mean([c.rmse_reduction for c in group])

    def cnr_up(group):
        return sum(c.after.scores["cnr_db"] > c.before.scores["cnr_db"]
                   for c in group)

    def after(key):
        return np.mean([c.after.scores[key] for c in cases])

    recovery = np.mean([c.after.scores["contrast_mps"]
                        / c.after.scores["contrast_true_mps"] for c in cases])
    return (f"|delta_c_hat - delta_c| mean {np.mean(err):.2f}, "
            f"max {np.max(err):.2f} m/s, RMSE lower in "
            f"{sum(c.after.rmse_vs_gt < c.before.rmse_vs_gt for c in cases)}"
            f"/{len(cases)}, "
            f"mean reduction {reduction(cases):.1%}, "
            f"over {reduction(over):.1%} (paper 63%), "
            f"under {reduction(under):.1%} (paper 29%), "
            f"CNR up over {cnr_up(over)}/{len(over)}, "
            f"under {cnr_up(under)}/{len(under)}, "
            f"mean contrast recovery {recovery:.3f}, "
            f"after maps' RMSE inclusion {after('rmse_inclusion_mps'):.1f}, "
            f"background {after('rmse_background_mps'):.2f}, "
            f"flat at c_hat {after('rmse_flat_mps'):.2f} m/s, "
            f"{time.perf_counter() - t0:.0f} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[777, 2024, 31415])
    ap.add_argument("--cal-seed", type=int,
                    help="scatterer seed of the calibration sweep (default: "
                    "each phantom seed itself)")
    ap.add_argument("--threads", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()
    base = apply_quick(PipelineConfig(threads=args.threads))
    models = {}
    for seed in args.seeds:
        cal_seed = seed if args.cal_seed is None else args.cal_seed
        if cal_seed not in models:
            models[cal_seed] = calibrate(replace(base, seed=cal_seed))
        print(f"seed {seed} (calibrated on {cal_seed}): "
              f"{score(replace(base, seed=seed), models[cal_seed])}",
              flush=True)


if __name__ == "__main__":
    main()
