#!/usr/bin/env python3
"""Comparing polynomial degrees for the slope-to-offset calibration.

Sweeps the beamforming SoS offset over +-40 m/s on a homogeneous
phantom, fits polynomial models of the slope-vs-offset curve on a
training subset, and reports the round-trip quality (estimate the
offset back from each held-out slope) per polynomial degree. It writes
no file: `soscorr calibrate` writes the model that estimate applies.

Run:  python demos/demo_calibration.py [--full]
"""

import argparse
import time

from soscorr.calibrate import estimate_offset
from soscorr.pipeline import PipelineConfig, apply_quick, \
    run_calibration_sweep, simulate_frames
from soscorr import calibrate as cal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="81-point sweep on full-resolution grids (slower)")
    args = ap.parse_args()

    cfg = PipelineConfig(threads=4)
    if args.full:
        step, degrees, selector = 1.0, cal.DEGREES, "every-4"
    else:
        cfg = apply_quick(cfg)
        step, degrees, selector = 5.0, (1, 3), "every-2"

    print("simulating the estimation pair ...")
    frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))

    print(f"sweeping delta_c in [-40, +40] m/s, step {step} ...")
    t0 = time.perf_counter()
    sweep = run_calibration_sweep(cfg, frames, step=step, degrees=degrees,
                                  train_selector=selector)
    print(f"  {len(sweep.dataset.entries)} points in "
          f"{time.perf_counter() - t0:.1f} s")

    print(f"\n{'degree':>6} {'train':>6} {'test':>5} {'test R^2':>9} "
          f"{'test RMSE (m/s)':>16}")
    for row in sweep.report_rows:
        print(f"{row['degree']:6d} {row['n_train']:6d} {row['n_test']:5d} "
              f"{row['test_r2']:9.4f} {row['test_rmse_mps']:16.2f}")

    deg = max(degrees)
    model = sweep.models[deg]
    print(f"\ndegree-{deg} round-trip spot checks "
          "(truth -> slope -> estimate):")
    for dc in (-30.0, -10.0, 0.0, 10.0, 30.0):
        slope = float(model.predict(dc))
        print(f"  delta_c {dc:+6.1f} m/s -> "
              f"{estimate_offset(model, slope):+6.2f} m/s")


if __name__ == "__main__":
    main()
