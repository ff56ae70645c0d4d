#!/usr/bin/env python3
"""End-to-end correction: wrong BF-SoS, estimate, correct, reconstruct.

Simulates an inclusion phantom, deliberately beamforms with a BF-SoS
1.5% off, estimates the offset from the (55, 65) pair pattern through
the calibration model that cmd_calibrate writes, and reconstructs the
local SoS map before and after correction (pipeline.correct_case). It
prints both maps' RMSE against the ground truth that cmd_simulate
writes beside the frames, that of a flat map at their c_bf, and their
inclusion CNR, as the reconstruct records hold them. The frames, the
calibration, both maps (CSV, each with a grid sidecar), the calibrate,
estimate and reconstruct records and the report.json that collects
them land in the output directory.

Run:  python demos/demo_correction.py --out /tmp/corr_demo
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from soscorr.calibrate import load_model
from soscorr.pipeline import (
    PipelineConfig,
    apply_quick,
    cmd_calibrate,
    cmd_report,
    cmd_simulate,
    correct_case,
)
from soscorr.synthsim import Inclusion


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=Path("corr_demo_out"))
    ap.add_argument("--offset-percent", type=float, default=1.5,
                    help="BF-SoS error as %% of the true speed (default +1.5)")
    args = ap.parse_args()

    base = apply_quick(PipelineConfig(threads=4))

    print("calibrating on the homogeneous phantom ...")
    t0 = time.perf_counter()
    cmd_calibrate(base, args.out / "calibrate")
    model = load_model(args.out / "calibrate" / "calibration_model.txt")
    print(f"  done in {time.perf_counter() - t0:.1f} s")

    inclusion = Inclusion(shape="ellipse", center=(-4e-3, 20e-3),
                          half_axes=(5e-3, 4e-3), sos=1540.0)
    cfg = replace(base, inclusions=(inclusion,))
    c_true = cfg.background_sos
    c_bf = c_true * (1.0 + args.offset_percent / 100.0)
    print(f"\nsimulating the inclusion phantom; beamforming at "
          f"{c_bf:.1f} m/s (truth {c_true:.0f}) ...")
    frames = cmd_simulate(cfg, args.out / "frames")

    print("estimating, then reconstructing before/after ...")
    case = correct_case(cfg, frames, model, c_bf, out_dir=args.out)
    est = case.estimate
    print(f"  estimated offset {est.delta_c_hat:+.2f} m/s -> corrected "
          f"BF-SoS {est.corrected_sos:.2f} m/s")

    print(f"\n{'':>10} {'RMSE (m/s)':>11} {'flat (m/s)':>11} {'CNR (dB)':>9}")
    for tag, scores in (("before", case.before.scores),
                        ("after", case.after.scores)):
        print(f"{tag:>10} {scores['rmse_vs_gt_mps']:11.2f} "
              f"{scores['rmse_flat_mps']:11.2f} {scores['cnr_db']:9.2f}")

    cmd_report(args.out)
    print(f"\nreport: {args.out / 'report' / 'report.json'}")


if __name__ == "__main__":
    main()
