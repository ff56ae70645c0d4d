#!/usr/bin/env python3
"""End-to-end correction: wrong BF-SoS, estimate, correct, reconstruct.

Simulates an inclusion phantom, deliberately beamforms with a BF-SoS
1.5% off, estimates the offset from the (55, 65) pair pattern through
the calibration model that cmd_calibrate writes, and reconstructs the
local SoS map before and after correction. It prints both maps' RMSE
against the ground truth that cmd_simulate writes beside the frames,
and their inclusion CNR. The frames, the calibration, both maps (CSV,
each with a grid sidecar), the calibrate, estimate and reconstruct
records and the report.json that collects them land in the output
directory.

Run:  python demos/demo_correction.py --out /tmp/corr_demo
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from soscorr.calibrate import load_model
from soscorr.metrics import cnr_db
from soscorr.pipeline import (
    PipelineConfig,
    apply_quick,
    cmd_calibrate,
    cmd_estimate,
    cmd_reconstruct,
    cmd_report,
    cmd_simulate,
    region_labels,
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
    labels = region_labels(cfg)

    est = cmd_estimate(cfg, frames, model, c_bf,
                       out_dir=args.out / "estimate")
    print(f"  estimated offset {est.delta_c_hat:+.2f} m/s -> corrected "
          f"BF-SoS {est.corrected_sos:.2f} m/s")

    print("reconstructing before/after ...")
    before = cmd_reconstruct(cfg, frames, c_bf, out_dir=args.out / "before")
    after = cmd_reconstruct(cfg, frames, est.corrected_sos,
                            out_dir=args.out / "after")

    print(f"\n{'':>10} {'RMSE (m/s)':>11} {'CNR (dB)':>9}")
    print(f"{'before':>10} {before.rmse_vs_gt:11.2f} "
          f"{cnr_db(before.sos_map, labels):9.2f}")
    print(f"{'after':>10} {after.rmse_vs_gt:11.2f} "
          f"{cnr_db(after.sos_map, labels):9.2f}")

    cmd_report(args.out)
    print(f"\nreport: {args.out / 'report' / 'report.json'}")


if __name__ == "__main__":
    main()
