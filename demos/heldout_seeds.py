#!/usr/bin/env python3
"""Acceptance criterion 4 on held-out scatterer seeds.

Runs the steps of criterion 4 (tests/test_acceptance.py) once per seed:
the quick homogeneous (55, 65) pair, a 17-offset sweep at 5 m/s steps,
a degree-3 calibration model, and the 8-phantom desk set at +-1.5 %
c_bf offsets, corrected and reconstructed. Each seed prints one line
with the numbers criterion 4 checks on seed 12345: cases whose RMSE
fell, the mean RMSE reduction over all cases and per offset sign
(paper: 63 % over, 29 % under), cases whose CNR rose per sign, and the
mean share of the true contrast the after maps recover. Nothing is
asserted; about 20-35 s per seed on 2 cores.

Run:  python demos/heldout_seeds.py [--seeds 777 2024 31415]
"""

import argparse
import os
import time

import numpy as np

from soscorr.calibrate import build_calibration
from soscorr.pipeline import (
    PipelineConfig,
    apply_quick,
    evaluate_phantom_set,
    run_calibration_sweep,
    simulate_frames,
)


def score(seed: int, threads: int) -> str:
    """Criterion 4's steps and numbers on one scatterer seed."""
    t0 = time.perf_counter()
    cfg = apply_quick(PipelineConfig(seed=seed, threads=threads))
    frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
    sweep = run_calibration_sweep(cfg, frames, step=5.0, degrees=(1, 3),
                                  train_selector="every-2")
    model = build_calibration(sweep.dataset, degree=3,
                              train_selector="every-1")
    cases = evaluate_phantom_set(cfg, model)
    over = [c for c in cases if c.c_bf_assumed > cfg.background_sos]
    under = [c for c in cases if c.c_bf_assumed < cfg.background_sos]

    def reduction(group):
        return np.mean([c.rmse_reduction for c in group])

    def cnr_up(group):
        return sum(c.cnr_after_db > c.cnr_before_db for c in group)

    recovery = np.mean([c.contrast_after / c.contrast_true for c in cases])
    return (f"seed {seed}: RMSE lower in "
            f"{sum(c.rmse_after < c.rmse_before for c in cases)}/{len(cases)}, "
            f"mean reduction {reduction(cases):.1%}, "
            f"over {reduction(over):.1%} (paper 63%), "
            f"under {reduction(under):.1%} (paper 29%), "
            f"CNR up over {cnr_up(over)}/{len(over)}, "
            f"under {cnr_up(under)}/{len(under)}, "
            f"mean contrast recovery {recovery:.3f}, "
            f"{time.perf_counter() - t0:.0f} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[777, 2024, 31415])
    ap.add_argument("--threads", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()
    for seed in args.seeds:
        print(score(seed, args.threads), flush=True)


if __name__ == "__main__":
    main()
