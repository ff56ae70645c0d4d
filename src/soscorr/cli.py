"""Command-line entry point for the full pipeline.

Subcommands: simulate, calibrate, estimate, reconstruct, report.
Exit codes: 0 success, 2 config error, 3 numerical/solver error
(including a delay pattern or fit without enough data), 4 missing input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .calibrate import CalibrationError, OffsetOutOfRangeError, load_model
from .pipeline import ConfigError, PipelineConfig, apply_quick, load_config
from .regress import (
    EmptyPatternError,
    InsufficientDataError,
    RankDeficiencyError,
)
from .synthsim import SOS_MAX, SOS_MIN
from .tomo import SolverError

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_MISSING = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="soscorr",
        description="Mean BF-SoS estimation, correction and local-SoS "
        "tomography on synthetic diverging-wave data",
    )
    p.add_argument("--config", type=Path, help="pipeline config file (INI)")
    p.add_argument("--out", type=Path, default=Path("soscorr_out"),
                   help="output directory")
    p.add_argument("--seed", type=int, help="override the scatterer seed")
    p.add_argument("--threads", type=int,
                   help="threads (>= 1) for simulation, reconstruction "
                   "beamforming and the calibration sweep: N threads, the "
                   "calling one included; N - 1 are started")
    p.add_argument("--quick", action="store_true",
                   help="coarse grids and low density for CI-scale runs")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="simulate channel data for all needed Tx")

    pc = sub.add_parser("calibrate", help="run the BF-SoS offset sweep and "
                        "build the calibration model")
    pc.add_argument("--range", type=float, default=40.0,
                    help="sweep half-range in m/s, a multiple of the 5 m/s "
                    "step of at least 10 (default 40)")

    pe = sub.add_parser("estimate", help="estimate the BF-SoS offset of a "
                        "channel-data directory")
    pe.add_argument("--frames", type=Path, required=True)
    pe.add_argument("--model", type=Path, required=True)
    pe.add_argument("--c-bf", type=float, required=True,
                    help="assumed beamforming SoS in m/s")

    pr = sub.add_parser("reconstruct", help="tomographic local-SoS map")
    pr.add_argument("--frames", type=Path, required=True)
    pr.add_argument("--c-bf", type=float, required=True)

    pp = sub.add_parser("report", help="collect run records into report.json")
    pp.add_argument("--run-dir", type=Path, required=True)
    return p


def _resolve_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if args.quick:
        cfg = apply_quick(cfg)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = pipeline.cmd_report(args.run_dir, args.out)
            print(f"report written to {args.out / 'report.json'}")
            if report["missing"]:
                print(f"no record of: {', '.join(report['missing'])}")
            return 0

        cfg = _resolve_config(args)
        # a NaN fails the comparison, so the band is written as the
        # condition that must hold
        if (args.command in ("estimate", "reconstruct")
                and not SOS_MIN <= args.c_bf <= SOS_MAX):
            raise ConfigError(f"--c-bf {args.c_bf!r}: must be in "
                              f"[{SOS_MIN}, {SOS_MAX}]")
        if args.command == "simulate":
            out = pipeline.cmd_simulate(cfg, args.out)
            print(f"frames written to {out}")
        elif args.command == "calibrate":
            result = pipeline.cmd_calibrate(cfg, args.out,
                                            half_range=args.range)
            for row in result.report_rows:
                print(
                    f"degree {row['degree']}: test R^2 = {row['test_r2']:.3f}, "
                    f"test RMSE = {row['test_rmse_mps']:.2f} m/s "
                    f"({row['n_train']} train / {row['n_test']} test)"
                )
            print(f"model written to {args.out / 'calibration_model.txt'}")
        elif args.command == "estimate":
            # a malformed model fails before any frame is read
            res = pipeline.cmd_estimate(
                cfg, args.frames, load_model(args.model), args.c_bf, args.out
            )
            print(f"observed slope: {res.observed_slope:.4e} s/rad")
            print(f"estimated delta_c (c_bf - c): {res.delta_c_hat:+.2f} m/s")
            print(f"corrected SoS: {res.corrected_sos:.2f} m/s")
        elif args.command == "reconstruct":
            res = pipeline.cmd_reconstruct(cfg, args.frames, args.c_bf, args.out)
            msg = f"SoS map written to {args.out}"
            if res.rmse_vs_gt is not None:
                msg += f"; RMSE vs ground truth = {res.rmse_vs_gt:.2f} m/s"
            if not res.info.converged:
                msg += " (solver did not converge)"
            print(msg)
        return 0
    except OffsetOutOfRangeError as e:
        print(
            f"error: {e}\nhint: re-run with an initial --c-bf closer to "
            f"{'higher' if e.nearest_delta_c < 0 else 'lower'} values, or "
            "rebuild the calibration over a wider sweep with calibrate "
            "--range",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (CalibrationError, SolverError, ArithmeticError, EmptyPatternError,
            InsufficientDataError, RankDeficiencyError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"missing input: {e}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
