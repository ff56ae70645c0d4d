#!/usr/bin/env python3
"""soscorr benchmark: phantom simulation and per-case correction.

    python3 perfbench/run.py --workload {simulate,correct} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from `src/` of
the same checkout; without it the benchmark exits with code 2 and
prints no result.

`--trace 0` sets up the workload (inputs built at threads = usable
cores, plus a warm-up) as many times as the workload's SETUPS says,
runs rounds of jobs at threads = 1, the pipeline's default, until S
seconds of job time have passed, checks every output and prints the
end-to-end metrics. `--trace 1` runs rounds untraced for S/3 seconds,
sets up once more at threads = 1, and runs the same rounds again with
a span around every layer call. It prints the per-layer metrics, the
set-up's parallel efficiency and the tracing overhead, and also checks
that the inputs built at 1 thread and the outputs of the traced pass
are bit-identical to the first ones.

Before the result, stdout lists the workload's named metrics, one per
line with unit. The last line is one JSON object with the keys
correct, attempted, failed and metrics. A full record naming the
machine and the run, plus the spans of a traced run, is written to
perfbench/out/. Exit code 1 means an output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}

# the workload's named metrics: (name, unit, key into the run summary)
NAMED = {
    "simulate": [("frames_per_s", "1/s", "items_per_s")],
    "correct": [("case_s", "s", "job_s"),
                ("cal_rmse_mps", "m/s", "cal_rmse_mps"),
                ("delta_c_err_mps", "m/s", "delta_c_err_mps"),
                ("rmse_before_mps", "m/s", "rmse_before_mps"),
                ("rmse_after_mps", "m/s", "rmse_after_mps"),
                ("contrast_recovery", "ratio", "contrast_recovery")],
}
NAMED_COMMON = [("setup_s", "s", "setup_s"), ("peak_rss_mb", "MB", "peak_rss_mb"),
                ("failed_fraction", "ratio", "failed_fraction")]

QUALITY_LAYER = {"cal_rmse_mps": "calibrate", "delta_c_err_mps": "calibrate",
                 "rmse_after_mps": "tomo", "contrast_recovery": "tomo"}


def per_layer_units(name: str) -> str:
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_mps"):
        return "m/s"
    if leaf.endswith("_per_s"):
        return "1/s"
    if leaf.endswith("_s"):
        return "s"
    if leaf.startswith("bytes"):
        return "B"
    if leaf.endswith(("_fraction", "_recovery", "_efficiency", "_overhead",
                      "_share")):
        return "ratio"
    return "count"


def run_pass(wl, stage, seconds=None, rounds=None):
    """Rounds of 1-thread jobs: a fixed count, or until `seconds` of job time.

    `job_s` is the mean over job kinds of each kind's median time, so a
    round more or less does not tip the median between kinds.
    """
    log = {"outputs": [], "times": {}, "attempted": 0, "failed": 0,
           "rounds": 0}
    wall = 0.0
    while log["rounds"] < rounds if rounds is not None else wall < seconds:
        for kind, job in wl.jobs(log["rounds"]):
            log["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = job(stage, 1)
            except Exception:
                traceback.print_exc()
                log["failed"] += 1
                out = None
            dt = time.perf_counter() - t0
            wall += dt
            log["times"].setdefault(kind, []).append(dt)
            if out is not None:
                log["outputs"].append(out)
        log["rounds"] += 1
    log["wall_s"] = wall
    log["job_s"] = statistics.mean(statistics.median(t)
                                   for t in log["times"].values())
    return log


def timed_setups(wl, threads, count):
    """Set the workload up `count` times; the set-up times in seconds."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        wl.setup(threads)
        times.append(time.perf_counter() - t0)
    return times


def check_pass(wl, log) -> list[str]:
    """Output checks of one pass, run outside its timing."""
    log["failures"] = wl.check(log["outputs"]) if log["outputs"] else []
    if log["failed"]:
        log["failures"].append(f"{log['failed']} of {log['attempted']} jobs "
                               "raised")
    return log["failures"]


def machine_info(threads: dict) -> dict:
    import numpy
    import scipy

    llc = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if llc is None or level > llc[0]:
            llc = (level, size)
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "host": platform.node(),
        "cpu_model": model,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads_used": threads,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "last_level_cache": (f"L{llc[0]} {llc[1]}" if llc else None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def source_info() -> dict:
    """Git commit when the checkout is a repository, and a source digest."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode())
        digest.update(p.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("simulate", "correct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the smoke test only")
    args = ap.parse_args(argv)

    if not (SRC / "soscorr" / "__init__.py").is_file():
        print(f"error: no soscorr package under {SRC}", file=sys.stderr)
        return 2
    # pinned before NumPy loads: the pipeline's own pool is the only
    # parallelism measured
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import soscorr

    if Path(soscorr.__file__).resolve().parent != SRC / "soscorr":
        print(f"error: imported soscorr from {soscorr.__file__}", file=sys.stderr)
        return 2
    from spans import COMPUTED, LAYERS, Tracer, layer_metrics
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = OUT / f"work-{os.getpid()}"
    def untraced(name):
        return contextlib.nullcontext()

    try:
        wl = WORKLOADS[args.workload](args.seed, work, tiny=args.tiny)
        setup_times = timed_setups(wl, nproc, wl.SETUPS)
        setup_s = statistics.median(setup_times)
        inputs = wl.inputs()

        # threads = 1: with the pool, the GIL hand-offs between workers
        # made job times several times less steady on a 2-vCPU VM
        main_pass = run_pass(wl, untraced, seconds=args.seconds
                             / (3 if args.trace else 1))
        passes = {"threads1": main_pass}
        failures = list(check_pass(wl, main_pass))
        fingerprint = wl.fingerprint(main_pass["outputs"])
        quality_pass = main_pass
        spans_out = None
        if args.trace:
            # the pool is used in set-up only, so its speed-up is measured
            # there: the same inputs built serially, untraced
            setup_1thread_s, = timed_setups(wl, 1, 1)
            if wl.inputs() != inputs:
                failures.append(f"{args.workload}: inputs built at threads=1 "
                                f"differ from threads={nproc}")
            tracer = Tracer()
            with tracer.patched(), tracer.span("pass", "bench") as root:
                traced = run_pass(
                    wl, lambda name: tracer.span(name, "pipeline"),
                    rounds=main_pass["rounds"])
            passes["threads1_traced"] = traced
            failures += check_pass(wl, traced)
            if wl.fingerprint(traced["outputs"]) != fingerprint:
                failures.append(f"{args.workload}: outputs of the traced "
                                "pass differ from the untraced pass")
            quality_pass = traced
            root_s = root.end - root.start
            per_layer = layer_metrics(tracer.spans)
            per_layer.update({
                "pipeline.parallel_efficiency":
                    setup_1thread_s / (nproc * setup_s),
                "bench.wall_1thread_s": main_pass["wall_s"],
                "bench.traced_wall_s": traced["wall_s"],
                "bench.tracing_overhead":
                    traced["wall_s"] / main_pass["wall_s"] - 1.0,
                "bench.layer_share": sum(per_layer[f"{layer}.self_s"]
                                         for layer in LAYERS) / root_s,
                "bench.spans": len(tracer.spans) - 1,
            })
            spans_out = [sp.as_dict(root.start) for sp in tracer.spans]
        quality = (wl.quality(quality_pass["outputs"])
                   if quality_pass["outputs"] else {})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    summary = {
        "setup_s": setup_s,
        "job_s": main_pass["job_s"],
        "items_per_s": 1.0 / main_pass["job_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": failed / attempted,
        **quality,
    }
    named = [(n, summary[key], unit)
             for n, unit, key in NAMED_COMMON + NAMED[args.workload]
             if key in summary]
    if args.trace:
        for name, layer in QUALITY_LAYER.items():
            per_layer[f"{layer}.{name}"] = quality.get(name, 0.0)
        metrics = {k: {"value": float(v), "unit": per_layer_units(k)}
                   for k, v in sorted(per_layer.items())}
    else:
        metrics = {k: {"value": float(summary[k]), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    record = {
        "machine": machine_info({"jobs": 1, "setup": nproc}),
        "run": {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "tiny": args.tiny, "utc": stamp, **source_info()},
        "setup_times_s": setup_times,
        "passes": {tag: {k: p[k] for k in ("rounds", "times", "wall_s",
                                           "job_s", "attempted", "failed",
                                           "failures")}
                   for tag, p in passes.items()},
        "named_metrics": {n: {"value": v, "unit": u} for n, v, u in named},
        "metrics": {k: {**v, "kind": "computed" if k in COMPUTED else "measured"}
                    for k, v in metrics.items()},
        "failures": failures,
    }
    record_path = OUT / f"{stem}.json"
    if spans_out is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans_out))
        record["spans_file"] = f"{stem}-spans.json"
    record_path.write_text(json.dumps(record, indent=2))

    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}, jobs at threads 1, set-up at "
          f"threads {nproc}, "
          f"record {record_path.relative_to(ROOT)}")
    for n, v, u in named:
        print(f"{args.workload:<9} {n:<20} {v:>14.6g} {u}")
    if args.trace:
        for k, v in metrics.items():
            print(f"{args.workload:<9} {k:<36} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics":
                      {k: {"value": v["value"], "unit": v["unit"]}
                       for k, v in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
