"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced with `--tiny` and checks the
printed result against BENCHMARK.json: every end-to-end or per-layer
metric appears with its unit, and so does every named workload metric.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "simulate": {"frames_per_s": "1/s"},
    "correct": {"case_s": "s", "cal_rmse_mps": "m/s", "delta_c_err_mps": "m/s",
                "rmse_after_mps": "m/s", "contrast_recovery": "ratio"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_fraction": "ratio"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_prints_every_metric_with_unit(workload, trace):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
               "0.1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}

    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = fields[3]
    assert {**COMMON, **NAMED[workload]}.items() <= printed.items()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "simulate", "--seed", "1", "--seconds",
               "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
