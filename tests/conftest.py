"""Shared fixtures: expensive end-to-end artifacts are session-scoped.

The full-resolution two-frame dataset, its zero-offset tracking run and
the 81-point calibration sweep are reused by both the module tests and
the acceptance suite, so each is computed exactly once per session.
"""

import os

import pytest

from soscorr import kernels
from soscorr.pipeline import (
    PipelineConfig,
    apply_quick,
    estimate_slope,
    run_calibration_sweep,
    simulate_frames,
)

N_THREADS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def full_cfg():
    """Default full-resolution pipeline configuration."""
    return PipelineConfig(threads=N_THREADS)


@pytest.fixture(scope="session")
def quick_cfg():
    """Coarse CI-scale configuration."""
    return apply_quick(PipelineConfig(threads=N_THREADS))


@pytest.fixture(scope="session")
def est_frames(full_cfg):
    """Homogeneous 1500 m/s channel data for the estimation pair (55, 65)."""
    return simulate_frames(full_cfg, tx_list=[55, 65])


@pytest.fixture(scope="session")
def null_estimate(full_cfg, est_frames):
    """(fit, pattern, delay map) tracked at the matched BF-SoS of 1500."""
    return estimate_slope(est_frames, 1500.0, full_cfg)


@pytest.fixture(scope="session")
def sweep81(full_cfg, est_frames):
    """Full 81-point calibration sweep with the default 21/60 split."""
    return run_calibration_sweep(
        full_cfg, est_frames, step=1.0, train_selector="every-4",
        degrees=(1, 3, 5),
    )


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) wraps kernels' pass name, for the test, to
    count its calls into the list it returns; it skips the test where
    the pass is not loaded."""
    def wrap(name):
        fn = getattr(kernels, name)
        if fn is None:
            pytest.skip(f"kernels.{name} is not loaded on this host")
        calls = []

        def call(*args):
            calls.append(1)
            return fn(*args)

        monkeypatch.setattr(kernels, name, call)
        return calls

    return wrap
