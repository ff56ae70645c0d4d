"""In-process span tracer for the benchmark's traced run.

`Tracer.patched()` wraps the layer functions under the names the
pipeline looks them up by, records one span per call (name, layer,
start, end, parent) plus work counts derived from the call's inputs and
outputs, and restores the originals on exit. Spans stay in memory until
the benchmark writes them out. The package itself is not modified. The
traced pass runs on one thread, so one stack gives every span's parent.
"""

from __future__ import annotations

import contextlib
import functools
import struct
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("synthsim", "beamform", "delaytrack", "regress", "calibrate",
          "tomo", "pipeline")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    def as_dict(self, t0: float) -> dict:
        return {
            "id": self.sid, "parent": self.parent, "name": self.name,
            "layer": self.layer, "start_s": self.start - t0,
            "end_s": self.end - t0, "counts": self.counts,
            "error": self.error,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str, count=None):
        """fn wrapped in a span; count(sp.counts, args, kwargs, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                count(sp.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced layer function; restore the originals on exit."""
        from soscorr import calibrate as cal
        from soscorr import pipeline, synthsim

        saved = []

        def patch(owner, attr, layer, count=None, name=None):
            orig = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            new = self.wrap(orig, name or attr, layer, count)
            saved.append((owner, attr, orig))
            if isinstance(owner, dict):
                owner[attr] = new
            else:
                setattr(owner, attr, new)

        patch(synthsim, "travel_times", "synthsim", _count_quadrature)
        patch(synthsim.PulseSpec, "waveform", "synthsim", _count_waveform)
        for attr in ("simulate_frame", "gen_scatterers"):
            patch(pipeline, attr, "synthsim")
        patch(pipeline, "write_frame_set", "synthsim", _count_written)
        patch(pipeline, "read_frame_set", "synthsim", _count_read)
        patch(pipeline, "das_beamform", "beamform", _count_das)
        patch(pipeline, "track_delays", "delaytrack", _count_ncc)
        patch(pipeline, "extract_pattern", "regress")
        for key in list(pipeline.FITTERS):
            patch(pipeline.FITTERS, key, "regress", _count_fit,
                  name="fit_" + key)
        for attr in ("build_calibration", "estimate_offset", "corrected_sos",
                     "load_model", "save_model", "export_sweep"):
            patch(cal, attr, "calibrate")
        patch(pipeline, "build_path_matrix", "tomo", _count_paths)
        patch(pipeline, "tv_operator", "tomo")
        patch(pipeline, "reconstruct", "tomo", _count_solve)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = orig
                else:
                    setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# work counts, computed from call inputs and outputs (not measured)


def _count_quadrature(c, args, kwargs, result):
    """Slowness samples the trapezoid rule evaluates (0 when homogeneous)."""
    p_from, p_to, medium = args[:3]
    step = args[3] if len(args) > 3 else kwargs.get("step")
    if medium.is_homogeneous:
        c["quadrature_samples"] = 0
        return
    a, b = np.broadcast_arrays(np.atleast_2d(p_from), np.atleast_2d(p_to))
    dist = np.hypot(*(b - a).reshape(-1, 2).T)
    if step is None:
        step = min(medium.grid.dx, medium.grid.dz) / 2.0
    n = max(int(np.ceil(float(dist.max(initial=0.0)) / step)), 1) + 1
    c["quadrature_samples"] = int(dist.size * n)


def _count_waveform(c, args, kwargs, result):
    c["samples"] = int(np.size(result))


def _frame_bytes(frames) -> int:
    from soscorr.synthsim import FRAME_MAGIC

    header = len(FRAME_MAGIC) + struct.calcsize("<HHIIdd")
    return sum(header + 4 * fr.samples.size for fr in frames)


def _count_written(c, args, kwargs, result):
    c["bytes"] = _frame_bytes(args[1])


def _count_read(c, args, kwargs, result):
    c["bytes"] = _frame_bytes(result.values())


def _count_das(c, args, kwargs, result):
    frame, array, cfg = args[:3]
    c["pixel_channels"] = int(cfg.grid.nx * cfg.grid.nz * array.num_elements)


def _count_ncc(c, args, kwargs, result):
    cfg = args[2]
    nodes = int(result.delays.size)
    c["nodes"] = nodes
    c["valid_nodes"] = int(np.count_nonzero(result.valid))
    c["ncc_macs"] = nodes * (2 * cfg.search_radius + 1) * cfg.window_len


def _count_fit(c, args, kwargs, result):
    c["iterations"] = int(result.iterations)
    c["converged"] = int(bool(result.converged))


def _count_paths(c, args, kwargs, result):
    c["nnz"] = int(result.matrix.nnz)
    c["rows"] = int(result.matrix.shape[0])


def _count_solve(c, args, kwargs, result):
    info = result[1]
    c["iterations"] = int(info.iterations)
    c["converged"] = int(bool(info.converged))


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - cov for sp, cov in zip(spans, covered)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times (s) and computed work counts from one traced pass."""
    selfs = self_times(spans)

    def dur(*names):
        return sum(sp.end - sp.start for sp in spans if sp.name in names)

    def total(key, *names):
        return sum(sp.counts.get(key, 0) for sp in spans if sp.name in names)

    def calls(*names):
        return sum(1 for sp in spans if sp.name in names)

    fitters = tuple(sorted({sp.name for sp in spans
                            if sp.name.startswith("fit_")}))
    m = {f"{layer}.self_s": sum(s for sp, s in zip(spans, selfs)
                                if sp.layer == layer)
         for layer in LAYERS}
    das_s = dur("das_beamform")
    pixel_channels = total("pixel_channels", "das_beamform")
    nodes = total("nodes", "track_delays")
    fits = calls(*fitters)
    solves = calls("reconstruct")
    m.update({
        "synthsim.travel_times_s": dur("travel_times"),
        "synthsim.travel_times_calls": calls("travel_times"),
        "synthsim.quadrature_samples": total("quadrature_samples",
                                             "travel_times"),
        "synthsim.waveform_s": dur("waveform"),
        "synthsim.waveform_samples": total("samples", "waveform"),
        "synthsim.frame_self_s": sum(s for sp, s in zip(spans, selfs)
                                     if sp.name == "simulate_frame"),
        "synthsim.write_s": dur("write_frame_set"),
        "synthsim.bytes_written": total("bytes", "write_frame_set"),
        "synthsim.read_s": dur("read_frame_set"),
        "synthsim.bytes_read": total("bytes", "read_frame_set"),
        "beamform.das_s": das_s,
        "beamform.das_calls": calls("das_beamform"),
        "beamform.pixel_channels": pixel_channels,
        "beamform.pixel_channels_per_s": (pixel_channels / das_s
                                          if das_s > 0 else 0.0),
        "delaytrack.track_s": dur("track_delays"),
        "delaytrack.ncc_macs": total("ncc_macs", "track_delays"),
        "delaytrack.valid_fraction": (total("valid_nodes", "track_delays")
                                      / nodes if nodes else 0.0),
        "regress.pattern_s": dur("extract_pattern"),
        "regress.fit_s": dur(*fitters),
        "regress.irls_iterations": total("iterations", *fitters),
        "regress.fit_converged_fraction": (total("converged", *fitters)
                                           / fits if fits else 0.0),
        "calibrate.invert_s": dur("estimate_offset"),
        "calibrate.out_of_range": sum(
            1 for sp in spans if sp.name == "estimate_offset"
            and sp.error == "OffsetOutOfRangeError"),
        "tomo.path_matrix_s": dur("build_path_matrix"),
        "tomo.path_nnz": total("nnz", "build_path_matrix"),
        "tomo.path_rows": total("rows", "build_path_matrix"),
        "tomo.solve_s": dur("reconstruct"),
        "tomo.lbfgs_iterations": total("iterations", "reconstruct"),
        "tomo.converged_fraction": (total("converged", "reconstruct")
                                    / solves if solves else 0.0),
    })
    return m


# metrics derived from array sizes or call counts rather than timed
COMPUTED = {
    "synthsim.travel_times_calls", "synthsim.quadrature_samples",
    "synthsim.waveform_samples", "synthsim.bytes_written",
    "synthsim.bytes_read", "beamform.das_calls", "beamform.pixel_channels",
    "delaytrack.ncc_macs", "tomo.path_nnz", "tomo.path_rows",
}
