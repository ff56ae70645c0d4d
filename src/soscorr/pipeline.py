"""End-to-end pipeline orchestration: simulate, calibrate, estimate,
reconstruct, report.

Every stage persists its intermediates in documented open formats (CSV
plus the described flat binaries), so any stage can be re-run from disk
without the previous stage's in-memory state. A command's metrics are
one JSON record, <command>.json, written by write_record; cmd_report
collects those records.
"""

from __future__ import annotations

import configparser
import json
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import calibrate as cal
from .beamform import (
    BFConfig,
    ReceiveTable,
    das_beamform,
    receive_table,
)
from .delaytrack import TrackConfig, track_delays
from .geometry import ImagingGrid, PolarROI, TransducerArray
from .kernels import passes
from .metrics import RegionLabels, score_map
from .regress import FITTERS, extract_pattern
from .synthsim import (
    ChannelFrame,
    Inclusion,
    MediumSpec,
    PulseSpec,
    SOS_MAX,
    SOS_MIN,
    gen_scatterers,
    listed_frames,
    read_frame_set,
    receive_travel_times,
    simulate_frame,
    thread_map,
    write_frame_set,
)
from .tomo import (
    ReconInfo,
    build_path_matrix,
    reconstruct,
    to_sos,
    tv_operator,
)


class ConfigError(ValueError):
    pass


DEFAULT_RECON_PAIRS = (
    (24, 40), (40, 56), (56, 72), (72, 88), (88, 104), (104, 120),
)

# receive apodization for the estimation-pair beamforming; smooth
# aperture weighting keeps the tracked pattern close to the
# transmit-path echo-shift model
ESTIMATION_APODIZATION = "hann"

# the estimation pair's tracker: a long window for the global pattern
# fit; its window and lag search set estimation_grid()'s margins
ESTIMATION_TRACKING = TrackConfig(window_len=224)

# the estimation pair's pattern fit, a key of regress.FITTERS
ESTIMATION_FIT = "robust"

# the offset step of cmd_calibrate's sweep, in m/s: 17 offsets over
# its default +-40 m/s
CALIBRATION_STEP = 5.0

# reconstruction pairs lie further apart than the estimation pair and
# decorrelate more: their tracker pools 5 image columns per node and
# keeps only nodes whose peak NCC reaches 0.4. The shorter window keeps
# the delays local; nodes lie a sixth of it apart axially, as closer
# nodes repeat windows. The lag search is set per c_bf by
# recon_search_radius.
RECON_TRACKING = TrackConfig(window_len=96, axial_step=16, lateral_step=2,
                             lateral_window=5, min_ncc=0.4)


@dataclass
class PipelineConfig:
    # fixed, as the trackers, the ROI and the pairs were tuned for this
    # probe (apply_quick's pairs fit 128 elements), this pulse and this
    # axial pixel, in which tracker windows and lag searches are counted
    array: ClassVar[TransducerArray] = TransducerArray()
    pulse: ClassVar[PulseSpec] = PulseSpec()
    bf_dz: ClassVar[float] = 3.75e-5
    bf_z0: ClassVar[float] = 5.0e-3  # top of the reconstruction grid
    # the one transmit pair whose pattern slope estimates the offset
    estimation_pair: ClassVar[tuple[int, int]] = (55, 65)
    # the degree of the one model cmd_calibrate writes, which every
    # caller that applies a model reads back; on speckle the sweep did
    # not see, neither degree 1 nor 3 is the better on every seed
    calibration_degree: ClassVar[int] = 1

    background_sos: float = 1500.0
    inclusions: tuple[Inclusion, ...] = ()
    scatterer_density: float = 4.0  # per mm^2
    seed: int = 12345
    noise_snr_db: float | None = None

    # full beamforming grid for reconstruction
    bf_dx: float = 1.5e-4
    bf_depth: float = 33.0e-3

    # slowness grid
    slow_nx: int = 32
    slow_nz: int = 32

    recon_pairs: tuple[tuple[int, int], ...] = DEFAULT_RECON_PAIRS
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.noise_snr_db is not None and not np.isfinite(self.noise_snr_db):
            raise ConfigError(f"[simulation] noise_snr_db = "
                              f"{self.noise_snr_db!r}: must be finite")
        # a NaN fails every comparison, so each bound is written as the
        # condition that must hold
        for key, value in (("[grids] bf_dx", self.bf_dx),
                           ("[grids] bf_depth", self.bf_depth),
                           ("[grids] slow_nx", self.slow_nx),
                           ("[grids] slow_nz", self.slow_nz),
                           ("[scatterers] density", self.scatterer_density)):
            if not 0 < value < np.inf:
                raise ConfigError(f"{key} = {value!r}: must be finite and > 0")
        # an inclusion that misses the slowness grid would be dropped
        # from the medium without a word
        slow = self.slow_grid()
        for inc in self.inclusions:
            (cx, cz), (hx, hz) = inc.center, inc.half_axes
            if not (cx - hx < slow.x_max and cx + hx > slow.x_min
                    and cz - hz < slow.z_max and cz + hz > slow.z_min):
                raise ConfigError(
                    f"[medium] inclusions: {_format_inclusion(inc)!r} lies "
                    f"outside the medium, x in [{slow.x_min:g}, "
                    f"{slow.x_max:g}] m and z in [{slow.z_min:g}, "
                    f"{slow.z_max:g}] m")
        if not SOS_MIN <= self.background_sos <= SOS_MAX:
            raise ConfigError(f"[medium] background_sos = "
                              f"{self.background_sos!r}: must be in "
                              f"[{SOS_MIN}, {SOS_MAX}]")
        if self.seed < 0:
            raise ConfigError(f"[scatterers] seed = {self.seed!r}: must be >= 0")
        if not self.recon_pairs:
            raise ConfigError("[reconstruction] pairs: no transmit pair")
        for a, b in self.recon_pairs:
            if a == b:
                raise ConfigError(f"[reconstruction] pairs: pair {a},{b} "
                                  "transmits on one element twice")
            for e in (a, b):
                if not 0 <= e < self.array.num_elements:
                    raise ConfigError(
                        f"[reconstruction] pairs: element {e} of pair "
                        f"{a},{b} is not on the "
                        f"{self.array.num_elements}-element array")
        # the reconstruction tracker's window and its widest lag search,
        # at c_bf = SOS_MAX, must fit the grid's depth
        w, r = RECON_TRACKING.window_len, recon_search_radius(self, SOS_MAX)
        nz = self.full_grid().nz
        if nz < w + 2 * r:
            raise ConfigError(
                f"[grids] bf_depth = {self.bf_depth!r}: {nz} rows, fewer than "
                f"the reconstruction tracker's window {w} + 2 x search {r}")

    # ---- derived geometry -------------------------------------------------

    def medium(self) -> MediumSpec:
        return MediumSpec(
            background_sos=self.background_sos,
            grid=self.slow_grid(),
            inclusions=self.inclusions,
        )

    def scatterer_grid(self) -> ImagingGrid:
        """Extent populated with speckle: full aperture, shallow to deep."""
        half = self.array.aperture / 2
        dx = 5.0e-4
        nx = int(np.ceil(2 * half / dx))
        z_top = 3.0e-3
        depth = self.bf_z0 + self.bf_depth + 1e-3 - z_top
        dz = 5.0e-4
        nz = int(np.ceil(depth / dz))
        return ImagingGrid(x0=-half + dx / 2, z0=z_top + dz / 2, dx=dx, dz=dz,
                           nx=nx, nz=nz)

    def full_grid(self) -> ImagingGrid:
        half = self.array.aperture / 2
        nx = int(np.floor(2 * half / self.bf_dx)) + 1
        nz = int(np.round(self.bf_depth / self.bf_dz)) + 1
        return ImagingGrid(
            x0=-half, z0=self.bf_z0, dx=self.bf_dx, dz=self.bf_dz, nx=nx, nz=nz
        )

    def slow_grid(self) -> ImagingGrid:
        half = self.array.aperture / 2
        depth = self.bf_z0 + self.bf_depth + 1e-3
        dx = 2 * half / self.slow_nx
        dz = depth / self.slow_nz
        return ImagingGrid(
            x0=-half + dx / 2, z0=dz / 2, dx=dx, dz=dz,
            nx=self.slow_nx, nz=self.slow_nz,
        )

    def estimation_grid(self) -> ImagingGrid:
        """Tight beamforming grid around the pattern-extraction ROI."""
        roi = ESTIMATION_ROI
        w = ESTIMATION_TRACKING.window_len
        r = ESTIMATION_TRACKING.search_radius
        margin_z = (w / 2 + r + 2) * self.bf_dz
        z0 = max(self.bf_z0 * 0.5, roi.depth_min - margin_z - 1e-3)
        z1 = roi.depth_max + margin_z + 1e-3
        nz = int(np.ceil((z1 - z0) / self.bf_dz)) + 1
        half_lat = (roi.depth_max + 2e-3) * np.sin(
            max(abs(roi.theta_min), abs(roi.theta_max)) + 0.05
        )
        x0 = roi.reference_x - half_lat
        nx = int(np.ceil(2 * half_lat / self.bf_dx)) + 1
        return ImagingGrid(x0=x0, z0=z0, dx=self.bf_dx, dz=self.bf_dz, nx=nx, nz=nz)

    def required_tx(self) -> list[int]:
        txs = set(self.estimation_pair)
        for a, b in self.recon_pairs:
            txs |= {a, b}
        return sorted(txs)


# the polar ROI the pattern is fitted over, with its origin at the
# midpoint of the estimation pair's elements; the calibration model
# holds for this ROI only
ESTIMATION_ROI = PolarROI(
    depth_min=7.5e-3, depth_max=15.0e-3, theta_min=-0.4, theta_max=0.4,
    num_bins=40, reference_x=float(np.mean(PipelineConfig.array.element_x()[
        list(PipelineConfig.estimation_pair)])))


def apply_quick(cfg: PipelineConfig) -> PipelineConfig:
    """Coarsen grids and speckle density for CI-scale runs."""
    return replace(
        cfg,
        scatterer_density=min(cfg.scatterer_density, 2.0),
        bf_dx=max(cfg.bf_dx, 3.0e-4),
        bf_depth=min(cfg.bf_depth, 27.0e-3),
        slow_nx=min(cfg.slow_nx, 24),
        slow_nz=min(cfg.slow_nz, 24),
        recon_pairs=(
            cfg.recon_pairs
            if len(cfg.recon_pairs) <= 4
            else ((40, 56), (56, 72), (72, 88))
        ),
    )


# ---------------------------------------------------------------------------
# plain-text config files (INI sections, unknown keys rejected)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("a pair is two element indices 'a,b'")
    return int(parts[0]), int(parts[1])


def _parse_inclusion(text: str) -> Inclusion:
    parts = text.split()
    if len(parts) != 6:
        raise ValueError("inclusion must be 'shape cx cz hx hz sos'")
    cx, cz, hx, hz, sos = map(float, parts[1:])
    return Inclusion(shape=parts[0], center=(cx, cz), half_axes=(hx, hz),
                     sos=sos)


def _format_inclusion(inc: Inclusion) -> str:
    return (f"{inc.shape} {inc.center[0]!r} {inc.center[1]!r} "
            f"{inc.half_axes[0]!r} {inc.half_axes[1]!r} {inc.sos!r}")


def _format_pair(pair: tuple[int, int]) -> str:
    return f"{pair[0]},{pair[1]}"


# (section, key, PipelineConfig field, parse, format), in file order.
# inclusions is a multi-line value, one inclusion a line, in list order.
_FIELDS = (
    ("medium", "background_sos", "background_sos", float, repr),
    ("medium", "inclusions", "inclusions",
     lambda s: tuple(map(_parse_inclusion, filter(str.strip, s.splitlines()))),
     lambda incs: "\n    ".join(map(_format_inclusion, incs))),
    ("scatterers", "density", "scatterer_density", float, repr),
    ("scatterers", "seed", "seed", int, str),
    ("simulation", "noise_snr_db", "noise_snr_db",
     lambda s: float(s) if s else None, lambda v: "" if v is None else repr(v)),
    ("grids", "bf_dx", "bf_dx", float, repr),
    ("grids", "bf_depth", "bf_depth", float, repr),
    ("grids", "slow_nx", "slow_nx", int, str),
    ("grids", "slow_nz", "slow_nz", int, str),
    ("reconstruction", "pairs", "recon_pairs",
     lambda s: tuple(map(_parse_pair, s.split())),
     lambda pairs: " ".join(map(_format_pair, pairs))),
)
_ROWS = {(row[0], row[1]): row for row in _FIELDS}


def load_config(path: Path) -> PipelineConfig:
    """Parse the sectioned key/value config file; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise ConfigError(str(err)) from err
    if not read:
        raise FileNotFoundError(f"config file {path} not found")
    # configparser copies [DEFAULT] into every section and keeps it out
    # of sections(), so it is refused here rather than read as any section
    if cp.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    values = {}
    known_sections = {section for section, _ in _ROWS}
    for section in cp.sections():
        if section not in known_sections:
            keys = ", ".join(map(repr, cp[section]))
            raise ConfigError(f"unknown config section [{section}]"
                              + (f" with keys {keys}" if keys else ""))
        for key, text in cp[section].items():
            if (section, key) not in _ROWS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            _, _, name, parse, _ = _ROWS[section, key]
            try:
                values[name] = parse(text)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key} = {text!r}: {err}") from err
    return PipelineConfig(**values)


def dump_config(cfg: PipelineConfig) -> str:
    """Fully-resolved config in the same sectioned format."""
    lines = []
    for section, key, name, _, fmt in _FIELDS:
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        lines.append(f"{key} = {fmt(getattr(cfg, name))}")
    return "\n".join(lines[1:]) + "\n"


# ---------------------------------------------------------------------------
# stage implementations


def write_record(out_dir: Path, command: str, record: dict) -> None:
    """Write a command's metrics record to out_dir/<command>.json, as
    strict JSON: a float that is not finite, such as the -inf dB CNR of
    a map without contrast, is written as null."""
    strict = json.loads(json.dumps(record), parse_constant=lambda _: None)
    (Path(out_dir) / f"{command}.json").write_text(
        json.dumps(strict, indent=2, allow_nan=False))


def _passes_ran(*names: str) -> dict[str, str]:
    """The entries of :func:`~soscorr.kernels.passes` that names lists:
    the passes a command runs, which its record names."""
    return {k: v for k, v in passes().items() if k in names}


def generate_frames(cfg: PipelineConfig,
                    tx_list: list[int] | None = None) -> Iterator[ChannelFrame]:
    """Channel data for the required transmits, one frame at a time.

    The transmits are simulated one after another, each when the caller
    asks for it, so a caller that writes each frame before it asks for
    the next holds one frame at a time. The receive channels of each
    frame, and the receive travel-time table they share, are split
    across cfg.threads threads, the calling one included. Each frame's
    record ends after its own transmit's latest echo
    (:func:`simulate_frame`), so the frames of one set may differ in
    length.
    """
    medium = cfg.medium()
    fld = gen_scatterers(cfg.scatterer_grid(), cfg.scatterer_density, cfg.seed)
    txs = tx_list if tx_list is not None else cfg.required_tx()
    # the receive leg does not depend on the transmit: its travel times
    # and distances are built once per field and shared by every transmit
    t_rx, r_rx = receive_travel_times(fld, medium, cfg.array, cfg.threads,
                                      lengths=True)
    for tx in txs:
        yield simulate_frame(
            tx, fld, medium, cfg.pulse, cfg.array,
            noise_snr_db=cfg.noise_snr_db, noise_seed=cfg.seed + tx,
            t_rx=t_rx, threads=cfg.threads, r_rx=r_rx,
        )


def simulate_frames(cfg: PipelineConfig,
                    tx_list: list[int] | None = None) -> dict[int, ChannelFrame]:
    """The frames of :func:`generate_frames`, keyed by tx element."""
    return {fr.tx_element: fr for fr in generate_frames(cfg, tx_list)}


def _grid_sidecar(header: str, grid: ImagingGrid) -> str:
    """Text of a map's sidecar file: header, then the grid one key a line,
    lengths as Python float reprs."""
    x0, z0, dx, dz = map(float, (grid.x0, grid.z0, grid.dx, grid.dz))
    return (f"{header}x0 {x0!r}\nz0 {z0!r}\ndx {dx!r}\n"
            f"dz {dz!r}\nnx {grid.nx}\nnz {grid.nz}\n")


def _grid_line(grid: ImagingGrid) -> str:
    """The grid as one line: the sidecar's lines joined by ', '."""
    return ", ".join(_grid_sidecar("", grid).splitlines())


def cmd_simulate(cfg: PipelineConfig, out_dir: Path) -> Path:
    """Simulate and persist all frames the configured pipeline needs, and
    the ground-truth SoS map with its grid; each frame is written before
    the next one is simulated. simulate.json names the passes it ran
    (:func:`_passes_ran`): synth_kernel, and trace_kernel where the
    medium has an inclusion, so a run that fell back to a NumPy pass
    shows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_frame_set(out_dir, generate_frames(cfg), cfg.medium())
    grid = cfg.slow_grid()
    np.savetxt(out_dir / "gt_sos.csv", cfg.medium().rasterize(grid),
               delimiter=",", fmt="%.6f")
    (out_dir / "gt_sos.csv.txt").write_text(_grid_sidecar(
        "ground-truth SoS in m/s on the slowness grid\n", grid))
    (out_dir / "config_resolved.ini").write_text(dump_config(cfg))
    # a homogeneous medium's travel times take no ray trace
    traced = () if cfg.medium().is_homogeneous else ("trace_kernel",)
    write_record(out_dir, "simulate", _passes_ran(*traced, "synth_kernel"))
    return out_dir


def estimate_slope(
    frames: dict[int, ChannelFrame], c_bf: float, cfg: PipelineConfig,
    table: ReceiveTable | None = None,
):
    """Track the estimation pair at c_bf and fit the angular pattern.

    table is the estimation grid's receive table; a caller that
    estimates at many c_bf builds it once (:func:`receive_table`), and
    without it one is built here for both frames.
    """
    grid = cfg.estimation_grid()
    bfc = BFConfig(c_bf=c_bf, grid=grid, apodization=ESTIMATION_APODIZATION)
    if table is None:
        table = receive_table(cfg.array, grid)
    fa = das_beamform(frames[cfg.estimation_pair[0]], cfg.array, bfc,
                      table=table)
    fb = das_beamform(frames[cfg.estimation_pair[1]], cfg.array, bfc,
                      table=table)
    dmap = track_delays(fa, fb, ESTIMATION_TRACKING)
    pattern = extract_pattern(dmap, ESTIMATION_ROI)
    fit = FITTERS[ESTIMATION_FIT](pattern)
    return fit, pattern, dmap


@dataclass
class SweepResult:
    dataset: cal.CalibrationDataset
    models: dict[int, cal.CalibrationModel]
    report_rows: list[dict]


def run_calibration_sweep(
    cfg: PipelineConfig,
    frames: dict[int, ChannelFrame],
    delta_c_min: float = -40.0,
    delta_c_max: float = 40.0,
    step: float = 1.0,
    degrees: tuple[int, ...] = cal.DEGREES,
    train_selector="every-4",
) -> SweepResult:
    """Beamform/track/fit across the BF-SoS offset sweep and build models.

    The frames must be of a homogeneous medium at cfg.background_sos, as
    :func:`cmd_calibrate` checks. Evaluation rows report, per degree,
    the held-out score of :func:`calibrate.holdout_score`.
    """
    c_true = cfg.background_sos
    deltas = np.arange(delta_c_min, delta_c_max + step / 2, step)
    # one receive table for every offset, built before the workers start
    table = receive_table(cfg.array, cfg.estimation_grid())

    def one(dc):
        fit, _, _ = estimate_slope(frames, c_true + dc, cfg, table=table)
        return cal.CalibrationEntry(delta_c=float(dc), slope=fit.slope)

    entries = thread_map(one, deltas, cfg.threads)

    dataset = cal.CalibrationDataset(
        entries=tuple(entries),
        metadata={"estimation_grid": _grid_line(cfg.estimation_grid())},
    )

    models, rows = {}, []
    for deg in degrees:
        models[deg] = model = cal.build_calibration(
            dataset, degree=deg, train_selector=train_selector)
        rows.append({"degree": deg, **cal.holdout_score(dataset, model)})
    return SweepResult(dataset=dataset, models=models, report_rows=rows)


def cmd_calibrate(cfg: PipelineConfig, out_dir: Path,
                  half_range: float = 40.0) -> SweepResult:
    """The calibration recipe, the one way a model that estimate applies
    is built: simulates the estimation pair's frames and sweeps the
    offset over +-half_range m/s in CALIBRATION_STEP steps.

    calibrate.json holds report_rows, the held-out score of a
    calibration_degree fit on every second offset, the split that
    calibration_sweep.csv marks; calibration_model.txt is that degree
    fitted on every offset; the record also names the passes it ran,
    das_kernel and synth_kernel (:func:`_passes_ran`). The returned
    sweep holds the every-second fit. The medium and half_range are
    checked before the output directory is made.
    """
    if cfg.inclusions:
        raise ConfigError("calibration requires a homogeneous medium: "
                          "[medium] inclusions must be empty")
    # a NaN or an infinity fails the test, so it is written as the
    # condition that must hold; every-2 holds out 2 offsets or more
    if not (half_range >= 2 * CALIBRATION_STEP
            and half_range % CALIBRATION_STEP == 0):
        raise ConfigError(f"calibration range +-{half_range} m/s: must be a "
                          f"finite multiple of {CALIBRATION_STEP} m/s, at "
                          f"least {2 * CALIBRATION_STEP}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = simulate_frames(cfg, tx_list=list(cfg.estimation_pair))
    degree = cfg.calibration_degree
    result = run_calibration_sweep(
        cfg, frames, -half_range, half_range, step=CALIBRATION_STEP,
        degrees=(degree,), train_selector="every-2")
    cal.save_model(out_dir / "calibration_model.txt", cal.build_calibration(
        result.dataset, degree=degree, train_selector="every-1"))
    cal.export_sweep(out_dir / "calibration_sweep.csv", result.dataset,
                     result.models[degree])
    write_record(out_dir, "calibrate",
                 {"rows": result.report_rows,
                  **_passes_ran("das_kernel", "synth_kernel")})
    (out_dir / "config_resolved.ini").write_text(dump_config(cfg))
    return result


@dataclass
class EstimateResult:
    observed_slope: float
    delta_c_hat: float
    corrected_sos: float


def cmd_estimate(
    cfg: PipelineConfig,
    frames_dir: Path,
    model: cal.CalibrationModel,
    c_bf_assumed: float,
    out_dir: Path | None = None,
) -> EstimateResult:
    """Estimate and correct the BF-SoS offset of the frames in frames_dir.

    A model built on another estimation grid than the config's (another
    [grids] bf_dx), or on an unknown one, is refused before any frame
    is read. With out_dir, estimate.json also names the DAS pass it ran,
    das_kernel (:func:`_passes_ran`), so a run that fell back to the
    NumPy loop shows.
    """
    grid = _grid_line(cfg.estimation_grid())
    built_on = model.metadata.get("estimation_grid", "unknown")
    if built_on != grid:
        raise ConfigError(f"the calibration model was built on the "
                          f"estimation grid {built_on}; the config's "
                          f"estimation grid is {grid}")
    frames = read_frame_set(Path(frames_dir), cfg.estimation_pair)
    fit, pattern, dmap = estimate_slope(frames, c_bf_assumed, cfg)
    dc_hat = cal.estimate_offset(model, fit.slope)
    corrected = cal.corrected_sos(c_bf_assumed, dc_hat)
    result = EstimateResult(
        observed_slope=fit.slope,
        delta_c_hat=dc_hat,
        corrected_sos=corrected,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savetxt(out_dir / "pattern.csv", np.column_stack([
            pattern.thetas, pattern.median_delays, pattern.weights,
            fit.intercept + fit.slope * pattern.thetas,
        ]), fmt=("%.6f", "%.9e", "%.6f", "%.9e"), delimiter=",",
            header="theta_rad,median_delay_s,weight,fitted_value_s",
            comments="")
        X, Z = dmap.grid.meshgrid()
        np.savetxt(out_dir / "delay_map.csv", np.column_stack([
            a.ravel() for a in (X, Z, dmap.delays, dmap.ncc, dmap.valid)
        ]), fmt=("%.6e", "%.6e", "%.9e", "%.6f", "%d"), delimiter=",",
            header="x_m,z_m,delay_s,ncc,valid", comments="")
        write_record(out_dir, "estimate", {
            "convention": cal.CONVENTION,
            "c_bf_assumed": c_bf_assumed,
            "observed_slope_s_per_rad": fit.slope,
            "delta_c_hat_mps": dc_hat,
            "corrected_sos_mps": corrected,
            "fit_r_squared": fit.r_squared,
            "fit_iterations": fit.iterations,
            "fit_converged": fit.converged,
            "valid_fraction": float(np.mean(dmap.valid)),
            **_passes_ran("das_kernel"),
        })
    return result


@dataclass
class ReconResult:
    sos_map: np.ndarray  # absolute SoS, m/s, on the slowness grid
    info: ReconInfo  # the solve's health record
    clamped_fraction: float  # of sos_map's cells clamped to the SoS band
    scores: dict  # metrics.score_map's, empty without the frames' medium

    @property
    def rmse_vs_gt(self) -> float | None:
        return self.scores.get("rmse_vs_gt_mps")


def recon_search_radius(cfg: PipelineConfig, c_bf: float) -> int:
    """Axial lag search range, in beamformed pixels, of the reconstruction
    pairs.

    In a uniform medium a pair's delay is its slowness deviation times
    the difference of its two transmit paths, which is at most the
    distance between the two elements. The widest pair and the largest
    deviation from 1/c_bf inside the SoS sanity band bound the lag; one
    more pixel keeps a peak at that bound inside the search range,
    where the tracker can locate it.
    """
    spacing = max(abs(a - b) for a, b in cfg.recon_pairs) * cfg.array.pitch
    dsigma = max(1.0 / SOS_MIN - 1.0 / c_bf, 1.0 / c_bf - 1.0 / SOS_MAX)
    lag = spacing * dsigma / (2.0 * cfg.bf_dz / c_bf)
    return int(np.ceil(lag)) + 1


def cmd_reconstruct(
    cfg: PipelineConfig,
    frames_dir: Path,
    c_bf: float,
    out_dir: Path | None = None,
) -> ReconResult:
    """Tomographic local-SoS map of the frames in frames_dir at c_bf.

    With out_dir, writes the map with its grid sidecar, its objective
    trace and reconstruct.json: the solve's converged, iterations,
    grad_norm and message; its rows (measurements in the solve) and
    valid_fraction (tracked nodes kept by min_ncc); the map's
    clamped_fraction; the DAS pass it ran, das_kernel
    (:func:`_passes_ran`); and the result's scores.
    When frames_dir holds the config the frames were simulated with,
    config_resolved.ini, metrics.score_map scores the map against that
    config's medium on the map's own slowness grid, with or without
    out_dir. A config that does not load, or a beamforming grid that
    reaches below that config's speckle, is refused, named with its
    file, before any frame is read.
    """
    frames_dir = Path(frames_dir)
    txs = sorted({e for p in cfg.recon_pairs for e in p})
    slow_grid = cfg.slow_grid()
    grid = cfg.full_grid()
    sim_path = frames_dir / "config_resolved.ini"
    sim_cfg = None
    if sim_path.exists():
        try:
            sim_cfg = load_config(sim_path)
        except ConfigError as err:
            raise ConfigError(f"{sim_path}: {err}") from err
        speckle_depth = sim_cfg.scatterer_grid().z_max
        if grid.z_max > speckle_depth:
            raise ConfigError(
                f"{sim_path}: the beamforming grid reaches "
                f"{grid.z_max * 1e3:.2f} mm deep, below the speckle the frames "
                f"were simulated with, which ends at "
                f"{speckle_depth * 1e3:.2f} mm")

    track_cfg = replace(RECON_TRACKING,
                        search_radius=recon_search_radius(cfg, c_bf))
    bfc = BFConfig(c_bf=c_bf, grid=grid)
    # each worker reads its own frame, so only the frames being
    # beamformed are held, not the whole set; a frame that is not
    # listed or not present is found before any frame is beamformed
    listed_frames(frames_dir, txs)
    # one receive table for every frame, built before the workers start
    table = receive_table(cfg.array, grid)
    images = dict(zip(txs, thread_map(
        lambda tx: das_beamform(read_frame_set(frames_dir, [tx])[tx],
                                cfg.array, bfc, table=table),
        txs, cfg.threads)))
    # freed before tracking and the solve, whose peak it would raise
    del table
    dmaps = [track_delays(images[a], images[b], track_cfg)
             for a, b in cfg.recon_pairs]

    meas_grid = dmaps[0].grid
    masks = [d.valid for d in dmaps]
    L = build_path_matrix(
        list(cfg.recon_pairs), meas_grid, slow_grid, masks, cfg.array
    )
    delays = np.concatenate([d.delays[d.valid] for d in dmaps])
    D = tv_operator(slow_grid)
    dsigma, info = reconstruct(L, delays, D)
    sos_map, clamped = to_sos(dsigma, c_bf)

    scores = {} if sim_cfg is None else score_map(
        sos_map, sim_cfg.medium().rasterize(slow_grid),
        region_labels(sim_cfg, slow_grid), c_bf)
    result = ReconResult(sos_map=sos_map, info=info, clamped_fraction=clamped,
                         scores=scores)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savetxt(out_dir / "sos_map.csv", sos_map, delimiter=",", fmt="%.6f")
        (out_dir / "sos_map.csv.txt").write_text(_grid_sidecar(
            f"SoS map in m/s on the slowness grid\nc_bf {c_bf!r}\n", slow_grid))
        trace = info.objective_trace
        np.savetxt(out_dir / "objective_trace.csv",
                   np.column_stack([np.arange(len(trace)), trace]),
                   fmt=("%d", "%.9e"), delimiter=",",
                   header="iteration,objective", comments="")
        rows = L.matrix.shape[0]
        metrics = {"converged": info.converged,
                   "iterations": info.iterations,
                   "grad_norm": info.grad_norm, "message": info.message,
                   "rows": rows,
                   "valid_fraction": rows / sum(m.size for m in masks),
                   "clamped_fraction": clamped, **_passes_ran("das_kernel"),
                   **scores}
        write_record(out_dir, "reconstruct", metrics)
    return result


def region_labels(cfg: PipelineConfig,
                  grid: ImagingGrid | None = None) -> RegionLabels | None:
    """Inclusion/background masks of cfg's medium on grid, by default its
    slowness grid, if any inclusion."""
    if not cfg.inclusions:
        return None
    X, Z = (cfg.slow_grid() if grid is None else grid).meshgrid()
    inc = np.any([i.contains(X, Z) for i in cfg.inclusions], axis=0)
    return RegionLabels(inclusion=inc, background=~inc)


# ---------------------------------------------------------------------------
# desk-scale phantom set


def default_phantom_set(background_sos: float = 1500.0) -> list[tuple[str, tuple[Inclusion, ...]]]:
    """8 phantoms: 4 elliptical and 4 rectangular inclusions, +-20/40 m/s."""
    specs = [
        ("ellipse_p40", "ellipse", (-4e-3, 20e-3), (5e-3, 4e-3), 40.0),
        ("ellipse_m40", "ellipse", (4e-3, 22e-3), (4e-3, 5e-3), -40.0),
        ("ellipse_p20", "ellipse", (0e-3, 18e-3), (6e-3, 4e-3), 20.0),
        ("ellipse_m20", "ellipse", (-3e-3, 24e-3), (5e-3, 5e-3), -20.0),
        ("rect_p40", "rectangle", (3e-3, 20e-3), (5e-3, 4e-3), 40.0),
        ("rect_m40", "rectangle", (-4e-3, 22e-3), (4e-3, 4e-3), -40.0),
        ("rect_p20", "rectangle", (0e-3, 24e-3), (6e-3, 4e-3), 20.0),
        ("rect_m20", "rectangle", (4e-3, 18e-3), (5e-3, 5e-3), -20.0),
    ]
    return [(name, (Inclusion(shape, center, half, background_sos + dsos),))
            for name, shape, center, half, dsos in specs]


@dataclass
class CaseResult:
    """One correction case: the estimate from frames beamformed at
    c_bf_assumed, and the maps before and after correction."""

    c_bf_assumed: float
    estimate: EstimateResult
    before: ReconResult
    after: ReconResult

    @property
    def rmse_reduction(self) -> float:
        return 1.0 - self.after.rmse_vs_gt / self.before.rmse_vs_gt


def correct_case(
    cfg: PipelineConfig,
    frames_dir: Path,
    model: cal.CalibrationModel,
    c_bf: float,
    out_dir: Path | None = None,
) -> CaseResult:
    """Estimate the offset of the frames in frames_dir beamformed at
    c_bf, then reconstruct before and after correction; with out_dir,
    into its estimate, before and after directories."""
    est_dir, before_dir, after_dir = (
        None if out_dir is None else Path(out_dir) / name
        for name in ("estimate", "before", "after"))
    est = cmd_estimate(cfg, frames_dir, model, c_bf, est_dir)
    return CaseResult(
        c_bf_assumed=c_bf, estimate=est,
        before=cmd_reconstruct(cfg, frames_dir, c_bf, before_dir),
        after=cmd_reconstruct(cfg, frames_dir, est.corrected_sos, after_dir))


def evaluate_phantom_set(
    base_cfg: PipelineConfig,
    model: cal.CalibrationModel,
) -> dict[str, CaseResult]:
    """The :func:`correct_case` of each desk-scale phantom, by name.

    Each phantom is beamformed with a deliberately wrong BF-SoS (offsets
    alternate between +1.5 % and -1.5 % of the true background SoS),
    through a temporary frame directory that cmd_simulate writes, so
    both maps are scored against the ground truth.
    """
    results = {}
    for i, (name, incs) in enumerate(
            default_phantom_set(base_cfg.background_sos)):
        cfg = replace(base_cfg, inclusions=incs)
        pct = (1.5, -1.5)[i % 2]
        c_bf = cfg.background_sos * (1.0 + pct / 100.0)
        with tempfile.TemporaryDirectory() as frames_dir:
            cmd_simulate(cfg, frames_dir)
            results[name] = correct_case(cfg, frames_dir, model, c_bf)
    return results


# commands that leave a metrics record, in the order report.json lists them
RECORDED = ("calibrate", "estimate", "reconstruct")


def read_record(path: Path) -> dict:
    """A command's record; a file that is not one JSON object is a
    ValueError naming the file."""
    try:
        record = json.loads(path.read_text())
    except ValueError as err:
        raise ValueError(f"{path}: not a JSON record: {err}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: not a JSON record: holds no object")
    return record


def cmd_report(run_dir: Path, out_dir: Path | None = None) -> dict:
    """Collect the records the commands left under run_dir into report.json.

    For each recorded command the report lists every <command>.json under
    run_dir in path order, each with "dir", its directory relative to
    run_dir; "missing" names the commands that left no record. A run
    directory without any record is a missing input, a record file that
    holds no JSON object a ValueError.
    """
    run_dir = Path(run_dir)
    out_dir = Path(out_dir) if out_dir is not None else run_dir / "report"
    if not run_dir.exists():
        raise FileNotFoundError(f"run directory {run_dir} does not exist")
    report = {
        command: [
            {"dir": path.parent.relative_to(run_dir).as_posix(),
             **read_record(path)}
            for path in sorted(run_dir.rglob(f"{command}.json"))
        ]
        for command in RECORDED
    }
    report["missing"] = [c for c in RECORDED if not report[c]]
    if len(report["missing"]) == len(RECORDED):
        raise FileNotFoundError(
            f"no records under {run_dir}; expected "
            + ", ".join(f"{c}.json" for c in RECORDED)
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_record(out_dir, "report", report)
    return report
