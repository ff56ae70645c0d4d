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
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

import numpy as np

from . import calibrate as cal
from .beamform import BFConfig, das_beamform
from .delaytrack import TrackConfig, export_delay_map, track_delays
from .geometry import ImagingGrid, PolarROI, TransducerArray, element_position
from .metrics import RegionLabels, cnr_db, contrast, rmse_map
from .regress import FITTERS, extract_pattern, export_pattern
from .synthsim import (
    ChannelFrame,
    Inclusion,
    MediumSpec,
    PulseSpec,
    SOS_MAX,
    SOS_MIN,
    gen_scatterers,
    read_frame_set,
    receive_travel_times,
    simulate_frame,
    thread_map,
    write_frame_set,
)
from .tomo import (
    ReconConfig,
    ReconInfo,
    build_path_matrix,
    reconstruct,
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
    array: TransducerArray = field(default_factory=TransducerArray)
    pulse: PulseSpec = field(default_factory=PulseSpec)
    background_sos: float = 1500.0
    inclusions: tuple[Inclusion, ...] = ()
    scatterer_density: float = 4.0  # per mm^2
    seed: int = 12345
    noise_snr_db: float | None = None

    # full beamforming grid for reconstruction
    bf_dx: float = 1.5e-4
    bf_dz: float = 3.75e-5
    bf_z0: float = 5.0e-3
    bf_depth: float = 33.0e-3

    # slowness grid
    slow_nx: int = 32
    slow_nz: int = 32

    roi_depth_min: float = 7.5e-3
    roi_depth_max: float = 15.0e-3
    roi_theta_min: float = -0.4
    roi_theta_max: float = 0.4
    roi_num_bins: int = 40

    estimation_pair: tuple[int, int] = (55, 65)
    recon_pairs: tuple[tuple[int, int], ...] = DEFAULT_RECON_PAIRS
    recon: ReconConfig = field(default_factory=ReconConfig)
    calibration_degree: int = 1
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.noise_snr_db is not None and not np.isfinite(self.noise_snr_db):
            raise ConfigError(f"[simulation] noise_snr_db = "
                              f"{self.noise_snr_db!r}: must be finite")
        if self.calibration_degree not in cal.DEGREES:
            raise ConfigError(
                f"[calibration] degree = {self.calibration_degree!r}: must be "
                f"one of {', '.join(map(str, cal.DEGREES))}")
        if not self.recon_pairs:
            raise ConfigError("[reconstruction] pairs: no transmit pair")
        for key, pairs in (("[estimation] pair", (self.estimation_pair,)),
                           ("[reconstruction] pairs", self.recon_pairs)):
            for a, b in pairs:
                if a == b:
                    raise ConfigError(f"{key}: pair {a},{b} transmits on "
                                      "one element twice")
                for e in (a, b):
                    if not 0 <= e < self.array.num_elements:
                        raise ConfigError(
                            f"{key}: element {e} of pair {a},{b} is not on "
                            f"the {self.array.num_elements}-element array")
        try:
            self.roi()
        except ValueError as err:
            raise ConfigError(f"[roi] {err}") from err

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

    def roi(self) -> PolarROI:
        """Polar ROI whose origin is the estimation pair's midpoint."""
        a, b = self.estimation_pair
        return PolarROI(
            depth_min=self.roi_depth_min,
            depth_max=self.roi_depth_max,
            theta_min=self.roi_theta_min,
            theta_max=self.roi_theta_max,
            num_bins=self.roi_num_bins,
            reference_x=0.5 * (element_position(self.array, a)[0]
                               + element_position(self.array, b)[0]),
        )

    def estimation_grid(self) -> ImagingGrid:
        """Tight beamforming grid around the pattern-extraction ROI."""
        roi = self.roi()
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


# (section, key, PipelineConfig field path, parse, format), in file order.
# "inclusionN" stands for inclusion1, inclusion2, ...: one key per entry
# of the tuple, applied in numeric order.
_FIELDS = (
    ("array", "num_elements", "array.num_elements", int, str),
    ("array", "pitch", "array.pitch", float, repr),
    ("pulse", "center_frequency", "pulse.center_frequency", float, repr),
    ("pulse", "half_cycles", "pulse.half_cycles", int, str),
    ("pulse", "sampling_frequency", "pulse.sampling_frequency", float, repr),
    ("medium", "background_sos", "background_sos", float, repr),
    ("medium", "inclusionN", "inclusions", _parse_inclusion, _format_inclusion),
    ("scatterers", "density", "scatterer_density", float, repr),
    ("scatterers", "seed", "seed", int, str),
    ("simulation", "noise_snr_db", "noise_snr_db",
     lambda s: float(s) if s else None, lambda v: "" if v is None else repr(v)),
    ("grids", "bf_dx", "bf_dx", float, repr),
    ("grids", "bf_dz", "bf_dz", float, repr),
    ("grids", "bf_z0", "bf_z0", float, repr),
    ("grids", "bf_depth", "bf_depth", float, repr),
    ("grids", "slow_nx", "slow_nx", int, str),
    ("grids", "slow_nz", "slow_nz", int, str),
    ("roi", "depth_min", "roi_depth_min", float, repr),
    ("roi", "depth_max", "roi_depth_max", float, repr),
    ("roi", "theta_min", "roi_theta_min", float, repr),
    ("roi", "theta_max", "roi_theta_max", float, repr),
    ("roi", "num_bins", "roi_num_bins", int, str),
    ("estimation", "pair", "estimation_pair", _parse_pair, _format_pair),
    ("reconstruction", "pairs", "recon_pairs",
     lambda s: tuple(map(_parse_pair, s.split())),
     lambda pairs: " ".join(map(_format_pair, pairs))),
    ("reconstruction", "lam", "recon.lam", float, repr),
    ("reconstruction", "tv_axial_weight", "recon.tv_axial_weight", float, repr),
    ("reconstruction", "tv_lateral_weight", "recon.tv_lateral_weight",
     float, repr),
    ("reconstruction", "l1_epsilon", "recon.l1_epsilon", float, repr),
    ("reconstruction", "max_iter", "recon.max_iter", int, str),
    ("calibration", "degree", "calibration_degree", int, str),
)
_ROWS = {(row[0], row[1]): row for row in _FIELDS}


def load_config(path: Path) -> PipelineConfig:
    """Parse the sectioned key/value config file; unknown keys are errors.

    Values for a nested object (array, pulse, recon) are applied
    together, so its checks see every value the file sets.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise ConfigError(str(err)) from err
    if not read:
        raise FileNotFoundError(f"config file {path} not found")
    values: dict[str, dict] = {}  # owner ("" = PipelineConfig) -> field -> value
    sections: dict[str, str] = {}
    inclusions = []
    known_sections = {section for section, _ in _ROWS}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in cp[section].items():
            name = key
            if section == "medium" and key.startswith("inclusion"):
                name = "inclusionN"
            if (section, name) not in _ROWS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            _, _, fpath, parse, _ = _ROWS[section, name]
            try:
                value = parse(text)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key} = {text!r}: {err}") from err
            if name == "inclusionN":
                number = key[len("inclusion"):]
                if not number.isdigit():
                    raise ConfigError(f"[medium] {key}: inclusion keys are "
                                      "'inclusion' and a number")
                inclusions.append((int(number), value))
                continue
            owner, _, attr = fpath.rpartition(".")
            values.setdefault(owner, {})[attr] = value
            sections[owner] = section
    cfg = PipelineConfig()
    top = values.pop("", {})
    inclusions.sort(key=lambda item: item[0])
    top["inclusions"] = tuple(inc for _, inc in inclusions)
    for owner, fields in values.items():
        try:
            top[owner] = replace(getattr(cfg, owner), **fields)
        except ValueError as err:
            raise ConfigError(f"[{sections[owner]}] {err}") from err
    return replace(cfg, **top)


def dump_config(cfg: PipelineConfig) -> str:
    """Fully-resolved config in the same sectioned format."""
    lines = []
    for section, key, fpath, _, fmt in _FIELDS:
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        value = reduce(getattr, fpath.split("."), cfg)
        if key == "inclusionN":
            lines += [f"inclusion{i} = {fmt(inc)}"
                      for i, inc in enumerate(value, 1)]
        else:
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines[1:]) + "\n"


# ---------------------------------------------------------------------------
# stage implementations


def write_record(out_dir: Path, command: str, record: dict) -> None:
    """Write a command's metrics record to out_dir/<command>.json."""
    (Path(out_dir) / f"{command}.json").write_text(json.dumps(record, indent=2))


def generate_frames(cfg: PipelineConfig,
                    tx_list: list[int] | None = None) -> Iterator[ChannelFrame]:
    """Channel data for the required transmits, one frame at a time.

    The transmits are simulated one after another, each when the caller
    asks for it, so a caller that writes each frame before it asks for
    the next holds one frame at a time. The receive channels of each
    frame, and the receive travel-time table they share, are split
    across cfg.threads worker threads. Each frame's record ends after
    its own transmit's latest echo (:func:`simulate_frame`), so the
    frames of one set may differ in length.
    """
    medium = cfg.medium()
    fld = gen_scatterers(cfg.scatterer_grid(), cfg.scatterer_density, cfg.seed)
    txs = tx_list if tx_list is not None else cfg.required_tx()
    # the receive leg does not depend on the transmit: its tables are
    # built once per field and shared by every transmit
    t_rx = receive_travel_times(fld, medium, cfg.array, cfg.threads)
    for tx in txs:
        yield simulate_frame(
            tx, fld, medium, cfg.pulse, cfg.array,
            noise_snr_db=cfg.noise_snr_db, noise_seed=cfg.seed + tx,
            t_rx=t_rx, threads=cfg.threads,
        )


def simulate_frames(cfg: PipelineConfig,
                    tx_list: list[int] | None = None) -> dict[int, ChannelFrame]:
    """The frames of :func:`generate_frames`, keyed by tx element."""
    return {fr.tx_element: fr for fr in generate_frames(cfg, tx_list)}


def _grid_sidecar(header: str, grid: ImagingGrid) -> str:
    """Text of a map's sidecar file: header, then the grid one key a line."""
    return (f"{header}x0 {grid.x0!r}\nz0 {grid.z0!r}\ndx {grid.dx!r}\n"
            f"dz {grid.dz!r}\nnx {grid.nx}\nnz {grid.nz}\n")


def write_gt_map(out_dir: Path, cfg: PipelineConfig) -> None:
    grid = cfg.slow_grid()
    gt = cfg.medium().rasterize(grid)
    np.savetxt(out_dir / "gt_sos.csv", gt, delimiter=",", fmt="%.6f")
    (out_dir / "gt_sos.csv.txt").write_text(_grid_sidecar(
        "ground-truth SoS in m/s on the slowness grid\n", grid))


def cmd_simulate(cfg: PipelineConfig, out_dir: Path) -> Path:
    """Simulate and persist all frames the configured pipeline needs;
    each frame is written before the next one is simulated."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_frame_set(out_dir, generate_frames(cfg), cfg.medium())
    write_gt_map(out_dir, cfg)
    (out_dir / "config_resolved.ini").write_text(dump_config(cfg))
    return out_dir


def estimate_slope(
    frames: dict[int, ChannelFrame], c_bf: float, cfg: PipelineConfig
):
    """Track the estimation pair at c_bf and fit the angular pattern."""
    grid = cfg.estimation_grid()
    bfc = BFConfig(c_bf=c_bf, grid=grid, apodization=ESTIMATION_APODIZATION)
    fa = das_beamform(frames[cfg.estimation_pair[0]], cfg.array, bfc)
    fb = das_beamform(frames[cfg.estimation_pair[1]], cfg.array, bfc)
    dmap = track_delays(fa, fb, ESTIMATION_TRACKING)
    pattern = extract_pattern(dmap, cfg.roi())
    fit = FITTERS[ESTIMATION_FIT](pattern)
    return fit, pattern, dmap


@dataclass
class SweepResult:
    dataset: cal.CalibrationDataset
    models: dict[int, cal.CalibrationModel]
    report_rows: list[dict]


def check_sweep(delta_c_min: float, delta_c_max: float, step: float) -> None:
    """ConfigError unless the offset sweep's step and span are finite
    and > 0."""
    if not (np.isfinite(step) and step > 0):
        raise ConfigError(f"calibration step must be finite and > 0, "
                          f"got {step}")
    span = delta_c_max - delta_c_min
    if not (np.isfinite(span) and span > 0):
        raise ConfigError(f"calibration range [{delta_c_min}, {delta_c_max}] "
                          "must be finite and non-empty")


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

    Requires a homogeneous medium (self-consistent calibration against
    the artifact's own simulator). Evaluation rows report, per degree,
    the held-out score of :func:`calibrate.holdout_score`.
    """
    if cfg.inclusions:
        raise ConfigError("calibration requires a homogeneous medium")
    c_true = cfg.background_sos
    deltas = np.arange(delta_c_min, delta_c_max + step / 2, step)

    def one(dc):
        fit, _, _ = estimate_slope(frames, c_true + dc, cfg)
        return cal.CalibrationEntry(delta_c=float(dc), slope=fit.slope)

    entries = thread_map(one, deltas, cfg.threads)

    dataset = cal.CalibrationDataset(
        entries=tuple(entries),
        metadata={
            "c_true": c_true,
            "pair": cfg.estimation_pair,
            "roi": (cfg.roi_depth_min, cfg.roi_depth_max,
                    cfg.roi_theta_min, cfg.roi_theta_max),
            "method": ESTIMATION_FIT,
            "seed": cfg.seed,
        },
    )

    models, rows = {}, []
    for deg in degrees:
        models[deg] = model = cal.build_calibration(
            dataset, degree=deg, train_selector=train_selector)
        rows.append({"degree": deg, **cal.holdout_score(dataset, model)})
    return SweepResult(dataset=dataset, models=models, report_rows=rows)


def cmd_calibrate(
    cfg: PipelineConfig,
    out_dir: Path,
    delta_c_min: float = -40.0,
    delta_c_max: float = 40.0,
    step: float = 1.0,
    degrees: tuple[int, ...] = cal.DEGREES,
) -> SweepResult:
    """Full calibration stage: simulates the estimation pair's frames,
    runs the sweep and persists the model, the sweep and the held-out
    report rows, as calibrate.json {"rows": report_rows}. The sweep's
    arguments are checked before any frame is simulated."""
    check_sweep(delta_c_min, delta_c_max, step)
    if cfg.calibration_degree not in degrees:
        raise ConfigError(
            f"[calibration] degree = {cfg.calibration_degree} is not among "
            f"the fitted degrees {degrees}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = simulate_frames(cfg, tx_list=sorted(set(cfg.estimation_pair)))
    result = run_calibration_sweep(
        cfg, frames, delta_c_min, delta_c_max, step, degrees
    )
    chosen = result.models[cfg.calibration_degree]
    cal.save_model(out_dir / "calibration_model.txt", chosen)
    cal.export_sweep(out_dir / "calibration_sweep.csv", result.dataset, chosen)
    write_record(out_dir, "calibrate", {"rows": result.report_rows})
    (out_dir / "config_resolved.ini").write_text(dump_config(cfg))
    return result


@dataclass
class EstimateResult:
    observed_slope: float
    delta_c_hat: float
    corrected_sos: float


def cmd_estimate(
    cfg: PipelineConfig,
    frames_dir_or_frames,
    model: cal.CalibrationModel | Path,
    c_bf_assumed: float,
    out_dir: Path | None = None,
) -> EstimateResult:
    """Estimate the BF-SoS offset of a dataset and correct it.

    The model is loaded before any frame is read, so a malformed model
    fails fast and is not hidden by a missing frame directory."""
    if isinstance(model, (str, Path)):
        model = cal.load_model(model)
    if isinstance(frames_dir_or_frames, (str, Path)):
        frames = read_frame_set(Path(frames_dir_or_frames),
                                cfg.estimation_pair)
    else:
        frames = frames_dir_or_frames
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
        export_pattern(out_dir / "pattern.csv", pattern, fit)
        export_delay_map(out_dir / "delay_map.csv", dmap)
        write_record(out_dir, "estimate", {
            "convention": cal.CONVENTION,
            "c_bf_assumed": c_bf_assumed,
            "observed_slope_s_per_rad": fit.slope,
            "delta_c_hat_mps": dc_hat,
            "corrected_sos_mps": corrected,
            "fit_r_squared": fit.r_squared,
        })
    return result


@dataclass
class ReconResult:
    sos_map: np.ndarray  # absolute SoS, m/s, on the slowness grid
    info: ReconInfo  # the solve's health record
    clamped_fraction: float  # of sos_map's cells clamped to the SoS band
    rmse_vs_gt: float | None = None


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
    frames_dir_or_frames,
    c_bf: float,
    out_dir: Path | None = None,
    gt_map: np.ndarray | None = None,
) -> ReconResult:
    """Tomographic local-SoS reconstruction at the given beamforming SoS.

    With out_dir, writes the map, its objective trace and reconstruct.json:
    the solve's converged, iterations, grad_norm and message; its rows
    (measurements in the solve) and valid_fraction (tracked nodes kept
    by min_ncc); the map's clamped_fraction; and rmse_vs_gt_mps when a
    ground-truth map is known.
    """
    txs = sorted({e for p in cfg.recon_pairs for e in p})
    if isinstance(frames_dir_or_frames, (str, Path)):
        frames_dir = Path(frames_dir_or_frames)
        frames = read_frame_set(frames_dir, txs)
        gt_path = frames_dir / "gt_sos.csv"
        if gt_map is None and gt_path.exists():
            gt_map = np.loadtxt(gt_path, delimiter=",")
    else:
        frames = frames_dir_or_frames

    missing = [t for t in txs if t not in frames]
    if missing:
        raise FileNotFoundError(f"missing frames for tx elements {missing}")

    grid = cfg.full_grid()
    track_cfg = replace(RECON_TRACKING,
                        search_radius=recon_search_radius(cfg, c_bf))
    bfc = BFConfig(c_bf=c_bf, grid=grid)
    images = dict(zip(txs, thread_map(
        lambda tx: das_beamform(frames[tx], cfg.array, bfc), txs, cfg.threads
    )))
    dmaps = [track_delays(images[a], images[b], track_cfg)
             for a, b in cfg.recon_pairs]

    meas_grid = dmaps[0].grid
    masks = [d.valid for d in dmaps]
    L = build_path_matrix(
        list(cfg.recon_pairs), meas_grid, cfg.slow_grid(), masks, cfg.array
    )
    delays = np.concatenate([d.delays[d.valid] for d in dmaps])
    D = tv_operator(cfg.slow_grid(), cfg.recon.tv_axial_weight,
                    cfg.recon.tv_lateral_weight)
    slowness, info = reconstruct(L, delays, D, cfg.recon)
    sos_map, clamped = slowness.to_sos(c_bf)

    rmse = rmse_map(sos_map, gt_map) if gt_map is not None else None
    result = ReconResult(sos_map=sos_map, info=info, clamped_fraction=clamped,
                         rmse_vs_gt=rmse)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savetxt(out_dir / "sos_map.csv", sos_map, delimiter=",", fmt="%.6f")
        np.ascontiguousarray(sos_map, dtype="<f4").tofile(out_dir / "sos_map.f32")
        (out_dir / "sos_map.f32.txt").write_text(_grid_sidecar(
            f"SoS map m/s, row-major nz x nx float32 little-endian\n"
            f"c_bf {c_bf!r}\nconverged {info.converged}\n", slowness.grid))
        with open(out_dir / "objective_trace.csv", "w") as f:
            f.write("iteration,objective\n")
            for i, v in enumerate(info.objective_trace):
                f.write(f"{i},{v:.9e}\n")
        rows = L.matrix.shape[0]
        metrics = {"converged": info.converged,
                   "iterations": info.iterations,
                   "grad_norm": info.grad_norm, "message": info.message,
                   "rows": rows,
                   "valid_fraction": rows / sum(m.size for m in masks),
                   "clamped_fraction": clamped}
        if rmse is not None:
            metrics["rmse_vs_gt_mps"] = rmse
        write_record(out_dir, "reconstruct", metrics)
    return result


def region_labels(cfg: PipelineConfig) -> RegionLabels | None:
    """Inclusion/background masks on the slowness grid, if any inclusion."""
    if not cfg.inclusions:
        return None
    grid = cfg.slow_grid()
    X, Z = grid.meshgrid()
    inc = np.zeros(X.shape, dtype=bool)
    for i in cfg.inclusions:
        inc |= i.contains(X, Z)
    return RegionLabels(inclusion=inc, background=~inc)


# ---------------------------------------------------------------------------
# desk-scale phantom set


def default_phantom_set(background_sos: float = 1500.0) -> list[tuple[str, tuple[Inclusion, ...]]]:
    """8 phantoms: 4 elliptical and 4 rectangular inclusions, +-20/40 m/s."""
    phantoms = []
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
    for name, shape, center, half, dsos in specs:
        phantoms.append(
            (
                name,
                (
                    Inclusion(
                        shape=shape, center=center, half_axes=half,
                        sos=background_sos + dsos,
                    ),
                ),
            )
        )
    return phantoms


@dataclass
class CaseResult:
    name: str
    c_bf_assumed: float
    delta_c_hat: float
    corrected_sos: float
    rmse_before: float
    rmse_after: float
    cnr_before_db: float
    cnr_after_db: float
    converged: bool
    # inclusion minus background SoS, m/s: ground truth and after map
    contrast_true: float
    contrast_after: float
    # fractions of the before and after maps clamped to the SoS band
    clamped_before: float
    clamped_after: float

    @property
    def rmse_reduction(self) -> float:
        return 1.0 - self.rmse_after / self.rmse_before


def evaluate_phantom_set(
    base_cfg: PipelineConfig,
    model: cal.CalibrationModel,
    offset_percents: tuple[float, float] = (1.5, -1.5),
) -> list[CaseResult]:
    """Before/after-correction reconstruction metrics over the desk-scale
    phantom set.

    Each phantom is beamformed with a deliberately wrong BF-SoS (offsets
    alternate through offset_percents, as a percentage of the true
    background SoS), the offset is estimated and corrected, and both maps
    are reconstructed and scored against the ground truth.
    """
    results = []
    for i, (name, incs) in enumerate(
            default_phantom_set(base_cfg.background_sos)):
        cfg = replace(base_cfg, inclusions=incs)
        pct = offset_percents[i % len(offset_percents)]
        c_bf = cfg.background_sos * (1.0 + pct / 100.0)
        frames = simulate_frames(cfg)
        gt = cfg.medium().rasterize(cfg.slow_grid())
        labels = region_labels(cfg)
        est = cmd_estimate(cfg, frames, model, c_bf)
        before = cmd_reconstruct(cfg, frames, c_bf, gt_map=gt)
        after = cmd_reconstruct(cfg, frames, est.corrected_sos, gt_map=gt)
        results.append(CaseResult(
            name=name,
            c_bf_assumed=c_bf,
            delta_c_hat=est.delta_c_hat,
            corrected_sos=est.corrected_sos,
            rmse_before=before.rmse_vs_gt,
            rmse_after=after.rmse_vs_gt,
            cnr_before_db=cnr_db(before.sos_map, labels),
            cnr_after_db=cnr_db(after.sos_map, labels),
            converged=after.info.converged,
            contrast_true=contrast(gt, labels),
            contrast_after=contrast(after.sos_map, labels),
            clamped_before=before.clamped_fraction,
            clamped_after=after.clamped_fraction,
        ))
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
