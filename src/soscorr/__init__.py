"""Mean speed-of-sound estimation from diverging-wave geometric
disparities, BF-SoS correction, and tomographic local-SoS mapping."""

from .beamform import BFConfig, BeamformedFrame, das_beamform
from .calibrate import (
    CalibrationDataset,
    CalibrationEntry,
    CalibrationModel,
    build_calibration,
    corrected_sos,
    estimate_offset,
)
from .delaytrack import DelayMap, TrackConfig, track_delays
from .geometry import (
    ImagingGrid,
    PolarROI,
    TransducerArray,
    element_position,
)
from .metrics import RegionLabels, cnr_db, cnr_linear, rmse_map
from .regress import (
    DelayPattern,
    RegressionResult,
    extract_pattern,
    fit_ols,
    fit_robust,
    fit_weighted,
    r_squared,
)
from .synthsim import (
    ChannelFrame,
    Inclusion,
    MediumSpec,
    PulseSpec,
    ScattererField,
    gen_scatterers,
    simulate_frame,
)
from .tomo import (
    PathMatrix,
    build_path_matrix,
    ray_weights,
    reconstruct,
    to_sos,
    tv_operator,
)

__version__ = "0.1.0"
