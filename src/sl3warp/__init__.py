"""Homography toolkit built on an eight-coefficient algebra parameterization.

Composes and decomposes 3x3 homographies from subgroup coefficients,
resamples images through the five subgroup warp maps, and estimates full
homographies between image pairs by phase correlation and refinement.
"""

__version__ = "0.1.0"

from .sl3 import (  # noqa: F401
    SingularMatrixError,
    UnrepresentableError,
    apply_homography,
    coeffs_from_params,
    compose_homography,
    decompose_homography,
    exp_sl3,
    generators,
    normalize_homography,
    params_from_coeffs,
    projective_distance,
)
from .raster import (  # noqa: F401
    ImageGrid,
    RasterFormatError,
    UnsupportedFormatError,
    bilinear_sample,
    center_crop,
    load_image,
    save_image,
    warp_by_homography,
)
from .warps import (  # noqa: F401
    WarpConfig,
    WarpKind,
    predicted_shift,
    recover_coeffs,
    sample_coords,
    warp_image,
)
from .correlate import phase_correlate  # noqa: F401
from .cascade import (  # noqa: F401
    EstimationResult,
    EstimatorConfig,
    Stage,
    estimate,
    estimate_stage,
    rectify,
)
