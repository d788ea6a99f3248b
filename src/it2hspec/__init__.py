"""Grayscale contrast enhancement with automatically derived target PDFs.

The engine models the image histogram as a sum of Gaussians, wraps it in an
interval type-2 fuzzy footprint of uncertainty, extracts membership values
by one of four strategies (point-wise, center-of-weights, area, or
Karnik-Mendel), turns them into a target PDF, and applies histogram
specification. Classical equalization and recursive mean-separate
equalization baselines plus an entropy metric round out the toolkit.
"""

from .fou import FOU, bound_functions, extract_fou
from .gaussfit import (
    FitConfig,
    Gaussian1D,
    MixtureFit,
    domain_map,
    eval_mixture,
    fit_mixture,
    heuristic_init,
    mixture_objective,
)
from .histogram import (
    NormalizedHistogram,
    ProbabilityHistogram,
    RawHistogram,
    compute_histogram,
    smooth_and_normalize,
    to_probability,
)
from .hspec import LevelMap, apply_map, equalize_map, map_histogram, rmshe, specify_map
from .imagio import (
    LEVELS,
    GrayImage,
    PGMFormatError,
    SeriesExport,
    export_series,
    load_image,
    save_image,
)
from .membership import (
    IT2MembershipValues,
    KMMembershipValues,
    ZeroOverlapWarning,
    km_boundary_centroid,
    mv_area,
    mv_center_of_weights,
    mv_km,
    mv_pointwise,
)
from .metrics import AICReport, aic
from .pdfgen import (
    DesiredPDF,
    RawPDF,
    defuzzify_mean,
    finalize_pdf,
    raw_pdf_it2,
    raw_pdf_km,
)
from .pipeline import (
    METHODS,
    PipelineConfig,
    PipelineResult,
    PipelineStageError,
    run_compare,
    run_enhance,
)

__all__ = [
    "AICReport",
    "DesiredPDF",
    "FOU",
    "FitConfig",
    "Gaussian1D",
    "GrayImage",
    "IT2MembershipValues",
    "KMMembershipValues",
    "LEVELS",
    "LevelMap",
    "METHODS",
    "MixtureFit",
    "NormalizedHistogram",
    "PGMFormatError",
    "PipelineConfig",
    "PipelineResult",
    "PipelineStageError",
    "ProbabilityHistogram",
    "RawHistogram",
    "RawPDF",
    "SeriesExport",
    "ZeroOverlapWarning",
    "aic",
    "apply_map",
    "bound_functions",
    "compute_histogram",
    "defuzzify_mean",
    "domain_map",
    "equalize_map",
    "eval_mixture",
    "export_series",
    "extract_fou",
    "finalize_pdf",
    "fit_mixture",
    "heuristic_init",
    "km_boundary_centroid",
    "load_image",
    "map_histogram",
    "mixture_objective",
    "mv_area",
    "mv_center_of_weights",
    "mv_km",
    "mv_pointwise",
    "raw_pdf_it2",
    "raw_pdf_km",
    "rmshe",
    "run_compare",
    "run_enhance",
    "save_image",
    "smooth_and_normalize",
    "specify_map",
    "to_probability",
]
