"""End-to-end enhancement pipeline and the method-comparison harness.

run_enhance chains: histogram -> smoothing -> mixture init/fit -> footprint
of uncertainty -> membership values -> target PDF -> specification. Every
stage failure is re-raised as PipelineStageError tagged with the stage name.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fou import FOU, extract_fou
from .gaussfit import FitConfig, MixtureFit, fit_mixture, heuristic_init
from .histogram import (
    NormalizedHistogram,
    RawHistogram,
    compute_histogram,
    smooth_and_normalize,
    to_probability,
)
from .hspec import LevelMap, apply_map, equalize_map, map_histogram, rmshe, specify_map
from .imagio import LEVELS, GrayImage
from .membership import (
    IT2MembershipValues,
    KMMembershipValues,
    mv_area,
    mv_center_of_weights,
    mv_km,
    mv_pointwise,
)
from .metrics import AICReport, aic
from .pdfgen import DesiredPDF, defuzzify_mean, finalize_pdf, raw_pdf_it2, raw_pdf_km

METHODS = ("pointwise", "cow", "area", "km")

_IT2_FN = {"pointwise": mv_pointwise, "cow": mv_center_of_weights, "area": mv_area}


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; .stage names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


@dataclass
class PipelineConfig:
    mv_method: str = "km"
    window: int = 5
    fit: FitConfig = field(default_factory=FitConfig)
    fuzzifier: float = 2.0

    def __post_init__(self):
        if self.mv_method not in METHODS:
            raise ValueError(f"mv_method must be one of {METHODS}")
        if self.fuzzifier <= 1.0:
            raise ValueError("fuzzifier must be greater than 1")


@dataclass
class PipelineResult:
    enhanced: GrayImage
    desired_pdf: DesiredPDF
    fou: FOU
    mv: object
    aic_in: float
    aic_out: float
    raw_hist: RawHistogram
    smoothed: NormalizedHistogram
    mixture: MixtureFit
    level_map: LevelMap
    warnings: list = field(default_factory=list)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, str(exc)) from exc


def _membership_values(fou: FOU, mixture: MixtureFit, smoothed, cfg: PipelineConfig,
                       mv_override):
    if cfg.mv_method == "km":
        values = mv_km(fou, mixture.partition_points, cfg.fuzzifier)
        if mv_override is not None:
            override = np.full(LEVELS, float(mv_override))
            values = KMMembershipValues(override, values.clusters)
        return values
    fn = _IT2_FN[cfg.mv_method]
    upper = fn(fou.umf_fit, smoothed)
    lower = fn(fou.lmf_fit, smoothed)
    if mv_override is not None:
        upper = np.full(LEVELS, float(mv_override))
        lower = np.full(LEVELS, float(mv_override))
    return IT2MembershipValues(upper, lower, cfg.mv_method)


def _target_pdf(mv, fou: FOU) -> DesiredPDF:
    if isinstance(mv, KMMembershipValues):
        raw = raw_pdf_km(mv)
    else:
        upper = raw_pdf_it2(mv.upper, fou.umf_fit, "it2_upper")
        lower = raw_pdf_it2(mv.lower, fou.lmf_fit, "it2_lower")
        raw = defuzzify_mean(upper, lower)
    return finalize_pdf(raw)


def run_enhance(img: GrayImage, cfg: PipelineConfig, mv_override=None) -> PipelineResult:
    """Run the full five-stage enhancement for the configured method.

    mv_override, when set, replaces every membership value with a constant;
    it exists as a diagnostic hook (0 degenerates the pipeline to plain
    equalization up to rounding).
    """
    notes = []
    raw = _stage("histogram", compute_histogram, img)
    p_in = _stage("histogram", to_probability, raw)
    smoothed = _stage("smoothing", smooth_and_normalize, raw, cfg.window)
    init = _stage("initialization", heuristic_init, smoothed, cfg.fit)
    mixture = _stage("mixture_fit", fit_mixture, smoothed, init, cfg.fit)
    if mixture.diverged:
        notes.append("mixture fit flagged divergent; best parameters kept")
    fou = _stage("fou", extract_fou, smoothed, mixture, cfg.fit)
    for name, refit in (("upper", fou.umf_fit), ("lower", fou.lmf_fit)):
        if refit.diverged:
            notes.append(f"{name} membership refit flagged divergent")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mv = _stage("membership", _membership_values, fou, mixture, smoothed, cfg,
                    mv_override)
        desired = _stage("pdf", _target_pdf, mv, fou)
    notes.extend(str(w.message) for w in caught)
    level_map = _stage("specification", specify_map, p_in, desired)
    enhanced = _stage("specification", apply_map, img, level_map)
    aic_in = aic(p_in)
    aic_out = aic(to_probability(map_histogram(raw, level_map)))
    return PipelineResult(
        enhanced=enhanced,
        desired_pdf=desired,
        fou=fou,
        mv=mv,
        aic_in=aic_in,
        aic_out=aic_out,
        raw_hist=raw,
        smoothed=smoothed,
        mixture=mixture,
        level_map=level_map,
        warnings=notes,
    )


def run_compare(img: GrayImage, cfg: PipelineConfig | None = None,
                rmshe_depth: int = 2) -> AICReport:
    """Entropy of the baselines and of all four proposed methods.

    The mixture fit and footprint of uncertainty are shared across the four
    methods (they only diverge from the membership stage on), which leaves
    the per-method results identical to standalone run_enhance calls.
    Every method is a per-level map, so its output histogram comes from the
    input counts and the map (map_histogram): the pixels are read once, by
    the input histogram, and no output image is built.
    Per-method failures are recorded instead of aborting the report.
    """
    if cfg is None:
        cfg = PipelineConfig()
    raw = compute_histogram(img)
    p_in = to_probability(raw)
    report = AICReport(input_aic=aic(p_in), methods={})

    def score(name, make_map):
        start = time.perf_counter()
        try:
            report.methods[name] = aic(to_probability(map_histogram(raw, make_map())))
        except Exception as exc:
            report.errors[name] = str(exc)
        report.timings_ms[name] = (time.perf_counter() - start) * 1000.0

    score("he", lambda: equalize_map(p_in))
    score("rmshe", lambda: rmshe(raw, rmshe_depth))

    try:
        smoothed = smooth_and_normalize(raw, cfg.window)
        init = heuristic_init(smoothed, cfg.fit)
        mixture = fit_mixture(smoothed, init, cfg.fit)
        fou = extract_fou(smoothed, mixture, cfg.fit)
    except Exception as exc:
        for method in METHODS:
            report.errors[method] = f"shared fit failed: {exc}"
        return report

    for method in METHODS:
        method_cfg = PipelineConfig(method, cfg.window, cfg.fit, cfg.fuzzifier)

        def one(method_cfg=method_cfg):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mv = _membership_values(fou, mixture, smoothed, method_cfg, None)
                desired = _target_pdf(mv, fou)
            report.warnings.extend(str(w.message) for w in caught)
            return specify_map(p_in, desired)

        score(method, one)
    return report
