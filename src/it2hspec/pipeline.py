"""End-to-end enhancement pipeline and the method-comparison harness.

build_model turns the input counts into the method-independent model:
smoothing -> mixture init/fit -> footprint of uncertainty. apply_method takes
it through one method's membership values and target PDF to a level map.
run_enhance is histogram + build_model + apply_method + apply_map;
run_compare is one histogram, one build_model and four apply_method calls.
Every stage failure is re-raised as PipelineStageError tagged with the
stage name; .reason is the failure's own message.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fou import FOU, extract_fou
from .gaussfit import FitConfig, MixtureFit, fit_mixture, heuristic_init
from .histogram import (
    NormalizedHistogram,
    ProbabilityHistogram,
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
        self.reason = message


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


@dataclass
class HistogramModel:
    """Everything the four methods share; a function of the counts alone."""

    raw: RawHistogram
    p_in: ProbabilityHistogram
    smoothed: NormalizedHistogram
    mixture: MixtureFit
    fou: FOU
    notes: list


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, str(exc)) from exc


def build_model(raw: RawHistogram, cfg: PipelineConfig) -> HistogramModel:
    """The model shared by every method; notes name each divergent fit."""
    p_in = _stage("histogram", to_probability, raw)
    smoothed = _stage("smoothing", smooth_and_normalize, raw, cfg.window)
    init = _stage("initialization", heuristic_init, smoothed, cfg.fit)
    mixture = _stage("mixture_fit", fit_mixture, smoothed, init, cfg.fit)
    notes = []
    if mixture.diverged:
        notes.append("mixture fit flagged divergent; best parameters kept")
    fou = _stage("fou", extract_fou, smoothed, mixture, cfg.fit)
    for name, refit in (("upper", fou.umf_fit), ("lower", fou.lmf_fit)):
        if refit.diverged:
            notes.append(f"{name} membership refit flagged divergent")
    return HistogramModel(raw, p_in, smoothed, mixture, fou, notes)


def apply_method(model: HistogramModel, method: str, fuzzifier: float, mv_override=None):
    """One method's membership values, target PDF and level map.

    Returns (mv, desired_pdf, level_map, warnings), warnings being the
    messages of the warnings raised on the way. mv_override, when set,
    replaces every membership value with a constant; it exists as a
    diagnostic hook (0 degenerates the pipeline to plain equalization up to
    rounding).
    """
    fou = model.fou
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if method == "km":
            mv = _stage("membership", mv_km, fou, model.mixture.partition_points, fuzzifier)
            if mv_override is not None:
                mv = _stage("membership", KMMembershipValues,
                            np.full(LEVELS, float(mv_override)), mv.clusters)
            raw_pdf = _stage("pdf", raw_pdf_km, mv)
        else:
            fn = _IT2_FN[method]
            upper = _stage("membership", fn, fou.umf_fit, model.smoothed)
            lower = _stage("membership", fn, fou.lmf_fit, model.smoothed)
            if mv_override is not None:
                upper = lower = np.full(LEVELS, float(mv_override))
            mv = _stage("membership", IT2MembershipValues, upper, lower, method)
            raw_pdf = _stage("pdf", defuzzify_mean,
                             _stage("pdf", raw_pdf_it2, mv.upper, fou.umf_fit, "it2_upper"),
                             _stage("pdf", raw_pdf_it2, mv.lower, fou.lmf_fit, "it2_lower"))
        desired = _stage("pdf", finalize_pdf, raw_pdf)
    level_map = _stage("specification", specify_map, model.p_in, desired)
    return mv, desired, level_map, [str(w.message) for w in caught]


def run_enhance(img: GrayImage, cfg: PipelineConfig, mv_override=None) -> PipelineResult:
    """Run the full five-stage enhancement; mv_override as in apply_method."""
    raw = _stage("histogram", compute_histogram, img)
    model = build_model(raw, cfg)
    mv, desired, level_map, caught = apply_method(model, cfg.mv_method, cfg.fuzzifier,
                                                  mv_override)
    enhanced = _stage("specification", apply_map, img, level_map)
    return PipelineResult(
        enhanced=enhanced,
        desired_pdf=desired,
        fou=model.fou,
        mv=mv,
        aic_in=aic(model.p_in),
        aic_out=aic(to_probability(map_histogram(raw, level_map))),
        raw_hist=raw,
        smoothed=model.smoothed,
        mixture=model.mixture,
        level_map=level_map,
        warnings=model.notes + caught,
    )


def run_compare(img: GrayImage, cfg: PipelineConfig | None = None,
                rmshe_depth: int = 2) -> AICReport:
    """Entropy of the baselines and of all four proposed methods.

    One build_model serves the four methods (they only diverge from the
    membership stage on), so the per-method results equal standalone
    run_enhance calls; its time is timings_ms["model"]. Every method is a
    per-level map, so its output histogram comes from the input counts and
    the map (map_histogram): the pixels are read once, by the input
    histogram, and no output image is built.
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
            report.errors[name] = (exc.reason if isinstance(exc, PipelineStageError)
                                   else str(exc))
        report.timings_ms[name] = (time.perf_counter() - start) * 1000.0

    score("he", lambda: equalize_map(p_in))
    score("rmshe", lambda: rmshe(raw, rmshe_depth))
    start = time.perf_counter()
    try:
        model = build_model(raw, cfg)
    except PipelineStageError as exc:
        for method in METHODS:
            report.errors[method] = f"shared fit failed: {exc.reason}"
        return report
    finally:
        report.timings_ms["model"] = (time.perf_counter() - start) * 1000.0

    def method_map(method):
        *_, level_map, caught = apply_method(model, method, cfg.fuzzifier)
        report.warnings.extend(caught)
        return level_map

    for method in METHODS:
        score(method, lambda: method_map(method))
    return report
