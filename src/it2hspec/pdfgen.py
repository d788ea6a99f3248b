"""Target PDF construction from membership values.

One formula, linear around 255, serves every method: levels far from their
component's peak (or cluster center) get a boost proportional to the
membership value, levels near it get less. Negative excursions are clamped
before normalization.
"""

from dataclasses import dataclass

import numpy as np

from .gaussfit import MixtureFit, domain_map
from .histogram import GRID
from .imagio import LEVELS
from .membership import KMMembershipValues

_TOP = float(LEVELS - 1)

PDF_SOURCES = ("it2_upper", "it2_lower", "it2_mean", "km")


@dataclass(frozen=True)
class RawPDF:
    """Un-normalized target distribution tagged with its origin."""

    values: np.ndarray
    source: str

    def __post_init__(self):
        if self.source not in PDF_SOURCES:
            raise ValueError(f"source must be one of {PDF_SOURCES}")
        vals = np.asarray(self.values, dtype=float)
        if vals.size != LEVELS:
            raise ValueError(f"PDF must have {LEVELS} values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("PDF values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DesiredPDF:
    """Normalized, non-negative target distribution for specification."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.size != LEVELS:
            raise ValueError(f"PDF must have {LEVELS} values")
        if p.min() < 0:
            raise ValueError("PDF values must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("PDF must sum to 1 within 1e-9")
        object.__setattr__(self, "p", p)


def _check_mv(mv) -> np.ndarray:
    mv = np.asarray(mv, dtype=float)
    if mv.size != LEVELS:
        raise ValueError(f"membership series must have {LEVELS} values")
    if mv.min() < 0 or mv.max() > 1:
        raise ValueError("membership values must lie in [0, 1]")
    return mv


def _linear_pdf(mv, center, start, end) -> np.ndarray:
    """The linear formula on per-level arrays.

    Level g with membership mv, center c and interval [s, e] gets
      g <  c: 255 + 2*mv*((c + s)/2 - g)
      g >= c: 255 - 2*mv*((c + e)/2 - g)
    """
    return np.where(
        GRID < center,
        _TOP + 2.0 * mv * (0.5 * (center + start) - GRID),
        _TOP - 2.0 * mv * (0.5 * (center + end) - GRID),
    )


def raw_pdf_it2(mv, fit: MixtureFit, source: str) -> RawPDF:
    """Linear PDF from an interval-method membership series.

    Each level takes the center mu and reach [c1, c2] of its dominant component.
    """
    if source not in ("it2_upper", "it2_lower"):
        raise ValueError("source must be 'it2_upper' or 'it2_lower'")
    mv = _check_mv(mv)
    dom = domain_map(fit)
    mus = np.array([g.mu for g in fit.gaussians])[dom]
    starts, ends = np.array(fit.reaches, dtype=float)[dom].T
    return RawPDF(_linear_pdf(mv, mus, starts, ends), source)


def raw_pdf_km(mv: KMMembershipValues) -> RawPDF:
    """Linear PDF from Karnik-Mendel membership values; each level takes its
    cluster's crisp center and [start, end]."""
    sizes = [c.end - c.start + 1 for c in mv.clusters]
    per_cluster = [(c.v_center, c.start, c.end) for c in mv.clusters]
    center, start, end = np.repeat(np.array(per_cluster, dtype=float), sizes, axis=0).T
    return RawPDF(_linear_pdf(mv.mv, center, start, end), "km")


def defuzzify_mean(upper: RawPDF, lower: RawPDF) -> RawPDF:
    """Average the upper and lower PDFs into one."""
    if upper.source != "it2_upper" or lower.source != "it2_lower":
        raise ValueError("defuzzify_mean expects an it2_upper and an it2_lower PDF")
    return RawPDF(0.5 * (upper.values + lower.values), "it2_mean")


def finalize_pdf(raw: RawPDF) -> DesiredPDF:
    """Clamp negatives to zero and normalize to unit mass."""
    values = np.clip(raw.values, 0.0, None)
    total = float(values.sum())
    if total <= 0.0:
        raise ValueError("target PDF has no positive mass")
    return DesiredPDF(values / total)
