"""Histogram computation, probability form, and smoothing/normalization.

Two normalizations coexist on purpose: ProbabilityHistogram sums to 1 and
feeds equalization/specification, while NormalizedHistogram is smoothed and
peak-scaled to 1 so it can act as a fuzzy membership data source.
"""

from dataclasses import dataclass

import numpy as np

from .imagio import LEVELS, GrayImage

GRID = np.arange(LEVELS, dtype=float)


@dataclass(frozen=True)
class RawHistogram:
    """Per-level pixel counts plus the total pixel count."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.size != LEVELS:
            raise ValueError(f"histogram must have {LEVELS} bins")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("histogram counts must be integers")
        if counts.min(initial=0) < 0:
            raise ValueError("histogram counts must be non-negative")
        if int(counts.sum()) != self.total:
            raise ValueError("histogram counts must sum to the total pixel count")
        object.__setattr__(self, "counts", counts.astype(np.int64))


@dataclass(frozen=True)
class ProbabilityHistogram:
    """Gray-level distribution summing to 1."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.size != LEVELS:
            raise ValueError(f"distribution must have {LEVELS} bins")
        if p.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class NormalizedHistogram:
    """Smoothed histogram scaled so its peak is 1 (fuzzy data source)."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.size != LEVELS:
            raise ValueError(f"series must have {LEVELS} bins")
        if not np.all(np.isfinite(h)):
            raise ValueError("series contains non-finite values")
        if h.min() < 0:
            raise ValueError("series values must be non-negative")
        object.__setattr__(self, "h", h)


def as_series(h) -> np.ndarray:
    """The 256 float values of a NormalizedHistogram or of any array-like."""
    values = h.h if isinstance(h, NormalizedHistogram) else h
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != LEVELS:
        raise ValueError(f"expected a {LEVELS}-value series, got {values.size}")
    return values


def compute_histogram(img: GrayImage) -> RawHistogram:
    """Count pixels per gray level.

    The pixels are counted two at a time: each adjacent pair read as one
    uint16 indexes a 256x256 table of (level, level) pairs, whose row and
    column sums together count every paired pixel once. An odd last pixel
    is added on its own.
    """
    px = img.pixels
    even = px.size - px.size % 2
    pairs = np.bincount(px[:even].view(np.uint16), minlength=LEVELS * LEVELS)
    pairs = pairs.reshape(LEVELS, LEVELS)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    if even < px.size:
        counts[px[-1]] += 1
    return RawHistogram(counts, img.width * img.height)


def to_probability(raw: RawHistogram) -> ProbabilityHistogram:
    """Divide counts by the total pixel count."""
    if raw.total <= 0:
        raise ValueError("cannot normalize a histogram with zero total")
    return ProbabilityHistogram(raw.counts / raw.total)


def smooth_and_normalize(raw: RawHistogram, window: int = 5) -> NormalizedHistogram:
    """Moving-average smooth the counts, then scale the peak to 1.

    Edge bins average over the part of the window that exists instead of
    zero-padding, which avoids attenuating the gray extremes.
    """
    if window % 2 == 0 or window < 1 or window > 31:
        raise ValueError("window must be an odd integer in [1, 31]")
    half = window // 2
    c = raw.counts.astype(float)
    csum = np.concatenate(([0.0], np.cumsum(c)))
    idx = np.arange(LEVELS)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, LEVELS - 1)
    smoothed = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    peak = smoothed.max()
    if peak > 0:
        smoothed = smoothed / peak
    return NormalizedHistogram(smoothed)
