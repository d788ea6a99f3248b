"""Gray-level transformations: equalization, specification, and the
recursive mean-separate equalization baseline."""

from dataclasses import dataclass

import numpy as np

from .histogram import ProbabilityHistogram, RawHistogram
from .imagio import LEVELS, GrayImage
from .pdfgen import DesiredPDF

_INVERSE_EPS = 1e-12
_MAX_RMSHE_DEPTH = 4


@dataclass(frozen=True)
class LevelMap:
    """Monotone per-level remapping of gray values."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.size != LEVELS:
            raise ValueError(f"a level map must have {LEVELS} entries")
        if not np.issubdtype(vals.dtype, np.integer):
            raise ValueError("level map entries must be integers")
        if vals.min() < 0 or vals.max() > LEVELS - 1:
            raise ValueError(f"level map entries must lie in [0, {LEVELS - 1}]")
        if np.any(np.diff(vals) < 0):
            raise ValueError("level map must be monotone non-decreasing")
        object.__setattr__(self, "values", vals.astype(np.int64))


def _round_half_up(x):
    return np.floor(x + 0.5)


def equalize_map(p: ProbabilityHistogram) -> LevelMap:
    """Scaled cumulative distribution, rounded half-up to integer levels."""
    cdf = np.cumsum(p.p)
    levels = _round_half_up((LEVELS - 1) * cdf)
    return LevelMap(np.clip(levels, 0, LEVELS - 1).astype(np.int64))


def specify_map(p_in: ProbabilityHistogram, p_target: DesiredPDF) -> LevelMap:
    """Map each input level to the smallest output level whose target CDF
    reaches the input CDF (with a 1e-12 guard against summation noise)."""
    t = np.cumsum(p_in.p)
    g = np.cumsum(p_target.p)
    idx = np.searchsorted(g, t - _INVERSE_EPS, side="left")
    return LevelMap(np.clip(idx, 0, LEVELS - 1).astype(np.int64))


def apply_map(img: GrayImage, level_map: LevelMap) -> GrayImage:
    """Remap every pixel through the level map."""
    lut = level_map.values.astype(np.uint8)
    return GrayImage(img.width, img.height, lut[img.pixels])


def map_histogram(raw: RawHistogram, level_map: LevelMap) -> RawHistogram:
    """Histogram of the image remapped through level_map, from its counts alone.

    Equals compute_histogram(apply_map(img, level_map)) for raw =
    compute_histogram(img): the integer counts are summed exactly in float64.
    """
    counts = np.bincount(level_map.values, weights=raw.counts, minlength=LEVELS)
    return RawHistogram(counts.astype(np.int64), raw.total)


def rmshe(raw: RawHistogram, depth: int = 2) -> LevelMap:
    """Level map of recursive mean-separate equalization.

    The gray range is split at the mean of the pixels inside each segment,
    repeated depth times (yielding up to 2**depth segments), and every
    segment is equalized onto its own gray range. depth 0 is plain
    full-range equalization. Apply it with apply_map.
    """
    if not (0 <= depth <= _MAX_RMSHE_DEPTH):
        raise ValueError(f"depth must lie in [0, {_MAX_RMSHE_DEPTH}]")
    counts = raw.counts.astype(float)
    segments = [(0, LEVELS - 1)]
    for _ in range(depth):
        split = []
        for lo, hi in segments:
            seg = counts[lo:hi + 1]
            total = seg.sum()
            if total == 0 or lo == hi:
                split.append((lo, hi))
                continue
            mean = float(seg @ np.arange(lo, hi + 1)) / total
            mid = int(np.floor(mean))
            mid = min(max(mid, lo), hi)
            split.append((lo, mid))
            if mid + 1 <= hi:
                split.append((mid + 1, hi))
        segments = split
    lut = np.arange(LEVELS, dtype=np.int64)
    for lo, hi in segments:
        seg = counts[lo:hi + 1]
        total = seg.sum()
        if total == 0:
            continue
        cdf = np.cumsum(seg) / total
        lut[lo:hi + 1] = lo + _round_half_up((hi - lo) * cdf).astype(np.int64)
    return LevelMap(lut)
