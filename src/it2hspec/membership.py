"""Per-gray-level membership values extracted from the footprint of uncertainty.

Four strategies are provided. Point-wise, center-of-weights, and area are
applied once against the upper membership fit and once against the lower
one; the Karnik-Mendel method type-reduces the interval directly and yields
a single series. All outputs are clamped to [0, 1].
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .fou import FOU
from .gaussfit import MixtureFit, component_values, domain_map
from .histogram import GRID, as_series
from .imagio import LEVELS

_KM_TOL = 1e-9
_KM_MAX_ITERS = 100

IT2_METHODS = ("pointwise", "cow", "area")


class ZeroOverlapWarning(UserWarning):
    """A component has no overlap with the histogram; its value is set to 0."""


@dataclass(frozen=True)
class IT2MembershipValues:
    """Upper/lower membership series for one of the interval methods."""

    upper: np.ndarray
    lower: np.ndarray
    method: str

    def __post_init__(self):
        if self.method not in IT2_METHODS:
            raise ValueError(f"method must be one of {IT2_METHODS}")
        for name in ("upper", "lower"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.size != LEVELS:
                raise ValueError(f"{name} series must have {LEVELS} values")
            if vals.min() < 0 or vals.max() > 1:
                raise ValueError(f"{name} membership values must lie in [0, 1]")
            object.__setattr__(self, name, vals)


@dataclass(frozen=True)
class KMCluster:
    """One gray-level cluster with its interval centroid ends."""

    start: int
    end: int
    v_left: float
    v_right: float
    v_center: float
    left_memberships: np.ndarray
    right_memberships: np.ndarray

    def __post_init__(self):
        if not (0 <= self.start <= self.end <= LEVELS - 1):
            raise ValueError("cluster bounds must satisfy 0 <= start <= end <= 255")


@dataclass(frozen=True)
class KMMembershipValues:
    """Type-reduced membership series, constant within each cluster.

    The KMCluster tuple must tile 0..255 in order, each cluster starting one
    level after the previous one ends.
    """

    mv: np.ndarray
    clusters: tuple

    def __post_init__(self):
        mv = np.asarray(self.mv, dtype=float)
        if mv.size != LEVELS:
            raise ValueError(f"membership series must have {LEVELS} values")
        if mv.min() < 0 or mv.max() > 1:
            raise ValueError("membership values must lie in [0, 1]")
        clusters = tuple(self.clusters)
        starts = [c.start for c in clusters]
        if starts + [LEVELS] != [0] + [c.end + 1 for c in clusters]:
            raise ValueError(f"clusters must tile 0..{LEVELS - 1} in order")
        object.__setattr__(self, "mv", mv)
        object.__setattr__(self, "clusters", clusters)


def mv_pointwise(fit: MixtureFit, h) -> np.ndarray:
    """1 minus the absolute gap between the dominant component and the histogram."""
    values = as_series(h)
    comps = component_values(fit)
    dominant = comps[domain_map(fit), np.arange(LEVELS)]
    return np.clip(1.0 - np.abs(dominant - values), 0.0, 1.0)


def mv_center_of_weights(fit: MixtureFit, h) -> np.ndarray:
    """Each component evaluated at the centroid of its overlap with the histogram.

    Components whose overlap is empty get value 0 and raise ZeroOverlapWarning.
    """
    values = as_series(h)
    comps = component_values(fit)
    overlap = np.minimum(comps, values)
    per_component = np.zeros(fit.n_components)
    for i, gauss in enumerate(fit.gaussians):
        mass = float(overlap[i].sum())
        if mass == 0.0:
            warnings.warn(
                f"component {i} has zero overlap with the histogram",
                ZeroOverlapWarning,
                stacklevel=2,
            )
            continue
        center = float(overlap[i] @ GRID) / mass
        z = (center - gauss.mu) / gauss.sigma
        per_component[i] = min(max(gauss.a * np.exp(-0.5 * z * z), 0.0), 1.0)
    return per_component[domain_map(fit)]


def mv_area(fit: MixtureFit, h) -> np.ndarray:
    """Overlap area of each component with the histogram, relative to its own area."""
    values = as_series(h)
    comps = component_values(fit)
    areas = comps.sum(axis=1)
    if np.any(areas <= 0):
        raise ValueError("every component must have positive area")
    ratio = np.minimum(comps, values).sum(axis=1) / areas
    per_component = np.clip(ratio, 0.0, 1.0)
    return per_component[domain_map(fit)]


def _km_iterate(x, upper, lower, m, side):
    """Switch-point iteration for one end of the interval centroid.

    Starts from the mid memberships, then repeatedly splits the patterns at
    the level straddling the current centroid: for the right end the lower
    memberships weight everything at or below the split and the upper ones
    everything above (the left end swaps the roles). Weights are raised to
    the fuzzifier power. Returns the converged end and the final
    memberships that produced it.
    """
    u = 0.5 * (upper + lower)
    weights = u ** m
    total = float(weights.sum())
    if total == 0.0:
        raise ValueError("cluster memberships are all zero")
    v = float(weights @ x) / total
    n = x.size
    if n == 1:
        return v, u
    up_pow = upper ** m
    low_pow = lower ** m
    for _ in range(_KM_MAX_ITERS):
        k = int(np.floor(v - x[0]))
        k = min(max(k, 0), n - 2)
        if side == "right":
            weights = np.concatenate((low_pow[: k + 1], up_pow[k + 1:]))
        else:
            weights = np.concatenate((up_pow[: k + 1], low_pow[k + 1:]))
        total = float(weights.sum())
        if total == 0.0:
            raise ValueError("cluster memberships are all zero")
        v_next = float(weights @ x) / total
        if abs(v_next - v) < _KM_TOL:
            if side == "right":
                final = np.concatenate((lower[: k + 1], upper[k + 1:]))
            else:
                final = np.concatenate((upper[: k + 1], lower[k + 1:]))
            return v_next, final
        v = v_next
    raise RuntimeError("interval centroid iteration did not converge in 100 steps")


def km_boundary_centroid(fou: FOU, start: int, end: int, m: float = 2.0,
                         side: str = "right") -> float:
    """One end of the interval centroid of a cluster (side 'right' or 'left')."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if not (0 <= start <= end <= LEVELS - 1):
        raise ValueError("cluster bounds must satisfy 0 <= start <= end <= 255")
    if m <= 1.0:
        raise ValueError("fuzzifier must be greater than 1")
    x = np.arange(start, end + 1, dtype=float)
    v, _ = _km_iterate(x, fou.umf[start:end + 1], fou.lmf[start:end + 1], m, side)
    return v


def _cluster_ranges(partition_points) -> list:
    cuts = []
    for pp in partition_points:
        c = int(np.floor(pp))
        if c < 0 or c > LEVELS - 2:
            continue
        if cuts and c <= cuts[-1]:
            continue
        cuts.append(c)
    starts = [0] + [c + 1 for c in cuts]
    ends = cuts + [LEVELS - 1]
    return list(zip(starts, ends))


def mv_km(fou: FOU, partition_points, m: float = 2.0) -> KMMembershipValues:
    """Karnik-Mendel membership values, one constant per cluster.

    Partition points cut [0, 255] into clusters. For each cluster both ends
    of the interval centroid are found with the switch-point iteration, the
    crisp center is their mean, and the type-reduced memberships (mean of
    the final left/right assignments) are sampled at the rounded center.
    """
    if m <= 1.0:
        raise ValueError("fuzzifier must be greater than 1")
    mv = np.empty(LEVELS)
    records = []
    for start, end in _cluster_ranges(partition_points):
        x = np.arange(start, end + 1, dtype=float)
        upper = fou.umf[start:end + 1]
        lower = fou.lmf[start:end + 1]
        v_right, u_right = _km_iterate(x, upper, lower, m, "right")
        v_left, u_left = _km_iterate(x, upper, lower, m, "left")
        v_center = 0.5 * (v_left + v_right)
        reduced = 0.5 * (u_left + u_right)
        center_level = int(np.floor(v_center + 0.5))
        center_level = min(max(center_level, start), end)
        mv[start:end + 1] = min(max(float(reduced[center_level - start]), 0.0), 1.0)
        records.append(
            KMCluster(start, end, v_left, v_right, v_center, u_left, u_right)
        )
    return KMMembershipValues(mv, tuple(records))
