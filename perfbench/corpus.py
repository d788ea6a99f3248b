"""Seeded input images for the benchmark workloads.

The generators follow the shape of the test-suite fixtures (Gaussian pixel
populations over a uniform floor, low-contrast bands) but live here, so an
edit to the tests cannot move the benchmark's inputs.

Each image is a "scene": a gray-level distribution whose shape is drawn from
SCENE_SEED and the image's index, so every workload seed sees the same
shapes. The workload seed draws the pixels, each independently from the
scene's distribution. The fit's cost varies more than tenfold between
histogram shapes, so drawing the shapes from the workload seed would make
run medians differ by seed rather than by program.

Every corpus is stratified: image i has kind ``kinds[i % len(kinds)]``, so a
run that completes more or fewer images still sees the same mix of kinds.
"""

import math

import numpy as np

SCENE_SEED = 2018

# compare-2048's histogram families: 1-3 Gaussian populations over a uniform
# floor, spread over the full range ("wide") or squeezed into a narrow
# mid-gray band ("band").
MODE_KINDS = ("wide-1", "wide-2", "wide-3", "band-1", "band-2", "band-3")

# cli-edge-512 mixes two ordinary kinds with the degenerate and edge inputs a
# trivial-histogram fast path would target.
EDGE_KINDS = ("wide-2", "constant", "two-level", "spike-noise", "edge-mass",
              "sparse-levels", "one-pixel", "band-1")

_EDGES = np.arange(-0.5, 256.0, 1.0)


def _normal_cdf(x, mu, sigma):
    return np.array([0.5 * (1.0 + math.erf((v - mu) / (sigma * math.sqrt(2.0))))
                     for v in x])


def _level_mass(mu, sigma):
    """Probability of each gray level for N(mu, sigma) rounded and clipped."""
    cdf = _normal_cdf(_EDGES, mu, sigma)
    mass = np.diff(cdf)
    mass[0] += cdf[0]
    mass[-1] += 1.0 - cdf[-1]
    return mass


def _place_modes(scene, k, lo, hi, sigma_range):
    """k (weight, mean, sigma) populations with resolvable spacing in [lo, hi]."""
    for _ in range(500):
        sigmas = scene.uniform(*sigma_range, k)
        gaps = [2.4 * (sigmas[i] + sigmas[i + 1]) for i in range(k - 1)]
        left, right = lo + 1.7 * sigmas[0], hi - 1.7 * sigmas[-1]
        room = right - left - sum(gaps)
        if room > 1.0:
            mus = [left + scene.uniform(0.0, room)]
            for gap in gaps:
                mus.append(mus[-1] + gap)
            return list(zip(scene.uniform(0.5, 1.0, k), mus, sigmas))
    raise RuntimeError("no feasible mode placement")


def _mixture(modes, floor_lo, floor_hi, floor_frac):
    """Level distribution of Gaussian populations plus a uniform floor."""
    total_w = sum(w for w, _, _ in modes)
    p = sum(w / total_w * _level_mass(mu, sg) for w, mu, sg in modes)
    floor = np.zeros(256)
    floor[int(floor_lo):int(floor_hi) + 1] = 1.0
    return (1.0 - floor_frac) * p + floor_frac * floor / floor.sum()


def mode_scene(scene, kind):
    """Level distribution of a 'wide-k' or 'band-k' scene."""
    family, k = kind.split("-")
    k = int(k)
    floor_frac = scene.uniform(0.02, 0.12)
    if family == "wide":
        return _mixture(_place_modes(scene, k, 0.0, 255.0, (8.0, 24.0)),
                        0, 255, floor_frac)
    center = scene.uniform(100.0, 150.0)
    half = 30.0 + 12.0 * k
    modes = _place_modes(scene, k, center - half, center + half, (4.0, 8.0))
    return _mixture(modes, center - half, center + half, floor_frac)


def edge_scene(scene, kind):
    """Level distribution of a degenerate or edge scene (or an ordinary one)."""
    p = np.zeros(256)
    if kind in ("constant", "one-pixel"):
        p[int(scene.integers(20, 236))] = 1.0
    elif kind == "two-level":
        share = scene.uniform(0.3, 0.7)
        p[int(scene.integers(10, 120))] = share
        p[int(scene.integers(136, 246))] = 1.0 - share
    elif kind == "spike-noise":
        level = int(scene.integers(60, 196))
        spike = scene.uniform(0.6, 0.8)
        p = (1.0 - spike) * _level_mass(level, scene.uniform(15.0, 30.0))
        p[level] += spike
    elif kind == "edge-mass":
        share = scene.uniform(0.15, 0.3)
        p = (1.0 - 2.0 * share) * _mixture(
            _place_modes(scene, 1, 60.0, 195.0, (15.0, 30.0)), 0, 255, 0.05)
        p[0] += share
        p[255] += share
    elif kind == "sparse-levels":
        step = int(scene.integers(12, 24))
        levels = np.arange(int(scene.integers(0, step)), 256, step)
        p[levels] = scene.uniform(0.2, 1.0, levels.size)
    else:
        return mode_scene(scene, kind)
    return p


def corpus(seed, kinds, size, count, scene_of):
    """count images as (kind, width, height, uint8 pixels), kind i % len(kinds).

    A 'one-pixel' kind is 1x1 regardless of size.
    """
    images = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        p = scene_of(np.random.default_rng([SCENE_SEED, i]), kind)
        side = 1 if kind == "one-pixel" else size
        rng = np.random.default_rng([seed, i])
        pixels = rng.choice(256, side * side, p=p / p.sum()).astype(np.uint8)
        images.append((kind, side, side, pixels))
    return images


def is_trivial(pixels):
    """One or two occupied levels, or one level holding most pixels."""
    counts = np.bincount(pixels, minlength=256)
    return np.count_nonzero(counts) <= 2 or counts.max() > 0.5 * pixels.size
