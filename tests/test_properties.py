"""Properties the math guarantees, checked on generated histograms, mixtures
and images.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from it2hspec.fou import bound_functions
from it2hspec.gaussfit import (
    A_MAX,
    MU_MAX,
    MU_MIN,
    SIGMA_MAX,
    SIGMA_MIN,
    FitConfig,
    Gaussian1D,
    MixtureFit,
    domain_map,
    heuristic_init,
    mixture_objective,
)
from it2hspec.histogram import RawHistogram, compute_histogram, to_probability
from it2hspec.hspec import LevelMap, map_histogram
from it2hspec.imagio import GrayImage
from it2hspec.metrics import aic
from it2hspec.pipeline import METHODS, PipelineConfig, apply_method, build_model

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def raw_histograms(draw):
    occupied = draw(st.dictionaries(st.integers(0, 255), st.integers(1, 10**6),
                                    min_size=1, max_size=256))
    counts = np.zeros(256, dtype=np.int64)
    counts[list(occupied)] = list(occupied.values())
    return RawHistogram(counts, int(counts.sum()))


components = st.lists(
    st.tuples(st.floats(1e-6, A_MAX), st.floats(MU_MIN, MU_MAX),
              st.floats(SIGMA_MIN, SIGMA_MAX)),
    min_size=1, max_size=4).map(lambda params: sorted(params, key=lambda p: p[1]))

monotone_maps = st.lists(st.integers(0, 255), min_size=256, max_size=256).map(
    lambda values: LevelMap(np.array(sorted(values))))


@st.composite
def small_images(draw):
    width, height = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    palette = draw(st.one_of(
        st.lists(st.sampled_from([0, 255]) | st.integers(0, 255),
                 min_size=1, max_size=12, unique=True),
        st.just(list(range(256)))))
    pixels = draw(st.lists(st.sampled_from(palette),
                           min_size=width * height, max_size=width * height))
    return GrayImage(width, height, np.array(pixels))


@PROPERTY
@given(raw_histograms(), monotone_maps)
def test_level_map_never_adds_entropy(raw, level_map):
    mapped = map_histogram(raw, level_map)
    assert aic(to_probability(mapped)) <= aic(to_probability(raw))


@PROPERTY
@given(components)
def test_mixture_partition_tiles_the_gray_range(params):
    fit = MixtureFit([Gaussian1D(a, mu, sigma) for a, mu, sigma in params])
    assert fit.reaches[0][0] == 0
    assert fit.reaches[-1][1] == 255
    for (_, end), (start, _) in zip(fit.reaches, fit.reaches[1:]):
        assert start == end
    mus = [g.mu for g in fit.gaussians]
    assert len(fit.partition_points) == len(mus) - 1
    for left, pp, right in zip(mus, fit.partition_points, mus[1:]):
        assert left <= pp <= right
    for g, i in enumerate(domain_map(fit)):
        start, end = fit.reaches[i]
        assert start <= g <= end


@PROPERTY
@given(small_images())
@example(GrayImage(8, 8, np.full(64, 93)))
@example(GrayImage(1, 1, np.array([0])))
@example(GrayImage(8, 8, np.repeat([40, 200], 32)))
@example(GrayImage(8, 8, 17 * (np.arange(64) % 16)))
@example(GrayImage(8, 8, np.repeat([0, 255, 128, 0], 16)))
def test_model_fit_never_worse_than_init_and_every_method_applies(img):
    """One model per image checks every invariant below, which keeps the
    property inside its time budget: fit <= init, each footprint refit <= its
    start (the main fit on its bound function), lmf <= umf, and per method a
    PDF that is non-negative and sums to 1, a monotone level map and, for KM,
    ordered interval ends."""
    cfg = PipelineConfig(fit=FitConfig(max_iters=200))
    model = build_model(compute_histogram(img), cfg)
    init = heuristic_init(model.smoothed, cfg.fit)
    assert model.mixture.final_objective <= init.final_objective
    for refit, bound in zip((model.fou.umf_fit, model.fou.lmf_fit),
                            bound_functions(model.smoothed, model.mixture)):
        assert refit.final_objective <= mixture_objective(model.mixture, bound)
    assert np.all(model.fou.lmf <= model.fou.umf)
    for method in METHODS:
        mv, desired, level_map, _ = apply_method(model, method, cfg.fuzzifier)
        assert desired.p.min() >= 0
        assert abs(float(desired.p.sum()) - 1.0) <= 1e-9
        assert np.all(np.diff(level_map.values) >= 0)
        if method == "km":
            assert all(c.v_left <= c.v_right for c in mv.clusters)
