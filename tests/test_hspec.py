import numpy as np
import pytest

from it2hspec.histogram import (
    ProbabilityHistogram,
    compute_histogram,
    to_probability,
)
from it2hspec.hspec import (
    LevelMap,
    apply_map,
    equalize_map,
    map_histogram,
    rmshe,
    specify_map,
)
from it2hspec.imagio import GrayImage
from it2hspec.pdfgen import DesiredPDF

UNIFORM = DesiredPDF(np.full(256, 1.0 / 256.0))


def delta_hist(level):
    p = np.zeros(256)
    p[level] = 1.0
    return ProbabilityHistogram(p)


class TestEqualizeMap:
    def test_uniform_closed_form(self):
        lm = equalize_map(ProbabilityHistogram(np.full(256, 1.0 / 256.0)))
        expected = np.floor(255.0 * (np.arange(256) + 1) / 256.0 + 0.5)
        assert np.array_equal(lm.values, expected.astype(int))
        assert lm.values[0] == 1 and lm.values[255] == 255

    def test_delta_is_step(self):
        lm = equalize_map(delta_hist(7))
        assert np.all(lm.values[:7] == 0)
        assert np.all(lm.values[7:] == 255)

    def test_four_mass_example(self):
        p = np.zeros(256)
        p[[0, 64, 128, 192]] = 0.25
        lm = equalize_map(ProbabilityHistogram(p))
        assert lm.values[0] == 64
        assert lm.values[64] == 128
        assert lm.values[128] == 191
        assert lm.values[192] == 255


class TestSpecifyMap:
    def test_uniform_target_close_to_equalize(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            weights = rng.uniform(0, 1, 256) ** 3
            p = ProbabilityHistogram(weights / weights.sum())
            he = equalize_map(p)
            hs = specify_map(p, UNIFORM)
            assert np.max(np.abs(he.values - hs.values)) <= 1

    def test_matching_target_is_identity_on_support(self):
        rng = np.random.default_rng(1)
        weights = np.zeros(256)
        support = rng.choice(256, 40, replace=False)
        weights[support] = rng.uniform(0.2, 1.0, 40)
        p = weights / weights.sum()
        lm = specify_map(ProbabilityHistogram(p), DesiredPDF(p))
        for g in support:
            assert lm.values[g] == g

    def test_delta_to_delta(self):
        target = np.zeros(256)
        target[200] = 1.0
        lm = specify_map(delta_hist(0), DesiredPDF(target))
        assert lm.values[0] == 200

    def test_monotone_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            w_in = rng.uniform(0, 1, 256)
            w_t = rng.uniform(0, 1, 256)
            p_in = ProbabilityHistogram(w_in / w_in.sum())
            target = DesiredPDF(w_t / w_t.sum())
            lm = specify_map(p_in, target)
            assert np.all(np.diff(lm.values) >= 0)


class TestApplyMap:
    def test_identity(self):
        rng = np.random.default_rng(3)
        img = GrayImage(8, 8, rng.integers(0, 256, 64))
        out = apply_map(img, LevelMap(np.arange(256)))
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_map(self):
        rng = np.random.default_rng(4)
        img = GrayImage(8, 8, rng.integers(0, 256, 64))
        out = apply_map(img, LevelMap(np.full(256, 9)))
        assert np.all(out.pixels == 9)

    def test_histogram_pushforward(self):
        rng = np.random.default_rng(5)
        img = GrayImage(32, 32, rng.integers(0, 256, 1024))
        lm = equalize_map(to_probability(compute_histogram(img)))
        out = apply_map(img, lm)
        pushed = np.zeros(256, dtype=int)
        for g, count in enumerate(compute_histogram(img).counts):
            pushed[lm.values[g]] += count
        assert np.array_equal(compute_histogram(out).counts, pushed)


class TestMapHistogram:
    def test_matches_histogram_of_remapped_image(self):
        rng = np.random.default_rng(8)
        spiky = np.concatenate([np.zeros(300, int), np.full(300, 255),
                                rng.integers(0, 256, 424)])
        for px in (rng.integers(0, 256, 1024), rng.integers(90, 110, 1024), spiky,
                   np.full(1024, 42), 17 * rng.integers(0, 16, 1024)):
            img = GrayImage(32, 32, px)
            raw = compute_histogram(img)
            maps = [LevelMap(np.arange(256)), LevelMap(np.full(256, 9)),
                    LevelMap(np.sort(rng.integers(0, 256, 256))),
                    equalize_map(to_probability(raw)), rmshe(raw, 2)]
            for lm in maps:
                pushed = map_histogram(raw, lm)
                assert np.array_equal(pushed.counts,
                                      compute_histogram(apply_map(img, lm)).counts)
                assert pushed.total == raw.total


class TestLevelMap:
    def test_non_monotone_rejected(self):
        values = np.arange(256)
        values[10] = 5
        with pytest.raises(ValueError):
            LevelMap(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LevelMap(np.full(256, 300))


class TestRmshe:
    def test_depth_zero_equals_equalization(self):
        rng = np.random.default_rng(6)
        img = GrayImage(32, 32, rng.integers(20, 200, 1024))
        he = apply_map(img, equalize_map(to_probability(compute_histogram(img))))
        out = apply_map(img, rmshe(compute_histogram(img), 0))
        assert np.array_equal(out.pixels, he.pixels)

    def test_constant_image_stays_constant(self):
        img = GrayImage(8, 8, np.full(64, 77))
        for depth in range(5):
            out = apply_map(img, rmshe(compute_histogram(img), depth))
            assert len(np.unique(out.pixels)) == 1

    def test_depth_one_respects_segment_ranges(self):
        rng = np.random.default_rng(7)
        dark = rng.normal(60, 10, 2048)
        bright = rng.normal(190, 10, 2048)
        px = np.clip(np.concatenate([dark, bright]), 0, 255).astype(int)
        img = GrayImage(64, 64, px)
        counts = compute_histogram(img).counts
        mean = float(counts @ np.arange(256)) / counts.sum()
        split = int(np.floor(mean))
        out = apply_map(img, rmshe(compute_histogram(img), 1))
        was_dark = img.pixels <= split
        assert out.pixels[was_dark].max() <= split
        assert out.pixels[~was_dark].min() >= split + 1

    def test_depth_above_four_rejected(self):
        img = GrayImage(2, 2, np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError):
            rmshe(compute_histogram(img), 5)
        with pytest.raises(ValueError):
            rmshe(compute_histogram(img), -1)
