import numpy as np
import pytest

from it2hspec.histogram import (
    RawHistogram,
    compute_histogram,
    smooth_and_normalize,
    to_probability,
)
from it2hspec.imagio import GrayImage


def naive_counts(img):
    counts = [0] * 256
    for value in img.pixels:
        counts[int(value)] += 1
    return counts


class TestComputeHistogram:
    def test_two_level_image(self):
        raw = compute_histogram(GrayImage(2, 2, np.array([0, 0, 255, 255])))
        assert raw.counts[0] == 2
        assert raw.counts[255] == 2
        assert raw.counts[1:255].sum() == 0
        assert raw.total == 4

    def test_constant_image(self):
        raw = compute_histogram(GrayImage(10, 10, np.full(100, 7)))
        assert raw.counts[7] == 100
        assert raw.total == 100

    def test_matches_naive_tally(self):
        rng = np.random.default_rng(0)
        img = GrayImage(64, 64, rng.integers(0, 256, 4096))
        raw = compute_histogram(img)
        assert raw.counts.tolist() == naive_counts(img)
        assert raw.counts.sum() == 4096

    @pytest.mark.parametrize("width, height, make", [
        (64, 64, lambda rng, n: rng.integers(0, 256, n)),
        (63, 65, lambda rng, n: rng.integers(0, 256, n)),
        (1, 1, lambda rng, n: rng.integers(0, 256, n)),
        (1, 255, lambda rng, n: rng.integers(0, 256, n)),
        (37, 11, lambda rng, n: np.full(n, 201)),
        (33, 17, lambda rng, n: rng.choice([0, 255], n)),
        (2048, 2048, lambda rng, n: rng.integers(0, 256, n)),
    ], ids=["even", "odd", "1x1", "1x255", "constant", "0-255-only", "2048sq"])
    def test_counts_equal_bincount_exactly(self, width, height, make):
        rng = np.random.default_rng(width * height)
        img = GrayImage(width, height, make(rng, width * height).astype(np.uint8))
        raw = compute_histogram(img)
        expected = np.bincount(img.pixels, minlength=256)
        assert raw.counts.dtype == np.int64
        assert np.array_equal(raw.counts, expected)
        assert raw.total == width * height


class TestToProbability:
    def test_two_level_split(self):
        counts = np.zeros(256, dtype=int)
        counts[0] = counts[255] = 2
        p = to_probability(RawHistogram(counts, 4))
        assert p.p[0] == 0.5 and p.p[255] == 0.5

    def test_constant_is_delta(self):
        counts = np.zeros(256, dtype=int)
        counts[9] = 50
        p = to_probability(RawHistogram(counts, 50))
        assert p.p[9] == 1.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 1000, 256)
        p = to_probability(RawHistogram(counts, int(counts.sum())))
        assert abs(p.p.sum() - 1.0) < 1e-9

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            to_probability(RawHistogram(np.zeros(256, dtype=int), 0))


class TestSmoothAndNormalize:
    def test_window_one_is_peak_scaling(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 100, 256)
        counts[40] = 100
        smoothed = smooth_and_normalize(RawHistogram(counts, int(counts.sum())), 1)
        assert np.allclose(smoothed.h, counts / 100.0)

    def test_delta_window_three(self):
        counts = np.zeros(256, dtype=int)
        counts[128] = 300
        smoothed = smooth_and_normalize(RawHistogram(counts, 300), 3)
        assert smoothed.h[128] == 1.0
        assert smoothed.h[127] == smoothed.h[129]
        assert smoothed.h[126] == 0.0

    def test_matches_windowed_mean_oracle(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 500, 256)
        raw = RawHistogram(counts, int(counts.sum()))
        smoothed = smooth_and_normalize(raw, 5)
        means = []
        for g in range(256):
            lo, hi = max(0, g - 2), min(255, g + 2)
            means.append(counts[lo:hi + 1].sum() / (hi - lo + 1))
        expected = np.array(means) / max(means)
        assert np.max(np.abs(smoothed.h - expected)) < 1e-12

    @pytest.mark.parametrize("window", [0, 2, 4, -3, 33])
    def test_bad_window_rejected(self, window):
        counts = np.ones(256, dtype=int)
        with pytest.raises(ValueError):
            smooth_and_normalize(RawHistogram(counts, 256), window)

    def test_preserves_symmetric_peak_location(self):
        grid = np.arange(256)
        counts = np.round(1000 * np.exp(-0.5 * ((grid - 97) / 11) ** 2)).astype(int)
        raw = RawHistogram(counts, int(counts.sum()))
        for window in (3, 5, 9):
            smoothed = smooth_and_normalize(raw, window)
            assert int(np.argmax(smoothed.h)) == 97

    def test_window_one_conserves_mass(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 300, 256)
        raw = RawHistogram(counts, int(counts.sum()))
        smoothed = smooth_and_normalize(raw, 1)
        assert np.isclose(smoothed.h.sum() * counts.max(), counts.sum())

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        counts = np.zeros(256, dtype=int)
        counts[60:180] = rng.integers(1, 400, 120)
        shifted = np.zeros(256, dtype=int)
        shifted[17:] = counts[:-17]
        base = smooth_and_normalize(RawHistogram(counts, int(counts.sum())), 7)
        moved = smooth_and_normalize(RawHistogram(shifted, int(shifted.sum())), 7)
        assert np.allclose(moved.h[17:], base.h[:-17])

    def test_all_zero_counts_stay_zero(self):
        smoothed = smooth_and_normalize(RawHistogram(np.zeros(256, dtype=int), 0), 5)
        assert not np.any(smoothed.h)
