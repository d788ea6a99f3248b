import numpy as np
import pytest

from it2hspec.fou import FOU
from it2hspec.gaussfit import (
    FitConfig,
    Gaussian1D,
    MixtureFit,
    domain_map,
    fit_mixture,
    heuristic_init,
)
from it2hspec.membership import (
    ZeroOverlapWarning,
    km_boundary_centroid,
    mv_area,
    mv_center_of_weights,
    mv_km,
    mv_pointwise,
)
from tests.conftest import GRID, gaussian_series


def make_fit(*params):
    return MixtureFit([Gaussian1D(a, mu, sigma) for a, mu, sigma in params])


def make_fou(umf, lmf):
    anchor = make_fit((1.0, 128.0, 20.0))
    return FOU(anchor, anchor, np.asarray(umf, float), np.asarray(lmf, float))


def power_centroid(x, u, m):
    w = u ** m
    return float(w @ x) / float(w.sum())


def switch_centroids(x, upper, lower, m, side):
    """Centroid for every switch split, per the boundary assignment rule."""
    out = []
    for k in range(1, x.size):
        if side == "right":
            u = np.concatenate((lower[:k], upper[k:]))
        else:
            u = np.concatenate((upper[:k], lower[k:]))
        out.append(power_centroid(x, u, m))
    return out


class TestPointwise:
    def test_exact_match_gives_one(self):
        fit = make_fit((0.8, 128.0, 20.0))
        h = 0.8 * np.exp(-0.5 * ((GRID - 128.0) / 20.0) ** 2)
        assert np.allclose(mv_pointwise(fit, h), 1.0)

    def test_known_gap(self):
        fit = make_fit((0.8, 128.0, 20.0))
        h = np.zeros(256)
        h[128] = 0.5
        assert mv_pointwise(fit, h)[128] == pytest.approx(0.7)

    def test_matches_per_level_loop(self):
        rng = np.random.default_rng(0)
        fit = make_fit((0.9, 70.0, 15.0), (0.6, 190.0, 22.0))
        h = rng.uniform(0, 1, 256)
        values = mv_pointwise(fit, h)
        dom = domain_map(fit)
        for g in range(256):
            comp = fit.gaussians[dom[g]]
            f = comp.a * np.exp(-0.5 * ((g - comp.mu) / comp.sigma) ** 2)
            expected = min(max(1.0 - abs(f - h[g]), 0.0), 1.0)
            assert values[g] == pytest.approx(expected, abs=1e-12)

    def test_clamped_at_zero(self):
        fit = make_fit((1.5, 128.0, 30.0))
        values = mv_pointwise(fit, np.zeros(256))
        assert values[128] == 0.0

    def test_symmetric_in_curve_and_histogram(self):
        fit = make_fit((0.8, 128.0, 20.0))
        h = np.full(256, 0.3)
        base = mv_pointwise(fit, h)
        assert np.all(base <= 1.0) and np.all(base >= 0.0)


class TestCenterOfWeights:
    def test_symmetric_full_height(self):
        fit = make_fit((1.0, 128.0, 20.0))
        h = 1.0 * np.exp(-0.5 * ((GRID - 128.0) / 20.0) ** 2)
        values = mv_center_of_weights(fit, h)
        assert np.allclose(values, 1.0, atol=1e-6)

    def test_symmetric_partial_height(self):
        fit = make_fit((0.6, 128.0, 20.0))
        h = 0.6 * np.exp(-0.5 * ((GRID - 128.0) / 20.0) ** 2)
        values = mv_center_of_weights(fit, h)
        assert np.allclose(values, 0.6, atol=1e-6)

    def test_skewed_overlap_matches_weighted_mean(self):
        rng = np.random.default_rng(1)
        fit = make_fit((0.9, 100.0, 18.0))
        h = rng.uniform(0, 1, 256)
        comp = fit.gaussians[0]
        f = comp.a * np.exp(-0.5 * ((GRID - comp.mu) / comp.sigma) ** 2)
        w = np.minimum(f, h)
        center = float((w * GRID).sum() / w.sum())
        expected = min(comp.a * np.exp(-0.5 * ((center - comp.mu) / comp.sigma) ** 2), 1.0)
        values = mv_center_of_weights(fit, h)
        assert values[0] == pytest.approx(expected, abs=1e-9)
        assert np.allclose(values, values[0])

    def test_constant_within_each_reach(self):
        rng = np.random.default_rng(2)
        fit = make_fit((0.9, 70.0, 15.0), (0.7, 190.0, 20.0))
        values = mv_center_of_weights(fit, rng.uniform(0, 1, 256))
        # shared boundary levels belong to the lower-indexed component
        for i, (start, end) in enumerate(fit.reaches):
            inner = values[start + 1 if i else start:end + 1]
            assert np.allclose(inner, inner[0])

    def test_zero_overlap_warns_and_zeroes(self):
        fit = make_fit((0.9, 128.0, 20.0))
        with pytest.warns(ZeroOverlapWarning):
            values = mv_center_of_weights(fit, np.zeros(256))
        assert np.all(values == 0.0)


class TestArea:
    def test_histogram_dominates(self):
        fit = make_fit((0.7, 128.0, 20.0))
        assert np.allclose(mv_area(fit, np.ones(256)), 1.0)

    def test_zero_histogram(self):
        fit = make_fit((0.7, 128.0, 20.0))
        assert np.allclose(mv_area(fit, np.zeros(256)), 0.0)

    def test_half_histogram(self):
        fit = make_fit((0.8, 128.0, 18.0))
        comp = fit.gaussians[0]
        f = comp.a * np.exp(-0.5 * ((GRID - comp.mu) / comp.sigma) ** 2)
        values = mv_area(fit, f / 2.0)
        assert values[0] == pytest.approx(0.5, abs=1e-9)


class TestBoundaryCentroid:
    def test_degenerate_interval_is_plain_centroid(self):
        u = 0.2 + 0.8 * np.exp(-0.5 * ((GRID - 100.0) / 14.0) ** 2)
        fou = make_fou(u, u)
        x = np.arange(80, 121, dtype=float)
        expected = power_centroid(x, u[80:121], 2.0)
        for side in ("right", "left"):
            got = km_boundary_centroid(fou, 80, 120, 2.0, side)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetric_interval_centers(self):
        u = np.exp(-0.5 * ((GRID - 128.0) / 10.0) ** 2)
        fou = make_fou(u, 0.5 * u)
        v_r = km_boundary_centroid(fou, 112, 144, 2.0, "right")
        v_l = km_boundary_centroid(fou, 112, 144, 2.0, "left")
        assert v_l <= v_r
        assert 0.5 * (v_l + v_r) == pytest.approx(128.0, abs=1e-6)

    def test_matches_exhaustive_switch_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            start = int(rng.integers(0, 240))
            end = start + int(rng.integers(3, 16))
            upper = rng.uniform(0.05, 1.0, 256)
            lower = upper * rng.uniform(0.2, 1.0, 256)
            fou = make_fou(upper, lower)
            x = np.arange(start, end + 1, dtype=float)
            seg_u, seg_l = upper[start:end + 1], lower[start:end + 1]
            v_r = km_boundary_centroid(fou, start, end, 2.0, "right")
            v_l = km_boundary_centroid(fou, start, end, 2.0, "left")
            assert v_r == pytest.approx(
                max(switch_centroids(x, seg_u, seg_l, 2.0, "right")), abs=1e-6)
            assert v_l == pytest.approx(
                min(switch_centroids(x, seg_u, seg_l, 2.0, "left")), abs=1e-6)
            assert v_l <= v_r + 1e-12

    def test_all_zero_cluster_rejected(self):
        fou = make_fou(np.zeros(256), np.zeros(256))
        with pytest.raises(ValueError):
            km_boundary_centroid(fou, 10, 20, 2.0, "right")

    def test_bad_side_rejected(self):
        fou = make_fou(np.ones(256), np.ones(256))
        with pytest.raises(ValueError):
            km_boundary_centroid(fou, 10, 20, 2.0, "middle")

    def test_small_fuzzifier_rejected(self):
        fou = make_fou(np.ones(256), np.ones(256))
        with pytest.raises(ValueError):
            km_boundary_centroid(fou, 10, 20, 1.0, "right")


class TestMvKm:
    def test_single_symmetric_cluster(self):
        u = np.exp(-0.5 * ((GRID - 128.0) / 20.0) ** 2)
        fou = make_fou(u, u)
        result = mv_km(fou, [], 2.0)
        cluster = result.clusters[0]
        assert (cluster.start, cluster.end) == (0, 255)
        assert cluster.v_center == pytest.approx(128.0, abs=1e-6)
        assert np.allclose(result.mv, 1.0)

    def test_two_symmetric_clusters_two_values(self):
        u = (np.exp(-0.5 * ((GRID - 64.0) / 12.0) ** 2)
             + 0.7 * np.exp(-0.5 * ((GRID - 192.0) / 12.0) ** 2))
        fou = make_fou(np.minimum(u, 1.0), 0.6 * np.minimum(u, 1.0))
        result = mv_km(fou, [128.0], 2.0)
        assert len(result.clusters) == 2
        assert len(np.unique(result.mv)) == 2

    def test_clusters_tile_disjointly(self):
        u = np.full(256, 0.5)
        fou = make_fou(u, 0.25 * np.ones(256))
        result = mv_km(fou, [63.7, 140.2], 2.0)
        clusters = result.clusters
        assert clusters[0].start == 0
        assert clusters[-1].end == 255
        for left, right in zip(clusters, clusters[1:]):
            assert right.start == left.end + 1

    def test_value_recomputable_from_final_assignments(self):
        rng = np.random.default_rng(4)
        upper = np.clip(rng.uniform(0.1, 1.0, 256), 0, 1)
        lower = upper * rng.uniform(0.3, 1.0, 256)
        fou = make_fou(upper, lower)
        result = mv_km(fou, [80.0, 170.0], 2.0)
        for cluster in result.clusters:
            reduced = 0.5 * (cluster.left_memberships + cluster.right_memberships)
            center = int(np.floor(cluster.v_center + 0.5))
            center = min(max(center, cluster.start), cluster.end)
            expected = min(max(float(reduced[center - cluster.start]), 0.0), 1.0)
            segment = result.mv[cluster.start:cluster.end + 1]
            assert np.allclose(segment, expected)

    def test_interval_ends_ordered(self):
        rng = np.random.default_rng(5)
        upper = rng.uniform(0.05, 1.0, 256)
        lower = upper * rng.uniform(0.2, 1.0, 256)
        fou = make_fou(upper, lower)
        result = mv_km(fou, [50.0, 120.0, 200.0], 2.0)
        for cluster in result.clusters:
            assert cluster.v_left <= cluster.v_right + 1e-12
            assert cluster.start <= cluster.v_center <= cluster.end


class TestAgainstFittedFou:
    def test_all_methods_bounded_and_piecewise(self):
        rng = np.random.default_rng(6)
        cfg = FitConfig(max_iters=3000)
        h = gaussian_series([(0.9, 80.0, 14.0), (0.7, 180.0, 18.0)])
        h = h + rng.uniform(0, 0.03, 256)
        fit = fit_mixture(h, heuristic_init(h, cfg), cfg)
        from it2hspec.fou import extract_fou

        fou = extract_fou(h, fit, cfg)
        for fn in (mv_pointwise, mv_center_of_weights, mv_area):
            for bound_fit in (fou.umf_fit, fou.lmf_fit):
                values = fn(bound_fit, h)
                assert values.shape == (256,)
                assert values.min() >= 0.0 and values.max() <= 1.0
        km = mv_km(fou, fit.partition_points, 2.0)
        assert km.mv.min() >= 0.0 and km.mv.max() <= 1.0
        for cluster in km.clusters:
            segment = km.mv[cluster.start:cluster.end + 1]
            assert np.allclose(segment, segment[0])
