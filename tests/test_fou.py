import numpy as np
import pytest

from it2hspec.fou import FOU, bound_functions, extract_fou
from it2hspec.gaussfit import FitConfig, fit_mixture, heuristic_init
from it2hspec.histogram import RawHistogram
from it2hspec.pipeline import PipelineConfig, build_model
from tests.conftest import GRID, gaussian_series


def fitted(h, cfg=None):
    cfg = cfg or FitConfig()
    return fit_mixture(h, heuristic_init(h, cfg), cfg)


class TestBoundFunctions:
    def test_equal_curves_collapse(self):
        h = gaussian_series([(0.9, 120.0, 18.0)])
        fit = fitted(h)
        curve = np.array([sum(c.a * np.exp(-0.5 * ((g - c.mu) / c.sigma) ** 2)
                              for c in fit.gaussians) for g in GRID])
        upper, lower = bound_functions(curve, fit)
        assert np.allclose(upper, curve)
        assert np.allclose(lower, curve)

    def test_zero_histogram(self):
        h = gaussian_series([(0.8, 100.0, 15.0)])
        fit = fitted(h)
        upper, lower = bound_functions(np.zeros(256), fit)
        assert np.all(lower == 0)
        assert np.all(upper >= 0)
        assert upper[100] == pytest.approx(0.8, rel=0.03)

    def test_elementwise_max_min_oracle(self):
        rng = np.random.default_rng(5)
        h = gaussian_series([(0.9, 90.0, 20.0)]) + rng.uniform(0, 0.05, 256)
        fit = fitted(gaussian_series([(0.9, 90.0, 20.0)]))
        upper, lower = bound_functions(h, fit)
        curve = np.array([sum(c.a * np.exp(-0.5 * ((g - c.mu) / c.sigma) ** 2)
                              for c in fit.gaussians) for g in GRID])
        for g in range(256):
            assert upper[g] == max(curve[g], h[g])
            assert lower[g] == min(curve[g], h[g])

    def test_bounds_bracket_both_inputs(self):
        rng = np.random.default_rng(6)
        h = gaussian_series([(1.0, 128.0, 25.0)]) + rng.uniform(0, 0.04, 256)
        fit = fitted(gaussian_series([(1.0, 128.0, 25.0)]))
        upper, lower = bound_functions(h, fit)
        curve = np.array([sum(c.a * np.exp(-0.5 * ((g - c.mu) / c.sigma) ** 2)
                              for c in fit.gaussians) for g in GRID])
        assert np.all(upper >= h - 1e-15) and np.all(upper >= curve - 1e-15)
        assert np.all(lower <= h + 1e-15) and np.all(lower <= curve + 1e-15)


class TestExtractFou:
    def test_perfect_fit_keeps_curves(self):
        cfg = FitConfig()
        h = gaussian_series([(0.9, 120.0, 18.0)])
        fit = fitted(h, cfg)
        curve = np.array([sum(c.a * np.exp(-0.5 * ((g - c.mu) / c.sigma) ** 2)
                              for c in fit.gaussians) for g in GRID])
        fou = extract_fou(curve, fit, cfg)
        assert np.allclose(fou.umf, curve, atol=1e-9)
        assert np.allclose(fou.lmf, curve, atol=1e-9)

    def test_positive_deviations_keep_lower_fit(self):
        cfg = FitConfig()
        h = gaussian_series([(0.9, 120.0, 18.0)])
        fit = fitted(h, cfg)
        curve = np.array([sum(c.a * np.exp(-0.5 * ((g - c.mu) / c.sigma) ** 2)
                              for c in fit.gaussians) for g in GRID])
        bumps = np.zeros(256)
        bumps[60:70] = 0.05
        bumps[140:150] = 0.08
        fou = extract_fou(curve + bumps, fit, cfg)
        # lower bound equals the fit, so the refit has zero gradient and the
        # lower parameters stay exactly at the stage-1 values
        assert [(c.a, c.mu, c.sigma) for c in fou.lmf_fit.gaussians] == [
            (c.a, c.mu, c.sigma) for c in fit.gaussians
        ]
        assert np.allclose(fou.lmf, curve, atol=0.05)
        assert np.all(fou.lmf <= curve + 1e-12)
        assert np.all(fou.umf >= fou.lmf)

    def test_component_counts_preserved(self):
        rng = np.random.default_rng(7)
        cfg = FitConfig(max_iters=4000)
        h = gaussian_series([(0.9, 70.0, 13.0), (0.7, 185.0, 18.0)])
        h = h + rng.uniform(0, 0.03, 256)
        fit = fitted(h, cfg)
        fou = extract_fou(h, fit, cfg)
        assert fou.umf_fit.n_components == fit.n_components
        assert fou.lmf_fit.n_components == fit.n_components

    def test_ordering_enforced_on_noisy_inputs(self):
        rng = np.random.default_rng(8)
        cfg = FitConfig(max_iters=2500)
        for _ in range(4):
            h = gaussian_series([(rng.uniform(0.5, 1.0), rng.uniform(60, 196),
                                  rng.uniform(10, 25))])
            h = h + rng.uniform(0, 0.06, 256)
            fit = fitted(h, cfg)
            fou = extract_fou(h, fit, cfg)
            assert np.all(fou.lmf <= fou.umf + 1e-12)
            assert np.all(fou.lmf >= 0)

    def test_misordered_series_rejected(self):
        cfg = FitConfig(max_iters=100)
        h = gaussian_series([(0.9, 120.0, 18.0)])
        fit = fitted(h, cfg)
        with pytest.raises(ValueError):
            FOU(fit, fit, np.zeros(256), np.ones(256))

    def test_comb_refits_converge_inside_the_budget(self):
        # a comb whose upper refit ran out all 30000 steps at the main fit's
        # step fraction; at the full step both refits pass the convergence test
        counts = np.zeros(256, dtype=np.int64)
        counts[6::13] = 500
        cfg = PipelineConfig()
        fou = build_model(RawHistogram(counts, int(counts.sum())), cfg).fou
        for refit in (fou.umf_fit, fou.lmf_fit):
            assert refit.iterations < cfg.fit.max_iters
            assert not refit.diverged
