import numpy as np
import pytest

from it2hspec.fou import bound_functions, extract_fou
from it2hspec.gaussfit import (
    _DIVERGENCE_RUN,
    _MAX_RESTARTS,
    _TOL,
    _arrays,
    _pack,
    A_MAX,
    A_MIN,
    MU_MAX,
    MU_MIN,
    SIGMA_MAX,
    SIGMA_MIN,
    FitConfig,
    Gaussian1D,
    MixtureFit,
    domain_map,
    eval_mixture,
    fit_mixture,
    heuristic_init,
    mixture_objective,
)
from it2hspec.histogram import RawHistogram, smooth_and_normalize
from tests.conftest import GRID, gaussian_series, sample_mixture_params


def raw_gradient_descent(target, a_init, mu_init, sg_init, rho, max_iters, tol):
    """Reference: the literal update p -= rho * dJ/dp under fit_mixture's policy."""

    def state(a, mu, sg):
        d = GRID[None, :] - mu[:, None]
        e = np.exp(-0.5 * (d / sg[:, None]) ** 2)
        f = a[:, None] * e
        r = f.sum(axis=0) - target
        return d, e, f, r, 0.5 * float(r @ r)

    a, mu, sg = a_init.copy(), mu_init.copy(), sg_init.copy()
    d, e, f, r, j_cur = state(a, mu, sg)
    best = (a.copy(), mu.copy(), sg.copy(), j_cur)
    grow = 0
    restarts = 0
    diverged = False
    for _ in range(max_iters):
        grad_a = e @ r
        w = f * d
        grad_mu = (w @ r) / (sg * sg)
        grad_sg = ((w * d) @ r) / (sg ** 3)
        a = np.clip(a - rho * grad_a, A_MIN, A_MAX)
        mu = np.clip(mu - rho * grad_mu, MU_MIN, MU_MAX)
        sg = np.clip(sg - rho * grad_sg, SIGMA_MIN, SIGMA_MAX)
        d, e, f, r, j_new = state(a, mu, sg)
        if j_new < best[3]:
            best = (a.copy(), mu.copy(), sg.copy(), j_new)
        if abs(j_new - j_cur) < tol and j_new <= best[3] + tol:
            break
        # a step counts toward divergence if it grew, or stalled above the
        # best objective seen (clamped blow-ups plateau instead of growing)
        if j_new > j_cur or (j_new >= j_cur and j_new > best[3]):
            grow += 1
        else:
            grow = 0
        j_cur = j_new
        if grow >= _DIVERGENCE_RUN:
            if restarts >= _MAX_RESTARTS:
                diverged = True
                break
            restarts += 1
            rho *= 0.5
            a, mu, sg = a_init.copy(), mu_init.copy(), sg_init.copy()
            d, e, f, r, j_cur = state(a, mu, sg)
            grow = 0
    return best[0], best[1], best[2], best[3], diverged


def reference_step_direction(d, e, f, r, sg) -> np.ndarray:
    """Reference: the damped Gauss-Newton direction, one numpy call per term."""
    w = f * d
    jt = np.concatenate((e, w / (sg * sg)[:, None], w * d / (sg ** 3)[:, None]))
    jtj = jt @ jt.T
    norms = np.sqrt(np.diag(jtj))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    scaled = inv[:, None] * jtj * inv[None, :] + np.eye(inv.size)
    return inv * np.linalg.solve(scaled, inv * (jt @ r))


def reference_descent(target, a_init, mu_init, sg_init, rho, max_iters, tol):
    """Reference: fit_mixture's descent written plainly, rebuilding the
    Jacobian, bounds and identity every step; the fit must match it bit for
    bit."""
    k = a_init.size
    lo = np.repeat([A_MIN, MU_MIN, SIGMA_MIN], k)
    hi = np.repeat([A_MAX, MU_MAX, SIGMA_MAX], k)
    p_init = np.concatenate((a_init, mu_init, sg_init))

    def state(p):
        a, mu, sg = p[:k], p[k:2 * k], p[2 * k:]
        d = GRID[None, :] - mu[:, None]
        e = np.exp(-0.5 * (d / sg[:, None]) ** 2)
        f = a[:, None] * e
        r = f.sum(axis=0) - target
        return (d, e, f, r, sg), 0.5 * float(r @ r)

    p = p_init.copy()
    terms, j_cur = state(p)
    best_p, best_j = p.copy(), j_cur
    grow = restarts = iterations = 0
    diverged = False
    for iterations in range(1, max_iters + 1):
        p = np.clip(p - rho * reference_step_direction(*terms), lo, hi)
        terms, j_new = state(p)
        if j_new < best_j:
            best_p, best_j = p.copy(), j_new
        if abs(j_new - j_cur) < tol and j_new <= best_j + tol:
            break
        if j_new > j_cur or (j_new >= j_cur and j_new > best_j):
            grow += 1
        else:
            grow = 0
        j_cur = j_new
        if grow >= _DIVERGENCE_RUN:
            if restarts >= _MAX_RESTARTS:
                diverged = True
                break
            restarts += 1
            rho *= 0.5
            p = p_init.copy()
            terms, j_cur = state(p)
            grow = 0
    return (best_p[:k], best_p[k:2 * k], best_p[2 * k:], best_j, diverged, iterations,
            restarts)


def make_fit(*params):
    return MixtureFit([Gaussian1D(a, mu, sigma) for a, mu, sigma in params])


class TestEvalMixture:
    def test_value_at_center_is_height(self):
        fit = make_fit((0.7, 100.0, 12.0))
        assert eval_mixture(fit, 100.0) == pytest.approx(0.7, abs=1e-15)

    def test_value_one_sigma_out(self):
        fit = make_fit((0.7, 100.0, 12.0))
        expected = 0.7 * np.exp(-0.5)
        assert eval_mixture(fit, 112.0) == pytest.approx(expected, abs=1e-15)

    def test_two_components_sum_of_terms(self):
        fit = make_fit((0.6, 80.0, 10.0), (0.9, 180.0, 25.0))
        for g in (0.0, 80.0, 130.0, 180.0, 255.0):
            term1 = 0.6 * np.exp(-0.5 * ((g - 80.0) / 10.0) ** 2)
            term2 = 0.9 * np.exp(-0.5 * ((g - 180.0) / 25.0) ** 2)
            assert abs(eval_mixture(fit, g) - (term1 + term2)) < 1e-12

    def test_array_argument(self):
        fit = make_fit((1.0, 128.0, 20.0))
        values = eval_mixture(fit, GRID)
        assert values.shape == (256,)
        assert values[128] == pytest.approx(1.0)

    def test_sum_dominates_every_component(self):
        rng = np.random.default_rng(9)
        from it2hspec.gaussfit import component_values

        for _ in range(3):
            fit = make_fit(
                (rng.uniform(0.3, 1.0), rng.uniform(20, 90), rng.uniform(5, 25)),
                (rng.uniform(0.3, 1.0), rng.uniform(120, 235), rng.uniform(5, 25)),
            )
            total = eval_mixture(fit, GRID)
            per_component = component_values(fit)
            assert np.all(total >= per_component.max(axis=0) - 1e-15)


class TestHeuristicInit:
    def test_single_gaussian_recovers_one_peak(self):
        h = gaussian_series([(1.0, 128.0, 20.0)])
        init = heuristic_init(h, FitConfig())
        assert init.n_components == 1
        assert abs(init.gaussians[0].mu - 128.0) <= 4.0

    def test_symmetric_bimodal_partition_point(self):
        h = gaussian_series([(1.0, 64.0, 20.0), (1.0, 192.0, 20.0)])
        init = heuristic_init(h, FitConfig())
        assert init.n_components == 2
        assert abs(init.partition_points[0] - 128.0) <= 1.0

    def test_small_secondary_peak_ignored(self):
        h = gaussian_series([(1.0, 80.0, 15.0), (0.05, 200.0, 15.0)])
        init = heuristic_init(h, FitConfig(peak_ignore_ratio=0.1))
        assert init.n_components == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            heuristic_init(np.zeros(256), FitConfig())

    def test_monotone_ramp_falls_back(self):
        h = np.linspace(0.0, 1.0, 256)
        init = heuristic_init(h, FitConfig())
        assert init.n_components == 1
        assert init.gaussians[0].sigma == pytest.approx(32.0)
        assert init.gaussians[0].mu == pytest.approx(255.0)


class TestFitMixture:
    def test_recovers_single_gaussian_within_two_percent(self):
        h = gaussian_series([(0.9, 100.0, 15.0)])
        cfg = FitConfig()
        fit = fit_mixture(h, heuristic_init(h, cfg), cfg)
        assert fit.n_components == 1
        comp = fit.gaussians[0]
        assert abs(comp.a - 0.9) / 0.9 < 0.02
        assert abs(comp.mu - 100.0) / 100.0 < 0.02
        assert abs(comp.sigma - 15.0) / 15.0 < 0.02

    def test_zero_iterations_returns_init(self):
        h = gaussian_series([(0.8, 120.0, 18.0)])
        init = heuristic_init(h, FitConfig())
        out = fit_mixture(h, init, FitConfig(max_iters=0))
        assert [(g.a, g.mu, g.sigma) for g in out.gaussians] == [
            (g.a, g.mu, g.sigma) for g in init.gaussians
        ]
        assert out.final_objective == pytest.approx(mixture_objective(init, h))
        assert (init.iterations, init.restarts) == (0, 0)
        assert (out.iterations, out.restarts) == (0, 0)

    def test_objective_non_increasing_in_budget(self):
        h = gaussian_series([(0.9, 90.0, 14.0), (0.6, 180.0, 22.0)])
        h = h + np.random.default_rng(0).uniform(0, 0.02, 256)
        init = heuristic_init(h, FitConfig())
        objectives = []
        for iters in (0, 20, 100, 400, 2000):
            cfg = FitConfig(max_iters=iters)
            objectives.append(fit_mixture(h, init, cfg).final_objective)
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_final_never_worse_than_init(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            h = gaussian_series([(0.7, 70.0, 12.0), (1.0, 190.0, 25.0)])
            h = h + rng.uniform(0, 0.02, 256)
            cfg = FitConfig(max_iters=500)
            init = heuristic_init(h, cfg)
            fit = fit_mixture(h, init, cfg)
            assert fit.final_objective <= mixture_objective(init, h) + 1e-12

    def test_absurd_rate_sets_divergence_flag(self):
        h = gaussian_series([(1.0, 128.0, 20.0)])
        init = heuristic_init(h, FitConfig())
        fit = fit_mixture(h, init, FitConfig(rho=1e7, max_iters=2000))
        assert fit.diverged
        assert fit.restarts == _MAX_RESTARTS == 5
        assert fit.final_objective <= mixture_objective(init, h) + 1e-12

    def test_default_fit_stops_before_its_budget(self):
        h = gaussian_series([(0.9, 70.0, 14.0), (0.7, 180.0, 18.0)])
        cfg = FitConfig()
        fit = fit_mixture(h, heuristic_init(h, cfg), cfg)
        assert 0 < fit.iterations < cfg.max_iters
        assert fit.restarts == 0 and not fit.diverged

    def test_translation_consistency(self):
        base = [(0.9, 70.0, 13.0), (0.7, 150.0, 16.0)]
        shifted = [(a, mu + 10.0, s) for a, mu, s in base]
        cfg = FitConfig()
        fit_a = fit_mixture(gaussian_series(base),
                            heuristic_init(gaussian_series(base), cfg), cfg)
        fit_b = fit_mixture(gaussian_series(shifted),
                            heuristic_init(gaussian_series(shifted), cfg), cfg)
        for ca, cb in zip(fit_a.gaussians, fit_b.gaussians):
            assert abs((cb.mu - ca.mu) - 10.0) <= 1.0

    @pytest.mark.parametrize("budget", [50, 400, 2000])
    def test_never_worse_than_raw_gradient_descent(self, budget):
        h = gaussian_series([(0.8, 90.0, 14.0), (0.6, 185.0, 20.0)])
        init = make_fit((0.7, 88.0, 20.0), (0.5, 183.0, 28.0))
        cfg = FitConfig(rho=0.02, max_iters=budget)
        fit = fit_mixture(h, init, cfg)
        *_, reference, _ = raw_gradient_descent(
            h, np.array([0.7, 0.5]), np.array([88.0, 183.0]),
            np.array([20.0, 28.0]), cfg.rho, cfg.max_iters, _TOL)
        assert fit.final_objective <= reference


def criterion_3_series():
    rng = np.random.default_rng(20250808)
    return [gaussian_series(sample_mixture_params(rng)) + rng.uniform(0.0, 0.02, 256)
            for _ in range(20)]


def shape_counts(name):
    """Pixel counts shaped like the benchmark's harder histograms."""
    rng = np.random.default_rng(7)
    if name == "band-2":
        counts = gaussian_series([(1.0, 112.0, 5.0), (0.8, 131.0, 6.0)]) * 4000
    elif name == "spike-noise":
        counts = rng.uniform(0, 40, 256)
        counts[rng.choice(256, 6, replace=False)] += rng.uniform(2000, 9000, 6)
    elif name == "sparse-levels":
        counts = np.zeros(256)
        counts[5::17] = rng.uniform(200, 1000, counts[5::17].size)
    else:  # edge-mass
        counts = gaussian_series([(1.0, 140.0, 30.0)]) * 500
        counts[[0, 255]] += (20000, 12000)
    counts = np.round(counts).astype(np.int64)
    return RawHistogram(counts, int(counts.sum()))


class TestMatchesReferenceDescent:
    """The fit reproduces reference_descent's iterates exactly: parameters,
    objective, iteration and restart counts and the divergence flag."""

    @staticmethod
    def assert_matches_reference(target, start, cfg):
        fit = fit_mixture(target, start, cfg)
        reference = _pack(*reference_descent(
            target, *_arrays(start), cfg.rho, cfg.max_iters, _TOL))
        assert fit == reference
        return fit

    @pytest.mark.parametrize("index", range(20))
    def test_criterion_3_corpus(self, index):
        series = criterion_3_series()[index]
        cfg = FitConfig()
        self.assert_matches_reference(series, heuristic_init(series, cfg), cfg)

    @pytest.mark.parametrize("shape", ["band-2", "spike-noise", "sparse-levels",
                                       "edge-mass"])
    def test_benchmark_shapes_fit_and_both_refits(self, shape):
        smoothed = smooth_and_normalize(shape_counts(shape), 5)
        cfg = FitConfig()
        fit = self.assert_matches_reference(smoothed.h, heuristic_init(smoothed, cfg),
                                            cfg)
        fou = extract_fou(smoothed, fit, cfg)
        # the refits take the full step whatever cfg.rho is
        for refit, bound in zip((fou.umf_fit, fou.lmf_fit),
                                bound_functions(smoothed, fit)):
            assert refit == _pack(*reference_descent(
                bound, *_arrays(fit), 1.0, cfg.max_iters, _TOL))

    @pytest.mark.parametrize("rho, params, noise, restarts, diverged, iterations", [
        (10.0, [(1.0, 128.0, 20.0)], 0.0, 2, False, 70),
        (1e7, [(1.0, 128.0, 20.0)], 0.0, _MAX_RESTARTS, True, 120),
        (5.0, [(0.9, 70.0, 14.0), (0.7, 180.0, 18.0)], 0.02, 0, False, 2000),
    ], ids=["restarts", "diverges", "budget"])
    def test_large_rho_restart_and_divergence_paths(self, rho, params, noise, restarts,
                                                    diverged, iterations):
        h = gaussian_series(params) + np.random.default_rng(0).uniform(0, noise, 256)
        cfg = FitConfig(rho=rho, max_iters=2000)
        fit = self.assert_matches_reference(h, heuristic_init(h, FitConfig()), cfg)
        assert (fit.restarts, fit.diverged, fit.iterations) == (restarts, diverged,
                                                                iterations)


class TestReachesAndDomain:
    def test_single_component_spans_everything(self):
        fit = make_fit((1.0, 128.0, 20.0))
        assert fit.reaches == [(0, 255)]

    def test_symmetric_pair_crosses_at_midpoint(self):
        fit = make_fit((1.0, 64.0, 20.0), (1.0, 192.0, 20.0))
        assert fit.reaches == [(0, 128), (128, 255)]

    def test_unequal_heights_match_argmax_scan(self):
        fit = make_fit((1.0, 64.0, 30.0), (0.5, 192.0, 30.0))
        f1 = 1.0 * np.exp(-0.5 * ((GRID - 64.0) / 30.0) ** 2)
        f2 = 0.5 * np.exp(-0.5 * ((GRID - 192.0) / 30.0) ** 2)
        switch = int(np.flatnonzero(f2 >= f1)[0])
        assert fit.reaches[0][1] == switch
        assert fit.reaches[1][0] == switch
        # equal-value crossing solved analytically
        analytic = (1800.0 * np.log(2.0) + 192.0 ** 2 - 64.0 ** 2) / (2 * (192.0 - 64.0))
        assert abs(switch - analytic) <= 1.0

    def test_domain_minimum_index_rule(self):
        fit = make_fit((1.0, 64.0, 20.0), (1.0, 192.0, 20.0))
        assert domain_map(fit)[64] == 0
        assert domain_map(fit)[128] == 0
        assert domain_map(fit)[129] == 1

    def test_domain_exhaustive_consistency(self):
        fit = make_fit((0.9, 40.0, 9.0), (1.0, 120.0, 30.0), (0.45, 220.0, 14.0))
        dom = domain_map(fit)
        for g in range(256):
            i = int(dom[g])
            start, end = fit.reaches[i]
            assert start <= g <= end
            for smaller in range(i):
                s, e = fit.reaches[smaller]
                assert not (s <= g <= e) or e == g == start

    def test_reaches_tile_with_shared_endpoints(self):
        fit = make_fit((0.9, 40.0, 9.0), (1.0, 120.0, 30.0), (0.45, 220.0, 14.0))
        assert fit.reaches[0][0] == 0
        assert fit.reaches[-1][1] == 255
        for (_, end), (start, _) in zip(fit.reaches, fit.reaches[1:]):
            assert end == start

    def test_partition_points_interleave_centers(self):
        h = gaussian_series([(0.9, 50.0, 12.0), (0.8, 130.0, 14.0), (0.7, 210.0, 12.0)])
        cfg = FitConfig(max_iters=3000)
        fit = fit_mixture(h, heuristic_init(h, cfg), cfg)
        mus = [g.mu for g in fit.gaussians]
        pps = fit.partition_points
        assert len(pps) == len(mus) - 1
        for left, pp, right in zip(mus, pps, mus[1:]):
            assert left < pp < right
        assert all(b > a for a, b in zip(pps, pps[1:]))


class TestConfigValidation:
    def test_bad_fit_config(self):
        with pytest.raises(ValueError):
            FitConfig(rho=0.0)
        with pytest.raises(ValueError):
            FitConfig(peak_ignore_ratio=1.0)

    def test_bad_gaussian(self):
        with pytest.raises(ValueError):
            Gaussian1D(0.0, 100.0, 10.0)
        with pytest.raises(ValueError):
            Gaussian1D(1.0, 300.0, 10.0)
        with pytest.raises(ValueError):
            Gaussian1D(1.0, 100.0, 0.1)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            MixtureFit([])

    def test_unsorted_components_rejected(self):
        with pytest.raises(ValueError):
            MixtureFit([Gaussian1D(1.0, 200.0, 10.0), Gaussian1D(1.0, 100.0, 10.0)])
