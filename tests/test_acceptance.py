"""Acceptance harness: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with -s to watch them live)."""

import json
import time

import numpy as np

from it2hspec.cli import main
from it2hspec.fou import FOU, extract_fou
from it2hspec.gaussfit import (
    FitConfig,
    Gaussian1D,
    MixtureFit,
    fit_mixture,
    heuristic_init,
)
from it2hspec.histogram import (
    ProbabilityHistogram,
    compute_histogram,
    smooth_and_normalize,
    to_probability,
)
from it2hspec.hspec import apply_map, equalize_map, specify_map
from it2hspec.imagio import load_image, save_image
from it2hspec.membership import (
    km_boundary_centroid,
    mv_area,
    mv_center_of_weights,
    mv_km,
    mv_pointwise,
)
from it2hspec.metrics import aic
from it2hspec.pipeline import METHODS, PipelineConfig, run_compare, run_enhance
from tests.conftest import (
    gaussian_series,
    low_contrast_corpus,
    population_image,
    random_image,
    sample_mixture_params,
)

IT2_FN = {"pointwise": mv_pointwise, "cow": mv_center_of_weights, "area": mv_area}


def report(number, name, ok, details):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {details}")


def match_components(params, fit):
    """Each known component must have a fitted neighbour within tolerance;
    leftover fitted components must be negligible."""
    comps = list(fit.gaussians)
    used = set()
    for a, mu, sigma in params:
        candidates = sorted(
            (abs(c.mu - mu), i) for i, c in enumerate(comps) if i not in used
        )
        if not candidates:
            return False
        distance, i = candidates[0]
        comp = comps[i]
        used.add(i)
        if (distance > 3.0 or abs(comp.a - a) / a > 0.1
                or abs(comp.sigma - sigma) / sigma > 0.1):
            return False
    return all(c.a < 0.05 for i, c in enumerate(comps) if i not in used)


def test_criterion_1_uniform_pdf_degenerates_to_equalization():
    rng = np.random.default_rng(101)
    cfg_fit = FitConfig(max_iters=250)
    start = time.perf_counter()
    worst = 0
    for i in range(10):
        img = random_image(rng)
        method = METHODS[i % len(METHODS)]
        result = run_enhance(img, PipelineConfig(method, fit=cfg_fit),
                             mv_override=0.0)
        he = apply_map(img, equalize_map(to_probability(compute_histogram(img))))
        gap = int(np.max(np.abs(result.enhanced.pixels.astype(int)
                                - he.pixels.astype(int))))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1 and elapsed < 1.0
    report(1, "uniform-PDF degeneration", ok,
           f"max pixel gap {worst} (<=1), runtime {elapsed:.3f}s (<1s)")
    assert worst <= 1
    assert elapsed < 1.0


def test_criterion_2_entropy_anchors():
    uniform = aic(ProbabilityHistogram(np.full(256, 1.0 / 256.0)))
    delta = np.zeros(256)
    delta[3] = 1.0
    delta_aic = aic(ProbabilityHistogram(delta))
    half = np.zeros(256)
    half[[0, 255]] = 0.5
    half_aic = aic(ProbabilityHistogram(half))
    ok = uniform == 8.0 and delta_aic == 0.0 and half_aic == 1.0
    report(2, "entropy anchors", ok,
           f"uniform {uniform}, delta {delta_aic}, two-level {half_aic} (exact)")
    assert uniform == 8.0
    assert delta_aic == 0.0
    assert half_aic == 1.0


def test_criterion_3_mixture_recovery():
    rng = np.random.default_rng(20250808)
    cfg = FitConfig()
    start = time.perf_counter()
    recovered = 0
    for _ in range(20):
        params = sample_mixture_params(rng)
        series = gaussian_series(params) + rng.uniform(0.0, 0.02, 256)
        fit = fit_mixture(series, heuristic_init(series, cfg), cfg)
        recovered += match_components(params, fit)
    elapsed = time.perf_counter() - start
    ok = recovered >= 18 and elapsed < 5.0
    report(3, "mixture recovery", ok,
           f"{recovered}/20 within mu±3, a/sigma 10% (>=18), "
           f"runtime {elapsed:.2f}s (<5s)")
    assert recovered >= 18
    assert elapsed < 5.0


def power_centroid(x, u, m):
    w = u ** m
    return float(w @ x) / float(w.sum())


def switch_centroids(x, upper, lower, m, side):
    out = []
    for k in range(1, x.size):
        if side == "right":
            u = np.concatenate((lower[:k], upper[k:]))
        else:
            u = np.concatenate((upper[:k], lower[k:]))
        out.append(power_centroid(x, u, m))
    return out


def test_criterion_4_km_matches_exhaustive_enumeration():
    rng = np.random.default_rng(404)
    anchor = MixtureFit([Gaussian1D(1.0, 128.0, 20.0)])
    worst = 0.0
    worst_degenerate = 0.0
    for case in range(50):
        start = int(rng.integers(0, 240))
        end = start + int(rng.integers(2, 16))
        upper = rng.uniform(0.05, 1.0, 256)
        lower = upper * rng.uniform(0.2, 1.0, 256)
        degenerate = case % 5 == 0
        if degenerate:
            lower = upper.copy()
        fou = FOU(anchor, anchor, upper, lower)
        x = np.arange(start, end + 1, dtype=float)
        seg_u, seg_l = upper[start:end + 1], lower[start:end + 1]
        v_r = km_boundary_centroid(fou, start, end, 2.0, "right")
        v_l = km_boundary_centroid(fou, start, end, 2.0, "left")
        assert v_l <= v_r + 1e-12
        if degenerate:
            plain = power_centroid(x, seg_u, 2.0)
            worst_degenerate = max(worst_degenerate, abs(v_r - plain),
                                   abs(v_l - plain))
        else:
            best_r = max(switch_centroids(x, seg_u, seg_l, 2.0, "right"))
            best_l = min(switch_centroids(x, seg_u, seg_l, 2.0, "left"))
            worst = max(worst, abs(v_r - best_r), abs(v_l - best_l))
    ok = worst < 1e-6 and worst_degenerate < 1e-9
    report(4, "Karnik-Mendel oracle equivalence", ok,
           f"max switch-point gap {worst:.2e} (<1e-6), "
           f"degenerate gap {worst_degenerate:.2e} (<1e-9)")
    assert worst < 1e-6
    assert worst_degenerate < 1e-9


def stage_outputs(img, cfg):
    raw = compute_histogram(img)
    smoothed = smooth_and_normalize(raw, cfg.window)
    fit = fit_mixture(smoothed, heuristic_init(smoothed, cfg.fit), cfg.fit)
    fou = extract_fou(smoothed, fit, cfg.fit)
    return raw, smoothed, fit, fou


def test_criterion_5_pdf_validity():
    from it2hspec.pdfgen import defuzzify_mean, finalize_pdf, raw_pdf_it2, raw_pdf_km

    rng = np.random.default_rng(505)
    cfg = PipelineConfig(fit=FitConfig(max_iters=4000))
    worst_sum = 0.0
    worst_raw = 0.0
    checked = 0
    for _ in range(10):
        k = int(rng.integers(1, 4))
        modes = [(rng.uniform(0.3, 1.0), rng.uniform(50, 205), rng.uniform(9, 25))
                 for _ in range(k)]
        img = population_image(rng, modes, bg_frac=float(rng.uniform(0.05, 0.2)))
        raw, smoothed, fit, fou = stage_outputs(img, cfg)
        raws = []
        for method in METHODS:
            if method == "km":
                km = mv_km(fou, fit.partition_points, cfg.fuzzifier)
                raw_pdf = raw_pdf_km(km)
            else:
                fn = IT2_FN[method]
                upper = raw_pdf_it2(fn(fou.umf_fit, smoothed), fou.umf_fit,
                                    "it2_upper")
                lower = raw_pdf_it2(fn(fou.lmf_fit, smoothed), fou.lmf_fit,
                                    "it2_lower")
                raw_pdf = defuzzify_mean(upper, lower)
            raws.append(raw_pdf)
            desired = finalize_pdf(raw_pdf)
            assert desired.p.min() >= 0.0
            worst_sum = max(worst_sum, abs(float(desired.p.sum()) - 1.0))
            worst_raw = max(worst_raw, float(np.max(np.abs(raw_pdf.values - 255.0))))
            checked += 1
    ok = worst_sum < 1e-9 and worst_raw <= 512.0
    report(5, "PDF validity", ok,
           f"{checked} method-image PDFs, max |sum-1| {worst_sum:.2e} (<1e-9), "
           f"max |P-255| {worst_raw:.1f} (<=512)")
    assert checked == 40
    assert worst_sum < 1e-9
    assert worst_raw <= 512.0


def test_criterion_6_map_monotonicity():
    rng = np.random.default_rng(606)
    cfg = PipelineConfig(fit=FitConfig(max_iters=2500))
    checked = 0
    for _ in range(6):
        img = population_image(
            rng, [(1.0, rng.uniform(70, 185), rng.uniform(10, 22))],
            bg_frac=float(rng.uniform(0.0, 0.3)))
        p_in = to_probability(compute_histogram(img))
        maps = [equalize_map(p_in)]
        for method in METHODS:
            result = run_enhance(img, PipelineConfig(method, fit=cfg.fit))
            maps.append(result.level_map)
            maps.append(specify_map(p_in, result.desired_pdf))
        for level_map in maps:
            assert level_map.values.size == 256
            assert np.all(np.diff(level_map.values) >= 0)
            checked += 1
    report(6, "map monotonicity", True,
           f"{checked} level maps monotone over all 256 entries")


def test_criterion_7_directional_table_reproduction():
    """Directional substitute for the published comparison table.

    Clause A: each proposed method within 0.05 bits of equalization on at
    least 8 of 10 low-contrast images. Clause B: the per-image best
    proposed method improves on equalization on average. The published
    ~11.5% mean improvement is informational only.
    """
    rng = np.random.default_rng(20250808)
    corpus = low_contrast_corpus(rng)
    counts = {method: 0 for method in METHODS}
    best_rels = []
    for img in corpus:
        rep = run_compare(img, PipelineConfig())
        assert not rep.errors
        he = rep.methods["he"]
        for method in METHODS:
            counts[method] += rep.methods[method] >= he - 0.05
        best = max(rep.methods[method] for method in METHODS)
        best_rels.append((best - he) / he)
    mean_rel = float(np.mean(best_rels))
    clause_a = all(count >= 8 for count in counts.values())
    clause_b = mean_rel > 0.0
    report(7, "directional comparison vs HE", clause_a and clause_b,
           f"clause A counts {counts} (each >=8/10): "
           f"{'PASS' if clause_a else 'FAIL'}; "
           f"clause B mean best relative improvement {mean_rel:+.5f} (>0): "
           f"{'PASS' if clause_b else 'FAIL'}; "
           f"published reference mean is ~+11.5% (informational, not gated)")
    assert clause_a, f"per-method within-0.05 counts {counts}"
    # Every method here is a per-level map, which can only merge levels, so
    # no output carries more entropy than the input. Equalization loses
    # only 0.04-0.09 bits on this corpus, which caps any method at about
    # +0.7% to +1.4% over HE per image; the published +11.5% is out of
    # reach of any gray-level map under this metric. Asserted as specified.
    assert clause_b, (
        f"mean relative improvement of the per-image best method is "
        f"{mean_rel:+.5f}; a per-level map cannot raise entropy above the "
        f"input's, and HE already keeps all but 0.04-0.09 bits of it here, "
        f"while the generated PDFs favour sparse levels far from the peaks "
        f"and merge more levels than HE does")


def test_criterion_8_cli_determinism(tmp_path):
    rng = np.random.default_rng(808)
    img = population_image(rng, [(1.0, 120.0, 16.0)], size=96)
    source = tmp_path / "in.pgm"
    save_image(img, source)
    outputs = []
    reports = []
    for run in range(2):
        out = tmp_path / f"out{run}.pgm"
        rep = tmp_path / f"rep{run}.json"
        code = main([
            "enhance", "--input", str(source), "--output", str(out),
            "--method", "km", "--iters", "2000", "--report", str(rep),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
        parsed = json.loads(rep.read_text())
        parsed.pop("ms")
        parsed["output"] = ""
        reports.append(parsed)
    ok = outputs[0] == outputs[1] and reports[0] == reports[1]
    report(8, "CLI determinism", ok,
           "two identical runs -> byte-identical image and report (modulo ms)")
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]


def test_criterion_9_end_to_end_performance(tmp_path):
    rng = np.random.default_rng(909)
    img = population_image(
        rng, [(0.6, 100.0, 14.0), (0.4, 165.0, 18.0)], size=512, bg_frac=0.1)
    source = tmp_path / "big.pgm"
    save_image(img, source)
    out = tmp_path / "big_out.pgm"
    start = time.perf_counter()
    code = main(["enhance", "--input", str(source), "--output", str(out),
                 "--method", "km"])
    elapsed = time.perf_counter() - start
    ok = code == 0 and elapsed < 2.0
    report(9, "512x512 end-to-end performance", ok,
           f"default-config enhance took {elapsed:.3f}s (<2s)")
    assert code == 0
    assert elapsed < 2.0
    assert load_image(out).pixels.size == 512 * 512


def test_criterion_10_compare_cross_check():
    rng = np.random.default_rng(1010)
    img = population_image(rng, [(1.0, 135.0, 15.0)], bg_frac=0.1)
    rep = run_compare(img, PipelineConfig(fit=FitConfig(max_iters=2500)))
    he = apply_map(img, equalize_map(to_probability(compute_histogram(img))))
    independent = aic(to_probability(compute_histogram(he)))
    gap = abs(rep.methods["he"] - independent)
    ok = gap < 1e-12
    report(10, "compare HE cross-check", ok,
           f"|report - independent| = {gap:.2e} (<1e-12)")
    assert gap < 1e-12
