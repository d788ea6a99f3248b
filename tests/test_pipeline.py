import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import it2hspec.cli
import it2hspec.pipeline
from it2hspec.gaussfit import FitConfig
from it2hspec.histogram import compute_histogram, to_probability
from it2hspec.hspec import apply_map, equalize_map, rmshe
from it2hspec.imagio import GrayImage
from it2hspec.membership import KMMembershipValues
from it2hspec.metrics import aic
from it2hspec.pipeline import (
    METHODS,
    PipelineConfig,
    PipelineStageError,
    run_compare,
    run_enhance,
)
from tests.conftest import population_image

LIGHT_FIT = FitConfig(max_iters=800)


def light_cfg(method):
    return PipelineConfig(method, fit=LIGHT_FIT)


def oracle_images():
    """Seeded bimodal images plus the degenerate shapes, one param each."""
    rng = np.random.default_rng(21)
    images = [pytest.param(population_image(
        rng, [(0.6, 90.0 + 10 * i, 12.0), (0.4, 170.0, 14.0)], size=64, bg_frac=0.1),
        id=f"bimodal-{i}") for i in range(3)]
    spike = np.concatenate([np.zeros(1200, int), np.full(1200, 255),
                            np.clip(rng.normal(128, 20, 1696), 0, 255).astype(int)])
    images += [
        pytest.param(GrayImage(16, 16, np.full(256, 93)), id="constant"),
        pytest.param(GrayImage(1, 1, np.array([128])), id="one-pixel"),
        pytest.param(GrayImage(16, 16, np.repeat([40, 200], 128)), id="two-level"),
        pytest.param(GrayImage(64, 64, rng.permutation(spike)), id="spike-0-255"),
        pytest.param(GrayImage(64, 64, 17 * rng.integers(0, 16, 4096)), id="sparse-levels"),
    ]
    return images


def pixel_path_aic(img, level_map):
    """Output entropy the slow way: remap every pixel, then histogram."""
    return aic(to_probability(compute_histogram(apply_map(img, level_map))))


class TestRunEnhance:
    def test_constant_image_degenerates_gracefully(self):
        img = GrayImage(16, 16, np.full(256, 93))
        result = run_enhance(img, light_cfg("area"))
        assert result.aic_in == 0.0
        assert result.aic_out == 0.0
        assert len(np.unique(result.enhanced.pixels)) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_membership_matches_equalization(self, method):
        rng = np.random.default_rng(10)
        img = GrayImage(64, 64, rng.integers(0, 256, 4096))
        result = run_enhance(img, light_cfg(method), mv_override=0.0)
        he = apply_map(img, equalize_map(to_probability(compute_histogram(img))))
        assert np.max(np.abs(result.enhanced.pixels.astype(int)
                             - he.pixels.astype(int))) <= 1

    def test_low_contrast_bimodal_widens_support(self):
        rng = np.random.default_rng(11)
        img = population_image(rng, [(0.5, 90.0, 10.0), (0.5, 140.0, 10.0)])
        result = run_enhance(img, PipelineConfig("area"))
        in_counts = compute_histogram(img).counts
        out_counts = compute_histogram(result.enhanced).counts
        in_support = np.flatnonzero(in_counts)
        out_support = np.flatnonzero(out_counts)
        assert (out_support[-1] - out_support[0]) > (in_support[-1] - in_support[0])
        # a deterministic level map can only merge levels, never split them
        assert result.aic_out <= result.aic_in + 1e-12
        assert result.aic_out > 0.9 * result.aic_in

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        img = population_image(rng, [(1.0, 120.0, 14.0)])
        first = run_enhance(img, light_cfg("km"))
        second = run_enhance(img, light_cfg("km"))
        assert np.array_equal(first.enhanced.pixels, second.enhanced.pixels)
        assert np.array_equal(first.desired_pdf.p, second.desired_pdf.p)
        assert first.aic_out == second.aic_out

    def test_reported_aic_matches_recomputation(self):
        rng = np.random.default_rng(13)
        img = population_image(rng, [(1.0, 110.0, 16.0)])
        result = run_enhance(img, light_cfg("cow"))
        again_in = aic(to_probability(compute_histogram(img)))
        again_out = aic(to_probability(compute_histogram(result.enhanced)))
        assert abs(result.aic_in - again_in) < 1e-12
        assert abs(result.aic_out - again_out) < 1e-12

    def test_intermediates_have_256_entries(self):
        rng = np.random.default_rng(14)
        img = population_image(rng, [(1.0, 130.0, 18.0)])
        result = run_enhance(img, light_cfg("km"))
        assert result.raw_hist.counts.size == 256
        assert result.smoothed.h.size == 256
        assert result.fou.umf.size == 256
        assert result.fou.lmf.size == 256
        assert result.desired_pdf.p.size == 256
        assert result.level_map.values.size == 256
        assert isinstance(result.mv, KMMembershipValues)
        assert result.mv.mv.size == 256

    def test_stage_errors_are_tagged(self, monkeypatch):
        rng = np.random.default_rng(15)
        img = population_image(rng, [(1.0, 120.0, 15.0)])

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("it2hspec.pipeline.heuristic_init", boom)
        with pytest.raises(PipelineStageError) as err:
            run_enhance(img, light_cfg("area"))
        assert err.value.stage == "initialization"
        assert "initialization" in str(err.value)

    def test_divergent_fit_is_noted(self):
        rng = np.random.default_rng(16)
        img = population_image(rng, [(1.0, 120.0, 15.0)])
        cfg = PipelineConfig("area", fit=FitConfig(rho=1e7, max_iters=500))
        result = run_enhance(img, cfg)
        assert any("divergent" in note for note in result.warnings)


class TestRunCompare:
    def test_report_shape(self):
        rng = np.random.default_rng(17)
        img = population_image(rng, [(1.0, 115.0, 13.0)])
        report = run_compare(img, PipelineConfig(fit=LIGHT_FIT))
        assert set(report.methods) == {"he", "rmshe", *METHODS}
        assert set(report.timings_ms) == {"he", "rmshe", "model", *METHODS}
        assert report.timings_ms["model"] > 0
        assert report.input_aic > 0
        assert not report.errors

    def test_he_entry_cross_check(self):
        rng = np.random.default_rng(18)
        img = population_image(rng, [(1.0, 125.0, 15.0)])
        report = run_compare(img, PipelineConfig(fit=LIGHT_FIT))
        he = apply_map(img, equalize_map(to_probability(compute_histogram(img))))
        independent = aic(to_probability(compute_histogram(he)))
        assert abs(report.methods["he"] - independent) < 1e-12

    def test_method_errors_recorded_without_aborting(self, monkeypatch):
        rng = np.random.default_rng(19)
        img = population_image(rng, [(1.0, 125.0, 15.0)])

        def boom(*args, **kwargs):
            raise RuntimeError("no footprint today")

        monkeypatch.setattr("it2hspec.pipeline.extract_fou", boom)
        report = run_compare(img, PipelineConfig(fit=LIGHT_FIT))
        assert set(report.errors) == set(METHODS)
        assert "he" in report.methods and "rmshe" in report.methods

    def test_compare_matches_standalone_runs(self):
        rng = np.random.default_rng(20)
        img = population_image(rng, [(0.6, 90.0, 12.0), (0.4, 170.0, 14.0)])
        report = run_compare(img, PipelineConfig(fit=LIGHT_FIT))
        for method in METHODS:
            standalone = run_enhance(img, light_cfg(method))
            assert report.methods[method] == standalone.aic_out

    def test_pixels_are_histogrammed_once(self, monkeypatch):
        rng = np.random.default_rng(22)
        img = population_image(rng, [(0.6, 90.0, 12.0), (0.4, 170.0, 14.0)], size=64)
        calls = []

        def counting(image):
            calls.append(image)
            return compute_histogram(image)

        monkeypatch.setattr("it2hspec.pipeline.compute_histogram", counting)
        report = run_compare(img, PipelineConfig(fit=LIGHT_FIT))
        assert not report.errors
        assert len(calls) == 1


@pytest.mark.parametrize("img", oracle_images())
def test_entropies_equal_pixel_path_exactly(img):
    report = run_compare(img, PipelineConfig(fit=LIGHT_FIT))
    assert not report.errors
    raw = compute_histogram(img)
    assert report.methods["he"] == pixel_path_aic(img, equalize_map(to_probability(raw)))
    assert report.methods["rmshe"] == pixel_path_aic(img, rmshe(raw, 2))
    for method in METHODS:
        result = run_enhance(img, light_cfg(method))
        expected = pixel_path_aic(img, result.level_map)
        assert result.aic_out == expected
        assert report.methods[method] == expected


def test_benchmark_trace_names_resolve():
    """perfbench/layers.py rebinds these names by getattr; a rename would
    otherwise show only as every benchmark operation failing."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module, calls in ((it2hspec.pipeline, layers.PIPELINE_CALLS),
                          (it2hspec.cli, layers.CLI_CALLS)):
        missing = [name for name in calls if not callable(getattr(module, name, None))]
        assert not missing, f"{module.__name__} lacks {missing}"
    table = getattr(it2hspec.pipeline, layers.PIPELINE_MEMBERSHIP_TABLE)
    assert set(table) == set(METHODS) - {"km"}
    assert all(callable(fn) for fn in table.values())


def test_benchmark_worker_imports_resolve():
    """perfbench/worker.py imports these names from it2hspec at start-up; an
    export trimmed from the package would otherwise fail every benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    imports = [node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "it2hspec"]
    assert any(node.module == "it2hspec" for node in imports)
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{node.module} lacks {missing}"


class TestPipelineConfig:
    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig("median")

    def test_bad_fuzzifier_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig("km", fuzzifier=1.0)
