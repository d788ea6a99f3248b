import json

import numpy as np
import pytest

from it2hspec.cli import main
from it2hspec.imagio import load_image, save_image
from tests.conftest import population_image

FAST = ["--iters", "600"]


@pytest.fixture
def sample_pgm(tmp_path):
    rng = np.random.default_rng(0)
    img = population_image(rng, [(1.0, 120.0, 16.0)], size=64)
    path = tmp_path / "in.pgm"
    save_image(img, path)
    return path


def enhance_args(sample_pgm, tmp_path, method="km", extra=()):
    return [
        "enhance",
        "--input", str(sample_pgm),
        "--output", str(tmp_path / "out.pgm"),
        "--method", method,
        *FAST,
        *extra,
    ]


class TestEnhanceCommand:
    def test_happy_path_writes_output_and_report(self, sample_pgm, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(enhance_args(sample_pgm, tmp_path,
                                 extra=["--report", str(report_path)]))
        assert code == 0
        out = load_image(tmp_path / "out.pgm")
        assert (out.width, out.height) == (64, 64)
        report = json.loads(report_path.read_text())
        assert {"aic_in", "aic_out", "method", "config", "ms"} <= set(report)
        assert report["method"] == "km"

    def test_unknown_method_is_usage_error(self, sample_pgm, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(enhance_args(sample_pgm, tmp_path, method="sharpen"))
        assert err.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["enhance", "--input", "x.pgm"])
        assert err.value.code == 2

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main([
            "enhance", "--input", str(tmp_path / "nope.pgm"),
            "--output", str(tmp_path / "out.pgm"), "--method", "area",
        ])
        assert code == 1
        assert capsys.readouterr().err

    def test_corrupt_input_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        code = main([
            "enhance", "--input", str(bad),
            "--output", str(tmp_path / "out.pgm"), "--method", "area",
        ])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_export_dir_interval_method(self, sample_pgm, tmp_path):
        export = tmp_path / "series"
        code = main(enhance_args(sample_pgm, tmp_path, method="area",
                                 extra=["--export-dir", str(export)]))
        assert code == 0
        names = sorted(p.name for p in export.iterdir())
        assert names == sorted([
            "histogram.csv", "smoothed.csv", "mixture.csv",
            "umf.csv", "lmf.csv", "mv_upper.csv", "mv_lower.csv", "pdf.csv",
        ])
        for name in names:
            lines = (export / name).read_text().splitlines()
            assert len(lines) == 257

    def test_export_dir_km_method(self, sample_pgm, tmp_path):
        export = tmp_path / "series"
        code = main(enhance_args(sample_pgm, tmp_path, method="km",
                                 extra=["--export-dir", str(export)]))
        assert code == 0
        names = sorted(p.name for p in export.iterdir())
        assert names == sorted([
            "histogram.csv", "smoothed.csv", "mixture.csv",
            "umf.csv", "lmf.csv", "mv_km.csv", "pdf.csv",
        ])

    def test_deterministic_outputs(self, sample_pgm, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        out1, out2 = tmp_path / "o1.pgm", tmp_path / "o2.pgm"
        for out, rep in ((out1, r1), (out2, r2)):
            code = main([
                "enhance", "--input", str(sample_pgm), "--output", str(out),
                "--method", "area", *FAST, "--report", str(rep),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        a.pop("ms"), b.pop("ms")
        a["output"] = b["output"] = ""
        assert a == b


class TestCompareCommand:
    def test_three_images_report(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        for i in range(3):
            img = population_image(rng, [(1.0, 110.0 + 10 * i, 14.0)], size=64)
            path = tmp_path / f"img{i}.pgm"
            save_image(img, path)
            paths.append(str(path))
        report_path = tmp_path / "cmp.json"
        code = main(["compare", "--input", *paths, "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["images"]) == 3
        assert "summary" in report
        for entry in report["images"]:
            assert {"he", "rmshe", "pointwise", "cow", "area", "km"} <= set(
                entry["methods"])
            assert "input_aic" in entry

    def test_model_time_reported_within_image_time(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "img.pgm"
        save_image(population_image(rng, [(1.0, 118.0, 14.0)], size=64), path)
        report_path = tmp_path / "cmp.json"
        assert main(["compare", "--input", str(path),
                     "--report", str(report_path)]) == 0
        entry = json.loads(report_path.read_text())["images"][0]
        assert 0 < entry["model_ms"] <= entry["ms"]

    def test_summary_matches_recomputation(self, tmp_path):
        rng = np.random.default_rng(2)
        paths = []
        for i in range(2):
            img = population_image(rng, [(1.0, 120.0 + 15 * i, 15.0)], size=64)
            path = tmp_path / f"img{i}.pgm"
            save_image(img, path)
            paths.append(str(path))
        report_path = tmp_path / "cmp.json"
        assert main(["compare", "--input", *paths,
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        rels = []
        for entry in report["images"]:
            methods = entry["methods"]
            he = methods["he"]["aic"]
            best = max(methods[m]["aic"] for m in ("pointwise", "cow", "area", "km"))
            rels.append((best - he) / he)
        expected = sum(rels) / len(rels)
        assert report["summary"]["mean_rel_improvement_vs_he"] == pytest.approx(
            expected, abs=1e-12)

    def test_partial_failure_keeps_going(self, tmp_path):
        rng = np.random.default_rng(3)
        good = tmp_path / "good.pgm"
        save_image(population_image(rng, [(1.0, 120.0, 15.0)], size=64), good)
        report_path = tmp_path / "cmp.json"
        code = main(["compare", "--input", str(good), str(tmp_path / "gone.pgm"),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["images"]) == 2
        assert "error" in report["images"][1]

    def test_all_failures_exit_one(self, tmp_path, capsys):
        report_path = tmp_path / "cmp.json"
        code = main(["compare", "--input", str(tmp_path / "a.pgm"),
                     str(tmp_path / "b.pgm"), "--report", str(report_path)])
        assert code == 1

    def test_json_preserves_aic_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "img.pgm"
        save_image(population_image(rng, [(1.0, 125.0, 14.0)], size=64), path)
        report_path = tmp_path / "cmp.json"
        assert main(["compare", "--input", str(path),
                     "--report", str(report_path)]) == 0
        entry = json.loads(report_path.read_text())["images"][0]
        value = entry["methods"]["km"]["aic"]
        assert value == float(repr(value))
        assert len(repr(value).replace(".", "").lstrip("0")) >= 9
