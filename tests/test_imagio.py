import csv

import numpy as np
import pytest

from it2hspec.imagio import (
    GrayImage,
    PGMFormatError,
    SeriesExport,
    export_series,
    load_image,
    save_image,
)


class TestGrayImage:
    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            GrayImage(2, 2, np.array([1, 2, 3]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(1, 2, np.array([0, 256]))

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError):
            GrayImage(0, 2, np.array([], dtype=int))

    def test_stores_uint8(self):
        img = GrayImage(2, 1, np.array([0, 255], dtype=np.int64))
        assert img.pixels.dtype == np.uint8

    def test_never_aliases_the_callers_array(self):
        px = np.array([3, 4, 5, 6], dtype=np.uint8)
        img = GrayImage(2, 2, px)
        px[0] = 99
        assert img.pixels.tolist() == [3, 4, 5, 6]


class TestLoadImage:
    def test_decodes_small_p5(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255]))
        img = load_image(path)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [0, 85, 170, 255]
        assert img.pixels.flags.owndata and img.pixels.flags.writeable

    def test_skips_header_comments(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x07")
        assert load_image(path).pixels.tolist() == [7]

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PGMFormatError, match="maxval"):
            load_image(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PGMFormatError, match="magic"):
            load_image(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PGMFormatError, match="expected 16 bytes, found 2"):
            load_image(path)

    def test_rejects_bad_width(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\nxx 1\n255\n\x00")
        with pytest.raises(PGMFormatError, match="width"):
            load_image(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "absent.pgm")


class TestSaveImage:
    def test_single_zero_pixel(self, tmp_path):
        path = tmp_path / "t.pgm"
        save_image(GrayImage(1, 1, np.array([0])), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n")
        assert data.endswith(b"\x00")
        assert len(data) < 20

    def test_roundtrip_random_64(self, tmp_path):
        rng = np.random.default_rng(7)
        img = GrayImage(64, 64, rng.integers(0, 256, 64 * 64))
        path = tmp_path / "t.pgm"
        save_image(img, path)
        again = load_image(path)
        assert np.array_equal(img.pixels, again.pixels)
        assert (again.width, again.height) == (64, 64)

    def test_save_load_save_is_byte_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        img = GrayImage(512, 512, rng.integers(0, 256, 512 * 512))
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        save_image(img, first)
        save_image(load_image(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_destination(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        with pytest.raises(OSError):
            save_image(GrayImage(1, 1, np.array([0])), blocker / "out.pgm")


class TestExportSeries:
    def test_zero_series_shape(self, tmp_path):
        path = tmp_path / "s.csv"
        export_series([SeriesExport("hist", np.zeros(256))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gray_level,hist"
        assert len(lines) == 257
        for g, line in enumerate(lines[1:]):
            level, value = line.split(",")
            assert int(level) == g
            assert float(value) == 0.0

    def test_two_series_three_columns(self, tmp_path):
        path = tmp_path / "s.csv"
        export_series(
            [SeriesExport("a", np.zeros(256)), SeriesExport("b", np.ones(256))],
            path,
        )
        rows = path.read_text().splitlines()
        assert rows[0] == "gray_level,a,b"
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_parse_back_within_1e9(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.uniform(0, 400, 128),
            rng.uniform(0, 1, 127),
            [1e-15],
        ])
        path = tmp_path / "s.csv"
        export_series([SeriesExport("v", values)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        parsed = np.array([float(r[1]) for r in rows[1:]])
        assert np.max(np.abs(parsed - values)) < 1e-9

    def test_ragged_series_rejected(self):
        with pytest.raises(ValueError):
            SeriesExport("short", np.zeros(100))

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_series([], tmp_path / "s.csv")
