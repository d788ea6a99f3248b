import numpy as np
import pytest

from it2hspec.gaussfit import Gaussian1D, MixtureFit
from it2hspec.membership import KMCluster, KMMembershipValues
from it2hspec.pdfgen import (
    RawPDF,
    defuzzify_mean,
    finalize_pdf,
    raw_pdf_it2,
    raw_pdf_km,
)


def single_fit(mu=128.0, a=1.0, sigma=30.0):
    return MixtureFit([Gaussian1D(a, mu, sigma)])


def km_values(mv, v_center=128.0, start=0, end=255):
    n = end - start + 1
    cluster = KMCluster(start, end, v_center, v_center, v_center,
                        np.ones(n), np.ones(n))
    return KMMembershipValues(mv, (cluster,))


class TestRawPdfIt2:
    def test_bracket_vanishes_below_center(self):
        # g = (mu + c1)/2 = 64 sits on the rising arm, so the boost is zero
        pdf = raw_pdf_it2(np.ones(256), single_fit(), "it2_upper")
        assert pdf.values[64] == pytest.approx(255.0)

    def test_zero_membership_is_flat(self):
        pdf = raw_pdf_it2(np.zeros(256), single_fit(), "it2_upper")
        assert np.all(pdf.values == 255.0)

    def test_full_membership_extremes(self):
        pdf = raw_pdf_it2(np.ones(256), single_fit(), "it2_lower")
        assert pdf.values[0] == pytest.approx(383.0)
        assert pdf.values[255] == pytest.approx(382.0)

    def test_bound_on_magnitude(self):
        rng = np.random.default_rng(0)
        fit = MixtureFit([Gaussian1D(0.9, 60.0, 12.0), Gaussian1D(0.8, 200.0, 25.0)])
        mv = rng.uniform(0, 1, 256)
        pdf = raw_pdf_it2(mv, fit, "it2_upper")
        assert np.max(np.abs(pdf.values - 255.0)) <= 2.0 * mv.max() * 256.0

    def test_piecewise_linear_with_single_kink(self):
        pdf = raw_pdf_it2(np.full(256, 0.7), single_fit(mu=128.0), "it2_upper")
        second = np.diff(pdf.values, 2)
        kinks = np.flatnonzero(np.abs(second) > 1e-9)
        # the slope flips sign at the center; on the integer grid the bend
        # shows up in at most two adjacent second differences
        assert 1 <= kinks.size <= 2
        assert all(abs((k + 1) - 128) <= 1 for k in kinks)

    def test_arms_slope_away_from_peak(self):
        # constant membership on the reach: the boost shrinks linearly as g
        # approaches the component center from either side
        pdf = raw_pdf_it2(np.full(256, 0.8), single_fit(mu=128.0), "it2_upper")
        left = pdf.values[:128]
        right = pdf.values[129:]
        assert np.all(np.diff(left) < 0)
        assert np.all(np.diff(right) > 0)
        assert pdf.values.argmin() in (127, 128)

    def test_source_checked(self):
        with pytest.raises(ValueError):
            raw_pdf_it2(np.zeros(256), single_fit(), "km")

    def test_membership_range_checked(self):
        with pytest.raises(ValueError):
            raw_pdf_it2(np.full(256, 1.5), single_fit(), "it2_upper")


class TestRawPdfKm:
    def test_bracket_vanishes(self):
        pdf = raw_pdf_km(km_values(np.ones(256)))
        assert pdf.values[64] == pytest.approx(255.0)

    def test_zero_membership_flat(self):
        pdf = raw_pdf_km(km_values(np.zeros(256)))
        assert np.all(pdf.values == 255.0)

    def test_full_membership_extremes(self):
        pdf = raw_pdf_km(km_values(np.ones(256)))
        assert pdf.values[0] == pytest.approx(383.0)
        assert pdf.values[255] == pytest.approx(382.0)

    def test_two_clusters_piecewise(self):
        clusters = (
            KMCluster(0, 127, 64.0, 64.0, 64.0, np.ones(128), np.ones(128)),
            KMCluster(128, 255, 192.0, 192.0, 192.0, np.ones(128), np.ones(128)),
        )
        mv = KMMembershipValues(np.full(256, 0.5), clusters)
        pdf = raw_pdf_km(mv)
        assert pdf.values[32] == pytest.approx(255.0)
        assert pdf.values[160] == pytest.approx(255.0)

    @pytest.mark.parametrize("bounds", [
        [(0, 100)],
        [(0, 100), (102, 255)],
        [(0, 100), (100, 255)],
        [(101, 255), (0, 100)],
        [(1, 255)],
        [],
    ], ids=["short", "gap", "overlap", "unordered", "late-start", "none"])
    def test_clusters_must_tile_every_level(self, bounds):
        # a level no cluster covers would get no PDF value at all
        clusters = tuple(KMCluster(s, e, 50.0, 50.0, 50.0, np.ones(e - s + 1),
                                   np.ones(e - s + 1)) for s, e in bounds)
        with pytest.raises(ValueError, match="tile"):
            KMMembershipValues(np.ones(256), clusters)


class TestDefuzzifyMean:
    def test_identical_inputs(self):
        upper = RawPDF(np.full(256, 300.0), "it2_upper")
        lower = RawPDF(np.full(256, 300.0), "it2_lower")
        assert np.all(defuzzify_mean(upper, lower).values == 300.0)

    def test_known_mean(self):
        upper = RawPDF(np.full(256, 383.0), "it2_upper")
        lower = RawPDF(np.full(256, 255.0), "it2_lower")
        assert np.all(defuzzify_mean(upper, lower).values == 319.0)

    def test_elementwise_mean_oracle(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 500, 256)
        l = rng.uniform(0, 500, 256)
        out = defuzzify_mean(RawPDF(u, "it2_upper"), RawPDF(l, "it2_lower"))
        assert np.max(np.abs(out.values - (u + l) / 2.0)) < 1e-12
        assert out.source == "it2_mean"

    def test_source_mismatch_rejected(self):
        upper = RawPDF(np.full(256, 1.0), "it2_upper")
        with pytest.raises(ValueError):
            defuzzify_mean(upper, upper)


class TestFinalizePdf:
    def test_constant_becomes_uniform(self):
        pdf = finalize_pdf(RawPDF(np.full(256, 255.0), "it2_mean"))
        assert np.all(pdf.p == 1.0 / 256.0)

    def test_two_mass_points(self):
        values = np.zeros(256)
        values[0] = values[1] = 2.0
        pdf = finalize_pdf(RawPDF(values, "km"))
        assert pdf.p[0] == 0.5 and pdf.p[1] == 0.5

    def test_negative_entries_clamped(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(1, 400, 256)
        values[17] = -5.0
        pdf = finalize_pdf(RawPDF(values, "it2_mean"))
        assert pdf.p[17] == 0.0
        assert abs(pdf.p.sum() - 1.0) < 1e-9
        assert pdf.p.min() >= 0.0

    def test_all_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            finalize_pdf(RawPDF(np.full(256, -1.0), "km"))
