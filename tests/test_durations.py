"""Duration-model fitting and the log-density duration score."""

import math

import numpy as np
import pytest

from pronassess import DurationModel, PhoneStats, fit_durations, gopd, gopd_vector
from pronassess.aligner import Alignment, Span
from pronassess.errors import ValidationError
from pronassess.inventory import PHONEMES

PEAK_100_20 = -math.log(20.0 * math.sqrt(2.0 * math.pi))


def _model(mean=100.0, std=20.0):
    return DurationModel({"AA": PhoneStats(mean, std, 50)}, PhoneStats(mean, std, 50))


class TestFit:
    def test_three_sample_stats_delegate(self):
        model = fit_durations([("AA", 80.0), ("AA", 100.0), ("AA", 120.0)])
        st = model.phones["AA"]
        assert st.mean_ms == pytest.approx(100.0)
        assert st.std_ms == pytest.approx(20.0)  # unbiased, n-1
        assert st.count == 3
        # fewer than 10 samples: evaluation delegates to the global entry
        assert model.lookup("AA") == model.global_stats

    def test_zero_variance_hits_floor(self):
        model = fit_durations([("AA", 100.0)] * 12)
        st = model.phones["AA"]
        assert st.mean_ms == pytest.approx(100.0)
        assert st.std_ms == 5.0
        assert st.count == 12
        assert model.lookup("AA") is st

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(2024)
        samples = [("IY", float(d)) for d in rng.normal(100.0, 20.0, size=1000)]
        model = fit_durations(samples)
        st = model.phones["IY"]
        assert 98.0 <= st.mean_ms <= 102.0
        assert 18.0 <= st.std_ms <= 22.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError):
            fit_durations([])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValidationError):
            fit_durations([("AA", 0.0)])


class TestGopd:
    def test_peak_closed_form(self):
        assert gopd(100.0, "AA", _model()) == pytest.approx(PEAK_100_20, abs=1e-9)

    def test_one_sigma_offset(self):
        assert gopd(120.0, "AA", _model()) == pytest.approx(PEAK_100_20 - 0.5, abs=1e-12)

    def test_symmetry(self):
        model = _model()
        for delta in (1.0, 7.5, 19.0, 42.0):
            assert gopd(100 + delta, "AA", model) == pytest.approx(
                gopd(100 - delta, "AA", model), abs=1e-12
            )

    def test_strictly_decreasing_in_deviation(self):
        model = _model()
        values = [gopd(d, "AA", model) for d in (100.0, 120.0, 140.0, 160.0, 180.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_fallback_totality(self):
        model = fit_durations([("AA", 90.0), ("AA", 110.0)])
        for phone in PHONEMES:
            assert np.isfinite(gopd(75.0, phone, model))

    def test_positive_density_allowed_for_tiny_sigma(self):
        # log density, not log probability: sigma below 1/sqrt(2*pi) ms
        model = DurationModel({}, PhoneStats(100.0, 0.1, 100))
        assert gopd(100.0, "AA", model) > 0.0

    @pytest.mark.parametrize("std", [1e-320, 1e-160])
    def test_non_finite_log_density_rejected(self, std):
        """z overflows at 1e-320 ms, z * z at 1e-160 ms: either gives -inf."""
        model = DurationModel({}, PhoneStats(50.0, std, 100))
        with pytest.raises(ValidationError) as info:
            gopd(60.0, "AA", model)
        assert str(info.value) == \
            f"GoPD of phone 'AA' lasting 60.0 ms is not finite under std {std} ms"
        assert gopd(50.0, "AA", model) > 0.0  # at the mean the density is finite


class TestGopdVector:
    def test_span_at_mean_gives_peak(self):
        a = Alignment([Span("AA", 0, 9)])  # 100 ms
        np.testing.assert_allclose(gopd_vector(a, _model()), [PEAK_100_20])

    def test_identical_spans_identical_values(self):
        a = Alignment([Span("AA", 0, 7), Span("AA", 8, 15)])
        v = gopd_vector(a, _model())
        assert v[0] == v[1]

    def test_monotone_in_deviation_across_spans(self):
        model = _model()
        lengths = [10, 12, 14, 16, 18]  # 100 ms .. 180 ms
        spans, start = [], 0
        for n in lengths:
            spans.append(Span("AA", start, start + n - 1))
            start += n
        v = gopd_vector(Alignment(spans), model)
        assert all(a > b for a, b in zip(v, v[1:]))


class TestFittedShapeOrdering:
    def test_two_phone_generators_preserve_orderings(self):
        # one long-and-variable phone versus one short-and-tight phone:
        # the fitted model must keep both the mean and the std ordering
        rng = np.random.default_rng(77)
        samples = [("OY", float(d)) for d in rng.normal(160.0, 35.0, size=400)]
        samples += [("V", float(d)) for d in rng.normal(70.0, 12.0, size=400)]
        model = fit_durations(samples)
        assert model.phones["OY"].mean_ms > model.phones["V"].mean_ms
        assert model.phones["OY"].std_ms > model.phones["V"].std_ms
