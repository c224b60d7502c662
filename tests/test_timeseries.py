"""Tests for repro.telemetry.timeseries (EWMA, histogram)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.timeseries import Ewma, Histogram

settings.register_profile("repro_ts", deadline=None, max_examples=40)
settings.load_profile("repro_ts")


class TestEwma:
    def test_first_sample_initializes(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.value is None
        assert ewma.update(10.0) == pytest.approx(10.0)
        assert ewma.count == 1

    def test_smoothing(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(10.0)
        assert ewma.update(0.0) == pytest.approx(5.0)
        assert ewma.update(5.0) == pytest.approx(5.0)

    def test_alpha_one_tracks_last_sample(self):
        ewma = Ewma(alpha=1.0)
        for sample in (3.0, 7.0, 1.0):
            ewma.update(sample)
        assert ewma.value == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha=alpha)

    def test_stays_within_sample_range(self):
        ewma = Ewma(alpha=0.3)
        samples = [2.0, 9.0, 4.0, 7.5, 3.3]
        for sample in samples:
            ewma.update(sample)
            assert min(samples) <= ewma.value <= max(samples)


class TestHistogram:
    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_identical_values_exact(self):
        hist = Histogram.from_values([10.0] * 100)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(10.0)

    def test_quantile_is_bounded_upper_estimate(self):
        values = [0.5 + 0.01 * i for i in range(500)]
        hist = Histogram.from_values(values)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = ordered[max(0, math.ceil(q * len(values)) - 1)]
            estimate = hist.quantile(q)
            assert exact <= estimate <= exact * hist.growth + 1e-12

    def test_quantile_never_exceeds_max(self):
        hist = Histogram.from_values([1.0, 2.0, 3.0])
        assert hist.quantile(1.0) == pytest.approx(3.0)

    def test_mean_total_min_max_exact(self):
        hist = Histogram.from_values([1.0, 2.0, 4.0])
        assert hist.count == 3
        assert hist.total == pytest.approx(7.0)
        assert hist.mean == pytest.approx(7.0 / 3)
        assert hist.min == 1.0
        assert hist.max == 4.0

    def test_sub_min_value_clamps_into_first_bucket(self):
        hist = Histogram(min_value=1e-3)
        hist.observe(1e-9)
        hist.observe(0.0)
        assert hist.count == 2
        assert hist.quantile(0.5) <= 1e-3 * hist.growth

    def test_rejects_bad_values(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        with pytest.raises(ValueError):
            hist.observe(float("inf"))

    def test_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            Histogram(growth=1.0)
        with pytest.raises(ValueError):
            Histogram(min_value=0.0)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_as_dict_roundtrip_and_json_safe(self):
        hist = Histogram.from_values([0.001, 0.5, 2.0, 2.0, 100.0])
        payload = json.loads(json.dumps(hist.as_dict()))
        rebuilt = Histogram.from_dict(payload)
        assert rebuilt.count == hist.count
        assert rebuilt.max == hist.max
        for q in (0.25, 0.75, 0.99):
            assert rebuilt.quantile(q) == pytest.approx(hist.quantile(q))

    def test_bucket_list_sorted_by_numeric_index(self):
        hist = Histogram.from_values([1e-9 * 1.02 ** i
                                      for i in range(0, 300, 7)])
        indices = [index for index, _count in hist.as_dict()["buckets"]]
        assert indices == sorted(indices)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_upper_bound_property(self, values, q):
        hist = Histogram.from_values(values)
        ordered = sorted(values)
        exact = ordered[max(0, math.ceil(q * len(values)) - 1)]
        estimate = hist.quantile(q)
        assert estimate >= exact - 1e-12
        assert estimate <= hist.max + 1e-12
