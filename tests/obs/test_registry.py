"""Unit and property tests for the metrics registry."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metric_key,
)


class TestMetricKey:
    def test_plain_name(self):
        assert metric_key("cycles_total", {}) == "cycles_total"

    def test_labels_sorted_and_quoted(self):
        key = metric_key("lookup_bytes", {"scheme": "two-tier", "dtd": "nitf"})
        assert key == 'lookup_bytes{dtd="nitf",scheme="two-tier"}'


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("bytes_total", protocol="one-tier").inc(10)
        registry.counter("bytes_total", protocol="two-tier").inc(3)
        snapshot = registry.snapshot()["counters"]
        assert snapshot['bytes_total{protocol="one-tier"}'] == 10
        assert snapshot['bytes_total{protocol="two-tier"}'] == 3

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("pending")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.value == 7


class TestHistogram:
    def test_bucketing(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        # 0.5 and 1.0 land in the first bucket (inclusive upper edge),
        # 5.0 in the second, 100.0 in the overflow bucket.
        assert histogram.counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(106.5)
        assert histogram.mean == pytest.approx(106.5 / 4)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False)))
    def test_bucket_counts_sum_to_observation_count(self, values):
        """Property: no observation is ever lost or double-counted."""
        histogram = Histogram(DEFAULT_BUCKETS)
        for value in values:
            histogram.observe(value)
        assert sum(histogram.counts) == histogram.count == len(values)


class TestSnapshotAndReset:
    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        with registry.span("d"):
            pass
        json.dumps(registry.snapshot())  # must not raise

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("c").observe(1.0)
        with registry.span("d"):
            pass
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["spans"] == {}


class TestNullRegistry:
    def test_everything_is_a_cheap_no_op(self):
        registry = NullRegistry()
        assert not registry.enabled
        registry.counter("a").inc(100)
        registry.gauge("b").set(5)
        registry.histogram("c").observe(1.0)
        with registry.span("d") as span:
            assert span.elapsed == 0.0
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {}
        assert registry.span_totals() == {}

    def test_singletons_shared(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.span("a") is registry.span("b")


class TestModuleLevelState:
    def test_default_is_disabled(self):
        assert not obs.is_enabled()
        assert isinstance(obs.get_registry(), NullRegistry)

    def test_enable_disable_roundtrip(self):
        try:
            registry = obs.enable()
            assert obs.get_registry() is registry
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert not obs.is_enabled()

    def test_observed_restores_previous(self):
        with obs.observed() as registry:
            obs.counter("inside").inc()
            assert obs.get_registry() is registry
        assert not obs.is_enabled()
        assert registry.snapshot()["counters"] == {"inside": 1}

    def test_observed_accepts_custom_registry(self):
        mine = MetricsRegistry()
        with obs.observed(mine) as registry:
            assert registry is mine
