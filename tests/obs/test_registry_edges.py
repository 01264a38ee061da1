"""Registry edge cases: span unwinding, bucket boundaries, snapshot
isolation.

These pin the semantics the telemetry plane (exporter, tracing) builds
on: exact self-time attribution when exceptions unwind nested spans,
inclusive-upper bucket edges, and snapshots that stay frozen while the
registry keeps moving.
"""

from __future__ import annotations

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry


def _ticking_registry(step: float = 1.0) -> MetricsRegistry:
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return MetricsRegistry(clock=clock)


class TestSpanUnwinding:
    def test_exception_still_records_span(self):
        registry = _ticking_registry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                raise RuntimeError("boom")
        snap = registry.snapshot()["spans"]
        assert snap["outer"]["count"] == 1
        assert not registry._span_stack

    def test_nested_exception_unwinds_whole_tree(self):
        registry = _ticking_registry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                with registry.span("inner"):
                    raise RuntimeError("boom")
        snap = registry.snapshot()["spans"]
        assert snap["outer"]["count"] == 1
        assert snap["inner"]["count"] == 1
        assert not registry._span_stack
        # Ticks: outer.start=1, inner.start=2, inner.end=3, outer.end=4:
        # inner elapsed 1, outer elapsed 3, outer self = 3 - 1 = 2.
        assert snap["inner"]["total_seconds"] == pytest.approx(1.0)
        assert snap["outer"]["total_seconds"] == pytest.approx(3.0)
        assert snap["outer"]["self_seconds"] == pytest.approx(2.0)

    def test_self_time_excludes_all_direct_children(self):
        registry = _ticking_registry()
        with registry.span("parent"):
            with registry.span("child"):
                pass
            with registry.span("child"):
                pass
        snap = registry.snapshot()["spans"]
        assert snap["child"]["count"] == 2
        parent = snap["parent"]
        child = snap["child"]
        assert parent["self_seconds"] == pytest.approx(
            parent["total_seconds"] - child["total_seconds"]
        )

    def test_out_of_order_exit_tolerated(self):
        registry = _ticking_registry()
        outer = registry.span("outer")
        inner = registry.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Exit the parent first (a bug in caller code); the registry must
        # not crash or leak stack entries.
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        assert not registry._span_stack
        snap = registry.snapshot()["spans"]
        assert snap["outer"]["count"] == 1
        assert snap["inner"]["count"] == 1


class TestHistogramBuckets:
    def test_value_on_bound_is_inclusive_upper(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.observe(0.1)
        assert hist.counts == [1, 0, 0]

    def test_value_between_bounds(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.observe(0.5)
        assert hist.counts == [0, 1, 0]

    def test_overflow_bucket(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.observe(99.0)
        assert hist.counts == [0, 0, 1]
        assert sum(hist.counts) == hist.count == 1

    def test_zero_and_negative_fall_in_first_bucket(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.observe(0.0)
        hist.observe(-1.0)
        assert hist.counts == [2, 0, 0]

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_labelled_histograms_are_distinct(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0,), channel=0).observe(0.5)
        registry.histogram("lat", buckets=(1.0,), channel=1).observe(2.0)
        snap = registry.snapshot()["histograms"]
        assert snap['lat{channel="0"}']["counts"] == [1, 0]
        assert snap['lat{channel="1"}']["counts"] == [0, 1]

    def test_default_buckets_cover_microseconds_to_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 10.0


class TestSnapshotIsolation:
    def test_snapshot_is_frozen_against_later_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc(5)
        hist = registry.histogram("lat", buckets=(1.0,))
        hist.observe(0.5)
        snap = registry.snapshot()
        counter.inc(100)
        hist.observe(0.1)
        registry.gauge("new_gauge").set(1)
        assert snap["counters"]["hits"] == 5
        assert snap["histograms"]["lat"]["counts"] == [1, 0]
        assert snap["histograms"]["lat"]["count"] == 1
        assert "new_gauge" not in snap["gauges"]

    def test_snapshot_lists_are_copies(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        snap["histograms"]["lat"]["counts"][0] = 999
        snap["histograms"]["lat"]["bounds"][0] = 999
        fresh = registry.snapshot()
        assert fresh["histograms"]["lat"]["counts"] == [1, 0]
        assert fresh["histograms"]["lat"]["bounds"] == [1.0]

    def test_reset_survives_open_span(self):
        registry = _ticking_registry()
        with registry.span("outer"):
            registry.counter("c").inc()
            registry.reset()
            with registry.span("inner"):
                pass
        snap = registry.snapshot()
        assert "c" not in snap["counters"]
        # Both spans closed after the reset, so both were re-recorded.
        assert snap["spans"]["outer"]["count"] == 1
        assert snap["spans"]["inner"]["count"] == 1
