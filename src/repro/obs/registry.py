"""Metrics registry: counters, gauges, histograms and timing spans.

The registry is the single sink of the observability layer.  Metrics are
identified by a name plus optional labels, rendered Prometheus-style
(``cycle_assembly_seconds{scheduler="fcfs"}``) so snapshots are directly
comparable across runs and label dimensions.

Two implementations share the interface:

* :class:`MetricsRegistry` -- the real thing: lock-free (single-threaded
  simulation), dict-backed, with ``snapshot()`` / ``reset()``;
* :class:`NullRegistry` -- the **default**: every operation is a no-op on
  a shared singleton, so instrumented code costs one attribute lookup and
  one call when observability is off.  Simulation results are identical
  either way -- spans only *measure*, they never steer.

Wall-clock time comes from an injectable ``clock`` (default
``time.perf_counter``) so tests can drive spans deterministically.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "SpanStats",
    "DEFAULT_BUCKETS",
]

#: Default latency buckets (seconds): 100us .. 10s, roughly logarithmic.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical ``name{k="v",...}`` identity of one labelled metric."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, bytes, documents)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, pending queries)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with cumulative-free per-bucket counts.

    ``bounds`` are the inclusive upper edges; one overflow bucket catches
    everything above the last edge, so ``sum(counts) == count`` always
    (property-tested).
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class SpanStats:
    """Aggregate over every completed span of one name."""

    __slots__ = ("count", "total_seconds", "self_seconds", "min_seconds", "max_seconds")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        #: total minus time spent inside directly nested spans
        self.self_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def record(self, elapsed: float, self_elapsed: float) -> None:
        self.count += 1
        self.total_seconds += elapsed
        self.self_seconds += self_elapsed
        self.min_seconds = min(self.min_seconds, elapsed)
        self.max_seconds = max(self.max_seconds, elapsed)


class Span:
    """One timed region; a context manager that reports on exit.

    Spans nest: while a span is open, inner ``span(...)`` calls become its
    children, and the parent's *self* time excludes their elapsed time.
    ``elapsed`` holds the wall-clock seconds after ``__exit__``.
    """

    __slots__ = ("name", "elapsed", "_registry", "_start", "_child_seconds")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.name = name
        self.elapsed = 0.0
        self._registry = registry
        self._child_seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._registry._span_stack.append(self)
        self._start = self._registry._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        registry = self._registry
        self.elapsed = registry._clock() - self._start
        stack = registry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate out-of-order exits
            stack.remove(self)
        if stack:
            stack[-1]._child_seconds += self.elapsed
        registry._record_span(self.name, self.elapsed, self.elapsed - self._child_seconds)


class _NullSpan:
    """Shared no-op span; safe to re-enter because it holds no state."""

    __slots__ = ()
    name = ""
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullHistogram:
    __slots__ = ()
    bounds: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    mean = 0.0

    @property
    def counts(self) -> List[int]:
        return []

    def observe(self, value: float) -> None:
        return None


class MetricsRegistry:
    """Collects every metric and span of one observed run."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStats] = {}
        self._span_stack: List[Span] = []

    # ------------------------------------------------------------------
    # Metric accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = metric_key(name, labels)
        existing = self._counters.get(key)
        if existing is None:
            existing = self._counters[key] = Counter()
        return existing

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = metric_key(name, labels)
        existing = self._gauges.get(key)
        if existing is None:
            existing = self._gauges[key] = Gauge()
        return existing

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        key = metric_key(name, labels)
        existing = self._histograms.get(key)
        if existing is None:
            existing = self._histograms[key] = Histogram(buckets or DEFAULT_BUCKETS)
        return existing

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, **labels: object) -> Span:
        return Span(self, metric_key(name, labels))

    def _record_span(self, name: str, elapsed: float, self_elapsed: float) -> None:
        stats = self._spans.get(name)
        if stats is None:
            stats = self._spans[name] = SpanStats()
        stats.record(elapsed, self_elapsed)

    def span_totals(self, prefix: str = "") -> Dict[str, Tuple[int, float]]:
        """``name -> (count, total_seconds)`` for span names under *prefix*.

        Diffing two calls brackets a region of interest: the server uses
        this to attribute span time to individual broadcast cycles.
        """
        return {
            name: (stats.count, stats.total_seconds)
            for name, stats in self._spans.items()
            if name.startswith(prefix)
        }

    # ------------------------------------------------------------------
    # Snapshot / reset
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-serialisable view of everything recorded so far."""
        return {
            "counters": {key: c.value for key, c in sorted(self._counters.items())},
            "gauges": {key: g.value for key, g in sorted(self._gauges.items())},
            "histograms": {
                key: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for key, h in sorted(self._histograms.items())
            },
            "spans": {
                key: {
                    "count": s.count,
                    "total_seconds": s.total_seconds,
                    "self_seconds": s.self_seconds,
                    "min_seconds": s.min_seconds,
                    "max_seconds": s.max_seconds,
                }
                for key, s in sorted(self._spans.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric and span aggregate (open spans survive)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()


class NullRegistry:
    """The default no-op registry: observability off, zero bookkeeping."""

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()
    _SPAN = _NullSpan()

    def counter(self, name: str, **labels: object) -> _NullCounter:
        return self._COUNTER

    def gauge(self, name: str, **labels: object) -> _NullGauge:
        return self._GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: object
    ) -> _NullHistogram:
        return self._HISTOGRAM

    def span(self, name: str, **labels: object) -> _NullSpan:
        return self._SPAN

    def span_totals(self, prefix: str = "") -> Dict[str, Tuple[int, float]]:
        return {}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}

    def reset(self) -> None:
        return None
