"""Zero-dependency observability: metrics, spans and perf reports.

The package keeps one process-wide active registry.  By default it is a
:class:`~repro.obs.registry.NullRegistry`, so every instrumentation site
in the server, simulator, clients and resolver degrades to a
couple of no-op calls and simulation results are identical with
observability on or off.

Usage::

    from repro import obs

    with obs.observed() as registry:          # scoped enablement
        result = run_simulation(config)
        print(registry.snapshot()["spans"])

    obs.enable()                              # or process-wide
    with obs.span("my_phase"):
        ...
    obs.get_registry().counter("frames_total").inc()

Instrumented code never imports a concrete registry -- it calls
``obs.span`` / ``obs.get_registry()`` and gets whatever is active.

The :mod:`repro.obs.telemetry` subpackage turns a registry into a live
operational surface: an OpenMetrics HTTP exporter, structured event
logging, end-to-end query tracing and a flight recorder (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Union

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
    SpanStats,
    metric_key,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "SpanStats",
    "counter",
    "disable",
    "enable",
    "gauge",
    "get_registry",
    "histogram",
    "is_enabled",
    "metric_key",
    "observed",
    "span",
]

_NULL_REGISTRY = NullRegistry()
_active: Union[MetricsRegistry, NullRegistry] = _NULL_REGISTRY


def get_registry() -> Union[MetricsRegistry, NullRegistry]:
    """The registry instrumentation currently reports to."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install *registry* (or a fresh one) as the active sink."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> Union[MetricsRegistry, NullRegistry]:
    """Return to the no-op default; the replaced registry is returned."""
    global _active
    previous = _active
    _active = _NULL_REGISTRY
    return previous


@contextmanager
def observed(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Enable observability for a ``with`` block, then restore the prior sink."""
    global _active
    previous = _active
    installed = enable(registry)
    try:
        yield installed
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Convenience pass-throughs to the active registry
# ----------------------------------------------------------------------

def span(name: str, **labels: object):
    """``with obs.span("prune_to_pci"): ...`` against the active registry."""
    return _active.span(name, **labels)


def counter(name: str, **labels: object):
    return _active.counter(name, **labels)


def gauge(name: str, **labels: object):
    return _active.gauge(name, **labels)


def histogram(name: str, buckets: Optional[Sequence[float]] = None, **labels: object):
    return _active.histogram(name, buckets, **labels)
