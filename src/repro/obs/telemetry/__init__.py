"""Operational telemetry plane layered on the metrics registry.

:mod:`repro.obs` gives one process a metrics registry; this package
makes that registry (and the live daemon around it) *operable*:

* :mod:`~repro.obs.telemetry.exporter` -- Prometheus/OpenMetrics text
  rendering of a registry snapshot, a grammar linter for the exposition
  format, and a stdlib-asyncio HTTP endpoint (``/metrics`` +
  drain-aware ``/healthz``) served from the daemon's own event loop;
* :mod:`~repro.obs.telemetry.tracing` -- end-to-end query tracing: a
  trace ID minted at ``SUBMIT`` (the uplink's ``TRACE=`` token) follows
  the query through admission, scheduling, cycle build and on-air
  delivery, and the client closes the chain at receipt -- every traced
  query yields a span tree with additive latency components
  (queue wait / build / on-air / tune);
* :mod:`~repro.obs.telemetry.events` -- a structured JSON event log
  (one line per admission, cycle build, degradation, fault injection,
  dedup hit, drain step) with an injected clock so deterministic code
  paths stay wall-clock free;
* :mod:`~repro.obs.telemetry.flight` -- a flight recorder: a bounded
  ring buffer of recent cycle records and events that dumps a
  replayable JSON artifact on invariant violations, protocol errors or
  SIGTERM.

Everything is **no-op by default**: a daemon without a
:class:`TelemetryConfig` behaves byte-identically to one that never
imported this package (pinned by ``tests/net/test_parity.py``).
"""

from __future__ import annotations

from repro.obs.telemetry.events import EventLog, NullEventLog
from repro.obs.telemetry.exporter import (
    CONTENT_TYPE,
    Family,
    MetricsHTTPServer,
    OpenMetricsError,
    lint_openmetrics,
    merge_expositions,
    render_openmetrics,
    scrape,
)
from repro.obs.telemetry.flight import FlightRecorder, load_flight_record
from repro.obs.telemetry.tracing import QueryTrace, QueryTracer

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "CONTENT_TYPE",
    "EventLog",
    "Family",
    "FlightRecorder",
    "MetricsHTTPServer",
    "NullEventLog",
    "OpenMetricsError",
    "QueryTrace",
    "QueryTracer",
    "TelemetryConfig",
    "lint_openmetrics",
    "load_flight_record",
    "merge_expositions",
    "render_openmetrics",
    "scrape",
]


@dataclass
class TelemetryConfig:
    """Everything the daemon's telemetry plane needs, in one knob.

    ``metrics_port=None`` (the default) disables the HTTP endpoint and
    the registry; an integer (0 = ephemeral) installs a fresh registry
    as the process-wide obs sink and serves ``/metrics`` and
    ``/healthz`` on loopback.  ``events`` defaults to the no-op log;
    ``flight`` plus ``flight_dir`` arm the flight recorder (dumps land
    in ``flight_dir``).
    """

    #: ``None`` = no registry, no HTTP endpoint; 0 = ephemeral (bound
    #: port lands in ``BroadcastDaemon.metrics_port``)
    metrics_port: Optional[int] = None
    events: Union[EventLog, NullEventLog] = field(default_factory=NullEventLog)
    flight: Optional[FlightRecorder] = None
    #: where flight-recorder artifacts dump; ``None`` disables dumping
    #: (the ring buffer still fills and can be dumped manually)
    flight_dir: Optional[Path] = None
