"""Flight recorder: bounded ring buffers that dump a replayable artifact.

The recorder continuously captures the last N cycle records and the
last M structured events (it registers as an
:class:`~repro.obs.telemetry.events.EventLog` listener).  When something
goes wrong -- a :class:`~repro.faults.chaos.ChaosInvariantError`, an
``ERR`` uplink reply, SIGTERM -- the owner calls :meth:`dump` and gets a
single JSON artifact carrying enough context (config summary, recent
cycles, recent events, the trigger reason) to replay the incident
offline with ``load_flight_record``.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.telemetry.events import EventLog, NullEventLog
from repro.tools.trace import CYCLE_KEYS, trace_form

__all__ = [
    "FLIGHT_FORMAT",
    "FlightRecorder",
    "cycle_summary",
    "load_flight_record",
    "recorded_events",
]

#: Artifact schema version.
FLIGHT_FORMAT = 1

_REQUIRED_KEYS = ("kind", "format", "reason", "context", "cycles", "events")


class FlightRecorder:
    """Ring buffers for recent cycles and events, dumpable on demand.

    ``cycle_capacity`` / ``event_capacity`` bound memory; old entries
    fall off the front.  ``context`` is a free-form dict the owner
    fills with run configuration (document count, channels, bandwidth)
    so a dump is self-describing.
    """

    def __init__(
        self, cycle_capacity: int = 64, event_capacity: int = 1024
    ) -> None:
        if cycle_capacity < 1 or event_capacity < 1:
            raise ValueError("flight recorder capacities must be >= 1")
        self.cycle_capacity = cycle_capacity
        self.event_capacity = event_capacity
        self._cycles: deque = deque(maxlen=cycle_capacity)
        self._events: deque = deque(maxlen=event_capacity)
        self.context: Dict[str, Any] = {}
        self.cycles_seen = 0
        self.events_seen = 0
        #: artifact paths written by :meth:`dump`, oldest first
        self.dumps: List[Path] = []

    # -- capture -----------------------------------------------------------

    def record_cycle(self, record: Dict[str, Any]) -> None:
        self.cycles_seen += 1
        self._cycles.append(dict(record))

    def record_event(self, record: Dict[str, Any]) -> None:
        """Listener-compatible: wire via ``EventLog.add_listener``."""
        self.events_seen += 1
        self._events.append(dict(record))

    # -- inspection --------------------------------------------------------

    @property
    def cycles(self) -> List[Dict[str, Any]]:
        return list(self._cycles)

    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def snapshot(self, reason: str) -> Dict[str, Any]:
        """The artifact payload, as a dict."""
        return {
            "kind": "flight_record",
            "format": FLIGHT_FORMAT,
            "reason": reason,
            "context": dict(self.context),
            "cycles_seen": self.cycles_seen,
            "events_seen": self.events_seen,
            "cycles": self.cycles,
            "events": self.events,
        }

    # -- dumping -----------------------------------------------------------

    def dump(
        self, target: Union[str, Path], reason: str
    ) -> Path:
        """Write the artifact.

        ``target`` may be a directory -- created if absent; anything not
        ending in ``.json`` counts -- and a deterministic
        ``flight-<reason>-<n>.json`` filename is chosen inside it
        (``<n>`` = cycles seen so far).  A ``*.json`` target is used as
        the explicit file path.
        """
        target = Path(target)
        if target.suffix != ".json":
            target.mkdir(parents=True, exist_ok=True)
        if target.is_dir():
            safe = "".join(
                c if c.isalnum() or c in "-_" else "-" for c in reason
            )
            target = target / f"flight-{safe}-c{self.cycles_seen}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.snapshot(reason), sort_keys=True, default=str)
            + "\n",
            encoding="utf-8",
        )
        self.dumps.append(target)
        return target


def recorded_events(
    events: Union[EventLog, NullEventLog, None],
    flight: Optional[FlightRecorder],
    clock: Any = None,
) -> Union[EventLog, NullEventLog]:
    """The event stream an owner narrates into: *events* (default: the
    no-op log), observed by *flight* when a recorder is armed.

    The ring buffer observes via a listener, so an armed recorder gets a
    real (if sink-less) stream behind it; *clock* stamps that stream and
    stays ``None`` on deterministic paths.
    """
    if events is None:
        events = NullEventLog()
    if flight is not None:
        if isinstance(events, NullEventLog):
            events = EventLog(sink=None, clock=clock)
        events.add_listener(flight.record_event)
    return events


def cycle_summary(cycle: Any, server: Any, **extra: Any) -> Dict[str, Any]:
    """The flight-recorder record of *cycle*, just built by *server*.

    The server's :class:`~repro.broadcast.server.CycleRecord` in its
    trace form (with ``phase_seconds`` even when empty), plus what the
    record does not hold: the schedule, the degradation mode and the
    queue left behind.  *extra* is what only the caller can say -- the
    ``signature``, which each owner computes through its own
    ``program_signature`` binding.
    """
    record = server.records[-1]
    return {
        **trace_form(record, CYCLE_KEYS),
        "phase_seconds": dict(record.phase_seconds),
        "doc_ids": list(cycle.doc_ids),
        "degraded": cycle.degraded,
        "pending_after": len(server.pending),
        **extra,
    }


def load_flight_record(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a flight-recorder artifact."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("kind") != "flight_record":
        raise ValueError(f"{path}: not a flight_record artifact")
    if payload.get("format") != FLIGHT_FORMAT:
        raise ValueError(
            f"{path}: unsupported flight_record format "
            f"{payload.get('format')!r} (expected {FLIGHT_FORMAT})"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: flight_record missing keys {missing}")
    return payload
