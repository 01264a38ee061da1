"""Broadcast-trace export and analysis.

A trace is JSON Lines: a ``meta`` record, one ``cycle`` record per
broadcast cycle and one ``client`` record per completed session.  Traces
make runs diffable, graphable with external tooling, and comparable
across code versions without re-running the simulator.

Format 3, the only one read or written:

* ``client`` records carry the byte breakdown (``probe_bytes``,
  ``index_bytes``, ``offset_bytes``, ``doc_bytes``);
* observed runs (see :mod:`repro.obs`) add ``phase_seconds`` to each
  ``cycle`` record -- wall-clock seconds per server phase of that
  cycle's construction -- and one ``metrics`` record with the run's full
  metrics-registry snapshot (counters, gauges, histograms, spans);
* ``query_trace`` records: one per traced wire query -- the causally
  linked span tree (submit -> admit -> queue -> build -> on_air ->
  tune) plus its additive latency ``components``, produced by
  :meth:`repro.obs.telemetry.tracing.QueryTrace.to_record`;
* ``event`` records: structured event-log lines captured during a run.

Every record is validated against the required keys of its kind, with
``file:line`` context on failure.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.sim.results import SimulationResult

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 3

#: keys every record of a kind must carry (validated on load)
_REQUIRED_KEYS: Dict[str, tuple] = {
    "meta": ("format", "collection_bytes", "document_count", "completed"),
    "cycle": (
        "cycle", "start", "total_bytes", "data_bytes", "doc_count",
        "pending", "ci_bytes", "pci_bytes", "first_tier_bytes",
        "offset_list_bytes",
    ),
    "client": (
        "query", "protocol", "arrival", "result_docs", "cycles",
        "probe_bytes", "index_bytes", "offset_bytes", "doc_bytes",
        "index_lookup_bytes", "tuning_bytes", "access_bytes",
    ),
    "metrics": ("snapshot",),
    "query_trace": ("trace_id", "query", "spans", "components"),
    "event": ("event",),
}


def _write(file_path: PathLike, meta: Dict, records: List[Dict]) -> pathlib.Path:
    """Write the ``meta`` record, stamped with the format, then *records*."""
    path = pathlib.Path(file_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in [dict(meta, kind="meta", format=_FORMAT_VERSION), *records]:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def export_query_traces(
    traces: Sequence,
    file_path: PathLike,
    collection_bytes: int = 0,
    document_count: int = 0,
    events: Sequence[Dict] = (),
) -> pathlib.Path:
    """Write wire-query traces as a standalone trace file.

    ``traces`` are :class:`repro.obs.telemetry.tracing.QueryTrace`
    objects (or prebuilt ``query_trace`` record dicts); ``events`` are
    optional structured event-log dicts to embed alongside them.  The
    result loads with :func:`load_trace` and renders with
    ``python -m repro stats --trace``.
    """
    meta = {
        "collection_bytes": collection_bytes,
        "document_count": document_count,
        "completed": len(traces),
    }
    records = [t if isinstance(t, dict) else t.to_record() for t in traces]
    records += [dict(event, kind="event") for event in events]
    return _write(file_path, meta, records)


def export_trace(result: SimulationResult, file_path: PathLike) -> pathlib.Path:
    """Write one finished run as a JSONL trace."""
    records: List[Dict] = []
    for cycle in result.cycles:
        record = {
            "kind": "cycle",
            "cycle": cycle.cycle_number,
            "start": cycle.start_time,
            "total_bytes": cycle.total_bytes,
            "data_bytes": cycle.data_bytes,
            "doc_count": cycle.doc_count,
            "pending": cycle.pending_queries,
            "ci_bytes": cycle.ci_bytes_one_tier,
            "pci_bytes": cycle.pci_bytes_one_tier,
            "first_tier_bytes": cycle.pci_first_tier_bytes,
            "offset_list_bytes": cycle.offset_list_bytes,
        }
        if cycle.phase_seconds:
            record["phase_seconds"] = dict(cycle.phase_seconds)
        records.append(record)
    for client in result.clients:
        records.append(
            {
                "kind": "client",
                "query": client.query_text,
                "protocol": client.protocol,
                "arrival": client.arrival_time,
                "result_docs": client.result_doc_count,
                "cycles": client.cycles_listened,
                "probe_bytes": client.probe_bytes,
                "index_bytes": client.index_bytes,
                "offset_bytes": client.offset_bytes,
                "doc_bytes": client.doc_bytes,
                "index_lookup_bytes": client.index_lookup_bytes,
                "tuning_bytes": client.tuning_bytes,
                "access_bytes": client.access_bytes,
            }
        )
    if result.metrics is not None:
        records.append({"kind": "metrics", "snapshot": result.metrics})
    meta = {
        "collection_bytes": result.collection_bytes,
        "document_count": result.document_count,
        "completed": result.completed,
    }
    return _write(file_path, meta, records)


def _validate_record(record: Dict, path: pathlib.Path, line_number: int) -> None:
    kind = record["kind"]
    required = _REQUIRED_KEYS.get(kind)
    if required is None:
        raise ValueError(
            f"{path}:{line_number}: unknown record kind {kind!r} "
            f"(expected one of {sorted(_REQUIRED_KEYS)})"
        )
    missing = [key for key in required if key not in record]
    if missing:
        raise ValueError(
            f"{path}:{line_number}: {kind} record missing required "
            f"key(s): {', '.join(missing)}"
        )


def load_trace(file_path: PathLike) -> List[Dict]:
    """Read a format-3 trace back as a list of validated records.

    Every record must name a known ``kind`` and carry that kind's
    required keys; violations raise :class:`ValueError` with
    ``file:line`` context instead of surfacing later as a bare
    ``KeyError`` from the analysis helpers.  A trace of an older format
    is refused the same way: re-export it.
    """
    path = pathlib.Path(file_path)
    numbered: List[tuple] = []
    for line_number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_number}: bad JSON: {exc}") from exc
        if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
            raise ValueError(f"{path}:{line_number}: record without a string 'kind'")
        numbered.append((line_number, record))
    if not numbered or numbered[0][1]["kind"] != "meta":
        raise ValueError(f"{path}: trace must start with a meta record")
    line_number, meta = numbered[0]
    # An int, not merely equal to one (``True == 1`` and ``3.0 == 3``).
    if type(meta.get("format")) is not int or meta["format"] != _FORMAT_VERSION:
        raise ValueError(
            f"{path}:{line_number}: unsupported trace format "
            f"{meta.get('format')!r} (this version reads format "
            f"{_FORMAT_VERSION}; re-export the trace)"
        )
    for line_number, record in numbered:
        _validate_record(record, path, line_number)
    return [record for _, record in numbered]


@dataclass(frozen=True)
class TraceSummary:
    """Aggregates recomputed from a trace (no simulator needed)."""

    cycles: int
    total_broadcast_bytes: int
    mean_pci_bytes: float
    clients: int
    protocols: Dict[str, Dict[str, float]]
    #: summed per-cycle server phase seconds (observed runs only)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: the embedded metrics snapshot, when the trace carries one
    metrics: Optional[Dict] = None

    def lookup_mean(self, protocol: str) -> float:
        return self.protocols.get(protocol, {}).get("index_lookup_bytes", 0.0)


def summarise_trace(records: List[Dict]) -> TraceSummary:
    """Summary statistics straight from trace records."""
    cycles = [r for r in records if r["kind"] == "cycle"]
    clients = [r for r in records if r["kind"] == "client"]
    snapshot = next(
        (r["snapshot"] for r in records if r["kind"] == "metrics"), None
    )
    by_protocol: Dict[str, List[Dict]] = {}
    for client in clients:
        by_protocol.setdefault(client["protocol"], []).append(client)

    def mean(rows: List[Dict], key: str) -> float:
        return sum(row[key] for row in rows) / len(rows) if rows else 0.0

    protocols = {
        name: {
            "count": float(len(rows)),
            "index_lookup_bytes": mean(rows, "index_lookup_bytes"),
            "tuning_bytes": mean(rows, "tuning_bytes"),
            "access_bytes": mean(rows, "access_bytes"),
            "cycles": mean(rows, "cycles"),
        }
        for name, rows in by_protocol.items()
    }
    phase_totals: Dict[str, float] = {}
    for cycle in cycles:
        for name, seconds in cycle.get("phase_seconds", {}).items():
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds
    return TraceSummary(
        cycles=len(cycles),
        total_broadcast_bytes=sum(c["total_bytes"] for c in cycles),
        mean_pci_bytes=(
            sum(c["pci_bytes"] for c in cycles) / len(cycles) if cycles else 0.0
        ),
        clients=len(clients),
        protocols=protocols,
        phase_seconds=phase_totals,
        metrics=snapshot,
    )
