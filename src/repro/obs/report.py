"""Perf-report assembly: phase timings plus byte accounting.

One :class:`PerfReport` can be built from two sources:

* a finished :class:`~repro.sim.results.SimulationResult` whose run was
  observed (``obs.observed()``), via :func:`report_from_result`;
* a saved JSONL trace, via :func:`report_from_trace` -- a trace of an
  observed run carries the metrics snapshot, and wire traces add
  per-query latency breakdowns (``query_trace`` records from
  :mod:`repro.obs.telemetry`).

The report renders as fixed-width tables (``render()``) for humans and as
JSON (``to_json()``) for the benchmark harness, which persists it as a
``BENCH_*.json`` perf snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.report import format_table
from repro.sim.results import SimulationResult

#: snapshot span keys are qualified (``server.ci_build``); the report
#: keeps them as-is so server/client/sim phases sort into groups.
PhaseStats = Dict[str, float]


@dataclass(frozen=True)
class PerfReport:
    """Phase-timing and byte-accounting view of one run or trace."""

    source: str  #: "run" or "trace"
    cycles: int
    clients: int
    #: span name -> {count, total_seconds, self_seconds, min_seconds, max_seconds}
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: byte accounting reconciled with the simulation totals
    bytes: Dict[str, object] = field(default_factory=dict)
    #: raw counter values from the metrics snapshot (empty without one)
    counters: Dict[str, int] = field(default_factory=dict)
    #: per-query wire latency rows (v3 ``query_trace`` records)
    wire_latencies: List[Dict[str, object]] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "cycles": self.cycles,
            "clients": self.clients,
            "phases": self.phases,
            "bytes": self.bytes,
            "counters": self.counters,
            "wire_latencies": self.wire_latencies,
        }

    def render(self) -> str:
        parts: List[str] = []
        if self.phases:
            rows = [
                (
                    name,
                    int(stats["count"]),
                    stats["total_seconds"] * 1e3,
                    stats["self_seconds"] * 1e3,
                    (stats["total_seconds"] / stats["count"]) * 1e6
                    if stats["count"]
                    else 0.0,
                )
                for name, stats in sorted(self.phases.items())
            ]
            parts.append(
                format_table(
                    "Phase timings",
                    ("phase", "calls", "total ms", "self ms", "mean us"),
                    rows,
                    note=f"{self.cycles} cycles, {self.clients} client sessions "
                    f"(source: {self.source})",
                )
            )
        else:
            parts.append(
                "Phase timings unavailable: run with observability enabled "
                "(`repro stats` without --trace) or use an observed run's trace."
            )
        channel_rows = [
            ("broadcast total", self.bytes.get("broadcast_total", 0)),
            ("data segments", self.bytes.get("data_total", 0)),
            ("index segments", self.bytes.get("index_total", 0)),
        ]
        parts.append(
            format_table("Channel bytes", ("segment", "bytes"), channel_rows)
        )
        client_bytes: Dict[str, Dict[str, int]] = self.bytes.get("clients", {})
        if client_bytes:
            rows = [
                (
                    protocol,
                    sums.get("probe", 0),
                    sums.get("index", 0),
                    sums.get("offsets", 0),
                    sums.get("docs", 0),
                    sums.get("index_lookup", 0),
                    sums.get("tuning", 0),
                )
                for protocol, sums in sorted(client_bytes.items())
            ]
            parts.append(
                format_table(
                    "Client tuning bytes (totals per protocol)",
                    ("protocol", "probe", "index", "offsets", "docs",
                     "index lookup", "tuning"),
                    rows,
                )
            )
        if self.wire_latencies:
            rows = [
                (
                    row["trace_id"],
                    row["query"],
                    row["queue_ms"],
                    row["build_ms"],
                    row["on_air_ms"],
                    row["tune_ms"],
                    row["total_ms"],
                )
                for row in self.wire_latencies
            ]
            parts.append(
                format_table(
                    "Wire latency breakdown (per traced query)",
                    ("trace", "query", "queue ms", "build ms",
                     "on-air ms", "tune ms", "total ms"),
                    rows,
                    note="components are additive: "
                    "queue + build + on-air + tune = total",
                )
            )
        return "\n\n".join(parts)


def _client_byte_totals(rows) -> Dict[str, Dict[str, int]]:
    """Per-protocol byte sums from (protocol, probe, index, offsets, docs,
    index_lookup, tuning) tuples."""
    totals: Dict[str, Dict[str, int]] = {}
    for protocol, probe, index, offsets, docs, lookup, tuning in rows:
        sums = totals.setdefault(
            protocol,
            {"probe": 0, "index": 0, "offsets": 0, "docs": 0,
             "index_lookup": 0, "tuning": 0, "sessions": 0},
        )
        sums["probe"] += probe
        sums["index"] += index
        sums["offsets"] += offsets
        sums["docs"] += docs
        sums["index_lookup"] += lookup
        sums["tuning"] += tuning
        sums["sessions"] += 1
    return totals


def report_from_result(result: SimulationResult) -> PerfReport:
    """Build the report from a finished run (phases need an observed run)."""
    snapshot = result.metrics or {}
    broadcast_total = sum(c.total_bytes for c in result.cycles)
    data_total = sum(c.data_bytes for c in result.cycles)
    client_rows = [
        (r.protocol, r.probe_bytes, r.index_bytes, r.offset_bytes,
         r.doc_bytes, r.index_lookup_bytes, r.tuning_bytes)
        for r in result.clients
    ]
    return PerfReport(
        source="run",
        cycles=len(result.cycles),
        clients=len(result.clients),
        phases=dict(snapshot.get("spans", {})),
        bytes={
            "broadcast_total": broadcast_total,
            "data_total": data_total,
            "index_total": broadcast_total - data_total,
            "collection_bytes": result.collection_bytes,
            "clients": _client_byte_totals(client_rows),
        },
        counters=dict(snapshot.get("counters", {})),
    )


def _wire_latency_rows(records: List[Dict]) -> List[Dict[str, object]]:
    """Flatten v3 ``query_trace`` records into render-ready ms rows."""
    rows: List[Dict[str, object]] = []
    for record in records:
        if record.get("kind") != "query_trace":
            continue
        comp = record["components"]
        rows.append(
            {
                "trace_id": record["trace_id"],
                "query": record["query"],
                "queue_ms": round(comp["queue_seconds"] * 1e3, 3),
                "build_ms": round(comp["build_seconds"] * 1e3, 3),
                "on_air_ms": round(comp["on_air_seconds"] * 1e3, 3),
                "tune_ms": round(comp["tune_seconds"] * 1e3, 3),
                "total_ms": round(comp["total_seconds"] * 1e3, 3),
            }
        )
    return rows


def report_from_trace(records: List[Dict]) -> PerfReport:
    """Build the report from loaded trace records.

    An observed run's metrics snapshot gives the phase table (a trace
    without one yields byte accounting only); ``query_trace`` records
    add the wire latency breakdown.
    """
    cycles = [r for r in records if r["kind"] == "cycle"]
    clients = [r for r in records if r["kind"] == "client"]
    snapshot: Dict = next(
        (r["snapshot"] for r in records if r["kind"] == "metrics"), {}
    )
    broadcast_total = sum(c["total_bytes"] for c in cycles)
    data_total = sum(c["data_bytes"] for c in cycles)
    meta = records[0]
    client_rows = [
        (
            r["protocol"],
            r["probe_bytes"],
            r["index_bytes"],
            r["offset_bytes"],
            r["doc_bytes"],
            r["index_lookup_bytes"],
            r["tuning_bytes"],
        )
        for r in clients
    ]
    return PerfReport(
        source="trace",
        cycles=len(cycles),
        clients=len(clients),
        phases=dict(snapshot.get("spans", {})),
        bytes={
            "broadcast_total": broadcast_total,
            "data_total": data_total,
            "index_total": broadcast_total - data_total,
            "collection_bytes": meta["collection_bytes"],
            "clients": _client_byte_totals(client_rows),
        },
        counters=dict(snapshot.get("counters", {})),
        wire_latencies=_wire_latency_rows(records),
    )
