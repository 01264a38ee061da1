"""Perf-report assembly: phase timings plus byte accounting.

One function builds a :class:`PerfReport`: :func:`report_from_trace`,
from trace records -- a saved JSONL trace (``repro stats --trace``) or
the records a fresh observed run would export
(:func:`~repro.tools.trace.trace_records`, ``repro stats``), so a run
and its own trace report alike.  An observed run's metrics snapshot
gives the phase table, and wire traces add per-query latency breakdowns
(``query_trace`` records from :mod:`repro.obs.telemetry`).

The report renders as fixed-width tables (``render()``) for humans and as
JSON (``to_json()``) for the benchmark harness, which persists it as a
``BENCH_*.json`` perf snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.report import format_table

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


#: per-protocol client sums: report key -> ``client`` trace record key
_CLIENT_SUMS = {
    "probe": "probe_bytes",
    "index": "index_bytes",
    "offsets": "offset_bytes",
    "docs": "doc_bytes",
    "index_lookup": "index_lookup_bytes",
    "tuning": "tuning_bytes",
    "access": "access_bytes",
    "cycles_listened": "cycles",
}


def _client_totals(clients: List[Dict]) -> Dict[str, Dict[str, int]]:
    """Per-protocol sums of the ``client`` records, plus session counts."""
    totals: Dict[str, Dict[str, int]] = {}
    for record in clients:
        sums = totals.setdefault(
            record["protocol"], dict.fromkeys([*_CLIENT_SUMS, "sessions"], 0)
        )
        for name, key in _CLIENT_SUMS.items():
            sums[name] += record[key]
        sums["sessions"] += 1
    return totals


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


def report_from_trace(records: List[Dict], source: str = "trace") -> PerfReport:
    """Build the report from trace records (``meta`` first).

    An observed run's metrics snapshot gives the phase table (records
    without one yield byte accounting only); ``query_trace`` records
    add the wire latency breakdown.
    """
    cycles = [r for r in records if r["kind"] == "cycle"]
    clients = [r for r in records if r["kind"] == "client"]
    snapshot: Dict = next(
        (r["snapshot"] for r in records if r["kind"] == "metrics"), {}
    )
    broadcast_total = sum(c["total_bytes"] for c in cycles)
    data_total = sum(c["data_bytes"] for c in cycles)
    return PerfReport(
        source=source,
        cycles=len(cycles),
        clients=len(clients),
        phases=dict(snapshot.get("spans", {})),
        bytes={
            "broadcast_total": broadcast_total,
            "data_total": data_total,
            "index_total": broadcast_total - data_total,
            "collection_bytes": records[0]["collection_bytes"],
            "pci_mean": (
                sum(c["pci_bytes"] for c in cycles) / len(cycles) if cycles else 0.0
            ),
            "clients": _client_totals(clients),
        },
        counters=dict(snapshot.get("counters", {})),
        wire_latencies=_wire_latency_rows(records),
    )
