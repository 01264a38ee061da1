"""Daemon telemetry plane: /metrics, /healthz, wire tracing, events,
flight recorder.

Acceptance for the telemetry PR: a scripted TCP client run produces a v3
trace where every traced query carries a complete span chain whose
latency components are non-negative and additive, and a live scrape of
``/metrics`` lints clean against the OpenMetrics grammar while covering
the server and net metric families.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import pathlib
import re

import pytest

from repro import obs
from repro.broadcast.server import DocumentStore
from repro.net import (
    AsyncTwoTierClient,
    BroadcastDaemon,
    DaemonConfig,
    DaemonStats,
    RouterStats,
)
from repro.net.uplink import round_trip
from repro.obs.telemetry import (
    EventLog,
    FlightRecorder,
    TelemetryConfig,
    lint_openmetrics,
    load_flight_record,
    scrape,
)
from repro.obs.telemetry.exporter import stat_table
from repro.sim.config import small_setup
from repro.tools.trace import export_query_traces, load_trace


@pytest.fixture(scope="module")
def store(nitf_docs):
    return DocumentStore(nitf_docs[:30])


@pytest.fixture()
def config():
    return small_setup(document_count=30)


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def _with_daemon(store, config, net, body):
    daemon = BroadcastDaemon(store, config, net)
    await daemon.start()
    try:
        return await body(daemon)
    finally:
        daemon.request_stop()
        await daemon.wait_done()


class TestMetricsEndpoint:
    def test_scrape_lints_and_covers_families(self, store, config):
        async def body(daemon):
            client = AsyncTwoTierClient(
                "//nitf", port=daemon.port, arrival_time=0
            )
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            await client.run_session()
            await client.close()
            status, text = await scrape("127.0.0.1", daemon.metrics_port)
            health_status, health = await scrape(
                "127.0.0.1", daemon.metrics_port, path="/healthz"
            )
            return status, text, health_status, health, daemon.status()

        net = DaemonConfig(
            autostart=False, telemetry=TelemetryConfig(metrics_port=0)
        )
        status, text, health_status, health, daemon_status = _run(
            _with_daemon(store, config, net, body)
        )
        assert status == 200
        lint_openmetrics(text)
        # Registry-side families (spans + per-channel counters) ...
        assert "server_cycles_total" in text
        assert 'net_on_air_bytes_total{channel="0"}' in text
        assert 'span_seconds_total{span="net.cycle_build"}' in text
        # ... and daemon-stat families, agreeing with STATUS.
        assert f"net_queries_admitted_total {daemon_status['admitted']}" in text
        assert "net_connections_total 1" in text
        assert health_status == 200
        assert json.loads(health)["status"] == "ok"

    def test_healthz_reports_draining(self, store, config):
        async def body(daemon):
            code_live, payload_live = daemon._health()
            daemon._draining = True
            code_drain, payload_drain = daemon._health()
            daemon._draining = False
            return code_live, payload_live, code_drain, payload_drain

        net = DaemonConfig(
            autostart=False, telemetry=TelemetryConfig(metrics_port=0)
        )
        code_live, payload_live, code_drain, payload_drain = _run(
            _with_daemon(store, config, net, body)
        )
        assert code_live == 200 and payload_live["status"] == "ok"
        assert code_drain == 503 and payload_drain["status"] == "draining"

    def test_registry_restored_after_stop(self, store, config):
        async def body(daemon):
            assert obs.is_enabled()
            return True

        net = DaemonConfig(
            autostart=False, telemetry=TelemetryConfig(metrics_port=0)
        )
        assert not obs.is_enabled()
        assert _run(_with_daemon(store, config, net, body))
        assert not obs.is_enabled()

    def test_no_telemetry_means_no_registry_no_port(self, store, config):
        async def body(daemon):
            return daemon.metrics_port, obs.is_enabled()

        port, enabled = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        assert port is None
        assert not enabled


class TestWireTracing:
    def test_trace_echo_only_when_requested(self, store, config):
        async def body(daemon):
            return [
                await round_trip("127.0.0.1", daemon.port, line)
                for line in (
                    "SUBMIT AT=0 //nitf",
                    "SUBMIT AT=0 TRACE= //body",
                    "SUBMIT AT=0 TRACE=abc //head",
                )
            ]

        net = DaemonConfig(autostart=False)
        plain, traced, named = _run(_with_daemon(store, config, net, body))
        assert "TRACE=" not in plain, "untraced SUBMIT must not grow"
        assert traced.split()[-1].startswith("TRACE=")
        assert named.split()[-1] == "TRACE=abc"

    def test_end_to_end_components_are_additive(self, store, config):
        """Acceptance: full span chain, non-negative additive components."""

        async def body(daemon):
            clients = [
                AsyncTwoTierClient(
                    q, port=daemon.port, arrival_time=0, trace=True
                )
                for q in ("//nitf", "//body", "//head")
            ]
            for c in clients:
                await c.connect()
                await c.tune()
            for c in clients:
                await c.submit()
            daemon.start_broadcast()
            reports = await asyncio.gather(*(c.run_session() for c in clients))
            for c in clients:
                await c.close()
            return reports

        net = DaemonConfig(autostart=False)
        reports = _run(_with_daemon(store, config, net, body))
        assert all(r.satisfied for r in reports)
        for report in reports:
            trace = report.trace
            assert trace is not None
            comp = trace.components()
            parts = ("queue", "build", "on_air", "tune")
            for part in parts:
                assert comp[f"{part}_seconds"] >= 0.0
            assert sum(
                comp[f"{p}_seconds"] for p in parts
            ) == pytest.approx(comp["total_seconds"])
            spans = trace.spans()
            assert spans[0]["name"] == "query"
            assert {s["name"] for s in spans[1:]} == {
                "admit", "queue", "build", "on_air", "tune"
            }

    def test_v3_artifact_round_trip(self, store, config, tmp_path):
        async def body(daemon):
            client = AsyncTwoTierClient(
                "//nitf", port=daemon.port, arrival_time=0, trace=True
            )
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            report = await client.run_session()
            await client.close()
            return report

        net = DaemonConfig(autostart=False)
        report = _run(_with_daemon(store, config, net, body))
        path = export_query_traces([report.trace], tmp_path / "wire.jsonl")
        records = load_trace(path)
        assert records[0]["format"] == 3
        traces = [r for r in records if r["kind"] == "query_trace"]
        assert len(traces) == 1
        assert traces[0]["query"] == "//nitf"

        from repro.obs.report import report_from_trace

        rendered = report_from_trace(records).render()
        assert "Wire latency breakdown" in rendered

    def test_untraced_client_unchanged(self, store, config):
        async def body(daemon):
            client = AsyncTwoTierClient(
                "//nitf", port=daemon.port, arrival_time=0
            )
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            report = await client.run_session()
            await client.close()
            return report

        report = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        assert report.satisfied
        assert report.trace is None


class TestEventsAndFlight:
    def test_daemon_emits_structured_events(self, store, config):
        sink = io.StringIO()

        async def body(daemon):
            client = AsyncTwoTierClient(
                "//nitf", port=daemon.port, arrival_time=0
            )
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            await client.run_session()
            await client.close()
            return True

        net = DaemonConfig(
            autostart=False,
            telemetry=TelemetryConfig(
                events=EventLog(sink=sink, level="debug")
            ),
        )
        _run(_with_daemon(store, config, net, body))
        events = [json.loads(l)["event"] for l in sink.getvalue().splitlines()]
        assert "connection_open" in events
        assert "admit" in events
        assert "cycle_built" in events
        assert "cycle_streamed" in events
        assert "drain_begin" in events
        assert "server_bye" in events

    def test_err_reply_dumps_flight(self, store, config, tmp_path):
        flight = FlightRecorder()

        async def body(daemon):
            return await round_trip(
                "127.0.0.1", daemon.port, "SUBMIT //no(t)valid"
            )

        net = DaemonConfig(
            autostart=False,
            telemetry=TelemetryConfig(
                flight=flight, flight_dir=tmp_path / "flights"
            ),
        )
        reply = _run(_with_daemon(store, config, net, body))
        assert reply.startswith("ERR")
        assert len(flight.dumps) == 1
        payload = load_flight_record(flight.dumps[0])
        assert payload["reason"] == "err"
        assert payload["context"]["documents"] == 30
        assert any(
            e["event"] == "uplink_err" for e in payload["events"]
        )

    def test_flight_captures_recent_cycles(self, store, config):
        flight = FlightRecorder(cycle_capacity=4)

        async def body(daemon):
            client = AsyncTwoTierClient(
                "//nitf", port=daemon.port, arrival_time=0
            )
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            await client.run_session()
            await client.close()
            return daemon.stats.cycles_streamed

        net = DaemonConfig(
            autostart=False, telemetry=TelemetryConfig(flight=flight)
        )
        streamed = _run(_with_daemon(store, config, net, body))
        assert streamed >= 1
        assert 1 <= len(flight.cycles) <= 4
        record = flight.cycles[-1]
        assert record["total_bytes"] > 0
        assert "signature" in record
        assert record["doc_ids"]

    def test_status_mirrors_stats_dataclass(self, store, config):
        async def body(daemon):
            client = AsyncTwoTierClient(
                "//nitf", port=daemon.port, arrival_time=0
            )
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            await client.run_session()
            await client.close()
            return daemon.status(), daemon.stats

        status, stats = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        assert status["admitted"] == stats.admitted_total
        assert status["rejected"] == stats.rejected_total
        assert stats.cycles_streamed >= 1
        assert stats.bytes_streamed > 0
        assert stats.rejected_total == (
            stats.rejected_overload + stats.rejected_closed
        )


class TestStatDeclarations:
    """Every stat is declared once; no surface may drift from another."""

    def test_rejected_family_sums_to_status_rejected(self, store, config):
        """Regression: ``rejected_shed`` counted toward STATUS
        ``rejected`` but had no ``/metrics`` series, so the family the
        docs call identical to STATUS undercounted under shedding."""

        async def body(daemon):
            port = daemon.port

            async def submit(query):
                return await round_trip("127.0.0.1", port, f"SUBMIT AT=0 {query}")

            assert (await submit("//nitf")).startswith("ACK")
            daemon.controller.shedding = True  # no hot set: every query is cold
            shed = await submit("//body")
            daemon.controller.shedding = False
            assert (await submit("//body")).startswith("ACK")
            overload = await submit("//head")  # pending 2 == max_pending
            daemon.net.max_pending = 3
            assert (await submit("//head")).startswith("ACK")
            closed = await submit("//nitf")  # admitted 3 == max_queries
            assert shed.startswith("RETRY_AFTER") and overload.startswith("RETRY_AFTER")
            assert closed == "ERR admission closed"
            _, text = await scrape("127.0.0.1", daemon.metrics_port)
            return text, daemon.status()

        net = DaemonConfig(
            autostart=False,
            max_pending=2,
            max_queries=3,
            telemetry=TelemetryConfig(metrics_port=0),
        )
        text, status = _run(
            _with_daemon(store, config.with_(adaptive=True), net, body)
        )
        lint_openmetrics(text)
        rejected = {
            line.split()[0]: int(line.split()[1])
            for line in text.splitlines()
            if line.startswith("net_queries_rejected_total")
        }
        assert rejected == {
            'net_queries_rejected_total{reason="overload"}': 1,
            'net_queries_rejected_total{reason="closed"}': 1,
            'net_queries_rejected_total{reason="shed"}': 1,
        }
        assert sum(rejected.values()) == status["rejected"] == 3

    def test_documented_table_is_the_declaration(self):
        """Both directions, as ``ledger/selfcheck.py`` does for ledger
        names: every declared stat is in the ``docs/OBSERVABILITY.md``
        table and every row of the table is a declared stat."""
        doc = (
            pathlib.Path(__file__).parents[2] / "docs" / "OBSERVABILITY.md"
        ).read_text(encoding="utf-8")
        block = doc.split("<!-- stats:begin -->\n")[1].split("<!-- stats:end -->")[0]
        documented = set(re.findall(r"^\| `(\w+\.\w+)` \|", block, flags=re.M))
        declared = {
            f"{cls.__name__}.{field.name}"
            for cls in (DaemonStats, RouterStats)
            for field in dataclasses.fields(cls)
            if "stat" in field.metadata
        }
        assert declared - documented == set(), "declared but not documented"
        assert documented - declared == set(), "documented but not declared"
        assert block == stat_table(DaemonStats, RouterStats), (
            "regenerate the block: PYTHONPATH=src python -c \"from repro.net import "
            "DaemonStats, RouterStats; from repro.obs.telemetry.exporter import "
            "stat_table; print(stat_table(DaemonStats, RouterStats), end='')\""
        )
