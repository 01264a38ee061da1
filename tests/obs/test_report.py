"""End-to-end checks of the observed simulation and perf report.

These pin the ISSUE's acceptance criteria: an observed run reports
wall-clock timings for at least six distinct server/client phases, its
byte counters reconcile exactly with the SimulationResult totals, and a
run with observability off (the default) is byte-identical to an
observed one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.obs.report import report_from_trace
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.tools.trace import export_trace, load_trace, trace_records


def report_of(result):
    """What ``repro stats`` reports for a fresh run."""
    return report_from_trace(trace_records(result), source="run")


@pytest.fixture(scope="module")
def observed_result():
    with obs.observed() as registry:
        result = run_simulation(small_setup())
    assert result.metrics is not None
    return result, registry


class TestObservedRun:
    def test_at_least_six_distinct_phases(self, observed_result):
        result, _ = observed_result
        spans = result.metrics["spans"]
        server_client = [
            name for name in spans
            if name.startswith(("server.", "client."))
        ]
        assert len(server_client) >= 6, sorted(spans)
        for name in server_client:
            assert spans[name]["count"] > 0

    def test_expected_server_phases_present(self, observed_result):
        result, _ = observed_result
        spans = set(result.metrics["spans"])
        assert {
            "server.query_filtering",
            "server.ci_build",
            "server.prune_to_pci",
            "server.two_tier_split",
            "server.scheduling",
            "server.cycle_assembly",
        } <= spans

    def test_expected_client_phases_present(self, observed_result):
        result, _ = observed_result
        spans = set(result.metrics["spans"])
        assert {
            "client.probe",
            "client.first_tier_read",
            "client.offset_read",
            "client.doc_download",
        } <= spans

    def test_broadcast_byte_counters_reconcile(self, observed_result):
        result, _ = observed_result
        counters = result.metrics["counters"]
        assert counters["server.broadcast_bytes_total"] == sum(
            c.total_bytes for c in result.cycles
        )
        assert counters["server.data_bytes_total"] == sum(
            c.data_bytes for c in result.cycles
        )
        assert counters["server.cycles_total"] == len(result.cycles)

    def test_client_byte_counters_reconcile(self, observed_result):
        result, _ = observed_result
        counters = result.metrics["counters"]
        for protocol in ("one-tier", "two-tier"):
            records = result.records_for(protocol)
            label = f'{{protocol="{protocol}"}}'
            assert counters[f"client.probe_bytes_total{label}"] == sum(
                r.probe_bytes for r in records
            )
            assert counters[f"client.doc_bytes_total{label}"] == sum(
                r.doc_bytes for r in records
            )
            assert counters[f"client.index_bytes_total{label}"] == sum(
                r.index_bytes for r in records
            )
            assert counters[f"client.offset_bytes_total{label}"] == sum(
                r.offset_bytes for r in records
            )
            assert counters[f"client.cycles_listened_total{label}"] == sum(
                r.cycles_listened for r in records
            )

    def test_per_cycle_phase_seconds_populated(self, observed_result):
        result, _ = observed_result
        for cycle in result.cycles:
            assert cycle.phase_seconds, f"cycle {cycle.cycle_number} has no phases"
            assert all(v >= 0.0 for v in cycle.phase_seconds.values())


class TestObservabilityOffIdentity:
    def test_disabled_run_matches_observed_run(self, observed_result):
        """The acceptance bar: instrumentation must never steer results."""
        observed, _ = observed_result
        plain = run_simulation(small_setup())
        assert plain.metrics is None
        assert plain.clients == observed.clients
        # Cycle records differ only in phase_seconds (empty when disabled).
        assert len(plain.cycles) == len(observed.cycles)
        for bare, seen in zip(plain.cycles, observed.cycles):
            assert bare.phase_seconds == {}
            assert bare.total_bytes == seen.total_bytes
            assert bare.data_bytes == seen.data_bytes
            assert bare.scheduled_docs == seen.scheduled_docs
            assert bare.start_time == seen.start_time


class TestPerfReport:
    def test_report_from_result(self, observed_result):
        result, _ = observed_result
        report = report_of(result)
        assert report.source == "run"
        assert report.cycles == len(result.cycles)
        assert report.clients == len(result.clients)
        assert len(report.phases) >= 6
        assert report.bytes["broadcast_total"] == sum(
            c.total_bytes for c in result.cycles
        )
        assert (
            report.bytes["data_total"] + report.bytes["index_total"]
            == report.bytes["broadcast_total"]
        )
        per_protocol = report.bytes["clients"]
        for protocol in ("one-tier", "two-tier"):
            records = result.records_for(protocol)
            assert per_protocol[protocol]["sessions"] == len(records)
            assert per_protocol[protocol]["docs"] == sum(
                r.doc_bytes for r in records
            )

    def test_render_and_json(self, observed_result):
        import json

        result, _ = observed_result
        report = report_of(result)
        text = report.render()
        assert "Phase timings" in text
        assert "Channel bytes" in text
        assert "server.prune_to_pci" in text
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["source"] == "run"
        assert len(payload["phases"]) >= 6

    def test_report_from_trace_matches_run(self, observed_result, tmp_path):
        """One builder: a run's report and its exported trace's report
        agree on every field but ``source``."""
        result, _ = observed_result
        path = tmp_path / "run.jsonl"
        export_trace(result, path)
        from_trace = report_from_trace(load_trace(path))
        from_run = report_of(result)
        assert (from_run.source, from_trace.source) == ("run", "trace")
        assert dataclasses.replace(from_run, source="trace") == from_trace

    def test_report_answers_what_the_run_summary_does(self, observed_result):
        result, _ = observed_result
        report = report_of(result)
        assert report.bytes["pci_mean"] == pytest.approx(result.mean_pci_bytes())
        for protocol in ("one-tier", "two-tier"):
            sums = report.bytes["clients"][protocol]
            sessions = sums["sessions"]
            assert sums["index_lookup"] / sessions == pytest.approx(
                result.mean_index_lookup_bytes(protocol)
            )
            assert sums["access"] / sessions == pytest.approx(
                result.mean_access_bytes(protocol)
            )
            assert sums["cycles_listened"] / sessions == pytest.approx(
                result.mean_cycles_listened(protocol)
            )
