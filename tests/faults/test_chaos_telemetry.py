"""Chaos harness telemetry: events, flight capture, dump-on-violation."""

from __future__ import annotations

import pytest

from repro.faults.chaos import ChaosInvariantError, ChaosSimulation
from repro.faults.plan import default_fault_plan
from repro.obs.telemetry import EventLog, FlightRecorder, load_flight_record
from repro.sim.config import small_setup


@pytest.fixture(scope="module")
def chaos_config():
    return small_setup(document_count=25, n_q=6, arrival_cycles=2).with_(
        faults=default_fault_plan(3)
    )


class TestChaosEvents:
    def test_run_emits_structured_events_without_timestamps(
        self, chaos_config
    ):
        seen = []
        log = EventLog(sink=None, level="debug")
        log.add_listener(seen.append)
        ChaosSimulation(chaos_config, events=log).run()
        assert seen, "a faulted run should emit telemetry events"
        # Deterministic harness: no wall-clock timestamps, ever.
        assert all("ts" not in record for record in seen)
        kinds = {record["event"] for record in seen}
        # The default plan injects mutations and uplink faults within
        # its window; at least one of the chaos event kinds must fire.
        assert kinds & {
            "chaos_mutation",
            "chaos_uplink_faulted",
            "chaos_uplink_rejected",
        }

    def test_no_telemetry_run_unchanged(self, chaos_config):
        """Results are identical with and without the event log."""
        plain = ChaosSimulation(chaos_config).run()
        logged = ChaosSimulation(
            chaos_config, events=EventLog(sink=None, level="debug")
        ).run()
        assert plain.completed == logged.completed
        assert len(plain.cycles) == len(logged.cycles)
        assert [c.total_bytes for c in plain.cycles] == [
            c.total_bytes for c in logged.cycles
        ]


class TestChaosFlight:
    def test_flight_captures_cycles_and_context(self, chaos_config):
        flight = FlightRecorder(cycle_capacity=8)
        ChaosSimulation(chaos_config, flight=flight).run()
        assert flight.cycles_seen >= 1
        assert 1 <= len(flight.cycles) <= 8
        assert flight.context["harness"] == "chaos"
        assert flight.context["fault_seed"] == 3
        record = flight.cycles[-1]
        assert record["total_bytes"] > 0
        assert "pending_after" in record

    def test_flight_entry_is_the_cycle_record_plus_context(self, chaos_config):
        """A superset of the keys the entry always had (``FLIGHT_FORMAT``
        stays 1): the cycle's trace record, plus what it does not hold."""
        from repro.tools.trace import CYCLE_KEYS, trace_form

        flight = FlightRecorder(cycle_capacity=4)
        sim = ChaosSimulation(chaos_config, flight=flight)
        sim.run()
        record = flight.cycles[-1]
        assert {
            "cycle", "start", "doc_ids", "total_bytes", "data_bytes",
            "degraded", "pending_after", "phase_seconds", "signature",
        } <= set(record)
        server_record = sim.server.records[record["cycle"]]
        assert trace_form(server_record, CYCLE_KEYS).items() <= record.items()

    def test_invariant_violation_dumps_artifact(
        self, chaos_config, tmp_path, monkeypatch
    ):
        flight = FlightRecorder()
        sim = ChaosSimulation(
            chaos_config, flight=flight, flight_dir=tmp_path / "flights"
        )

        def explode():
            raise ChaosInvariantError("synthetic violation for the test")

        monkeypatch.setattr(sim, "_check_invariants", explode)
        with pytest.raises(ChaosInvariantError):
            sim.run()
        assert len(flight.dumps) == 1
        payload = load_flight_record(flight.dumps[0])
        assert payload["reason"] == "chaos-invariant"
        assert payload["context"]["harness"] == "chaos"
        assert payload["cycles"], "artifact should carry the failing cycle"
        assert any(
            e["event"] == "chaos_invariant_violated" for e in payload["events"]
        )
