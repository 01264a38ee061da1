"""Soak test: a longer run with global conservation checks.

A mid-size simulation (hundreds of sessions, tens of cycles, cycle
validation on) with assertions that only hold if *all* the bookkeeping
across server, scheduler, program builder and clients is consistent.
"""

from __future__ import annotations

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.simulation import Simulation
from repro.xpath.evaluator import matching_documents
from tests.sim.validating import ValidatingSimulation


@pytest.fixture(scope="module")
def soak():
    config = SimulationConfig(
        document_count=150,
        n_q=60,
        arrival_cycles=3,
        cycle_data_capacity=60_000,
        max_cycles=300,
    )
    simulation = ValidatingSimulation(config)
    result = simulation.run()
    return config, simulation, result


class TestGlobalConservation:
    def test_run_drains_with_validation_on(self, soak):
        _config, _sim, result = soak
        assert result.completed
        assert len(result.cycles) > 10

    def test_every_session_accounted(self, soak):
        config, _sim, result = soak
        sessions = config.total_queries()
        assert len(result.records_for("one-tier")) == sessions
        assert len(result.records_for("two-tier")) == sessions

    def test_clients_received_exact_oracle_sets(self, soak):
        _config, simulation, _result = soak
        documents = simulation.documents
        for session in simulation.sessions:
            expected = matching_documents(session.plan.query, documents)
            for client in session.clients:
                assert client.received_doc_ids == expected, str(session.plan.query)

    def test_server_queue_empty(self, soak):
        _config, simulation, _result = soak
        assert simulation.server.pending == []
        assert len(simulation.server.completed) > 0

    def test_downloads_confined_to_requested_documents(self, soak):
        _config, simulation, _result = soak
        requested = set()
        for session in simulation.sessions:
            requested |= set(session.pending.result_doc_ids)
        downloaded = set()
        for session in simulation.sessions:
            for client in session.clients:
                downloaded |= client.received_doc_ids
        assert downloaded <= requested

    def test_cycle_times_are_contiguous(self, soak):
        _config, _sim, result = soak
        cycles = sorted(result.cycles, key=lambda c: c.start_time)
        for first, second in zip(cycles, cycles[1:]):
            assert second.start_time == first.start_time + first.total_bytes

    def test_cycle_data_within_capacity_modulo_one_doc(self, soak):
        config, _sim, result = soak
        # The scheduler may overshoot by at most one (packet-aligned) doc.
        slack = 64_000  # generous single-document bound for this DTD
        for cycle in result.cycles:
            assert cycle.data_bytes <= config.cycle_data_capacity + slack

    def test_deterministic_repeat(self, soak):
        config, _sim, result = soak
        again = Simulation(config).run()
        assert again.summary() == result.summary()
        assert [c.total_bytes for c in again.cycles] == [
            c.total_bytes for c in result.cycles
        ]

    def test_mean_lookup_ordering_at_scale(self, soak):
        _config, _sim, result = soak
        assert result.mean_index_lookup_bytes("two-tier") * 2 < (
            result.mean_index_lookup_bytes("one-tier")
        )
