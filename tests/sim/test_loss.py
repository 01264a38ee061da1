"""Unit tests for the packet-loss model and the lossy client path."""

from __future__ import annotations

import pytest

from repro.sim.config import small_setup
from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.sim.simulation import run_simulation


class TestPacketLossModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PacketLossModel(loss_prob=1.0)
        with pytest.raises(ValueError):
            PacketLossModel(loss_prob=-0.1)

    def test_lossless_never_loses(self):
        assert LOSSLESS.is_lossless
        assert not LOSSLESS.packet_lost(1, 2, 3)
        assert not LOSSLESS.any_lost(1, 2, range(100))
        assert not LOSSLESS.span_lost(1, 2, 0, 50)

    def test_deterministic(self):
        model = PacketLossModel(loss_prob=0.3, seed=5)
        clone = PacketLossModel(loss_prob=0.3, seed=5)
        outcomes_a = [model.packet_lost(1, c, p) for c in range(5) for p in range(20)]
        outcomes_b = [clone.packet_lost(1, c, p) for c in range(5) for p in range(20)]
        assert outcomes_a == outcomes_b

    def test_clients_independent(self):
        model = PacketLossModel(loss_prob=0.5, seed=5)
        a = [model.packet_lost(1, 0, p) for p in range(64)]
        b = [model.packet_lost(2, 0, p) for p in range(64)]
        assert a != b

    def test_rate_roughly_matches(self):
        model = PacketLossModel(loss_prob=0.2, seed=9)
        losses = sum(
            model.packet_lost(0, cycle, packet)
            for cycle in range(20)
            for packet in range(100)
        )
        assert 0.14 < losses / 2000 < 0.26

    def test_span_loss_grows_with_length(self):
        model = PacketLossModel(loss_prob=0.05, seed=3)
        short = sum(model.span_lost(k, 0, 0, 2) for k in range(500))
        long = sum(model.span_lost(k, 1, 0, 50) for k in range(500))
        assert long > short

    def test_empty_span_never_lost(self):
        model = PacketLossModel(loss_prob=0.9, seed=3)
        assert not model.span_lost(0, 0, 0, 0)


class TestLossySimulation:
    def test_lossless_config_matches_reliable_two_tier(self):
        """loss_prob=0 must not change anything."""
        reliable = run_simulation(small_setup())
        assert reliable.completed

    def test_small_loss_completes_with_degradation(self):
        reliable = run_simulation(small_setup())
        lossy = run_simulation(small_setup(loss_prob=0.002, max_cycles=300))
        assert lossy.completed
        # Sessions lengthen, never shorten.
        assert lossy.mean_cycles_listened("two-tier") >= reliable.mean_cycles_listened(
            "two-tier"
        )
        # Every client still gets everything (safety under loss).
        for record in lossy.records_for("two-tier"):
            assert record.result_doc_count > 0

    def test_loss_mode_tracks_single_protocol(self):
        lossy = run_simulation(small_setup(loss_prob=0.002, max_cycles=300))
        assert lossy.records_for("one-tier") == []
        assert len(lossy.records_for("two-tier")) == small_setup().total_queries()

    def test_deterministic_under_loss(self):
        first = run_simulation(small_setup(loss_prob=0.002, max_cycles=300))
        second = run_simulation(small_setup(loss_prob=0.002, max_cycles=300))
        assert first.summary() == second.summary()

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            small_setup(loss_prob=1.0)


class TestServerAcknowledgedDelivery:
    def test_confirm_requires_mode(self, nitf_store):
        from repro.broadcast.server import BroadcastServer
        from repro.xpath.parser import parse_query

        server = BroadcastServer(nitf_store)
        pending = server.submit(parse_query("//title"), 0)
        cycle = server.build_cycle()
        with pytest.raises(RuntimeError):
            server.confirm_delivery(pending, set(), cycle)

    def test_unacknowledged_docs_rebroadcast(self, nitf_store):
        from repro.broadcast.server import BroadcastServer
        from repro.xpath.parser import parse_query

        server = BroadcastServer(
            nitf_store, acknowledged_delivery=True, cycle_data_capacity=10**9
        )
        query = parse_query("//title")
        pending = server.submit(query, 0)
        first = server.build_cycle()
        assert not pending.is_satisfied  # nothing confirmed yet
        # The client missed one document; everything else confirmed.
        received = set(first.doc_ids)
        missed = received.pop()
        server.confirm_delivery(pending, received, first)
        assert pending.remaining_doc_ids == {missed}
        second = server.build_cycle()
        assert second is not None
        assert set(second.doc_ids) == {missed}
        server.confirm_delivery(pending, received | {missed}, second)
        assert pending.is_satisfied
        assert server.pending == []
