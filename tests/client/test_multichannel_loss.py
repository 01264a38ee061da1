"""The two-tier client's loss-recovery ladder over K >= 2 data channels."""

from __future__ import annotations

import pytest

from repro.broadcast.loss import LOSSLESS
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.twotier import TwoTierClient
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.xpath.parser import parse_query
from tests.client.test_lossy_unit import _AlwaysLose


def multichannel_server(num_channels=2):
    from tests.xpath.test_evaluator import paper_documents

    return BroadcastServer(
        DocumentStore(paper_documents()),
        num_data_channels=num_channels,
        cycle_data_capacity=100_000,
        acknowledged_delivery=True,
    )


class TestRecoveryLadder:
    def test_lost_index_packet_forces_retry(self):
        server = multichannel_server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        first = server.build_cycle()
        client = TwoTierClient(
            query, 0, loss_model=_AlwaysLose(lose_index=True), client_key=1
        )
        client.on_cycle(first)
        assert client.index_retries == 1
        assert client.expected_doc_ids is None
        assert client.metrics.index_bytes > 0
        assert client.metrics.offset_bytes == 0

        client.loss_model = LOSSLESS
        server.confirm_delivery(pending, client.received_doc_ids, first)
        client.on_cycle(server.build_cycle())
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})

    def test_lost_offset_packet_blinds_the_cycle(self):
        server = multichannel_server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(
            query, 0, loss_model=_AlwaysLose(lose_offsets=True), client_key=1
        )
        client.on_cycle(cycle)
        assert client.blind_cycles == 1
        assert client.received_doc_ids == set()
        assert client.metrics.doc_bytes == 0
        assert client.metrics.offset_bytes > 0

    def test_lost_frames_charged_but_not_recorded(self):
        server = multichannel_server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(
            query, 0, loss_model=_AlwaysLose(lose_docs=True), client_key=1
        )
        client.on_cycle(cycle)
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})
        assert client.received_doc_ids == set()
        # The tuner was committed for every catchable document's full air
        # time before the corruption surfaced, so the bytes are charged.
        assert client.metrics.doc_bytes > 0

        # Rebroadcast under a healed channel drains the session.
        client.loss_model = LOSSLESS
        guard = 0
        while not client.satisfied:
            server.confirm_delivery(pending, client.received_doc_ids, cycle)
            cycle = server.build_cycle()
            assert cycle is not None
            client.on_cycle(cycle)
            guard += 1
            assert guard < 50
        assert client.received_doc_ids == client.expected_doc_ids

    def test_lossless_ladder_counters_stay_zero(self):
        server = multichannel_server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        client = TwoTierClient(query, 0, loss_model=LOSSLESS)
        guard = 0
        while not client.satisfied:  # K=2 conflicts may defer documents
            cycle = server.build_cycle()
            assert cycle is not None
            client.on_cycle(cycle)
            server.confirm_delivery(pending, client.received_doc_ids, cycle)
            guard += 1
            assert guard < 50
        assert client.index_retries == 0
        assert client.blind_cycles == 0
        assert client.received_doc_ids == client.expected_doc_ids


class TestLossyMultiChannelSimulation:
    def test_config_accepts_loss_with_multiple_channels(self):
        config = small_setup(num_data_channels=2, loss_prob=0.15)
        assert config.loss_prob == 0.15  # no longer rejected

    def test_simulation_drains_under_losses(self, nitf_docs):
        # Same channel quality as the single-channel loss integration
        # tests: per-packet erasures, so whole-document survival decays
        # exponentially in frame count and higher rates never drain.
        config = small_setup(
            n_q=6,
            arrival_cycles=2,
            max_cycles=300,
            num_data_channels=2,
            loss_prob=0.002,
        )
        result = run_simulation(config, documents=nitf_docs)
        assert result.completed
        assert [r.protocol for r in result.clients] == ["two-tier"] * len(
            result.clients
        )  # lossy runs carry the loss-aware client alone
