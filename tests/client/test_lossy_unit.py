"""Unit tests for the two-tier client's failure behaviours on a lossy channel."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.protocol import FirstTierRead
from repro.client.twotier import TwoTierClient
from repro.index.sizes import PAPER_SIZE_MODEL
from repro.xpath.parser import parse_query


class _AlwaysLose(PacketLossModel):
    """Deterministic total loss for targeted packet ranges."""

    def __init__(self, lose_index=False, lose_offsets=False, lose_docs=False):
        object.__setattr__(self, "loss_prob", 0.5)  # non-zero: not lossless
        object.__setattr__(self, "seed", 0)
        self._lose_index = lose_index
        self._lose_offsets = lose_offsets
        self._lose_docs = lose_docs

    def packet_lost(self, client_key, cycle_number, packet_index):
        if packet_index >= 1_000_000:
            return self._lose_offsets
        return self._lose_index

    def span_lost(self, client_key, cycle_number, start_packet, packet_count):
        return self._lose_docs


class _LoseOnly(PacketLossModel):
    """Lose exactly the listed packet indices; record every query."""

    def __init__(self, targets=()):
        object.__setattr__(self, "loss_prob", 0.5)  # non-zero: not lossless
        object.__setattr__(self, "seed", 0)
        self._targets = set(targets)
        self.packet_queries = []

    def packet_lost(self, client_key, cycle_number, packet_index):
        self.packet_queries.append(packet_index)
        return packet_index in self._targets

    def span_lost(self, client_key, cycle_number, start_packet, packet_count):
        return False


class _CountingLoss(PacketLossModel):
    """Lossless, but record every span draw (single-draw regression)."""

    def __init__(self):
        object.__setattr__(self, "loss_prob", 0.5)
        object.__setattr__(self, "seed", 0)
        self.span_calls = []

    def packet_lost(self, client_key, cycle_number, packet_index):
        return False

    def span_lost(self, client_key, cycle_number, start_packet, packet_count):
        self.span_calls.append((start_packet, packet_count))
        return False


def drained_server(capacity=100_000, size_model=PAPER_SIZE_MODEL):
    from tests.xpath.test_evaluator import paper_documents

    store = DocumentStore(paper_documents(), size_model=size_model)
    server = BroadcastServer(
        store, cycle_data_capacity=capacity, acknowledged_delivery=True
    )
    return server


#: packets small enough that the paper collection's offset list and
#: packed first tier both span several packets
TINY_PACKETS = replace(PAPER_SIZE_MODEL, packet_bytes=24)


class TestIndexLoss:
    def test_index_loss_forces_retry(self):
        server = drained_server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        first = server.build_cycle()

        client = TwoTierClient(query, 0, client_key=1, loss_model=_AlwaysLose(lose_index=True))
        client.on_cycle(first)
        assert client.expected_doc_ids is None  # read failed
        assert client.index_retries == 1
        assert client.metrics.index_bytes > 0  # the bytes were still paid
        assert client.metrics.offset_bytes == 0  # no point reading offsets

        # Channel heals: the retry on the next cycle succeeds.
        client.loss_model = LOSSLESS
        server.confirm_delivery(pending, client.received_doc_ids, first)
        second = server.build_cycle()
        client.on_cycle(second)
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})


class TestOffsetLoss:
    def test_blind_cycle_downloads_nothing(self):
        server = drained_server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_AlwaysLose(lose_offsets=True)
        )
        client.on_cycle(cycle)
        assert client.blind_cycles == 1
        assert client.received_doc_ids == set()
        assert client.metrics.doc_bytes == 0
        assert client.metrics.offset_bytes > 0  # charged for the attempt


class TestDocumentLoss:
    def test_lost_documents_charged_but_not_received(self):
        server = drained_server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_AlwaysLose(lose_docs=True)
        )
        client.on_cycle(cycle)
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})
        assert client.received_doc_ids == set()
        assert client.metrics.doc_bytes > 0  # listened, frames corrupted

    def test_span_lost_drawn_once_per_document(self):
        """Regression: a document's frame run is one loss draw, not many."""
        server = drained_server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        model = _CountingLoss()
        client = TwoTierClient(query, 0, client_key=1, loss_model=model)
        client.on_cycle(cycle)
        assert client.received_doc_ids == client.expected_doc_ids
        assert len(model.span_calls) == len(client.expected_doc_ids)
        assert len(set(model.span_calls)) == len(model.span_calls)

    def test_lossless_model_equals_reliable_client(self):
        """The sampled path with nothing lost charges exactly what the
        lossless path (which skips sampling) charges."""
        server = drained_server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        sampled = TwoTierClient(query, 0, client_key=1, loss_model=_CountingLoss())
        reliable = TwoTierClient(query, 0)
        sampled.on_cycle(cycle)
        reliable.on_cycle(cycle)
        assert sampled.received_doc_ids == reliable.received_doc_ids
        assert sampled.metrics == reliable.metrics


class TestMultiPacketStructures:
    """Losses inside multi-packet index/offset structures (tiny packets)."""

    def test_one_lost_offset_packet_blinds_the_cycle(self):
        server = drained_server(size_model=TINY_PACKETS)
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()
        assert cycle.offset_list.packet_count > 1  # the point of the test

        # Lose only the *last* offset packet; the first arrives fine.
        last = 1_000_000 + cycle.offset_list.packet_count - 1
        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_LoseOnly({last})
        )
        client.on_cycle(cycle)
        assert client.expected_doc_ids is not None  # index read succeeded
        assert client.blind_cycles == 1
        assert client.received_doc_ids == set()
        assert client.metrics.offset_bytes > 0  # partial list still paid for

        # Healed channel: next cycle's rebroadcast completes the session.
        client.loss_model = LOSSLESS
        server.confirm_delivery(pending, client.received_doc_ids, cycle)
        client.on_cycle(server.build_cycle())
        assert client.received_doc_ids == client.expected_doc_ids

    def test_one_lost_packet_of_selective_index_read_forces_retry(self):
        server = drained_server(size_model=TINY_PACKETS)
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()

        # Discover which first-tier packets the selective read touches.
        spy = _LoseOnly()
        probe_client = TwoTierClient(query, 0, client_key=1, loss_model=spy)
        probe_client.on_cycle(cycle)
        needed = {p for p in spy.packet_queries if p < 1_000_000}
        assert len(needed) > 1  # the read really spans several packets

        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_LoseOnly({max(needed)})
        )
        client.on_cycle(cycle)
        assert client.index_retries == 1
        assert client.expected_doc_ids is None
        # All needed packets were listened to before the loss surfaced.
        packed = cycle.packed_first_tier
        assert client.metrics.index_bytes == len(needed) * packed.packet_bytes
        assert client.metrics.offset_bytes == 0

        client.loss_model = LOSSLESS
        server.confirm_delivery(pending, client.received_doc_ids, cycle)
        client.on_cycle(server.build_cycle())
        assert client.received_doc_ids == client.expected_doc_ids

    def test_full_first_tier_read_samples_every_packet(self):
        """Loss is drawn over the packets the read mode listens to: a
        FULL read is voided by a packet the selective walk never touches."""
        server = drained_server(size_model=TINY_PACKETS)
        query = parse_query("/a/b/a")
        for text in ("/a/b/a", "/a//c", "/a/c/*"):  # a PCI wider than one walk
            server.submit(parse_query(text), 0)
        cycle = server.build_cycle()
        packed = cycle.packed_first_tier

        spy = _LoseOnly()
        TwoTierClient(query, 0, loss_model=spy).on_cycle(cycle)
        walked = {p for p in spy.packet_queries if p < 1_000_000}
        unwalked = set(range(packed.packet_count)) - walked
        assert unwalked  # the selective read really skips packets

        model = _LoseOnly({min(unwalked)})
        selective = TwoTierClient(query, 0, loss_model=model)
        full = TwoTierClient(
            query, 0, loss_model=model, first_tier_read=FirstTierRead.FULL
        )
        selective.on_cycle(cycle)
        full.on_cycle(cycle)
        assert selective.index_retries == 0
        assert full.index_retries == 1 and full.expected_doc_ids is None
        assert full.metrics.index_bytes == cycle.first_tier_bytes
