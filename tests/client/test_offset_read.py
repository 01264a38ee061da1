"""Tests for the selective second-tier read (OffsetRead extension)."""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.protocol import OffsetRead
from repro.client.twotier import TwoTierClient
from repro.index.twotier import OffsetList
from repro.xpath.evaluator import matching_documents


class TestPacketsForDocs:
    def test_header_always_charged(self):
        offsets = OffsetList.from_mapping({i: i * 10 for i in range(5)})
        assert 0 in offsets.packets_for_docs({3})

    def test_unknown_docs_touch_only_header(self):
        offsets = OffsetList.from_mapping({i: i * 10 for i in range(5)})
        assert offsets.packets_for_docs({999}) == frozenset({0})

    def test_entries_map_to_correct_packets(self):
        # 60 entries * 6 B + 2 B header = 362 B -> 3 packets of 128 B.
        offsets = OffsetList.from_mapping({i: i for i in range(60)})
        assert offsets.packet_count == 3
        # Entry 0 starts at byte 2 (packet 0); entry 59 starts at byte
        # 2 + 59*6 = 356 (packet 2).
        assert offsets.packets_for_docs({0}) == frozenset({0})
        assert 2 in offsets.packets_for_docs({59})

    def test_straddling_entry_charges_both_packets(self):
        # Entry 21 starts at byte 2 + 21*6 = 128 exactly -> packet 1 only;
        # entry 20 starts at 122 and ends at 127 -> packet 0 only.
        offsets = OffsetList.from_mapping({i: i for i in range(40)})
        assert offsets.packets_for_docs({20}) == frozenset({0})
        assert offsets.packets_for_docs({21}) == frozenset({0, 1})

    def test_selective_never_more_than_full(self):
        offsets = OffsetList.from_mapping({i: i for i in range(100)})
        touched = offsets.packets_for_docs(set(range(0, 100, 7)))
        assert len(touched) <= offsets.packet_count


class TestSelectiveOffsetClient:
    def drain(self, store, queries, client):
        server = BroadcastServer(store, cycle_data_capacity=30_000)
        for query in queries:
            server.submit(query, 0)
        while not client.satisfied:
            cycle = server.build_cycle()
            assert cycle is not None
            client.on_cycle(cycle)
        return client

    def test_selective_cheaper_or_equal(self, nitf_store, nitf_queries):
        query = nitf_queries[0]
        full = self.drain(
            nitf_store, nitf_queries, TwoTierClient(query, 0)
        )
        selective = self.drain(
            nitf_store,
            nitf_queries,
            TwoTierClient(query, 0, offset_read=OffsetRead.SELECTIVE),
        )
        assert selective.metrics.offset_bytes <= full.metrics.offset_bytes
        # Same documents either way.
        assert selective.received_doc_ids == full.received_doc_ids

    def test_correctness_with_selective_reads(self, nitf_store, nitf_queries):
        for query in nitf_queries[:5]:
            client = self.drain(
                nitf_store,
                nitf_queries,
                TwoTierClient(query, 0, offset_read=OffsetRead.SELECTIVE),
            )
            assert client.received_doc_ids == matching_documents(
                query, nitf_store.documents
            )

    @pytest.mark.parametrize("num_channels", (1, 2))
    def test_selective_keeps_its_single_channel_meaning(
        self, nitf_store, nitf_queries, num_channels
    ):
        """At K=1 the second tier is the plain <doc, offset> list; the
        extended <doc, channel, offset> list of K >= 2 has no selective
        packet model, so the read is rejected rather than under-charged."""
        query = nitf_queries[0]
        server = BroadcastServer(
            nitf_store, cycle_data_capacity=30_000, num_data_channels=num_channels
        )
        server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(query, 0, offset_read=OffsetRead.SELECTIVE)
        if num_channels == 1:
            client.on_cycle(cycle)
            touched = cycle.offset_list.packets_for_docs(client.expected_doc_ids)
            assert client.metrics.offset_bytes == (
                len(touched) * cycle.layout.packet_bytes
            )
        else:
            with pytest.raises(ValueError, match="single-channel"):
                client.on_cycle(cycle)
