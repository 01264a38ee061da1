"""Protocol accounting identities, recomputed independently.

The metrics a client reports must be *derivable* from the cycles it saw;
these tests replay the cycles and rebuild every component from scratch,
catching double-charging or skipped accounting.
"""

from __future__ import annotations

import pytest

from repro.broadcast.program import IndexScheme
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.onetier import OneTierClient
from repro.client.twotier import TwoTierClient
from repro.xpath.evaluator import matching_documents


@pytest.fixture(scope="module")
def broadcast(nitf_store, nitf_queries):
    server = BroadcastServer(nitf_store, cycle_data_capacity=30_000)
    for query in nitf_queries:
        server.submit(query, 0)
    cycles = []
    while True:
        cycle = server.build_cycle()
        if cycle is None:
            break
        cycles.append(cycle)
    return cycles


def replay(client_cls, query, cycles):
    client = client_cls(query, 0)
    for cycle in cycles:
        client.on_cycle(cycle)
    assert client.satisfied
    return client


class TestOneTierIdentity:
    def test_index_bytes_equal_sum_of_searches(self, broadcast, nitf_queries):
        """one-tier index cost == sum over listened cycles of the
        packet-granular selective search, recomputed here."""
        for query in nitf_queries[:8]:
            client = replay(OneTierClient, query, broadcast)
            n = client.metrics.cycles_listened
            expected = 0
            for cycle in broadcast[:n]:
                lookup = cycle.lookup(query)
                packed = cycle.packed_one_tier
                expected += packed.packet_bytes * len(
                    packed.packets_for_nodes(lookup.visited_node_ids)
                )
            assert client.metrics.index_bytes == expected, str(query)

    def test_doc_bytes_equal_sum_of_air_sizes(self, broadcast, nitf_queries, nitf_store):
        for query in nitf_queries[:8]:
            client = replay(OneTierClient, query, broadcast)
            expected = sum(
                nitf_store.air_bytes(doc_id) for doc_id in client.received_doc_ids
            )
            assert client.metrics.doc_bytes == expected


class TestTwoTierIdentity:
    def test_offset_bytes_equal_n_times_lo(self, broadcast, nitf_queries):
        for query in nitf_queries[:8]:
            client = replay(TwoTierClient, query, broadcast)
            n = client.metrics.cycles_listened
            expected = sum(c.offset_list_air_bytes for c in broadcast[:n])
            assert client.metrics.offset_bytes == expected

    def test_index_charged_exactly_once(self, broadcast, nitf_queries):
        for query in nitf_queries[:8]:
            client = replay(TwoTierClient, query, broadcast)
            first = broadcast[0]
            lookup = first.lookup(query)
            packed = first.packed_first_tier
            expected = packed.packet_bytes * len(
                packed.packets_for_nodes(lookup.visited_node_ids)
            )
            assert client.metrics.index_bytes == expected

    def test_tuning_decomposition(self, broadcast, nitf_queries):
        for query in nitf_queries[:8]:
            client = replay(TwoTierClient, query, broadcast)
            m = client.metrics
            assert m.tuning_bytes == (
                m.probe_bytes + m.index_bytes + m.offset_bytes + m.doc_bytes
            )
            assert m.index_lookup_bytes == m.tuning_bytes - m.doc_bytes


class TestSharedInvariants:
    def test_received_equals_expected_equals_oracle(
        self, broadcast, nitf_queries, nitf_store
    ):
        for query in nitf_queries[:8]:
            for client_cls in (OneTierClient, TwoTierClient):
                client = replay(client_cls, query, broadcast)
                oracle = matching_documents(query, nitf_store.documents)
                assert client.expected_doc_ids == oracle
                assert client.received_doc_ids == oracle

    def test_completion_time_within_last_cycle(self, broadcast, nitf_queries):
        for query in nitf_queries[:8]:
            client = replay(TwoTierClient, query, broadcast)
            n = client.metrics.cycles_listened
            last = broadcast[n - 1]
            assert last.start_time <= client.metrics.completion_time <= last.end_time

    def test_cycles_listened_monotone_prefix(self, broadcast, nitf_queries):
        """A client listens to a prefix of cycles then stops: feeding it a
        cycle before its last listened one again must be a no-op."""
        query = nitf_queries[0]
        client = replay(TwoTierClient, query, broadcast)
        before = client.metrics.tuning_bytes
        client.on_cycle(broadcast[0])
        assert client.metrics.tuning_bytes == before
