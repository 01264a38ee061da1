"""Cross-module integration tests at realistic (small) scale."""

from __future__ import annotations

import pytest

from repro.broadcast.program import IndexScheme
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.onetier import OneTierClient
from repro.client.twotier import TwoTierClient
from repro.index.encoding import LabelTable, decode_index, encode_index
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.xpath.evaluator import matching_documents


class TestServerClientAgreement:
    def test_clients_download_exactly_their_results(self, nitf_store, nitf_queries):
        """Every client ends with exactly its oracle result set."""
        server = BroadcastServer(nitf_store, cycle_data_capacity=40_000)
        sessions = []
        for query in nitf_queries[:12]:
            server.submit(query, 0)
            sessions.append((query, TwoTierClient(query, 0)))
        for _ in range(100):
            cycle = server.build_cycle()
            if cycle is None:
                break
            for _query, client in sessions:
                client.on_cycle(cycle)
        for query, client in sessions:
            expected = matching_documents(query, nitf_store.documents)
            assert client.satisfied
            assert client.received_doc_ids == expected, str(query)

    def test_server_cycles_match_client_cycle_counts(self, nitf_store, nitf_queries):
        server = BroadcastServer(nitf_store, cycle_data_capacity=40_000)
        query = nitf_queries[0]
        pending = server.submit(query, 0)
        client = TwoTierClient(query, 0)
        while not pending.is_satisfied:
            cycle = server.build_cycle()
            assert cycle is not None
            client.on_cycle(cycle)
        assert client.metrics.cycles_listened == pending.cycles_listened


class TestOnAirEncodingPath:
    def test_cycle_index_encodes_and_decodes(self, nitf_store, nitf_queries):
        """The index a cycle would broadcast survives the wire format."""
        server = BroadcastServer(nitf_store, cycle_data_capacity=40_000)
        for query in nitf_queries[:8]:
            server.submit(query, 0)
        cycle = server.build_cycle()
        pci = cycle.pci
        table = LabelTable.from_index(pci)
        blob = encode_index(pci, table, one_tier=False)
        decoded, _ = decode_index(
            blob, table, one_tier=False, root_label=pci.labels[0]
        )
        # A client decoding the broadcast bytes sees the same lookups.
        for query in nitf_queries[:8]:
            assert decoded.lookup(query).doc_ids == pci.lookup(query).doc_ids

    def test_one_tier_pointers_reference_real_offsets(self, nitf_store, nitf_queries):
        server = BroadcastServer(
            nitf_store, scheme=IndexScheme.ONE_TIER, cycle_data_capacity=40_000
        )
        for query in nitf_queries[:5]:
            server.submit(query, 0)
        cycle = server.build_cycle()
        table = LabelTable.from_index(cycle.pci)
        blob = encode_index(
            cycle.pci, table, one_tier=True, doc_offsets=cycle.doc_offsets
        )
        _decoded, offsets = decode_index(
            blob, table, one_tier=True, root_label=cycle.pci.labels[0]
        )
        for doc_id in cycle.doc_ids:
            assert offsets[doc_id] == cycle.doc_offsets[doc_id]


class TestNasaCrossCheck:
    """Paper Section 4.1: 'the findings are pretty much the same' on NASA."""

    def test_nasa_simulation_same_shape(self):
        result = run_simulation(small_setup(dtd="nasa"))
        assert result.completed
        assert result.mean_index_lookup_bytes(
            "two-tier"
        ) < result.mean_index_lookup_bytes("one-tier")
        assert result.mean_pci_bytes() <= result.mean_ci_bytes()

    def test_nasa_index_ratios(self):
        result = run_simulation(small_setup(dtd="nasa"))
        ratio = result.index_to_data_ratio(result.mean_two_tier_bytes())
        assert 0 < ratio < 0.1


class TestMixedCollection:
    def test_virtual_root_end_to_end(self, mixed_docs):
        from repro.xpath.generator import generate_workload

        store = DocumentStore(mixed_docs)
        queries = generate_workload(mixed_docs, 8, seed=17)
        server = BroadcastServer(store, cycle_data_capacity=30_000)
        sessions = [(q, TwoTierClient(q, 0)) for q in queries]
        for query, _client in sessions:
            server.submit(query, 0)
        for _ in range(60):
            cycle = server.build_cycle()
            if cycle is None:
                break
            for _query, client in sessions:
                client.on_cycle(cycle)
        for query, client in sessions:
            assert client.satisfied
            assert client.received_doc_ids == matching_documents(query, mixed_docs)
