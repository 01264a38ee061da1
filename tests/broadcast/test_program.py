"""Unit tests for broadcast cycle assembly."""

from __future__ import annotations

import pytest

from repro.broadcast.packets import PacketKind
from repro.broadcast.program import IndexScheme, build_cycle_program
from repro.broadcast.server import DocumentStore
from repro.index.ci import build_full_ci
from repro.index.pruning import prune_to_pci
from repro.xpath.parser import parse_query


@pytest.fixture()
def setup():
    from tests.xpath.test_evaluator import paper_documents

    docs = paper_documents()
    store = DocumentStore(docs)
    ci = build_full_ci(docs)
    pci, _ = prune_to_pci(ci, [parse_query("/a/b"), parse_query("/a//c")])
    return store, pci


class TestTwoTierProgram:
    def test_segments_in_order(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0, 1], store)
        kinds = [segment.kind for segment in cycle.layout.segments]
        assert kinds == [
            PacketKind.FIRST_TIER_INDEX,
            PacketKind.SECOND_TIER_INDEX,
            PacketKind.DATA,
        ]

    def test_doc_offsets_inside_data_segment(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0, 1], store)
        data = cycle.layout.segment(PacketKind.DATA)
        for doc_id, offset in cycle.doc_offsets.items():
            assert data.start <= offset < data.end
            assert offset + cycle.doc_air_bytes[doc_id] <= data.end

    def test_docs_packed_back_to_back(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0, 1, 2], store)
        ordered = [cycle.doc_offsets[d] for d in cycle.doc_ids]
        assert ordered == sorted(ordered)
        for first, second in zip(cycle.doc_ids, cycle.doc_ids[1:]):
            assert (
                cycle.doc_offsets[first] + cycle.doc_air_bytes[first]
                == cycle.doc_offsets[second]
            )

    def test_offset_list_matches_layout(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [2, 0], store)
        assert dict(cycle.offset_list.entries) == cycle.doc_offsets

    def test_sizes(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0], store)
        assert cycle.first_tier_bytes == cycle.packed_first_tier.total_bytes
        assert cycle.offset_list_air_bytes >= cycle.offset_list.size_bytes
        assert cycle.total_bytes == cycle.layout.total_bytes
        assert cycle.data_bytes == store.air_bytes(0)

    def test_end_time(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0], store)
        cycle.start_time = 1000
        assert cycle.end_time == 1000 + cycle.total_bytes


class TestOneTierProgram:
    def test_segments(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0, 1], store, scheme=IndexScheme.ONE_TIER)
        kinds = [segment.kind for segment in cycle.layout.segments]
        assert kinds == [PacketKind.ONE_TIER_INDEX, PacketKind.DATA]

    def test_data_starts_after_bigger_index(self, setup):
        store, pci = setup
        one = build_cycle_program(0, pci, [0], store, scheme=IndexScheme.ONE_TIER)
        two = build_cycle_program(0, pci, [0], store, scheme=IndexScheme.TWO_TIER)
        one_data = one.layout.segment(PacketKind.DATA).start
        # One-tier index embeds pointers, so its index segment is bigger
        # than the first tier alone (but the two-tier scheme adds L_O).
        assert one_data >= one.packed_one_tier.total_bytes


class TestCycleQueries:
    def test_lookup_delegates_to_pci(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0, 1], store)
        query = parse_query("/a/b")
        assert cycle.lookup(query).doc_ids == pci.lookup(query).doc_ids

    def test_index_lookup_bytes_by_scheme(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [0], store)
        lookup = cycle.lookup(parse_query("/a/b"))
        one = cycle.index_lookup_bytes(lookup, IndexScheme.ONE_TIER)
        two = cycle.index_lookup_bytes(lookup, IndexScheme.TWO_TIER)
        assert one > 0 and two > 0
        assert two <= one  # first-tier nodes are smaller, fewer packets

    def test_lookup_accepts_a_compiled_query(self, setup):
        from repro.filtering.dfa import LazyQueryDFA

        store, pci = setup
        cycle = build_cycle_program(0, pci, [0, 1], store)
        query = parse_query("/a/b")
        compiled = LazyQueryDFA.from_queries([query])
        assert cycle.lookup(compiled) == cycle.lookup(query)

    def test_lookup_packets_worked_out_once_per_packing(
        self, nitf_store, nitf_queries
    ):
        import dataclasses

        from repro.index.packing import PackingStrategy, pack_index

        # a multi-packet index: the packings place nodes differently
        ci = build_full_ci(nitf_store.documents)
        pci, _ = prune_to_pci(ci, nitf_queries)
        cycle = build_cycle_program(0, pci, [0], nitf_store)
        bfs = dataclasses.replace(
            cycle,
            packed_one_tier=pack_index(pci, one_tier=True, strategy=PackingStrategy.BFS),
            packed_first_tier=pack_index(
                pci, one_tier=False, strategy=PackingStrategy.BFS
            ),
        )
        lookup = cycle.lookup(nitf_queries[0])
        seen = set()
        for program in (cycle, bfs):
            for scheme in IndexScheme:
                packets = program.lookup_packets(lookup, scheme)
                packed = program.packed(scheme)
                assert packets == packed.packets_for_nodes(lookup.visited_node_ids)
                assert program.lookup_packets(lookup, scheme) is packets
                assert program.index_lookup_bytes(lookup, scheme) == (
                    len(packets) * packed.packet_bytes
                )
                seen.add(packets)
        assert len(seen) == 4  # no packing was served another's packets
        # the memo is no part of the result's value
        again = cycle.lookup(nitf_queries[0])
        assert again == lookup and hash(again) == hash(lookup)
        assert "packets" not in repr(lookup)

    def test_empty_cycle_allowed(self, setup):
        store, pci = setup
        cycle = build_cycle_program(0, pci, [], store)
        assert cycle.doc_ids == ()
        assert cycle.offset_list.entries == ()
        assert cycle.data_bytes == 0
