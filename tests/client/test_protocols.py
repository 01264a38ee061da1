"""Unit tests for the client access protocols.

The fixture broadcasts the paper's running example through a real server
and feeds the resulting cycles to clients, so protocol behaviour is tested
against genuine cycle programs rather than mocks.
"""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.naive import NaiveClient
from repro.client.onetier import OneTierClient
from repro.client.protocol import FirstTierRead
from repro.client.twotier import TwoTierClient
from repro.xpath.parser import parse_query


def build_cycles(query_texts, capacity=1024):
    """Admit the queries at time 0 and collect every cycle until drained."""
    from tests.xpath.test_evaluator import paper_documents

    store = DocumentStore(paper_documents())
    server = BroadcastServer(store, cycle_data_capacity=capacity)
    pendings = [server.submit(parse_query(text), 0) for text in query_texts]
    cycles = []
    while True:
        cycle = server.build_cycle()
        if cycle is None:
            break
        cycles.append(cycle)
        assert len(cycles) < 50
    return store, pendings, cycles


class TestTwoTierClient:
    def test_completes_with_correct_docs(self):
        _store, _p, cycles = build_cycles(["/a//c"])
        client = TwoTierClient(parse_query("/a//c"), arrival_time=0)
        for cycle in cycles:
            client.on_cycle(cycle)
        assert client.satisfied
        assert client.received_doc_ids == {1, 2, 3, 4}
        assert client.metrics.is_complete

    def test_equation_one_structure(self):
        """TT = (first-tier read once) + n * L_O + docs (Equation 1)."""
        _store, _p, cycles = build_cycles(["/a//c"])
        client = TwoTierClient(
            parse_query("/a//c"), arrival_time=0, first_tier_read=FirstTierRead.FULL
        )
        for cycle in cycles:
            client.on_cycle(cycle)
        n = client.metrics.cycles_listened
        expected_offsets = sum(c.offset_list_air_bytes for c in cycles[:n])
        assert client.metrics.offset_bytes == expected_offsets
        # FULL mode charges the whole first tier exactly once.
        assert client.metrics.index_bytes == cycles[0].first_tier_bytes

    def test_selective_read_cheaper_than_full(self):
        _store, _p, cycles = build_cycles(["/a/b/a", "/a//c", "/a/c/*"])
        query = parse_query("/a/b/a")
        selective = TwoTierClient(query, 0, first_tier_read=FirstTierRead.SELECTIVE)
        full = TwoTierClient(query, 0, first_tier_read=FirstTierRead.FULL)
        for cycle in cycles:
            selective.on_cycle(cycle)
            full.on_cycle(cycle)
        assert selective.metrics.index_bytes <= full.metrics.index_bytes

    def test_tune_plan_boundary_byte_is_catchable(self):
        """The tune plan takes a document iff ``offset >= free``: on one
        channel every document starts exactly where the previous one
        ends, so each sits on the boundary byte and all must be taken."""
        _store, _p, cycles = build_cycles(["/a//c"], capacity=100_000)
        client = TwoTierClient(parse_query("/a//c"), 0)
        client.on_cycle(cycles[0])
        assert len(client.expected_doc_ids) > 1
        assert client.received_doc_ids == client.expected_doc_ids
        assert client.channel_conflicts == 0

    def test_probe_charged_once(self):
        _store, _p, cycles = build_cycles(["/a//c"])
        client = TwoTierClient(parse_query("/a//c"), 0)
        for cycle in cycles:
            client.on_cycle(cycle)
        assert client.metrics.probe_bytes == cycles[0].layout.packet_bytes

    def test_stops_listening_after_satisfaction(self):
        _store, _p, cycles = build_cycles(["/a/b/a", "/a//c"])
        client = TwoTierClient(parse_query("/a/b/a"), 0)
        for cycle in cycles:
            client.on_cycle(cycle)
        done_at = client.metrics.cycles_listened
        # Feeding further cycles must not change anything.
        for cycle in cycles:
            cycle_clone_start = cycle.start_time
            client.on_cycle(cycle)
            assert cycle.start_time == cycle_clone_start
        assert client.metrics.cycles_listened == done_at

    def test_ignores_cycles_before_arrival(self):
        _store, _p, cycles = build_cycles(["/a//c"])
        late = TwoTierClient(parse_query("/a//c"), arrival_time=cycles[0].start_time + 1)
        late.on_cycle(cycles[0])
        assert late.metrics.cycles_listened == 0


class TestOneTierClient:
    def test_completes_with_correct_docs(self):
        _store, _p, cycles = build_cycles(["/a/b"])
        client = OneTierClient(parse_query("/a/b"), 0)
        for cycle in cycles:
            client.on_cycle(cycle)
        assert client.satisfied
        assert client.received_doc_ids == {0, 1, 2, 4}

    def test_pays_index_every_cycle(self):
        _store, _p, cycles = build_cycles(["/a//c"], capacity=128)
        client = OneTierClient(parse_query("/a//c"), 0)
        for cycle in cycles:
            client.on_cycle(cycle)
        n = client.metrics.cycles_listened
        assert n > 1
        # Index charged in every listened cycle (roughly n equal searches).
        per_cycle = client.metrics.index_bytes / n
        assert per_cycle >= cycles[0].layout.packet_bytes

    def test_no_offset_bytes(self):
        _store, _p, cycles = build_cycles(["/a//c"])
        client = OneTierClient(parse_query("/a//c"), 0)
        for cycle in cycles:
            client.on_cycle(cycle)
        assert client.metrics.offset_bytes == 0


    def test_compiles_its_query_once_for_the_session(self, compiles):
        """A client handed no shared ``lookup_fn`` searches for itself:
        one compile at its first search, reused every later cycle, and
        the same bytes charged as a client searching through a hook."""
        _store, _p, cycles = build_cycles(["/a//c"], capacity=128)
        compiles.clear()  # the server's pruning DFA
        query = parse_query("/a//c")
        own = OneTierClient(query, 0)
        hooked = OneTierClient(query, 0, lookup_fn=lambda c, q: c.lookup(q))
        for cycle in cycles:
            own.on_cycle(cycle)
        assert own.metrics.cycles_listened > 1
        assert compiles == [[query]]
        for cycle in cycles:
            hooked.on_cycle(cycle)
        assert len(compiles) == 1 + hooked.metrics.cycles_listened
        assert own.metrics == hooked.metrics
        assert own.received_doc_ids == hooked.received_doc_ids


def build_nitf_cycles(store, queries, capacity):
    """Drain a realistic NITF broadcast (multi-packet indexes)."""
    server = BroadcastServer(store, cycle_data_capacity=capacity)
    for query in queries:
        server.submit(query, 0)
    cycles = []
    while True:
        cycle = server.build_cycle()
        if cycle is None:
            break
        cycles.append(cycle)
        assert len(cycles) < 200
    return cycles


class TestProtocolComparison:
    def test_two_tier_lookup_cheaper_over_many_cycles(
        self, nitf_store, nitf_queries
    ):
        """The paper's Figure 11 claim needs realistic scale: the one-tier
        search must span multiple packets per cycle while L_O stays small.
        The toy running example fits in one packet, where one-tier wins --
        that crossover is asserted separately below."""
        cycles = build_nitf_cycles(nitf_store, nitf_queries, capacity=30_000)
        assert len(cycles) >= 3
        wins = 0
        compared = 0
        for query in nitf_queries[:10]:
            one = OneTierClient(query, 0)
            two = TwoTierClient(query, 0)
            for cycle in cycles:
                one.on_cycle(cycle)
                two.on_cycle(cycle)
            assert one.satisfied and two.satisfied
            if one.metrics.cycles_listened >= 3:
                compared += 1
                if two.metrics.index_lookup_bytes < one.metrics.index_lookup_bytes:
                    wins += 1
        assert compared > 0
        assert wins == compared

    def test_one_tier_wins_single_cycle_crossover(self):
        """With everything in one packet and one cycle, the extra L_O read
        makes two-tier cost more -- the crossover the paper's n >= 2
        regime sits beyond."""
        _store, _p, cycles = build_cycles(["/a//c"], capacity=1024)
        assert len(cycles) == 1
        query = parse_query("/a//c")
        one = OneTierClient(query, 0)
        two = TwoTierClient(query, 0)
        for cycle in cycles:
            one.on_cycle(cycle)
            two.on_cycle(cycle)
        assert one.metrics.index_lookup_bytes <= two.metrics.index_lookup_bytes

    def test_same_documents_same_cycles(self):
        _store, _p, cycles = build_cycles(["/a//c"], capacity=128)
        query = parse_query("/a//c")
        one = OneTierClient(query, 0)
        two = TwoTierClient(query, 0)
        for cycle in cycles:
            one.on_cycle(cycle)
            two.on_cycle(cycle)
        assert one.received_doc_ids == two.received_doc_ids
        assert one.metrics.doc_bytes == two.metrics.doc_bytes
        assert one.metrics.completion_time == two.metrics.completion_time


class TestNaiveClient:
    def test_requires_expected_set(self):
        with pytest.raises(ValueError):
            NaiveClient(parse_query("/a"), 0, frozenset())

    def test_downloads_whole_data_segments(self):
        store, _p, cycles = build_cycles(["/a//c", "/a/b"])
        expected = frozenset({1, 2, 3, 4})
        client = NaiveClient(parse_query("/a//c"), 0, expected)
        for cycle in cycles:
            client.on_cycle(cycle)
        assert client.satisfied
        listened_data = sum(
            sum(c.doc_air_bytes[d] for d in c.doc_ids)
            for c in cycles[: client.metrics.cycles_listened]
        )
        assert client.metrics.doc_bytes == listened_data

    def test_costs_more_than_indexed_clients(self, nitf_store, nitf_queries):
        """On a realistic collection, exhaustive listening dwarfs indexed
        access (the Section 2.3 motivation)."""
        cycles = build_nitf_cycles(nitf_store, nitf_queries, capacity=30_000)
        from repro.xpath.evaluator import matching_documents

        # Pick a *selective* query: a query matching the whole collection
        # must download everything anyway, and then the index is pure
        # overhead -- selectivity is where air indexing pays off.
        query = min(
            nitf_queries,
            key=lambda q: len(matching_documents(q, nitf_store.documents)),
        )
        expected = frozenset(matching_documents(query, nitf_store.documents))
        assert len(expected) < len(nitf_store.documents) // 2
        naive = NaiveClient(query, 0, expected)
        two = TwoTierClient(query, 0)
        for cycle in cycles:
            naive.on_cycle(cycle)
            two.on_cycle(cycle)
        assert naive.satisfied and two.satisfied
        assert naive.metrics.tuning_bytes > two.metrics.tuning_bytes
