"""Unit tests for the broadcast server and document store."""

from __future__ import annotations

import pytest

from repro.broadcast.program import IndexScheme
from repro.broadcast.scheduling import FCFSScheduler
from repro.broadcast.server import BroadcastServer, DocumentStore, PendingQuery
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query


def paper_store() -> DocumentStore:
    from tests.xpath.test_evaluator import paper_documents

    return DocumentStore(paper_documents())


class TestDocumentStore:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DocumentStore([])

    def test_duplicate_ids_rejected(self):
        doc = XMLDocument(0, build_element("a"))
        clone = XMLDocument(0, build_element("a"))
        with pytest.raises(ValueError):
            DocumentStore([doc, clone])

    def test_air_bytes_packet_aligned(self):
        store = paper_store()
        for doc in store.documents:
            air = store.air_bytes(doc.doc_id)
            assert air % store.size_model.packet_bytes == 0
            assert air >= doc.size_bytes

    def test_guides_cached_per_doc(self):
        store = paper_store()
        assert set(store.guides) == {doc.doc_id for doc in store.documents}

    def test_subset(self):
        store = paper_store()
        subset = store.subset({1, 3})
        assert [doc.doc_id for doc in subset] == [1, 3]

    def test_total_data_bytes(self):
        store = paper_store()
        assert store.total_data_bytes() == sum(
            doc.size_bytes for doc in store.documents
        )


class TestResolve:
    def test_matches_evaluator(self, nitf_store, nitf_queries):
        server = BroadcastServer(nitf_store)
        for query in nitf_queries[:15]:
            expected = matching_documents(query, nitf_store.documents)
            assert server.resolve(query) == expected, str(query)

    def test_cached_by_string(self):
        server = BroadcastServer(paper_store())
        first = server.resolve(parse_query("/a/b"))
        second = server.resolve(parse_query("/a/b"))
        assert first is second  # same frozenset object -> cache hit

    def test_paper_queries(self):
        server = BroadcastServer(paper_store())
        assert server.resolve(parse_query("/a/b/a")) == {0, 1}
        assert server.resolve(parse_query("/a//c")) == {1, 2, 3, 4}
        assert server.resolve(parse_query("/a/c/*")) == {1, 3, 4}


class TestResolveBatch:
    def test_matches_single_resolution(self, nitf_store, nitf_queries):
        batch_server = BroadcastServer(nitf_store)
        single_server = BroadcastServer(nitf_store)
        batch = batch_server.resolve_batch(nitf_queries[:15])
        singles = [single_server.resolve(q) for q in nitf_queries[:15]]
        assert batch == singles

    def test_duplicate_queries_share_one_result(self):
        server = BroadcastServer(paper_store())
        a, b = server.resolve_batch([parse_query("/a/b"), parse_query("/a/b")])
        assert a is b  # one resolution, one cached frozenset

    def test_mixed_hits_and_misses(self):
        server = BroadcastServer(paper_store())
        warm = server.resolve(parse_query("/a/b"))
        results = server.resolve_batch(
            [parse_query("/a//c"), parse_query("/a/b"), parse_query("/a/c/*")]
        )
        assert results[0] == {1, 2, 3, 4}
        assert results[1] is warm  # cache hit kept its position
        assert results[2] == {1, 3, 4}

    def test_empty_batch(self):
        assert BroadcastServer(paper_store()).resolve_batch([]) == []

    def test_predicate_query_rejected(self):
        server = BroadcastServer(paper_store())
        with pytest.raises(ValueError, match="structural"):
            server.resolve_batch([parse_query("/a/b[c]")])


class TestSubmit:
    def test_pending_created(self):
        server = BroadcastServer(paper_store())
        pending = server.submit(parse_query("/a/b"), arrival_time=10)
        assert pending.result_doc_ids == {0, 1, 2, 4}
        assert pending.remaining_doc_ids == {0, 1, 2, 4}
        assert not pending.is_satisfied

    def test_empty_result_rejected(self):
        server = BroadcastServer(paper_store())
        with pytest.raises(ValueError):
            server.submit(parse_query("/nothing/here"), arrival_time=0)

    def test_query_ids_increment(self):
        server = BroadcastServer(paper_store())
        first = server.submit(parse_query("/a/b"), 0)
        second = server.submit(parse_query("/a//c"), 0)
        assert second.query_id == first.query_id + 1

    def test_batch_admission(self):
        server = BroadcastServer(paper_store())
        admitted = server.submit_batch(
            [parse_query("/a/b"), parse_query("/a//c")], arrival_time=5
        )
        assert [p.query_id for p in admitted] == [0, 1]
        assert all(p.arrival_time == 5 for p in admitted)
        assert server.pending == admitted

    def test_batch_admission_is_atomic(self):
        """One empty-result query rejects the whole batch before any
        admission happens."""
        server = BroadcastServer(paper_store())
        with pytest.raises(ValueError, match="empty result set"):
            server.submit_batch(
                [parse_query("/a/b"), parse_query("/nothing/here")], arrival_time=0
            )
        assert server.pending == []
        assert len(server.demand) == 0


class TestBuildCycle:
    def test_idle_server_returns_none(self):
        server = BroadcastServer(paper_store())
        assert server.build_cycle() is None

    def test_future_arrivals_not_served(self):
        server = BroadcastServer(paper_store())
        server.submit(parse_query("/a/b"), arrival_time=10_000)
        assert server.build_cycle(now=0) is None

    def test_a_later_arrival_keeps_what_aired_before_it(self):
        """An aired document leaves only the remaining sets of queries
        that had arrived by the build; a later one still waits on it."""
        server = BroadcastServer(paper_store(), cycle_data_capacity=1_000_000)
        early = server.submit(parse_query("/a/b/a"), arrival_time=0)
        late = server.submit(parse_query("/a/b/a"), arrival_time=10**9)
        cycle = server.build_cycle(now=0)
        assert early.is_satisfied and set(cycle.doc_ids) == {0, 1}
        assert late.remaining_doc_ids == {0, 1}
        assert server.pending == [late]
        waiting = server.demand.snapshot(10**9)
        assert {d: [q.query_id for q in w] for d, w in waiting.items()} == {
            0: [late.query_id],
            1: [late.query_id],
        }

    def test_single_query_served_and_satisfied(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=1_000_000)
        pending = server.submit(parse_query("/a/b/a"), arrival_time=0)
        cycle = server.build_cycle()
        assert cycle is not None
        assert set(cycle.doc_ids) == {0, 1}
        assert pending.is_satisfied
        assert pending.satisfied_cycle == 0
        assert server.pending == []
        assert server.completed == [pending]

    def test_capacity_spreads_over_cycles(self):
        store = paper_store()
        # Capacity of one packet-aligned document per cycle.
        capacity = store.air_bytes(0)
        server = BroadcastServer(store, cycle_data_capacity=capacity)
        pending = server.submit(parse_query("/a//c"), arrival_time=0)
        cycles = 0
        while not pending.is_satisfied:
            assert server.build_cycle() is not None
            cycles += 1
            assert cycles < 20
        assert cycles > 1
        assert pending.cycles_listened == cycles

    def test_clock_advances_past_cycle(self):
        server = BroadcastServer(paper_store())
        server.submit(parse_query("/a/b"), 0)
        cycle = server.build_cycle()
        assert server.clock == cycle.end_time
        assert cycle.start_time == 0

    def test_pci_covers_only_requested_docs(self):
        server = BroadcastServer(paper_store())
        server.submit(parse_query("/a/b/a"), 0)  # d1, d2
        cycle = server.build_cycle()
        assert set(cycle.pci.annotated_doc_ids()) <= {0, 1}

    def test_lookup_on_cycle_matches_resolution(self):
        server = BroadcastServer(paper_store())
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        assert set(cycle.lookup(query).doc_ids) == {1, 2, 3, 4}

    def test_records_written(self):
        server = BroadcastServer(paper_store())
        server.submit(parse_query("/a/b"), 0)
        server.build_cycle()
        assert len(server.records) == 1
        record = server.records[0]
        assert record.pending_count == 1
        assert record.scheduled_docs > 0
        assert record.requested_docs == 4  # /a/b -> d1, d2, d3, d5
        assert record.pruning.bytes_after <= record.pruning.bytes_before

    def test_one_tier_scheme(self):
        server = BroadcastServer(
            paper_store(), scheme=IndexScheme.ONE_TIER, scheduler=FCFSScheduler()
        )
        server.submit(parse_query("/a/b"), 0)
        cycle = server.build_cycle()
        assert cycle.scheme is IndexScheme.ONE_TIER

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BroadcastServer(paper_store(), cycle_data_capacity=0)

    def test_multiple_queries_share_documents(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=1_000_000)
        q1 = server.submit(parse_query("/a/b/a"), 0)  # {0, 1}
        q2 = server.submit(parse_query("/a/c/a"), 0)  # {3, 4}
        cycle = server.build_cycle()
        assert set(cycle.doc_ids) == {0, 1, 3, 4}
        assert q1.is_satisfied and q2.is_satisfied

    def test_late_arrival_served_next_cycle(self):
        store = paper_store()
        server = BroadcastServer(store, cycle_data_capacity=1_000_000)
        server.submit(parse_query("/a/b/a"), 0)
        first = server.build_cycle()
        late = server.submit(parse_query("/a/c/a"), arrival_time=first.end_time - 1)
        second = server.build_cycle()
        assert second is not None
        assert set(second.doc_ids) == {3, 4}
        assert late.is_satisfied
