"""Unit tests for the document schedulers."""

from __future__ import annotations

import warnings

import pytest

from repro.broadcast.scheduling import (
    DemandTable,
    FCFSScheduler,
    LeeLoScheduler,
    MostRequestedFirstScheduler,
    RxWScheduler,
    _demand_table,
    make_scheduler,
    scheduler_names,
)
from repro.broadcast.server import DocumentStore, PendingQuery
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query


def tiny_store() -> DocumentStore:
    docs = [
        XMLDocument(i, build_element("a", build_element("b", text="x" * (20 * (i + 1)))))
        for i in range(4)
    ]
    return DocumentStore(docs)


class UniformSizes:
    """A store stand-in whose documents all air the same bytes, so
    Lee-Lo's size tie-break falls straight through to doc id."""

    def air_bytes(self, doc_id: int) -> int:
        return 1


def pending(query_id: int, arrival: int, remaining) -> PendingQuery:
    return PendingQuery(
        query_id=query_id,
        query=parse_query("/a/b"),
        arrival_time=arrival,
        result_doc_ids=frozenset(remaining),
    )


class TestFCFS:
    def test_oldest_query_first(self):
        scheduler = FCFSScheduler()
        older = pending(0, 0, {2, 3})
        newer = pending(1, 100, {0})
        ranked = scheduler.rank([newer, older], now=200)
        assert ranked == [2, 3, 0]

    def test_dedupes_across_queries(self):
        scheduler = FCFSScheduler()
        ranked = scheduler.rank([pending(0, 0, {1}), pending(1, 1, {1, 2})], now=5)
        assert ranked == [1, 2]


class TestMRF:
    def test_popularity_order(self):
        scheduler = MostRequestedFirstScheduler()
        queries = [pending(0, 0, {1, 2}), pending(1, 0, {2}), pending(2, 0, {2, 3})]
        ranked = scheduler.rank(queries, now=0)
        assert ranked[0] == 2  # wanted by all three
        assert set(ranked) == {1, 2, 3}

    def test_tie_breaks_by_doc_id(self):
        scheduler = MostRequestedFirstScheduler()
        ranked = scheduler.rank([pending(0, 0, {5, 3})], now=0)
        assert ranked == [3, 5]


class TestRxW:
    def test_wait_weighting(self):
        scheduler = RxWScheduler()
        old = pending(0, 0, {1})
        new = pending(1, 90, {2})
        ranked = scheduler.rank([old, new], now=100)
        assert ranked[0] == 1  # same popularity, longer wait wins

    def test_popularity_can_beat_wait(self):
        scheduler = RxWScheduler()
        lonely_old = pending(0, 0, {1})
        crowd = [pending(i, 99, {2}) for i in range(1, 150)]
        ranked = scheduler.rank([lonely_old] + crowd, now=100)
        assert ranked[0] == 2


class TestLeeLo:
    def test_completion_first(self):
        """A document finishing a nearly-done query beats a fragment of a
        huge query."""
        scheduler = LeeLoScheduler(UniformSizes())
        nearly_done = pending(0, 0, {7})
        huge = pending(1, 0, {i for i in range(10, 30)})
        ranked = scheduler.rank([nearly_done, huge], now=0)
        assert ranked[0] == 7

    def test_shared_docs_accumulate_score(self):
        scheduler = LeeLoScheduler(UniformSizes())
        queries = [pending(0, 0, {1, 2}), pending(1, 0, {2, 3})]
        ranked = scheduler.rank(queries, now=0)
        assert ranked[0] == 2  # scores 0.5 + 0.5 vs 0.5

    def test_store_construction_is_silent(self):
        store = tiny_store()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LeeLoScheduler(store)

    def test_size_tie_break_with_store(self):
        store = tiny_store()
        scheduler = LeeLoScheduler(store)
        # Docs 0 and 3 both single-query, same remaining size -> smaller doc
        # (doc 0) wins the tie.
        queries = [pending(0, 0, {0}), pending(1, 0, {3})]
        assert scheduler.rank(queries, now=0)[0] == 0


class TestSelect:
    def test_respects_capacity(self):
        store = tiny_store()
        scheduler = FCFSScheduler()
        queries = [pending(0, 0, {0, 1, 2, 3})]
        capacity = store.air_bytes(0) + store.air_bytes(1)
        chosen = scheduler.select(queries, store, capacity, now=0)
        total = sum(store.air_bytes(d) for d in chosen)
        assert total <= capacity

    def test_always_schedules_at_least_one(self):
        store = tiny_store()
        scheduler = FCFSScheduler()
        chosen = scheduler.select([pending(0, 0, {3})], store, capacity_bytes=1, now=0)
        assert chosen == [3]

    def test_skips_too_big_but_continues(self):
        store = tiny_store()
        scheduler = FCFSScheduler()
        # Capacity fits doc 0 and doc 1 but not doc 3 in between.
        queries = [pending(0, 0, {3, 0, 1})]
        capacity = store.air_bytes(0) + store.air_bytes(1)
        chosen = scheduler.select(queries, store, capacity, now=0)
        assert 0 in chosen or 1 in chosen

    def test_empty_pending(self):
        store = tiny_store()
        assert FCFSScheduler().select([], store, 1000, now=0) == []

    def test_oversized_first_doc_still_scheduled(self):
        """A document larger than the whole cycle is scheduled alone --
        otherwise it could never be delivered."""
        store = tiny_store()
        capacity = store.air_bytes(3) - 1
        chosen = FCFSScheduler().select([pending(0, 0, {3})], store, capacity, now=0)
        assert chosen == [3]

    def test_exact_fit_stops_the_fill(self):
        """Once the budget is exactly consumed the loop breaks; later
        candidates are not considered."""
        store = tiny_store()
        capacity = store.air_bytes(0) + store.air_bytes(1)
        chosen = FCFSScheduler().select(
            [pending(0, 0, {0, 1, 2})], store, capacity, now=0
        )
        assert chosen == [0, 1]
        assert sum(store.air_bytes(d) for d in chosen) == capacity

    def test_skip_then_fit(self):
        """A too-big candidate mid-list is skipped, not a hard stop: a
        later, smaller document can still use the remaining budget."""
        store = tiny_store()
        # FCFS rank order: [0, 3, 1] (older query's docs sorted, then newer).
        queries = [pending(0, 0, {0, 3}), pending(1, 1, {1})]
        capacity = store.air_bytes(0) + store.air_bytes(1)
        assert store.air_bytes(3) > store.air_bytes(1)  # 3 cannot fit after 0
        chosen = FCFSScheduler().select(queries, store, capacity, now=5)
        assert chosen == [0, 1]


class TestFactory:
    def test_all_names(self):
        assert set(scheduler_names()) == {"fcfs", "mrf", "rxw", "leelo"}

    def test_make_each(self):
        store = tiny_store()
        for name in scheduler_names():
            scheduler = make_scheduler(name, store)
            assert scheduler.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("bogus")

    def test_leelo_without_store_rejected(self):
        """The factory refuses a degraded Lee-Lo instead of warning."""
        with pytest.raises(ValueError, match="DocumentStore"):
            make_scheduler("leelo")

    def test_storeless_names_work_without_store(self):
        for name in ("fcfs", "mrf", "rxw"):
            assert make_scheduler(name).name == name


class TestDemandTable:
    def _queries(self):
        return [
            pending(0, 0, {0, 1}),
            pending(1, 5, {1, 2}),
            pending(2, 50, {3}),  # future arrival at now=10
        ]

    def test_snapshot_matches_rebuild(self):
        queries = self._queries()
        table = DemandTable()
        for q in queries:
            table.add_query(q)
        now = 10
        active = [q for q in queries if q.arrival_time <= now]
        rebuilt = _demand_table(active)
        snap = table.snapshot(now)
        assert set(snap) == set(rebuilt)
        for doc_id in rebuilt:
            assert {q.query_id for q in snap[doc_id]} == {
                q.query_id for q in rebuilt[doc_id]
            }

    def test_satisfied_queries_vanish_when_mirrored(self):
        """The server mirrors every remaining-set shrink; once a query's
        last edge is discarded the table forgets it entirely."""
        q = pending(0, 0, {0, 1})
        table = DemandTable()
        table.add_query(q)
        q.remaining_doc_ids = set()  # satisfied...
        table.drop(q, [0, 1])  # ...and mirrored
        assert table.snapshot(now=10) == {}

    def test_future_arrival_filtered_then_visible(self):
        q = pending(0, 50, {0})
        table = DemandTable()
        table.add_query(q)
        assert table.snapshot(now=10) == {}  # not yet arrived
        snap = table.snapshot(now=50)
        assert {p.query_id for p in snap[0]} == {0}

    def test_discard_edge_and_doc(self):
        queries = self._queries()
        table = DemandTable()
        for q in queries:
            table.add_query(q)
        table.drop(queries[0], [1])
        snap = table.snapshot(now=10)
        assert {q.query_id for q in snap[1]} == {1}
        table.drop(queries[1], [1])
        assert 1 not in table.snapshot(now=10)
        table.discard_doc(0)
        assert 0 not in table.snapshot(now=10)
        # Dropping absent edges is a no-op, not an error.
        table.drop(queries[0], [99])

    def test_pop_takes_an_aired_documents_eligible_waiters(self):
        """One pop per aired document: the waiters arrived by *now*
        leave together; a future arrival keeps its edge."""
        queries = self._queries() + [pending(3, 50, {1})]
        table = DemandTable()
        for q in queries:
            table.add_query(q)
        assert {q.query_id for q in table.pop(1, now=10)} == {0, 1}
        assert {q.query_id for q in table.snapshot(now=50)[1]} == {3}
        assert list(table.pop(7, now=10)) == []  # nobody waits on it
        assert {q.query_id for q in table.pop(1, now=50)} == {3}
        assert 1 not in table.snapshot(now=50)

    def test_rank_with_table_matches_rank_without(self):
        store = tiny_store()
        queries = [pending(0, 0, {0, 1}), pending(1, 2, {1, 2}), pending(2, 4, {3})]
        table = DemandTable()
        for q in queries:
            table.add_query(q)
        for scheduler in (
            MostRequestedFirstScheduler(),
            RxWScheduler(),
            LeeLoScheduler(store),
        ):
            assert scheduler.rank(queries, now=10, demand=table) == scheduler.rank(
                queries, now=10
            )
