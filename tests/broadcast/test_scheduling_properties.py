"""Property tests shared by every scheduler implementation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.scheduling import make_scheduler, scheduler_names
from repro.broadcast.server import DocumentStore, PendingQuery
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query
from tests.oracles import demand_of


def store_of(sizes):
    docs = [
        XMLDocument(i, build_element("a", build_element("b", text="x" * size)))
        for i, size in enumerate(sizes)
    ]
    return DocumentStore(docs)


@st.composite
def pending_sets(draw):
    doc_count = draw(st.integers(2, 8))
    sizes = draw(
        st.lists(st.integers(1, 600), min_size=doc_count, max_size=doc_count)
    )
    store = store_of(sizes)
    query_count = draw(st.integers(1, 5))
    pending = []
    for query_id in range(query_count):
        remaining = draw(
            st.sets(st.integers(0, doc_count - 1), min_size=1, max_size=doc_count)
        )
        pending.append(
            PendingQuery(
                query_id=query_id,
                query=parse_query("/a/b"),
                arrival_time=draw(st.integers(0, 100)),
                result_doc_ids=frozenset(remaining),
            )
        )
    return store, pending


@pytest.mark.parametrize("name", scheduler_names())
class TestSchedulerContracts:
    @given(data=st.data())
    def test_rank_returns_exactly_the_demanded_docs(self, name, data):
        store, pending = data.draw(pending_sets())
        scheduler = make_scheduler(name, store)
        ranked = scheduler.rank(pending, 200, demand_of(pending))
        demanded = set()
        for query in pending:
            demanded |= query.remaining_doc_ids
        assert set(ranked) == demanded
        assert len(ranked) == len(set(ranked))  # no duplicates

    @given(data=st.data())
    def test_select_within_capacity_plus_first_doc(self, name, data):
        store, pending = data.draw(pending_sets())
        capacity = data.draw(st.integers(1, 3000))
        scheduler = make_scheduler(name, store)
        chosen = scheduler.select(pending, store, capacity, 200, demand_of(pending))
        total = sum(store.air_bytes(d) for d in chosen)
        if len(chosen) > 1:
            assert total <= capacity + store.air_bytes(chosen[-1])
            # Stronger: removing the last pick fits the budget.
            assert total - store.air_bytes(chosen[-1]) <= capacity

    @given(data=st.data())
    def test_select_nonempty_when_demand_exists(self, name, data):
        store, pending = data.draw(pending_sets())
        scheduler = make_scheduler(name, store)
        assert scheduler.select(pending, store, 1, 200, demand_of(pending))

    @given(data=st.data())
    def test_deterministic(self, name, data):
        store, pending = data.draw(pending_sets())
        scheduler = make_scheduler(name, store)
        again = make_scheduler(name, store)
        demand = demand_of(pending)
        assert scheduler.rank(pending, 200, demand) == again.rank(pending, 200, demand)


class TestLeeLoScores:
    @given(data=st.data())
    def test_rank_is_the_per_edge_reciprocal_sum_bit_for_bit(self, data):
        """One weight per query must order exactly as one division per
        (document, query) edge: same floats, same ``sum()`` order."""
        store, pending = data.draw(pending_sets())
        for query in pending:  # part-delivered: remaining < result set
            query.remaining_doc_ids = data.draw(
                st.sets(st.sampled_from(sorted(query.result_doc_ids)), min_size=1)
            )
        demand = {}
        for query in pending:
            for doc_id in query.remaining_doc_ids:
                demand.setdefault(doc_id, []).append(query)
        scores = {
            doc_id: sum(1.0 / len(q.remaining_doc_ids) for q in queries)
            for doc_id, queries in demand.items()
        }
        want = sorted(demand, key=lambda d: (-scores[d], store.air_bytes(d), d))
        ranked = make_scheduler("leelo", store).rank(pending, 200, demand_of(pending))
        assert ranked == want
