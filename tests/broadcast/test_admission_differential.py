"""Admission and demand against a reference built from the evaluator.

A drawn script drives one server through keyed submits (retries, and
queries whose result set is empty), builds, acknowledgements (some of
which omit what an earlier one covered, so the document comes back),
adds and removes.  After every step the server agrees with
:class:`AdmissionReference`: ids run consecutively over admitted queries
only, a keyed retry returns the very object first admitted, a rejected
query takes no id, and each result set is the evaluator's answer over
the collection as it stood at admission.  The server's
:class:`~repro.broadcast.scheduling.DemandTable` equals a rebuild over
the active queries, document by document and in query order, since
Lee-Lo sums its weights in that order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.oracles import demand_rebuild
from tests.xpath.test_evaluator import paper_documents

QUERIES = [
    parse_query(text)
    for text in ("/a/b", "/a//c", "/a/b/a", "//b", "/a/zz", "/a/c/zz", "/nothing")
]

#: bodies of added documents: each one joins some cached result sets
ADDED = [
    lambda: build_element("a", build_element("b")),
    lambda: build_element("a", build_element("zz")),
    lambda: build_element("a", build_element("c", build_element("zz"))),
    lambda: build_element("nothing"),
]


class AdmissionReference:
    """What admission must answer, from the evaluator and a dict."""

    def __init__(self, documents):
        self.documents = {doc.doc_id: doc for doc in documents}
        self.keyed = {}  # (client key, query string) -> first admission
        self.next_id = 0

    def check(self, queries, keys, arrival, admitted):
        assert len(admitted) == len(queries)
        earlier = dict(self.keyed)  # a batch's lookups precede its admissions
        for query, key, result in zip(queries, keys, admitted):
            first = earlier.get((key, str(query))) if key is not None else None
            if first is not None:
                assert result.duplicate and result.pending is first
                continue
            assert not result.duplicate
            truth = matching_documents(query, list(self.documents.values()))
            if not truth:
                assert result.pending is None
                continue
            pending = result.pending
            assert pending is not None, str(query)
            assert pending.query_id == self.next_id
            assert pending.result_doc_ids == truth, str(query)
            assert pending.arrival_time == arrival
            self.next_id += 1
            if key is not None:
                self.keyed[(key, str(query))] = pending


submits = st.tuples(
    st.just("submit"),
    st.lists(
        st.tuples(
            st.integers(0, len(QUERIES) - 1), st.one_of(st.none(), st.integers(0, 2))
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 3),  # arrival, in units of 100 bytes past the clock
)
steps = st.lists(
    st.one_of(
        submits,
        st.tuples(st.just("build")),
        st.tuples(
            st.just("confirm"),
            st.lists(st.tuples(st.integers(0, 50), st.booleans()), min_size=1, max_size=3),
        ),
        st.tuples(st.just("add"), st.integers(0, len(ADDED) - 1)),
        st.tuples(st.just("remove"), st.integers(0, 50)),
    ),
    min_size=10,
    max_size=40,
)


def check_demand(server):
    for now in (server.clock, server.clock + 1_000):
        want = demand_rebuild(server.active_pending(now))
        got = server.demand.snapshot(now)
        assert {d: [q.query_id for q in qs] for d, qs in got.items()} == {
            d: [q.query_id for q in qs] for d, qs in want.items()
        }


@pytest.mark.parametrize("enable_caches", [True, False])
@settings(max_examples=100, deadline=None)
@given(script=steps)
def test_admission_and_demand_match_the_reference(enable_caches, script):
    documents = paper_documents()
    server = BroadcastServer(
        DocumentStore(documents),
        cycle_data_capacity=150,
        acknowledged_delivery=True,
        enable_caches=enable_caches,
    )
    reference = AdmissionReference(documents)
    cycle, next_doc_id = None, 100
    for step in script:
        kind = step[0]
        if kind == "submit":
            queries = [QUERIES[index] for index, _key in step[1]]
            keys = [key for _index, key in step[1]]
            arrival = server.clock + 100 * step[2]
            admitted = server.submit_batch(queries, arrival, client_keys=keys)
            reference.check(queries, keys, arrival, admitted)
        elif kind == "build":
            cycle = server.build_cycle() or cycle
        elif kind == "confirm" and cycle is not None:
            for position, omit in step[1]:
                if not server.pending:
                    break
                query = server.pending[position % len(server.pending)]
                delivered = set(query.result_doc_ids) - query.remaining_doc_ids
                received = delivered | (query.remaining_doc_ids & set(cycle.doc_ids))
                if omit and delivered:  # omit one, so it comes back
                    received.discard(min(delivered))
                server.confirm_delivery(query, received, cycle)
        elif kind == "add":
            document = XMLDocument(next_doc_id, ADDED[step[1]]())
            next_doc_id += 1
            server.add_document(document)
            reference.documents[document.doc_id] = document
        elif kind == "remove" and len(server.store) > 1:
            ids = sorted(server.store.by_id)
            victim = ids[step[1] % len(ids)]
            server.remove_document(victim)
            del reference.documents[victim]
        check_demand(server)
