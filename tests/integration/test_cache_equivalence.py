"""Cached vs from-scratch cycle builds must be byte-identical.

The incremental cycle-build caches (``repro.broadcast.cycle_cache``) are
a pure optimisation: a server with ``enable_caches=True`` and one with
``enable_caches=False`` fed the same submissions must emit cycle
programs with equal :func:`~repro.broadcast.program.program_signature`
fingerprints -- including across live collection mutations, which the
cached server follows by their delta (resolution cache, CI/PCI layers)
while the uncached twin recomputes everything from scratch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries, xml_elements


def make_pair(docs, **kwargs):
    """Two servers over independent stores of the same documents."""
    cached = BroadcastServer(DocumentStore(docs), enable_caches=True, **kwargs)
    plain = BroadcastServer(DocumentStore(docs), enable_caches=False, **kwargs)
    return cached, plain


def assert_cycles_match(cached, plain, now=None):
    cycle_a = cached.build_cycle(now)
    cycle_b = plain.build_cycle(now)
    if cycle_a is None or cycle_b is None:
        assert cycle_a is None and cycle_b is None
        return None
    assert program_signature(cycle_a) == program_signature(cycle_b)
    return cycle_a


class TestScriptedEquivalence:
    def test_steady_drain(self, nitf_docs, nitf_queries):
        """Overlapping queries drained over many small-capacity cycles:
        every cycle program matches the uncached server's."""
        cached, plain = make_pair(nitf_docs, cycle_data_capacity=4_000)
        admitted = 0
        for query in nitf_queries:
            try:
                cached.submit(query, arrival_time=0)
            except ValueError:
                continue  # empty result set: skip on both servers
            plain.submit(query, arrival_time=0)
            admitted += 1
        assert admitted >= 10
        cycles = 0
        while cached.pending or plain.pending:
            assert assert_cycles_match(cached, plain) is not None
            cycles += 1
            assert cycles < 500
        assert cycles >= 20  # a real steady-state drain, not a one-shot
        assert cached.cache.stats["ci_incremental"] > 0
        assert cached.cache.stats["dfa_hits"] > 0

    def test_equivalence_across_collection_mutation(self):
        """add/remove_document between cycles invalidates the caches; the
        programs must stay identical through it."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b", text="x" * 40))),
            XMLDocument(1, build_element("a", build_element("b", build_element("c")))),
            XMLDocument(2, build_element("a", build_element("c", text="y" * 60))),
        ]
        cached, plain = make_pair(docs, cycle_data_capacity=64)
        for server in (cached, plain):
            server.submit(parse_query("/a/b"), 0)
            server.submit(parse_query("/a//c"), 0)
        assert_cycles_match(cached, plain)

        extra = XMLDocument(7, build_element("a", build_element("b", text="z" * 30)))
        for server in (cached, plain):
            server.add_document(extra)
            server.submit(parse_query("/a/b"), server.clock)
        assert_cycles_match(cached, plain)

        for server in (cached, plain):
            server.remove_document(2)
        while cached.pending or plain.pending:
            assert_cycles_match(cached, plain)

    def test_no_cache_server_has_no_cache(self, nitf_docs):
        _cached, plain = make_pair(nitf_docs)
        assert plain.cache is None

    @pytest.mark.parametrize("scheduler_name", ["fcfs", "mrf", "rxw", "leelo"])
    def test_equivalence_per_scheduler(self, nitf_docs, nitf_queries, scheduler_name):
        from repro.broadcast.scheduling import make_scheduler

        cached = BroadcastServer(
            DocumentStore(nitf_docs),
            scheduler=make_scheduler(scheduler_name, DocumentStore(nitf_docs)),
            cycle_data_capacity=8_000,
            enable_caches=True,
        )
        plain = BroadcastServer(
            DocumentStore(nitf_docs),
            scheduler=make_scheduler(scheduler_name, DocumentStore(nitf_docs)),
            cycle_data_capacity=8_000,
            enable_caches=False,
        )
        for query in nitf_queries[:12]:
            try:
                cached.submit(query, 0)
            except ValueError:
                continue
            plain.submit(query, 0)
        guard = 0
        while cached.pending or plain.pending:
            assert assert_cycles_match(cached, plain) is not None
            guard += 1
            assert guard < 300


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        document_collections(min_docs=2, max_docs=6),
        st.lists(queries(max_steps=3), min_size=1, max_size=5),
        st.integers(min_value=64, max_value=512),
    )
    def test_random_workloads_byte_identical(self, docs, query_list, capacity):
        cached, plain = make_pair(docs, cycle_data_capacity=capacity)
        admitted = 0
        for query in query_list:
            try:
                cached.submit(query, 0)
            except ValueError:
                continue
            plain.submit(query, 0)
            admitted += 1
        if not admitted:
            return
        guard = 0
        while cached.pending or plain.pending:
            assert assert_cycles_match(cached, plain) is not None
            guard += 1
            assert guard < 200


# ----------------------------------------------------------------------
# Delta maintenance under interleaved mutations
# ----------------------------------------------------------------------


class _Twins:
    """A delta-maintained server and its ``enable_caches=False`` oracle,
    driven in lockstep and checked after every step."""

    def __init__(self, docs, capacity, acknowledged):
        self.cached, self.plain = make_pair(
            docs, cycle_data_capacity=capacity, acknowledged_delivery=acknowledged
        )
        self.last_cycle = None
        self.free_ids = []
        self.next_id = max(doc.doc_id for doc in docs) + 1

    @property
    def servers(self):
        return (self.cached, self.plain)

    def submit(self, query):
        outcomes = []
        for server in self.servers:
            try:
                outcomes.append(server.submit(query, server.clock).result_doc_ids)
            except ValueError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        self.check()

    def add(self, root, reuse_id):
        if reuse_id and self.free_ids:
            doc_id = self.free_ids.pop()
        else:
            doc_id, self.next_id = self.next_id, self.next_id + 1
        for server in self.servers:
            server.add_document(XMLDocument(doc_id, root))
        self.check()

    def remove(self, doc_id):
        if len(self.cached.store) == 1:
            return
        for server in self.servers:
            server.remove_document(doc_id)
        self.free_ids.append(doc_id)
        self.check()

    def build(self):
        self.last_cycle = assert_cycles_match(self.cached, self.plain)
        self.check()

    def confirm(self, position, lose_one):
        cycle = self.last_cycle
        if cycle is None or not self.cached.pending:
            return
        pending = self.cached.pending[position % len(self.cached.pending)]
        twin = next(
            q for q in self.plain.pending if q.query_id == pending.query_id
        )
        on_air = pending.remaining_doc_ids & set(cycle.doc_ids)
        if lose_one and on_air:
            on_air = set(sorted(on_air)[1:])
        received = (set(pending.result_doc_ids) - pending.remaining_doc_ids) | on_air
        self.cached.confirm_delivery(pending, received, cycle)
        self.plain.confirm_delivery(twin, received, cycle)
        self.check()

    def check(self):
        cached, plain = self.cached, self.plain
        live = cached.store.documents
        # (a) every cached resolution is the evaluator's answer over the
        # live collection
        for text, (query, docs) in cached.admission.resolutions.items():
            assert str(query) == text
            assert docs == matching_documents(query, live), text
        # queue bookkeeping agrees with the oracle and holds no satisfied query
        assert [q.query_id for q in cached.pending] == [
            q.query_id for q in plain.pending
        ]
        assert [q.query_id for q in cached.completed] == [
            q.query_id for q in plain.completed
        ]
        for mine, theirs in zip(cached.pending, plain.pending):
            assert not mine.is_satisfied
            assert mine.remaining_doc_ids == theirs.remaining_doc_ids
            assert mine.remaining_doc_ids <= set(cached.store.by_id)


class TestDeltaMaintenance:
    """Collection mutations are followed by their delta (resolution
    cache, CI/PCI layers, acknowledgement reaping); the from-scratch
    twin and the reference evaluator say what the answers must be."""

    @settings(max_examples=60, deadline=None)
    @given(
        document_collections(min_docs=2, max_docs=5),
        st.integers(min_value=64, max_value=400),
        st.booleans(),
        st.data(),
    )
    def test_interleaved_mutations_match_oracles(
        self, docs, capacity, acknowledged, data
    ):
        twins = _Twins(docs, capacity, acknowledged)
        operations = ["submit", "submit", "build", "add", "remove", "remove_requested"]
        if acknowledged:
            operations.append("confirm")
        for _ in range(data.draw(st.integers(4, 14), label="steps")):
            operation = data.draw(st.sampled_from(operations), label="op")
            if operation == "submit":
                twins.submit(data.draw(queries(max_steps=3), label="query"))
            elif operation == "build":
                twins.build()
            elif operation == "add":
                twins.add(
                    data.draw(xml_elements(max_depth=3), label="root"),
                    reuse_id=data.draw(st.booleans(), label="reuse id"),
                )
            elif operation == "remove":
                live = sorted(twins.cached.store.by_id)
                twins.remove(data.draw(st.sampled_from(live), label="victim"))
            elif operation == "remove_requested":
                # ungated: a document the cached CI was built over
                requested = sorted(twins.cached.cache._ci_requested or ())
                if requested:
                    twins.remove(
                        data.draw(st.sampled_from(requested), label="requested victim")
                    )
            else:
                twins.confirm(
                    data.draw(st.integers(0, 7), label="pending position"),
                    lose_one=data.draw(st.booleans(), label="lose one"),
                )
        guard = 0
        while twins.cached.pending or twins.plain.pending:
            twins.build()
            for position in reversed(range(len(twins.cached.pending))):
                if acknowledged:
                    twins.confirm(position, lose_one=False)
            guard += 1
            assert guard < 200

    def test_ungated_removal_of_a_requested_document(self):
        """The path ``ChaosSimulation`` never takes: the removed document
        is in the cached requested set, mid-drain."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b", text="x" * 40))),
            XMLDocument(1, build_element("a", build_element("b", build_element("c")))),
            XMLDocument(2, build_element("a", build_element("c", text="y" * 60))),
            XMLDocument(3, build_element("a", build_element("b", text="w" * 50))),
        ]
        twins = _Twins(docs, capacity=64, acknowledged=False)
        twins.submit(parse_query("/a/b"))
        twins.submit(parse_query("/a//c"))
        twins.build()
        requested = twins.cached.cache._ci_requested
        victim = max(requested)
        twins.remove(victim)
        # unmerged from the cached guide in place, not dropped
        assert twins.cached.cache._ci_requested == requested - {victim}
        while twins.cached.pending:
            twins.build()

    def test_doc_id_reuse_with_different_content(self):
        """Remove id *n*, add different content under id *n*: neither the
        resolution cache nor a cached index may remember the old one."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b", text="x" * 40))),
            XMLDocument(1, build_element("a", build_element("b", build_element("c")))),
            XMLDocument(2, build_element("a", build_element("c", text="y" * 60))),
        ]
        twins = _Twins(docs, capacity=10**6, acknowledged=True)
        twins.submit(parse_query("/a/b"))
        twins.submit(parse_query("/a//c"))
        twins.build()
        twins.remove(1)
        twins.add(build_element("a", build_element("d", build_element("c"))), reuse_id=True)
        assert 1 in twins.cached.store.by_id
        assert twins.cached.resolve(parse_query("/a/b")) == {0}
        assert twins.cached.resolve(parse_query("/a//c")) == {1, 2}
        # Same query strings over the same requested ids as the cycle
        # above -- only the content behind id 1 differs.
        twins.submit(parse_query("/a/b"))
        twins.submit(parse_query("/a//c"))
        while twins.cached.pending:
            twins.build()
            for position in reversed(range(len(twins.cached.pending))):
                twins.confirm(position, lose_one=False)
