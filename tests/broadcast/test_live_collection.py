"""Tests for live collection changes at the store and server level."""

from __future__ import annotations

import functools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.broadcast.server as server_module
from repro.broadcast.server import (
    RESOLUTION_CACHE_SIZE,
    BroadcastServer,
    DocumentStore,
)
from repro.filtering.nfa import SharedPathNFA, resolve_on_guide
from repro.xmlkit.generator import (
    BUILTIN_DTDS,
    DocumentGenerator,
    GeneratorConfig,
    generate_collection,
)
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.generator import generate_workload
from repro.xpath.parser import parse_query
from tests.oracles import docs_containing


def paper_store() -> DocumentStore:
    from tests.xpath.test_evaluator import paper_documents

    return DocumentStore(paper_documents())


@functools.lru_cache(maxsize=None)
def nitf_world():
    """The NITF DTD and a pool of query strings over a 12-document
    collection of it."""
    dtd = BUILTIN_DTDS["nitf"]()
    return dtd, tuple(generate_workload(generate_collection(dtd, 12, seed=5), 40, seed=2))


class TestStoreMaintenance:
    def test_add_document_updates_everything(self):
        store = paper_store()
        extra = XMLDocument(10, build_element("a", build_element("b")))
        store.add_document(extra)
        assert store.document(10) is extra
        assert store.air_bytes(10) > 0
        assert 10 in store.guides
        assert 10 in docs_containing(store.full_guide, ("a", "b"))

    def test_add_duplicate_rejected(self):
        store = paper_store()
        with pytest.raises(ValueError):
            store.add_document(XMLDocument(0, build_element("a")))

    def test_remove_document_updates_everything(self):
        store = paper_store()
        removed = store.remove_document(1)  # d2
        assert removed.doc_id == 1
        assert 1 not in store.by_id
        assert 1 not in store.guides
        # d2's unique path disappears from the combined guide.
        assert store.full_guide.find(("a", "c", "b")) is None

    def test_remove_matches_rebuild(self):
        store = paper_store()
        store.remove_document(1)
        rebuilt = DocumentStore(store.documents)
        ours = {
            path: frozenset(node.leaf_docs)
            for node, path in store.full_guide.root.iter_with_paths()
        }
        theirs = {
            path: frozenset(node.leaf_docs)
            for node, path in rebuilt.full_guide.root.iter_with_paths()
        }
        assert ours == theirs

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError):
            paper_store().remove_document(99)

    def test_remove_last_rejected(self):
        store = DocumentStore([XMLDocument(0, build_element("a"))])
        with pytest.raises(ValueError):
            store.remove_document(0)


class TestServerMaintenance:
    def test_added_document_served_to_new_queries(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=10**6)
        extra = XMLDocument(10, build_element("a", build_element("b", build_element("zz"))))
        server.add_document(extra)
        pending = server.submit(parse_query("/a/b/zz"), 0)
        assert pending.result_doc_ids == {10}
        cycle = server.build_cycle()
        assert 10 in cycle.doc_ids

    def test_resolution_cache_invalidated_on_add(self):
        """Cached strings follow an add by its delta: the new document
        joins exactly the result sets it matches, with no walk of the
        full combined guide."""
        server = BroadcastServer(paper_store())
        texts = ("/a/b", "/a//c", "/a/c/a")
        before = {t: server.resolve(parse_query(t)) for t in texts}
        walked = server.admission.resolved_query_strings
        extra = XMLDocument(10, build_element("a", build_element("b")))
        server.add_document(extra)
        after = {t: server.resolve(parse_query(t)) for t in texts}
        assert after["/a/b"] == before["/a/b"] | {10}
        assert after["/a//c"] == before["/a//c"]
        assert after["/a/c/a"] == before["/a/c/a"]
        assert server.admission.resolved_query_strings == walked
        # A string first asked after the add sees the new document too.
        assert 10 in server.resolve(parse_query("//b"))
        assert server.admission.resolved_query_strings == walked + 1

    def test_uncached_server_resolves_by_delta(self):
        """``enable_caches=False`` forks only the index stage: its
        resolutions follow each mutation by the delta, with no re-walk."""
        server = BroadcastServer(paper_store(), enable_caches=False)
        before = server.resolve(parse_query("/a/b"))
        server.add_document(XMLDocument(10, build_element("a", build_element("b"))))
        assert server.resolve(parse_query("/a/b")) == before | {10}
        server.remove_document(10)
        assert server.resolve(parse_query("/a/b")) == before
        assert server.admission.resolved_query_strings == 1

    def test_removed_document_dropped_from_pending(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=128)
        pending = server.submit(parse_query("/a/b/a"), 0)  # d1, d2
        first = server.build_cycle()
        assert len(first.doc_ids) == 1
        # The other result document disappears before it was broadcast.
        remaining_doc = next(iter(pending.remaining_doc_ids))
        server.remove_document(remaining_doc)
        assert pending.is_satisfied
        assert server.pending == []

    def test_removal_mid_broadcast_keeps_others_pending(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=128)
        pending = server.submit(parse_query("/a//c"), 0)  # d2..d5
        server.build_cycle()
        victim = next(iter(pending.remaining_doc_ids))
        server.remove_document(victim)
        assert victim not in pending.remaining_doc_ids
        if pending.remaining_doc_ids:
            assert not pending.is_satisfied

    def test_remove_satisfies_never_indexed_query(self):
        """Regression: removal satisfying a query that no cycle ever served
        must not stamp a bogus pre-arrival ``satisfied_cycle``."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b"))),
            XMLDocument(1, build_element("a", build_element("zz"))),
        ]
        server = BroadcastServer(DocumentStore(docs))
        pending = server.submit(parse_query("/a/zz"), arrival_time=0)
        assert pending.result_doc_ids == {1}
        # The sole result document vanishes before any cycle is built.
        server.remove_document(1)
        assert pending.is_satisfied
        assert pending.satisfied_time is not None
        assert pending.satisfied_cycle is None  # was cycle_number - 1 == -1
        assert pending.cycles_listened is None
        assert server.pending == []

    def test_remove_satisfying_indexed_query_stamps_cycle(self):
        """A query some cycle *did* serve keeps its satisfied_cycle stamp
        when removal finishes it off."""
        server = BroadcastServer(paper_store(), cycle_data_capacity=128)
        pending = server.submit(parse_query("/a/b/a"), 0)  # d1, d2
        server.build_cycle()
        assert pending.first_indexed_cycle == 0
        remaining_doc = next(iter(pending.remaining_doc_ids))
        server.remove_document(remaining_doc)
        assert pending.is_satisfied
        assert pending.satisfied_cycle == 0
        assert pending.cycles_listened == 1

    def test_resolution_cache_invalidated_on_remove(self):
        """A removed document is subtracted from the cached result sets
        that contain it; nothing is re-walked."""
        server = BroadcastServer(paper_store())
        texts = ("/a/b", "/a//c", "/a/c/a")
        before = {t: server.resolve(parse_query(t)) for t in texts}
        walked = server.admission.resolved_query_strings
        victim = next(iter(before["/a/b"]))
        server.remove_document(victim)
        for text in texts:
            assert server.resolve(parse_query(text)) == before[text] - {victim}
        assert server.admission.resolved_query_strings == walked

    def test_doc_id_reuse_resolves_by_new_content(self):
        """Remove id n, add different content under id n: cached strings
        reflect the new content, not the old."""
        server = BroadcastServer(paper_store())
        old = server.resolve(parse_query("/a/b"))
        victim = next(iter(old))
        other = server.resolve(parse_query("/a/zz"))
        assert victim not in other
        server.remove_document(victim)
        server.add_document(XMLDocument(victim, build_element("a", build_element("zz"))))
        assert server.resolve(parse_query("/a/b")) == old - {victim}
        assert server.resolve(parse_query("/a/zz")) == other | {victim}

    def test_resolution_cache_is_bounded(self, monkeypatch):
        """ROADMAP 4c: 10x the cap of distinct strings leaves the cache
        flat, and an evicted string re-resolves to the identical set."""
        monkeypatch.setattr(server_module, "RESOLUTION_CACHE_SIZE", 8)
        server = BroadcastServer(paper_store())
        first = server.resolve(parse_query("/a/b"))
        labels = [f"t{n}" for n in range(80)]
        for label in labels:
            server.resolve(parse_query(f"/a/{label}"))
            assert len(server.admission.resolutions) <= 8
        assert len(server.admission.resolutions) == 8
        assert "/a/b" not in server.admission.resolutions  # evicted long ago
        assert server.resolve(parse_query("/a/b")) == first

    def test_recently_used_string_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(server_module, "RESOLUTION_CACHE_SIZE", 4)
        server = BroadcastServer(paper_store())
        server.resolve(parse_query("/a/b"))
        for n in range(20):
            server.resolve(parse_query(f"/a/t{n}"))
            server.resolve(parse_query("/a/b"))  # keeps it most recent
        walked = server.admission.resolved_query_strings
        server.resolve(parse_query("/a/b"))
        assert server.admission.resolved_query_strings == walked

    def test_confirm_delivery_does_not_resurrect_removed_doc(self):
        """Regression: acknowledged delivery resets the remaining set from
        ``result_doc_ids``; documents removed from the collection since
        admission must stay dropped."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        pending = server.submit(parse_query("/a/b/a"), 0)  # d1, d2 -> {0, 1}
        cycle = server.build_cycle()
        server.remove_document(1)
        assert pending.remaining_doc_ids == {0}
        server.confirm_delivery(pending, received_doc_ids=set(), cycle=cycle)
        assert pending.remaining_doc_ids == {0}  # doc 1 stays gone
        server.confirm_delivery(pending, received_doc_ids={0}, cycle=cycle)
        assert pending.is_satisfied

    def test_confirm_delivery_does_not_resurrect_a_reused_doc_id(self):
        """Regression: the reset filtered ``result_doc_ids`` by "still in
        the store", so a new document reusing a removed one's id was put
        back into the remaining set of a query that never asked for it.
        A re-tuned client (fewer documents received) still grows it back."""
        from repro.xmlkit.generator import (
            BUILTIN_DTDS,
            DocumentGenerator,
            GeneratorConfig,
            generate_collection,
        )

        dtd = BUILTIN_DTDS["nitf"]()
        server = BroadcastServer(
            DocumentStore(generate_collection(dtd, 30, seed=3)),
            acknowledged_delivery=True,
        )
        pending = server.submit(parse_query("/nitf"), 0)
        reused = min(pending.result_doc_ids)
        server.remove_document(reused)
        newcomer = DocumentGenerator(dtd, GeneratorConfig(seed=4)).generate(reused)
        server.add_document(newcomer)
        assert reused in server.resolve(parse_query("/nitf"))  # a new match
        cycle = server.build_cycle(0)
        server.confirm_delivery(pending, set(), cycle)
        assert reused not in pending.remaining_doc_ids
        assert pending.remaining_doc_ids == set(pending.result_doc_ids)
        assert len(pending.remaining_doc_ids) == 29
        server.confirm_delivery(pending, set(cycle.doc_ids), cycle)
        server.confirm_delivery(pending, set(), cycle)  # re-tuned
        assert pending.remaining_doc_ids == set(pending.result_doc_ids)

    def test_confirm_delivery_moves_only_the_acknowledged_query(self):
        """An acknowledgement touches its own query alone: a still
        unsatisfied one stays queued, a satisfied one moves to
        ``completed`` in acknowledgement order, and the rest of the
        pending queue keeps its order."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        texts = ("/a/b/a", "/a//c", "/a/b", "/a/c/a")
        first, second, third, fourth = (
            server.submit(parse_query(text), 0) for text in texts
        )
        cycle = server.build_cycle()
        assert server.pending == [first, second, third, fourth]

        # Partial receipt: still unsatisfied, nothing moves.
        partial = set(list(second.result_doc_ids)[:1])
        server.confirm_delivery(second, partial, cycle)
        assert not second.is_satisfied
        assert server.pending == [first, second, third, fourth]
        assert server.completed == []
        assert second.remaining_doc_ids == set(second.result_doc_ids) - partial

        # Out-of-queue-order acknowledgements complete in ack order.
        server.confirm_delivery(third, set(third.result_doc_ids), cycle)
        server.confirm_delivery(first, set(first.result_doc_ids), cycle)
        assert server.completed == [third, first]
        assert server.pending == [second, fourth]
        assert third.satisfied_cycle == cycle.cycle_number
        # The untouched queries' bookkeeping did not move.
        assert fourth.remaining_doc_ids == set(fourth.result_doc_ids)
        assert fourth.satisfied_time is None

    def test_confirm_omitting_an_acknowledged_document_regrows_it(self):
        """Full-set semantics, the daemon's path: a client that re-tunes
        and reports less gets the omitted document back into its
        remaining set and the demand table; only the acknowledgement
        that empties the set stamps it satisfied."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        pending = server.submit(parse_query("/a//c"), 0)
        first_doc, *rest = sorted(pending.result_doc_ids)
        assert rest
        first = server.build_cycle()
        server.confirm_delivery(pending, {first_doc}, first)
        assert pending.remaining_doc_ids == set(rest)
        assert first_doc not in server.demand.snapshot(first.end_time)
        assert pending.satisfied_cycle is None

        second = server.build_cycle()
        server.confirm_delivery(pending, set(rest[:1]), second)  # omits first_doc
        assert pending.remaining_doc_ids == {first_doc, *rest[1:]}
        waiting = server.demand.snapshot(second.end_time)
        assert [q.query_id for q in waiting[first_doc]] == [pending.query_id]
        assert pending.satisfied_cycle is None and pending.satisfied_time is None

        third = server.build_cycle()
        server.confirm_delivery(pending, set(pending.result_doc_ids), third)
        assert pending.is_satisfied
        assert (pending.satisfied_cycle, pending.satisfied_time) == (
            third.cycle_number,
            third.end_time,
        )
        assert server.demand.snapshot(third.end_time) == {}
        assert server.completed == [pending] and server.pending == []
        # A repeat of the full acknowledgement empties nothing: no restamp.
        server.confirm_delivery(pending, set(pending.result_doc_ids), first)
        assert pending.satisfied_cycle == third.cycle_number
        assert server.completed == [pending]

    def test_a_satisfied_query_is_final(self):
        """Regression: a report of less after completion regrew the
        completed query's demand edges while it sat in ``completed``,
        and the next build's scheduler failed on the unknown query."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        done = server.submit(parse_query("/a/b/a"), 0)
        cycle = server.build_cycle()
        server.confirm_delivery(done, set(done.result_doc_ids), cycle)
        server.confirm_delivery(done, set(), cycle)  # a re-tuned client
        assert done.is_satisfied and server.demand.snapshot(10**9) == {}
        later = server.submit(parse_query("/a/c"), cycle.end_time)
        assert set(server.build_cycle().doc_ids) == set(later.result_doc_ids)

    def test_a_document_outside_the_result_set_replaces_no_omitted_one(self):
        """A report of as many documents as were acknowledged, one of
        them foreign to the result set, still regrows the omitted one."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        pending = server.submit(parse_query("/a//c"), 0)
        first_doc, second_doc, *_ = sorted(pending.result_doc_ids)
        foreign = next(d for d in server.store.by_id if d not in pending.result_doc_ids)
        cycle = server.build_cycle()
        server.confirm_delivery(pending, {first_doc}, cycle)
        server.confirm_delivery(pending, {foreign, second_doc}, cycle)
        assert first_doc in pending.remaining_doc_ids
        assert second_doc not in pending.remaining_doc_ids

    def test_confirm_for_several_queries_equals_one_at_a_time(self):
        """A row's sessions are acknowledged in one call; the outcome is
        the same as acknowledging each query on its own."""
        texts = ("/a//c", "/a//c", "/a/b", "//c")
        runs = []
        for together in (True, False):
            server = BroadcastServer(
                paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
            )
            queries = [server.submit(parse_query(text), 0) for text in texts]
            cycle = server.build_cycle()
            received = set(list(queries[0].result_doc_ids)[:1]) | set(
                queries[2].result_doc_ids
            )
            group = queries[:3]
            if together:
                server.confirm_delivery(group, received, cycle)
            else:
                for query in group:
                    server.confirm_delivery(query, received, cycle)
            runs.append(
                (
                    [sorted(q.remaining_doc_ids) for q in queries],
                    [q.satisfied_cycle for q in queries],
                    [q.query_id for q in server.pending],
                    [q.query_id for q in server.completed],
                    {
                        doc: sorted(q.query_id for q in waiting)
                        for doc, waiting in server.demand.snapshot(0).items()
                    },
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][3] == [2]  # /a/b had everything it asked for


class TestResolutionNFAReuse:
    """``add_document`` keeps the shared NFA over the cached strings and
    recompiles it only when an admission or an eviction changed them."""

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["admit", "add", "remove"]), st.integers(0, 10**6)
            ),
            min_size=1,
            max_size=25,
        ),
        cap=st.sampled_from([3, 6, RESOLUTION_CACHE_SIZE]),
    )
    def test_cached_entries_match_a_fresh_resolution(self, steps, cap):
        """Adds, removals, new admissions and LRU evictions interleaved:
        every cached entry equals a from-scratch resolution over the
        live collection."""
        dtd, pool = nitf_world()
        with mock.patch.object(server_module, "RESOLUTION_CACHE_SIZE", cap):
            server = BroadcastServer(DocumentStore(generate_collection(dtd, 12, seed=5)))
            next_id = 100
            for kind, value in steps:
                if kind == "admit":
                    server.resolve(pool[value % len(pool)])
                elif kind == "add":
                    generator = DocumentGenerator(dtd, GeneratorConfig(seed=value))
                    server.add_document(generator.generate(next_id))
                    next_id += 1
                elif len(server.store) > 1:
                    ids = sorted(server.store.by_id)
                    server.remove_document(ids[value % len(ids)])
                cache = server.admission.resolutions
                assert len(cache) <= cap
                keys = list(cache)
                fresh = resolve_on_guide(
                    server.store.full_guide, [cache[key][0] for key in keys]
                )
                for key, truth in zip(keys, fresh):
                    assert cache[key][1] == truth, key

    def test_adds_reuse_one_compile_until_the_strings_change(self, monkeypatch):
        dtd, pool = nitf_world()
        server = BroadcastServer(DocumentStore(generate_collection(dtd, 12, seed=5)))
        server.resolve_batch(pool[:10])
        compiles = []
        original = SharedPathNFA.freeze

        def counted(nfa):
            compiles.append(nfa)
            return original(nfa)

        monkeypatch.setattr(SharedPathNFA, "freeze", counted)
        generator = DocumentGenerator(dtd, GeneratorConfig(seed=9))
        for doc_id in (100, 101, 102):
            server.add_document(generator.generate(doc_id))
        server.remove_document(100)
        assert len(compiles) == 1  # three adds and a removal, one compile
        server.resolve(pool[10])  # a new string: the next add recompiles
        server.add_document(generator.generate(103))
        assert len(compiles) == 3  # the admission's own walk, then the add
