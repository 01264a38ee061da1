"""Unit tests for the incremental cycle-build caches."""

from __future__ import annotations

import pytest

from repro.broadcast.cycle_cache import DFA_CACHE_SIZE, CycleBuildCache, query_key_of
from repro.broadcast.server import DocumentStore, build_ci_from_store
from repro.index.pruning import Restriction, prune_to_pci
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query


def paper_store() -> DocumentStore:
    from tests.xpath.test_evaluator import paper_documents

    return DocumentStore(paper_documents())


def ci_form(ci):
    if isinstance(ci, Restriction):
        ci = ci.materialise()
    return (ci.virtual_root, ci.tree_form())


class TestCILayer:
    def test_cold_build_counts_rebuild(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        ci = cache.ci_for(frozenset({0, 1, 2}))
        assert cache.stats["ci_rebuilds"] == 1
        assert ci_form(ci) == ci_form(build_ci_from_store(store, {0, 1, 2}))

    def test_exact_hit_returns_same_object(self):
        cache = CycleBuildCache(paper_store())
        first = cache.ci_for(frozenset({0, 1, 2}))
        second = cache.ci_for(frozenset({0, 1, 2}))
        assert first is second
        assert cache.stats["ci_hits"] == 1

    def test_small_delta_applied_incrementally(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        cache.ci_for(frozenset({0, 1, 2, 3, 4}))
        shrunk = cache.ci_for(frozenset({0, 1, 2, 3}))
        assert cache.stats["ci_incremental"] == 1
        assert cache.stats["ci_rebuilds"] == 1  # only the cold build
        assert ci_form(shrunk) == ci_form(build_ci_from_store(store, {0, 1, 2, 3}))

    def test_growing_delta_applied_incrementally(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        cache.ci_for(frozenset({0, 1, 2, 3}))
        grown = cache.ci_for(frozenset({0, 1, 2, 3, 4}))
        assert cache.stats["ci_incremental"] == 1
        assert ci_form(grown) == ci_form(build_ci_from_store(store, {0, 1, 2, 3, 4}))

    def test_large_delta_is_one_more_restriction(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        cache.ci_for(frozenset({0, 1, 2, 3}))
        # A disjoint request set restricts the same table: no re-merge.
        moved = cache.ci_for(frozenset({4}))
        assert cache.stats["ci_rebuilds"] == 1
        assert cache.stats["ci_incremental"] == 1
        assert ci_form(moved) == ci_form(build_ci_from_store(store, {4}))

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            CycleBuildCache(paper_store()).ci_for(frozenset())

    def test_incremental_walk_sequence_matches_scratch(self):
        """A drain-like sequence of shrinking request sets stays equal to
        from-scratch CIs at every step."""
        store = paper_store()
        cache = CycleBuildCache(store)
        sets = [{0, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 2, 3}, {1, 2}, {2}]
        for requested in sets:
            cached = cache.ci_for(frozenset(requested))
            assert ci_form(cached) == ci_form(
                build_ci_from_store(store, requested)
            ), requested


class TestDFALayer:
    def test_hit_returns_same_dfa(self):
        cache = CycleBuildCache(paper_store())
        queries = [parse_query("/a/b")]
        key = query_key_of(queries)
        first = cache.dfa_for(key, queries)
        second = cache.dfa_for(key, queries)
        assert first is second
        assert cache.stats == {**cache.stats, "dfa_hits": 1, "dfa_misses": 1}

    @staticmethod
    def query_sets(count):
        return [[parse_query(f"/q{i}")] for i in range(count)]

    def test_lru_evicts_oldest(self):
        cache = CycleBuildCache(paper_store())
        sets = self.query_sets(DFA_CACHE_SIZE + 1)
        first = cache.dfa_for(query_key_of(sets[0]), sets[0])
        for queries in sets[1:]:  # the last one evicts sets[0]'s entry
            cache.dfa_for(query_key_of(queries), queries)
        again = cache.dfa_for(query_key_of(sets[0]), sets[0])
        assert again is not first
        assert cache.stats["dfa_misses"] == DFA_CACHE_SIZE + 2

    def test_recent_use_protects_from_eviction(self):
        cache = CycleBuildCache(paper_store())
        sets = self.query_sets(DFA_CACHE_SIZE + 1)
        first = cache.dfa_for(query_key_of(sets[0]), sets[0])
        for queries in sets[1:-1]:  # fills the cache
            cache.dfa_for(query_key_of(queries), queries)
        cache.dfa_for(query_key_of(sets[0]), sets[0])  # refresh sets[0]
        cache.dfa_for(query_key_of(sets[-1]), sets[-1])  # evicts sets[1]
        assert cache.dfa_for(query_key_of(sets[0]), sets[0]) is first


class TestPCILayer:
    def test_reuse_when_nothing_changed(self):
        cache = CycleBuildCache(paper_store())
        requested = frozenset({0, 1, 2, 3, 4})
        queries = [parse_query("/a/b"), parse_query("/a//c")]
        ci = cache.ci_for(requested)
        first = cache.pci_for(ci, requested, queries)
        second = cache.pci_for(ci, requested, queries)
        assert first[0] is second[0] and first[1] is second[1]
        assert cache.stats["pci_hits"] == 1 and cache.stats["pci_misses"] == 1

    def test_query_order_irrelevant(self):
        cache = CycleBuildCache(paper_store())
        requested = frozenset({0, 1, 2, 3, 4})
        queries = [parse_query("/a/b"), parse_query("/a//c")]
        ci = cache.ci_for(requested)
        first = cache.pci_for(ci, requested, queries)
        second = cache.pci_for(ci, requested, list(reversed(queries)))
        assert first[0] is second[0]

    def test_repeated_strings_compile_once_and_prune_the_same(self, compiles):
        """The pruning DFA takes one query per string: the PCI is the one
        every pending copy would prune to."""
        requested = frozenset({0, 1, 2, 3, 4})
        texts = ["/a/b", "/a//c", "/a/b", "/a//c", "/a/b"]
        cache = CycleBuildCache(paper_store())
        ci = cache.ci_for(requested)
        pci, _ = cache.pci_for(ci, requested, [parse_query(t) for t in texts])
        assert [[str(q) for q in queries] for queries in compiles] == [
            ["/a/b", "/a//c"]
        ]
        full, _ = prune_to_pci(ci, [parse_query(t) for t in texts])
        assert ci_form(pci) == ci_form(full)

    def test_requested_change_misses(self):
        cache = CycleBuildCache(paper_store())
        queries = [parse_query("/a/b")]
        full = frozenset({0, 1, 2, 3, 4})
        ci = cache.ci_for(full)
        cache.pci_for(ci, full, queries)
        smaller = frozenset({0, 1, 2, 3})
        ci2 = cache.ci_for(smaller)
        cache.pci_for(ci2, smaller, queries)
        assert cache.stats["pci_misses"] == 2
        # The DFA layer still hits: the query set did not change.
        assert cache.stats["dfa_hits"] == 1


def warm_cache(store, requested, texts=("/a/b",)):
    """A cache holding a CI, a PCI and a DFA for *requested*."""
    cache = CycleBuildCache(store)
    queries = [parse_query(text) for text in texts]
    ci = cache.ci_for(requested)
    pci = cache.pci_for(ci, requested, queries)[0]
    dfa = cache.dfa_for(query_key_of(queries), queries)
    return cache, queries, ci, pci, dfa


class TestInvalidation:
    def test_added_document_outside_requested_set_keeps_every_layer(self):
        store = paper_store()
        requested = frozenset({0, 1, 2})
        cache, queries, ci, pci, dfa = warm_cache(store, requested)
        store.add_document(XMLDocument(10, build_element("a", build_element("b"))))
        cache.invalidate_collection(10)
        assert cache.ci_for(requested) is ci
        assert cache.pci_for(ci, requested, queries)[0] is pci
        assert cache.dfa_for(query_key_of(queries), queries) is dfa
        assert cache.stats["ci_rebuilds"] == 1
        # ... and the new document joins the next request set by a delta.
        grown = cache.ci_for(requested | {10})
        assert cache.stats["ci_incremental"] == 1
        assert ci_form(grown) == ci_form(build_ci_from_store(store, requested | {10}))

    def test_removed_document_outside_requested_set_keeps_every_layer(self):
        store = paper_store()
        requested = frozenset({0, 1, 2})
        cache, queries, ci, pci, dfa = warm_cache(store, requested)
        cache.invalidate_collection(4)
        store.remove_document(4)
        assert cache.ci_for(requested) is ci
        assert cache.pci_for(ci, requested, queries)[0] is pci
        assert cache.dfa_for(query_key_of(queries), queries) is dfa
        assert cache.stats["ci_hits"] == 1 and cache.stats["ci_rebuilds"] == 1

    def test_removed_document_inside_requested_set_is_unmerged(self):
        store = paper_store()
        requested = frozenset({0, 1, 2, 3})
        cache, queries, ci, pci, dfa = warm_cache(store, requested)
        cache.invalidate_collection(1)  # while the store still holds doc 1
        store.remove_document(1)
        remaining = requested - {1}
        after = cache.ci_for(remaining)
        assert after is not ci
        assert ci_form(after) == ci_form(build_ci_from_store(store, remaining))
        # Its bits cleared in the kept table: the cached restriction is
        # already the CI over what remains.
        assert cache.stats["ci_rebuilds"] == 1
        assert cache.stats["ci_hits"] == 1
        fresh_pci = cache.pci_for(after, remaining, queries)[0]
        assert fresh_pci is not pci
        assert cache.stale_pci(queries)[0] is fresh_pci
        assert cache.dfa_for(query_key_of(queries), queries) is dfa

    def test_removal_inside_requested_set_drops_the_stale_pci(self):
        store = paper_store()
        requested = frozenset({0, 1, 2, 3})
        cache, queries, _ci, _pci, _dfa = warm_cache(store, requested)
        cache.invalidate_collection(1)
        assert cache.stale_pci(queries) is None

    def test_doc_id_reuse_never_serves_the_old_content(self):
        store = paper_store()
        requested = frozenset({0, 1, 2, 3})
        cache, queries, ci, pci, _dfa = warm_cache(store, requested)
        cache.invalidate_collection(1)
        store.remove_document(1)
        store.add_document(XMLDocument(1, build_element("a", build_element("zz"))))
        cache.invalidate_collection(1)
        again = cache.ci_for(requested)
        assert ci_form(again) == ci_form(build_ci_from_store(store, requested))
        assert ci_form(again) != ci_form(ci)
        assert cache.pci_for(again, requested, queries)[0] is not pci

    def test_removing_the_whole_requested_set_drops_the_ci(self):
        store = paper_store()
        cache, _queries, ci, _pci, _dfa = warm_cache(store, frozenset({2}))
        cache.invalidate_collection(2)
        store.remove_document(2)
        rebuilt = cache.ci_for(frozenset({0}))
        assert cache.stats["ci_rebuilds"] == 2
        assert ci_form(rebuilt) == ci_form(build_ci_from_store(store, {0}))

    def test_collection_invalidation_drops_all_layers(self):
        cache = CycleBuildCache(paper_store())
        requested = frozenset({0, 1, 2})
        queries = [parse_query("/a/b")]
        ci = cache.ci_for(requested)
        pci = cache.pci_for(ci, requested, queries)[0]
        dfa = cache.dfa_for(query_key_of(queries), queries)
        cache.invalidate_collection()
        assert cache.ci_for(requested) is not ci
        assert cache.pci_for(cache.ci_for(requested), requested, queries)[0] is not pci
        assert cache.dfa_for(query_key_of(queries), queries) is not dfa
        assert cache.stats["ci_rebuilds"] == 2
