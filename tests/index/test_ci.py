"""Unit, differential and property tests for the Compact Index."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.server import DocumentStore, build_ci_from_store
from repro.index.ci import CompactIndex, build_full_ci
from repro.xmlkit.model import XMLDocument
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.index.tables import find_node
from tests.strategies import document_collections, queries


@pytest.fixture()
def paper_ci():
    from tests.xpath.test_evaluator import paper_documents

    return build_full_ci(paper_documents()), paper_documents()


class TestBuild:
    def test_paper_example_node_count(self, paper_ci):
        ci, _docs = paper_ci
        # Our reconstruction of Figure 3(b) yields 7 distinct paths.
        assert ci.node_count == 7

    def test_nodes_in_preorder(self, paper_ci):
        ci, _docs = paper_ci
        # Depth-first, children label-sorted: a, a/b, a/b/a, a/b/c, a/c, ...
        assert ci.labels == ["a", "b", "a", "c", "c", "a", "b"]
        # Row number is node id: each subtree is the id range up to its end.
        assert list(ci.ends) == [7, 4, 3, 4, 7, 6, 7]
        assert ci.children == [(1, 4), (2, 3), (), (), (5, 6), (), ()]

    def test_annotations_at_maximal_paths(self, paper_ci):
        ci, _docs = paper_ci
        assert ci.doc_ids[find_node(ci, ("a", "b", "a"))] == (0, 1)
        assert ci.doc_ids[find_node(ci, ("a", "c"))] == (2,)
        assert ci.doc_ids[find_node(ci, ("a",))] == ()

    def test_d2_pointer_appears_three_times(self, paper_ci):
        """Section 3.3's motivating observation."""
        ci, _docs = paper_ci
        occurrences = sum(1 for docs in ci.doc_ids if 1 in docs)
        assert occurrences == 3

    def test_total_doc_entries(self, paper_ci):
        ci, _docs = paper_ci
        assert ci.total_doc_entries() == sum(len(docs) for docs in ci.doc_ids)

    def test_annotated_doc_ids_cover_collection(self, paper_ci):
        ci, _docs = paper_ci
        assert ci.annotated_doc_ids() == frozenset(range(5))

    def test_build_ci_restricts_to_requested(self):
        from tests.xpath.test_evaluator import paper_documents

        docs = paper_documents()
        ci = build_ci_from_store(DocumentStore(docs), {3, 4})
        assert ci.annotated_doc_ids() == frozenset({3, 4})
        # d1's unique path a/b/a survives only if d2 (not requested) --
        # here neither is requested so the node is gone entirely.
        assert find_node(ci, ("a", "b", "a")) is None

    def test_build_ci_empty_requested_rejected(self):
        from tests.xpath.test_evaluator import paper_documents

        with pytest.raises(ValueError):
            build_ci_from_store(DocumentStore(paper_documents()), set())

    def test_size_first_tier_smaller(self, paper_ci):
        ci, _docs = paper_ci
        assert ci.size_bytes(one_tier=False) < ci.size_bytes(one_tier=True)

    def test_size_formula(self, paper_ci):
        ci, _docs = paper_ci
        model = ci.size_model
        expected = sum(
            model.node_bytes(len(child_ids), len(docs), one_tier=True)
            for child_ids, docs in zip(ci.children, ci.doc_ids)
        )
        assert ci.size_bytes(one_tier=True) == expected


class TestLookup:
    def test_paper_q1(self, paper_ci):
        """q1 = /a/b/a -> d1, d2 via leaf n4 (the Section 3.1 walkthrough)."""
        ci, _docs = paper_ci
        result = ci.lookup(parse_query("/a/b/a"))
        assert result.doc_ids == (0, 1)
        assert result.matched_node_ids == {find_node(ci, ("a", "b", "a"))}

    def test_paper_q3_descendant(self, paper_ci):
        ci, _docs = paper_ci
        result = ci.lookup(parse_query("/a//c"))
        assert result.doc_ids == (1, 2, 3, 4)

    def test_paper_q5_wildcard(self, paper_ci):
        ci, _docs = paper_ci
        assert ci.lookup(parse_query("/a/c/*")).doc_ids == (1, 3, 4)

    def test_internal_match_collects_subtree(self, paper_ci):
        """A query matching an internal node must see the whole subtree's
        documents, not only the node's own annotations."""
        ci, _docs = paper_ci
        result = ci.lookup(parse_query("/a/c"))
        assert result.doc_ids == (1, 2, 3, 4)  # d3 at the node, rest below

    def test_no_match(self, paper_ci):
        ci, _docs = paper_ci
        result = ci.lookup(parse_query("/a/z"))
        assert not result.doc_ids
        assert result.matched_node_ids == frozenset()
        # The client still read the root before the branch died.
        assert result.visited_node_ids == {0}

    def test_visited_includes_walk_and_match_subtrees(self, paper_ci):
        ci, _docs = paper_ci
        result = ci.lookup(parse_query("/a/c"))
        assert find_node(ci, ("a",)) in result.visited_node_ids  # walk
        assert find_node(ci, ("a", "c", "a")) in result.visited_node_ids  # match subtree
        assert find_node(ci, ("a", "c", "b")) in result.visited_node_ids

    def test_dead_branches_not_visited(self, paper_ci):
        ci, _docs = paper_ci
        result = ci.lookup(parse_query("/a/c/a"))
        # /a/b subtree dead early
        assert find_node(ci, ("a", "b", "a")) not in result.visited_node_ids

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=3))
    def test_lookup_matches_evaluator(self, docs, query_list):
        """CI lookup == naive evaluation, for any collection and query."""
        ci = build_full_ci(docs)
        for query in query_list:
            expected = matching_documents(query, docs)
            assert set(ci.lookup(query).doc_ids) == expected, str(query)


class TestVirtualRoot:
    def test_mixed_collection_lookup(self, mixed_docs):
        ci = build_full_ci(mixed_docs)
        assert ci.virtual_root
        result = ci.lookup(parse_query("/nitf/head/title"))
        expected = matching_documents(parse_query("/nitf/head/title"), mixed_docs)
        assert set(result.doc_ids) == expected

    def test_leading_descendant_spans_roots(self, mixed_docs):
        ci = build_full_ci(mixed_docs)
        result = ci.lookup(parse_query("//title"))
        expected = matching_documents(parse_query("//title"), mixed_docs)
        assert set(result.doc_ids) == expected


class TestMultiQueryLookup:
    def test_lookup_with_shared_nfa_unions_results(self, paper_ci):
        """A multi-query DFA locates the union of every query's results
        in one walk."""
        from repro.filtering.dfa import LazyQueryDFA

        ci, _docs = paper_ci
        dfa = LazyQueryDFA.from_queries(
            [parse_query("/a/b/a"), parse_query("/a/c/a")]
        )
        assert set(ci.lookup(dfa).doc_ids) == {0, 1, 3, 4}

    def test_shared_walk_visits_no_more_than_separate_walks(self, paper_ci):
        from repro.filtering.dfa import LazyQueryDFA

        ci, _docs = paper_ci
        queries_ = [parse_query("/a/b/a"), parse_query("/a/c/a")]
        shared = ci.lookup(LazyQueryDFA.from_queries(queries_)).visited_node_ids
        separate = frozenset().union(
            *(ci.lookup(q).visited_node_ids for q in queries_)
        )
        assert shared == separate
