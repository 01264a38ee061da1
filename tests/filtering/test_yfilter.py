"""Unit, differential and property tests for the YFilter-style resolver:
the shared-path NFA run once over a combined DataGuide
(:func:`repro.filtering.nfa.resolve_on_guide`)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.dataguide.roxsum import build_combined_guide
from repro.filtering.nfa import resolve_on_guide
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.evaluator import evaluate_on_document, result_table
from repro.xpath.parser import parse_query
from tests.strategies import queries, xml_elements


class TestFilterDocument:
    def test_paper_example(self):
        from tests.xpath.test_evaluator import paper_documents

        docs = paper_documents()
        texts = ["/a/b/a", "/a/c/a", "/a//c", "/a/b", "/a/c/*", "/a/c/a"]
        result = resolve_on_guide(
            build_combined_guide(docs), [parse_query(t) for t in texts]
        )
        assert result[0] == {0, 1}  # q1
        assert result[1] == {3, 4}  # q2
        assert result[2] == {1, 2, 3, 4}  # q3
        assert result[3] == {0, 1, 2, 4}  # q4
        assert result[4] == {1, 3, 4}  # q5
        assert result[5] == {3, 4}  # q6 == q2

    def test_matches_naive_evaluator(self, nitf_store, nitf_queries):
        result = resolve_on_guide(nitf_store.full_guide, nitf_queries)
        oracle = result_table(nitf_queries, nitf_store.documents)
        for index, query in enumerate(nitf_queries):
            assert result[index] == oracle[query], str(query)

    @given(
        st.lists(queries(), min_size=1, max_size=4),
        xml_elements(),
    )
    def test_differential_vs_evaluator(self, query_list, element):
        """The core correctness property: NFA == naive tree walk, for any
        query set over any tree."""
        document = XMLDocument(doc_id=0, root=element)
        result = resolve_on_guide(build_combined_guide([document]), query_list)
        expected = [
            frozenset({0}) if evaluate_on_document(query, document) else frozenset()
            for query in query_list
        ]
        assert result == expected


class TestMatchPaths:
    def test_shares_prefix_work(self):
        document = XMLDocument(
            0, build_element("a", build_element("b"), build_element("c"))
        )
        result = resolve_on_guide(
            build_combined_guide([document]),
            [parse_query("/a/b"), parse_query("/a/c")],
        )
        assert result == [frozenset({0}), frozenset({0})]

    def test_empty_paths(self):
        document = XMLDocument(0, build_element("z"))
        result = resolve_on_guide(build_combined_guide([document]), [parse_query("/a")])
        assert result == [frozenset()]
