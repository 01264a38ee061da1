"""Tests for the predicate extension (parser, evaluator, two-phase resolution)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.server import DocumentStore
from repro.experiments.runner import PendingIndex
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.ast import (
    AttributePredicate,
    Axis,
    PathPredicate,
    Step,
    XPathQuery,
)
from repro.xpath.evaluator import (
    evaluate_on_document,
    matching_documents,
    matching_elements,
    predicate_holds,
)
from repro.xpath.parser import XPathSyntaxError, parse_query
from tests.strategies import document_collections


def sample_doc() -> XMLDocument:
    return XMLDocument(
        0,
        build_element(
            "a",
            build_element(
                "b",
                build_element("c", build_element("d")),
                id="first",
                kind="x",
            ),
            build_element("b", build_element("e"), id="second"),
            build_element("b"),
        ),
    )


class TestAst:
    def test_attribute_predicate_str(self):
        assert str(AttributePredicate("id")) == "[@id]"
        assert str(AttributePredicate("id", "7")) == '[@id="7"]'

    def test_path_predicate_str(self):
        child = PathPredicate((Step(Axis.CHILD, "c"), Step(Axis.CHILD, "d")))
        assert str(child) == "[c/d]"
        desc = PathPredicate((Step(Axis.DESCENDANT, "d"),))
        assert str(desc) == "[.//d]"

    def test_nested_predicates_rejected(self):
        inner = Step(Axis.CHILD, "c", (AttributePredicate("x"),))
        with pytest.raises(ValueError):
            PathPredicate((inner,))

    def test_structural_relaxation(self):
        query = parse_query('/a/b[@id="7"][c]')
        relaxed = query.structural_relaxation()
        assert not relaxed.has_predicates()
        assert str(relaxed) == "/a/b"
        assert query.has_predicates()

    def test_matches_path_rejects_predicates(self):
        with pytest.raises(ValueError):
            parse_query("/a[@x]").matches_path(("a",))


class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            "/a/b[@id]",
            '/a/b[@id="7"]',
            "/a/b[c]",
            "/a/b[c/d]",
            "/a/b[.//d]",
            '/a/b[@id="7"][c//d]',
            "//b[@kind][e]",
        ],
    )
    def test_round_trip(self, text):
        assert str(parse_query(text)) == text.replace("'", '"')

    def test_single_quotes_accepted(self):
        query = parse_query("/a/b[@id='7']")
        assert query.steps[1].predicates[0] == AttributePredicate("id", "7")

    @pytest.mark.parametrize(
        "bad",
        [
            "/a/b[]",
            "/a/b[@]",
            "/a/b[@x=7]",
            "/a/b[c",
            "/a/b[/c]",
            "/a/b[c[d]]",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_query(bad)


class TestEvaluator:
    def test_attribute_existence(self):
        doc = sample_doc()
        matches = matching_elements(parse_query("/a/b[@id]"), doc)
        assert len(matches) == 2

    def test_attribute_value(self):
        doc = sample_doc()
        matches = matching_elements(parse_query('/a/b[@id="second"]'), doc)
        assert len(matches) == 1
        assert matches[0].attributes["id"] == "second"

    def test_path_predicate_child(self):
        doc = sample_doc()
        matches = matching_elements(parse_query("/a/b[c]"), doc)
        assert len(matches) == 1

    def test_path_predicate_descendant(self):
        doc = sample_doc()
        matches = matching_elements(parse_query("/a/b[.//d]"), doc)
        assert len(matches) == 1
        assert matches[0].attributes.get("id") == "first"

    def test_path_predicate_multi_step(self):
        doc = sample_doc()
        assert evaluate_on_document(parse_query("/a/b[c/d]"), doc)
        assert not evaluate_on_document(parse_query("/a/b[c/e]"), doc)

    def test_conjunction(self):
        doc = sample_doc()
        assert evaluate_on_document(parse_query('/a/b[@id="first"][c]'), doc)
        assert not evaluate_on_document(parse_query('/a/b[@id="second"][c]'), doc)

    def test_predicate_on_intermediate_step(self):
        doc = sample_doc()
        matches = matching_elements(parse_query("/a/b[@kind]/c/d"), doc)
        assert len(matches) == 1
        assert not matching_elements(parse_query('/a/b[@id="second"]/c'), doc)

    def test_predicate_helpers(self):
        doc = sample_doc()
        first_b = doc.root.children[0]
        assert predicate_holds(first_b, AttributePredicate("id"))
        assert not predicate_holds(first_b, AttributePredicate("nope"))
        assert predicate_holds(
            first_b, PathPredicate((Step(Axis.DESCENDANT, "d"),))
        )


class TestEngineTwoPhase:
    def test_engine_matches_evaluator_on_predicates(self):
        docs = [sample_doc()]
        queries = [
            parse_query("/a/b[c]"),
            parse_query('/a/b[@id="second"]'),
            parse_query("/a/b"),
            parse_query("/a/b[.//zzz]"),
        ]
        result = PendingIndex.build(DocumentStore(docs), queries)
        for index, query in enumerate(queries):
            expected = matching_documents(query, docs)
            assert result.docs_per_query[index] == expected, str(query)

    def test_structural_superset(self, nitf_docs):
        """Phase one (relaxation) can only over-approximate."""
        predicated = parse_query("/nitf/head/title[@nope]")
        relaxed = predicated.structural_relaxation()
        full = matching_documents(predicated, nitf_docs)
        structural = matching_documents(relaxed, nitf_docs)
        assert full <= structural

    @given(document_collections())
    def test_attribute_predicates_differential(self, docs):
        """Two-phase resolution == evaluator for predicated queries on random trees.

        Generated trees carry no attributes, so attribute predicates
        must match nothing while their relaxations may match plenty --
        a sharp test of the verification phase."""
        queries = [
            parse_query("/a[@missing]"),
            parse_query("//b[@x='1']"),
            parse_query("//a[b]"),
            # PendingIndex indexes what its queries request, so one query
            # must match something: every document has a root.
            parse_query("//*"),
        ]
        result = PendingIndex.build(DocumentStore(docs), queries)
        for index, query in enumerate(queries):
            assert result.docs_per_query[index] == matching_documents(query, docs)


class TestBroadcastRejection:
    def test_server_rejects_predicate_queries(self, nitf_store):
        from repro.broadcast.server import BroadcastServer

        server = BroadcastServer(nitf_store)
        with pytest.raises(ValueError, match="purely structural"):
            server.submit(parse_query("/nitf/head[@x]"), 0)
