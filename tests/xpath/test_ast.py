"""Unit and property tests for the XPath query model."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.xpath.ast import (
    Axis,
    Step,
    WILDCARD,
    XPathQuery,
)
from repro.xpath.parser import parse_query
from tests.filtering.viable_prefix import is_viable_prefix
from tests.oracles import has_descendant_axis, has_wildcard
from tests.strategies import label_paths, queries


class TestStep:
    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            Step(Axis.CHILD, "")

    def test_test_matches_label(self):
        assert Step(Axis.CHILD, "a").test_matches("a")
        assert not Step(Axis.CHILD, "a").test_matches("b")

    def test_wildcard_matches_all(self):
        step = Step(Axis.DESCENDANT, WILDCARD)
        assert step.test_matches("anything")

    def test_str(self):
        assert str(Step(Axis.CHILD, "a")) == "/a"
        assert str(Step(Axis.DESCENDANT, "*")) == "//*"


class TestQueryBasics:
    def test_empty_steps_rejected(self):
        with pytest.raises(ValueError):
            XPathQuery(())

    def test_depth(self):
        assert parse_query("/a/b/c").depth == 3

    def test_predicates(self):
        query = parse_query("/a//b/*")
        assert has_wildcard(query)
        assert has_descendant_axis(query)
        assert not has_wildcard(parse_query("/a/b"))
        assert not has_descendant_axis(parse_query("/a/b"))

    def test_hashable(self):
        assert parse_query("/a/b") == parse_query("/a/b")
        assert len({parse_query("/a/b"), parse_query("/a/b")}) == 1


class TestRenderingMemo:
    """``str(query)`` is every cache's key, so it is rendered once per
    instance -- without becoming part of the query's value."""

    def test_rendered_once_and_equal_to_the_steps(self):
        query = parse_query("/a//b/*")
        text = str(query)
        assert text == "/a//b/*" == "".join(str(step) for step in query.steps)
        assert str(query) is text

    def test_value_semantics_unchanged_by_rendering(self):
        rendered, fresh = parse_query("/a//b"), parse_query("/a//b")
        before = (hash(rendered), repr(rendered))
        str(rendered)
        assert (hash(rendered), repr(rendered)) == before
        assert rendered == fresh and hash(rendered) == hash(fresh)
        assert repr(rendered) == repr(fresh)
        assert {rendered: 1}[fresh] == 1
        assert rendered != parse_query("/a/b")

    def test_relaxation_renders_its_own_string(self):
        query = parse_query("/a[@k]/b")
        assert str(query) == "/a[@k]/b"
        assert str(query.structural_relaxation()) == "/a/b"


class TestMatchesPath:
    """Semantics against the paper's running example (Figure 2)."""

    @pytest.mark.parametrize(
        "query,path,expected",
        [
            # Exact child chains, anchored at both ends.
            ("/a/b/a", ("a", "b", "a"), True),
            ("/a/b/a", ("a", "b"), False),
            ("/a/b/a", ("a", "b", "a", "c"), False),
            ("/a/b", ("a", "b"), True),
            ("/a/b", ("b",), False),
            # Descendant axis skips arbitrarily many labels.
            ("/a//c", ("a", "c"), True),
            ("/a//c", ("a", "b", "c"), True),
            ("/a//c", ("a", "b", "x", "c"), True),
            ("/a//c", ("a", "b"), False),
            ("/a//c", ("c",), False),
            ("//c", ("a", "b", "c"), True),
            ("//c", ("c",), True),
            # Wildcards match exactly one label.
            ("/a/c/*", ("a", "c", "b"), True),
            ("/a/c/*", ("a", "c"), False),
            ("/a/c/*", ("a", "c", "b", "d"), False),
            ("/*", ("a",), True),
            ("/*/*", ("a", "b"), True),
            # Combination.
            ("/a//*/c", ("a", "x", "c"), True),
            ("/a//*/c", ("a", "c"), False),
        ],
    )
    def test_cases(self, query, path, expected):
        assert parse_query(query).matches_path(path) is expected

    def test_matches_any_path(self):
        query = parse_query("/a/b")
        assert query.matches_any_path([("x",), ("a", "b")])
        assert not query.matches_any_path([("x",), ("a",)])

    @given(label_paths)
    def test_identity_query_matches_its_path(self, path):
        query = XPathQuery.from_steps(Step(Axis.CHILD, label) for label in path)
        assert query.matches_path(path)

    @given(label_paths)
    def test_descendant_generalisation_preserves_match(self, path):
        child_query = XPathQuery.from_steps(
            Step(Axis.CHILD, label) for label in path
        )
        desc_query = XPathQuery.from_steps(
            Step(Axis.DESCENDANT, label) for label in path
        )
        assert child_query.matches_path(path)
        assert desc_query.matches_path(path)

    @given(label_paths)
    def test_wildcard_generalisation_preserves_match(self, path):
        query = XPathQuery.from_steps(
            Step(Axis.CHILD, WILDCARD) for _ in path
        )
        assert query.matches_path(path)

    @given(queries(), label_paths)
    def test_match_implies_viable_prefix_of_itself(self, query, path):
        if query.matches_path(path):
            assert is_viable_prefix(query, path)


class TestViablePrefix:
    @pytest.mark.parametrize(
        "query,path,expected",
        [
            ("/a/b/c", ("a",), True),
            ("/a/b/c", ("a", "b"), True),
            ("/a/b/c", ("a", "b", "c"), True),
            ("/a/b/c", ("a", "x"), False),
            ("/a/b/c", ("a", "b", "c", "d"), False),
            ("/a//c", ("a", "x", "y"), True),  # // keeps everything viable
            ("/a//c", ("b",), False),
            ("/a/*", ("a",), True),
            ("/a/*", ("a", "anything"), True),
        ],
    )
    def test_cases(self, query, path, expected):
        assert is_viable_prefix(parse_query(query), path) is expected

    @given(queries(), label_paths)
    def test_prefixes_of_matches_are_viable(self, query, path):
        if query.matches_path(path):
            for cut in range(1, len(path) + 1):
                assert is_viable_prefix(query, path[:cut])
