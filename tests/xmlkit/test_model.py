"""Unit tests for the element-tree model."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.xmlkit.model import (
    XMLDocument,
    XMLElement,
    build_element,
)
from repro.broadcast.server import DocumentStore
from tests.oracles import path_from_root
from tests.strategies import xml_elements


def make_tree() -> XMLElement:
    #        a
    #      / | \
    #     b  b  c
    #    /|     |
    #   d e     d
    return build_element(
        "a",
        build_element("b", build_element("d"), build_element("e")),
        build_element("b"),
        build_element("c", build_element("d")),
    )


class TestXMLElement:
    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            XMLElement("")

    def test_append_sets_parent(self):
        parent = XMLElement("a")
        child = XMLElement("b")
        parent.append(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_rejects_reparenting(self):
        parent = XMLElement("a")
        child = XMLElement("b")
        parent.append(child)
        with pytest.raises(ValueError):
            XMLElement("c").append(child)

    def test_child_returns_first_match(self):
        tree = make_tree()
        first_b = tree.child("b")
        assert first_b is tree.children[0]
        assert tree.child("nope") is None

    def test_iter_is_preorder(self):
        tags = [node.tag for node in make_tree().iter()]
        assert tags == ["a", "b", "d", "e", "b", "c", "d"]

    def test_iter_with_paths(self):
        paths = [path for _n, path in make_tree().iter_with_paths()]
        assert paths[0] == ("a",)
        assert ("a", "b", "d") in paths
        assert ("a", "c", "d") in paths
        assert len(paths) == 7  # one per element

    def test_path_from_root(self):
        tree = make_tree()
        deep = tree.children[0].children[1]  # the "e"
        assert path_from_root(deep) == ("a", "b", "e")

    def test_depth(self):
        assert make_tree().depth() == 3
        assert XMLElement("x").depth() == 1

    def test_element_count(self):
        assert make_tree().element_count() == 7

    def test_distinct_label_paths_dedupes(self):
        distinct = make_tree().distinct_label_paths()
        # ("a","b") occurs twice in the tree but once in the distinct set.
        assert distinct.count(("a", "b")) == 1
        assert set(distinct) == {
            ("a",),
            ("a", "b"),
            ("a", "b", "d"),
            ("a", "b", "e"),
            ("a", "b"),
            ("a", "c"),
            ("a", "c", "d"),
        } - set()  # normalised by set()

    def test_distinct_label_paths_order_is_first_occurrence(self):
        distinct = make_tree().distinct_label_paths()
        assert distinct[0] == ("a",)
        assert distinct.index(("a", "b")) < distinct.index(("a", "c"))

    def test_structural_equality(self):
        assert make_tree().structurally_equal(make_tree())

    def test_structural_inequality_on_text(self):
        left = build_element("a", text="x")
        right = build_element("a", text="y")
        assert not left.structurally_equal(right)

    def test_structural_inequality_on_children(self):
        assert not make_tree().structurally_equal(build_element("a"))

    @given(xml_elements())
    def test_distinct_paths_are_subset_of_all_paths(self, element):
        all_paths = list(element.label_paths())
        distinct = element.distinct_label_paths()
        assert set(distinct) == set(all_paths)
        assert len(distinct) == len(set(all_paths))

    @given(xml_elements())
    def test_every_element_reachable_by_its_path(self, element):
        for node, path in element.iter_with_paths():
            assert path_from_root(node) == path


class TestXMLDocument:
    def test_negative_doc_id_rejected(self):
        with pytest.raises(ValueError):
            XMLDocument(doc_id=-1, root=XMLElement("a"))

    def test_size_is_cached(self):
        doc = XMLDocument(doc_id=0, root=make_tree())
        first = doc.size_bytes
        assert doc.size_bytes == first
        assert doc._cached_size == first

    def test_collection_size(self):
        docs = [
            XMLDocument(doc_id=0, root=build_element("a")),
            XMLDocument(doc_id=1, root=build_element("b")),
        ]
        assert DocumentStore(docs).total_data_bytes() == sum(d.size_bytes for d in docs)

    def test_helpers_delegate(self):
        doc = XMLDocument(doc_id=3, root=make_tree())
        assert doc.element_count() == 7
        assert doc.depth() == 3
        assert ("a", "c", "d") in doc.distinct_label_paths()


class TestBuildElement:
    def test_attributes_via_kwargs(self):
        element = build_element("a", x="1", y="2")
        assert element.attributes == {"x": "1", "y": "2"}

    def test_text_kwarg(self):
        assert build_element("a", text="hello").text == "hello"
