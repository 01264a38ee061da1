"""Unit and property tests for per-document strong DataGuides."""

from __future__ import annotations

from hypothesis import given

from repro.dataguide.dataguide import build_dataguide
from repro.xmlkit.model import XMLDocument, build_element
from tests.strategies import xml_documents


def sample_doc() -> XMLDocument:
    # a(b(a, c), c(b)) -- the paper's d2.
    return XMLDocument(
        1,
        build_element(
            "a",
            build_element("b", build_element("a"), build_element("c")),
            build_element("c", build_element("b")),
        ),
    )


class TestBuildDataGuide:
    def test_every_distinct_path_once(self):
        guide = build_dataguide(sample_doc())
        assert sorted(guide.paths()) == sorted(
            [
                ("a",),
                ("a", "b"),
                ("a", "b", "a"),
                ("a", "b", "c"),
                ("a", "c"),
                ("a", "c", "b"),
            ]
        )

    def test_duplicate_paths_collapse(self):
        doc = XMLDocument(
            0, build_element("a", build_element("b"), build_element("b"))
        )
        guide = build_dataguide(doc)
        assert guide.node_count() == 2  # a, a/b

    def test_contains_path(self):
        paths = build_dataguide(sample_doc()).paths()
        assert ("a", "b", "c") in paths
        assert ("a", "x") not in paths
        assert ("b",) not in paths
        assert () not in paths

    def test_leaf_occurrence_marks(self):
        guide = build_dataguide(sample_doc())
        # d2's childless elements sit at a/b/a, a/b/c and a/c/b -- exactly
        # the three places the paper says d2's pointer appears.
        leaf_paths = {
            path
            for node, path in guide.root.iter_with_paths()
            if node.is_leaf_occurrence
        }
        assert leaf_paths == {("a", "b", "a"), ("a", "b", "c"), ("a", "c", "b")}

    def test_internal_node_can_be_leaf_occurrence(self):
        # a(b, b(c)): one b is childless, the other is not; the guide node
        # (a,b) is both internal and a leaf occurrence.
        doc = XMLDocument(
            0,
            build_element(
                "a", build_element("b"), build_element("b", build_element("c"))
            ),
        )
        guide = build_dataguide(doc)
        node = guide.root.child("b")
        assert node is not None
        assert node.is_leaf_occurrence
        assert node.children

    def test_doc_id_recorded(self):
        assert build_dataguide(sample_doc()).doc_id == 1

    @given(xml_documents())
    def test_guide_paths_equal_document_distinct_paths(self, document):
        """The DataGuide invariant: every distinct label path exactly once."""
        guide = build_dataguide(document)
        assert sorted(guide.paths()) == sorted(document.distinct_label_paths())

    @given(xml_documents())
    def test_contains_path_agrees_with_document(self, document):
        paths = set(build_dataguide(document).paths())
        for path in document.distinct_label_paths():
            assert path in paths

    @given(xml_documents())
    def test_leaf_occurrences_match_childless_elements(self, document):
        guide = build_dataguide(document)
        childless_paths = {
            path
            for element, path in document.root.iter_with_paths()
            if not element.children
        }
        marked = {
            path
            for node, path in guide.root.iter_with_paths()
            if node.is_leaf_occurrence
        }
        assert marked == childless_paths
