"""Unit and property tests for the combined (RoXSum) DataGuide."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.dataguide.dataguide import build_dataguide
from repro.dataguide.roxsum import CombinedDataGuide, build_combined_guide
from repro.xmlkit.model import XMLDocument, build_element
from tests.strategies import document_collections
from tests.oracles import docs_containing, path_frequencies


@pytest.fixture()
def paper_docs():
    from tests.xpath.test_evaluator import paper_documents

    return paper_documents()


class TestBuildCombinedGuide:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_combined_guide([])

    def test_mismatched_guides_rejected(self, paper_docs):
        with pytest.raises(ValueError):
            build_combined_guide(paper_docs, guides=[build_dataguide(paper_docs[0])])

    def test_paper_running_example_structure(self, paper_docs):
        """Figure 3(b): the CI for d1..d5 has paths a, a/b, a/b/a, a/b/c,
        a/c, a/c/a, a/c/b (our reconstruction)."""
        guide = build_combined_guide(paper_docs)
        assert sorted(guide.paths()) == sorted(
            [
                ("a",),
                ("a", "b"),
                ("a", "b", "a"),
                ("a", "b", "c"),
                ("a", "c"),
                ("a", "c", "a"),
                ("a", "c", "b"),
            ]
        )
        assert not guide.virtual_root

    def test_paper_annotations(self, paper_docs):
        guide = build_combined_guide(paper_docs)
        node = guide.find(("a", "b", "a"))
        assert set(node.leaf_docs) == {0, 1}  # d1, d2 -- the paper's n4
        node_c = guide.find(("a", "c"))
        assert set(node_c.leaf_docs) == {2}  # d3's childless c -- n3

    def test_containing_docs_is_subtree_union(self, paper_docs):
        guide = build_combined_guide(paper_docs)
        # Documents containing path a/c: d2, d3, d4, d5.
        assert set(docs_containing(guide, ("a", "c"))) == {1, 2, 3, 4}

    def test_docs_containing_missing_path(self, paper_docs):
        guide = build_combined_guide(paper_docs)
        assert docs_containing(guide, ("a", "z"))== frozenset()
        assert docs_containing(guide, ()) == frozenset()

    def test_doc_ids_recorded(self, paper_docs):
        guide = build_combined_guide(paper_docs)
        assert guide.doc_ids == frozenset(range(5))

    def test_invalidate_caches(self, paper_docs):
        guide = build_combined_guide(paper_docs)
        node = guide.find(("a", "c"))
        before = node.containing_docs()
        node.leaf_docs.add(99)
        guide.root.invalidate_caches()
        assert 99 in node.containing_docs()
        assert 99 not in before


class TestVirtualRoot:
    def test_mixed_roots_get_virtual_root(self, mixed_docs):
        guide = build_combined_guide(mixed_docs)
        assert guide.virtual_root
        assert guide.root.label == CombinedDataGuide.VIRTUAL_ROOT_LABEL
        assert {child for child in guide.root.children} == {"nitf", "dataset"}

    def test_virtual_root_paths_exclude_synthetic_label(self, mixed_docs):
        guide = build_combined_guide(mixed_docs)
        for path in guide.paths():
            assert path[0] in ("nitf", "dataset")

    def test_find_under_virtual_root(self, mixed_docs):
        guide = build_combined_guide(mixed_docs)
        assert guide.find(("nitf",)) is not None
        assert guide.find(("dataset",)) is not None
        assert guide.find(("bogus",)) is None


class TestProperties:
    @given(document_collections())
    def test_paths_are_union_of_member_paths(self, docs):
        guide = build_combined_guide(docs)
        expected = set()
        for doc in docs:
            expected.update(doc.distinct_label_paths())
        assert set(guide.paths()) == expected

    @given(document_collections())
    def test_containing_docs_matches_path_frequencies(self, docs):
        """Node containment == the independent per-document path oracle."""
        guide = build_combined_guide(docs)
        freqs = path_frequencies(docs)
        for path, count in freqs.items():
            containing = docs_containing(guide, path)
            assert len(containing) == count
            for doc in docs:
                present = path in set(doc.distinct_label_paths())
                assert (doc.doc_id in containing) == present

    @given(document_collections())
    def test_leaf_docs_disjoint_decomposition(self, docs):
        """Every document appears in leaf_docs of at least one node, and
        only at paths it actually contains."""
        guide = build_combined_guide(docs)
        seen = set()
        for node, path in guide.root.iter_with_paths():
            for doc_id in node.leaf_docs:
                seen.add(doc_id)
        assert seen == {doc.doc_id for doc in docs}
