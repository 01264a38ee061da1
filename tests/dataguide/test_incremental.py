"""Tests for incremental combined-guide maintenance.

The equivalence oracle: after any sequence of adds/removes, the guide
must equal a full rebuild over the surviving documents -- same path set,
same annotations, same containment sets.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataguide import (
    add_document_to_guide,
    build_combined_guide,
    remove_document_from_guide,
)
from repro.xmlkit.model import XMLDocument, build_element
from tests.strategies import document_collections, xml_elements
from tests.oracles import docs_containing, path_frequencies


def guide_signature(guide):
    """Comparable content: (path, leaf_docs, containing) per node."""
    rows = []
    for node, path in guide.root.iter_with_paths():
        rows.append((path, frozenset(node.leaf_docs), node.containing_docs()))
    return sorted(rows)


def paper_docs():
    from tests.xpath.test_evaluator import paper_documents

    return paper_documents()


class TestAddDocument:
    def test_add_equals_rebuild(self):
        docs = paper_docs()
        incremental = build_combined_guide(docs[:3])
        for doc in docs[3:]:
            incremental = add_document_to_guide(incremental, doc)
        rebuilt = build_combined_guide(docs)
        assert guide_signature(incremental) == guide_signature(rebuilt)
        assert incremental.doc_ids == rebuilt.doc_ids

    def test_duplicate_id_rejected(self):
        docs = paper_docs()
        guide = build_combined_guide(docs)
        with pytest.raises(ValueError):
            add_document_to_guide(guide, docs[0])

    def test_new_root_label_promotes_virtual_root(self):
        docs = paper_docs()
        guide = build_combined_guide(docs)
        assert not guide.virtual_root
        alien = XMLDocument(99, build_element("zzz", build_element("q")))
        guide = add_document_to_guide(guide, alien)
        assert guide.virtual_root
        assert set(docs_containing(guide, ("zzz", "q"))) == {99}
        # Old containment still intact.
        assert set(docs_containing(guide, ("a", "b"))) == {0, 1, 2, 4}

    def test_add_to_virtual_root(self, mixed_docs):
        guide = build_combined_guide(mixed_docs[:-1])
        guide = add_document_to_guide(guide, mixed_docs[-1])
        rebuilt = build_combined_guide(mixed_docs)
        assert guide_signature(guide) == guide_signature(rebuilt)


class TestRemoveDocument:
    def test_remove_equals_rebuild(self):
        docs = paper_docs()
        guide = build_combined_guide(docs)
        guide = remove_document_from_guide(guide, docs[1])  # d2
        rebuilt = build_combined_guide([docs[0]] + docs[2:])
        assert guide_signature(guide) == guide_signature(rebuilt)

    def test_dead_paths_pruned(self):
        docs = paper_docs()
        guide = build_combined_guide(docs)
        # (a, c, b) exists only in d2.
        assert guide.find(("a", "c", "b")) is not None
        guide = remove_document_from_guide(guide, docs[1])
        assert guide.find(("a", "c", "b")) is None

    def test_unknown_doc_rejected(self):
        docs = paper_docs()
        guide = build_combined_guide(docs)
        stranger = XMLDocument(42, build_element("a"))
        with pytest.raises(ValueError):
            remove_document_from_guide(guide, stranger)

    def test_last_document_rejected(self):
        docs = paper_docs()[:1]
        guide = build_combined_guide(docs)
        with pytest.raises(ValueError):
            remove_document_from_guide(guide, docs[0])

    def test_virtual_root_collapses(self):
        nitf = XMLDocument(0, build_element("x", build_element("p")))
        nasa = XMLDocument(1, build_element("y", build_element("q")))
        extra = XMLDocument(2, build_element("x", build_element("r")))
        guide = build_combined_guide([nitf, nasa, extra])
        assert guide.virtual_root
        guide = remove_document_from_guide(guide, nasa)
        assert not guide.virtual_root
        assert guide.root.label == "x"
        assert set(docs_containing(guide, ("x", "p"))) == {0}

    def test_add_then_remove_round_trips(self):
        docs = paper_docs()
        baseline = build_combined_guide(docs)
        before = guide_signature(baseline)
        extra = XMLDocument(50, build_element("a", build_element("zz")))
        guide = add_document_to_guide(baseline, extra)
        assert guide.find(("a", "zz")) is not None
        guide = remove_document_from_guide(guide, extra)
        assert guide_signature(guide) == before


class TestIncrementalProperties:
    @given(document_collections(min_docs=3, max_docs=6), st.data())
    def test_random_add_remove_sequences(self, docs, data):
        """Any interleaving of adds and removes matches a rebuild."""
        # Start with the first two documents, then apply a random sequence.
        guide = build_combined_guide(docs[:2])
        present = {doc.doc_id: doc for doc in docs[:2]}
        pool = {doc.doc_id: doc for doc in docs[2:]}
        for _ in range(data.draw(st.integers(1, 6))):
            can_remove = len(present) > 1
            do_add = bool(pool) and (
                not can_remove or data.draw(st.booleans())
            )
            if do_add:
                doc_id = data.draw(st.sampled_from(sorted(pool)))
                guide = add_document_to_guide(guide, pool.pop(doc_id))
                present[doc_id] = guide and [
                    d for d in docs if d.doc_id == doc_id
                ][0]
            elif can_remove:
                doc_id = data.draw(st.sampled_from(sorted(present)))
                guide = remove_document_from_guide(guide, present.pop(doc_id))
        rebuilt = build_combined_guide(
            [doc for doc in docs if doc.doc_id in present]
        )
        assert guide_signature(guide) == guide_signature(rebuilt)

    @given(document_collections(min_docs=2, max_docs=5))
    def test_refcounts_match_path_frequencies(self, docs):
        guide = build_combined_guide(docs)
        if guide.virtual_root:
            return  # refcount of the synthetic root is not a path count
        freqs = path_frequencies(docs)
        for node, path in guide.root.iter_with_paths():
            assert node.containing_count == freqs[path], path
