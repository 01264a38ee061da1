"""Unit tests for collection statistics."""

from __future__ import annotations

import pytest

from repro.xmlkit.model import XMLDocument, build_element
from repro.xmlkit.stats import collection_stats, document_stats
from tests.oracles import path_frequencies


def two_docs():
    d0 = XMLDocument(
        doc_id=0,
        root=build_element("a", build_element("b", build_element("c"))),
    )
    d1 = XMLDocument(doc_id=1, root=build_element("a", build_element("b")))
    return [d0, d1]


class TestDocumentStats:
    def test_fields(self):
        stats = document_stats(two_docs()[0])
        assert stats.doc_id == 0
        assert stats.element_count == 3
        assert stats.distinct_paths == 3
        assert stats.depth == 3
        assert stats.size_bytes > 0


class TestCollectionStats:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collection_stats([])

    def test_aggregates(self):
        stats = collection_stats(two_docs())
        assert stats.document_count == 2
        assert stats.total_elements == 5
        assert stats.distinct_paths == 3  # (a), (a,b), (a,b,c)
        assert stats.distinct_tags == 3
        assert stats.max_depth == 3
        assert stats.min_bytes <= stats.mean_bytes <= stats.max_bytes

    def test_summary_readable(self):
        summary = collection_stats(two_docs()).summary()
        assert "2 documents" in summary
        assert "3 distinct paths" in summary


class TestFrequencies:
    def test_path_frequencies_count_documents_not_elements(self):
        doc = XMLDocument(
            doc_id=0,
            root=build_element("a", build_element("b"), build_element("b")),
        )
        freqs = path_frequencies([doc])
        assert freqs[("a", "b")] == 1  # two elements, one document

    def test_path_frequencies_across_docs(self):
        freqs = path_frequencies(two_docs())
        assert freqs[("a",)] == 2
        assert freqs[("a", "b")] == 2
        assert freqs[("a", "b", "c")] == 1
