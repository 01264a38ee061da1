"""Unit tests for the per-document embedded-index baseline."""

from __future__ import annotations

import pytest

from repro.baselines.perdoc import PerDocumentIndexBaseline
from repro.index.ci import build_full_ci
from repro.index.pruning import prune_to_pci
from repro.index.twotier import split_two_tier
from repro.xmlkit.model import XMLDocument, build_element


class TestPerDocumentIndexBaseline:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PerDocumentIndexBaseline().measure([])

    def test_index_bytes_positive(self, nitf_docs):
        baseline = PerDocumentIndexBaseline()
        assert baseline.index_bytes_for(nitf_docs[0]) > 0

    def test_uses_cached_guides(self, nitf_store):
        baseline = PerDocumentIndexBaseline()
        stats = baseline.measure(nitf_store.documents, nitf_store.guides)
        assert stats.document_count == len(nitf_store.documents)
        assert stats.index_bytes > 0

    def test_overhead_ratio(self, nitf_docs):
        stats = PerDocumentIndexBaseline().measure(nitf_docs)
        assert 0 < stats.overhead_ratio < 1

    def test_order_of_magnitude_above_two_tier(self, nitf_docs, nitf_queries):
        """The paper's comparison: embedded indexes ~10% of data, two-tier
        PCI well under 1/10th of that."""
        stats = PerDocumentIndexBaseline().measure(nitf_docs)
        ci = build_full_ci(nitf_docs)
        pci, _ = prune_to_pci(ci, nitf_queries)
        two_tier = split_two_tier(pci)
        two_tier_ratio = two_tier.first_tier_bytes / stats.data_bytes
        assert stats.overhead_ratio > 5 * two_tier_ratio

    def test_tiny_document(self):
        doc = XMLDocument(0, build_element("a"))
        baseline = PerDocumentIndexBaseline()
        stats = baseline.measure([doc])
        # One guide node: header + one intra-doc pointer entry.
        model = baseline.size_model
        assert stats.index_bytes == model.node_bytes(0, 1, one_tier=True)
