"""Unit and property tests for the two-tier index structure."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.ci import build_full_ci
from repro.index.pruning import prune_to_pci
from repro.index.twotier import OffsetList, split_two_tier
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries


def paper_two_tier():
    from tests.xpath.test_evaluator import paper_documents

    docs = paper_documents()
    ci = build_full_ci(docs)
    pci, _ = prune_to_pci(ci, [parse_query("/a/b"), parse_query("/a//c")])
    return split_two_tier(pci), docs


class TestOffsetList:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            OffsetList(((5, 100), (2, 50)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            OffsetList(((2, 100), (2, 200)))

    def test_from_mapping_sorts(self):
        offsets = OffsetList.from_mapping({9: 900, 3: 300})
        assert offsets.entries == ((3, 300), (9, 900))

    def test_offset_of(self):
        offsets = OffsetList.from_mapping({3: 300})
        assert offsets.lookup([3]) == {3: 300}
        assert offsets.lookup([4]) == {}

    def test_lookup_filters(self):
        offsets = OffsetList.from_mapping({1: 10, 2: 20, 3: 30})
        assert offsets.lookup({2, 3, 99}) == {2: 20, 3: 30}

    def test_size_matches_model(self):
        offsets = OffsetList.from_mapping({i: i * 10 for i in range(7)})
        assert offsets.size_bytes == offsets.size_model.offset_list_bytes(7)

    def test_packet_count(self):
        # 21 entries * 6 B + 2 B header = 128 B -> exactly one packet.
        offsets = OffsetList.from_mapping({i: i for i in range(21)})
        assert offsets.size_bytes == 128
        assert offsets.packet_count == 1
        bigger = OffsetList.from_mapping({i: i for i in range(22)})
        assert bigger.packet_count == 2


class TestTwoTierIndex:
    def test_first_tier_smaller_than_one_tier(self):
        two_tier, _docs = paper_two_tier()
        one_tier = two_tier.first_tier.size_bytes(one_tier=True)
        assert two_tier.first_tier_bytes < one_tier

    def test_size_difference_is_pointer_mass(self):
        """The BCNF argument, byte for byte: the one-tier layout costs
        exactly one pointer per document annotation more."""
        two_tier, _docs = paper_two_tier()
        pci = two_tier.first_tier
        pointer_bytes = pci.size_model.pointer_bytes
        expected_gap = pci.total_doc_entries() * pointer_bytes
        assert pci.size_bytes(one_tier=True) - two_tier.first_tier_bytes == expected_gap

    def test_make_offset_list(self):
        two_tier, _docs = paper_two_tier()
        offsets = two_tier.make_offset_list({1: 4096, 0: 2048})
        assert offsets.entries == ((0, 2048), (1, 4096))

    def test_savings_positive_when_duplication_dominates(self):
        two_tier, _docs = paper_two_tier()
        # A cycle carrying a couple of documents: the offset list is tiny
        # compared with the removed pointers.
        one_tier = two_tier.first_tier.size_bytes(one_tier=True)
        second_tier = two_tier.size_model.offset_list_bytes(2)
        assert one_tier > two_tier.first_tier_bytes + second_tier

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=3))
    def test_equivalence_property(self, docs, query_list):
        """Two-tier lookup (IDs from tier 1, offsets from tier 2) locates
        exactly the one-tier (doc, offset) pairs."""
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci(ci, query_list)
        two_tier = split_two_tier(pci)
        # A synthetic cycle broadcasting every annotated document.
        doc_offsets = {
            doc_id: 1000 + 64 * doc_id for doc_id in sorted(pci.annotated_doc_ids())
        }
        offsets = two_tier.make_offset_list(doc_offsets)
        for query in query_list:
            ids = set(pci.lookup(query).doc_ids)  # tier-1 lookup
            located = offsets.lookup(ids)  # tier-2 join
            assert located == {doc_id: doc_offsets[doc_id] for doc_id in ids}
