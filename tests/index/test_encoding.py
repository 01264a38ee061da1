"""Unit and property tests for byte-exact index encoding."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.ci import CompactIndex, build_full_ci
from repro.index.encoding import (
    IndexEncodingError,
    LabelTable,
    decode_index,
    decode_offset_list,
    encode_index,
    encode_offset_list,
)
from repro.index.sizes import SizeModel
from repro.index.twotier import OffsetList
from tests.strategies import document_collections


def paper_index() -> CompactIndex:
    from tests.xpath.test_evaluator import paper_documents

    return build_full_ci(paper_documents())


def tree_signature(index: CompactIndex):
    """Every column of the table (the decoder must restore each one)."""
    return index.labels, index.doc_ids, index.ends, index.children


class TestLabelTable:
    def test_from_index(self):
        table = LabelTable.from_index(paper_index())
        assert set(table.labels) == {"a", "b", "c"}

    def test_duplicate_rejected(self):
        with pytest.raises(IndexEncodingError):
            LabelTable(("a", "a"))

    def test_id_round_trip(self):
        table = LabelTable(("a", "b"))
        assert table.label_of(table.id_of("b")) == "b"

    def test_unknown_label(self):
        with pytest.raises(IndexEncodingError):
            LabelTable(("a",)).id_of("zzz")
        with pytest.raises(IndexEncodingError):
            LabelTable(("a",)).label_of(7)

    def test_encode_decode(self):
        table = LabelTable(("alpha", "beta", "body-content"))
        assert LabelTable.decode(table.encode()) == table


class TestEncodeIndex:
    def test_size_matches_model_one_tier(self):
        index = paper_index()
        blob = encode_index(index, one_tier=True)
        assert len(blob) == index.size_bytes(one_tier=True)

    def test_size_matches_model_first_tier(self):
        index = paper_index()
        blob = encode_index(index, one_tier=False)
        assert len(blob) == index.size_bytes(one_tier=False)

    def test_round_trip_one_tier(self):
        index = paper_index()
        table = LabelTable.from_index(index)
        blob = encode_index(index, table, one_tier=True)
        decoded, offsets = decode_index(
            blob, table, one_tier=True, root_label=index.labels[0]
        )
        assert tree_signature(decoded) == tree_signature(index)
        assert set(offsets) == set(index.annotated_doc_ids())

    def test_round_trip_first_tier(self):
        index = paper_index()
        table = LabelTable.from_index(index)
        blob = encode_index(index, table, one_tier=False)
        decoded, offsets = decode_index(
            blob, table, one_tier=False, root_label=index.labels[0]
        )
        assert tree_signature(decoded) == tree_signature(index)
        assert offsets == {}

    def test_doc_offsets_embedded(self):
        index = paper_index()
        table = LabelTable.from_index(index)
        wanted = {doc_id: 1000 + doc_id for doc_id in index.annotated_doc_ids()}
        blob = encode_index(index, table, one_tier=True, doc_offsets=wanted)
        _decoded, offsets = decode_index(
            blob, table, one_tier=True, root_label=index.labels[0]
        )
        assert offsets == wanted

    def test_doc_id_overflow_rejected(self):
        with pytest.raises(IndexEncodingError):
            encode_index(CompactIndex.from_nested(("a", (70_000,), [])))

    def test_custom_size_model_rejected(self):
        index = CompactIndex.from_nested(
            ("a", (), []), size_model=SizeModel(doc_id_bytes=3)
        )
        with pytest.raises(IndexEncodingError):
            encode_index(index)

    @given(document_collections())
    def test_round_trip_random(self, docs):
        index = build_full_ci(docs)
        table = LabelTable.from_index(index)
        for one_tier in (True, False):
            blob = encode_index(index, table, one_tier=one_tier)
            assert len(blob) == index.size_bytes(one_tier=one_tier)
            decoded, _ = decode_index(
                blob, table, one_tier=one_tier, root_label=index.labels[0]
            )
            assert tree_signature(decoded) == tree_signature(index)


class TestOffsetListEncoding:
    def test_round_trip(self):
        offsets = OffsetList.from_mapping({1: 100, 5: 500, 9: 64_000})
        blob = encode_offset_list(offsets)
        assert len(blob) == offsets.size_bytes
        assert decode_offset_list(blob).entries == offsets.entries

    def test_empty_list(self):
        offsets = OffsetList(())
        assert decode_offset_list(encode_offset_list(offsets)).entries == ()

    @given(
        st.dictionaries(
            st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF), max_size=40
        )
    )
    def test_round_trip_random(self, mapping):
        offsets = OffsetList.from_mapping(mapping)
        assert decode_offset_list(encode_offset_list(offsets)).entries == offsets.entries
