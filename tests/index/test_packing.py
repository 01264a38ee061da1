"""Unit and property tests for packet packing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.ci import CompactIndex, build_full_ci
from repro.index.packing import PackingStrategy, pack_index
from repro.index.sizes import SizeModel
from tests.index.tables import node_paths
from tests.strategies import document_collections


def paper_index() -> CompactIndex:
    from tests.xpath.test_evaluator import paper_documents

    return build_full_ci(paper_documents())


class TestGreedyDFS:
    def test_node_order_is_preorder(self):
        packed = pack_index(paper_index(), one_tier=True)
        assert packed.node_order == tuple(range(paper_index().node_count))

    def test_every_node_packed_exactly_once(self):
        index = paper_index()
        packed = pack_index(index, one_tier=True)
        assert set(packed.packet_of_node) == set(range(index.node_count))

    def test_adjacent_nodes_share_packets(self):
        """The point of greedy packing: small sibling nodes co-reside."""
        index = paper_index()
        packed = pack_index(index, one_tier=True)
        assert packed.packet_count < index.node_count

    def test_total_bytes_packet_aligned(self):
        packed = pack_index(paper_index(), one_tier=True)
        assert packed.total_bytes == packed.packet_count * packed.packet_bytes

    def test_utilisation_bounded(self):
        packed = pack_index(paper_index(), one_tier=True)
        assert 0 < packed.utilisation <= 1

    def test_packets_for_nodes(self):
        index = paper_index()
        packed = pack_index(index, one_tier=True)
        touched = packed.packets_for_nodes([0])
        assert touched == frozenset(packed.packet_of_node[0])

    def test_first_tier_needs_fewer_packets(self):
        index = paper_index()
        one = pack_index(index, one_tier=True)
        first = pack_index(index, one_tier=False)
        assert first.packet_count <= one.packet_count


class TestOversizedNodes:
    def make_index_with_fat_node(self) -> CompactIndex:
        fat = ("b", range(200), [])  # 6+200*6 bytes
        return CompactIndex.from_nested(("a", (), [fat]))

    def test_fat_node_spans_packets(self):
        index = self.make_index_with_fat_node()
        packed = pack_index(index, one_tier=True)
        span = packed.packet_of_node[1]
        assert len(span) > 1
        assert list(span) == list(range(span[0], span[-1] + 1))  # contiguous

    def test_node_after_fat_node_starts_fresh(self):
        index = CompactIndex.from_nested(
            ("a", (), [("b", range(200), []), ("c", (), [])])
        )
        packed = pack_index(index, one_tier=True)
        fat_span = packed.packet_of_node[1]
        assert packed.packet_of_node[2][0] == fat_span[-1] + 1


class TestStrategies:
    def test_one_per_packet_uses_one_packet_per_small_node(self):
        index = paper_index()
        packed = pack_index(index, one_tier=True, strategy=PackingStrategy.ONE_PER_PACKET)
        assert packed.packet_count >= index.node_count

    def test_bfs_covers_all_nodes(self):
        index = paper_index()
        packed = pack_index(index, one_tier=True, strategy=PackingStrategy.BFS)
        assert set(packed.packet_of_node) == set(range(index.node_count))

    def test_bfs_order_is_level_order(self):
        index = paper_index()
        packed = pack_index(index, one_tier=True, strategy=PackingStrategy.BFS)
        depths = [len(path) for path in node_paths(index)]
        order_depths = [depths[node_id] for node_id in packed.node_order]
        assert order_depths == sorted(order_depths)

    def test_greedy_never_worse_than_one_per_packet(self):
        index = paper_index()
        greedy = pack_index(index, one_tier=True)
        naive = pack_index(index, one_tier=True, strategy=PackingStrategy.ONE_PER_PACKET)
        assert greedy.packet_count <= naive.packet_count


class TestPackingProperties:
    @given(document_collections())
    def test_invariants_on_random_indexes(self, docs):
        index = build_full_ci(docs)
        for one_tier in (True, False):
            packed = pack_index(index, one_tier=one_tier)
            # Every node exactly once, spans contiguous and in range.
            assert set(packed.packet_of_node) == set(range(index.node_count))
            for span in packed.packet_of_node.values():
                assert list(span) == list(range(span[0], span[-1] + 1))
                assert 0 <= span[0] and span[-1] < packed.packet_count
            # No packet over-filled: sum of single-packet nodes fits.
            fill = {}
            for node_id, span in packed.packet_of_node.items():
                if len(span) == 1:
                    fill.setdefault(span[0], 0)
                    fill[span[0]] += index.size_model.node_bytes(
                        len(index.children[node_id]),
                        len(index.doc_ids[node_id]),
                        one_tier,
                    )
            assert all(used <= packed.packet_bytes for used in fill.values())

    @given(document_collections())
    def test_used_bytes_equals_index_size(self, docs):
        index = build_full_ci(docs)
        packed = pack_index(index, one_tier=True)
        assert packed.used_bytes == index.size_bytes(one_tier=True)
