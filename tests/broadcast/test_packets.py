"""Unit tests for packet and cycle-layout primitives."""

from __future__ import annotations

import pytest

from repro.broadcast.packets import CycleLayout, PacketKind, Segment


def two_segment_layout() -> CycleLayout:
    return CycleLayout(
        (
            Segment(PacketKind.FIRST_TIER_INDEX, 0, 256),
            Segment(PacketKind.SECOND_TIER_INDEX, 256, 128),
            Segment(PacketKind.DATA, 384, 512),
        ),
        packet_bytes=128,
    )


class TestSegment:
    def test_contains(self):
        segment = Segment(PacketKind.DATA, 100, 50)
        assert segment.contains(100)
        assert segment.contains(149)
        assert not segment.contains(150)
        assert not segment.contains(99)

    def test_end(self):
        assert Segment(PacketKind.DATA, 100, 50).end == 150


class TestCycleLayout:
    def test_totals(self):
        layout = two_segment_layout()
        assert layout.total_bytes == 896

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            CycleLayout(
                (
                    Segment(PacketKind.DATA, 0, 128),
                    Segment(PacketKind.DATA, 256, 128),  # hole at 128
                ),
                packet_bytes=128,
            )

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            CycleLayout((Segment(PacketKind.DATA, 0, 100),), packet_bytes=128)

    def test_segment_lookup(self):
        layout = two_segment_layout()
        assert layout.segment(PacketKind.DATA).start == 384
        assert layout.segment(PacketKind.ONE_TIER_INDEX) is None

    def test_kind_at(self):
        layout = two_segment_layout()
        def kind_at(offset):
            return [s.kind for s in layout.segments if s.contains(offset)]

        assert kind_at(0) == [PacketKind.FIRST_TIER_INDEX]
        assert kind_at(300) == [PacketKind.SECOND_TIER_INDEX]
        assert kind_at(895) == [PacketKind.DATA]
        assert kind_at(896) == []

    def test_empty_layout(self):
        layout = CycleLayout((), packet_bytes=128)
        assert layout.total_bytes == 0
