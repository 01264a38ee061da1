"""Packet and cycle-segment primitives.

Everything on the broadcast channel is framed into fixed-size packets
(128 bytes in the paper).  The simulation accounts tuning time in bytes
at packet granularity, so what it needs from this module is the
:class:`CycleLayout` arithmetic mapping cycle segments to byte ranges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class PacketKind(enum.Enum):
    """What a packet carries."""

    FIRST_TIER_INDEX = "index-1"
    SECOND_TIER_INDEX = "index-2"
    ONE_TIER_INDEX = "index"
    DATA = "data"


@dataclass(frozen=True)
class Segment:
    """A contiguous byte range of a cycle devoted to one kind of content."""

    kind: PacketKind
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.end


@dataclass(frozen=True)
class CycleLayout:
    """Byte layout of one broadcast cycle.

    Segments appear in broadcast order.  All segment boundaries are
    packet-aligned; the builders guarantee that by rounding each segment
    up to whole packets.
    """

    segments: Tuple[Segment, ...]
    packet_bytes: int
    #: per-packet checksum trailer carried by every packet of the cycle
    #: (0 on the paper's perfect channel).  Recorded on the layout so
    #: clients know how much of each packet is verifiable payload; the
    #: byte arithmetic below is unchanged -- checksums ride inside the
    #: fixed packet size, they do not change segment lengths.
    checksum_bytes: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.checksum_bytes < self.packet_bytes:
            raise ValueError("checksum_bytes must be in [0, packet_bytes)")
        position = 0
        for segment in self.segments:
            if segment.start != position:
                raise ValueError(
                    f"segment {segment.kind.value} starts at {segment.start}, "
                    f"expected {position}"
                )
            if segment.length % self.packet_bytes:
                raise ValueError(
                    f"segment {segment.kind.value} is not packet aligned "
                    f"({segment.length} bytes, packet={self.packet_bytes})"
                )
            position = segment.end

    @property
    def total_bytes(self) -> int:
        return self.segments[-1].end if self.segments else 0

    @property
    def payload_bytes(self) -> int:
        """Verifiable payload per packet (packet minus checksum trailer)."""
        return self.packet_bytes - self.checksum_bytes

    def segment(self, kind: PacketKind) -> Optional[Segment]:
        for segment in self.segments:
            if segment.kind is kind:
                return segment
        return None
