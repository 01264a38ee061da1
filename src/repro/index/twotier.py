"""The two-tier index structure (paper Section 3.3).

The one-tier index stores ``<doc.id, doc.offset>`` pairs inside the index
nodes, duplicating a document's offset once per annotation.  The two-tier
structure normalises this (1NF -> BCNF, as the paper argues):

* **first tier** -- the PCI tree with only 2-byte document *IDs* in its
  doc blocks (schema ``S2_1(node, doc.id)``);
* **second tier** -- one flat :class:`OffsetList` per broadcast cycle
  mapping each document broadcast in that cycle to its byte offset
  (schema ``S2_2(doc.id, doc.offset)``).

The first tier is query-dependent but cycle-invariant (document IDs do
not move between cycles); the second tier is rebuilt every cycle by the
broadcast program builder.  This is exactly what enables the improved
client protocol: read the first tier once, then only the small second
tier of each following cycle (Equation 1: ``TT = L_I + n * L_O``).

A cycle that airs its documents on K > 1 parallel data channels widens
each on-air pointer to ``<doc, channel, offset>`` so a client knows
*where* as well as *when* a document airs (:func:`offset_list_air_bytes`);
with one data channel the field carries no information and is elided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from repro.index.ci import CompactIndex
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL

#: Byte width of the channel field in a K > 1 second-tier entry.  A
#: single byte addresses 256 data channels, far beyond any deployment
#: the multichannel literature considers.
CHANNEL_ID_BYTES = 1


def offset_list_air_bytes(
    size_model: SizeModel, doc_count: int, num_channels: int = 1
) -> int:
    """L_O on air (packet aligned) for *doc_count* documents on K channels.

    Depends only on the two counts, never on the offsets themselves, so
    the program builder can size the second tier before placing a
    single document.
    """
    entry = size_model.offset_entry_bytes + (
        CHANNEL_ID_BYTES if num_channels > 1 else 0
    )
    return size_model.packet_aligned_bytes(size_model.count_bytes + doc_count * entry)


@dataclass(frozen=True)
class OffsetList:
    """Second-tier index of one broadcast cycle.

    ``entries`` maps each document broadcast in the cycle to the byte
    offset (within the cycle) where its first packet starts, sorted by
    document ID so clients can scan or binary-search it.
    """

    entries: Tuple[Tuple[int, int], ...]
    size_model: SizeModel = PAPER_SIZE_MODEL

    def __post_init__(self) -> None:
        doc_ids = [doc_id for doc_id, _offset in self.entries]
        if doc_ids != sorted(doc_ids):
            raise ValueError("offset list entries must be sorted by doc id")
        if len(doc_ids) != len(set(doc_ids)):
            raise ValueError("offset list entries must not repeat doc ids")

    @classmethod
    def from_mapping(
        cls, offsets: Mapping[int, int], size_model: SizeModel = PAPER_SIZE_MODEL
    ) -> "OffsetList":
        return cls(tuple(sorted(offsets.items())), size_model=size_model)

    @property
    def doc_count(self) -> int:
        return len(self.entries)

    @property
    def size_bytes(self) -> int:
        """The paper's L_O for this cycle."""
        return self.size_model.offset_list_bytes(len(self.entries))

    @property
    def packet_count(self) -> int:
        return self.size_model.packets_for(self.size_bytes)

    def lookup(self, doc_ids: Iterable[int]) -> Dict[int, int]:
        """Offsets of the requested documents present in this cycle."""
        wanted = set(doc_ids)
        return {
            doc_id: offset for doc_id, offset in self.entries if doc_id in wanted
        }

    def packets_for_docs(self, doc_ids: Iterable[int]) -> "frozenset[int]":
        """Offset-list packets a *selective* reader touches.

        Entries are sorted by document ID, so a client can binary-search
        instead of scanning; the packets charged are the header packet
        (entry count, needed to bound the search) plus every packet
        holding one of its entries.  This is the optimistic model -- a
        real binary search may probe one or two extra packets -- and it
        is the extension knob ``OffsetRead.SELECTIVE`` uses; the paper's
        Equation 1 charges the full list (``OffsetRead.FULL``).
        """
        model = self.size_model
        # Entries fill the packet *payload*; a checksum trailer (when
        # configured) pushes entries into later packets accordingly.
        packet = model.payload_bytes
        touched = {0}  # the count header lives in packet 0
        wanted = set(doc_ids)
        for position, (doc_id, _offset) in enumerate(self.entries):
            if doc_id in wanted:
                byte = model.count_bytes + position * model.offset_entry_bytes
                touched.add(byte // packet)
                # An entry may straddle a packet boundary.
                touched.add((byte + model.offset_entry_bytes - 1) // packet)
        return frozenset(touched)


@dataclass
class TwoTierIndex:
    """First tier (PCI without pointers) plus second-tier construction."""

    first_tier: CompactIndex

    @property
    def size_model(self) -> SizeModel:
        return self.first_tier.size_model

    @property
    def first_tier_bytes(self) -> int:
        """The paper's L_I."""
        return self.first_tier.size_bytes(one_tier=False)

    def make_offset_list(self, offsets: Mapping[int, int]) -> OffsetList:
        """Build the second tier for one cycle's document placement."""
        return OffsetList.from_mapping(offsets, size_model=self.size_model)


def split_two_tier(pci: CompactIndex) -> TwoTierIndex:
    """Wrap a PCI as a two-tier index.

    The split is representational: the same tree is sized and encoded
    without per-annotation pointers, and offsets move to per-cycle
    :class:`OffsetList` instances produced by the program builder.
    """
    return TwoTierIndex(first_tier=pci)
