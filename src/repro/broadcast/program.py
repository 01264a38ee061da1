"""Broadcast cycle assembly (paper Figure 8).

A cycle's on-air layout is::

    two-tier:  [ first-tier index | second-tier offset list | documents ]
    one-tier:  [ one-tier index               | documents ]

All segments are packet-aligned.  Document offsets (cycle-relative byte
positions) feed the second-tier offset list, or the ``<doc, pointer>``
entries of the one-tier index.

Because the paper compares the two index schemes **on the same document
schedule** ("for a given scheduling algorithm, the broadcast of XML
documents is independent of the index structure"), every cycle carries
*both* packings of its PCI; the ``scheme`` chooses which one defines the
actual air layout, while tuning-time accounting can interrogate either.

**K data channels.**  The paper airs index and data on one downlink
channel; the number of data channels is a field of the cycle
(``num_data_channels``, 1 by default).  The index channel carries the
first and second tier as above; the K data channels air the scheduled
documents in parallel, each channel back-to-back from the shared
``data_start`` boundary, so a single-tuner client can read the index
and then retune without missing anything.  All channels advance
byte-time in lockstep and the cycle ends when the **longest** data
channel finishes; shorter channels idle-pad (``channel_spans``).  A
document's ``doc_offsets`` entry is its cycle-relative start byte-time
on its channel; offsets on different channels may overlap -- the
cross-channel *conflict* :class:`~repro.client.twotier.TwoTierClient`
plans around.  With K > 1 the second tier's pointers widen to
``<doc, channel, offset>``; with K = 1 the one queue is the schedule and
nothing on air differs from the paper's program.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.broadcast.multichannel import allocate_channels, check_channel_shape
from repro.broadcast.packets import CycleLayout, PacketKind, Segment
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex, LookupResult
from repro.index.packing import PackedIndex, pack_index
from repro.index.sizes import SizeModel
from repro.index.twotier import OffsetList, offset_list_air_bytes, split_two_tier
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.broadcast.server import DocumentStore


class IndexScheme(enum.Enum):
    ONE_TIER = "one-tier"
    TWO_TIER = "two-tier"


@dataclass
class BroadcastCycle:
    """One fully assembled broadcast cycle."""

    cycle_number: int
    scheme: IndexScheme
    pci: CompactIndex
    packed_one_tier: PackedIndex
    packed_first_tier: PackedIndex
    offset_list: OffsetList
    #: documents in broadcast order
    doc_ids: Tuple[int, ...]
    #: cycle-relative byte offset of each document's first packet
    doc_offsets: Dict[int, int]
    #: on-air bytes of each document (packet aligned, including header)
    doc_air_bytes: Dict[int, int]
    layout: CycleLayout
    #: K, the number of parallel data channels the documents air on
    num_data_channels: int
    #: doc id -> data channel index
    doc_channels: Dict[int, int]
    #: per-channel document queues, in broadcast order
    channel_queues: Tuple[Tuple[int, ...], ...]
    #: per-channel used air bytes; the DATA segment of ``layout`` covers
    #: the longest, shorter channels idle-pad to the cycle boundary
    channel_spans: Tuple[int, ...]
    #: allocation policy that produced the split (reporting only; not
    #: part of the program signature -- the signature covers the physical
    #: assignment itself)
    allocation: str = "balanced"
    #: channel byte-time at which the cycle starts (set by the server)
    start_time: int = 0
    #: ``None`` for a full-quality build; ``"pci-stale"`` or
    #: ``"ci-unpruned"`` when the build was overloaded and the
    #: degradation ladder served a fallback index (see
    #: ``BroadcastServer.force_overload``).  Clients that have not read the
    #: first tier yet defer their one-shot read on a ``"pci-stale"``
    #: cycle: a stale pruning may omit documents admitted after it.
    degraded: Optional[str] = None

    @property
    def total_bytes(self) -> int:
        return self.layout.total_bytes

    @property
    def end_time(self) -> int:
        return self.start_time + self.total_bytes

    @property
    def data_bytes(self) -> int:
        segment = self.layout.segment(PacketKind.DATA)
        return segment.length if segment else 0

    @property
    def first_tier_bytes(self) -> int:
        """L_I: on-air bytes of the first-tier index segment."""
        return self.packed_first_tier.total_bytes

    @property
    def offset_list_air_bytes(self) -> int:
        """L_O: on-air (packet aligned) bytes of the second tier, whose
        entries carry a channel field when K > 1."""
        return offset_list_air_bytes(
            self.offset_list.size_model, len(self.doc_ids), self.num_data_channels
        )

    @property
    def idle_padding_bytes(self) -> int:
        """Bytes shorter channels idle while the longest one finishes."""
        longest = max(self.channel_spans)
        return sum(longest - span for span in self.channel_spans)

    def packed(self, scheme: IndexScheme) -> PackedIndex:
        return (
            self.packed_one_tier
            if scheme is IndexScheme.ONE_TIER
            else self.packed_first_tier
        )

    def lookup(self, query: Union[XPathQuery, LazyQueryDFA]) -> LookupResult:
        """Client-side index search on this cycle's PCI (a query, or the
        compiled query or query set a repeat searcher keeps -- see
        :meth:`CompactIndex.lookup <repro.index.ci.CompactIndex.lookup>`)."""
        return self.pci.lookup(query)

    def lookup_packets(
        self, lookup: LookupResult, scheme: IndexScheme
    ) -> FrozenSet[int]:
        """Packets of *scheme*'s packing a *selective* index search reads
        (worked out once per walk for all its queries, and kept on each
        :class:`LookupResult` view, which every client of a query string
        shares)."""
        return lookup.packets_in(self.packed(scheme))

    def index_lookup_bytes(self, lookup: LookupResult, scheme: IndexScheme) -> int:
        """Tuning bytes for a *selective* index search under *scheme*."""
        packets = self.lookup_packets(lookup, scheme)
        return len(packets) * self.packed(scheme).packet_bytes


def build_cycle_program(
    cycle_number: int,
    pci: CompactIndex,
    scheduled_doc_ids: Sequence[int],
    store: "DocumentStore",
    scheme: IndexScheme = IndexScheme.TWO_TIER,
    num_channels: int = 1,
    allocation: str = "balanced",
    demand_sets: Optional[Mapping[int, FrozenSet[int]]] = None,
    hot_doc_ids: Sequence[int] = (),
) -> BroadcastCycle:
    """Assemble a cycle from the PCI and the scheduler's document pick.

    The PCI (and both packings of it) is channel-independent; only
    document placement depends on *num_channels*, *allocation* and the
    demand/hot inputs of :func:`~repro.broadcast.multichannel.
    allocate_channels`.
    """
    check_channel_shape(num_channels, allocation, two_tier=scheme is IndexScheme.TWO_TIER)
    size_model: SizeModel = pci.size_model
    with obs.span("server.index_packing"):
        packed_one = pack_index(pci, one_tier=True)
        packed_first = pack_index(pci, one_tier=False)

    # Index segment length under the chosen on-air scheme.
    if scheme is IndexScheme.ONE_TIER:
        index_air = packed_one.total_bytes
    else:
        index_air = packed_first.total_bytes

    with obs.span("server.two_tier_split"):
        two_tier = split_two_tier(pci)
    queues = allocate_channels(
        scheduled_doc_ids,
        store,
        num_channels,
        policy=allocation,
        demand_sets=demand_sets,
        hot_doc_ids=hot_doc_ids,
    )
    # The second tier is sized up front: its byte length depends on the
    # doc and channel counts, not on the offsets themselves.
    offset_air = (
        offset_list_air_bytes(size_model, len(scheduled_doc_ids), num_channels)
        if scheme is IndexScheme.TWO_TIER
        else 0
    )

    data_start = index_air + offset_air
    doc_offsets: Dict[int, int] = {}
    doc_air: Dict[int, int] = {}
    doc_channels: Dict[int, int] = {}
    spans: List[int] = []
    for channel, queue in enumerate(queues):
        position = data_start
        for doc_id in queue:
            doc_offsets[doc_id] = position
            air = store.air_bytes(doc_id)
            doc_air[doc_id] = air
            doc_channels[doc_id] = channel
            position += air
        spans.append(position - data_start)

    offset_list = two_tier.make_offset_list(doc_offsets)

    segments: List[Segment] = []
    if scheme is IndexScheme.ONE_TIER:
        segments.append(Segment(PacketKind.ONE_TIER_INDEX, 0, index_air))
    else:
        segments.append(Segment(PacketKind.FIRST_TIER_INDEX, 0, index_air))
        segments.append(Segment(PacketKind.SECOND_TIER_INDEX, index_air, offset_air))
    segments.append(Segment(PacketKind.DATA, data_start, max(spans)))
    layout = CycleLayout(
        tuple(segments),
        packet_bytes=size_model.packet_bytes,
        checksum_bytes=size_model.checksum_bytes,
    )

    return BroadcastCycle(
        cycle_number=cycle_number,
        scheme=scheme,
        pci=pci,
        packed_one_tier=packed_one,
        packed_first_tier=packed_first,
        offset_list=offset_list,
        doc_ids=tuple(scheduled_doc_ids),
        doc_offsets=doc_offsets,
        doc_air_bytes=doc_air,
        layout=layout,
        num_data_channels=num_channels,
        doc_channels=doc_channels,
        channel_queues=tuple(tuple(queue) for queue in queues),
        channel_spans=tuple(spans),
        allocation=allocation,
    )


def _packed_form(packed: PackedIndex) -> Tuple:
    # PackedIndex is frozen and signed repeatedly (one signature per
    # cycle, same packing for many cycles under the PCI cache) -- memoise
    # the canonical tuple on the instance.
    cached = getattr(packed, "_canonical_form", None)
    if cached is None:
        cached = (
            packed.strategy.value,
            packed.one_tier,
            packed.packet_bytes,
            packed.packet_count,
            packed.node_order,
            tuple(sorted(packed.packet_of_node.items())),
            packed.used_bytes,
        )
        object.__setattr__(packed, "_canonical_form", cached)
    return cached


def program_signature(cycle: BroadcastCycle) -> str:
    """Deterministic fingerprint of everything a cycle puts on air.

    Covers the PCI tree (structure + annotations), both index packings,
    the offset list, the document schedule with its offsets/air sizes,
    the segment layout, the data channel count and the per-document
    channel assignment (the paper's single-channel program signs as one
    data channel with every document on channel 0).  Two cycles with
    equal signatures broadcast byte-identical programs -- this is what
    the cache-equivalence tests and the CI smoke job compare between
    cached and ``enable_caches=False`` servers.
    """
    doc_channels = cycle.doc_channels
    form = (
        cycle.cycle_number,
        cycle.scheme.value,
        cycle.pci.virtual_root,
        cycle.pci.annotation,
        # cached on the index: the cycle cache signs the same PCI for many
        # cycles
        cycle.pci.tree_form(),
        _packed_form(cycle.packed_one_tier),
        _packed_form(cycle.packed_first_tier),
        cycle.offset_list.entries,
        cycle.doc_ids,
        tuple(sorted(cycle.doc_offsets.items())),
        tuple(sorted(cycle.doc_air_bytes.items())),
        tuple(
            (segment.kind.value, segment.start, segment.length)
            for segment in cycle.layout.segments
        ),
        cycle.layout.packet_bytes,
        cycle.layout.checksum_bytes,
        cycle.total_bytes,
        cycle.num_data_channels,
        tuple((doc_id, doc_channels[doc_id]) for doc_id in sorted(cycle.doc_ids)),
    )
    return hashlib.sha256(repr(form).encode("utf-8")).hexdigest()
