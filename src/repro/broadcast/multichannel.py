"""Multi-channel broadcast cycle programs (K parallel data channels).

The paper broadcasts index and data on one downlink channel.  The
multichannel XML-broadcast literature (e.g. Khatibi & Khatibi,
*Efficient Multichannel in XML Wireless Broadcast Stream*) splits the
documents of a cycle across **K parallel data channels**, cutting the
data phase -- and with it access time -- roughly in proportion to K.
This module generalises the cycle program to that layout:

* the **index channel** carries the first tier followed by the second
  tier, exactly as in the single-channel program; it is dedicated to the
  index and replicates it every cycle;
* the second tier is extended from ``<doc, offset>`` to
  ``<doc, channel, offset>`` pointers (:class:`ChannelOffsetList`) so a
  client knows *where* as well as *when* each document airs;
* **K data channels** air the scheduled documents in parallel, each
  channel back-to-back from the shared ``data_start`` boundary (the
  byte-time at which the index program ends -- data channels stay
  synchronous with the index channel, so a single-tuner client can read
  the index and then retune without missing anything).

Timing model: all channels advance byte-time in lockstep; the cycle ends
when the **longest** data channel finishes (``data_start + max(span)``).
A document's ``doc_offsets`` entry remains its cycle-relative start
byte-time; offsets of documents on different channels may overlap -- that
is precisely the cross-channel *conflict* the single-tuner
:class:`~repro.client.twotier.TwoTierClient` plans around.

At ``K=1`` everything collapses to the single-channel program: one data
channel, the channel field elided from the second tier, byte-identical
layout and :func:`~repro.broadcast.program.program_signature`
(differentially tested in ``tests/integration/
test_multichannel_equivalence.py``).

Allocation policies (:data:`ALLOCATION_POLICIES`):

* ``round-robin`` -- document *i* of the schedule goes to channel
  ``i mod K``;
* ``balanced`` -- greedy balanced-air-bytes: each document (in schedule
  order) goes to the currently lightest channel, minimising the padding
  of the longest channel;
* ``demand`` -- demand-weighted affinity clustering: documents are
  assigned most-demanded first (demand = the set of pending queries
  still missing the document, from the server's
  :class:`~repro.broadcast.scheduling.DemandTable`) to the channel whose
  documents share the most demanding queries, bounded by a per-channel
  load target.  Co-demanded documents land on the *same* channel
  back-to-back, so a single-tuner client rides one channel and retrieves
  its whole result set while other queries' channels air in parallel --
  this is what turns K channels into real aggregate throughput for
  single-tuner populations (spreading popular documents across channels
  would instead force every client into cross-channel conflicts).

Every policy preserves the scheduler's relative order *within* a
channel, so the scheduler's completion-oriented ordering survives the
split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.broadcast.packets import CycleLayout, PacketKind, Segment
from repro.broadcast.program import BroadcastCycle, IndexScheme
from repro.index.ci import CompactIndex
from repro.index.packing import PackingStrategy, pack_index
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.index.twotier import split_two_tier

if TYPE_CHECKING:  # pragma: no cover
    from repro.broadcast.server import DocumentStore

#: Byte width of the channel field in an extended second-tier entry.  A
#: single byte addresses 256 data channels, far beyond any deployment
#: the multichannel literature considers.
CHANNEL_ID_BYTES = 1

ALLOCATION_POLICIES: Tuple[str, ...] = ("round-robin", "balanced", "demand")


def allocate_channels(
    scheduled_doc_ids: Sequence[int],
    store: "DocumentStore",
    num_channels: int,
    policy: str = "balanced",
    demand_sets: Optional[Mapping[int, FrozenSet[int]]] = None,
    hot_doc_ids: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Partition the schedule across *num_channels* data channels.

    Returns one document queue per channel.  Every scheduled document
    lands on exactly one channel exactly once, and each queue preserves
    the schedule's relative order (property-tested).  ``demand_sets``
    (document id -> ids of the pending queries still missing it) is only
    consulted by the ``demand`` policy; missing documents have empty
    demand and fall back to balanced placement.

    ``hot_doc_ids`` (adaptive control plane) carves out a broadcast-disk
    style **fast-repeat channel**: scheduled documents in the hot set are
    pinned to channel 0 in schedule order, and the cold remainder is
    split across the other ``num_channels - 1`` channels by *policy*.
    Requires ``num_channels >= 2`` when any scheduled document is hot
    (a hot channel cannot consume the only data channel); an empty or
    non-scheduled hot set degenerates to the plain policy split, so
    static runs (no controller, no hot set) are unaffected.
    """
    if num_channels < 1:
        raise ValueError("num_channels must be at least 1")
    if policy not in ALLOCATION_POLICIES:
        raise ValueError(
            f"unknown allocation policy {policy!r}; "
            f"choose from {ALLOCATION_POLICIES}"
        )
    hot_set = set(hot_doc_ids or ())
    hot_scheduled = [d for d in scheduled_doc_ids if d in hot_set]
    if hot_scheduled:
        if num_channels < 2:
            raise ValueError(
                "a fast-repeat hot channel needs at least 2 data channels"
            )
        cold = [d for d in scheduled_doc_ids if d not in hot_set]
        return [hot_scheduled] + allocate_channels(
            cold, store, num_channels - 1, policy, demand_sets
        )
    queues: List[List[int]] = [[] for _ in range(num_channels)]
    if num_channels == 1:
        queues[0].extend(scheduled_doc_ids)
        return queues

    if policy == "round-robin":
        for position, doc_id in enumerate(scheduled_doc_ids):
            queues[position % num_channels].append(doc_id)
        return queues

    schedule_position = {doc_id: i for i, doc_id in enumerate(scheduled_doc_ids)}
    loads = [0] * num_channels
    assignment: Dict[int, int] = {}
    if policy == "balanced":
        # Greedy balanced-air-bytes: each document (schedule order) goes
        # to the currently lightest channel, ties toward channel 0.
        for doc_id in scheduled_doc_ids:
            channel = min(range(num_channels), key=lambda c: (loads[c], c))
            assignment[doc_id] = channel
            loads[channel] += store.air_bytes(doc_id)
    else:  # demand-weighted affinity clustering
        demand = demand_sets or {}
        # Most-demanded documents seed channels first; each later document
        # joins the channel sharing the most demanding queries, so one
        # query's result set stays together and a single tuner can ride a
        # single channel for it.  A per-channel load target keeps the
        # clustering from collapsing onto one channel.
        order = sorted(
            scheduled_doc_ids,
            key=lambda d: (-len(demand.get(d, ())), schedule_position[d]),
        )
        total_air = sum(store.air_bytes(doc_id) for doc_id in scheduled_doc_ids)
        target = -(-total_air // num_channels)  # ceil: balanced span bound
        channel_queries: List[Set[int]] = [set() for _ in range(num_channels)]
        for doc_id in order:
            queries = demand.get(doc_id, frozenset())
            open_channels = [
                c for c in range(num_channels) if loads[c] < target
            ] or list(range(num_channels))
            channel = max(
                open_channels,
                key=lambda c: (len(queries & channel_queries[c]), -loads[c], -c),
            )
            assignment[doc_id] = channel
            loads[channel] += store.air_bytes(doc_id)
            channel_queries[channel].update(queries)
    for doc_id in scheduled_doc_ids:  # schedule order within each channel
        queues[assignment[doc_id]].append(doc_id)
    return queues


@dataclass(frozen=True)
class ChannelOffsetList:
    """Second tier extended to ``<doc, channel, offset>`` pointers.

    ``entries`` is sorted by document ID, one triple per scheduled
    document: the data channel it airs on and its cycle-relative start
    offset.  With a single data channel the channel field carries no
    information and is elided from the on-air encoding, so the list is
    byte-identical to the single-channel :class:`~repro.index.twotier.
    OffsetList` (the K=1 collapse the equivalence suite pins).
    """

    entries: Tuple[Tuple[int, int, int], ...]
    num_channels: int = 1
    size_model: SizeModel = PAPER_SIZE_MODEL

    def __post_init__(self) -> None:
        doc_ids = [doc_id for doc_id, _channel, _offset in self.entries]
        if doc_ids != sorted(doc_ids):
            raise ValueError("channel offset list must be sorted by doc id")
        if len(doc_ids) != len(set(doc_ids)):
            raise ValueError("channel offset list must not repeat doc ids")
        for doc_id, channel, _offset in self.entries:
            if not 0 <= channel < self.num_channels:
                raise ValueError(
                    f"doc {doc_id} on channel {channel}, but only "
                    f"{self.num_channels} data channel(s) exist"
                )

    @property
    def doc_count(self) -> int:
        return len(self.entries)

    @property
    def entry_bytes(self) -> int:
        """On-air bytes of one pointer; the channel field only exists
        when there is more than one data channel to point into."""
        base = self.size_model.doc_id_bytes + self.size_model.pointer_bytes
        return base + (CHANNEL_ID_BYTES if self.num_channels > 1 else 0)

    @property
    def size_bytes(self) -> int:
        """The extended L_O for this cycle."""
        return self.size_model.count_bytes + self.doc_count * self.entry_bytes

    @property
    def packet_count(self) -> int:
        return self.size_model.packets_for(self.size_bytes)

    @property
    def air_bytes(self) -> int:
        return self.packet_count * self.size_model.packet_bytes

    def channel_of(self, doc_id: int) -> Optional[int]:
        for entry_id, channel, _offset in self.entries:
            if entry_id == doc_id:
                return channel
        return None


@dataclass
class MultiChannelCycle(BroadcastCycle):
    """A broadcast cycle whose data segment spans K parallel channels.

    Extends :class:`~repro.broadcast.program.BroadcastCycle` -- every
    single-channel consumer (clients, validators, signature) keeps
    working, reading ``doc_offsets`` as cycle-relative byte times.  The
    DATA segment of ``layout`` covers the **longest** channel; shorter
    channels idle-pad to the cycle boundary (``channel_spans`` records
    each channel's used bytes).
    """

    num_data_channels: int = 1
    #: allocation policy that produced the split (reporting only; not
    #: part of the program signature -- the signature covers the physical
    #: assignment itself)
    allocation: str = "balanced"
    #: doc id -> data channel index
    doc_channels: Dict[int, int] = field(default_factory=dict)
    #: per-channel document queues, in broadcast order
    channel_queues: Tuple[Tuple[int, ...], ...] = ()
    #: per-channel used air bytes
    channel_spans: Tuple[int, ...] = ()
    #: the extended second tier actually on air
    channel_offset_list: Optional[ChannelOffsetList] = None
    #: scheduled documents pinned to the fast-repeat channel (adaptive
    #: control plane); empty for static runs.  Reporting only -- the
    #: physical placement itself is covered by ``doc_channels`` (and
    #: therefore by the program signature).
    hot_doc_ids: Tuple[int, ...] = ()

    @property
    def offset_list_air_bytes(self) -> int:
        """L_O of the extended ``<doc, channel, offset>`` second tier."""
        if self.channel_offset_list is None:  # pragma: no cover - guard
            return super().offset_list_air_bytes
        return self.channel_offset_list.air_bytes

    @property
    def data_start(self) -> int:
        """Byte-time at which every data channel starts airing."""
        segment = self.layout.segment(PacketKind.DATA)
        return segment.start if segment else self.layout.total_bytes

    @property
    def idle_padding_bytes(self) -> int:
        """Bytes shorter channels idle while the longest one finishes."""
        if not self.channel_spans:
            return 0
        longest = max(self.channel_spans)
        return sum(longest - span for span in self.channel_spans)


def build_multichannel_program(
    cycle_number: int,
    pci: CompactIndex,
    scheduled_doc_ids: Sequence[int],
    store: "DocumentStore",
    num_channels: int,
    allocation: str = "balanced",
    scheme: IndexScheme = IndexScheme.TWO_TIER,
    packing: PackingStrategy = PackingStrategy.GREEDY_DFS,
    demand_sets: Optional[Mapping[int, FrozenSet[int]]] = None,
    hot_doc_ids: Optional[Sequence[int]] = None,
) -> MultiChannelCycle:
    """Assemble a K-data-channel cycle from the PCI and the schedule.

    The PCI (and both packings of it) is channel-independent, so the
    index side is built exactly as in :func:`~repro.broadcast.program.
    build_cycle_program`; only document placement differs.  At
    ``num_channels=1`` the result is byte-identical to the
    single-channel program.
    """
    if num_channels < 1:
        raise ValueError("num_channels must be at least 1")
    if scheme is not IndexScheme.TWO_TIER and num_channels > 1:
        raise ValueError(
            "multi-channel broadcast requires the two-tier scheme: the "
            "one-tier index embeds per-cycle document pointers and has "
            "no second tier to carry channel assignments"
        )
    size_model: SizeModel = pci.size_model
    with obs.span("server.index_packing"):
        packed_one = pack_index(pci, one_tier=True, strategy=packing)
        packed_first = pack_index(pci, one_tier=False, strategy=packing)
    if scheme is IndexScheme.ONE_TIER:
        index_air = packed_one.total_bytes
    else:
        index_air = packed_first.total_bytes

    with obs.span("server.two_tier_split"):
        two_tier = split_two_tier(pci)

    with obs.span("server.channel_allocation"):
        queues = allocate_channels(
            scheduled_doc_ids,
            store,
            num_channels,
            policy=allocation,
            demand_sets=demand_sets,
            hot_doc_ids=hot_doc_ids,
        )

    # Second-tier length depends only on the doc count and channel count,
    # never on the offsets themselves -- so it can be sized up front.
    probe_list = ChannelOffsetList(
        entries=tuple(
            (doc_id, 0, 0) for doc_id in sorted(scheduled_doc_ids)
        ),
        num_channels=num_channels,
        size_model=size_model,
    )
    offset_air = probe_list.air_bytes if scheme is IndexScheme.TWO_TIER else 0

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

    data_length = max(spans) if spans else 0
    offset_list = two_tier.make_offset_list(doc_offsets)
    channel_offset_list = ChannelOffsetList(
        entries=tuple(
            (doc_id, doc_channels[doc_id], offset)
            for doc_id, offset in offset_list.entries
        ),
        num_channels=num_channels,
        size_model=size_model,
    )

    segments: List[Segment] = []
    if scheme is IndexScheme.ONE_TIER:
        segments.append(Segment(PacketKind.ONE_TIER_INDEX, 0, index_air))
    else:
        segments.append(Segment(PacketKind.FIRST_TIER_INDEX, 0, index_air))
        segments.append(Segment(PacketKind.SECOND_TIER_INDEX, index_air, offset_air))
    segments.append(Segment(PacketKind.DATA, data_start, data_length))
    layout = CycleLayout(
        tuple(segments),
        packet_bytes=size_model.packet_bytes,
        checksum_bytes=size_model.checksum_bytes,
    )

    return MultiChannelCycle(
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
        allocation=allocation,
        doc_channels=doc_channels,
        channel_queues=tuple(tuple(queue) for queue in queues),
        channel_spans=tuple(spans),
        channel_offset_list=channel_offset_list,
        hot_doc_ids=tuple(
            doc_id
            for doc_id in scheduled_doc_ids
            if doc_id in set(hot_doc_ids or ())
        ),
    )
