"""Broadcast-cycle invariant checker.

``validate_cycle`` verifies everything a well-formed cycle must satisfy
before it goes on air; the server runs it in debug mode and the tests
use it as a one-call oracle.  Violations raise
:class:`CycleValidationError` with a description of every broken
invariant (all are collected, not just the first).

Checked invariants:

1. segment layout: packet-aligned, contiguous, in scheme order;
2. document placement: offsets inside the data segment, back-to-back
   **per data channel**, air sizes packet-aligned and consistent with
   the store;
3. second tier: entries sorted, exactly the scheduled documents, offsets
   equal to the placement; the channel assignment must cover exactly
   the scheduled documents, agree with the channel queues, and put
   every document on exactly one of the K channels;
4. packing: both packings cover exactly the PCI's nodes; index segment
   length equals the on-air packing's footprint;
5. index content: every scheduled document is locatable through the PCI
   (it appears in some node's annotations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.broadcast.packets import PacketKind
from repro.broadcast.program import BroadcastCycle, IndexScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.broadcast.server import DocumentStore


class CycleValidationError(AssertionError):
    """One or more cycle invariants are broken."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def validate_cycle(cycle: BroadcastCycle, store: "DocumentStore") -> None:
    """Raise :class:`CycleValidationError` unless every invariant holds."""
    problems: List[str] = []
    packet = cycle.layout.packet_bytes

    # 1. Segment layout (CycleLayout's constructor enforces alignment and
    #    contiguity; check the order per scheme here).
    kinds = [segment.kind for segment in cycle.layout.segments]
    if cycle.scheme is IndexScheme.TWO_TIER:
        expected = [
            PacketKind.FIRST_TIER_INDEX,
            PacketKind.SECOND_TIER_INDEX,
            PacketKind.DATA,
        ]
    else:
        expected = [PacketKind.ONE_TIER_INDEX, PacketKind.DATA]
    if kinds != expected:
        problems.append(f"segment order {kinds} != {expected}")

    # 2. Document placement: back-to-back per data channel.
    data = cycle.layout.segment(PacketKind.DATA)
    for channel, queue in enumerate(cycle.channel_queues):
        position = data.start if data else 0
        for doc_id in queue:
            if cycle.doc_channels.get(doc_id) != channel:
                problems.append(
                    f"channel assignment disagrees on doc {doc_id}'s channel"
                )
            offset = cycle.doc_offsets.get(doc_id)
            air = cycle.doc_air_bytes.get(doc_id)
            if offset is None or air is None:
                problems.append(f"doc {doc_id} missing placement")
                continue
            if offset != position:
                problems.append(
                    f"doc {doc_id} at offset {offset} on channel {channel}, "
                    f"expected {position} (gap?)"
                )
            if air % packet:
                problems.append(f"doc {doc_id} air bytes {air} not packet aligned")
            if air != store.air_bytes(doc_id):
                problems.append(
                    f"doc {doc_id} air bytes {air} != store's {store.air_bytes(doc_id)}"
                )
            if data and offset + air > data.end:
                problems.append(f"doc {doc_id} overruns the data segment")
            position = offset + air

    if set(cycle.doc_offsets) != set(cycle.doc_ids):
        problems.append("doc_offsets keys differ from scheduled doc ids")

    # 3. Second tier.
    entries = dict(cycle.offset_list.entries)
    if set(entries) != set(cycle.doc_ids):
        problems.append("offset list does not cover exactly the scheduled docs")
    for doc_id, offset in entries.items():
        if cycle.doc_offsets.get(doc_id) != offset:
            problems.append(f"offset list disagrees on doc {doc_id}")
    if len(cycle.channel_queues) != cycle.num_data_channels:
        problems.append(
            f"{len(cycle.channel_queues)} channel queues for "
            f"{cycle.num_data_channels} data channel(s)"
        )
    placed = [doc_id for queue in cycle.channel_queues for doc_id in queue]
    if sorted(placed) != sorted(cycle.doc_ids):
        problems.append(
            "channel queues do not partition the schedule (every doc "
            "must air on exactly one channel exactly once)"
        )
    if set(cycle.doc_channels) != set(cycle.doc_ids):
        problems.append(
            "channel assignment does not cover exactly the scheduled docs"
        )
    if data is not None:
        for channel, span in enumerate(cycle.channel_spans):
            if span > data.length:
                problems.append(
                    f"channel {channel} span {span} B exceeds the data "
                    f"segment ({data.length} B)"
                )

    # 4. Packing coverage and index segment length.
    node_ids = set(range(cycle.pci.node_count))
    for name, packed in (
        ("one-tier", cycle.packed_one_tier),
        ("first-tier", cycle.packed_first_tier),
    ):
        if set(packed.packet_of_node) != node_ids:
            problems.append(f"{name} packing does not cover the PCI nodes")
    on_air = cycle.packed(cycle.scheme)
    index_segment = cycle.layout.segments[0]
    if index_segment.length != on_air.total_bytes:
        problems.append(
            f"index segment {index_segment.length} B != packing footprint "
            f"{on_air.total_bytes} B"
        )

    # 5. Every scheduled document is locatable through the index.
    annotated = cycle.pci.annotated_doc_ids()
    unlocatable = [doc_id for doc_id in cycle.doc_ids if doc_id not in annotated]
    if unlocatable:
        problems.append(f"scheduled docs not in the index: {unlocatable}")

    if problems:
        raise CycleValidationError(problems)
