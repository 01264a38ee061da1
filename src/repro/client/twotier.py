"""The improved two-tier access protocol (paper Section 3.4).

1. initial probe;
2. **first cycle only**: search the first-tier index and record the IDs
   of all result documents -- the first tier covers every requested
   document, so one read suffices for the whole session;
3. **every cycle** (including the first): read the second-tier offset
   list to learn where this cycle's documents start, and download the
   needed ones.

Equation 1: ``TT = L_I + n * L_O`` plus document download time, with n
the number of cycles listened to.  The first-tier read is selective by
default (packets the query's walk touches) or FULL (the literal L_I);
the offset-list read is FULL by default (the literal L_O) or SELECTIVE.

**One tuner, K >= 1 data channels.**  A cycle airs its documents on
``cycle.num_data_channels`` parallel data channels; the client listens
to one channel at a time and retunes instantly.  The data phase is one
greedy *tune plan*: walk the needed documents in air order and take
every document that starts at or after the moment the tuner frees up
(``offset >= free``).  A document
airing *while* the tuner is busy on another channel is a **conflict**
and waits for a later cycle -- the server's acknowledged delivery keeps
it scheduled.  Deferral terminates because the earliest-starting needed
document of a cycle is always catchable.  On the paper's single channel
documents never overlap, so the plan takes all of them.

**Error-prone channel.**  With a non-lossless
:class:`~repro.broadcast.loss.PacketLossModel` erasures are sampled
over exactly the packets the read modes listen to:

* **first tier** -- any lost packet voids the read (the result-ID set
  cannot be trusted); the bytes are charged and the read is retried
  next cycle;
* **offset list** -- a lost second-tier packet blinds the client for
  the cycle: it downloads nothing and waits for the next list;
* **documents** -- a document is received only if all its frames
  arrive.  The loss surfaces after the frames were listened to, so the
  air time is charged and still occupies the tuner; the document is
  picked up at a later rebroadcast.

Under losses the protocol stays safe (never records a wrong result set)
and live as long as the server rebroadcasts unacknowledged documents.
"""

from __future__ import annotations

from typing import Collection, Optional

from repro import obs
from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.broadcast.program import BroadcastCycle, IndexScheme
from repro.client.protocol import (
    AccessProtocol,
    FirstTierRead,
    LookupFn,
    OffsetRead,
)
from repro.xpath.ast import XPathQuery

#: loss-sampling identity of the k-th second-tier packet: offset-list
#: packets follow the index segment, far above any first-tier index
_OFFSET_PACKET_BASE = 1_000_000


class TwoTierClient(AccessProtocol):
    """Client running the improved two-tier protocol."""

    scheme = IndexScheme.TWO_TIER
    protocol_name = "two-tier"

    def __init__(
        self,
        query: XPathQuery,
        arrival_time: int,
        lookup_fn: Optional[LookupFn] = None,
        first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
        offset_read: OffsetRead = OffsetRead.FULL,
        loss_model: PacketLossModel = LOSSLESS,
        client_key: int = 0,
    ) -> None:
        super().__init__(query, arrival_time, lookup_fn)
        self.first_tier_read = first_tier_read
        self.offset_read = offset_read
        self.loss_model = loss_model
        #: this client's identity on the lossy channel (independent draws)
        self.client_key = client_key
        #: diagnostics: first-tier reads voided by a loss, cycles blinded
        #: by a lost offset packet, documents deferred by a cross-channel
        #: conflict (one per document per cycle it was deferred in)
        self.index_retries = 0
        self.blind_cycles = 0
        self.channel_conflicts = 0

    def _consume(self, cycle: BroadcastCycle, probe_bytes: int) -> None:
        # A reliable channel pays no per-packet sampling at all.
        loss = None if self.loss_model.is_lossless else self.loss_model
        index_bytes = 0
        if self.expected_doc_ids is None:
            with obs.span("client.first_tier_read"):
                lookup = self._lookup(cycle)
                packed = cycle.packed_first_tier
                packets: Collection[int]
                if self.first_tier_read is FirstTierRead.FULL:
                    packets = range(packed.packet_count)
                    index_bytes = cycle.first_tier_bytes
                else:
                    packets = cycle.lookup_packets(lookup, self.scheme)
                    index_bytes = len(packets) * packed.packet_bytes
                lost = loss is not None and loss.any_lost(
                    self.client_key, cycle.cycle_number, packets
                )
            if lost:
                self.index_retries += 1
                self.metrics.merge_cycle(probe=probe_bytes, index=index_bytes)
                return
            self.expected_doc_ids = frozenset(lookup.doc_ids)
        with obs.span("client.offset_read"):
            if self.offset_read is OffsetRead.SELECTIVE:
                if cycle.num_data_channels > 1:
                    raise ValueError(
                        "OffsetRead.SELECTIVE is defined on the single-channel "
                        "<doc, offset> list; this cycle airs the extended "
                        "<doc, channel, offset> second tier"
                    )
                packets = cycle.offset_list.packets_for_docs(self.expected_doc_ids)
                offset_bytes = len(packets) * cycle.layout.packet_bytes
            else:
                offset_bytes = cycle.offset_list_air_bytes
                packets = range(offset_bytes // cycle.layout.packet_bytes)
            lost = loss is not None and loss.any_lost(
                self.client_key,
                cycle.cycle_number,
                (_OFFSET_PACKET_BASE + k for k in packets),
            )
        if lost:
            # Without intact offsets there is no tune plan.
            self.blind_cycles += 1
            self.metrics.merge_cycle(
                probe=probe_bytes, index=index_bytes, offsets=offset_bytes
            )
            return
        with obs.span("client.doc_download"):
            doc_bytes = self._download_planned(cycle, loss)
        self.metrics.merge_cycle(
            probe=probe_bytes,
            index=index_bytes,
            offsets=offset_bytes,
            docs=doc_bytes,
        )

    def _download_planned(
        self, cycle: BroadcastCycle, loss: Optional[PacketLossModel]
    ) -> int:
        """Greedy single-tuner tune plan over this cycle's channels."""
        expected = self.expected_doc_ids
        assert expected is not None
        received = self.received_doc_ids
        offsets = cycle.doc_offsets
        plan = [d for d in cycle.doc_ids if d in expected and d not in received]
        if cycle.num_data_channels > 1:
            # Parallel channels: schedule order is not air order.  Ties
            # (same start on different channels) break toward the lower
            # channel, then doc id, for determinism.
            channels = cycle.doc_channels
            plan.sort(key=lambda d: (offsets[d], channels[d], d))
        packet_bytes = cycle.layout.packet_bytes
        free = 0  # every document starts after the index the tuner just read
        doc_bytes = 0
        last_end = 0
        deferred = 0
        for doc_id in plan:
            offset = offsets[doc_id]
            if offset < free:  # already on air on another channel
                deferred += 1
                continue
            air = cycle.doc_air_bytes[doc_id]
            doc_bytes += air
            free = offset + air
            if loss is not None and loss.span_lost(
                self.client_key,
                cycle.cycle_number,
                offset // packet_bytes,
                air // packet_bytes,
            ):
                continue  # corrupted; wait for a rebroadcast
            received.add(doc_id)
            last_end = free
        if deferred:
            self.channel_conflicts += deferred
            registry = obs.get_registry()
            if registry.enabled:
                registry.counter(
                    "client.channel_conflicts_total", protocol=self.protocol_name
                ).inc(deferred)
        self._record_completion(cycle, last_end)
        return doc_bytes
