"""Deterministic, seedable fault plans.

A :class:`FaultPlan` describes *which* faults a run injects and *how
hard*, at the four injection points of the broadcast pipeline:

1. **uplink loss/delay** -- each ``submit`` attempt can be dropped or
   delayed, and the server's admission acknowledgement can be lost on
   the way back, forcing the client into a retry loop with exponential
   backoff + jitter (:meth:`FaultPlan.uplink_outcome`).  The server
   deduplicates retries by ``(client_key, query)`` so duplicates never
   double-admit.
2. **packet corruption / erasure** -- the downlink flips or erases
   packets; with per-packet checksums (``SizeModel.checksum_bytes``)
   clients detect corruption and treat it exactly like a loss
   (:meth:`FaultPlan.channel_model`).
3. **server overload** -- some cycle builds are declared overloaded
   (:meth:`FaultPlan.overloaded`), exercising the server's degradation ladder (stale PCI, then unpruned
   CI) instead of stalling the channel.
4. **mid-cycle mutation races** -- documents are added to / removed from
   the live collection between resolution and the next build
   (:meth:`FaultPlan.mutation`), exercising cycle-cache invalidation.

Every decision hashes its coordinates into a fresh PRNG (the same
pattern as :class:`~repro.broadcast.loss.PacketLossModel`), so a plan is
a pure value: the same ``(plan, coordinates)`` always yields the same
fault, runs replay exactly, and two clients see independent channels.

Faults stop after :attr:`FaultPlan.fault_cycles` broadcast cycles, which
is what makes the chaos liveness monitor decidable: once the window has
passed, every admitted query must drain in a bounded number of clean
cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.broadcast.loss import PacketLossModel


@dataclass(frozen=True)
class UplinkOutcome:
    """Resolved fate of one client's submission under a fault plan.

    ``deliveries`` are the byte-times at which the server receives an
    attempt (duplicates included -- the dedup path exists for them);
    ``ack_time`` is when the client finally learns it was admitted and
    can start listening.  The last attempt is always delivered and
    acknowledged, so admission is guaranteed within
    ``retry_max_attempts`` tries (bounded liveness).
    """

    deliveries: Tuple[int, ...]
    ack_time: int
    attempts: int
    dropped_attempts: int
    lost_acks: int

    @property
    def duplicate_deliveries(self) -> int:
        return max(0, len(self.deliveries) - 1)


@dataclass(frozen=True)
class FaultPlan:
    """Everything a chaos run injects, as one deterministic value."""

    seed: int = 0
    #: faults are active on cycles ``[0, fault_cycles)``; ``None`` keeps
    #: them active forever (liveness is then only probabilistic).
    fault_cycles: Optional[int] = 8

    # -- 1. uplink ------------------------------------------------------
    #: probability one submit attempt never reaches the server
    uplink_drop_prob: float = 0.0
    #: probability the server's admission ACK is lost (the query *was*
    #: admitted; the client retries anyway -> duplicate delivery)
    uplink_ack_drop_prob: float = 0.0
    #: one-way uplink propagation delay (byte-time)
    uplink_delay_bytes: int = 0
    #: base of the exponential retry backoff (byte-time); attempt k waits
    #: ``backoff * 2**k`` plus jitter in ``[0, backoff)``
    retry_backoff_bytes: int = 256
    #: hard retry cap; the final attempt always succeeds end-to-end
    retry_max_attempts: int = 5

    # -- 2. downlink corruption / erasure -------------------------------
    #: per-packet corruption probability (detected via checksum)
    corrupt_prob: float = 0.0
    #: per-packet erasure probability (the PR-3 loss model, folded in)
    erase_prob: float = 0.0
    #: reserve a checksum byte per packet; required when corrupt_prob > 0
    #: (an unchecksummed client cannot detect corruption)
    checksum: bool = True

    # -- 3. server overload ---------------------------------------------
    #: probability a cycle build is declared overloaded while the fault
    #: window is active
    overload_prob: float = 0.0

    # -- 4. mid-cycle mutations -----------------------------------------
    #: probability a fresh document is injected before a cycle build
    doc_add_prob: float = 0.0
    #: probability an idle document is removed before a cycle build
    doc_remove_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "uplink_drop_prob",
            "uplink_ack_drop_prob",
            "corrupt_prob",
            "erase_prob",
            "overload_prob",
            "doc_add_prob",
            "doc_remove_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.fault_cycles is not None and self.fault_cycles < 0:
            raise ValueError("fault_cycles must be non-negative")
        if self.uplink_delay_bytes < 0 or self.retry_backoff_bytes < 0:
            raise ValueError("uplink delays must be non-negative")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be at least 1")
        if self.corrupt_prob > 0.0 and not self.checksum:
            raise ValueError(
                "corrupt_prob > 0 requires checksum=True: without a "
                "per-packet checksum a client cannot detect corruption"
            )

    # ------------------------------------------------------------------
    # Deterministic draws
    # ------------------------------------------------------------------

    def _rng(self, *coords: object) -> random.Random:
        return random.Random(
            ":".join(["faultplan", str(self.seed), *map(str, coords)])
        )

    def active(self, cycle_number: int) -> bool:
        """Is the fault window still open at this cycle?"""
        return self.fault_cycles is None or cycle_number < self.fault_cycles

    # -- uplink ---------------------------------------------------------

    def uplink_outcome(self, client_key: int, submit_time: int) -> UplinkOutcome:
        """Resolve the whole retry dialogue for one submission up front.

        The schedule is closed-form because every draw is deterministic:
        attempt ``k`` is sent, maybe dropped; a delivered attempt's ACK
        is maybe dropped; an un-ACKed client backs off exponentially
        (with jitter) and retries.  The final attempt is exempt from
        both drops, so the dialogue always terminates.
        """
        deliveries = []
        send_time = submit_time
        dropped = 0
        lost_acks = 0
        attempts = 0
        ack_time = submit_time
        for attempt in range(self.retry_max_attempts):
            attempts += 1
            last = attempt == self.retry_max_attempts - 1
            # A zero probability draws nothing (draws are keyed: none moves)
            request_dropped = (
                not last
                and self.uplink_drop_prob > 0.0
                and self._rng("uplink", client_key, attempt, "drop").random()
                < self.uplink_drop_prob
            )
            if request_dropped:
                dropped += 1
            else:
                delivery = send_time + self.uplink_delay_bytes
                deliveries.append(delivery)
                ack_dropped = (
                    not last
                    and self.uplink_ack_drop_prob > 0.0
                    and self._rng("uplink", client_key, attempt, "ack").random()
                    < self.uplink_ack_drop_prob
                )
                if not ack_dropped:
                    ack_time = delivery + self.uplink_delay_bytes
                    break
                lost_acks += 1
            # Exponential backoff + jitter before the next attempt: wait
            # out the round trip, then back off.
            jitter = (
                self._rng("uplink", client_key, attempt, "jitter").randrange(
                    self.retry_backoff_bytes
                )
                if self.retry_backoff_bytes
                else 0
            )
            send_time += (
                2 * self.uplink_delay_bytes
                + self.retry_backoff_bytes * (2**attempt)
                + jitter
            )
        return UplinkOutcome(
            deliveries=tuple(deliveries),
            ack_time=ack_time,
            attempts=attempts,
            dropped_attempts=dropped,
            lost_acks=lost_acks,
        )

    # -- downlink -------------------------------------------------------

    def channel_model(self) -> "FaultChannelModel":
        """The downlink erasure+corruption channel this plan describes."""
        return FaultChannelModel(
            loss_prob=self.erase_prob,
            seed=self.seed ^ 0x5EED,
            corrupt_prob=self.corrupt_prob,
            fault_cycles=self.fault_cycles,
        )

    # -- overload -------------------------------------------------------

    def overloaded(self, cycle_number: int) -> bool:
        """Forced-overload draw for one cycle build."""
        if self.overload_prob == 0.0 or not self.active(cycle_number):
            return False
        return self._rng("overload", cycle_number).random() < self.overload_prob

    # -- mutations ------------------------------------------------------

    def mutation(self, cycle_number: int) -> Optional[str]:
        """``"add"``, ``"remove"`` or ``None`` for this cycle build."""
        if not self.active(cycle_number):
            return None
        if (
            self.doc_add_prob > 0.0
            and self._rng("mutate", cycle_number, "add").random()
            < self.doc_add_prob
        ):
            return "add"
        if (
            self.doc_remove_prob > 0.0
            and self._rng("mutate", cycle_number, "remove").random()
            < self.doc_remove_prob
        ):
            return "remove"
        return None

    def with_(self, **overrides) -> "FaultPlan":
        """A modified copy (test helper)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class FaultChannelModel(PacketLossModel):
    """Erasure *and* corruption on the downlink, windowed by cycle.

    Implements the :class:`~repro.broadcast.loss.PacketLossModel`
    interface so every loss-aware client consumes it unchanged: a
    corrupted packet fails its checksum on read, which to the protocol
    is indistinguishable from an erasure -- both surface as
    ``packet_lost``.  Outside the fault window the channel is perfect.
    """

    corrupt_prob: float = 0.0
    fault_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.corrupt_prob < 1.0:
            raise ValueError("corrupt_prob must be in [0, 1)")

    @property
    def is_lossless(self) -> bool:
        return self.loss_prob == 0.0 and self.corrupt_prob == 0.0

    def _active(self, cycle_number: int) -> bool:
        return self.fault_cycles is None or cycle_number < self.fault_cycles

    def packet_lost(
        self, client_key: int, cycle_number: int, packet_index: int
    ) -> bool:
        if self.is_lossless or not self._active(cycle_number):
            return False
        coords = f"{self.seed}:{client_key}:{cycle_number}:{packet_index}"
        if random.Random(coords).random() < self.loss_prob:
            return True
        return (
            self.corrupt_prob > 0.0
            and random.Random(coords + ":crc").random() < self.corrupt_prob
        )

    def span_lost(
        self, client_key: int, cycle_number: int, start_packet: int, packet_count: int
    ) -> bool:
        if self.is_lossless or packet_count <= 0 or not self._active(cycle_number):
            return False
        rng = random.Random(
            f"{self.seed}:{client_key}:{cycle_number}:run:{start_packet}"
        )
        survive_one = (1.0 - self.loss_prob) * (1.0 - self.corrupt_prob)
        return rng.random() >= survive_one**packet_count


def default_fault_plan(seed: int = 0) -> FaultPlan:
    """The CLI's ``--faults`` plan: every injector on, at moderate rates."""
    return FaultPlan(
        seed=seed,
        fault_cycles=4,
        uplink_drop_prob=0.3,
        uplink_ack_drop_prob=0.2,
        uplink_delay_bytes=64,
        retry_backoff_bytes=256,
        retry_max_attempts=4,
        corrupt_prob=0.05,
        erase_prob=0.05,
        checksum=True,
        overload_prob=0.3,
        doc_add_prob=0.25,
        doc_remove_prob=0.25,
    )
