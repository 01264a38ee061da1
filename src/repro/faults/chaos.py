"""Chaos harness: the simulation under an active :class:`FaultPlan`.

:class:`ChaosSimulation` subclasses the fault-free orchestrator and
re-routes the three places faults enter the pipeline:

* **admission** -- the shared batch admission asks the plan for each
  query's uplink retry dialogue (:meth:`~repro.faults.plan.FaultPlan.
  uplink_outcome`): a delivery due now joins the batch's submission, a
  later one (duplicates too) is its own event.  The server deduplicates
  by ``(client_key, query)``; the client listens once acknowledged.
* **downlink** -- every client is a
  :class:`~repro.client.twotier.TwoTierClient` on the plan's
  erasure+corruption channel; with ``FaultPlan.checksum`` the size model
  reserves a checksum byte per packet (charged to index/data overhead),
  which is what lets the client *detect* corruption at all.
* **cycle build** -- the server's ``force_overload`` is the plan's
  overload draw, and documents are added to / removed from the
  live collection between admissions and the next build
  (:meth:`~repro.faults.plan.FaultPlan.mutation`), exercising
  cycle-cache invalidation under load.

After every aired cycle two invariants are checked, and their violation
raises :class:`ChaosInvariantError` immediately (not at drain time, so
the failing cycle is in the error):

* **safety** -- no client ever locks an expected set outside its query's
  true result set over the live collection, and never records a document
  outside its expected set;
* **liveness** -- once the fault window has closed, all uplink dialogues
  have resolved and arrivals have stopped, every remaining session must
  drain within :attr:`ChaosSimulation.liveness_grace` clean cycles.

Both are checked by change: only sessions whose client read an index or
took a document this cycle (the audience's receipts), or expects a
removed document, and counters kept on admission and satisfaction
(``tests/faults/monitor_reference.py`` keeps the full sweep as oracle).

Document removals are *gated*: only documents no unsatisfied session
needs (in no locked expected set, pending result set or in-flight
query's resolution) are eligible -- an ungated removal would strand a
client on a document that never airs again, an unavailability, not a
protocol bug.  A removal can still empty a *future* query's result set;
the server then NACKs the admission and the session is dropped.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.broadcast.program import BroadcastCycle, program_signature
from repro.obs.telemetry import EventLog, FlightRecorder, NullEventLog
from repro.obs.telemetry.flight import cycle_summary, recorded_events
from repro.client.protocol import FirstTierRead
from repro.faults.plan import FaultPlan, UplinkOutcome
from repro.sim.audience import Receipt
from repro.sim.config import SimulationConfig
from repro.sim.simulation import Simulation, _Session
from repro.sim.workload import ArrivalPlan
from repro.xmlkit.generator import (
    BUILTIN_DTDS,
    DocumentGenerator,
    GeneratorConfig,
)
from repro.xmlkit.model import XMLDocument


class ChaosInvariantError(AssertionError):
    """A chaos run violated a safety or liveness invariant."""


class ChaosSimulation(Simulation):
    """One simulation run under an active fault plan, with monitors."""

    #: clean cycles (faults over, uplink drained, arrivals exhausted) a
    #: run may take to satisfy every session before liveness fails --
    #: generous, as a drain on the perfect post-fault channel is short.
    liveness_grace = 60

    def __init__(
        self,
        config: SimulationConfig,
        documents: Optional[Sequence[XMLDocument]] = None,
        first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
        events: Union[EventLog, NullEventLog, None] = None,
        flight: Optional[FlightRecorder] = None,
        flight_dir: Union[str, pathlib.Path, None] = None,
    ) -> None:
        plan = config.faults
        if plan is None:
            raise ValueError("ChaosSimulation needs SimulationConfig.faults")
        checksum_bytes = 1 if plan.checksum else 0
        if config.size_model.checksum_bytes != checksum_bytes:
            # The checksum trailer is part of the air program: reserving it
            # here (and only here) keeps the fault-free builder byte-exact.
            config = config.with_(
                size_model=replace(
                    config.size_model, checksum_bytes=checksum_bytes
                )
            )
        super().__init__(config, documents=documents, first_tier_read=first_tier_read)
        self.plan = plan
        self._loss_model = plan.channel_model()
        # Every client is two-tier: the plan's channel may erase or
        # corrupt, and the baselines are not loss-aware.
        self.lossy = True
        # Recovery needs rebroadcast: the server must not assume
        # broadcast == received under erasures/corruption.
        self.server.acknowledged_delivery = True
        self.server.force_overload = plan.overloaded
        self._doc_generator = DocumentGenerator(
            BUILTIN_DTDS[config.dtd](), GeneratorConfig(seed=plan.seed ^ 0xD0C)
        )
        self._next_doc_id = max(self.store.by_id) + 1
        self._clean_cycles = 0
        #: admitted sessions whose client has not read an index yet.  A
        #: document added now would be in the client's index but not in
        #: the result set the server resolved at admission -- owed to
        #: nobody, awaited forever -- so adds wait until it is empty.
        self._unlocked: Set[_Session] = set()
        #: unsatisfied sessions, in admission order
        self._open_sessions: Dict[_Session, None] = {}
        #: open sessions expecting more than their result set holds
        self._beyond_result: Set[_Session] = set()
        #: what changed since the last check
        self._receipts: List[Receipt] = []
        self._removed: List[int] = []
        # Telemetry (all optional, no-op by default).  The chaos path is
        # deterministic, so the event log gets NO clock: events carry
        # cycle numbers, never wall-clock timestamps.
        self.events = recorded_events(events, flight)
        self.flight = flight
        self.flight_dir = (
            pathlib.Path(flight_dir) if flight_dir is not None else None
        )
        if self.flight is not None:
            self.flight.context.update(
                {
                    "harness": "chaos",
                    "documents": len(self.store.documents),
                    "fault_seed": plan.seed,
                    "fault_cycles": plan.fault_cycles,
                    "scheme": config.scheme.value,
                }
            )
        #: plain-int injection/recovery tallies for tests and the CLI
        self.fault_stats: Dict[str, int] = {
            "uplink_attempts": 0,
            "uplink_dropped": 0,
            "uplink_lost_acks": 0,
            "uplink_duplicates": 0,
            "uplink_rejections": 0,
            "docs_added": 0,
            "docs_removed": 0,
            "safety_checks": 0,
        }

    # ------------------------------------------------------------------
    # Injection point 1: the uplink
    # ------------------------------------------------------------------

    def _uplink(
        self, plan: ArrivalPlan, client_key: int
    ) -> Tuple[Tuple[int, ...], int]:
        if self.plan.active(self.server.cycle_number):
            outcome = self.plan.uplink_outcome(client_key, plan.arrival_time)
        else:
            # Fault window closed: the uplink is reliable and immediate.
            outcome = UplinkOutcome((plan.arrival_time,), plan.arrival_time, 1, 0, 0)
        if self._queue.now > outcome.deliveries[0]:
            # Governor-deferred re-admission reaches the uplink *now* (the
            # engine rejects scheduling in the past): shift the whole
            # replayed schedule forward, preserving the fault pattern.
            delta = self._queue.now - outcome.deliveries[0]
            outcome = replace(
                outcome,
                deliveries=tuple(t + delta for t in outcome.deliveries),
                ack_time=outcome.ack_time + delta,
            )
        stats = self.fault_stats
        stats["uplink_attempts"] += outcome.attempts
        stats["uplink_dropped"] += outcome.dropped_attempts
        stats["uplink_lost_acks"] += outcome.lost_acks
        stats["uplink_duplicates"] += outcome.duplicate_deliveries
        if outcome.attempts > 1 or outcome.duplicate_deliveries:
            self.events.debug(
                "chaos_uplink_faulted",
                query=str(plan.query),
                client_key=client_key,
                attempts=outcome.attempts,
                dropped=outcome.dropped_attempts,
                lost_acks=outcome.lost_acks,
                duplicates=outcome.duplicate_deliveries,
            )
        registry = obs.get_registry()
        if registry.enabled:
            for name, count in (
                ("attempts", outcome.attempts),
                ("dropped", outcome.dropped_attempts),
                ("duplicates", outcome.duplicate_deliveries),
            ):
                registry.counter(f"sim.uplink_{name}_total").inc(count)
        # The client listens only once acknowledged: before the ACK it
        # does not know the server heard it, so it retries instead.
        return outcome.deliveries, outcome.ack_time

    def _open(self, plan: ArrivalPlan, ack_time: int, client_key: int) -> _Session:
        session = super()._open(plan, ack_time, client_key)
        self._open_sessions[session] = None
        return session

    def _submit(self, sessions: Sequence[_Session], delivery_time: int) -> None:
        unheard = [session for session in sessions if session.pending is None]
        super()._submit(sessions, delivery_time)
        self._unlocked.update(s for s in unheard if s.pending is not None)

    def _reject(self, session: _Session) -> None:
        # A gated removal can still empty a query's result set before its
        # (delayed) delivery: the server NACKs and the session ends.
        self.fault_stats["uplink_rejections"] += 1
        obs.counter("sim.uplink_rejections_total").inc()
        self.events.info(
            "chaos_uplink_rejected",
            query=str(session.plan.query),
            client_key=session.client_key,
            cycle=self.server.cycle_number,
        )
        session.rejected = True
        del self._open_sessions[session]
        self.sessions.remove(session)  # by identity
        self.audience.drop(session.clients)

    def _acknowledge(self, cycle: BroadcastCycle, receipts: List[Receipt]) -> None:
        super()._acknowledge(cycle, receipts)
        self._receipts = receipts

    # ------------------------------------------------------------------
    # Injection point 4: mid-cycle collection mutations
    # ------------------------------------------------------------------

    def _cycle_event(self) -> None:
        mode = self.plan.mutation(self.server.cycle_number)
        if mode == "add":
            if not self._unlocked:
                self._inject_add()
        elif mode == "remove":
            self._inject_remove(self.server.cycle_number)
        built_before = self.server.cycle_number
        super()._cycle_event()
        if self.server.cycle_number > built_before:
            if self.flight is not None and self._current_cycle is not None:
                cycle = self._current_cycle
                self.flight.record_cycle(
                    cycle_summary(
                        cycle, self.server, signature=program_signature(cycle)
                    )
                )
            try:
                self._check_invariants()
            except ChaosInvariantError as exc:
                self.events.error(
                    "chaos_invariant_violated",
                    error=str(exc),
                    cycle=self.server.cycle_number,
                )
                if self.flight is not None and self.flight_dir is not None:
                    self.flight.dump(self.flight_dir, "chaos-invariant")
                raise

    def _inject_add(self) -> None:
        document = self._doc_generator.generate(self._next_doc_id)
        self._next_doc_id += 1
        self.server.add_document(document)
        self.fault_stats["docs_added"] += 1
        obs.counter("sim.chaos_mutations_total", kind="add").inc()
        self.events.info(
            "chaos_mutation",
            kind="add",
            doc_id=document.doc_id,
            cycle=self.server.cycle_number,
        )

    def _inject_remove(self, cycle_number: int) -> None:
        """Remove one document no unsatisfied session still needs."""
        candidates = self._removable()
        if not candidates or len(self.store.documents) <= 1:
            return
        rng = self.plan._rng("mutate-pick", cycle_number)
        removed = rng.choice(candidates)
        self.server.remove_document(removed)
        self._removed.append(removed)
        self.fault_stats["docs_removed"] += 1
        obs.counter("sim.chaos_mutations_total", kind="remove").inc()
        self.events.info(
            "chaos_mutation", kind="remove", doc_id=removed, cycle=cycle_number
        )

    def _removable(self) -> List[int]:
        """The removal gate: documents no unsatisfied session needs.  An
        admitted one needs its result set, which holds its remaining set
        and (unless the monitor found otherwise) its expected set."""
        needed: Dict[int, FrozenSet[int]] = {}
        in_flight = []
        for session in self._open_sessions:
            if session.pending is not None:
                result = session.pending.result_doc_ids
                needed[id(result)] = result
            else:
                in_flight.append(session.plan.query)
        for session in self._beyond_result:
            for client in session.clients:
                expected = client.expected_doc_ids
                needed[id(expected)] = expected
        protected: Set[int] = set().union(*needed.values())
        # Uplink still in flight: the query will resolve against the
        # post-removal collection, so protect what it resolves to *now*,
        # lest a removal empty its result set mid-dialogue.
        for result in self.server.resolve_batch(in_flight):
            protected |= result
        return sorted(set(self.store.by_id) - protected)

    # ------------------------------------------------------------------
    # Monitors
    # ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        cycle = self._current_cycle
        assert cycle is not None
        # Safety can only break for a session whose client read an index
        # or took a document this cycle, or whose locked expected set
        # holds a removed document; those re-check the expected set.  A
        # chaos session's one client is its two-tier client.
        receipts, acknowledger = self._receipts, self._acknowledger
        changed = dict.fromkeys(acknowledger[c] for cs, _ in receipts for c in cs)
        removed, recheck = set(self._removed), set()
        for session in self._open_sessions if removed else ():
            if not removed.isdisjoint(session.two_tier.expected_doc_ids or ()):
                recheck.add(session)
                changed[session] = None
        self._receipts, self._removed = [], []
        unsafe = f"safety violated at cycle {cycle.cycle_number}: client for "
        # In admission order; a drained session's locked set was valid
        # when served, and later removals cannot invalidate that.
        for session in sorted(changed, key=attrgetter("client_key")):
            query = session.plan.query
            expected = session.two_tier.expected_doc_ids
            received = session.two_tier.received_doc_ids
            if expected is None:
                if received:
                    raise ChaosInvariantError(
                        f"{unsafe}{query} recorded {sorted(received)} "
                        "without an index read"
                    )
                continue
            if session in self._unlocked:  # its first index read
                self._unlocked.discard(session)
                recheck.add(session)
            if received >= expected:  # satisfied
                self._open_sessions.pop(session, None)
                self._beyond_result.discard(session)
                continue
            # The admission-time result set, less removed documents, lies in
            # the truth (documents never change): inside it, no resolution.
            assert session.pending is not None  # it listens: admitted
            if session in recheck and not expected <= session.pending.result_doc_ids:
                self._beyond_result.add(session)
                truth = self.server.resolve(query)
                if not expected <= truth:
                    raise ChaosInvariantError(
                        f"{unsafe}{query} expects {sorted(expected - truth)} "
                        "outside the true result set"
                    )
            if not received <= expected:
                raise ChaosInvariantError(
                    f"{unsafe}{query} recorded {sorted(received - expected)} "
                    "it never asked for"
                )
        self.fault_stats["safety_checks"] += 1

        faults_over = not self.plan.active(cycle.cycle_number)
        clean = faults_over and self.workload.exhausted and all(
            session.pending is not None for session in self._open_sessions
        )  # and every uplink dialogue resolved
        if clean:
            self._clean_cycles += 1
            stuck = self._open_sessions
            if stuck and self._clean_cycles > self.liveness_grace:
                raise ChaosInvariantError(
                    f"liveness violated: {len(stuck)} session(s) still "
                    f"unsatisfied {self._clean_cycles} clean cycles after "
                    f"the fault window closed (first: "
                    f"{next(iter(stuck)).plan.query})"
                )
        else:
            self._clean_cycles = 0
