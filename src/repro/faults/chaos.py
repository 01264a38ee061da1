"""Chaos harness: the simulation under an active :class:`FaultPlan`.

:class:`ChaosSimulation` subclasses the fault-free orchestrator and
re-routes the three places faults enter the pipeline:

* **admission** -- instead of submitting a query the instant it arrives,
  the whole uplink retry dialogue is resolved against the plan
  (:meth:`~repro.faults.plan.FaultPlan.uplink_outcome`) and each
  delivery -- duplicates included -- is scheduled as its own event.  The
  server deduplicates by ``(client_key, query)``; the client starts
  listening only once its admission is acknowledged.
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

Document removals are *gated*: only documents no unsatisfied session
needs (not in any locked expected set, pending result set, or in-flight
query's resolution) are eligible.  An ungated removal could strand a
client whose locked expected set references a document that will never
air again -- a genuine unavailability, not a protocol bug, so the chaos
suite does not inject it.  A removal can still empty a *future* query's
result set before its delivery; the server then rejects the admission
(empty result) and the session is dropped as NACKed rather than counted
against liveness.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace
from typing import Dict, Optional, Sequence, Union

from repro import obs
from repro.broadcast.program import program_signature
from repro.obs.telemetry import EventLog, FlightRecorder, NullEventLog
from repro.obs.telemetry.flight import cycle_summary, recorded_events
from repro.client.protocol import FirstTierRead
from repro.client.twotier import TwoTierClient
from repro.faults.plan import FaultPlan, UplinkOutcome
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
    #: run may take to satisfy every session before liveness fails.
    #: Generous: a clean cycle airs up to the data capacity and the
    #: post-fault channel is perfect, so drains take a handful of cycles.
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
        # Recovery needs rebroadcast: the server must not assume
        # broadcast == received under erasures/corruption.
        self.server.acknowledged_delivery = True
        self.server.force_overload = plan.overloaded
        self._doc_generator = DocumentGenerator(
            BUILTIN_DTDS[config.dtd](), GeneratorConfig(seed=plan.seed ^ 0xD0C)
        )
        self._next_doc_id = max(self.store.by_id) + 1
        self._next_client_key = 0
        self._clean_cycles = 0
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

    def _admit(self, plan: ArrivalPlan) -> None:
        client_key = self._next_client_key
        self._next_client_key += 1
        if self.plan.active(self.server.cycle_number):
            outcome = self.plan.uplink_outcome(client_key, plan.arrival_time)
        else:
            # Fault window closed: the uplink is reliable and immediate.
            outcome = UplinkOutcome(
                deliveries=(plan.arrival_time,),
                ack_time=plan.arrival_time,
                attempts=1,
                dropped_attempts=0,
                lost_acks=0,
            )
        if self._queue.now > outcome.deliveries[0]:
            # Governor-deferred re-admission: the retry reaches the
            # uplink *now*, not at the original arrival stamp (the
            # engine rejects scheduling in the past).  Shift the whole
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
            registry.counter("sim.uplink_attempts_total").inc(outcome.attempts)
            registry.counter("sim.uplink_dropped_total").inc(
                outcome.dropped_attempts
            )
            registry.counter("sim.uplink_duplicates_total").inc(
                outcome.duplicate_deliveries
            )
        # The client exists from the start but can only listen once its
        # admission is acknowledged -- before the ACK it does not know the
        # server heard it, so it keeps retrying instead of tuning in.
        client = TwoTierClient(
            plan.query,
            outcome.ack_time,
            lookup_fn=self.audience.search,
            first_tier_read=self.first_tier_read,
            loss_model=self._loss_model,
            client_key=client_key,
        )
        session = _Session(plan=plan, clients=[client], two_tier=client)
        self.sessions.append(session)
        self.audience.admit(session.clients)
        obs.counter("sim.arrivals_total").inc()
        for delivery_time in outcome.deliveries:
            self._queue.schedule(
                delivery_time,
                lambda t=delivery_time: self._uplink_delivery(
                    session, client_key, t
                ),
                priority=0,
            )

    def _uplink_delivery(
        self, session: _Session, client_key: int, delivery_time: int
    ) -> None:
        """One (possibly duplicate) submit attempt reaches the server."""
        if session not in self.sessions:
            return  # NACKed earlier; late duplicates go nowhere
        try:
            pending = self.server.submit(
                session.plan.query, delivery_time, client_key=client_key
            )
        except ValueError:
            # A gated removal can still empty a query's result set before
            # its (delayed) delivery; the server NACKs the admission and
            # the session ends -- there is nothing left to broadcast.
            self.fault_stats["uplink_rejections"] += 1
            obs.counter("sim.uplink_rejections_total").inc()
            self.events.info(
                "chaos_uplink_rejected",
                query=str(session.plan.query),
                client_key=client_key,
                cycle=self.server.cycle_number,
            )
            self.sessions.remove(session)
            self.audience.drop(session.clients)
            return
        if session.pending is None:
            session.pending = pending

    # ------------------------------------------------------------------
    # Injection point 4: mid-cycle collection mutations
    # ------------------------------------------------------------------

    def _cycle_event(self) -> None:
        mode = self.plan.mutation(self.server.cycle_number)
        if mode == "add":
            if not self._admission_window_open():
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

    def _admission_window_open(self) -> bool:
        """True while some admitted query's client has not yet locked
        its expected set.

        The server resolves a query at admission; the client locks its
        expected set from the first index it decodes -- the *next*
        cycle's.  A document added inside that window appears in the
        client's snapshot but not the server's, so the client would
        wait forever for a document the server never owed it.  The
        protocol leaves mid-admission mutations undefined, so the
        harness holds the add for a cycle (mirroring how
        :meth:`_inject_remove` protects documents pending sessions
        still need)."""
        return any(
            session.pending is not None
            and not session.satisfied
            and any(
                client.expected_doc_ids is None
                for client in session.clients
            )
            for session in self.sessions
        )

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
        protected = set()
        in_flight = []
        for session in self.sessions:
            if session.satisfied:
                continue
            for client in session.clients:
                if client.expected_doc_ids:
                    protected |= client.expected_doc_ids
            if session.pending is not None:
                protected |= session.pending.result_doc_ids
                protected |= session.pending.remaining_doc_ids
            else:
                in_flight.append(session.plan.query)
        # Uplink still in flight: the query will resolve against the
        # post-removal collection, so protect what it would resolve to
        # *now* -- removing any of it could otherwise empty the result
        # set mid-dialogue.
        for result in self.server.resolve_batch(in_flight):
            protected |= result
        candidates = sorted(set(self.store.by_id) - protected)
        if not candidates or len(self.store.documents) <= 1:
            return
        rng = self.plan._rng("mutate-pick", cycle_number)
        removed = rng.choice(candidates)
        self.server.remove_document(removed)
        self.fault_stats["docs_removed"] += 1
        obs.counter("sim.chaos_mutations_total", kind="remove").inc()
        self.events.info(
            "chaos_mutation", kind="remove", doc_id=removed, cycle=cycle_number
        )

    # ------------------------------------------------------------------
    # Monitors
    # ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        cycle = self._current_cycle
        assert cycle is not None
        # A drained session's locked set was valid when served; ungated
        # removals afterwards cannot retroactively invalidate a completed
        # delivery.  The rest resolve through one shared pass.
        unsatisfied = [s for s in self.sessions if not s.satisfied]
        truths = self.server.resolve_batch([s.plan.query for s in unsatisfied])
        for session, truth in zip(unsatisfied, truths):
            for client in session.clients:
                expected = client.expected_doc_ids
                if expected is None:
                    if client.received_doc_ids:
                        raise ChaosInvariantError(
                            f"safety violated at cycle {cycle.cycle_number}: "
                            f"client for {session.plan.query} recorded "
                            f"{sorted(client.received_doc_ids)} without an "
                            "index read"
                        )
                    continue
                if not expected <= truth:
                    raise ChaosInvariantError(
                        f"safety violated at cycle {cycle.cycle_number}: "
                        f"client for {session.plan.query} expects "
                        f"{sorted(expected - truth)} outside the true "
                        "result set"
                    )
                if not client.received_doc_ids <= expected:
                    raise ChaosInvariantError(
                        f"safety violated at cycle {cycle.cycle_number}: "
                        f"client for {session.plan.query} recorded "
                        f"{sorted(client.received_doc_ids - expected)} it "
                        "never asked for"
                    )
        self.fault_stats["safety_checks"] += 1

        faults_over = not self.plan.active(cycle.cycle_number)
        uplink_drained = all(
            session.pending is not None for session in self.sessions
        )
        if faults_over and uplink_drained and self.workload.exhausted:
            self._clean_cycles += 1
            stuck = [s for s in self.sessions if not s.satisfied]
            if stuck and self._clean_cycles > self.liveness_grace:
                raise ChaosInvariantError(
                    f"liveness violated: {len(stuck)} session(s) still "
                    f"unsatisfied {self._clean_cycles} clean cycles after "
                    f"the fault window closed (first: {stuck[0].plan.query})"
                )
        else:
            self._clean_cycles = 0
