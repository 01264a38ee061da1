"""The end-to-end simulation orchestrator.

One run wires together every subsystem: the DTD-driven collection, the
query workload, the broadcast server (filtering, CI/PCI construction,
scheduling, cycle assembly) and one client *per protocol per query*
consuming the cycles.  Both index schemes are accounted on the **same**
document schedule, mirroring the paper's observation that document
broadcast is index-independent -- so one run yields both the one-tier and
two-tier curves of Figure 11.

The discrete-event engine drives two event types:

* ``arrival`` -- a query reaches the server's uplink queue;
* ``cycle`` -- the server assembles and broadcasts the next cycle; the
  event then delivers the cycle to the :class:`~repro.sim.audience.
  Audience`, spawns the next cycle event at the cycle's end time (cycles
  are back-to-back while queries are pending) and draws the arrivals
  occurring during the cycle's broadcast span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.broadcast.program import BroadcastCycle
from repro.broadcast.scheduling import make_scheduler
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.broadcast.server import PendingQuery
from repro.client.naive import NaiveClient
from repro.client.onetier import OneTierClient
from repro.client.protocol import AccessProtocol, FirstTierRead
from repro.client.twotier import TwoTierClient
from repro.control.controller import RETRY_AFTER_CYCLES
from repro.sim.audience import Audience, Receipt
from repro.sim.config import SimulationConfig
from repro.sim.engine import EventQueue
from repro.sim.results import ClientRecord, SimulationResult
from repro.sim.workload import ArrivalPlan, WorkloadBuilder
from repro.xmlkit.generator import (
    BUILTIN_DTDS,
    GeneratorConfig,
    generate_collection,
)
from repro.xmlkit.model import XMLDocument

if TYPE_CHECKING:  # pragma: no cover - layering guard (control is opt-in)
    from repro.control import AdaptiveController


def build_collection(config: SimulationConfig) -> List[XMLDocument]:
    """The document collection a configuration describes.

    With ``num_shards``/``shard_index`` set, the full seeded collection
    is generated and then filtered to the configured shard's slice of
    the :class:`~repro.broadcast.partition.PartitionMap` -- every worker
    (and every per-shard reference simulation) derives its sub-collection
    from the same deterministic whole.
    """
    documents = generate_collection(
        BUILTIN_DTDS[config.dtd](),
        config.document_count,
        config=GeneratorConfig(seed=config.collection_seed),
    )
    return config.shard_documents(documents)


def make_server(config: SimulationConfig, store: DocumentStore) -> BroadcastServer:
    """The broadcast server a configuration describes.

    One construction path shared by the simulator and the live daemon
    (:class:`~repro.net.daemon.BroadcastDaemon`): identical scheduler,
    scheme, capacity, caches and acknowledged-delivery wiring, which is
    what makes daemon runs differentially comparable to simulator runs.
    """
    return BroadcastServer(
        store=store,
        scheduler=make_scheduler(config.scheduler, store),
        scheme=config.scheme,
        cycle_data_capacity=config.cycle_data_capacity,
        acknowledged_delivery=config.needs_acknowledged_delivery,
        num_data_channels=config.num_data_channels,
        channel_allocation=config.channel_allocation,
    )


def make_controller(
    config: SimulationConfig, store: DocumentStore
) -> Optional["AdaptiveController"]:
    """The adaptive controller a configuration describes, or ``None``.

    Like :func:`make_server`, one construction path shared by the
    simulator and the live daemon: both drive controllers with identical
    knobs, base configuration and capacity, so the same observation
    stream yields the same plan stream.
    """
    if not config.adaptive:
        return None
    from repro.control import AdaptiveController

    return AdaptiveController(
        config.control_config,
        store,
        cycle_data_capacity=config.cycle_data_capacity,
        base_channels=config.num_data_channels,
        base_allocation=config.channel_allocation,
    )


@dataclass(eq=False)  # a session is itself: found by identity, never by value
class _Session:
    """All protocol instances serving one arrived query."""

    plan: ArrivalPlan
    clients: List[AccessProtocol]
    #: the one of ``clients`` whose received set is acknowledged to the
    #: server under acknowledged delivery, so erased frames and
    #: conflict-deferred documents stay scheduled
    two_tier: TwoTierClient
    #: the uplink key the server deduplicates the admission by
    client_key: int
    pending: Optional["PendingQuery"] = None
    #: the server refused the admission; the session is gone
    rejected: bool = False

    @property
    def satisfied(self) -> bool:
        return all(client.satisfied for client in self.clients)


class Simulation:
    """One configured run of the broadcast system."""

    def __init__(
        self,
        config: SimulationConfig,
        documents: Optional[Sequence[XMLDocument]] = None,
        first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
    ) -> None:
        self.config = config
        self.documents = list(documents) if documents else build_collection(config)
        self.store = DocumentStore(self.documents, size_model=config.size_model)
        self.lossy = config.loss_prob > 0.0
        self.server = make_server(config, self.store)
        #: adaptive control plane; ``None`` for static runs
        self.controller = make_controller(config, self.store)
        self._loss_model = (
            PacketLossModel(
                loss_prob=config.loss_prob, seed=config.query_seed ^ 0xBADF
            )
            if self.lossy
            else LOSSLESS
        )
        self.workload = WorkloadBuilder(self.documents, config)
        self.first_tier_read = first_tier_read
        self.sessions: List[_Session] = []
        #: each session's two-tier client -> the session it acknowledges for
        self._acknowledger: Dict[AccessProtocol, _Session] = {}
        self._next_client_key = 0
        #: every client still listening, as one table
        self.audience = Audience()
        self._queue = EventQueue()
        self._current_cycle: Optional[BroadcastCycle] = None

    # ------------------------------------------------------------------
    # Event bodies
    # ------------------------------------------------------------------

    def _uplink(
        self, plan: ArrivalPlan, client_key: int
    ) -> Tuple[Tuple[int, ...], int]:
        """When *plan*'s submission reaches the server (every delivery,
        duplicates included) and when its client hears the admission
        acknowledged.  The simulator's uplink is reliable and instant."""
        return (plan.arrival_time,), plan.arrival_time

    def _admit_batch(self, plans: Sequence[ArrivalPlan], retries: int = 0) -> None:
        due: Dict[int, List[_Session]] = {}  # submission time -> sessions
        for plan in plans:
            if self._shed(plan, retries):
                continue
            client_key = self._next_client_key
            self._next_client_key += 1
            deliveries, ack_time = self._uplink(plan, client_key)
            session = self._open(plan, ack_time, client_key)
            for attempt, delivery_time in enumerate(deliveries):
                if not attempt and delivery_time <= self._queue.now:
                    due.setdefault(delivery_time, []).append(session)
                    continue
                self._queue.schedule(
                    delivery_time,
                    lambda s=session, t=delivery_time: self._submit([s], t),
                    priority=0,
                )
        for delivery_time, sessions in due.items():
            self._submit(sessions, delivery_time)

    def _open(self, plan: ArrivalPlan, ack_time: int, client_key: int) -> _Session:
        """A new session for *plan*, listening from *ack_time*."""
        two_tier = TwoTierClient(
            plan.query,
            ack_time,
            lookup_fn=self.audience.search,
            first_tier_read=self.first_tier_read,
            loss_model=self._loss_model,
            client_key=client_key,
        )
        clients: List[AccessProtocol] = [two_tier]
        if not self.lossy:
            # The baselines are not loss-aware: they ride along only on a
            # reliable channel (see SimulationConfig.loss_prob).
            clients = [
                OneTierClient(
                    plan.query, plan.arrival_time, lookup_fn=self.audience.search
                ),
                two_tier,
            ]
            if self.config.track_naive_baseline:
                clients.append(
                    NaiveClient(
                        plan.query,
                        plan.arrival_time,
                        self.server.resolve(plan.query),
                    )
                )
        session = _Session(
            plan=plan, clients=clients, two_tier=two_tier, client_key=client_key
        )
        self.sessions.append(session)
        self._acknowledger[two_tier] = session
        self.audience.admit(clients)
        obs.counter("sim.arrivals_total").inc()
        return session

    def _submit(self, sessions: Sequence[_Session], delivery_time: int) -> None:
        """Submissions of *sessions* reach the server at *delivery_time*:
        one batch admission, retries deduplicated by client key."""
        live = [session for session in sessions if not session.rejected]
        admitted = self.server.submit_batch(
            [session.plan.query for session in live],
            delivery_time,
            client_keys=[session.client_key for session in live],
        )
        for session, result in zip(live, admitted):
            if result.pending is None:
                self._reject(session)
            elif not result.duplicate:
                session.pending = result.pending

    def _reject(self, session: _Session) -> None:
        """The server refuses a query with an empty result set."""
        raise ValueError(f"query {session.plan.query} has an empty result set")

    #: deferral cap of the admission governor: a thrice-shed query is
    #: admitted regardless, so overload never starves anyone forever
    _MAX_SHED_RETRIES = 3

    def _shed(self, plan: ArrivalPlan, retries: int) -> bool:
        """Admission governor: defer a cold arrival under overload.

        The simulator's analogue of the daemon's ``RETRY_AFTER`` answer:
        instead of being admitted now, the arrival is rescheduled
        ``RETRY_AFTER_CYCLES`` cycle spans later (the client keeps its
        true ``arrival_time``, so the deferral is fully charged to its
        access time).  Returns True when the plan was deferred.
        """
        if (
            self.controller is None
            or retries >= self._MAX_SHED_RETRIES
            or self._current_cycle is None
            or not self.controller.sheds(lambda: self.server.resolve(plan.query))
        ):
            return False
        span = self._current_cycle.end_time - self._current_cycle.start_time
        retry_time = (
            max(self.server.clock, plan.arrival_time)
            + span * RETRY_AFTER_CYCLES
        )
        self._queue.schedule(
            retry_time,
            lambda p=plan, r=retries + 1: self._admit_batch([p], retries=r),
            priority=0,
        )
        return True

    def _schedule_arrivals(self, plans: Sequence[ArrivalPlan]) -> None:
        # One shared-NFA walk resolves the whole arrival window; each
        # admission then hits the server's resolution cache, whose
        # entries follow any mutation in between by its delta.  Plans
        # arrive sorted by arrival_time (workload contract), so groupby
        # batches are maximal; admission order within a batch is kept.
        self.server.resolve_batch([plan.query for plan in plans])
        for _time, group in itertools.groupby(plans, key=lambda p: p.arrival_time):
            batch = list(group)
            # priority 0: arrivals at time T run before the cycle event at
            # time T (priority 1), so a cycle built at T serves them.
            self._queue.schedule(
                batch[0].arrival_time,
                lambda b=batch: self._admit_batch(b),
                priority=0,
            )

    def _cycle_event(self) -> None:
        now = self._queue.now
        cycle = self.server.build_cycle(now)
        if cycle is None:
            # Idle: nothing pending right now.  If arrivals are still
            # scheduled, resume cycling right after the next one lands.
            next_time = self._queue.next_event_time()
            if next_time is not None:
                self._queue.schedule(next_time, self._cycle_event, priority=1)
            return
        self._record_cycle(cycle)
        self._current_cycle = cycle
        self._deliver(cycle)
        self._schedule_arrivals(
            self.workload.arrivals_during(cycle.start_time, cycle.end_time)
        )
        if self.controller is not None:
            # Close the control loop after delivery/acknowledgement, so
            # the observation sees the post-ACK demand table (what is
            # genuinely still missing).
            self.controller.step(self.server, cycle)
        if self.server.cycle_number < self.config.max_cycles:
            self._queue.schedule(cycle.end_time, self._cycle_event, priority=1)
        else:
            self._truncated = True

    def _deliver(self, cycle: BroadcastCycle) -> None:
        receipts: Optional[List[Receipt]] = (
            [] if self.server.acknowledged_delivery else None
        )
        with obs.span("sim.deliver"):
            self.audience.deliver(cycle, self._loss_model.is_lossless, receipts)
        if receipts is not None:
            self._acknowledge(cycle, receipts)

    def _acknowledge(self, cycle: BroadcastCycle, receipts: List[Receipt]) -> None:
        """Uplink acknowledgements: the server learns what actually
        arrived, so erased frames (lossy runs) or conflict-deferred
        documents (multi-channel runs) get rebroadcast.  A receipt's
        sessions are confirmed together; a client that took nothing new
        has nothing to acknowledge."""
        for clients, received in receipts:
            if not received:
                continue
            pendings = [
                session.pending
                for session in map(self._acknowledger.get, clients)
                if session is not None
                and session.pending is not None
                and not session.pending.is_satisfied
            ]
            if pendings:
                self.server.confirm_delivery(pendings, received, cycle)

    def _record_cycle(self, cycle: BroadcastCycle) -> None:
        """Per-cycle hook, once per aired cycle before delivery; the
        cycle's record is ``self.server.records[-1]``."""
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge("sim.pending_queries").set(len(self.server.pending))
            registry.gauge("sim.active_sessions").set(
                sum(1 for s in self.sessions if not s.satisfied)
            )

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        self._truncated = False
        with obs.span("sim.run"):
            self._schedule_arrivals(self.workload.initial_batch())
            # Cycle events run after same-time arrivals (priority 1 > 0).
            self._queue.schedule(0, self._cycle_event, priority=1)
            self._queue.run()
        self.audience.flush()  # a truncated run's listeners keep their sums

        result = SimulationResult(
            collection_bytes=self.store.total_data_bytes(),
            document_count=len(self.documents),
            cycles=list(self.server.records),
            completed=not self._truncated,
        )
        for session in self.sessions:
            for client in session.clients:
                if not client.metrics.is_complete:
                    result.completed = False
                    continue
                result.clients.append(
                    ClientRecord.from_metrics(
                        query_text=str(session.plan.query),
                        protocol=client.protocol_name,
                        metrics=client.metrics,
                    )
                )
        registry = obs.get_registry()
        if registry.enabled:
            result.metrics = registry.snapshot()
        return result


def run_simulation(
    config: SimulationConfig,
    documents: Optional[Sequence[XMLDocument]] = None,
    first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
) -> SimulationResult:
    """Convenience wrapper: configure, run, return the result.

    A configuration with a :class:`~repro.faults.plan.FaultPlan` routes
    through :class:`~repro.faults.chaos.ChaosSimulation` (fault injection
    plus per-cycle safety/liveness monitors).
    """
    if config.faults is not None:
        from repro.faults.chaos import ChaosSimulation

        return ChaosSimulation(
            config, documents=documents, first_tier_read=first_tier_read
        ).run()
    return Simulation(config, documents=documents, first_tier_read=first_tier_read).run()
