"""The adaptive broadcast controller (feedback control plane).

Closes the loop the ROADMAP's LiquidXML direction asks for: each cycle
the controller consumes one :class:`Observation` -- a deterministic
snapshot of the demand table and the cycle just aired -- and emits a
:class:`~repro.control.plan.CyclePlan` for the *next* cycle:

* **K controller** -- grow the data-channel count within
  ``[k_min, k_max]`` when the requested backlog exceeds the air capacity
  (queries are waiting longer than a cycle for their documents), shrink
  it when channels idle-pad (the longest channel dominates while the
  others wait) and the backlog would fit the smaller configuration.
  Cooldown cycles between changes provide hysteresis.
* **Policy-regret estimator** -- replays the cycle's actual schedule
  through every allocation policy counterfactually (the allocators are
  pure functions of the schedule + demand snapshot, so the replay is
  exact, not a model), estimates each policy's single-tuner access cost
  (conflicting documents defer a full pass, like the real client), and
  switches policy when the incumbent's regret exceeds a margin for
  ``POLICY_PATIENCE`` consecutive cycles.
* **Hot-set promotion** -- the most-demanded documents are promoted onto
  a fast-repeat channel (broadcast-disk style): the server re-airs them
  every cycle on a dedicated channel while the cold set rotates over the
  remaining channels.
* **Admission governor** -- under overload (backlog beyond
  ``SHED_BACKLOG_FACTOR`` times capacity) the plan raises ``shed``:
  admission paths answer cold queries with ``RETRY_AFTER`` instead of
  letting the pending queue melt down.

The controller is deterministic given the observation stream: no
wall-clock, no unseeded randomness (property-tested).  The simulator and
the live daemon both close the loop through
:meth:`AdaptiveController.step`, so a daemon run and its reference
simulation drive identical controllers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro import obs
from repro.broadcast.multichannel import (
    ALLOCATION_POLICIES,
    allocate_channels,
    check_channel_shape,
)
from repro.control.plan import ControlConfig, CyclePlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.broadcast.program import BroadcastCycle
    from repro.broadcast.server import BroadcastServer, DocumentStore

#: grow K when the requested backlog exceeds this multiple of the
#: current per-cycle air capacity (more demand than air time)
GROW_BACKLOG_FACTOR = 1.5
#: shrink K when the idle fraction of the data phase exceeds this
#: (channels padding air while the longest one finishes) ...
SHRINK_IDLE_FRAC = 0.35
#: ... and the backlog fits in this multiple of the *shrunk* capacity
SHRINK_BACKLOG_FACTOR = 0.9
#: switch allocation policy when the counterfactual regret (access cost
#: of the current policy vs the best policy on the same schedule)
#: exceeds this fraction ...
POLICY_SWITCH_MARGIN = 0.05
#: ... for this many consecutive cycles (anti-flapping patience)
POLICY_PATIENCE = 2
#: minimum distinct pending queries demanding a document before it
#: qualifies as hot
HOT_MIN_QUERIES = 3
#: shed cold queries when the backlog exceeds this multiple of the
#: current per-cycle air capacity (admission governor)
SHED_BACKLOG_FACTOR = 6.0
#: how many cycles a shed query is asked to stay away (RETRY_AFTER)
RETRY_AFTER_CYCLES = 1


@dataclass(frozen=True)
class Observation:
    """Everything the controller may look at after one cycle aired.

    A pure-data snapshot: building it never mutates the server, and two
    servers in identical states produce equal observations -- the
    foundation of the daemon/simulator determinism parity.
    """

    cycle_number: int
    #: configuration the cycle actually aired under
    num_channels: int
    allocation: str
    #: end of the cycle on the byte-time axis (the next build instant)
    now: int
    #: active pending queries at the cycle's end
    queue_depth: int
    #: total air bytes of the documents still demanded
    backlog_bytes: int
    #: mean byte-time the active queries have been waiting
    mean_wait: float
    #: the schedule the cycle aired, in broadcast order
    scheduled_doc_ids: Tuple[int, ...]
    #: per-channel used air bytes
    channel_spans: Tuple[int, ...]
    #: bytes shorter channels idled while the longest finished
    idle_padding_bytes: int
    #: whether this build ran the degradation ladder
    degraded: bool
    #: doc id -> ids of pending queries still missing it
    demand_sets: Mapping[int, FrozenSet[int]] = field(default_factory=dict)

    @property
    def data_span(self) -> int:
        """Air bytes of the longest data channel (the data-phase length)."""
        return max(self.channel_spans) if self.channel_spans else 0

    @property
    def idle_fraction(self) -> float:
        """Idle padding as a fraction of the total channel air time."""
        total = self.data_span * max(len(self.channel_spans), 1)
        return self.idle_padding_bytes / total if total else 0.0

    @classmethod
    def from_server(
        cls, server: "BroadcastServer", cycle: "BroadcastCycle"
    ) -> "Observation":
        """Snapshot *server* right after it emitted *cycle*.

        Shared by the simulator and the live daemon -- one construction
        path is what keeps their controllers in lockstep.
        """
        now = cycle.end_time
        active = server.active_pending(now)
        demand_sets = {
            doc_id: frozenset(q.query_id for q in queries_for)
            for doc_id, queries_for in server.demand.items_for(now)
        }
        backlog = sum(server.store.air_bytes(doc_id) for doc_id in demand_sets)
        waits = [now - q.arrival_time for q in active]
        return cls(
            cycle_number=cycle.cycle_number,
            num_channels=cycle.num_data_channels,
            allocation=cycle.allocation,
            now=now,
            queue_depth=len(active),
            backlog_bytes=backlog,
            mean_wait=sum(waits) / len(waits) if waits else 0.0,
            scheduled_doc_ids=tuple(cycle.doc_ids),
            channel_spans=cycle.channel_spans,
            idle_padding_bytes=cycle.idle_padding_bytes,
            degraded=cycle.degraded is not None,
            demand_sets=demand_sets,
        )


class AdaptiveController:
    """Deterministic feedback controller over the broadcast configuration."""

    def __init__(
        self,
        control: ControlConfig,
        store: "DocumentStore",
        *,
        cycle_data_capacity: int,
        base_channels: int = 1,
        base_allocation: str = "balanced",
    ) -> None:
        if cycle_data_capacity <= 0:
            raise ValueError("cycle_data_capacity must be positive")
        self.num_channels = min(max(base_channels, control.k_min), control.k_max)
        check_channel_shape(self.num_channels, base_allocation)
        self.control = control
        self.store = store
        self.cycle_data_capacity = cycle_data_capacity
        self.allocation = base_allocation
        self.hot_doc_ids: Tuple[int, ...] = ()
        self.shedding = False
        self._last_k_change_cycle: Optional[int] = None
        self._policy_regret_streak = 0
        self._regret_candidate: Optional[str] = None
        #: plain-int mirrors for telemetry (readable without a registry)
        self.plan_changes = 0
        self.shed_queries = 0
        self.k_changes = 0
        self.policy_switches = 0
        self.plans: List[CyclePlan] = []

    # ------------------------------------------------------------------
    # Control laws
    # ------------------------------------------------------------------

    def current_plan(self, cycle_number: int) -> CyclePlan:
        """The plan for *cycle_number* under the current controller state."""
        return CyclePlan(
            cycle_number=cycle_number,
            num_channels=self.num_channels,
            allocation=self.allocation,
            hot_doc_ids=self.hot_doc_ids,
            shed=self.shedding,
            reason=self.plans[-1].reason if self.plans else "initial",
        )

    def step(self, server: "BroadcastServer", cycle: "BroadcastCycle") -> CyclePlan:
        """One turn of the control loop, as the simulator and the live
        daemon both run it after *cycle* aired and its acknowledgements
        are in: observe *server*, decide, apply the plan to the next
        build.  Returns the plan now in force."""
        plan = self.observe(Observation.from_server(server, cycle))
        server.apply_plan(plan)
        return plan

    def observe(self, observation: Observation) -> CyclePlan:
        """Consume one cycle's observation; emit the next cycle's plan."""
        reasons: List[str] = []
        self._step_k(observation, reasons)
        self._step_policy(observation, reasons)
        self._step_hot_set(observation, reasons)
        self._step_governor(observation, reasons)
        plan = CyclePlan(
            cycle_number=observation.cycle_number + 1,
            num_channels=self.num_channels,
            allocation=self.allocation,
            hot_doc_ids=self.hot_doc_ids,
            shed=self.shedding,
            reason=";".join(reasons) if reasons else "steady",
        )
        if not self.plans or not self.plans[-1].same_shape(plan):
            self.plan_changes += 1
        self.plans.append(plan)
        registry = obs.get_registry()
        if registry.enabled:
            registry.gauge("control.num_channels").set(plan.num_channels)
            registry.gauge("control.hot_set_size").set(len(plan.hot_doc_ids))
            registry.gauge("control.shedding").set(1 if plan.shed else 0)
            registry.counter(
                "control.plans_total", policy=plan.allocation
            ).inc()
        return plan

    # K controller -----------------------------------------------------

    def _cooldown_ok(self, cycle_number: int) -> bool:
        last = self._last_k_change_cycle
        return last is None or cycle_number - last >= self.control.cooldown_cycles

    def _step_k(self, observation: Observation, reasons: List[str]) -> None:
        control = self.control
        capacity = self.cycle_data_capacity * self.num_channels
        if not self._cooldown_ok(observation.cycle_number):
            return
        if (
            self.num_channels < control.k_max
            and observation.backlog_bytes > GROW_BACKLOG_FACTOR * capacity
        ):
            # Proportional control: jump to the smallest K whose widened
            # capacity covers the backlog (one re-tune instead of a
            # +1-per-cycle ramp that bleeds access time under a step
            # load); cooldown hysteresis still bounds the change rate.
            target = self.num_channels + 1
            while (
                target < control.k_max
                and observation.backlog_bytes
                > GROW_BACKLOG_FACTOR
                * self.cycle_data_capacity
                * target
            ):
                target += 1
            self.num_channels = target
            self._last_k_change_cycle = observation.cycle_number
            self.k_changes += 1
            reasons.append(f"grow-k:{self.num_channels}")
            return
        if self.num_channels > control.k_min:
            shrunk_capacity = self.cycle_data_capacity * (self.num_channels - 1)
            if (
                observation.idle_fraction > SHRINK_IDLE_FRAC
                and observation.backlog_bytes
                <= SHRINK_BACKLOG_FACTOR * shrunk_capacity
            ):
                self.num_channels -= 1
                self._last_k_change_cycle = observation.cycle_number
                self.k_changes += 1
                reasons.append(f"shrink-k:{self.num_channels}")

    # Policy-regret estimator ------------------------------------------

    def _allocation_cost(
        self,
        schedule: Tuple[int, ...],
        policy: str,
        demand_sets: Mapping[int, FrozenSet[int]],
    ) -> int:
        """Counterfactual access cost of airing *schedule* under *policy*.

        Replays the allocator, then walks every pending query through a
        single-tuner pass simulation over the resulting channel layout:
        documents whose air intervals overlap an already-committed
        download on another channel defer a full extra pass (exactly the
        real client's conflict rule), and each extra pass costs the
        cycle span.  The summed per-query finish estimates -- not the
        raw makespan -- are what allocation actually buys the client
        population: a perfectly even packing that splits result sets
        across channels loses to a slightly taller one that co-locates
        them.
        """
        queues = allocate_channels(
            schedule, self.store, self.num_channels, policy, demand_sets
        )
        intervals: Dict[int, Tuple[int, int]] = {}
        span = 0
        for queue in queues:
            offset = 0
            for doc_id in queue:
                end = offset + self.store.air_bytes(doc_id)
                intervals[doc_id] = (offset, end)
                offset = end
            span = max(span, offset)
        by_query: Dict[int, List[int]] = {}
        for doc_id, query_ids in demand_sets.items():
            if doc_id in intervals:
                for query_id in query_ids:
                    by_query.setdefault(query_id, []).append(doc_id)
        total = 0
        for query_id in sorted(by_query):
            remaining = sorted(
                by_query[query_id], key=lambda doc_id: intervals[doc_id]
            )
            passes = 0
            finish = 0
            while remaining:
                clock = 0
                deferred: List[int] = []
                for doc_id in remaining:
                    start, end = intervals[doc_id]
                    if start >= clock:
                        clock = end
                    else:
                        deferred.append(doc_id)
                finish = passes * span + clock
                passes += 1
                remaining = deferred
            total += finish
        return total

    def _step_policy(self, observation: Observation, reasons: List[str]) -> None:
        if self.num_channels < 2 or len(observation.scheduled_doc_ids) < 2:
            self._policy_regret_streak = 0
            self._regret_candidate = None
            return
        costs: Dict[str, int] = {
            policy: self._allocation_cost(
                observation.scheduled_doc_ids, policy, observation.demand_sets
            )
            for policy in ALLOCATION_POLICIES
        }
        incumbent = costs[self.allocation]
        best_policy = min(
            ALLOCATION_POLICIES, key=lambda policy: (costs[policy], policy)
        )
        regret = incumbent - costs[best_policy]
        if (
            best_policy != self.allocation
            and incumbent > 0
            and regret > POLICY_SWITCH_MARGIN * incumbent
        ):
            if self._regret_candidate == best_policy:
                self._policy_regret_streak += 1
            else:
                self._regret_candidate = best_policy
                self._policy_regret_streak = 1
            if self._policy_regret_streak >= POLICY_PATIENCE:
                self.allocation = best_policy
                self.policy_switches += 1
                self._policy_regret_streak = 0
                self._regret_candidate = None
                reasons.append(f"switch-policy:{best_policy}")
        else:
            self._policy_regret_streak = 0
            self._regret_candidate = None

    # Hot-set promotion ------------------------------------------------

    def _step_hot_set(self, observation: Observation, reasons: List[str]) -> None:
        control = self.control
        if control.hot_set_size == 0 or self.num_channels < 2:
            if self.hot_doc_ids:
                reasons.append("demote-hot")
            self.hot_doc_ids = ()
            return
        ranked = sorted(
            (
                (len(queries), doc_id)
                for doc_id, queries in observation.demand_sets.items()
                if len(queries) >= HOT_MIN_QUERIES
            ),
            key=lambda item: (-item[0], item[1]),
        )
        hot = tuple(doc_id for _count, doc_id in ranked[: control.hot_set_size])
        if hot != self.hot_doc_ids:
            reasons.append(f"hot-set:{len(hot)}")
        self.hot_doc_ids = hot

    # Admission governor -----------------------------------------------

    def _step_governor(self, observation: Observation, reasons: List[str]) -> None:
        capacity = self.cycle_data_capacity * self.num_channels
        overloaded = (
            observation.backlog_bytes
            > SHED_BACKLOG_FACTOR * capacity
        )
        if overloaded != self.shedding:
            reasons.append("shed-on" if overloaded else "shed-off")
        self.shedding = overloaded

    def is_cold(self, result_doc_ids: FrozenSet[int]) -> bool:
        """Whether a query is *cold* for the admission governor.

        Hot queries -- those whose result set touches the promoted hot
        set, which re-airs every cycle anyway -- are always admitted;
        everyone else is cold and sheddable under overload.
        """
        return not (self.hot_doc_ids and set(self.hot_doc_ids) & result_doc_ids)

    def record_shed(self, count: int = 1) -> None:
        """Account *count* queries answered with ``RETRY_AFTER``."""
        self.shed_queries += count
        obs.counter("control.shed_queries_total").inc(count)
