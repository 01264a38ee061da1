"""Control laws of the adaptive broadcast controller.

Observations here are synthetic (plain :class:`Observation` records), so
each law is pinned in isolation; the end-to-end loop against a real
server runs in ``tests/integration/test_adaptive_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.broadcast.server import DocumentStore
from repro.control import AdaptiveController, ControlConfig, Observation


@pytest.fixture(scope="module")
def store(nitf_docs):
    return DocumentStore(nitf_docs[:20])


CAPACITY = 1_000


def make_controller(store, control=None, *, base_channels=1, **kwargs):
    return AdaptiveController(
        control or ControlConfig(),
        store,
        cycle_data_capacity=CAPACITY,
        base_channels=base_channels,
        **kwargs,
    )


def observation(
    cycle: int,
    *,
    k: int = 1,
    policy: str = "balanced",
    backlog: int = 0,
    spans: Tuple[int, ...] = (CAPACITY,),
    idle: int = 0,
    scheduled: Tuple[int, ...] = (),
    demand: Dict[int, frozenset] = None,
) -> Observation:
    return Observation(
        cycle_number=cycle,
        num_channels=k,
        allocation=policy,
        now=(cycle + 1) * CAPACITY,
        queue_depth=len(demand or {}),
        backlog_bytes=backlog,
        mean_wait=0.0,
        scheduled_doc_ids=scheduled,
        channel_spans=spans,
        idle_padding_bytes=idle,
        degraded=False,
        demand_sets=demand or {},
    )


class TestKController:
    def test_grows_on_backlog(self, store):
        controller = make_controller(store)
        plan = controller.observe(observation(0, backlog=2 * CAPACITY))
        assert plan.num_channels == 2
        assert "grow-k:2" in plan.reason
        assert controller.k_changes == 1

    def test_grow_is_proportional_to_backlog(self, store):
        """A step load jumps K straight to the covering width -- one
        re-tune, not a +1-per-cycle ramp."""
        controller = make_controller(store)
        plan = controller.observe(observation(0, backlog=10 * CAPACITY))
        assert plan.num_channels == 4  # k_max caps the jump
        assert controller.k_changes == 1

    def test_cooldown_blocks_consecutive_changes(self, store):
        controller = make_controller(store)
        controller.observe(observation(0, backlog=2 * CAPACITY))
        # 2x the widened capacity again -- but the cooldown holds.
        plan = controller.observe(observation(1, backlog=4 * CAPACITY))
        assert plan.num_channels == 2  # cooldown_cycles=2 holds the line
        plan = controller.observe(observation(2, backlog=4 * CAPACITY))
        assert plan.num_channels == 3

    def test_band_is_respected(self, store):
        control = ControlConfig(k_min=1, k_max=2, cooldown_cycles=0)
        controller = make_controller(store, control)
        for cycle in range(5):
            plan = controller.observe(
                observation(cycle, backlog=100 * CAPACITY)
            )
        assert plan.num_channels == 2

    def test_shrinks_on_idle_when_backlog_fits(self, store):
        controller = make_controller(store, base_channels=2)
        plan = controller.observe(
            observation(
                0,
                k=2,
                backlog=CAPACITY // 2,
                spans=(CAPACITY, 100),
                idle=CAPACITY - 100,  # idle fraction 0.45 > 0.35
            )
        )
        assert plan.num_channels == 1
        assert "shrink-k:1" in plan.reason

    def test_no_shrink_when_backlog_would_not_fit(self, store):
        controller = make_controller(store, base_channels=2)
        plan = controller.observe(
            observation(
                0,
                k=2,
                backlog=2 * CAPACITY,  # > 0.9 x shrunk capacity
                spans=(CAPACITY, 100),
                idle=CAPACITY - 100,
            )
        )
        assert plan.num_channels == 2

    def test_base_channels_clamped_into_band(self, store):
        control = ControlConfig(k_min=2, k_max=3)
        controller = make_controller(store, control, base_channels=1)
        assert controller.num_channels == 2


class _ScriptedCosts(AdaptiveController):
    """Override the counterfactual replay with scripted outcomes."""

    script: Dict[str, int] = {}

    def _allocation_cost(self, schedule, policy, demand_sets):
        return self.script[policy]


class TestPolicyRegret:
    def make(self, store, control=None):
        controller = _ScriptedCosts(
            control or ControlConfig(),
            store,
            cycle_data_capacity=CAPACITY,
            base_channels=2,
        )
        return controller

    def test_switches_after_patience(self, store):
        controller = self.make(store)
        controller.script = {"balanced": 100, "demand": 50, "round-robin": 90}
        first = controller.observe(observation(0, k=2, scheduled=(1, 2, 3)))
        assert first.allocation == "balanced"  # patience=2: not yet
        second = controller.observe(observation(1, k=2, scheduled=(1, 2, 3)))
        assert second.allocation == "demand"
        assert "switch-policy:demand" in second.reason
        assert controller.policy_switches == 1

    def test_one_regret_cycle_does_not_flap(self, store):
        controller = self.make(store)
        controller.script = {"balanced": 100, "demand": 50, "round-robin": 90}
        controller.observe(observation(0, k=2, scheduled=(1, 2, 3)))
        controller.script = {"balanced": 50, "demand": 50, "round-robin": 90}
        plan = controller.observe(observation(1, k=2, scheduled=(1, 2, 3)))
        assert plan.allocation == "balanced"
        assert controller.policy_switches == 0

    def test_margin_filters_small_regret(self, store):
        controller = self.make(store)
        controller.script = {"balanced": 100, "demand": 97, "round-robin": 99}
        for cycle in range(4):
            plan = controller.observe(
                observation(cycle, k=2, scheduled=(1, 2, 3))
            )
        assert plan.allocation == "balanced"  # 3% < 5% margin

    def test_inactive_below_two_channels(self, store):
        controller = self.make(store)
        controller.num_channels = 1
        controller.script = {}
        plan = controller.observe(observation(0, k=1, scheduled=(1, 2, 3)))
        assert plan.allocation == "balanced"

    def test_cost_charges_single_tuner_conflicts(self, store):
        """The estimator prices what the client pays, not raw packing.

        One query wanting two documents: a policy that co-locates them
        costs their sequential air time; one that splits them across
        channels at overlapping offsets costs a full extra pass."""
        controller = make_controller(store, base_channels=2)
        by_air = sorted(store.by_id, key=lambda d: (store.air_bytes(d), d))
        doc_a, doc_b = by_air[:2]  # the query's two small documents
        doc_c = by_air[-1]  # undemanded ballast filling the other channel
        air_a, air_b = store.air_bytes(doc_a), store.air_bytes(doc_b)
        assert store.air_bytes(doc_c) > air_a + air_b  # co-location fits
        demand = {doc_a: frozenset({1}), doc_b: frozenset({1})}
        schedule = (doc_a, doc_b, doc_c)
        # demand affinity co-locates query 1's documents on one channel:
        # the tuner reads them back to back.
        colocated = controller._allocation_cost(schedule, "demand", demand)
        assert colocated == air_a + air_b
        # round-robin lands them at offset 0 of two channels: the single
        # tuner downloads one, defers the other a full cycle span.
        split = controller._allocation_cost(schedule, "round-robin", demand)
        assert split > colocated
        span = air_a + store.air_bytes(doc_c)  # channel 0 carries a + c
        assert split == span + max(air_a, air_b)

    def test_cost_without_demand_is_zero(self, store):
        """No pending queries -- nothing to pay, whatever the layout."""
        controller = make_controller(store, base_channels=2)
        schedule = tuple(sorted(store.by_id))[:4]
        for policy in ("round-robin", "balanced", "demand"):
            assert controller._allocation_cost(schedule, policy, {}) == 0


class TestHotSet:
    def control(self):
        return ControlConfig(hot_set_size=2)

    def test_most_demanded_docs_promoted(self, store):
        controller = make_controller(store, self.control(), base_channels=2)
        demand = {
            1: frozenset({10, 11, 12, 18}),
            2: frozenset({13}),
            3: frozenset({14, 15, 19}),
            4: frozenset({16, 17, 20}),
        }
        plan = controller.observe(observation(0, k=2, demand=demand))
        # Ranked by demand count desc, doc id asc: 1 (4), then 3 (3).
        assert plan.hot_doc_ids == (1, 3)

    def test_threshold_filters_cold_docs(self, store):
        controller = make_controller(store, self.control(), base_channels=2)
        # two requesters, one short of HOT_MIN_QUERIES
        plan = controller.observe(
            observation(0, k=2, demand={1: frozenset({10, 11})})
        )
        assert plan.hot_doc_ids == ()

    def test_demoted_below_two_channels(self, store):
        controller = make_controller(store, self.control(), base_channels=2)
        controller.hot_doc_ids = (1,)
        controller.num_channels = 1
        plan = controller.observe(observation(0, k=1))
        assert plan.hot_doc_ids == ()
        assert "demote-hot" in plan.reason

    def test_is_cold_spares_hot_overlap(self, store):
        controller = make_controller(store, self.control(), base_channels=2)
        controller.hot_doc_ids = (1, 3)
        controller.shedding = True
        assert controller.sheds(lambda: frozenset({2, 4}))
        assert not controller.sheds(lambda: frozenset({3, 9}))

    def test_everything_cold_without_hot_set(self, store):
        controller = make_controller(store)
        controller.shedding = True
        assert controller.sheds(lambda: frozenset({1}))


class TestGovernor:
    def test_shed_toggles_with_backlog(self, store):
        # Pin K so backlog drives the governor, not the K controller
        # (growing K would double the capacity the threshold scales by).
        controller = make_controller(store, ControlConfig(k_min=1, k_max=1))
        plan = controller.observe(observation(0, backlog=7 * CAPACITY))
        assert plan.shed and "shed-on" in plan.reason
        plan = controller.observe(observation(1, backlog=CAPACITY))
        assert not plan.shed and "shed-off" in plan.reason

    def test_record_shed_counts(self, store):
        """Each shed answer is counted; an arrival is resolved only while
        the governor sheds, and a hot one is admitted uncounted."""
        controller = make_controller(store)
        resolved = []

        def resolve(docs):
            return lambda: resolved.append(docs) or docs

        assert not controller.sheds(resolve(frozenset({1})))
        assert resolved == []
        controller.shedding = True
        assert controller.sheds(resolve(frozenset({1})))
        assert controller.sheds(resolve(frozenset({2})))
        controller.hot_doc_ids = (2,)
        assert not controller.sheds(resolve(frozenset({2})))
        assert len(resolved) == 3
        assert controller.shed_queries == 2


class TestDeterminism:
    def stream(self):
        yield observation(0, backlog=2 * CAPACITY)
        yield observation(
            1,
            k=2,
            backlog=8 * CAPACITY,
            demand={1: frozenset({10, 11, 12}), 2: frozenset({13, 14})},
        )
        yield observation(2, k=2, scheduled=(1, 2, 3))
        yield observation(3, k=2, spans=(CAPACITY, 50), idle=CAPACITY - 50)

    def test_same_stream_same_plans(self, store):
        control = ControlConfig(hot_set_size=2)
        a = make_controller(store, control)
        b = make_controller(store, control)
        plans_a = [a.observe(o) for o in self.stream()]
        plans_b = [b.observe(o) for o in self.stream()]
        assert plans_a == plans_b

    def test_plan_targets_next_cycle(self, store):
        controller = make_controller(store)
        plan = controller.observe(observation(7))
        assert plan.cycle_number == 8

    def test_current_plan_reflects_state(self, store):
        controller = make_controller(store, base_channels=2)
        plan = controller.current_plan(5)
        assert plan.cycle_number == 5
        assert plan.num_channels == 2
        assert plan.allocation == "balanced"

    def test_plan_changes_counts_shape_changes_only(self, store):
        controller = make_controller(store)
        controller.observe(observation(0))
        controller.observe(observation(1))
        assert controller.plan_changes == 1  # the initial plan only
        controller.observe(observation(2, backlog=2 * CAPACITY))
        assert controller.plan_changes == 2
