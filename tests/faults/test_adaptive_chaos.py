"""Chaos monitors must hold across adaptive plan transitions.

The tentpole safety claim of the adaptive control plane: a mid-run K
change or policy switch never strands a query.  ChaosSimulation's
per-cycle safety audit (expected subset-of truth, received subset-of
expected) and liveness monitor run unchanged under an adaptive
controller, so these runs fail loudly if a plan transition loses a
deferred document or double-satisfies a session.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControlConfig
from repro.faults import ChaosSimulation, FaultPlan
from repro.sim.config import small_setup
from tests.faults.sampling import sample_fault_plan


def adaptive_chaos_config(plan: FaultPlan, **overrides) -> "SimulationConfig":
    base = dict(
        n_q=8,
        arrival_cycles=3,
        max_cycles=300,
        cycle_data_capacity=8_000,
        faults=plan,
        adaptive=True,
        control=ControlConfig(k_max=3, cooldown_cycles=1),
    )
    base.update(overrides)
    return small_setup(**base)


class TestAdaptiveUnderFaults:
    def test_monitors_hold_across_plan_transitions(self, nitf_docs):
        """A flash crowd forces K growth while faults fire; the safety
        and liveness monitors must stay green through every re-plan."""
        sim = ChaosSimulation(
            adaptive_chaos_config(
                FaultPlan(checksum=False),
                scenario="flash",
                scenario_intensity=4.0,
            ),
            documents=nitf_docs,
        )
        result = sim.run()  # ChaosInvariantError would propagate
        assert result.completed
        assert sim.fault_stats["safety_checks"] > 0
        assert sim.controller is not None
        assert sim.controller.k_changes >= 1
        assert all(session.satisfied for session in sim.sessions)

    def test_no_query_stranded_by_k_shrink(self, nitf_docs, monkeypatch):
        """Grow-then-shrink: after the burst drains, the idle law pulls
        K back down; documents deferred under the wide configuration
        must still be delivered (acknowledged delivery keeps them in the
        remaining sets across the shrink)."""
        monkeypatch.setattr(
            "repro.control.controller.SHRINK_IDLE_FRAC", 0.05
        )  # shrink at the first idle padding
        sim = ChaosSimulation(
            adaptive_chaos_config(
                FaultPlan(checksum=False),
                scenario="flash",
                scenario_intensity=5.0,
                arrival_cycles=6,
                control=ControlConfig(k_max=3, cooldown_cycles=1),
            ),
            documents=nitf_docs,
        )
        result = sim.run()
        assert result.completed
        controller = sim.controller
        assert controller is not None
        ks = [plan.num_channels for plan in controller.plans]
        assert max(ks) >= 2  # grew under the burst
        assert any(
            later < earlier
            for earlier, later in zip(ks, ks[1:])
        )  # ...and shrank on the way down
        assert all(session.satisfied for session in sim.sessions)

    def test_exactly_once_across_transitions(self, nitf_docs):
        """Every satisfied session received exactly its result set --
        nothing missing after a shrink, nothing doubled after a switch."""
        sim = ChaosSimulation(
            adaptive_chaos_config(
                FaultPlan(checksum=False),
                scenario="flash",
                scenario_intensity=4.0,
            ),
            documents=nitf_docs,
        )
        assert sim.run().completed
        for session in sim.sessions:
            client = session.clients[0]
            assert client.received_doc_ids == client.expected_doc_ids

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sampled_fault_plans_stay_green(self, seed, nitf_docs):
        """Injected faults (erasures, uplink chaos, mutations) compose
        with the controller: sampled plans never trip a monitor."""
        sim = ChaosSimulation(
            adaptive_chaos_config(sample_fault_plan(seed)),
            documents=nitf_docs,
        )
        result = sim.run()
        assert result.completed
        assert sim.fault_stats["safety_checks"] > 0
        assert all(session.satisfied for session in sim.sessions)
