"""Who compiles what, and how often: the simulator owns one compiled
query per distinct query string for the whole run."""

from __future__ import annotations

from typing import List

import pytest

import repro.sim.simulation as simulation_module
from repro.faults import ChaosSimulation, FaultPlan
from repro.filtering.dfa import LazyQueryDFA
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation


class CountingDFA(LazyQueryDFA):
    """Stands in for the simulation module's ``LazyQueryDFA`` binding, so
    only the simulator's own compiles are counted (the server compiles its
    pruning DFAs through its own binding)."""

    compiled: List[str] = []

    @classmethod
    def from_queries(cls, queries):
        cls.compiled.append("|".join(str(query) for query in queries))
        return super().from_queries(queries)


@pytest.fixture
def counting(monkeypatch):
    CountingDFA.compiled = []
    monkeypatch.setattr(simulation_module, "LazyQueryDFA", CountingDFA)
    return CountingDFA


class TestOneCompilePerQueryString:
    @pytest.mark.parametrize(
        "config",
        [
            small_setup(),
            small_setup(num_data_channels=3),
            small_setup(faults=FaultPlan(seed=1, doc_add_prob=0.4, checksum=False)),
        ],
        ids=["static", "k3", "chaos"],
    )
    def test_simulation_compiles_each_distinct_string_once(self, counting, config):
        sim = (Simulation if config.faults is None else ChaosSimulation)(config)
        assert sim.run().completed
        asked = {str(session.plan.query) for session in sim.sessions}
        assert len(sim.sessions) > len(asked) > 1  # strings do repeat
        assert sorted(counting.compiled) == sorted(asked)
        assert set(sim._compiled) == asked

    def test_repeat_cycles_materialise_no_new_transitions(self):
        """Every query arrives before the first cycle, so each later
        cycle's PCI holds only label paths an earlier one aired: from the
        second cycle on the one-tier clients' per-cycle searches run
        entirely on memoised rows."""
        sim = Simulation(small_setup(arrival_cycles=1, n_q=40))
        materialised_before_build: List[int] = []
        build = sim.server.build_cycle

        def logged_build(now=None):
            materialised_before_build.append(
                sum(d.materialised_transitions for d in sim._compiled.values())
            )
            return build(now)

        sim.server.build_cycle = logged_build
        assert sim.run().completed
        # entry k: what k delivered cycles had materialised
        assert len(materialised_before_build) > 3
        assert materialised_before_build[0] == 0
        assert materialised_before_build[1] > 0
        assert set(materialised_before_build[1:]) == {materialised_before_build[1]}
        searches = [c for s in sim.sessions for c in s.clients[:1]]
        assert max(c.metrics.cycles_listened for c in searches) > 1
