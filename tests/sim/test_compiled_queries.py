"""Who compiles what, and how often: the simulated audience compiles the
query strings of its listening clients as one set -- anew only when an
admission brings a string it has not compiled, dropping then the strings
nobody listens for any more -- and walks each delivered cycle's index
once for every client."""

from __future__ import annotations

from typing import List

import pytest

import repro.sim.audience as audience_module
from repro.broadcast.program import BroadcastCycle
from repro.faults import ChaosSimulation, FaultPlan
from repro.filtering.dfa import LazyQueryDFA
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation

CONFIGS = pytest.mark.parametrize(
    "config",
    [
        small_setup(),
        small_setup(num_data_channels=3),
        small_setup(faults=FaultPlan(seed=1, doc_add_prob=0.4, checksum=False)),
    ],
    ids=["static", "k3", "chaos"],
)


class CountingDFA(LazyQueryDFA):
    """Stands in for the audience module's ``LazyQueryDFA`` binding, so
    only the simulator's own compiles are counted (the server compiles its
    pruning DFAs through its own binding)."""

    #: the strings of every compile, in order, and what each compiled
    compiled: List[List[str]] = []
    made: List[LazyQueryDFA] = []

    @classmethod
    def from_queries(cls, queries):
        cls.compiled.append([str(query) for query in queries])
        dfa = super().from_queries(queries)
        cls.made.append(dfa)
        return dfa


@pytest.fixture
def counting(monkeypatch):
    CountingDFA.compiled, CountingDFA.made = [], []
    monkeypatch.setattr(audience_module, "LazyQueryDFA", CountingDFA)
    return CountingDFA


def simulation_for(config) -> Simulation:
    return (Simulation if config.faults is None else ChaosSimulation)(config)


class TestOneCompilePerQueryString:
    @CONFIGS
    def test_simulation_compiles_once_per_new_string_set(self, counting, config):
        sim = simulation_for(config)
        assert sim.run().completed
        asked = {str(session.plan.query) for session in sim.sessions}
        assert len(sim.sessions) > len(asked) > 1  # strings do repeat
        compiled = counting.compiled
        # Each compile is the previous one's still-live strings, in their
        # order, plus strings it did not hold: a compile happens only
        # when a new string arrives, and never holds a string twice.
        for before, after in zip(compiled, compiled[1:]):
            kept = [key for key in before if key in after]
            assert after[: len(kept)] == kept
            assert len(after) > len(kept)
            assert not set(after[len(kept):]) & set(before)
        for strings in compiled:
            assert len(set(strings)) == len(strings)
        assert set().union(*compiled) >= asked
        assert len(compiled) < len(sim.server.records)

    def test_settled_strings_leave_the_compiled_set(self, counting):
        """A string whose last client is satisfied is not recompiled."""
        sim = Simulation(small_setup(arrival_cycles=6, n_q=8))
        assert sim.run().completed
        compiled = counting.compiled
        assert len(compiled) > 1
        dropped = [
            set(before) - set(after) for before, after in zip(compiled, compiled[1:])
        ]
        assert any(dropped)
        # the last compile holds only strings still listened for then
        assert len(compiled[-1]) < len({str(s.plan.query) for s in sim.sessions})

    @CONFIGS
    def test_one_lookup_per_delivered_cycle(self, monkeypatch, config):
        walked: List[int] = []
        search = BroadcastCycle.lookup

        def counted(cycle, query):
            walked.append(cycle.cycle_number)
            return search(cycle, query)

        monkeypatch.setattr(BroadcastCycle, "lookup", counted)
        sim = simulation_for(config)
        assert sim.run().completed
        delivered = [record.cycle_number for record in sim.server.records]
        assert walked, "nobody searched"
        assert len(walked) == len(set(walked)), "a cycle was walked twice"
        assert set(walked) <= set(delivered)
        if config.faults is None:
            # A one-tier client searches every cycle until it is done; over
            # K = 3 channels two-tier clients may outlast every one of them.
            assert walked == delivered[: len(walked)]
            if config.num_data_channels == 1:
                assert walked == delivered

    def test_repeat_cycles_materialise_no_new_transitions(self, counting):
        """Every query arrives before the first cycle, so each later
        cycle's PCI holds only label paths an earlier one aired: from the
        second cycle on the one-tier clients' per-cycle searches run
        entirely on memoised rows."""
        sim = Simulation(small_setup(arrival_cycles=1, n_q=40))
        materialised_before_build: List[int] = []
        build = sim.server.build_cycle

        def logged_build(now=None):
            materialised_before_build.append(
                sum(d.materialised_transitions for d in counting.made)
            )
            return build(now)

        sim.server.build_cycle = logged_build
        assert sim.run().completed
        assert len(counting.compiled) == 1
        # entry k: what k delivered cycles had materialised
        assert len(materialised_before_build) > 3
        assert materialised_before_build[0] == 0
        assert materialised_before_build[1] > 0
        assert set(materialised_before_build[1:]) == {materialised_before_build[1]}
        searches = [c for s in sim.sessions for c in s.clients[:1]]
        assert max(c.metrics.cycles_listened for c in searches) > 1
