"""The chaos monitors against the every-session sweep they replaced.

:class:`~repro.faults.chaos.ChaosSimulation` checks safety only for the
sessions a cycle changed and reads liveness off counters;
``monitor_reference.py`` keeps the sweep over every session.  Both run
after every aired cycle of drawn churn plans, and must raise in the same
cycle with the same message, or not at all.  Five mutants break the
invariants on purpose, and each must trip both: a locked expected set
that holds a removed document, one that locks a document outside the
truth, a received document outside the expected set, a received set
without an index read, and a session that never drains.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import ChaosInvariantError, ChaosSimulation, FaultPlan
from repro.sim.config import small_setup
from tests.faults.monitor_reference import beside_sweep

#: a document id no collection holds
BOGUS = 10**9

MUTANTS = (
    "locked-removed",
    "locks-outside-truth",
    "outside-expected",
    "without-index-read",
    "stuck",
)


class Mutated(ChaosSimulation):
    """A chaos run with one deliberately broken session or gate."""

    mutant: Optional[str] = None
    #: the client key of the session the client mutants break
    target = 0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.injected = False

    def _open(self, plan, ack_time, client_key):
        session = super()._open(plan, ack_time, client_key)
        if client_key != self.target:
            return session
        client = session.two_tier
        listen = client.on_cycle
        if self.mutant == "locks-outside-truth":

            def on_cycle(cycle):
                listen(cycle)
                if client.expected_doc_ids is not None and not self.injected:
                    client.expected_doc_ids |= {BOGUS}
                    self.injected = True

            client.on_cycle = on_cycle
        elif self.mutant == "outside-expected":

            def on_cycle(cycle):
                first_read = client.expected_doc_ids is None
                listen(cycle)
                if first_read and client.expected_doc_ids is not None:
                    client.received_doc_ids.add(BOGUS)
                    self.injected = True

            client.on_cycle = on_cycle
        elif self.mutant == "without-index-read":

            def on_cycle(cycle):
                if client.can_use(cycle):
                    client.received_doc_ids.add(BOGUS)
                    self.injected = True

            client.on_cycle = on_cycle
        elif self.mutant == "stuck":

            def never(cycle):
                # it breaks the run once admitted (a NACK ends the session)
                self.injected = session.pending is not None
                return False

            client.can_use = never
        return session

    def _removable(self) -> List[int]:
        if self.mutant != "locked-removed":
            return super()._removable()
        for session in self._open_sessions:  # the gate lets a needed one go
            expected = session.two_tier.expected_doc_ids
            if expected:
                self.injected = True
                return [min(expected)]
        return super()._removable()


Swept = beside_sweep(Mutated)


def run(plan: FaultPlan, documents, mutant=None, target=0, **overrides):
    config = small_setup(
        **{"n_q": 4, "arrival_cycles": 2, "max_cycles": 150, "faults": plan, **overrides}
    )
    sim = Swept(config, documents=documents)
    sim.mutant, sim.target = mutant, target
    return sim


@pytest.mark.parametrize(
    "mutant, plan, overrides, verdict",
    [
        (
            "locked-removed",
            FaultPlan(seed=11, fault_cycles=6, doc_remove_prob=0.9),
            {"n_q": 2},
            "expects",
        ),
        (
            "locks-outside-truth",
            FaultPlan(seed=3, fault_cycles=2, checksum=False),
            {},
            "outside the true result set",
        ),
        (
            "outside-expected",
            FaultPlan(seed=3, fault_cycles=2, checksum=False),
            {"cycle_data_capacity": 4_000},
            "never asked for",
        ),
        (
            "without-index-read",
            FaultPlan(seed=3, fault_cycles=2, checksum=False),
            {},
            "without an index read",
        ),
        ("stuck", FaultPlan(seed=3, fault_cycles=2, checksum=False), {}, "liveness"),
    ],
)
def test_each_mutant_trips_both_monitors(nitf_docs, mutant, plan, overrides, verdict):
    sim = run(plan, nitf_docs, mutant, **overrides)
    with pytest.raises(ChaosInvariantError, match=verdict):
        sim.run()  # beside_sweep asserts the sweep raised the same
    assert sim.injected


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    fault_cycles=st.integers(2, 6),
    uplink_drop=st.sampled_from([0.0, 0.3]),
    ack_drop=st.sampled_from([0.0, 0.3]),
    delay=st.sampled_from([0, 64, 512]),
    add=st.sampled_from([0.0, 0.4]),
    remove=st.sampled_from([0.0, 0.5, 0.9]),
    capacity=st.sampled_from([4_000, 8_000, 20_000]),
    n_q=st.integers(2, 8),
    mutant=st.sampled_from((None,) + MUTANTS),
    target=st.integers(0, 3),
)
def test_monitors_agree_on_drawn_churn_plans(
    nitf_docs,
    seed,
    fault_cycles,
    uplink_drop,
    ack_drop,
    delay,
    add,
    remove,
    capacity,
    n_q,
    mutant,
    target,
):
    plan = FaultPlan(
        seed=seed,
        fault_cycles=fault_cycles,
        uplink_drop_prob=uplink_drop,
        uplink_ack_drop_prob=ack_drop,
        uplink_delay_bytes=delay,
        doc_add_prob=add,
        doc_remove_prob=remove,
        checksum=False,
    )
    sim = run(plan, nitf_docs, mutant, target, n_q=n_q, cycle_data_capacity=capacity)
    try:
        result = sim.run()
    except ChaosInvariantError:
        # Both raised, in the same cycle, with the same message.
        assert mutant is not None and sim.injected
    else:
        # A client satisfied by the very read that broke it is exempt.
        assert mutant in (None, "outside-expected") or not sim.injected
        assert result.completed
        assert sim.checks == sim.fault_stats["safety_checks"] == len(sim.server.records)
