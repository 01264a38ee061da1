"""Chaos runs: sampled fault plans, differentials and a server machine.

The heart of the suite is the acceptance-criterion pair:

* under every sampled :func:`tests.faults.sampling.sample_fault_plan` the
  safety monitor never fires and every run drains (liveness);
* with the injectors disabled the broadcast program is byte-identical to
  the fault-free simulation -- pinned by comparing per-cycle
  :func:`~repro.broadcast.program.program_signature` streams.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.faults import ChaosSimulation, FaultPlan, default_fault_plan
from repro.sim.config import IndexScheme, SimulationConfig, small_setup
from repro.sim.simulation import Simulation
from repro.xpath.parser import parse_query
from tests.faults.sampling import sample_fault_plan


def chaos_config(plan: FaultPlan, **overrides) -> SimulationConfig:
    base = dict(n_q=8, arrival_cycles=2, max_cycles=150, faults=plan)
    base.update(overrides)
    return small_setup(**base)


class _SignatureMixin:
    """Collect the program signature of every aired cycle."""

    def _record_cycle(self, cycle):
        self.signatures = getattr(self, "signatures", [])
        self.signatures.append(program_signature(cycle))
        super()._record_cycle(cycle)


class _SignedSimulation(_SignatureMixin, Simulation):
    pass


class _SignedChaos(_SignatureMixin, ChaosSimulation):
    pass


class TestSampledPlans:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_safety_and_liveness_under_sampled_plans(self, seed, nitf_docs):
        sim = ChaosSimulation(
            chaos_config(sample_fault_plan(seed)), documents=nitf_docs
        )
        result = sim.run()  # ChaosInvariantError would propagate
        assert result.completed
        assert sim.fault_stats["safety_checks"] > 0
        # Every surviving session drained.
        assert all(session.satisfied for session in sim.sessions)

    def test_default_plan_exercises_the_injectors(self, nitf_docs):
        sim = ChaosSimulation(chaos_config(default_fault_plan(3)), documents=nitf_docs)
        assert sim.run().completed
        assert sim.fault_stats["uplink_attempts"] > 0


class TestNullPlanDifferential:
    def test_program_identical_without_injectors(self, nitf_docs):
        """Acceptance pin: injectors off => byte-identical air program."""
        plain = _SignedSimulation(chaos_config(None, faults=None), documents=nitf_docs)
        plain.run()
        chaos = _SignedChaos(
            chaos_config(FaultPlan(checksum=False)), documents=nitf_docs
        )
        chaos.run()
        assert chaos.signatures == plain.signatures
        assert sum(chaos.fault_stats[k] for k in (
            "uplink_dropped", "uplink_duplicates", "uplink_rejections",
            "docs_added", "docs_removed",
        )) == 0

    def test_checksum_byte_is_the_only_difference(self, nitf_docs):
        """Null plan + checksum: programs diverge, but only by the trailer."""
        plain = _SignedSimulation(chaos_config(None, faults=None), documents=nitf_docs)
        plain.run()
        chaos = _SignedChaos(chaos_config(FaultPlan()), documents=nitf_docs)
        result = chaos.run()
        assert result.completed
        assert chaos.signatures != plain.signatures
        assert sum(chaos.fault_stats[k] for k in (
            "uplink_dropped", "uplink_duplicates", "uplink_rejections",
            "docs_added", "docs_removed",
        )) == 0
        assert chaos.config.size_model.checksum_bytes == 1


class TestTargetedPlans:
    def test_remove_heavy_plan_removes_documents(self, nitf_docs):
        plan = FaultPlan(
            seed=11, fault_cycles=6, doc_remove_prob=0.9, doc_add_prob=0.0
        )
        # Few enough queries that the removal gate (documents some
        # unsatisfied session still needs) leaves eligible candidates.
        sim = ChaosSimulation(chaos_config(plan, n_q=2), documents=nitf_docs)
        assert sim.run().completed
        assert sim.fault_stats["docs_removed"] > 0
        assert sim.fault_stats["docs_added"] == 0

    def test_overload_heavy_plan_degrades_builds(self, nitf_docs):
        plan = FaultPlan(seed=7, fault_cycles=6, overload_prob=0.9)
        sim = ChaosSimulation(chaos_config(plan), documents=nitf_docs)
        assert sim.run().completed
        assert sim.server.degraded_cycles > 0
        # Degradation ends with the fault window: recovery cycles are full builds.
        assert any(record.degraded is None for record in sim.server.records)

    def test_uplink_heavy_plan_drains(self, nitf_docs):
        plan = FaultPlan(
            seed=5,
            fault_cycles=6,
            uplink_drop_prob=0.6,
            uplink_ack_drop_prob=0.5,
            uplink_delay_bytes=128,
            retry_max_attempts=6,
        )
        sim = ChaosSimulation(chaos_config(plan), documents=nitf_docs)
        assert sim.run().completed
        assert sim.fault_stats["uplink_dropped"] > 0
        assert sim.fault_stats["uplink_duplicates"] > 0
        assert sim.server.uplink_dedup_hits > 0

    def test_late_duplicate_of_an_admitted_session_is_no_nack(self, nitf_docs):
        """A duplicate reaching the server after its query's result set
        emptied is a dedup hit: only a first admission can be NACKed."""
        sim = ChaosSimulation(
            chaos_config(FaultPlan(checksum=False)), documents=nitf_docs
        )
        plans = sorted(
            sim.workload.initial_batch(),
            key=lambda plan: len(sim.server.resolve(plan.query)),
        )
        sim._admit_batch(plans[:1])
        (session,) = sim.sessions
        assert session.pending is not None
        for doc_id in session.pending.result_doc_ids:
            sim.server.remove_document(doc_id)
        assert not sim.server.resolve(session.plan.query)
        sim._submit([session], 5)
        assert sim.sessions == [session] and not session.rejected
        assert sim.fault_stats["uplink_rejections"] == 0
        assert sim.server.uplink_dedup_hits == 1

    def test_run_simulation_routes_to_chaos(self, nitf_docs):
        from repro.sim.simulation import run_simulation

        result = run_simulation(
            chaos_config(FaultPlan(checksum=False)), documents=nitf_docs
        )
        assert result.completed

    def test_chaos_requires_a_plan(self, nitf_docs):
        with pytest.raises(ValueError, match="faults"):
            ChaosSimulation(small_setup(), documents=nitf_docs)

    def test_config_rejects_fault_conflicts(self):
        with pytest.raises(ValueError, match="erase_prob"):
            small_setup(faults=FaultPlan(), loss_prob=0.1)
        with pytest.raises(ValueError, match="single-channel"):
            small_setup(faults=FaultPlan(), num_data_channels=2)
        with pytest.raises(ValueError, match="two-tier"):
            small_setup(faults=FaultPlan(), scheme=IndexScheme.ONE_TIER)


class ServerChaosMachine(RuleBasedStateMachine):
    """Random keyed submits, builds, confirms and mutations on one server.

    Invariants after every step: a pending query's remaining set stays
    inside its admission-time result set *and* the live collection, and a
    keyed duplicate always resolves to the already-admitted object.
    """

    QUERIES = ("/a//c", "/a/b", "//c", "/a", "//b")

    def __init__(self):
        super().__init__()
        from tests.xpath.test_evaluator import paper_documents

        self.server = BroadcastServer(
            DocumentStore(paper_documents()), acknowledged_delivery=True
        )
        self.clock = 0
        self.admitted = {}  # (client_key, query text) -> PendingQuery
        self.removed = []  # documents taken out, eligible for re-adding

    @rule(key=st.integers(0, 5), qi=st.integers(0, len(QUERIES) - 1))
    def submit(self, key, qi):
        text = self.QUERIES[qi]
        try:
            pending = self.server.submit(parse_query(text), self.clock, client_key=key)
        except ValueError:
            return  # empty result set (after removals): NACK
        prior = self.admitted.get((key, text))
        if prior is not None and prior in self.server.pending:
            assert pending is prior  # dedup identity
            assert pending.arrival_time == prior.arrival_time
        self.admitted[(key, text)] = pending

    @rule()
    def build(self):
        cycle = self.server.build_cycle()
        if cycle is not None:
            self.clock = cycle.end_time
            self.last_cycle = cycle

    @precondition(lambda self: self.server.pending and hasattr(self, "last_cycle"))
    @rule(data=st.data())
    def confirm_subset(self, data):
        pending = data.draw(st.sampled_from(self.server.pending))
        received = data.draw(st.sets(st.sampled_from(sorted(pending.result_doc_ids))))
        self.server.confirm_delivery(pending, received, self.last_cycle)

    @precondition(lambda self: len(self.server.store.documents) > 1)
    @rule(data=st.data())
    def remove_doc(self, data):
        doc_id = data.draw(
            st.sampled_from(sorted(self.server.store.by_id))
        )
        self.removed.append(self.server.remove_document(doc_id))

    @precondition(lambda self: bool(self.removed))
    @rule()
    def readd_doc(self):
        self.server.add_document(self.removed.pop())

    @invariant()
    def remaining_within_result_and_store(self):
        store_ids = set(self.server.store.by_id)
        for pending in self.server.pending:
            assert pending.remaining_doc_ids <= pending.result_doc_ids
            assert pending.remaining_doc_ids <= store_ids
            assert not pending.is_satisfied  # satisfied queries are reaped


TestServerChaosMachine = ServerChaosMachine.TestCase
TestServerChaosMachine.settings = settings(max_examples=25, deadline=None, stateful_step_count=30)
