"""Unit and property tests for :mod:`repro.faults.plan`."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.faults.plan import FaultChannelModel, FaultPlan, default_fault_plan
from tests.faults.sampling import sample_fault_plan


class TestValidation:
    @pytest.mark.parametrize(
        "field", ["uplink_drop_prob", "corrupt_prob", "erase_prob", "overload_prob"]
    )
    def test_probabilities_bounded(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.0})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    def test_corruption_requires_checksum(self):
        with pytest.raises(ValueError, match="checksum"):
            FaultPlan(corrupt_prob=0.1, checksum=False)
        FaultPlan(corrupt_prob=0.1, checksum=True)  # fine

    def test_retry_attempts_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(retry_max_attempts=0)


class TestWindowing:
    def test_fault_window(self):
        plan = FaultPlan(fault_cycles=3)
        assert plan.active(0) and plan.active(2)
        assert not plan.active(3) and not plan.active(100)

    def test_unbounded_window(self):
        assert FaultPlan(fault_cycles=None).active(10**9)

    def test_overload_and_mutation_stop_with_window(self):
        plan = FaultPlan(
            fault_cycles=2, overload_prob=0.99, doc_add_prob=0.99, doc_remove_prob=0.99
        )
        assert not plan.overloaded(5)
        assert plan.mutation(5) is None


class TestUplinkOutcome:
    def test_null_plan_is_immediate(self):
        outcome = FaultPlan().uplink_outcome(7, 1234)
        assert outcome.deliveries == (1234,)
        assert outcome.ack_time == 1234
        assert outcome.attempts == 1
        assert outcome.duplicate_deliveries == 0

    def test_deterministic_replay(self):
        plan = default_fault_plan(5)
        first = plan.uplink_outcome(3, 100)
        second = plan.uplink_outcome(3, 100)
        assert first == second

    def test_clients_independent(self):
        plan = FaultPlan(uplink_drop_prob=0.5, retry_max_attempts=5)
        outcomes = {plan.uplink_outcome(key, 0) for key in range(32)}
        assert len(outcomes) > 1  # not all dialogues identical

    @given(seed=st.integers(0, 10_000), client=st.integers(0, 50))
    def test_outcome_invariants(self, seed, client):
        plan = sample_fault_plan(seed)
        outcome = plan.uplink_outcome(client, 500)
        # The final attempt always gets through and is acknowledged.
        assert len(outcome.deliveries) >= 1
        assert outcome.attempts <= plan.retry_max_attempts
        assert outcome.ack_time >= 500
        # Deliveries happen in submission order, strictly spaced by backoff.
        assert list(outcome.deliveries) == sorted(outcome.deliveries)
        assert all(t >= 500 for t in outcome.deliveries)
        assert outcome.dropped_attempts + len(outcome.deliveries) == outcome.attempts


class TestChannelModel:
    def test_windowed_losslessness(self):
        model = FaultChannelModel(loss_prob=0.9, seed=1, fault_cycles=2)
        assert any(model.packet_lost(1, 0, k) for k in range(20))
        assert not any(model.packet_lost(1, 5, k) for k in range(20))
        assert not model.span_lost(1, 5, 0, 100)

    def test_corruption_counts_as_loss(self):
        model = FaultChannelModel(loss_prob=0.0, seed=1, corrupt_prob=0.5)
        assert not model.is_lossless
        assert any(model.packet_lost(1, 0, k) for k in range(20))

    def test_plan_channel_model_round_trip(self):
        plan = FaultPlan(erase_prob=0.1, corrupt_prob=0.2, fault_cycles=4)
        model = plan.channel_model()
        assert model.loss_prob == 0.1
        assert model.corrupt_prob == 0.2
        assert model.fault_cycles == 4

    def test_span_lost_is_one_deterministic_draw(self):
        model = FaultChannelModel(loss_prob=0.3, seed=9, corrupt_prob=0.1)
        draws = {model.span_lost(2, 1, 40, 6) for _ in range(10)}
        assert len(draws) == 1  # pure function of the coordinates


class TestSampling:
    @given(seed=st.integers(0, 10_000))
    def test_sampled_plans_are_valid_and_deterministic(self, seed):
        plan = sample_fault_plan(seed)
        assert plan == sample_fault_plan(seed)
        assert plan.checksum  # corruption may be drawn, so checksum stays on
        assert plan.fault_cycles is not None  # liveness must be decidable

    def test_with_override(self):
        plan = default_fault_plan().with_(overload_prob=0.0)
        assert plan.overload_prob == 0.0
        assert plan.uplink_drop_prob == default_fault_plan().uplink_drop_prob
