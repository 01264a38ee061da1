"""Integration-grade unit tests for the simulation orchestrator."""

from __future__ import annotations

import pytest

from repro.client.protocol import FirstTierRead
from repro.faults import ChaosSimulation, FaultPlan
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation, build_collection, run_simulation


@pytest.fixture(scope="module")
def small_result():
    return run_simulation(small_setup())


class TestBuildCollection:
    def test_count_and_dtd(self):
        config = small_setup(document_count=12)
        docs = build_collection(config)
        assert len(docs) == 12
        assert docs[0].root.tag == "nitf"

    def test_nasa_dtd(self):
        config = small_setup(document_count=5, dtd="nasa")
        docs = build_collection(config)
        assert docs[0].root.tag == "dataset"


class TestRun:
    def test_run_completes(self, small_result):
        assert small_result.completed
        assert len(small_result.cycles) > 1

    def test_every_query_has_both_protocol_records(self, small_result):
        config = small_setup()
        expected_sessions = config.total_queries()
        one = small_result.records_for("one-tier")
        two = small_result.records_for("two-tier")
        assert len(one) == expected_sessions
        assert len(two) == expected_sessions

    def test_protocols_complete_simultaneously(self, small_result):
        """Same documents arrive at the same times regardless of index
        scheme, so completion times per session must agree."""
        one = {
            (r.query_text, r.arrival_time): r.access_bytes
            for r in small_result.records_for("one-tier")
        }
        two = {
            (r.query_text, r.arrival_time): r.access_bytes
            for r in small_result.records_for("two-tier")
        }
        assert one == two

    def test_cycles_are_the_servers_records(self):
        """One per-cycle record: the result holds what the server wrote."""
        sim = Simulation(small_setup())
        result = sim.run()
        assert result.cycles == sim.server.records
        assert [c.cycle_number for c in result.cycles] == list(
            range(len(result.cycles))
        )

    def test_cycle_stats_monotone_times(self, small_result):
        starts = [c.start_time for c in small_result.cycles]
        assert starts == sorted(starts)

    def test_pci_never_exceeds_ci(self, small_result):
        for cycle in small_result.cycles:
            assert cycle.pruning.bytes_after <= cycle.pruning.bytes_before
            assert cycle.pci_first_tier_bytes <= cycle.pruning.bytes_after

    def test_two_tier_lookup_wins_at_scale(self, small_result):
        assert small_result.mean_index_lookup_bytes(
            "two-tier"
        ) < small_result.mean_index_lookup_bytes("one-tier")

    def test_deterministic_across_runs(self):
        first = run_simulation(small_setup())
        second = run_simulation(small_setup())
        assert first.summary() == second.summary()

    def test_naive_baseline_tracked_when_enabled(self):
        result = run_simulation(small_setup(track_naive_baseline=True))
        naive = result.records_for("naive")
        assert len(naive) == small_setup().total_queries()
        assert result.mean_tuning_bytes("naive") > result.mean_tuning_bytes(
            "two-tier"
        )

    def test_full_first_tier_read_costs_more(self):
        selective = run_simulation(small_setup())
        full = run_simulation(
            small_setup(), first_tier_read=FirstTierRead.FULL
        )
        assert full.mean_index_lookup_bytes("two-tier") >= selective.mean_index_lookup_bytes(
            "two-tier"
        )

    def test_max_cycles_truncation_flagged(self):
        config = small_setup(max_cycles=2, arrival_cycles=2)
        result = run_simulation(config)
        assert not result.completed

    def test_validate_cycles_debug_mode(self):
        """Every cycle of a validated run passes the invariant checker
        (the checker raising would fail the run)."""
        from tests.sim.validating import ValidatingSimulation

        result = ValidatingSimulation(small_setup()).run()
        assert result.completed

    def test_scheduler_variants_run(self):
        for name in ("fcfs", "mrf", "rxw"):
            result = run_simulation(small_setup(scheduler=name))
            assert result.completed, name


class TestFirstTierReadForwarded:
    """Regression: ``FirstTierRead.FULL`` was honoured only by lossless
    single-channel runs; lossy, K >= 2 and chaos runs silently fell back
    to the selective read."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(loss_prob=0.01),
            dict(num_data_channels=4),
            dict(faults=FaultPlan(erase_prob=0.01)),
        ],
        ids=["lossy", "k4", "chaos"],
    )
    def test_full_read_charges_the_whole_first_tier(self, overrides):
        config = small_setup(**overrides)
        base = Simulation if config.faults is None else ChaosSimulation

        class Logged(base):
            cycles = []

            def _record_cycle(self, cycle):
                self.cycles.append(cycle)
                super()._record_cycle(cycle)

        sim = Logged(config, first_tier_read=FirstTierRead.FULL)
        assert sim.run().completed
        retries = 0
        for session in sim.sessions:
            client = session.two_tier
            # One whole first tier per attempt: the successful read plus
            # every read a lost packet voided.
            reads = [c for c in sim.cycles if client.can_use(c)][
                : client.index_retries + 1
            ]
            assert client.metrics.index_bytes == sum(
                c.first_tier_bytes for c in reads
            )
            retries += client.index_retries
        if "num_data_channels" not in overrides:
            assert retries > 0  # the lossy runs did void some reads


class TestEveryClientRecordPinned:
    """Every client record of a mid-scale run, one-tier included, pinned
    by one digest (``tests/sim/digests.py``); the same value on Python
    3.10, 3.11 and 3.12.  Beside the plain run: a mutation-only chaos run
    (acknowledged delivery), K = 4 demand allocation (tune-plan
    conflicts), a lossy channel and the naive baseline."""

    def test_client_records_digest(self):
        from repro.sim.config import SimulationConfig
        from tests.sim.digests import client_records_digest

        result = Simulation(
            SimulationConfig(
                document_count=120, n_q=40, arrival_cycles=3, cycle_data_capacity=40_000
            )
        ).run()
        assert result.completed
        assert len(result.clients) == 240
        assert client_records_digest(result.clients) == (
            "34ea24b0d7a2d6aef6e4f71da1c9176f1e271824d60f282f45d99fa132cd57c4"
        )

    @pytest.mark.parametrize(
        "overrides, records, digest",
        [
            (
                dict(
                    faults=FaultPlan(
                        seed=1,
                        fault_cycles=None,
                        doc_add_prob=0.4,
                        doc_remove_prob=0.95,
                        checksum=False,
                    )
                ),
                120,
                "b108bb71cc283e9656001255498cd8384f59ecef7d1f5bdf235ee4dff10f3cee",
            ),
            (
                dict(num_data_channels=4, channel_allocation="demand"),
                240,
                "81e744e6aebc1f57c3b3b4430c2651645742328714a582bd90b8a6c0b300c90f",
            ),
            (
                dict(loss_prob=0.01),
                120,
                "7b4bb25532b74354057366f42fd278a7c147cfc63bdbd6e1dbf51b62e16c4bcf",
            ),
            (
                dict(track_naive_baseline=True),
                360,
                "f55551ef135b4bc76c10d2847922d53ded8b70fbd479608e885f5ec608348e3a",
            ),
        ],
        ids=["churn", "k4-demand", "lossy", "naive"],
    )
    def test_variant_records_digest(self, overrides, records, digest):
        from repro.sim.config import SimulationConfig
        from tests.sim.digests import client_records_digest

        result = run_simulation(
            SimulationConfig(
                document_count=120,
                n_q=40,
                arrival_cycles=3,
                cycle_data_capacity=40_000,
                **overrides,
            )
        )
        assert result.completed
        assert len(result.clients) == records
        assert client_records_digest(result.clients) == digest
