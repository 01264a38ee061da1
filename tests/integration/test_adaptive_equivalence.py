"""The adaptive control plane's two contracts, differentially tested.

Off (the default): every program byte is identical to a build that
predates the control plane -- pinned by comparing per-cycle
:func:`~repro.broadcast.program.program_signature` streams between a
static run and an adaptive run whose controller band is clamped to the
static configuration (K pinned, policy switching disabled, no hot set,
governor unreachable).  The clamp proves the adaptive *machinery* --
multi-channel builder routing, acknowledged delivery, per-cycle
``apply_plan`` -- adds nothing to the air program until a law actually
fires.  The live daemon gets the same differential over the wire.

On: a flash-crowd run must grow K, drain completely, and strand no
query across plan transitions -- including the satellite regression
that a document deferred by a cross-channel conflict survives a
mid-session K change.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.twotier import TwoTierClient
from repro.control import ControlConfig, CyclePlan
from repro.control import controller as controller_module
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation
from repro.xpath.parser import parse_query


def clamped_control(k: int) -> ControlConfig:
    """A controller band pinned to the static configuration: K cannot
    move and the hot channel is off (the ``clamped_laws`` fixture does
    the rest)."""
    return ControlConfig(k_min=k, k_max=k, hot_set_size=0)


@pytest.fixture
def clamped_laws(monkeypatch):
    """No policy ever beats the margin and the governor threshold is
    unreachable."""
    monkeypatch.setattr(controller_module, "POLICY_SWITCH_MARGIN", 1_000.0)
    monkeypatch.setattr(controller_module, "SHED_BACKLOG_FACTOR", 1e9)


class _SignedSimulation(Simulation):
    """Collect the program signature of every aired cycle."""

    def _record_cycle(self, cycle):
        self.signatures = getattr(self, "signatures", [])
        self.signatures.append(program_signature(cycle))
        super()._record_cycle(cycle)


@pytest.mark.usefixtures("clamped_laws")
class TestStaticByteIdentity:
    def test_clamped_adaptive_matches_single_channel(self, nitf_docs):
        static = _SignedSimulation(small_setup(), documents=nitf_docs)
        static.run()
        adaptive = _SignedSimulation(
            small_setup(adaptive=True, control=clamped_control(1)),
            documents=nitf_docs,
        )
        adaptive.run()
        assert adaptive.signatures == static.signatures
        assert adaptive.controller is not None
        assert adaptive.controller.k_changes == 0
        assert adaptive.controller.policy_switches == 0

    @pytest.mark.parametrize("allocation", ("round-robin", "balanced", "demand"))
    def test_clamped_adaptive_matches_static_k2(self, nitf_docs, allocation):
        config = small_setup(
            num_data_channels=2, channel_allocation=allocation
        )
        static = _SignedSimulation(config, documents=nitf_docs)
        static_result = static.run()
        adaptive = _SignedSimulation(
            config.with_(adaptive=True, control=clamped_control(2)),
            documents=nitf_docs,
        )
        adaptive_result = adaptive.run()
        assert adaptive.signatures == static.signatures
        # Same programs, same single-tuner client behaviour.
        assert adaptive_result.mean_access_bytes(
            "two-tier"
        ) == static_result.mean_access_bytes("two-tier")

    def test_static_config_builds_no_controller(self, nitf_docs):
        sim = Simulation(small_setup(), documents=nitf_docs)
        assert sim.controller is None


@pytest.mark.usefixtures("clamped_laws")
class TestDaemonByteIdentity:
    def _signatures(self, store, config, expect_adaptive):
        async def body():
            daemon = BroadcastDaemon(
                store, config, DaemonConfig(autostart=False, max_queries=1)
            )
            await daemon.start()
            try:
                client = AsyncTwoTierClient(
                    "//nitf", port=daemon.port, arrival_time=0
                )
                await client.connect()
                await client.tune()
                assert client.adaptive is expect_adaptive
                await client.submit()
                daemon.start_broadcast()
                report = await client.run_session()
                await client.close()
                assert report.satisfied
                return report.signatures
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        return asyncio.run(asyncio.wait_for(body(), timeout=60))

    def test_clamped_adaptive_daemon_streams_identical_programs(
        self, nitf_docs
    ):
        store = DocumentStore(nitf_docs[:30])
        config = small_setup(document_count=30)
        static = self._signatures(store, config, expect_adaptive=False)
        adaptive = self._signatures(
            store,
            config.with_(adaptive=True, control=clamped_control(1)),
            expect_adaptive=True,
        )
        assert static and adaptive == static


class TestAdaptiveEndToEnd:
    def test_flash_crowd_grows_k_and_drains(self, nitf_docs):
        config = small_setup(
            adaptive=True,
            control=ControlConfig(k_max=3, cooldown_cycles=1),
            scenario="flash",
            scenario_intensity=4.0,
            n_q=20,
            arrival_cycles=6,
            cycle_data_capacity=6_000,
            max_cycles=400,
        )
        sim = Simulation(config, documents=nitf_docs)
        result = sim.run()
        assert result.completed
        assert sim.controller is not None
        assert sim.controller.k_changes >= 1
        assert max(p.num_channels for p in sim.controller.plans) >= 2
        # Every admitted client drained: nobody was stranded by a plan
        # transition (completion_time is stamped only on satisfaction).
        records = result.records_for("two-tier")
        assert records and all(r.access_bytes >= 0 for r in records)

    def test_plan_decisions_land_in_control_metrics(self, nitf_docs):
        from repro import obs

        config = small_setup(
            adaptive=True,
            control=ControlConfig(k_max=3, cooldown_cycles=1),
            scenario="flash",
            scenario_intensity=4.0,
            n_q=20,
            arrival_cycles=4,
            cycle_data_capacity=6_000,
            max_cycles=400,
        )
        with obs.observed() as registry:
            sim = Simulation(config, documents=nitf_docs)
            result = sim.run()
        assert result.completed
        flat = str(registry.snapshot())
        assert "control.num_channels" in flat
        assert "control.plans_total" in flat


class TestDeferralAcrossKChange:
    """Satellite regression: a document deferred by a cross-channel
    conflict must survive a mid-session K change.

    The server runs acknowledged delivery (as every adaptive run does),
    so a deferred document stays in the query's remaining set and
    re-airs after ``apply_plan`` reshapes the channel layout."""

    def _drive(self, docs, plans_by_cycle):
        store = DocumentStore(docs)
        server = BroadcastServer(
            store,
            cycle_data_capacity=sum(
                store.air_bytes(d) for d in store.by_id
            ),
            num_data_channels=2,
            acknowledged_delivery=True,
        )
        query = parse_query("//nitf")
        pending = server.submit(query, 0)
        client = TwoTierClient(query, 0)
        for cycle_index in range(20):
            cycle = server.build_cycle()
            if cycle is None:
                break
            client.on_cycle(cycle)
            server.confirm_delivery(
                pending, set(client.received_doc_ids), cycle
            )
            plan = plans_by_cycle.get(cycle_index)
            if plan is not None:
                server.apply_plan(plan)
        return server, client

    def test_deferred_doc_survives_k_growth(self, nitf_docs):
        server, client = self._drive(
            nitf_docs[:12],
            {0: CyclePlan(cycle_number=1, num_channels=3, allocation="balanced")},
        )
        assert client.channel_conflicts  # the conflict actually happened
        assert client.satisfied
        assert server.num_data_channels == 3
        assert not server.pending

    def test_deferred_doc_survives_k_shrink(self, nitf_docs):
        server, client = self._drive(
            nitf_docs[:12],
            {0: CyclePlan(cycle_number=1, num_channels=1, allocation="balanced")},
        )
        assert client.channel_conflicts
        assert client.satisfied  # K=1 re-air has no conflicts left
        assert server.num_data_channels == 1
        assert not server.pending

    def test_adaptive_config_forces_acknowledged_delivery(self):
        """The server-side half of the fix: an adaptive run may grow K
        mid-flight, so it must never assume broadcast == received."""
        config = small_setup(adaptive=True)
        assert config.needs_acknowledged_delivery
        assert small_setup().needs_acknowledged_delivery is False
