"""Keystone differential test: the live daemon equals the simulator.

N scripted async clients replay a simulator arrival schedule against a
real daemon over TCP.  Every per-query byte count (access, tuning,
index look-up, cycles listened) must equal ``Simulation``'s for the
same seed, and every streamed cycle's decoded program signature must
match the simulator's cycle-for-cycle -- the broadcast on the wire is
byte-for-byte the broadcast in the model.  Checked at K=1 and K=4.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.broadcast.program import program_signature
from repro.broadcast.server import DocumentStore
from repro.client.protocol import FirstTierRead
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation, build_collection


class RecordingSimulation(Simulation):
    """Capture each emitted cycle's program signature, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.signatures = []

    def _record_cycle(self, cycle):
        self.signatures.append(program_signature(cycle))
        return super()._record_cycle(cycle)


def _simulate(config, documents, protocol_name, first_tier_read):
    """Run the reference simulation; return (plans, per-session metrics,
    cycle signatures).  Plans are (arrival_time, query) in admission
    order -- the replay must submit in exactly this order so the daemon
    assigns the same query ids."""
    sim = RecordingSimulation(
        config, documents=documents, first_tier_read=first_tier_read
    )
    sim.run()
    plans = [(s.plan.arrival_time, str(s.plan.query)) for s in sim.sessions]
    expected = []
    for session in sim.sessions:
        for client in session.clients:
            if client.protocol_name == protocol_name:
                expected.append(
                    (
                        client.metrics.access_bytes,
                        client.metrics.tuning_bytes,
                        client.metrics.index_lookup_bytes,
                        client.metrics.cycles_listened,
                    )
                )
    assert len(expected) == len(plans)
    return plans, expected, sim.signatures


async def _replay(store, config, plans, first_tier_read, net=None, trace=False):
    """Drive a live daemon with scripted clients; returns their reports
    in admission order."""
    daemon = BroadcastDaemon(
        store, config, net or DaemonConfig(autostart=False)
    )
    await daemon.start()
    clients = [
        AsyncTwoTierClient(
            query,
            port=daemon.port,
            arrival_time=arrival,
            first_tier_read=first_tier_read,
            trace=trace,
        )
        for arrival, query in plans
    ]
    # Everyone tunes before the first cycle airs, then submits in plan
    # order (sequentially: query-id assignment must match the simulator).
    for client in clients:
        await client.connect()
        await client.tune()
    for client in clients:
        await client.submit()
    daemon.start_broadcast()
    reports = await asyncio.gather(*(c.run_session() for c in clients))
    for client in clients:
        await client.close()
    daemon.request_stop()
    await daemon.wait_done()
    return reports, daemon


def _check_parity(
    config,
    documents,
    protocol_name,
    net=None,
    trace=False,
    first_tier_read=FirstTierRead.SELECTIVE,
):
    store = DocumentStore(documents, config.size_model)
    plans, expected, sim_signatures = _simulate(
        config, documents, protocol_name, first_tier_read
    )
    reports, daemon = asyncio.run(
        asyncio.wait_for(
            _replay(store, config, plans, first_tier_read, net=net, trace=trace),
            timeout=300,
        )
    )
    assert daemon.stats.cycles_streamed == len(sim_signatures)
    for i, (report, want) in enumerate(zip(reports, expected)):
        assert report.protocol == protocol_name
        assert report.satisfied, f"client {i} not satisfied"
        got = (
            report.metrics.access_bytes,
            report.metrics.tuning_bytes,
            report.metrics.index_lookup_bytes,
            report.metrics.cycles_listened,
        )
        assert got == want, f"client {i}: daemon {got} != simulator {want}"
        # Every cycle this client decoded is the simulator's cycle,
        # byte-for-byte (the signature covers index bytes, offsets,
        # layout, schedule and channel assignment).
        for signature in report.signatures:
            assert signature in sim_signatures


@pytest.fixture(scope="module")
def parity_config():
    return small_setup(document_count=40, n_q=8, arrival_cycles=2)


@pytest.fixture(scope="module")
def parity_docs(parity_config):
    return build_collection(parity_config)


class TestDaemonSimulatorParity:
    def test_single_channel(self, parity_config, parity_docs):
        _check_parity(parity_config, parity_docs, "two-tier")

    def test_four_data_channels(self, parity_config, parity_docs):
        config = parity_config.with_(num_data_channels=4)
        _check_parity(config, parity_docs, "two-tier")

    def test_full_first_tier_read_reaches_both_sides_at_k4(
        self, parity_config, parity_docs
    ):
        """Regression: against a K > 1 daemon the async client used to
        drop ``first_tier_read`` (as the simulator did at K >= 2)."""
        config = parity_config.with_(num_data_channels=4)
        lookup_bytes = {
            mode: sum(
                index_lookup
                for _access, _tuning, index_lookup, _cycles in _simulate(
                    config, parity_docs, "two-tier", mode
                )[1]
            )
            for mode in FirstTierRead
        }
        assert lookup_bytes[FirstTierRead.FULL] > lookup_bytes[FirstTierRead.SELECTIVE]
        _check_parity(
            config, parity_docs, "two-tier", first_tier_read=FirstTierRead.FULL
        )


class TestTelemetryParity:
    """The telemetry plane must never perturb what goes on air.

    With the metrics endpoint live, the flight recorder armed, the event
    log capturing at debug level AND every client tracing, the per-query
    byte accounting and each cycle's program signature still equal the
    simulator's.  (Traces ride the CYCLE_END trailer, which the
    signature and byte accounting exclude by design.)
    """

    def test_full_telemetry_is_invisible_on_air(
        self, parity_config, parity_docs
    ):
        from repro.net import DaemonConfig
        from repro.obs.telemetry import (
            EventLog,
            FlightRecorder,
            TelemetryConfig,
        )

        telemetry = TelemetryConfig(
            metrics_port=0,
            events=EventLog(sink=None, level="debug"),
            flight=FlightRecorder(),
        )
        net = DaemonConfig(autostart=False, telemetry=telemetry)
        _check_parity(
            parity_config, parity_docs, "two-tier", net=net, trace=True
        )
