"""Process-level chaos against the real supervised cluster.

The keystone of the self-healing tier (slow; ``-m cluster``): real
``repro serve --shard`` subprocesses are SIGKILLed mid-run on a seeded
schedule while an open-loop load floods the front door.  The contract
under test is end to end:

* the supervisor's monitor restarts every killed worker (fresh epoch);
* the write-ahead journal replays admitted-but-unsatisfied queries;
* resume-mode clients reconnect and resubmit idempotently;
* **no admitted query is lost and none is double-admitted** --
  :func:`repro.net.chaos.assert_recovery` audits the journals;
* a restarted worker's broadcast is byte-identical (by program
  signature) to a clean daemon on the same shard slice.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time

import pytest

from repro.broadcast.program import program_signature
from repro.broadcast.server import DocumentStore
from repro.net import AsyncTwoTierClient, ClusterConfig, ClusterRouter
from repro.net.chaos import ChaosController, assert_recovery, build_chaos_schedule
from repro.net.cluster import ClusterSupervisor
from repro.net.uplink import round_trip
from repro.net.loadgen import build_load_plan, run_load
from repro.sim.config import small_setup
from repro.sim.simulation import build_collection, make_server
from repro.tools.persist import load_journal
from repro.xpath.parser import parse_query

NUM_SHARDS = 2
PARTITION_SEED = 5

BASE = small_setup(document_count=48, n_q=6, arrival_cycles=2)


@pytest.fixture(scope="module")
def full_docs():
    return build_collection(BASE)


def _serve_args(bandwidth=None):
    args = [
        "--count", str(BASE.document_count),
        "--seed", str(BASE.collection_seed),
        "--capacity", str(BASE.cycle_data_capacity),
        "--log-level", "warning",
    ]
    if bandwidth is not None:
        args += ["--bandwidth", str(bandwidth)]
    return args


async def _await_drained_journals(supervisor, num, timeout=60.0):
    """Wait until every shard's journal shows zero outstanding admits."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = [load_journal(supervisor.journal_path(i)) for i in range(num)]
        if all(not s.outstanding for s in states):
            return
        await asyncio.sleep(0.2)
    raise AssertionError(
        "journals never drained: "
        + str([len(s.outstanding) for s in states])
    )


async def _await_restarts(supervisor, num, timeout=120.0):
    """Wait until the monitor has healed every shard at least once.

    The load can drain before the last scheduled kill fires; the
    monitor's respawn (backoff + subprocess startup) then races the
    test teardown unless we explicitly wait for it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(r >= 1 for r in supervisor.restarts):
            return
        await asyncio.sleep(0.1)
    raise AssertionError(
        f"monitor never healed every shard: restarts={supervisor.restarts} "
        f"events={supervisor.events}"
    )


@pytest.mark.cluster
class TestChaosKeystone:
    def test_every_worker_killed_no_query_lost(self, full_docs):
        """Seeded chaos SIGKILLs each worker at least once while a
        flood of resume-mode sessions runs; every session must end
        satisfied and the journals must account for every admission."""
        supervisor = ClusterSupervisor(
            NUM_SHARDS,
            partition_seed=PARTITION_SEED,
            serve_args=_serve_args(bandwidth=150_000),
            journal=True,
            restart_backoff=0.1,
            max_restarts=10,
            crash_window=60.0,
        )
        schedule = build_chaos_schedule(NUM_SHARDS, 2.5, seed=17)

        async def run():
            workers = await asyncio.to_thread(supervisor.start)
            router = ClusterRouter(
                supervisor.partition,
                workers,
                ClusterConfig(down_probe_interval=0.1),
            )
            await router.start()
            monitor = asyncio.ensure_future(
                supervisor.monitor(router, poll_interval=0.05)
            )
            try:
                plan = build_load_plan(
                    full_docs,
                    16,
                    seed=4,
                    granularity=NUM_SHARDS,
                    partition_seed=PARTITION_SEED,
                )
                chaos = ChaosController(supervisor, schedule)
                report, applied = await asyncio.gather(
                    run_load(
                        plan,
                        "127.0.0.1",
                        router.port,
                        num_workers=NUM_SHARDS,
                        resume=True,
                        max_retries=20,
                        retry_delay=0.2,
                    ),
                    chaos.run(),
                )
                await _await_restarts(supervisor, NUM_SHARDS)
                await _await_drained_journals(supervisor, NUM_SHARDS)
                return report, applied
            finally:
                monitor.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await monitor
                await router.stop()

        try:
            report, applied = asyncio.run(asyncio.wait_for(run(), timeout=300))
        finally:
            codes = supervisor.stop()

        assert report.satisfied == 16, report.describe()
        assert report.failed == 0, report.describe()
        # the schedule guarantees one kill per shard; the monitor must
        # have healed every one of them
        assert all(a["ok"] for a in applied), applied
        assert all(r >= 1 for r in supervisor.restarts), supervisor.events
        kinds = [e["kind"] for e in supervisor.events]
        assert kinds.count("restart") >= NUM_SHARDS
        assert supervisor.epochs == [r for r in supervisor.restarts]
        # safety: every admitted query reached done, none double-admitted
        audits = assert_recovery(
            [supervisor.journal_path(i) for i in range(NUM_SHARDS)]
        )
        assert all(a["resumes"] >= 1 for a in audits), audits
        # the post-chaos cluster drained cleanly
        assert codes == [0, 0]


@pytest.mark.cluster
class TestKillMidCycle:
    def test_sigkill_mid_cycle_restores_byte_identical_broadcast(
        self, full_docs
    ):
        """SIGKILL one paced worker mid-stream: the flight recorder
        dumps a crash_resume artifact, the monitor respawns the shard,
        and the restarted worker's cycles carry the same program
        signature as a clean in-process server on the same slice."""
        supervisor = ClusterSupervisor(
            1,
            partition_seed=PARTITION_SEED,
            serve_args=_serve_args(bandwidth=60_000),
            journal=True,
            flight=True,
            restart_backoff=0.1,
        )

        async def run():
            workers = await asyncio.to_thread(supervisor.start)
            router = ClusterRouter(
                supervisor.partition,
                workers,
                ClusterConfig(down_probe_interval=0.1),
            )
            await router.start()
            monitor = asyncio.ensure_future(
                supervisor.monitor(router, poll_interval=0.05)
            )
            try:
                client = AsyncTwoTierClient(
                    "//nitf",
                    port=router.port,
                    shard=0,
                    arrival_time=0,
                    client_key=77,
                    resume=True,
                )
                task = asyncio.ensure_future(client.run())

                # wait for the admission, then murder the worker while
                # the paced downlink is mid-cycle
                deadline = time.monotonic() + 60
                while True:
                    assert time.monotonic() < deadline
                    state = load_journal(supervisor.journal_path(0))
                    if state.outstanding:
                        break
                    await asyncio.sleep(0.05)
                await asyncio.sleep(0.2)  # let the stream get going
                supervisor.procs[0].kill()

                report = await asyncio.wait_for(task, timeout=120)
                return report, client
            finally:
                monitor.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await monitor
                await router.stop()

        try:
            report, client = asyncio.run(asyncio.wait_for(run(), timeout=300))
        finally:
            supervisor.stop()

        assert report.satisfied
        assert report.epoch_bumps == 1 and client.epoch == 1
        assert supervisor.restarts == [1]

        # flight artifact: the restarted worker dumped its journal
        # replay as a replayable incident snapshot
        flight_dir = supervisor.workdir / "worker-0.flight"
        dumps = list(flight_dir.glob("flight-crash_resume-*.json"))
        assert dumps, list(flight_dir.iterdir())
        snapshot = json.loads(dumps[0].read_text())
        assert snapshot["reason"] == "crash_resume"
        assert snapshot["context"]["journal_replayed"] >= 1

        # byte-identity: the post-restart broadcast must equal a clean
        # single daemon fed the same slice and the same query at t=0.
        # Signatures include the cycle number, and the resumed client
        # tunes in at whatever cycle the respawned worker is on -- so
        # the observed signatures must be a contiguous run of the
        # reference sequence, not all equal to cycle 0's.
        cfg = BASE.with_(
            num_shards=1, shard_index=0, partition_seed=PARTITION_SEED
        )
        reference = make_server(
            cfg, DocumentStore(cfg.shard_documents(full_docs), cfg.size_model)
        )
        reference.submit(parse_query("//nitf"), 0)
        ref_sigs = []
        for _ in range(64):
            cycle = reference.build_cycle()
            if cycle is None:
                break
            ref_sigs.append(program_signature(cycle))
        assert report.signatures, "no post-restart cycle decoded"
        positions = [
            ref_sigs.index(s) for s in report.signatures if s in ref_sigs
        ]
        assert len(positions) == len(report.signatures), (
            "cycle diverged from the clean reference",
            report.signatures,
        )
        assert positions == list(
            range(positions[0], positions[0] + len(positions))
        ), positions


@pytest.mark.cluster
class TestCircuitBreaker:
    def test_crash_loop_opens_breaker_and_pins_down(self):
        """A worker that dies instantly on every spawn must not be
        respawned forever: the breaker opens and the shard stays DOWN."""
        supervisor = ClusterSupervisor(
            1,
            partition_seed=PARTITION_SEED,
            serve_args=_serve_args(),
            journal=True,
            restart_backoff=0.05,
            restart_backoff_cap=0.1,
            max_restarts=2,
            crash_window=300.0,
        )

        async def run():
            workers = await asyncio.to_thread(supervisor.start)
            router = ClusterRouter(
                supervisor.partition, workers, ClusterConfig()
            )
            await router.start()
            monitor = asyncio.ensure_future(
                supervisor.monitor(router, poll_interval=0.05)
            )
            try:
                deadline = time.monotonic() + 120
                while not supervisor.broken[0]:
                    assert time.monotonic() < deadline, supervisor.events
                    if supervisor.procs[0].poll() is None:
                        supervisor.procs[0].kill()
                    await asyncio.sleep(0.05)
                # give the monitor a beat to pin the router state
                await asyncio.sleep(0.2)
                reply = await round_trip("127.0.0.1", router.port, "TUNE SHARD=0")
                return reply
            finally:
                monitor.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await monitor
                await router.stop()

        try:
            reply = asyncio.run(asyncio.wait_for(run(), timeout=300))
        finally:
            supervisor.stop()

        assert reply.startswith("RETRY_AFTER")
        kinds = [e["kind"] for e in supervisor.events]
        assert "circuit_open" in kinds
        # the breaker stopped the respawn loop at the limit
        assert supervisor.restarts[0] <= supervisor.max_restarts
