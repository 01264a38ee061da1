"""The front-door router: routing, admission, aggregation, supervision.

In-process tests (tier-1) run real daemons and a real router inside one
event loop: shard-pinned routing, the query-hash fallback, wrong-shard
rejection at the worker, cluster-wide RETRY_AFTER admission, and STATUS
and ``/metrics`` aggregation.

The ``cluster``-marked tests (excluded from tier-1; ``-m cluster``)
additionally exercise the real deployment shape: ``repro serve --shard
i/N`` worker subprocesses under a :class:`ClusterSupervisor`, and the
``serve --workers N`` CLI entry point with SIGINT drain.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.broadcast.partition import PartitionMap
from repro.broadcast.server import DocumentStore
from repro.net import AsyncTwoTierClient, Backpressure, BroadcastDaemon, DaemonConfig
from repro.net.cluster import (
    ClusterConfig,
    ClusterRouter,
    ClusterSupervisor,
    WorkerAddress,
)
from repro.net.daemon import DaemonStats
from repro.net.framing import encode_text, read_frame
from repro.net.loadgen import build_load_plan, run_load
from repro.net.uplink import parse_reply, round_trip
from repro.obs.telemetry import TelemetryConfig, lint_openmetrics, scrape
from repro.obs.telemetry.exporter import status_total_keys
from repro.sim.config import small_setup
from repro.sim.simulation import build_collection
from repro.xpath.generator import generate_workload

NUM_SHARDS = 2
PARTITION_SEED = 5

BASE = small_setup(document_count=48, n_q=6, arrival_cycles=2)


def _shard_configs():
    return [
        BASE.with_(
            num_shards=NUM_SHARDS,
            shard_index=i,
            partition_seed=PARTITION_SEED,
        )
        for i in range(NUM_SHARDS)
    ]


@pytest.fixture(scope="module")
def full_docs():
    return build_collection(BASE)


def _shard_query(full_docs, shard: int, seed: int = 33) -> str:
    """A query guaranteed to match >= 1 document of *shard*."""
    pm = PartitionMap(NUM_SHARDS, seed=PARTITION_SEED)
    docs = [d for d in full_docs if pm.shard_of(d.doc_id) == shard]
    return str(generate_workload(docs, 1, seed=seed)[0])


class _Cluster:
    """Daemons + router in this event loop, with uniform teardown."""

    def __init__(self, full_docs, config: ClusterConfig, autostart=True,
                 telemetry=False):
        self.full_docs = full_docs
        self.config = config
        self.autostart = autostart
        self.telemetry = telemetry
        self.daemons = []
        self.router = None

    async def __aenter__(self) -> "_Cluster":
        for cfg in _shard_configs():
            docs = cfg.shard_documents(self.full_docs)
            net = DaemonConfig(
                autostart=self.autostart,
                shard=cfg.shard_identity,
                telemetry=(
                    TelemetryConfig(metrics_port=0) if self.telemetry else None
                ),
            )
            daemon = BroadcastDaemon(DocumentStore(docs), cfg, net)
            await daemon.start()
            self.daemons.append(daemon)
        self.router = ClusterRouter(
            PartitionMap(NUM_SHARDS, seed=PARTITION_SEED),
            [
                WorkerAddress(i, "127.0.0.1", d.port, d.metrics_port)
                for i, d in enumerate(self.daemons)
            ],
            self.config,
        )
        await self.router.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.router.stop()
        # LIFO: each daemon's stop restores the process-wide obs
        # registry it displaced, so telemetry-enabled shards unwind
        # cleanly back to the pre-cluster state.
        for daemon in reversed(self.daemons):
            daemon.request_stop()
            await daemon.wait_done()


class TestProxyRouting:
    def test_pinned_session_end_to_end(self, full_docs):
        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                report = await AsyncTwoTierClient(
                    _shard_query(full_docs, 1),
                    port=cluster.router.port,
                    shard=1,
                ).run()
                assert report.satisfied
                assert cluster.router.stats.routed_by_shard == [0, 1]
                assert cluster.router.stats.proxied_total == 1

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_unpinned_submit_routes_by_query_hash(self, full_docs):
        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                pm = cluster.router.partition
                query = _shard_query(full_docs, 0)
                want = pm.shard_for_query(query)
                reply = await round_trip(
                    "127.0.0.1", cluster.router.port, f"SUBMIT {query}"
                )
                assert cluster.router.stats.routed_by_shard[want] == 1
                # the worker answered through the splice (ACK if the
                # query matches that shard, ERR otherwise -- either way
                # the reply came from the right worker)
                assert reply.split()[0] in ("ACK", "ERR")

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_predicate_query_hashes_the_text_the_worker_parses(self, full_docs):
        """Regression: the router dropped every leading token containing
        ``=`` before hashing, so ``SUBMIT //nitf[@id="7"]`` was spread by
        the hash of the *empty string* -- and then refused by the worker
        as an unknown option.  Router and worker now read one grammar."""

        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                pm = cluster.router.partition
                query = next(
                    text
                    for text in (f'//nitf[@id="{n}"]' for n in range(64))
                    if pm.shard_for_query(text) != pm.shard_for_query("")
                )
                want = pm.shard_for_query(query)
                reply = await round_trip(
                    "127.0.0.1", cluster.router.port, f"SUBMIT AT=0 {query}"
                )
                assert cluster.router.stats.routed_by_shard[want] == 1
                assert reply.startswith("ERR the air index is purely structural")

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_unknown_and_lower_case_options_rejected_at_router(self, full_docs):
        """Regression: ``TUNE shard=1`` used to route (to shard 0) and
        tune there; the front door now answers what a worker would."""

        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                replies = [
                    await round_trip("127.0.0.1", cluster.router.port, line)
                    for line in ("TUNE shard=1", "TUNE FOO=1", "SUBMIT at=5 //nitf")
                ]
                assert replies == [
                    "ERR unknown TUNE option 'shard'",
                    "ERR unknown TUNE option 'FOO'",
                    "ERR unknown SUBMIT option 'at'",
                ]
                assert cluster.router.stats.routed_total == 0
                assert cluster.router.stats.errors_total == 3

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_wrong_shard_rejected_by_worker(self, full_docs):
        """The worker re-validates SHARD=: a session routed to the
        wrong worker fails loudly instead of silently serving."""

        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                # direct to worker 0, claiming shard 1
                reply = await round_trip(
                    "127.0.0.1", cluster.daemons[0].port, "TUNE SHARD=1"
                )
                assert reply.startswith("ERR wrong shard")
                reply = await round_trip(
                    "127.0.0.1", cluster.daemons[0].port,
                    f"SUBMIT SHARD=1 {_shard_query(full_docs, 1)}",
                )
                assert reply.startswith("ERR wrong shard")

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_out_of_range_shard_rejected_at_router(self, full_docs):
        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                reply = await round_trip(
                    "127.0.0.1", cluster.router.port, "TUNE SHARD=7"
                )
                assert reply.startswith("ERR shard 7 out of range")
                reply = await round_trip(
                    "127.0.0.1", cluster.router.port, "TUNE SHARD=x"
                )
                assert reply.startswith("ERR SHARD must be an integer")

        asyncio.run(asyncio.wait_for(run(), timeout=60))


class TestRouterStop:
    def test_stop_ends_a_live_splice(self, full_docs):
        """Regression: ``stop()`` closed the listener and walked away from
        its splice handlers.  Before Python 3.12 it returned with the
        session still open (the handler died later, cancelled by the
        loop's shutdown); from 3.12 on ``Server.wait_closed()`` waits for
        every connection, so ``stop()`` never returned at all."""

        async def run():
            # workers held pre-broadcast: the tuned session stays silent
            # and open, so only stop() can end it
            cluster = _Cluster(full_docs, ClusterConfig(), autostart=False)
            await cluster.__aenter__()
            router = cluster.router
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                writer.write(encode_text("TUNE SHARD=1"))
                await writer.drain()
                _kind, payload = await read_frame(reader)
                assert payload.decode().startswith("TUNED")
                assert router.active == [0, 1]
                before = asyncio.all_tasks()

                await asyncio.wait_for(router.stop(), timeout=10)

                assert router.active_sessions == 0
                assert await asyncio.wait_for(reader.read(), timeout=10) == b""
                writer.close()
                # nothing of the router outlives stop(): every task alive
                # now was alive before it and belongs to a worker daemon
                # (its connection handler for the spliced session, at most)
                assert asyncio.all_tasks() <= before
                assert not router._handlers
                assert not any(
                    "ClusterRouter" in repr(task.get_coro())
                    for task in asyncio.all_tasks()
                )
            finally:
                await cluster.__aexit__(None, None, None)

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_stop_twice_and_before_start_are_harmless(self, full_docs):
        async def run():
            router = ClusterRouter(
                PartitionMap(1, seed=PARTITION_SEED),
                [WorkerAddress(0, "127.0.0.1", 1)],
            )
            await router.stop()
            await router.start()
            await router.stop()
            await router.stop()

        asyncio.run(asyncio.wait_for(run(), timeout=60))


class TestAdmission:
    def test_cluster_wide_retry_after(self, full_docs):
        """With workers held pre-broadcast (autostart=False), pending
        queries accumulate; once their cluster-wide total reaches
        max_sessions the front door sheds the next session."""

        async def run():
            config = ClusterConfig(max_sessions=2, admission_refresh=0.0)
            async with _Cluster(
                full_docs, config, autostart=False
            ) as cluster:
                for shard in (0, 1):
                    reply = await round_trip(
                        "127.0.0.1", cluster.router.port,
                        f"SUBMIT SHARD={shard} "
                        f"{_shard_query(full_docs, shard)}",
                    )
                    assert reply.startswith("ACK"), reply
                with pytest.raises(Backpressure):
                    client = AsyncTwoTierClient(
                        _shard_query(full_docs, 0),
                        port=cluster.router.port,
                        shard=0,
                    )
                    await client.connect()
                    try:
                        await client.tune()
                    finally:
                        await client.close()
                assert cluster.router.stats.rejected_overload == 1

        asyncio.run(asyncio.wait_for(run(), timeout=60))


class TestAggregation:
    def test_status_totals_and_shards(self, full_docs):
        async def run():
            async with _Cluster(full_docs, ClusterConfig()) as cluster:
                for shard in (0, 1):
                    await AsyncTwoTierClient(
                        _shard_query(full_docs, shard),
                        port=cluster.router.port,
                        shard=shard,
                    ).run()
                status = parse_reply(
                    await round_trip("127.0.0.1", cluster.router.port, "STATUS")
                ).info
                # cluster totals are the daemon's declared summable keys
                # (the hand-kept tuple this replaces had lost "redelivered")
                assert tuple(status["totals"]) == status_total_keys(DaemonStats)
                assert "redelivered" in status["totals"]
                assert status["num_shards"] == NUM_SHARDS
                assert status["workers_up"] == NUM_SHARDS
                assert status["totals"]["completed"] == 2
                assert set(status["shards"]) == {"0", "1"}
                for shard in ("0", "1"):
                    assert status["shards"][shard]["completed"] == 1
                assert status["partition"] == PartitionMap(
                    NUM_SHARDS, seed=PARTITION_SEED
                ).describe()
                assert status["router"]["routed"] == 2
                assert status["router"]["proxied"] == 2
                assert not {"moved", "mode"} & set(status["router"])

        asyncio.run(asyncio.wait_for(run(), timeout=60))

    def test_front_door_metrics_aggregate_with_shard_labels(self, full_docs):
        async def run():
            config = ClusterConfig(metrics_port=0)
            async with _Cluster(
                full_docs, config, telemetry=True
            ) as cluster:
                await AsyncTwoTierClient(
                    _shard_query(full_docs, 1),
                    port=cluster.router.port,
                    shard=1,
                ).run()
                code, text = await scrape(
                    "127.0.0.1", cluster.router.metrics_port
                )
                assert code == 200
                lint_openmetrics(text)  # one TYPE per family, well-formed
                assert 'shard="0"' in text
                assert 'shard="1"' in text
                assert "router_sessions_routed" in text
                assert 'net_queries_admitted_total{shard="1"} 1' in text

        asyncio.run(asyncio.wait_for(run(), timeout=60))


@pytest.mark.cluster
class TestSupervisor:
    """Real worker subprocesses under the supervisor (slow; -m cluster)."""

    def test_two_worker_cluster_serves_a_load_plan(self, full_docs):
        serve_args = [
            "--count", str(BASE.document_count),
            "--seed", str(BASE.collection_seed),
            "--capacity", str(BASE.cycle_data_capacity),
            "--log-level", "warning",
        ]
        supervisor = ClusterSupervisor(
            2, partition_seed=PARTITION_SEED, serve_args=serve_args
        )

        async def run():
            workers = await asyncio.to_thread(supervisor.start)
            assert [w.shard for w in workers] == [0, 1]
            router = ClusterRouter(supervisor.partition, workers, ClusterConfig())
            await router.start()
            try:
                plan = build_load_plan(
                    full_docs,
                    8,
                    seed=2,
                    granularity=2,
                    partition_seed=PARTITION_SEED,
                )
                report = await run_load(
                    plan, "127.0.0.1", router.port, num_workers=2
                )
            finally:
                await router.stop()
            return report, router.stats.proxied_total

        try:
            report, proxied = asyncio.run(asyncio.wait_for(run(), timeout=120))
        finally:
            codes = supervisor.stop()
        assert report.satisfied == 8
        assert report.failed == 0
        # every session crossed the router's splice
        assert proxied >= report.sessions
        assert codes == [0, 0]  # SIGINT drained both workers cleanly

    def test_heartbeat_kills_a_hung_worker_and_the_restart_serves(
        self, tmp_path, full_docs
    ):
        """A SIGSTOPped worker keeps its socket but answers nothing: two
        missed heartbeats (2 s each) escalate to SIGKILL, the exit-watch
        restarts it under epoch 1, and a later session is satisfied."""
        serve_args = [
            "--count", str(BASE.document_count),
            "--seed", str(BASE.collection_seed),
            "--capacity", str(BASE.cycle_data_capacity),
            "--log-level", "warning",
        ]
        supervisor = ClusterSupervisor(
            1,
            partition_seed=PARTITION_SEED,
            serve_args=serve_args,
            workdir=tmp_path / "cluster",
            heartbeat_interval=0.2,
        )
        query = str(generate_workload(full_docs, 1, seed=33)[0])

        async def run():
            workers = await asyncio.to_thread(supervisor.start)
            router = ClusterRouter(supervisor.partition, workers, ClusterConfig())
            await router.start()
            monitor = asyncio.create_task(supervisor.monitor(router))
            try:
                os.kill(supervisor.procs[0].pid, signal.SIGSTOP)
                while not any(e["kind"] == "restart" for e in supervisor.events):
                    await asyncio.sleep(0.05)
                return await AsyncTwoTierClient(query, port=router.port, shard=0).run()
            finally:
                monitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await monitor
                await router.stop()

        try:
            report = asyncio.run(asyncio.wait_for(run(), timeout=120))
        finally:
            codes = supervisor.stop()
        kinds = [event["kind"] for event in supervisor.events]
        assert kinds == ["heartbeat_kill", "crash", "restart"], supervisor.events
        assert supervisor.events[0]["misses"] == 2
        assert supervisor.events[2]["epoch"] == 1
        assert report.satisfied
        assert codes == [0]  # the restarted worker drains cleanly


@pytest.mark.cluster
class TestServeWorkersCLI:
    """``python -m repro serve --workers N`` end to end."""

    def test_cluster_smoke_with_sigint_drain(self, tmp_path, full_docs):
        port_file = tmp_path / "front.port"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", "2",
                "--partition-seed", str(PARTITION_SEED),
                "--count", str(BASE.document_count),
                "--seed", str(BASE.collection_seed),
                "--capacity", str(BASE.cycle_data_capacity),
                "--port", "0",
                "--port-file", str(port_file),
                "--log-level", "warning",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    raise AssertionError(
                        f"serve exited early: {proc.communicate()[1].decode()}"
                    )
                if port_file.exists() and port_file.read_text().strip():
                    break
                time.sleep(0.05)
            port = int(port_file.read_text().strip())

            async def drive():
                plan = build_load_plan(
                    full_docs,
                    4,
                    seed=6,
                    granularity=2,
                    partition_seed=PARTITION_SEED,
                )
                return await run_load(plan, "127.0.0.1", port, num_workers=2)

            report = asyncio.run(asyncio.wait_for(drive(), timeout=120))
            assert report.satisfied == 4
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert code == 0, proc.communicate()[1].decode()


@pytest.mark.cluster
class TestSupervisorFailFast:
    """The port-file handshake must fail fast, not time out."""

    def test_worker_dead_before_bind_raises_with_log_tail(self, tmp_path):
        supervisor = ClusterSupervisor(
            2,
            partition_seed=PARTITION_SEED,
            # an unreadable collection kills the worker before it binds
            serve_args=["--collection", str(tmp_path / "no-such-collection")],
            workdir=tmp_path / "cluster",
            startup_timeout=120.0,
        )
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeError) as excinfo:
                supervisor.start()
        finally:
            supervisor.stop()
        # fail-fast: the exit was noticed, not the 120s timeout
        assert time.monotonic() - t0 < 60
        message = str(excinfo.value)
        assert "before binding" in message
        assert "exited with" in message
        assert "log tail" in message
        # every already-spawned worker was reaped, none leaked
        assert all(proc.poll() is not None for proc in supervisor.procs)
