"""Failure-domain behaviour, in one process and one event loop.

Router health-state transitions against dead ports, graceful
degradation (one shard down, the other streaming), splice idle
timeouts, the typed :class:`WireError` for corrupt downlinks, and the
full client resume path: tune -> submit -> worker "crash"
(``daemon.abort()``) -> successor daemon on the same journal under a
bumped epoch -> idempotent resubmit -> satisfied.  The multi-process
SIGKILL version of the same story is ``test_chaos_cluster.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.broadcast.partition import PartitionMap, ShardIdentity
from repro.broadcast.server import DocumentStore
from repro.net import (
    AsyncTwoTierClient,
    Backpressure,
    BroadcastDaemon,
    ClusterConfig,
    ClusterRouter,
    DaemonConfig,
    ShardHealth,
    WireError,
    WorkerAddress,
)
from repro.net.framing import FrameKind, encode_frame, encode_text, read_frame
from repro.net.uplink import round_trip
from repro.net.wire import encode_cycle
from repro.sim.config import small_setup
from repro.sim.simulation import make_server
from repro.tools.persist import QueryJournal
from repro.xpath.generator import generate_workload

NUM_SHARDS = 2
PARTITION_SEED = 5

BASE = small_setup(document_count=48, n_q=6, arrival_cycles=2)


@pytest.fixture(scope="module")
def full_docs():
    from repro.sim.simulation import build_collection

    return build_collection(BASE)


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def _shard_query(full_docs, shard: int, seed: int = 33) -> str:
    pm = PartitionMap(NUM_SHARDS, seed=PARTITION_SEED)
    docs = [d for d in full_docs if pm.shard_of(d.doc_id) == shard]
    return str(generate_workload(docs, 1, seed=seed)[0])


async def _dead_port() -> int:
    """A port that was bound a moment ago and is now closed."""
    server = await asyncio.start_server(
        lambda r, w: None, "127.0.0.1", 0
    )
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()
    return port


class TestRouterHealth:
    def test_dead_shard_goes_down_and_answers_retry_after(self):
        """Consecutive connect failures walk UP -> DEGRADED -> DOWN;
        a DOWN shard is rejected at the front door without a dial."""

        async def body():
            port = await _dead_port()
            router = ClusterRouter(
                PartitionMap(1, seed=0),
                [WorkerAddress(0, "127.0.0.1", port)],
                ClusterConfig(
                    connect_retries=0,
                    down_after=2,
                    down_probe_interval=60.0,
                ),
            )
            await router.start()
            try:
                first = await round_trip("127.0.0.1", router.port, "TUNE SHARD=0")
                assert first.startswith("RETRY_AFTER")
                assert router.health[0] is ShardHealth.DEGRADED
                second = await round_trip("127.0.0.1", router.port, "TUNE SHARD=0")
                assert second.startswith("RETRY_AFTER")
                assert router.health[0] is ShardHealth.DOWN
                dialed = router.stats.rejected_unavailable
                third = await round_trip("127.0.0.1", router.port, "TUNE SHARD=0")
                assert third.startswith("RETRY_AFTER")
                # rejected at the door: no connect attempt, just a count
                assert router.stats.rejected_unavailable == dialed + 1
                return router.aggregate_status
            finally:
                await router.stop()

        _run(body())

    def test_update_worker_restores_up(self, full_docs):
        """A restarted worker re-registered via update_worker routes
        again immediately (the supervisor's post-restart call)."""

        async def body():
            cfg = BASE.with_(
                num_shards=1, shard_index=0, partition_seed=PARTITION_SEED
            )
            daemon = BroadcastDaemon(
                DocumentStore(cfg.shard_documents(full_docs)),
                cfg,
                DaemonConfig(shard=cfg.shard_identity),
            )
            await daemon.start()
            router = ClusterRouter(
                PartitionMap(1, seed=PARTITION_SEED),
                [WorkerAddress(0, "127.0.0.1", await _dead_port())],
                ClusterConfig(
                    connect_retries=0, down_after=1, down_probe_interval=60.0
                ),
            )
            await router.start()
            try:
                down = await round_trip("127.0.0.1", router.port, "TUNE SHARD=0")
                assert down.startswith("RETRY_AFTER")
                assert router.health[0] is ShardHealth.DOWN

                router.update_worker(
                    0, WorkerAddress(0, "127.0.0.1", daemon.port)
                )
                assert router.health[0] is ShardHealth.UP
                report = await AsyncTwoTierClient(
                    "//nitf", port=router.port, shard=0
                ).run()
                return report
            finally:
                await router.stop()
                daemon.request_stop()
                await daemon.wait_done()

        report = _run(body())
        assert report.satisfied

    def test_degraded_cluster_serves_remaining_shards(self, full_docs):
        """Shard 0 dead: its sessions get RETRY_AFTER, shard 1 streams."""

        async def body():
            cfg = BASE.with_(
                num_shards=NUM_SHARDS,
                shard_index=1,
                partition_seed=PARTITION_SEED,
            )
            daemon = BroadcastDaemon(
                DocumentStore(cfg.shard_documents(full_docs)),
                cfg,
                DaemonConfig(shard=cfg.shard_identity),
            )
            await daemon.start()
            router = ClusterRouter(
                PartitionMap(NUM_SHARDS, seed=PARTITION_SEED),
                [
                    WorkerAddress(0, "127.0.0.1", await _dead_port()),
                    WorkerAddress(1, "127.0.0.1", daemon.port),
                ],
                ClusterConfig(connect_retries=0, down_after=1),
            )
            await router.start()
            try:
                with pytest.raises(Backpressure):
                    await AsyncTwoTierClient(
                        _shard_query(full_docs, 0), port=router.port, shard=0
                    ).run()
                report = await AsyncTwoTierClient(
                    _shard_query(full_docs, 1), port=router.port, shard=1
                ).run()
                status = await router.aggregate_status()
                return report, status
            finally:
                await router.stop()
                daemon.request_stop()
                await daemon.wait_done()

        report, status = _run(body())
        assert report.satisfied
        assert status["health"][0] == "down"
        assert status["health"][1] == "up"
        assert status["router"]["rejected_unavailable"] >= 1

    def test_splice_idle_timeout_reclaims_wedged_sessions(self, full_docs):
        """A tuned session moving no bytes is closed by the idle timer
        (the hung-worker case SIGSTOP chaos produces)."""

        async def body():
            cfg = BASE.with_(
                num_shards=1, shard_index=0, partition_seed=PARTITION_SEED
            )
            daemon = BroadcastDaemon(
                DocumentStore(cfg.shard_documents(full_docs)),
                cfg,
                DaemonConfig(autostart=False, shard=cfg.shard_identity),
            )
            await daemon.start()
            router = ClusterRouter(
                PartitionMap(1, seed=PARTITION_SEED),
                [WorkerAddress(0, "127.0.0.1", daemon.port)],
                ClusterConfig(splice_idle_timeout=0.2),
            )
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                writer.write(encode_text("TUNE SHARD=0"))
                await writer.drain()
                kind, payload = await read_frame(reader)
                assert payload.decode().startswith("TUNED")
                # idle both ways now; the router must hang up on us
                leftover = await asyncio.wait_for(reader.read(), timeout=10)
                assert leftover == b""
                writer.close()
                return router.stats.splices_idle_closed
            finally:
                await router.stop()
                daemon.request_stop()
                await daemon.wait_done()

        assert _run(body()) >= 1


class TestClientResume:
    def test_resume_across_worker_restart(self, full_docs, tmp_path):
        """The keystone resume path, in-process: abort() stands in for
        SIGKILL, a successor daemon on the same journal stands in for
        the supervisor's respawn."""

        async def body():
            cfg = BASE.with_(
                num_shards=1, shard_index=0, partition_seed=PARTITION_SEED
            )
            docs = DocumentStore(cfg.shard_documents(full_docs))
            journal_path = tmp_path / "worker-0.journal"
            first = BroadcastDaemon(
                docs,
                cfg,
                DaemonConfig(
                    autostart=False,  # downlink stays silent: the
                    # query is admitted but unsatisfied at crash time
                    shard=cfg.shard_identity,
                    journal=QueryJournal(journal_path),
                ),
            )
            await first.start()
            router = ClusterRouter(
                PartitionMap(1, seed=PARTITION_SEED),
                [WorkerAddress(0, "127.0.0.1", first.port)],
                ClusterConfig(connect_retries=0, down_probe_interval=0.05),
            )
            await router.start()
            second = None
            try:
                client = AsyncTwoTierClient(
                    "//nitf",
                    port=router.port,
                    shard=0,
                    client_key=21,
                    resume=True,
                )
                task = asyncio.ensure_future(client.run())

                deadline = asyncio.get_running_loop().time() + 30
                while not first.server.pending:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                await first.abort()  # SIGKILL, in-process

                import dataclasses

                identity = dataclasses.replace(cfg.shard_identity, epoch=1)
                second = BroadcastDaemon(
                    docs,
                    cfg,
                    DaemonConfig(
                        shard=identity, journal=QueryJournal(journal_path)
                    ),
                )
                await second.start()
                router.update_worker(
                    0, WorkerAddress(0, "127.0.0.1", second.port)
                )
                report = await asyncio.wait_for(task, timeout=45)
                return report, second.journal_replayed, client
            finally:
                await router.stop()
                if second is not None:
                    second.request_stop()
                    await second.wait_done()

        report, replayed, client = _run(body())
        assert report.satisfied
        assert report.resumes >= 1
        assert report.epoch_bumps == 1
        assert client.epoch == 1
        # the journal carried the admission across the crash; the
        # client's resubmit dedup-hit it instead of double-admitting
        assert replayed == 1


class TestWireError:
    def test_corrupt_cycle_header_raises_typed_error(self):
        """A decode failure surfaces as WireError with frame context,
        not a bare disconnect."""

        async def fake_worker(reader, writer):
            while True:
                kind, payload = await read_frame(reader)
                line = payload.decode()
                if line.startswith("TUNE"):
                    banner = json.dumps(
                        {
                            "num_channels": 1,
                            "ack_required": False,
                            "checksum_bytes": 0,
                        }
                    )
                    writer.write(encode_text(f"TUNED {banner}"))
                elif line.startswith("SUBMIT"):
                    writer.write(encode_text("ACK 0 0"))
                    writer.write(
                        encode_frame(FrameKind.CYCLE_BEGIN, b"not json")
                    )
                await writer.drain()

        async def body():
            server = await asyncio.start_server(
                fake_worker, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                client = AsyncTwoTierClient("//nitf", port=port)
                with pytest.raises(WireError) as excinfo:
                    await client.run()
                return excinfo.value
            finally:
                server.close()
                await server.wait_closed()

        error = _run(body())
        assert error.frame_kind == "CYCLE_BEGIN"
        assert error.phase == "decode"
        assert "malformed cycle header" in str(error)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("plan", 5),
            ("plan", {"k": "x"}),
            ("cluster", 7),
            ("cluster", {"shard": "a"}),
            ("cluster", {"shard": 0, "epoch": 0, "map": 3}),
        ],
        ids=repr,
    )
    def test_hostile_plan_or_cluster_raises_typed_error(self, full_docs, key, value):
        """The ``plan`` and ``cluster`` keys of an otherwise honest
        CYCLE_BEGIN are refused where the header is parsed, so the session
        ends in a typed WireError, not in the client's reads of them."""
        store = DocumentStore(full_docs, BASE.size_model)
        server = make_server(BASE, store)
        server.submit(generate_workload(full_docs, 1, seed=33)[0], arrival_time=0)
        cycle = server.build_cycle()
        frames = encode_cycle(cycle, store, **{key: value})

        async def fake_worker(reader, writer):
            while True:
                kind, payload = await read_frame(reader)
                line = payload.decode()
                if line.startswith("TUNE"):
                    writer.write(encode_text('TUNED {"num_channels": 1}'))
                elif line.startswith("SUBMIT"):
                    writer.write(encode_text("ACK 0 0"))
                    for frame in frames:
                        writer.write(encode_frame(frame.kind, frame.payload))
                await writer.drain()

        async def body():
            server = await asyncio.start_server(fake_worker, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = AsyncTwoTierClient("//nitf", port=port)
                with pytest.raises(WireError) as excinfo:
                    await client.run()
                return excinfo.value
            finally:
                server.close()
                await server.wait_closed()

        error = _run(body())
        assert error.frame_kind == "CYCLE_BEGIN"
        assert error.phase == "decode"

    @pytest.mark.parametrize(
        "banner",
        [
            {"cluster": 7},
            {"num_channels": "x"},
            {"cluster": {"shard": 0, "epoch": "e"}},
        ],
        ids=repr,
    )
    def test_hostile_tuned_banner_raises_typed_error(self, banner):
        """The TUNED banner goes through the checks a CYCLE_BEGIN header
        gets, so a hostile one ends the session in a typed WireError
        instead of a bare exception from reading it."""

        async def fake_worker(reader, writer):
            while True:
                _kind, payload = await read_frame(reader)
                if payload.decode().startswith("TUNE"):
                    writer.write(encode_text(f"TUNED {json.dumps(banner)}"))
                    await writer.drain()

        async def body():
            server = await asyncio.start_server(fake_worker, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = AsyncTwoTierClient("//nitf", port=port)
                with pytest.raises(WireError) as excinfo:
                    await client.run()
                return excinfo.value
            finally:
                server.close()
                await server.wait_closed()

        error = _run(body())
        assert error.phase == "tune"
        assert error.frame_kind is None
