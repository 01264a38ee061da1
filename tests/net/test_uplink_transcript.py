"""Golden uplink transcript: the wire did not move.

Each digest below was captured at the parent commit (1ad2dbe), before
:mod:`repro.net.uplink` existed and every speaker still parsed the
uplink inline.  It is a SHA-256 over every TEXT line that crossed a
recording tap in a scripted session -- commands sent by the real
:class:`~repro.net.client.AsyncTwoTierClient` and by one-shot raw
lines, and every reply the daemon or router answered -- against two
topologies: one K = 2 daemon, and a splicing router over two sharded
K = 2 daemons.  The taps sit in front of the front door *and* of each
worker, so the router's own STATUS round trips are covered too.

The ``proxy`` digest was re-pinned once, when the router's second data
path went: its STATUS ``router`` block lost the ``moved`` and ``mode``
keys.  The parent's proxy transcript, hashed with a normaliser that also
drops those two keys, gives exactly the digest pinned here.

Normalised before hashing: STATUS payloads (connection counts race) down
to their nested key sets -- except
the front door's ``totals`` block, kept by name only: which worker keys it
sums is derived from the stats declaration since this change (it gained
``redelivered``; ``test_cluster.py`` pins the new set).  Dropped before
hashing: the pushed ``TRACE`` timelines (PR 18 moved them out of the
``CYCLE_END`` trailer onto their own TEXT line).
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
from typing import Dict, List

import pytest

from repro.broadcast.partition import PartitionMap
from repro.broadcast.server import DocumentStore
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig, ManualClock
from repro.net.cluster import ClusterConfig, ClusterRouter, WorkerAddress
from repro.net.framing import FrameKind, encode_frame, read_frame
from repro.net.uplink import round_trip
from repro.sim.config import small_setup
from repro.sim.simulation import build_collection

BASE = small_setup(document_count=48, num_data_channels=2)
PARTITION_SEED = 5

GOLDEN = {
    "daemon": "aa26c89bdb51aaedb62f0eb923bfc1f39391c095677dc7976b0bb004bafe15d2",
    "proxy": "a916df0d8db4bedafae3e96f800734efb3855d54296735715a68d008af63f93f",
}


def _key_tree(value):
    """A JSON payload reduced to its nested, sorted key structure."""
    if isinstance(value, dict):
        return {
            key: None if key == "totals" else _key_tree(value[key])
            for key in sorted(value)
        }
    return None


def _normalise(line: str) -> str:
    word, _, rest = line.partition(" ")
    if word == "STATUS" and rest:
        return "STATUS " + json.dumps(_key_tree(json.loads(rest)), sort_keys=True)
    return line


class _Tap:
    """A frame-level TCP relay that logs every TEXT line it carries."""

    def __init__(self, name: str, target_port: int) -> None:
        self.name = name
        self.target_port = target_port
        self.port = 0
        #: one ``["> command", "< reply", ...]`` list per accepted connection
        self.sessions: List[List[str]] = []
        self._tasks: List[asyncio.Task] = []
        self._tcp = None

    async def start(self) -> "_Tap":
        self._tcp = await asyncio.start_server(self._accept, "127.0.0.1", 0)
        self.port = self._tcp.sockets[0].getsockname()[1]
        return self

    async def _accept(self, reader, writer) -> None:
        log: List[str] = []
        self.sessions.append(log)
        self._tasks.append(asyncio.current_task())
        up_reader, up_writer = await asyncio.open_connection(
            "127.0.0.1", self.target_port
        )
        await asyncio.gather(
            self._relay(reader, up_writer, log, ">"),
            self._relay(up_reader, writer, log, "<"),
        )
        for w in (writer, up_writer):
            w.close()

    @staticmethod
    async def _relay(src, dst, log: List[str], arrow: str) -> None:
        try:
            while True:
                kind, payload = await read_frame(src)
                if kind is FrameKind.TEXT and not payload.startswith(b"TRACE "):
                    # Logged before it is forwarded, so a reply can never
                    # be recorded ahead of the command that caused it.
                    # Pushed trace timelines are left out: they carry clock
                    # stamps, and are the one line added since the capture.
                    log.append(f"{arrow} {_normalise(payload.decode('utf-8'))}")
                dst.write(encode_frame(kind, payload))
                await dst.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        try:
            if dst.can_write_eof():
                dst.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def stop(self) -> None:
        await asyncio.wait_for(asyncio.gather(*self._tasks), timeout=20)
        self._tcp.close()
        await self._tcp.wait_closed()


def _digest(taps: List[_Tap]) -> str:
    lines: List[str] = []
    for tap in taps:
        for index, session in enumerate(tap.sessions):
            lines.append(f"== {tap.name} #{index}")
            lines.extend(session)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


async def _staged(client: AsyncTwoTierClient) -> AsyncTwoTierClient:
    await client.connect()
    await client.tune()
    await client.submit()
    return client


async def _finish(clients: List[AsyncTwoTierClient]) -> None:
    reports = await asyncio.gather(*(c.run_session() for c in clients))
    assert all(report.satisfied for report in reports)
    for client in clients:
        await client.close()


async def _daemon_session() -> str:
    docs = build_collection(BASE)
    net = DaemonConfig(autostart=False, max_pending=4, clock=ManualClock())
    daemon = BroadcastDaemon(DocumentStore(docs), BASE, net)
    await daemon.start()
    tap = await _Tap("daemon", daemon.port).start()
    try:
        raw = functools.partial(round_trip, "127.0.0.1", tap.port)
        await raw("STATUS")
        first = await _staged(
            AsyncTwoTierClient(
                "//nitf", port=tap.port, arrival_time=0, client_key=7, trace=True
            )
        )
        assert (await raw("SUBMIT AT=0 KEY=7 //nitf")).split()[1] == str(
            first.query_id
        ), "duplicate keyed SUBMIT dedups"
        second = await _staged(
            AsyncTwoTierClient("//body", port=tap.port, arrival_time=0)
        )
        await raw("SUBMIT AT=5 KEY=9 TRACE=abc //head")
        for line in (
            "FROB 1",
            "SUBMIT",
            "SUBMIT AT=0",
            "SUBMIT AT=x //nitf",
            "SUBMIT FOO=1 //nitf",
            "SUBMIT SHARD=x //nitf",
            "SUBMIT SHARD=0 //no(t)valid",
            "TUNE SHARD=3",
            "TUNE SHARD=x",
            "status",
        ):
            await raw(line)
        await raw("SUBMIT //nitf")  # fills the fourth and last pending slot
        assert (await raw("SUBMIT AT=0 //body")).startswith("RETRY_AFTER")
        await raw("SUBMIT AT=0 TRACE=zz //body")
        daemon.start_broadcast()
        await _finish([first, second])
        await raw("STATUS")
        await raw("BYE")
    finally:
        await tap.stop()
        daemon.request_stop()
        await daemon.wait_done()
    return _digest([tap])


async def _cluster_session() -> str:
    docs = build_collection(BASE)
    partition = PartitionMap(2, seed=PARTITION_SEED)
    daemons: List[BroadcastDaemon] = []
    taps: Dict[str, _Tap] = {}
    for index in range(2):
        cfg = BASE.with_(
            num_shards=2, shard_index=index, partition_seed=PARTITION_SEED
        )
        net = DaemonConfig(
            autostart=False, shard=cfg.shard_identity, clock=ManualClock()
        )
        daemon = BroadcastDaemon(DocumentStore(cfg.shard_documents(docs)), cfg, net)
        await daemon.start()
        daemons.append(daemon)
        taps[f"w{index}"] = await _Tap(f"w{index}", daemon.port).start()
    router = ClusterRouter(
        partition,
        [WorkerAddress(i, "127.0.0.1", taps[f"w{i}"].port) for i in range(2)],
        ClusterConfig(),
    )
    await router.start()
    front = await _Tap("front", router.port).start()
    try:
        raw = functools.partial(round_trip, "127.0.0.1", front.port)
        await raw("STATUS")
        clients = [
            await _staged(
                AsyncTwoTierClient(
                    "//nitf",
                    port=front.port,
                    arrival_time=0,
                    client_key=11 + shard,
                    shard=shard,
                    trace=shard == 0,
                )
            )
            for shard in range(2)
        ]
        await raw("SUBMIT AT=0 KEY=13 //body")
        await raw("SUBMIT AT=0 KEY=14 SHARD=1 //body")
        for line in ("TUNE SHARD=7", "TUNE SHARD=x", "FROB", "RECV SHARD=9 1 2 -"):
            await raw(line)
        for daemon in daemons:
            daemon.start_broadcast()
        await _finish(clients)
        await raw("STATUS")
        await raw("BYE")
    finally:
        await front.stop()
        await router.stop()
        for tap in taps.values():
            await tap.stop()
        for daemon in daemons:
            daemon.request_stop()
            await daemon.wait_done()
    return _digest([front, taps["w0"], taps["w1"]])


SESSIONS = {
    "daemon": _daemon_session,
    "proxy": _cluster_session,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_uplink_transcript_matches_parent(name):
    digest = asyncio.run(asyncio.wait_for(SESSIONS[name](), timeout=60))
    assert digest == GOLDEN[name]
