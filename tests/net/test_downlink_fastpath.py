"""Downlink hot path: share-once encoding, slow readers, decode reuse.

Three properties of the rewritten streaming path are pinned here:

* frame encoding happens once per cycle, independent of how many
  subscribers are tuned (the same bytes objects fan out to everyone);
* a stalled or slow reader is evicted above ``MAX_BUFFERED_BYTES`` and
  never blocks the fan-out to the other subscribers (the drain gate);
* :class:`~repro.net.wire.CycleDecoder` instances in one process share
  decoded cycles keyed by the exact frame bytes, so N co-located
  clients pay for one decode, and any byte difference misses the cache.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.broadcast.server import DocumentStore
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.net.daemon import DRAIN_HIGH_WATER, MAX_BUFFERED_BYTES, _Connection
from repro.net.framing import FrameKind, encode_text, read_frame
from repro.net.wire import CycleDecoder, WireProtocolError, encode_cycle
from repro.sim.config import small_setup
from repro.sim.simulation import make_server


@pytest.fixture(scope="module")
def store(nitf_docs):
    return DocumentStore(nitf_docs[:30])


@pytest.fixture()
def config():
    return small_setup(document_count=30)


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def _with_daemon(store, config, net, body):
    daemon = BroadcastDaemon(store, config, net)
    await daemon.start()
    try:
        return await body(daemon)
    finally:
        daemon.request_stop()
        await daemon.wait_done()


# ----------------------------------------------------------------------
# Share-once frame encoding
# ----------------------------------------------------------------------


class TestEncodeOnce:
    def _measure(self, store, config, n_clients: int):
        """Stream one deduped workload to *n_clients* subscribers and
        return (frames_encoded, frames_sent, cycles)."""

        async def body(daemon):
            clients = [
                # Same KEY: the uplink dedups to ONE pending query, so
                # every run broadcasts the identical cycle sequence and
                # only the audience size varies.
                AsyncTwoTierClient(
                    "//nitf", port=daemon.port, arrival_time=0, client_key=7
                )
                for _ in range(n_clients)
            ]
            for c in clients:
                await c.connect()
                await c.tune()
            for c in clients:
                await c.submit()
            daemon.start_broadcast()
            reports = await asyncio.gather(*(c.run_session() for c in clients))
            for c in clients:
                await c.close()
            assert all(r.satisfied for r in reports)
            return (
                daemon.stats.frames_encoded,
                daemon.stats.frames_sent,
                daemon.stats.cycles_streamed,
            )

        net = DaemonConfig(autostart=False)
        return _run(_with_daemon(store, config, net, body))

    def test_encode_count_independent_of_connection_count(self, store, config):
        solo = self._measure(store, config, n_clients=1)
        crowd = self._measure(store, config, n_clients=4)
        assert solo[2] == crowd[2], "audience size changed the cycle count"
        assert solo[0] == crowd[0], (
            f"frames_encoded grew with subscribers: {solo[0]} -> {crowd[0]}"
        )
        # Every frame that went on air was encoded exactly once.
        assert crowd[0] == crowd[1]
        assert crowd[0] > 0


# ----------------------------------------------------------------------
# Slow readers: drain gating and eviction
# ----------------------------------------------------------------------


class _ScriptTransport:
    """Transport double with a scripted write-buffer size."""

    def __init__(self, buffered: int) -> None:
        self.buffered = buffered
        self.limits = None

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        self.limits = (high, low)


class _ScriptWriter:
    """StreamWriter double: records writes, counts (or stalls) drains."""

    def __init__(self, buffered: int = 0, stall: bool = False) -> None:
        self.transport = _ScriptTransport(buffered)
        self.wrote = []
        self.drains = 0
        self.stall = stall

    def write(self, blob: bytes) -> None:
        self.wrote.append(blob)

    async def drain(self) -> None:
        self.drains += 1
        if self.stall:
            await asyncio.Event().wait()  # a reader that never drains

    def close(self) -> None:
        pass


class TestSlowReader:
    def _daemon(self, store, config, **net_kwargs):
        return BroadcastDaemon(
            store, config, DaemonConfig(autostart=False, **net_kwargs)
        )

    def test_fire_and_forget_below_high_water(self, store, config):
        async def body():
            daemon = self._daemon(store, config)
            writer = _ScriptWriter(buffered=DRAIN_HIGH_WATER - 1)
            conn = _Connection(None, writer, tuned=True)
            await daemon._send(conn, b"frame")
            return writer, conn, daemon

        writer, conn, daemon = _run(body())
        assert writer.wrote == [b"frame"]
        assert writer.drains == 0, "sends below high water must not drain"
        assert not conn.closed
        assert daemon.stats.slow_consumers_evicted == 0

    def test_drains_above_high_water(self, store, config):
        async def body():
            daemon = self._daemon(store, config)
            writer = _ScriptWriter(buffered=DRAIN_HIGH_WATER + 1)
            conn = _Connection(None, writer, tuned=True)
            await daemon._send(conn, b"frame")
            return writer, conn

        writer, conn = _run(body())
        assert writer.drains == 1
        assert not conn.closed

    def test_evicts_above_buffer_cap_without_draining(self, store, config):
        async def body():
            daemon = self._daemon(store, config)
            # Stalled: a drain here would never return -- eviction must
            # happen first, without ever touching drain.
            writer = _ScriptWriter(
                buffered=MAX_BUFFERED_BYTES + 1, stall=True
            )
            conn = _Connection(None, writer, tuned=True)
            daemon._connections.append(conn)
            await asyncio.wait_for(daemon._send(conn, b"frame"), timeout=5)
            return writer, conn, daemon

        writer, conn, daemon = _run(body())
        assert conn.closed, "over-cap subscriber must be evicted"
        assert writer.drains == 0, "eviction must not wait on the stalled reader"
        assert daemon.stats.slow_consumers_evicted == 1
        assert conn not in daemon._connections

    def test_stalled_reader_does_not_block_fanout(self, store, config):
        """The satellite bug: one stalled reader used to hold every
        other subscriber's frame hostage inside the per-frame gather."""

        async def body():
            daemon = self._daemon(store, config)
            stalled = _Connection(
                None,
                _ScriptWriter(
                    buffered=MAX_BUFFERED_BYTES + 1, stall=True
                ),
                tuned=True,
            )
            healthy = _Connection(None, _ScriptWriter(buffered=0), tuned=True)
            await asyncio.wait_for(
                asyncio.gather(
                    daemon._send(stalled, b"frame"),
                    daemon._send(healthy, b"frame"),
                ),
                timeout=5,
            )
            return stalled, healthy

        stalled, healthy = _run(body())
        assert stalled.closed
        assert not healthy.closed
        assert healthy.writer.wrote == [b"frame"]

    def test_metrics_expose_fastpath_counters(self, store, config):
        daemon = BroadcastDaemon(store, config, DaemonConfig(autostart=False))
        names = {family.name for family in daemon._stat_families()}
        assert "net.frames_encoded" in names
        assert "net.slow_consumers_evicted" in names

    def test_zombie_subscriber_leaves_others_live(self, store, config):
        """End to end: a connection that TUNEs and then never reads a
        byte must not keep real clients from completing."""

        async def body(daemon):
            zombie_reader, zombie_writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            zombie_writer.write(encode_text("TUNE"))
            await zombie_writer.drain()
            # Never read: the TUNED reply and every broadcast frame pile
            # up in the daemon's buffers for this connection.
            clients = [
                AsyncTwoTierClient(q, port=daemon.port, arrival_time=0)
                for q in ("//nitf", "//body")
            ]
            for c in clients:
                await c.connect()
                await c.tune()
            for c in clients:
                await c.submit()
            daemon.start_broadcast()
            reports = await asyncio.gather(*(c.run_session() for c in clients))
            for c in clients:
                await c.close()
            zombie_writer.close()
            return reports

        net = DaemonConfig(autostart=False)
        reports = _run(_with_daemon(store, config, net, body))
        assert all(r.satisfied for r in reports)
        assert all(r.cycles_verified >= 1 for r in reports)


# ----------------------------------------------------------------------
# Shared cycle decoding
# ----------------------------------------------------------------------


class TestSharedDecode:
    def _frames(self, store, queries):
        config = small_setup(document_count=30)
        server = make_server(config, store)
        for query in queries:
            try:
                server.submit(query, arrival_time=0)
            except ValueError:
                continue
        cycle = server.build_cycle()
        assert cycle is not None
        return [
            (frame.kind, frame.payload) for frame in encode_cycle(cycle, store)
        ]

    def test_second_decoder_reuses_first_decode(self, store, nitf_queries):
        frames = self._frames(store, nitf_queries[:6])

        def decode(**kwargs):
            decoder = CycleDecoder(**kwargs)
            result = None
            for kind, payload in frames:
                result = decoder.feed(kind, payload)
            assert result is not None
            return result

        first = decode()
        second = decode()
        assert second is first, "same frame bytes must share one decode"
        # Opting out decodes from scratch.
        assert decode(share=False) is not first

    def test_byte_difference_misses_the_cache(self, store, nitf_queries):
        frames = self._frames(store, nitf_queries[:6])
        decoder = CycleDecoder()
        for kind, payload in frames:
            decoder.feed(kind, payload)
        # Tamper with one byte of the INDEX frame: the digest changes,
        # the cache misses, and the fresh decode fails loudly (a decode
        # error or a signature mismatch, depending on which byte flips)
        # instead of serving the cached clean cycle.
        tampered = CycleDecoder()
        with pytest.raises((WireProtocolError, ValueError)):
            for kind, payload in frames:
                if kind is FrameKind.INDEX:
                    payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
                tampered.feed(kind, payload)
