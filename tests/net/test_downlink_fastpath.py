"""Downlink hot path: one pump, share-once encoding, slow readers,
decode reuse.

Four properties of the streaming path are pinned here:

* one stream loop serves the paced and the unpaced daemon, so both put
  the same cycle bytes on every connection, traced or not, and a traced
  query's timeline travels beside the cycle as a pushed ``TRACE`` line;
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
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig, ManualClock
from repro.net.daemon import DRAIN_HIGH_WATER, MAX_BUFFERED_BYTES, _Connection
from repro.net.framing import FrameKind, encode_text, read_frame
from repro.net.uplink import Command, Status, Verb
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
# The one pump
# ----------------------------------------------------------------------


class _Recording(AsyncTwoTierClient):
    """A client that keeps every downlink frame it consumed, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frames = []

    async def _read_downlink(self):
        frame = await super()._read_downlink()
        self.frames.append(frame)
        return frame

    @property
    def cycle_bytes(self) -> bytes:
        """The binary frames, concatenated: what the broadcast aired."""
        return b"".join(
            kind.name.encode() + len(payload).to_bytes(4, "big") + payload
            for kind, payload in self.frames
            if kind is not FrameKind.TEXT
        )


#: (bandwidth, K) of the three delivery modes the one loop serves
UNPACED, PACED, PACED_ACKED = (None, 1), (40_000.0, 1), (40_000.0, 2)


async def _session(store, config, mode, clients_of, before_run=None):
    """Stage *clients_of(port)* against a scripted daemon, release the
    broadcast, run every session; returns (clients, reports, daemon)."""
    bandwidth, channels = mode
    net = DaemonConfig(autostart=False, bandwidth=bandwidth, clock=ManualClock())
    daemon = BroadcastDaemon(store, config.with_(num_data_channels=channels), net)
    await daemon.start()
    try:
        clients = clients_of(daemon.port)
        for client in clients:
            await client.connect()
            await client.tune()
        for client in clients:
            await client.submit()
        daemon.start_broadcast()
        if before_run is not None:
            await before_run(daemon, clients)
        reports = await asyncio.gather(*(c.run_session() for c in clients))
        for client in clients:
            await client.close()
    finally:
        daemon.request_stop()
        await daemon.wait_done()
    return clients, reports, daemon


class TestOnePump:
    QUERIES = ("//nitf", "//body", "//head", "//nitf")

    def _mixed(self, port):
        # every other client traced: tracing must not change anyone's bytes
        return [
            _Recording(q, port=port, arrival_time=0, trace=i % 2 == 0)
            for i, q in enumerate(self.QUERIES)
        ]

    @pytest.mark.parametrize("channels", [1, 2])
    def test_paced_and_unpaced_air_the_same_bytes(self, store, config, channels):
        """The loop has no mode-specific bytes: the same scripted session
        delivers byte-identical downlink streams with and without the
        token bucket, to every subscriber."""
        streams = {}
        for bandwidth in (None, 40_000.0):
            clients, reports, daemon = _run(
                _session(store, config, (bandwidth, channels), self._mixed)
            )
            assert all(r.satisfied for r in reports)
            assert all(r.trace is not None for r in reports[::2])
            assert daemon.stats.frames_encoded == daemon.stats.frames_sent
            streams[bandwidth] = [c.cycle_bytes for c in clients]
        assert streams[None] == streams[40_000.0]
        assert all(streams[None])

    def test_every_subscriber_gets_the_same_cycle(self, store, config, monkeypatch):
        """Traced or not, every connection reads the one cycle: encode
        work does not grow with the traced audience, and co-located
        clients decode each cycle once, not once per traced client."""
        finishes = []
        finish = CycleDecoder._finish
        monkeypatch.setattr(
            CycleDecoder,
            "_finish",
            lambda self: finishes.append(1) or finish(self),
        )

        def measure(traced, untraced):
            CycleDecoder._shared_cycles.clear()
            del finishes[:]
            clients, reports, daemon = _run(
                _session(
                    store,
                    config,
                    UNPACED,
                    # Same KEY: one pending query, so every run airs the
                    # same cycles and only the audience varies.
                    lambda port: [
                        _Recording(
                            "//nitf", port=port, arrival_time=0, client_key=7,
                            trace=i < traced,
                        )
                        for i in range(traced + untraced)
                    ],
                )
            )
            assert all(r.satisfied for r in reports)
            assert [r.trace is not None for r in reports] == (
                [True] * traced + [False] * untraced
            )
            assert len({c.cycle_bytes for c in clients}) == 1
            assert len(finishes) == daemon.stats.cycles_streamed
            return daemon.stats.frames_encoded, daemon.stats.cycles_streamed

        assert measure(traced=0, untraced=2) == measure(traced=3, untraced=2)

    @pytest.mark.parametrize(
        "mode", [UNPACED, PACED, PACED_ACKED], ids=["unpaced", "paced", "acked-k2"]
    )
    def test_timeline_is_pushed_before_the_cycle_end_it_completes(
        self, store, config, mode
    ):
        clients, reports, _ = _run(
            _session(
                store,
                config,
                mode,
                lambda port: [
                    _Recording("//nitf", port=port, arrival_time=0, trace=True),
                    _Recording("//body", port=port, arrival_time=0),
                ],
            )
        )
        traced, plain = clients
        assert all(r.satisfied for r in reports) and reports[0].trace is not None
        assert not any(kind is FrameKind.TEXT for kind, _ in plain.frames)
        ends = [i for i, (k, _) in enumerate(traced.frames) if k is FrameKind.CYCLE_END]
        pushed = [
            i for i, (k, p) in enumerate(traced.frames)
            if k is FrameKind.TEXT and p.startswith(b"TRACE ")
        ]
        # in hand before the frame that satisfies the query, and taken
        # after every stamp of that cycle: never ahead of an earlier one
        assert pushed and pushed[-1] < ends[-1]
        assert all(end < pushed[-1] for end in ends[:-1])
        if mode[0] is not None:
            assert pushed[-1] == ends[-1] - 1

    def test_pushed_line_is_never_a_commands_reply(self, store, config):
        replies = []

        async def status_mid_stream(daemon, clients):
            while (
                daemon.server.pending
                or daemon.stats.cycles_streamed < daemon.server.cycle_number
            ):
                await asyncio.sleep(0)
            # Every cycle, and the timeline ahead of the last one, is
            # queued on the socket in front of this STATUS reply.
            replies.append(await clients[0]._command(Command(Verb.STATUS)))
            assert FrameKind.TEXT in [kind for kind, _ in clients[0]._deferred], (
                "read past, and kept for the session"
            )

        _, reports, _ = _run(
            _session(
                store,
                config,
                UNPACED,
                lambda port: [
                    AsyncTwoTierClient("//nitf", port=port, arrival_time=0, trace=True)
                ],
                before_run=status_mid_stream,
            )
        )
        assert isinstance(replies[0], Status)
        assert reports[0].satisfied and reports[0].trace is not None

    def test_trace_of_a_departed_connection_is_dropped(self, store, config):
        async def body():
            net = DaemonConfig(autostart=False, clock=ManualClock())
            daemon = BroadcastDaemon(store, config, net)
            await daemon.start()
            gone = AsyncTwoTierClient("//nitf", port=daemon.port, arrival_time=0, trace=True)
            stays = _Recording("//body", port=daemon.port, arrival_time=0)
            for client in (gone, stays):
                await client.connect()
                await client.tune()
                await client.submit()
            await gone.close()
            while len(daemon._connections) > 1:
                await asyncio.sleep(0)
            daemon.start_broadcast()
            report = await stays.run_session()
            await stays.close()
            daemon.request_stop()
            await daemon.wait_done()  # a crashed pump would re-raise here
            return report, stays, daemon

        report, stays, daemon = _run(body())
        assert report.satisfied
        assert not any(kind is FrameKind.TEXT for kind, _ in stays.frames)
        assert daemon.stats.errors_total == 0
        assert len(daemon.server.completed) == 2


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
