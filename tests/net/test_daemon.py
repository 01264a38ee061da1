"""Live daemon behaviour: admission, backpressure, pacing, drain."""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.broadcast.server import DocumentStore
from repro.net import (
    AsyncTwoTierClient,
    BroadcastDaemon,
    DaemonConfig,
    ManualClock,
    TokenBucket,
)
from repro.net.client import Backpressure
from repro.net.framing import FrameKind, encode_text, read_frame
from repro.net.uplink import parse_reply, round_trip
from repro.obs.telemetry import (
    EventLog,
    FlightRecorder,
    TelemetryConfig,
    load_flight_record,
)
from repro.sim.config import small_setup
from repro.tools.persist import QueryJournal, load_journal
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query


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


class TestUplink:
    def test_submit_ack_and_status(self, store, config):
        async def body(daemon):
            reply = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //nitf")
            word, qid, arrival = reply.split()
            assert word == "ACK" and arrival == "0"
            status = parse_reply(
                await round_trip("127.0.0.1", daemon.port, "STATUS")
            ).info
            assert status["admitted"] == 1
            assert status["pending"] >= 1
            return int(qid)

        # autostart=False keeps the query pending so STATUS is stable
        net = DaemonConfig(autostart=False)
        assert _run(_with_daemon(store, config, net, body)) == 0

    def test_bad_query_is_err_not_fatal(self, store, config):
        async def body(daemon):
            bad = await round_trip("127.0.0.1", daemon.port, "SUBMIT //no(t)valid")
            empty = await round_trip("127.0.0.1", daemon.port, "SUBMIT")
            unknown = await round_trip("127.0.0.1", daemon.port, "FROB 1")
            return bad, empty, unknown

        bad, empty, unknown = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        assert bad.startswith("ERR")
        assert empty.startswith("ERR")
        assert unknown.startswith("ERR unknown command")

    def test_predicate_query_reaches_the_xpath_parser(self, store, config):
        """Regression: any leading token *containing* ``=`` used to be
        taken for an option, so ``//nitf[@id=1]`` was answered ``ERR
        unknown SUBMIT option '//nitf[@id'``.  A query must get the
        XPath layer's own verdict, with or without real options."""

        async def body(daemon):
            return [
                await round_trip("127.0.0.1", daemon.port, line)
                for line in (
                    "SUBMIT //nitf[@id=1]",
                    'SUBMIT AT=5 //nitf[@a="x"]',
                    "SUBMIT //nitf[head]",
                )
            ]

        unquoted, attribute, child = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        with pytest.raises(ValueError) as parser_says:
            parse_query("//nitf[@id=1]")
        assert unquoted == f"ERR {parser_says.value}"
        # parses fine; server.submit refuses predicates on the air index
        assert attribute == child
        assert attribute.startswith("ERR the air index is purely structural")

    def test_unknown_and_lower_case_options_are_rejected(self, store, config):
        """Regression: ``TUNE shard=1`` / ``TUNE FOO=1`` used to tune
        silently (on an unsharded daemon: into shard 0) while the same
        spelling on SUBMIT was an error."""

        async def body(daemon):
            return [
                await round_trip("127.0.0.1", daemon.port, line)
                for line in (
                    "TUNE shard=1",
                    "TUNE FOO=1",
                    "SUBMIT at=5 //nitf",
                    "TUNE SHARD=1",
                    "TUNE SHARD=x",
                    "TUNE SHARD=0",
                )
            ]

        replies = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        assert replies[:5] == [
            "ERR unknown TUNE option 'shard'",
            "ERR unknown TUNE option 'FOO'",
            "ERR unknown SUBMIT option 'at'",
            "ERR wrong shard: this worker serves shard 0, not 1",
            "ERR SHARD must be an integer",
        ]
        assert replies[5].startswith("TUNED ")

    def test_status_keys_keep_their_wire_order(self, store, config):
        """STATUS is rendered from the ``DaemonStats`` declaration; the
        key order on the wire is the one clients have always seen."""

        async def body(daemon):
            return await round_trip("127.0.0.1", daemon.port, "STATUS")

        reply = _run(_with_daemon(store, config, DaemonConfig(autostart=False), body))
        assert reply == (
            'STATUS {"pending": 0, "completed": 0, "cycles": 0, "clock": 0, '
            '"connections": 1, "admitted": 0, "rejected": 0, "dedup_hits": 0, '
            '"redelivered": 0, "degraded_cycles": 0, "draining": false, '
            '"num_channels": 1, "bandwidth": null}'
        )

    def test_backpressure_retry_after(self, store, config):
        async def body(daemon):
            first = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //nitf")
            second = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //body")
            return first, second

        net = DaemonConfig(autostart=False, max_pending=1)
        first, second = _run(_with_daemon(store, config, net, body))
        assert first.startswith("ACK")
        assert second.startswith("RETRY_AFTER")

    def test_backpressure_raises_in_client(self, store, config):
        async def body(daemon):
            blocker = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //nitf")
            assert blocker.startswith("ACK")
            client = AsyncTwoTierClient("//body", port=daemon.port)
            await client.connect()
            try:
                await client.tune()
                with pytest.raises(Backpressure):
                    await client.submit()
            finally:
                await client.close()

        _run(
            _with_daemon(
                store, config, DaemonConfig(autostart=False, max_pending=1), body
            )
        )

    def test_idempotent_uplink_key_dedups(self, store, config):
        async def body(daemon):
            a = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=42 //nitf")
            b = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=42 //nitf")
            return a, b, daemon.server.admission.dedup_hits

        a, b, hits = _run(
            _with_daemon(store, config, DaemonConfig(autostart=False), body)
        )
        assert a.split()[1] == b.split()[1], "same key -> same query id"
        assert hits == 1


class TestLifecycle:
    def test_clients_complete_then_drain(self, store, config):
        async def body(daemon):
            clients = [
                AsyncTwoTierClient(q, port=daemon.port, arrival_time=0)
                for q in ("//nitf", "//body", "//head")
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
            return reports, daemon.status()

        net = DaemonConfig(autostart=False)
        (reports, status) = _run(_with_daemon(store, config, net, body))
        assert all(r.satisfied for r in reports)
        assert all(r.metrics.is_complete for r in reports)
        assert all(r.cycles_verified >= 1 for r in reports)
        assert status["completed"] == 3
        assert status["pending"] == 0

    def test_stop_mid_stream_sends_server_bye(self, store, config):
        """request_stop during a paced cycle still drains cleanly and the
        tuned client is told the downlink is over (acceptance: the daemon
        survives an interrupt mid-cycle)."""

        async def body():
            clock = ManualClock()
            net = DaemonConfig(
                autostart=False, bandwidth=50_000.0, clock=clock
            )
            daemon = BroadcastDaemon(store, config, net)
            await daemon.start()
            client = AsyncTwoTierClient("//nitf", port=daemon.port, arrival_time=0)
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            session = asyncio.create_task(client.run_session())
            # Let a few frames go out, then interrupt mid-broadcast.
            for _ in range(50):
                await asyncio.sleep(0)
            daemon.request_stop()
            report = await session
            await client.close()
            await daemon.wait_done()
            return report, daemon

        report, daemon = _run(body())
        # The drain finishes the pending query before closing, so the
        # client is satisfied despite the interrupt.
        assert report.satisfied
        assert daemon.stats.cycles_streamed >= 1

    def test_max_queries_closes_admission(self, store, config):
        """The quota rejects further SUBMITs even before any broadcast."""

        async def body(daemon):
            first = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //nitf")
            second = await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //body")
            return first, second

        net = DaemonConfig(autostart=False, max_queries=1)
        first, second = _run(_with_daemon(store, config, net, body))
        assert first.startswith("ACK")
        assert second.startswith("ERR admission closed")

    def test_max_queries_drains_after_quota(self, store, config):
        """Quota reached + pending served => the daemon exits by itself."""

        async def body():
            daemon = BroadcastDaemon(
                store, config, DaemonConfig(max_queries=1)
            )
            await daemon.start()
            client = AsyncTwoTierClient("//nitf", port=daemon.port, arrival_time=0)
            report = await client.run()
            await daemon.wait_done()  # no request_stop: the quota drains it
            return report, daemon

        report, daemon = _run(body())
        assert report.satisfied
        assert len(daemon.server.completed) == 1

    def test_preload_admits_workload(self, store, config, nitf_queries):
        async def body(daemon):
            admitted = daemon.preload(nitf_queries[:5])
            daemon.start_broadcast()
            for _ in range(2000):
                if not daemon.server.pending:
                    break
                await asyncio.sleep(0.01)
            return admitted, len(daemon.server.completed)

        net = DaemonConfig(autostart=False)
        admitted, completed = _run(_with_daemon(store, config, net, body))
        assert admitted >= 1
        assert completed == admitted


class TestCrashedPump:
    def test_a_crashed_pump_is_not_a_clean_drain(self, store, config, tmp_path):
        """Regression: an exception in the broadcast loop used to run the
        drain epilogue -- ``server_bye`` in the log, ``SERVER_BYE`` to
        every subscriber (telling a resuming client *not* to come back
        for a query the journal would replay), ``wait_done()`` returning
        normally, no error event and no flight dump."""
        sink, flight = io.StringIO(), FlightRecorder()

        async def body():
            net = DaemonConfig(
                autostart=False,
                journal=QueryJournal(tmp_path / "shard.journal"),
                telemetry=TelemetryConfig(
                    events=EventLog(sink=sink),
                    flight=flight,
                    flight_dir=tmp_path / "flights",
                ),
            )
            daemon = BroadcastDaemon(store, config, net)

            def boom(now=None):
                raise RuntimeError("boom in build_cycle")

            daemon.server.build_cycle = boom
            await daemon.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            for line in ("TUNE", "SUBMIT AT=0 KEY=4 //nitf"):
                writer.write(encode_text(line))
                await writer.drain()
                kind, _ = await read_frame(reader)
                assert kind is FrameKind.TEXT
            daemon.start_broadcast()
            kinds = []
            try:
                while True:
                    kinds.append((await read_frame(reader))[0])
            except asyncio.IncompleteReadError as eof:
                assert eof.partial == b"", "a clean EOF, not a torn frame"
            assert FrameKind.SERVER_BYE not in kinds
            writer.close()
            with pytest.raises(RuntimeError, match="boom in build_cycle"):
                await daemon.wait_done()

        _run(body())
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        names = [event["event"] for event in events]
        assert "server_bye" not in names
        (error,) = [event for event in events if event["event"] == "error"]
        assert error["level"] == "error" and "boom in build_cycle" in error["error"]
        (dump,) = [p for p in flight.dumps if "crash" in p.name]
        record = load_flight_record(dump)
        assert record["reason"] == "crash"
        assert any(e["event"] == "error" for e in record["events"])
        # what was acknowledged is still owed: the next boot replays it
        owed = load_journal(tmp_path / "shard.journal").outstanding
        assert [(e.client_key, e.query) for e in owed] == [(4, "//nitf")]


class _ParkFirstSleep(ManualClock):
    """Parks the first paced sleep until released.

    The token bucket starts empty, so the first sleep is the debt of a
    cycle's first frame: while it is parked the cycle is on air at
    offset 0.
    """

    def __init__(self) -> None:
        super().__init__()
        self.parked = asyncio.Event()
        self.release = asyncio.Event()

    async def sleep(self, seconds: float) -> None:
        if not self.parked.is_set():
            self.parked.set()
            await self.release.wait()
        await super().sleep(seconds)


class TestArrivalStamp:
    def test_mid_cycle_admission_at_offset_zero_skips_that_cycle(
        self, store, config, nitf_queries
    ):
        """Regression: a query admitted while a cycle is on air at offset
        0 was stamped with that cycle's own start time, so its client read
        an index built before the query existed and reported ``satisfied``
        with a truncated result set."""
        sizes = {
            str(q): len(matching_documents(q, store.documents))
            for q in nitf_queries
        }
        narrow = min((t for t in sizes if sizes[t]), key=sizes.__getitem__)
        broad = "//nitf"
        truth = len(matching_documents(parse_query(broad), store.documents))
        assert sizes[narrow] < truth  # the first cycle's index cannot cover it

        async def body():
            clock = _ParkFirstSleep()
            net = DaemonConfig(autostart=False, bandwidth=1_000_000.0, clock=clock)
            daemon = BroadcastDaemon(store, config, net)
            await daemon.start()
            first = AsyncTwoTierClient(narrow, port=daemon.port, arrival_time=0)
            late = AsyncTwoTierClient(broad, port=daemon.port)
            for client in (first, late):
                await client.connect()
                await client.tune()
            await first.submit()
            daemon.start_broadcast()
            await clock.parked.wait()
            # Cycle 0 (built for *first* alone) is on air, nothing sent yet.
            await late.submit()
            clock.release.set()
            reports = await asyncio.gather(first.run_session(), late.run_session())
            for client in (first, late):
                await client.close()
            daemon.request_stop()
            await daemon.wait_done()
            return late.arrival_time, reports

        arrival, (first_report, late_report) = _run(body())
        assert arrival > 0  # strictly after cycle 0's start
        assert first_report.satisfied and late_report.satisfied
        assert first_report.metrics.result_doc_count == sizes[narrow]
        assert late_report.metrics.result_doc_count == truth


class TestPacing:
    def test_manual_clock_token_bucket_paces(self):
        async def body():
            clock = ManualClock()
            bucket = TokenBucket(1000.0, clock, burst=1000.0)
            # The bucket starts empty: the first acquire is pure debt.
            await bucket.acquire(1000)  # sleeps 1.0 simulated seconds
            await bucket.acquire(500)  # debt again: sleeps 0.5 more
            return clock.now()

        assert _run(body()) == pytest.approx(1.5)

    def test_bucket_starts_empty(self):
        """No free initial burst: byte 1 of cycle 1 is already paced."""

        async def body():
            clock = ManualClock()
            bucket = TokenBucket(1000.0, clock, burst=1000.0)
            await bucket.acquire(100)
            return clock.now()

        assert _run(body()) == pytest.approx(0.1)

    def test_unpaced_bucket_never_sleeps(self):
        async def body():
            clock = ManualClock()
            bucket = TokenBucket(None, clock)
            for _ in range(10):
                await bucket.acquire(10**9)
            return clock.now()

        assert _run(body()) == 0.0

    def test_paced_daemon_advances_injected_clock(self, store, config):
        """With bandwidth B and a ManualClock, streaming a cycle of N
        on-air bytes advances simulated time by about N/B seconds --
        wall-clock never enters the deterministic path."""

        async def body():
            clock = ManualClock()
            net = DaemonConfig(autostart=False, bandwidth=10_000.0, clock=clock)
            daemon = BroadcastDaemon(store, config, net)
            await daemon.start()
            client = AsyncTwoTierClient("//nitf", port=daemon.port, arrival_time=0)
            await client.connect()
            await client.tune()
            await client.submit()
            daemon.start_broadcast()
            report = await client.run_session()
            await client.close()
            daemon.request_stop()
            await daemon.wait_done()
            return report, clock.now(), daemon

        report, elapsed, daemon = _run(body())
        assert report.satisfied
        on_air = daemon.server.clock  # total on-air bytes of all cycles
        # The bucket starts empty and debt is repaid frame by frame, so
        # with a manual clock the elapsed simulated time is *exactly*
        # the on-air byte count over the bandwidth -- cycle 1 included.
        assert elapsed == pytest.approx(on_air / daemon.net.bandwidth)
