"""The live broadcast daemon: asyncio uplink + paced downlink.

One asyncio TCP endpoint serves both directions of the paper's
on-demand model.  Clients send framed TEXT commands on the **uplink**
(``SUBMIT``, ``TUNE``, ``RECV``, ``STATUS``, ``BYE``); the grammar, the
endpoint loop and the typed replies live in :mod:`repro.net.uplink`,
and this module keeps only the admission *policy* behind them.

The **downlink** streams every built cycle as the wire frames of
:mod:`repro.net.wire` to all tuned connections, paced by one
:class:`~repro.net.pacing.TokenBucket` over the cycle's on-air bytes
(aggregate across K data channels).  The daemon drives the unchanged
:class:`~repro.broadcast.server.BroadcastServer` pipeline -- same
scheduler, caches and cycle programs as the simulator, via
:func:`~repro.sim.simulation.make_server` -- on a cycle clock: cycles
run back-to-back while queries are pending, and an idle daemon jumps
its build clock to the next admitted arrival exactly as the simulator's
event queue does.

Admission is bounded (``max_pending``): an overloaded uplink answers
``RETRY_AFTER`` instead of queueing without limit.  With K >= 2 data
channels the server runs acknowledged delivery; the daemon then holds
an **ack barrier** after each cycle -- every tuned connection owning an
unsatisfied query admitted before the cycle must report its received
set (``RECV``) before the next cycle builds, and the confirmations are
applied in admission order, mirroring the simulator's delivery loop.

SIGINT handling is graceful: :meth:`BroadcastDaemon.request_stop`
drains -- in-flight and pending queries are served to completion, then
every subscriber receives ``SERVER_BYE`` and the sockets close.  An
exception in the broadcast loop is not a drain: the sockets close
without ``SERVER_BYE``, the flight recorder dumps, the journal keeps
what it owes, and :meth:`BroadcastDaemon.wait_done` re-raises.

**Telemetry** is opt-in via :class:`~repro.obs.telemetry.TelemetryConfig`
on the :class:`DaemonConfig`: a ``/metrics`` + ``/healthz`` HTTP
endpoint on the same event loop, a structured event log, a flight
recorder, and per-query wire tracing (the ``TRACE=`` SUBMIT option;
finished timelines are pushed beside the cycle, never inside it).
Every operational number is declared once, as a :class:`DaemonStats`
field carrying its own exposition, and ``STATUS``, ``/metrics`` and the
router's cluster totals all render from that declaration.  Without a
telemetry config the daemon's wire behaviour is byte-identical (pinned
by ``tests/net/test_parity.py``).
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.broadcast.partition import ShardIdentity
from repro.broadcast.program import BroadcastCycle, program_signature
from repro.broadcast.server import DocumentStore, PendingQuery
from repro.control.controller import RETRY_AFTER_CYCLES
from repro.net.clock import ClockAdapter, MonotonicClock
from repro.net.framing import FrameKind, encode_frame, encode_text
from repro.net.pacing import TokenBucket
from repro.net import uplink
from repro.net.uplink import Command, Verb
from repro.net.wire import encode_cycle
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.telemetry import (
    Family,
    MetricsHTTPServer,
    QueryTracer,
    TelemetryConfig,
    render_openmetrics,
)
from repro.obs.telemetry.exporter import stat, stat_families, stat_status
from repro.obs.telemetry.flight import cycle_summary, recorded_events
from repro.sim.config import SimulationConfig
from repro.sim.simulation import make_controller, make_server
from repro.tools.persist import JournalEntry, QueryJournal
from repro.xpath.ast import XPathQuery
from repro.xpath.parser import parse_query


#: per-connection write-buffer level above which a send awaits the
#: transport's drain; below it writes are fire-and-forget, so one frame
#: costs no per-subscriber await on the fan-out path
DRAIN_HIGH_WATER = 64 * 1024
#: per-connection write-buffer cap: a subscriber that falls further
#: behind than this is evicted (a stalled reader must never pause the
#: broadcast for everyone else -- broadcast semantics, exactly like
#: drifting out of radio range)
MAX_BUFFERED_BYTES = 4 * 1024 * 1024


@dataclass
class DaemonConfig:
    """Knobs of the serving surface (the broadcast model itself comes
    from the shared :class:`~repro.sim.config.SimulationConfig`)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port lands in ``daemon.port``
    #: aggregate downlink rate in on-air bytes/second; ``None`` = unpaced
    bandwidth: Optional[float] = None
    #: admission bound: further SUBMITs get RETRY_AFTER backpressure
    max_pending: int = 1024
    #: start cycling as soon as a query is admitted; ``False`` holds
    #: cycles until :meth:`BroadcastDaemon.start_broadcast` (replay mode:
    #: script every arrival first, then release the broadcast)
    autostart: bool = True
    #: stop admitting after this many successful SUBMITs and drain
    #: (benchmarks and smoke jobs); ``None`` = serve forever
    max_queries: Optional[int] = None
    #: injectable clock for pacing (wall-clock never enters directly);
    #: ``None`` -> :class:`~repro.net.clock.MonotonicClock`
    clock: Optional[ClockAdapter] = None
    #: opt-in telemetry plane (metrics endpoint, event log, flight
    #: recorder); ``None`` = fully dark, byte-identical wire behaviour
    telemetry: Optional[TelemetryConfig] = None
    #: cluster membership: this worker's slice of the partition map.
    #: When set, ``CYCLE_BEGIN`` headers and the ``TUNED`` banner carry
    #: the placement contract (key ``"cluster"``), ``SHARD=`` options
    #: are validated against it, and the stats families gain a ``shard``
    #: label.  ``None`` = the unchanged standalone daemon,
    #: byte-identical to before the cluster tier existed.
    shard: Optional[ShardIdentity] = None
    #: write-ahead journal of admitted queries (crash-resume).  When
    #: set, every fresh uplink admission is journaled *before* its ACK
    #: leaves the socket and marked done only after the cycle carrying
    #: its last document has fully streamed; on boot the daemon replays
    #: admitted-but-unsatisfied entries, so pending state survives
    #: SIGKILL.  ``None`` = no journal, behaviour unchanged.
    journal: Optional[QueryJournal] = None


@dataclass
class DaemonStats:
    """The daemon's operational numbers, each declared exactly once.

    A field carries its own exposition
    (:func:`~repro.obs.telemetry.exporter.stat`): ``STATUS`` replies, the
    ``/metrics`` families, the router's cluster totals and the table in
    ``docs/OBSERVABILITY.md`` all render from these declarations, in this
    order, so no surface can drift from another.  Fields mirroring live
    server state (``pending`` ... ``draining``, less the counters between)
    are sampled whenever a surface is read; the rest the daemon bumps.
    """

    pending: int = stat("net.pending_queries", "gauge", status="pending", total=True)
    completed: int = stat(
        "net.completed_queries", "gauge", status="completed", total=True
    )
    cycles: int = stat(status="cycles", total=True)
    clock: int = stat("net.clock_bytes", "gauge", status="clock")
    connections_open: int = stat(
        "net.connections_open", "gauge", status="connections", total=True
    )
    admitted_total: int = stat("net.queries_admitted", status="admitted", total=True)
    rejected_overload: int = stat(
        "net.queries_rejected", status="rejected", total=True, reason="overload"
    )
    rejected_closed: int = stat(
        "net.queries_rejected", status="rejected", total=True, reason="closed"
    )
    #: cold queries deferred by the adaptive admission governor
    rejected_shed: int = stat(
        "net.queries_rejected", status="rejected", total=True, reason="shed"
    )
    dedup_hits: int = stat(status="dedup_hits", total=True)
    #: keyed resubmits re-admitted fresh because their original
    #: admission had already completed -- the client reconnected after
    #: missing the broadcast, so the documents must air again
    redelivered_total: int = stat(
        "net.queries_redelivered", status="redelivered", total=True
    )
    degraded_cycles: int = stat(status="degraded_cycles", total=True)
    draining: bool = stat("net.draining", "gauge", status="draining")
    connections_total: int = stat("net.connections")
    cycles_streamed: int = stat("net.cycles_streamed")
    frames_sent: int = stat("net.frames_sent")
    #: frames serialised via :func:`~repro.net.framing.encode_frame`;
    #: per cycle this is the cycle's frame count, whoever is tuned and
    #: whoever is traced (every connection gets the same buffers)
    frames_encoded: int = stat("net.frames_encoded")
    bytes_streamed: int = stat("net.bytes_streamed")
    #: subscribers dropped for exceeding ``MAX_BUFFERED_BYTES``
    slow_consumers_evicted: int = stat("net.slow_consumers_evicted")
    errors_total: int = stat("net.uplink_errors")

    @property
    def rejected_total(self) -> int:
        return self.rejected_overload + self.rejected_closed + self.rejected_shed


@dataclass
class _Connection:
    """Per-socket uplink/downlink state."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    tuned: bool = False
    #: query ids ACKed on this connection (drives the ack barrier)
    query_ids: Set[int] = field(default_factory=set)
    closed: bool = False


class BroadcastDaemon:
    """Serve a document store live over TCP."""

    def __init__(
        self,
        store: DocumentStore,
        config: Optional[SimulationConfig] = None,
        net: Optional[DaemonConfig] = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        self.net = net if net is not None else DaemonConfig()
        self.store = store
        self.server = make_server(self.config, store)
        self.clock: ClockAdapter = self.net.clock or MonotonicClock()
        self._bucket = TokenBucket(self.net.bandwidth, self.clock)
        self._checksum = store.size_model.checksum_bytes
        #: placement contract embedded in every CYCLE_BEGIN header
        #: (``None`` keeps headers byte-identical to an unsharded daemon)
        self._cluster_header = (
            self.net.shard.header() if self.net.shard is not None else None
        )
        #: restart generation advertised to clients (0 = first boot)
        self.epoch = self.net.shard.epoch if self.net.shard is not None else 0
        self.journal = self.net.journal
        #: how many of ``server.completed`` already have a journal
        #: ``done`` record (completed only ever grows, in order)
        self._journal_done_idx = 0
        #: queries rehydrated from the journal at boot
        self.journal_replayed = 0
        #: what killed the broadcast loop, if anything did
        self._crash: Optional[Exception] = None

        self.port: Optional[int] = None
        self._tcp: Optional[asyncio.base_events.Server] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._connections: List[_Connection] = []
        self._started = asyncio.Event()
        if self.net.autostart:
            self._started.set()
        self._wake = asyncio.Event()
        self._done = asyncio.Event()
        self._draining = False

        #: acknowledged-delivery barrier state for the cycle on air
        self._ack_cycle: Optional[int] = None
        self._acks: Dict[int, Set[int]] = {}
        self._ack_event = asyncio.Event()

        #: on-air position while a cycle streams: (start_time, end_offset)
        self._on_air: Optional[Tuple[int, int]] = None

        #: operational counters; STATUS and /metrics both read from here
        self.stats = DaemonStats()

        #: adaptive control plane (``None`` without ``--adaptive``: the
        #: static daemon stays byte-identical, headers included)
        self.controller = make_controller(self.config, store)
        self._active_plan = (
            self.controller.current_plan(self.server.cycle_number)
            if self.controller is not None
            else None
        )

        # -- telemetry plane (all no-op without a TelemetryConfig) -----
        self.telemetry = self.net.telemetry
        #: ``None`` = no registry and no ``/metrics`` endpoint
        self._metrics_at = self.telemetry.metrics_port if self.telemetry else None
        self.flight = self.telemetry.flight if self.telemetry else None
        self.events = recorded_events(
            self.telemetry.events if self.telemetry else None,
            self.flight,
            self.clock,
        )
        self.tracer = QueryTracer(self.clock)
        self.metrics_port: Optional[int] = None
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._obs_previous: Optional[MetricsRegistry] = None
        self._obs_installed: Optional[MetricsRegistry] = None
        if self.flight is not None:
            self.flight.context.update(
                {
                    "documents": len(store),
                    "scheme": self.config.scheme.value,
                    "num_channels": self.config.num_data_channels,
                    "bandwidth": self.net.bandwidth,
                    "max_pending": self.net.max_pending,
                }
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the broadcast loop."""
        if self._metrics_at is not None:
            # Install a fresh telemetry registry as the process-wide obs
            # sink for the daemon's lifetime; restored at shutdown.
            self._obs_previous = obs.get_registry() if obs.is_enabled() else None
            self._obs_installed = MetricsRegistry()
            obs.enable(self._obs_installed)
        if self.journal is not None:
            self._resume_from_journal()
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.net.host, self.net.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        if self._metrics_at is not None:
            self._metrics_http = MetricsHTTPServer(
                self._metrics_text, self._health, port=self._metrics_at
            )
            self.metrics_port = await self._metrics_http.start()
            self.events.info(
                "telemetry_listening",
                host=self._metrics_http.host,
                port=self.metrics_port,
            )
        self._loop_task = asyncio.create_task(self._broadcast_loop())

    def _resume_from_journal(self) -> None:
        """Rehydrate pending queries from the write-ahead journal.

        Runs once at boot, before the socket binds: outstanding entries
        (admitted, never marked done) are re-admitted through the one
        admission path -- same arrivals, same admission order, same
        client keys -- and only then is the journal compacted, in one
        atomic replace, to a fresh epoch section holding the re-admitted
        records under their new query ids.  A kill at any instant leaves
        either the old journal or the complete new one, never a journal
        missing an acknowledged query.  Because the keys go through the
        idempotent-uplink dedup, a client that resubmits after
        reconnecting maps onto the replayed query instead of being
        served twice.
        """
        assert self.journal is not None
        if not self.journal.path.exists():
            self.journal.open()
            return
        state = self.journal.load()
        if state.torn_tail:
            self.events.warning("journal_torn_tail", path=str(self.journal.path))
        replayed = 0
        readmitted: Dict[int, JournalEntry] = {}
        for entry in state.outstanding:
            try:
                pending = self._admit(
                    parse_query(entry.query),
                    entry.arrival,
                    entry.client_key,
                    journaled=False,
                )
            except ValueError:
                continue  # e.g. empty result set after a collection change
            replayed += 1
            # A dedup hit lands on a query id already recorded.
            readmitted.setdefault(
                pending.query_id,
                JournalEntry(
                    pending.query_id,
                    entry.query,
                    pending.arrival_time,
                    entry.client_key,
                    self.epoch,
                ),
            )
        self.journal.compact(list(readmitted.values()), epoch=self.epoch)
        self.journal.open()
        self.journal_replayed = replayed
        if replayed:
            self.events.warning(
                "journal_replayed",
                replayed=replayed,
                epoch=self.epoch,
                path=str(self.journal.path),
            )
            if self.flight is not None:
                self.flight.context["journal_replayed"] = replayed
                self.flight.context["epoch"] = self.epoch
            self.dump_flight("crash_resume")

    def _journal_mark_done(self) -> None:
        """Journal ``done`` for queries completed since the last cycle.

        ``server.completed`` only ever appends, so a cursor suffices.
        Runs *after* the cycle has fully streamed: a kill mid-stream
        must replay the query (the client never got its bytes), even
        though the server marked it satisfied at build time.
        """
        if self.journal is None:
            return
        completed = self.server.completed
        while self._journal_done_idx < len(completed):
            self.journal.record_done(completed[self._journal_done_idx].query_id)
            self._journal_done_idx += 1

    def start_broadcast(self) -> None:
        """Release cycling (replay mode with ``autostart=False``)."""
        self._started.set()
        self._wake.set()

    def request_stop(self) -> None:
        """Begin a graceful drain: serve what is pending, then close."""
        if not self._draining:
            self.events.info(
                "drain_begin",
                pending=len(self.server.pending),
                completed=len(self.server.completed),
            )
        self._draining = True
        self._wake.set()
        self._ack_event.set()

    def dump_flight(self, reason: str) -> Optional[str]:
        """Dump the flight recorder (if armed); returns the artifact path.

        Wired to SIGTERM by ``repro serve``; also called internally on
        ``ERR`` replies, journal replays and a crashed broadcast loop.
        """
        if (
            self.flight is None
            or self.telemetry is None
            or self.telemetry.flight_dir is None
        ):
            return None
        path = self.flight.dump(self.telemetry.flight_dir, reason)
        self.events.warning("flight_dump", reason=reason, path=str(path))
        return str(path)

    async def wait_done(self) -> None:
        """Wait for the drain to finish; re-raises what crashed the
        broadcast loop, so a dead pump never reads as a clean exit."""
        await self._done.wait()
        if self._crash is not None:
            raise self._crash

    async def stop(self) -> None:
        """Drain and wait for the shutdown to finish."""
        self.request_stop()
        await self.wait_done()

    # ------------------------------------------------------------------
    # Uplink
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        # The transport's pause/resume thresholds both sit at the
        # eviction cap: the protocol is paused only while the buffer
        # exceeds the cap, and any send seeing that evicts the
        # connection instead of draining -- so a drain can never block
        # on a subscriber the daemon would not already have dropped.
        writer.transport.set_write_buffer_limits(
            high=MAX_BUFFERED_BYTES, low=MAX_BUFFERED_BYTES
        )
        self._connections.append(conn)
        self.stats.connections_total += 1
        self.events.debug("connection_open", open=len(self._connections))
        try:
            await uplink.serve_connection(
                reader,
                writer,
                functools.partial(self._dispatch, conn),
                self._on_uplink_err,
            )
        finally:
            self._drop(conn)

    def _on_uplink_err(self, reply: uplink.Err) -> None:
        self.stats.errors_total += 1
        self.events.error("uplink_err", message=reply.message)
        self.dump_flight("err")

    async def _dispatch(
        self, conn: _Connection, command: Command
    ) -> Optional[uplink.Reply]:
        """The daemon's answer to one parsed uplink command."""
        # An unsharded daemon is its own one-shard cluster; a cluster
        # worker accepts only its own index -- a misrouted command fails
        # loudly instead of silently serving from the wrong slice.
        expected = self.net.shard.index if self.net.shard is not None else 0
        if command.shard is not None and command.shard != expected:
            return uplink.Err(
                f"wrong shard: this worker serves shard {expected}, "
                f"not {command.shard}"
            )
        if command.verb is Verb.SUBMIT:
            return self._submit(conn, command)
        if command.verb is Verb.TUNE:
            conn.tuned = True
            return uplink.Tuned(self._tune_info())
        if command.verb is Verb.RECV:
            # A stale or early ack is dropped: the barrier only covers
            # the cycle on air.
            if command.cycle == self._ack_cycle:
                self._acks[command.query_id] = set(command.docs)
                self._ack_event.set()
            return None
        if command.verb is Verb.STATUS:
            return uplink.Status(self.status())
        return uplink.Bye()

    def _submit(self, conn: _Connection, command: Command) -> uplink.Reply:
        arrival, key = command.at, command.key
        # ``TRACE=`` is echoed only to clients that sent it: untraced
        # clients keep the exact reply shape they always had.
        trace_id = (
            self.tracer.on_submit(command.trace)
            if command.trace is not None
            else None
        )

        def _reject(reply: uplink.Reply) -> uplink.Reply:
            if trace_id is not None:
                self.tracer.on_reject(trace_id)
            return reply

        if self._draining:
            return _reject(uplink.RetryAfter(1, trace_id))
        if (
            self.net.max_queries is not None
            and self.stats.admitted_total >= self.net.max_queries
        ):
            self.stats.rejected_closed += 1
            self.events.info("reject", reason="closed")
            return _reject(uplink.Err("admission closed"))
        if len(self.server.pending) >= self.net.max_pending:
            self.stats.rejected_overload += 1
            self.events.info(
                "reject", reason="overload", pending=len(self.server.pending)
            )
            return _reject(uplink.RetryAfter(len(self.server.pending), trace_id))
        try:
            query = parse_query(command.query)
        except ValueError as exc:
            return _reject(uplink.Err(str(exc)))
        if (
            self.controller is not None
            and self.controller.shedding
            and self.controller.is_cold(self.server.resolve(query))
        ):
            # Admission governor: under overload, cold queries (no
            # overlap with the hot set) are deferred, not queued -- the
            # hint is the governor's backoff in cycles.
            self.controller.record_shed()
            self.stats.rejected_shed += 1
            self.events.info("shed", query=str(query))
            return _reject(uplink.RetryAfter(RETRY_AFTER_CYCLES, trace_id))
        if arrival is None:
            arrival = self._arrival_now()
        try:
            pending = self._admit(query, arrival, key)
        except ValueError as exc:
            return _reject(uplink.Err(str(exc)))
        conn.query_ids.add(pending.query_id)
        if trace_id is not None:
            self.tracer.on_admit(trace_id, pending, owner=conn)
        self.events.info(
            "admit",
            query_id=pending.query_id,
            arrival=pending.arrival_time,
            query=str(query),
            pending=len(self.server.pending),
        )
        return uplink.Ack(pending.query_id, pending.arrival_time, trace_id)

    def _admit(
        self,
        query: XPathQuery,
        arrival: int,
        key: Optional[int] = None,
        *,
        journaled: bool = True,
    ) -> PendingQuery:
        """The one admission path: uplink ``SUBMIT``, journal replay and
        :meth:`preload` all land here, so dedup, redelivery, the
        write-ahead record, ``admitted_total`` and the wake-up cannot
        drift apart.  ``ValueError`` when the server refuses the query.

        ``journaled=False`` is for admissions whose durability lives
        elsewhere: a preloaded workload is its own file, and a replayed
        entry stays in the old journal until the compaction that ends
        the replay writes it to the new one.
        """
        dedup_before = self.server.uplink_dedup_hits
        pending = self.server.submit(query, arrival, client_key=key)
        deduped = self.server.uplink_dedup_hits > dedup_before
        if key is not None and deduped and pending.is_satisfied:
            # Redelivery: the dedup hit points at an admission that
            # already completed, so its documents aired while this
            # client was disconnected and will never re-air on their
            # own.  A resubmit after a reconnect means the client
            # missed them -- forget the entry and admit fresh.
            self.server.forget_uplink_key(key, str(query))
            pending = self.server.submit(query, arrival, client_key=key)
            deduped = False
            self.stats.redelivered_total += 1
            self.events.info("redeliver", query_id=pending.query_id, key=key)
        if deduped:
            # Not re-journaled: the original admission already covers it.
            self.events.info("dedup_hit", query_id=pending.query_id, key=key)
        elif journaled and self.journal is not None:
            # Write-ahead: the admit record is flushed before the ACK
            # leaves, so an acknowledged query can never be lost to a
            # crash.
            self.journal.record_admit(
                pending.query_id,
                str(query),
                pending.arrival_time,
                key,
                epoch=self.epoch,
            )
        self.stats.admitted_total += 1
        self._wake.set()
        return pending

    def _arrival_now(self) -> int:
        """Current channel byte-time: mid-cycle it is the on-air position.

        Strictly after the on-air cycle's start even before its first
        frame has left: that cycle was built before this admission, and
        ``AccessProtocol.can_use`` admits a client to every cycle starting
        at or after its arrival -- a stamp equal to the start would let
        the client lock a result set from an index that predates its query.
        """
        if self._on_air is not None:
            start, offset = self._on_air
            return start + max(offset, 1)
        return self.server.clock

    def _tune_info(self) -> Dict:
        info = {
            "num_channels": self.config.num_data_channels,
            "ack_required": self.server.acknowledged_delivery,
            "checksum_bytes": self._checksum,
            "scheme": self.config.scheme.value,
        }
        if self._cluster_header is not None:
            info["cluster"] = self._cluster_header
        if self.controller is not None:
            info["adaptive"] = True
            info["num_channels"] = self.controller.num_channels
        return info

    def _sampled_stats(self) -> DaemonStats:
        """The one stats object, its live-state fields refreshed."""
        stats, server = self.stats, self.server
        stats.pending = len(server.pending)
        stats.completed = len(server.completed)
        stats.cycles = server.cycle_number
        stats.clock = server.clock
        stats.connections_open = len(self._connections)
        stats.dedup_hits = server.uplink_dedup_hits
        stats.degraded_cycles = server.degraded_cycles
        stats.draining = self._draining
        return stats

    def status(self) -> Dict:
        """The ``STATUS`` wire payload: the declared :class:`DaemonStats`
        keys, then what this daemon's configuration adds."""
        status = stat_status(self._sampled_stats())
        status["num_channels"] = self.config.num_data_channels
        status["bandwidth"] = self.net.bandwidth
        if self.controller is not None:
            status["adaptive"] = True
            status["num_channels"] = self.controller.num_channels
            status["allocation"] = self.controller.allocation
            status["shedding"] = self.controller.shedding
            status["shed_queries"] = self.controller.shed_queries
            status["plan_changes"] = self.controller.plan_changes
        if self.net.shard is not None:
            status["shard"] = self.net.shard.index
            status["num_shards"] = self.net.shard.partition.num_shards
            status["epoch"] = self.epoch
        if self.journal is not None:
            status["journal_replayed"] = self.journal_replayed
        return status

    # ------------------------------------------------------------------
    # Telemetry endpoint callbacks
    # ------------------------------------------------------------------

    def _stat_families(self) -> List[Family]:
        """The declared :class:`DaemonStats` series (plus the adaptive
        controller's), as OpenMetrics families."""
        # Cluster workers label every stats sample with their shard so
        # the front door's merged exposition keeps series distinct even
        # before it injects its own relabelling.
        labels: Dict[str, str] = (
            {"shard": str(self.net.shard.index)}
            if self.net.shard is not None
            else {}
        )
        families = stat_families(self._sampled_stats(), **labels)
        if self.controller is not None:
            # num_channels / hot_set_size / shedding / shed_queries are
            # NOT mirrored here: the controller writes those straight
            # into the process-wide obs registry (which /metrics always
            # installs), and OpenMetrics forbids declaring a family twice.
            ctl = self.controller
            families.append(
                Family("control.allocation", "gauge").add(
                    1, policy=ctl.allocation, **labels
                )
            )
            for name, value in (
                ("control.plan_changes", ctl.plan_changes),
                ("control.k_changes", ctl.k_changes),
                ("control.policy_switches", ctl.policy_switches),
            ):
                families.append(Family(name, "counter").add(value, **labels))
        return families

    def _metrics_text(self) -> str:
        """Render the registry snapshot + daemon stats (synchronously:
        no await separates the snapshot from the serialisation)."""
        return render_openmetrics(
            obs.get_registry().snapshot(), extra_families=self._stat_families()
        )

    def _health(self) -> Tuple[int, Dict]:
        """Drain-aware readiness: 503 once draining so orchestrators
        stop routing new clients, 200 otherwise."""
        payload = {
            "status": "draining" if self._draining else "ok",
            "pending": len(self.server.pending),
            "cycles": self.server.cycle_number,
            "draining": self._draining,
        }
        return (503 if self._draining else 200), payload

    def _drop(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn in self._connections:
            self._connections.remove(conn)
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - best-effort close
            pass
        # A dead connection can never ack: let the barrier re-evaluate.
        self._ack_event.set()

    # ------------------------------------------------------------------
    # Downlink
    # ------------------------------------------------------------------

    async def _broadcast_loop(self) -> None:
        try:
            while await self._wait_for_work():
                now = self._next_build_time()
                # Snapshot owed documents *before* the build: non-ack
                # builds shrink remaining sets at build time.
                self.tracer.begin_build()
                with obs.span("net.cycle_build"):
                    build_started = self.clock.now()
                    cycle = self.server.build_cycle(now)
                    obs.histogram("net.cycle_build_seconds").observe(
                        self.clock.now() - build_started
                    )
                self.tracer.end_build()
                if cycle is None:  # pragma: no cover - wait_for_work guards
                    continue
                self._record_cycle(cycle)
                await self._stream_cycle(cycle)
                if self.server.acknowledged_delivery:
                    await self._collect_acks(cycle)
                self._observe_cycle(cycle)
                self._journal_mark_done()
            # Drain epilogue: SERVER_BYE to every subscriber.
            self.events.info(
                "server_bye",
                completed=len(self.server.completed),
                cycles=self.server.cycle_number,
            )
            bye = encode_frame(FrameKind.SERVER_BYE, b"", self._checksum)
            for conn in list(self._connections):
                if conn.tuned and not conn.closed:
                    await self._send(conn, bye)
        except Exception as exc:
            # A crashed pump is not a drain: no ``SERVER_BYE`` (it would
            # tell a resuming client not to come back for a query the
            # journal is about to replay), the journal keeps its
            # admitted-not-done records, and ``wait_done`` re-raises.
            self._crash = exc
            self.events.error("error", where="broadcast_loop", error=repr(exc))
            self.dump_flight("crash")
        for conn in list(self._connections):
            self._drop(conn)
        await self._release()

    def _record_cycle(self, cycle: BroadcastCycle) -> None:
        """Event + flight-recorder bookkeeping for a freshly built cycle."""
        if cycle.degraded:
            self.events.warning(
                "degraded_build",
                cycle=cycle.cycle_number,
                start=cycle.start_time,
            )
        self.events.info(
            "cycle_built",
            cycle=cycle.cycle_number,
            start=cycle.start_time,
            docs=len(cycle.doc_ids),
            total_bytes=cycle.total_bytes,
            degraded=cycle.degraded,
            pending=len(self.server.pending),
        )
        if self.flight is not None:
            self.flight.record_cycle(
                cycle_summary(
                    cycle, self.server, signature=program_signature(cycle)
                )
            )

    def _observe_cycle(self, cycle: BroadcastCycle) -> None:
        """Adaptive feedback step: runs after the ack barrier so the
        controller sees post-delivery demand, exactly like the
        simulator's cycle hook.  The plan it emits shapes the *next*
        build; a shape change lands in the event log (and thus trace
        v3 / the flight recorder)."""
        if self.controller is None:
            return
        changes = self.controller.plan_changes
        plan = self._active_plan = self.controller.step(self.server, cycle)
        if self.controller.plan_changes > changes:
            self.events.info(
                "plan_change",
                cycle=cycle.cycle_number,
                k=plan.num_channels,
                policy=plan.allocation,
                hot=list(plan.hot_doc_ids),
                shed=plan.shed,
                reason=plan.reason,
            )

    async def _wait_for_work(self) -> bool:
        """Block until a cycle should build; False means shut down."""
        while True:
            has_pending = bool(self.server.pending)
            if self._started.is_set() and has_pending:
                return True
            if self._draining:
                return False
            if (
                self.net.max_queries is not None
                and self.stats.admitted_total >= self.net.max_queries
                and not has_pending
            ):
                return False
            self._wake.clear()
            await self._wake.wait()

    def _next_build_time(self) -> int:
        """Back-to-back cycles; jump to the next arrival when idle --
        the live equivalent of the simulator's resume-at-next-arrival."""
        earliest = min(q.arrival_time for q in self.server.pending)
        return max(self.server.clock, earliest)

    async def _stream_cycle(self, cycle: BroadcastCycle) -> None:
        """The one downlink pump: encode once, then burst by burst.

        Every frame is serialised exactly once per cycle and the *same*
        ``bytes`` objects fan out to all subscribers -- encode work is
        independent of the audience, and so are the bytes: traced or
        not, everyone reads the one cycle.  Under the token bucket a
        burst is one frame; with no bucket there is nothing to wait for
        between frames, so the whole cycle leaves as a single pre-joined
        write.
        """
        ack_required = self.server.acknowledged_delivery
        if ack_required:
            # Open the barrier before the first frame leaves: a fast
            # client may RECV before the streaming coroutine returns.
            self._ack_cycle = cycle.cycle_number
            self._acks = {}
            self._ack_event.clear()
        frames = encode_cycle(
            cycle,
            self.store,
            ack_required=ack_required,
            cluster=self._cluster_header,
            plan=(
                self._active_plan.header()
                if self._active_plan is not None
                else None
            ),
        )
        blobs = [
            encode_frame(frame.kind, frame.payload, self._checksum)
            for frame in frames
        ]
        self.stats.frames_encoded += len(blobs)
        subscribers = [c for c in self._connections if c.tuned and not c.closed]
        registry = obs.get_registry()
        # Resolve each channel's counter once per cycle, not once per
        # frame (the registry lookup formats a label key).
        air_counters: Dict[str, Counter] = {}
        self._on_air = (cycle.start_time, 0)
        self.tracer.begin_stream()
        step = 1 if self._bucket.rate is not None else len(frames)
        with obs.span("net.stream_cycle"):
            for at in range(0, len(frames), step):
                burst = frames[at : at + step]
                blob = blobs[at] if step == 1 else b"".join(blobs)
                await self._bucket.acquire(sum(frame.air_bytes for frame in burst))
                for frame in burst:
                    if frame.doc_id is not None:
                        self.tracer.on_doc_sent(frame.doc_id)
                if burst[-1].kind is FrameKind.CYCLE_END:
                    await self._push_timelines(cycle)
                await asyncio.gather(
                    *(self._send(conn, blob) for conn in subscribers)
                )
                self._on_air = (cycle.start_time, burst[-1].end_offset)
                self.stats.frames_sent += len(burst)
                self.stats.bytes_streamed += len(blob)
                if not registry.enabled:
                    continue
                for frame in burst:
                    if not frame.air_bytes:
                        continue
                    channel = "index" if frame.channel is None else str(frame.channel)
                    counter = air_counters.get(channel)
                    if counter is None:
                        counter = air_counters[channel] = registry.counter(
                            "net.on_air_bytes_total", channel=channel
                        )
                    counter.inc(frame.air_bytes)
        self._on_air = None
        self.stats.cycles_streamed += 1
        self.events.debug(
            "cycle_streamed",
            cycle=cycle.cycle_number,
            subscribers=len(subscribers),
        )

    async def _push_timelines(self, cycle: BroadcastCycle) -> None:
        """Push each trace this cycle completes to whoever submitted it.

        Called just ahead of the burst carrying ``CYCLE_END``: every DOC
        stamp of the cycle is taken by then, and the client holds its
        timeline before the frame that satisfies it.  The line travels
        beside the cycle (0 air bytes -- signatures and pacing are
        untouched), and a trace whose connection is gone (or never
        tuned) simply drops its timeline: nobody is left to close it.
        """
        for trace_id, entry in self.tracer.cycle_entries(cycle.cycle_number).items():
            conn = self.tracer.states[trace_id].owner
            if conn is not None and conn.tuned:
                await self._send(
                    conn,
                    encode_text(uplink.format_reply(uplink.Timeline(trace_id, entry))),
                )

    async def _send(self, conn: _Connection, blob: bytes) -> None:
        if conn.closed:
            return
        try:
            conn.writer.write(blob)
            buffered = conn.writer.transport.get_write_buffer_size()
            if buffered > MAX_BUFFERED_BYTES:
                # A broadcast never waits for one stalled subscriber: a
                # reader that has fallen further behind than the cap is
                # evicted (the medium's equivalent of drifting out of
                # range), so everyone else keeps receiving.
                self.stats.slow_consumers_evicted += 1
                self.events.warning(
                    "slow_consumer_evicted", buffered=buffered
                )
                self._drop(conn)
                return
            if buffered > DRAIN_HIGH_WATER:
                # Below the high-water mark writes are fire-and-forget;
                # above it, yield to the transport.  The transport's
                # pause threshold sits at the eviction cap, so this
                # drain cannot block on a subscriber that the check
                # above would not already have evicted.
                await conn.writer.drain()
        except (ConnectionError, OSError):
            self._drop(conn)

    async def _collect_acks(self, cycle: BroadcastCycle) -> None:
        """The acknowledged-delivery barrier after one streamed cycle.

        Waits for a RECV from every tuned connection owning an
        unsatisfied query admitted before the cycle, then applies the
        confirmations in admission (query id) order -- the same order
        the simulator applies its sessions' acknowledgements in.
        Queries no live tuned connection owns are confirmed
        optimistically (broadcast counts as received), so a submit-only
        peer cannot livelock the broadcast.
        """
        pending_by_id = {q.query_id: q for q in self.server.pending}
        while True:
            tuned_ids: Set[int] = set()
            for conn in self._connections:
                if conn.tuned and not conn.closed:
                    tuned_ids.update(conn.query_ids)
            required = {
                query_id
                for query_id in tuned_ids
                if query_id in pending_by_id
                and pending_by_id[query_id].arrival_time <= cycle.start_time
            }
            if not (required - set(self._acks)):
                break
            self._ack_event.clear()
            await self._ack_event.wait()
            if self._draining and not any(
                conn.tuned and not conn.closed for conn in self._connections
            ):
                break  # drain with no listeners left: nobody can ack
        for query_id in sorted(self._acks):
            pending = pending_by_id.get(query_id)
            if pending is not None and not pending.is_satisfied:
                self.server.confirm_delivery(pending, self._acks[query_id], cycle)
        broadcast_set = set(cycle.doc_ids)
        for pending in list(self.server.pending):
            if (
                pending.query_id not in self._acks
                and pending.query_id not in tuned_ids
                and pending.arrival_time <= cycle.start_time
                and not pending.is_satisfied
            ):
                received = (
                    set(pending.result_doc_ids) - pending.remaining_doc_ids
                ) | (pending.remaining_doc_ids & broadcast_set)
                self.server.confirm_delivery(pending, received, cycle)
        self._ack_cycle = None
        self._acks = {}

    async def _release(self) -> None:
        """What a drain and a crash both give back once the connections
        are gone: the listening port, the metrics endpoint, the journal
        handle and the process-wide obs registry."""
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        if self._metrics_http is not None:
            await self._metrics_http.stop()
            self._metrics_http = None
        if self.journal is not None:
            # The handle only: after a crash the journal *file* keeps
            # its admitted-not-done records -- that is the contract.
            self.journal.close()
        if self._metrics_at is not None:
            # Put the process-wide obs state back the way we found it --
            # but only if this daemon's registry is still the active one.
            # With several in-process daemons (cluster tests) a non-LIFO
            # stop must not clobber a sibling's live registry, and a
            # stale "previous" must not be resurrected after it.
            if obs.is_enabled() and obs.get_registry() is self._obs_installed:
                if self._obs_previous is not None:
                    obs.enable(self._obs_previous)
                else:
                    obs.disable()
            self._obs_installed = None
        self._done.set()

    async def abort(self) -> None:
        """Crash the daemon: the in-process analogue of ``SIGKILL``.

        No drain, no ``SERVER_BYE``, no journal compaction -- sockets
        are reset mid-frame and pending queries are simply dropped on
        the floor.  Everything a real crash would leak into the OS is
        released (ports, tasks, the obs registry) so tests can boot a
        successor daemon in the same process and exercise the journal
        replay + client resume path deterministically.
        """
        if self._done.is_set():
            return
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except asyncio.CancelledError:
                pass
        for conn in list(self._connections):
            conn.closed = True
            try:
                conn.writer.transport.abort()  # RST, not FIN: a crash
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        self._connections.clear()
        await self._release()

    # ------------------------------------------------------------------
    # Boot helpers
    # ------------------------------------------------------------------

    def preload(self, queries: Sequence, arrival_time: int = 0) -> int:
        """Admit a persisted workload at startup; returns admissions.

        Queries with empty result sets (possible when a hand-written
        workload does not match the collection) are skipped, not fatal.
        """
        admitted = 0
        for query in queries:
            try:
                self._admit(query, arrival_time, journaled=False)
            except ValueError:
                continue
            admitted += 1
        return admitted
