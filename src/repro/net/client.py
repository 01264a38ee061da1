"""The async two-tier client: selective tuning over a socket.

:class:`AsyncTwoTierClient` is a thin transport shell around the
*unchanged* access protocol of :mod:`repro.client` -- the same
:class:`~repro.client.twotier.TwoTierClient` the simulator drives, a
single tuner over however many data channels the daemon airs.  The
shell submits the query on the uplink,
tunes into the downlink, reconstructs each streamed cycle with
:class:`~repro.net.wire.CycleDecoder` (verifying the program signature
embedded in the cycle header), and feeds the reconstructed cycle to the
protocol object.  Because the protocol code is shared and the decoder
round-trips the cycle byte-exactly, the client's access-time and
tuning-time byte counts match the simulator's for the same broadcast --
that parity is the differential test in ``tests/net/test_parity.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Type, TypeVar

from repro.broadcast.partition import PartitionMap
from repro.broadcast.program import BroadcastCycle
from repro.client.metrics import ClientMetrics
from repro.client.protocol import AccessProtocol, FirstTierRead
from repro.client.twotier import TwoTierClient
from repro.net.clock import MonotonicClock
from repro.net.framing import (
    FrameError,
    FrameKind,
    encode_text,
    read_frame_mixed,
)
from repro.net import uplink
from repro.net.uplink import Command, Verb
from repro.net.wire import CycleDecoder, WireProtocolError, check_tuning
from repro.obs.telemetry.tracing import QueryTrace
from repro.xpath.parser import parse_query


_R = TypeVar("_R", uplink.Ack, uplink.Tuned)

#: reconnect attempts a ``resume=True`` session makes before giving up
MAX_RESUMES = 8
#: first reconnect back-off in seconds; it doubles per attempt, up to 1 s
RESUME_DELAY = 0.05


class UplinkError(ConnectionError):
    """The daemon answered a command with ERR (or an unexpected reply)."""


class Backpressure(ConnectionError):
    """The daemon answered SUBMIT with RETRY_AFTER."""

    def __init__(self, hint: int) -> None:
        super().__init__(f"daemon overloaded, retry after {hint}")
        self.hint = hint


class WireError(WireProtocolError):
    """A downlink frame failed CRC/framing/decode checks, with context.

    Subclasses :class:`~repro.net.wire.WireProtocolError` so existing
    handlers keep working, but carries *where* the corruption happened
    (shard, frame kind, phase) instead of killing the reader with a
    bare exception.  Resume-mode sessions treat it like a dropped
    connection: reconnect, discard the partial cycle, resubmit.
    """

    def __init__(
        self,
        detail: str,
        *,
        shard: Optional[int] = None,
        frame_kind: Optional[str] = None,
        phase: str = "downlink",
    ) -> None:
        where = f"shard {shard}" if shard is not None else "daemon"
        kind = f" {frame_kind} frame" if frame_kind else ""
        super().__init__(f"{phase} from {where}:{kind} {detail}")
        self.detail = detail
        self.shard = shard
        self.frame_kind = frame_kind
        self.phase = phase


@dataclass
class ClientReport:
    """What one satisfied (or disconnected) client session measured."""

    query_id: int
    protocol: str
    metrics: ClientMetrics
    satisfied: bool
    #: cycles whose wire stream decoded and signature-verified
    cycles_verified: int = 0
    #: per-cycle program signatures, in broadcast order
    signatures: List[str] = field(default_factory=list)
    #: closed end-to-end wire trace (``trace=True`` sessions only)
    trace: Optional[QueryTrace] = None
    #: the downlink dropped mid-session (worker crash / reset) --
    #: ``satisfied`` is False and the metrics cover the partial tune
    dropped: bool = False
    #: reconnect attempts a ``resume=True`` :meth:`AsyncTwoTierClient.run`
    #: needed before this report was produced
    resumes: int = 0
    #: restarted-worker detections (ShardIdentity epoch bumps observed)
    epoch_bumps: int = 0
    #: mid-session channel-count changes observed in CYCLE_BEGIN plan
    #: headers (adaptive daemon only; the protocol re-tunes in place)
    k_retunes: int = 0

    @property
    def access_bytes(self) -> int:
        return self.metrics.access_bytes

    @property
    def tuning_bytes(self) -> int:
        return self.metrics.tuning_bytes


class AsyncTwoTierClient:
    """Submit one XPath query and tune until it is satisfied.

    Staged API for scripted tests (``connect`` / ``tune`` / ``submit`` /
    ``run_session``) plus a one-call :meth:`run` for normal use.  The
    access protocol object is built lazily, once the arrival time is
    known.
    """

    def __init__(
        self,
        query: str,
        host: str = "127.0.0.1",
        port: int = 0,
        arrival_time: Optional[int] = None,
        first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
        client_key: Optional[int] = None,
        trace: bool = False,
        shard: Optional[int] = None,
        resume: bool = False,
    ) -> None:
        self.query = parse_query(query)
        self.host = host
        self.port = port
        #: scripted arrival byte-time (replay); ``None`` = daemon stamps it
        self.arrival_time = arrival_time
        self.first_tier_read = first_tier_read
        self.client_key = client_key
        #: request end-to-end wire tracing (the ``TRACE=`` SUBMIT option)
        self.trace = trace
        self.trace_id: Optional[str] = None
        self._timeline: Optional[uplink.Timeline] = None
        #: pin the session to one cluster shard: TUNE/SUBMIT carry
        #: ``SHARD=<i>``, and every decoded cycle's documents are
        #: verified against the shard's partition map.  ``None`` = the
        #: unchanged single-daemon client.
        self.shard = shard
        #: the daemon's placement contract from the TUNED banner /
        #: CYCLE_BEGIN header (``None`` against an unsharded daemon)
        self.cluster: Optional[Dict] = None
        self._partition: Optional[PartitionMap] = None
        self._placed: Set[int] = set()
        #: reconnect-and-resubmit on dropped downlinks.  Requires a
        #: ``client_key``: resume correctness rests on the daemon's
        #: ``(client_key, query)`` uplink dedup making the resubmit
        #: idempotent against the journal-replayed admission.
        self.resume = resume
        if resume and client_key is None:
            raise ValueError("resume=True requires a client_key")
        #: last ShardIdentity epoch seen on this session's downlink; a
        #: bump means the worker restarted and our placement/PCI state
        #: describes a dead incarnation
        self.epoch: Optional[int] = None
        self.resumes = 0
        self.epoch_bumps = 0

        self.query_id: Optional[int] = None
        self.num_channels = 1
        self.ack_required = False
        #: the daemon advertised an adaptive control plane in its TUNED
        #: banner: channel count may change mid-session, so the session
        #: follows the ``plan`` key of each CYCLE_BEGIN header
        self.adaptive = False
        self.k_retunes = 0
        self._checksum = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.protocol: Optional[AccessProtocol] = None
        #: downlink frames that raced an uplink reply on this tuned
        #: connection, replayed to :meth:`run_session` in arrival order
        self._deferred: List[Tuple[FrameKind, bytes]] = []

    # ------------------------------------------------------------------
    # Staged API
    # ------------------------------------------------------------------

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._deferred.clear()  # frames belong to the old connection

    async def tune(self) -> None:
        """Join the downlink and learn the daemon's channel model.

        Against a cluster front door ``RETRY_AFTER`` (cluster-wide
        admission) surfaces as :class:`Backpressure` exactly like an
        overloaded SUBMIT.  A banner failing a header's checks
        (:func:`~repro.net.wire.check_tuning`) is a ``"tune"`` WireError.
        """
        info = (
            await self._exchange(Command(Verb.TUNE, shard=self.shard), uplink.Tuned)
        ).info
        num_channels = info.get("num_channels", 1)
        checksum = info.get("checksum_bytes", 0)
        cluster = info.get("cluster")
        try:
            check_tuning(num_channels, checksum, cluster)
        except WireProtocolError as exc:
            raise WireError(str(exc), shard=self.shard, phase="tune") from exc
        self.num_channels = num_channels
        self.ack_required = bool(info.get("ack_required", False))
        self.adaptive = bool(info.get("adaptive", False))
        self._checksum = checksum
        if cluster is not None:
            self._check_cluster(cluster)

    async def submit(self) -> int:
        """SUBMIT the query; returns the daemon-assigned query id."""
        ack = await self._exchange(
            Command(
                Verb.SUBMIT,
                at=self.arrival_time,
                key=self.client_key,
                shard=self.shard,
                # Empty value: the daemon mints the trace ID and echoes it.
                trace=(self.trace_id or "") if self.trace else None,
                query=str(self.query),
            ),
            uplink.Ack,
        )
        self.query_id = ack.query_id
        self.arrival_time = ack.arrival
        if ack.trace is not None:
            self.trace_id = ack.trace
        return self.query_id

    async def run_session(self) -> ClientReport:
        """Consume the downlink until the query is satisfied.

        Feeds each decoded cycle to the shared access protocol, sends
        RECV confirmations when the daemon runs acknowledged delivery,
        and BYEs out once complete (or reports partial metrics if the
        daemon says SERVER_BYE first).
        """
        if self._reader is None or self.query_id is None:
            raise UplinkError("connect(), tune() and submit() first")
        protocol = self._build_protocol()
        decoder = CycleDecoder()
        signatures: List[str] = []
        satisfied = False
        dropped = False
        while True:
            try:
                kind, payload = await self._read_downlink()
            except FrameError as exc:
                # Corrupt bytes, not a lost peer: surface the typed
                # error so callers can distinguish "the worker died"
                # from "the stream lied".
                raise WireError(
                    str(exc), shard=self._cluster_shard(), phase="framing"
                ) from exc
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                dropped = True
                break
            if kind is FrameKind.SERVER_BYE:
                break
            if kind is FrameKind.TEXT:
                # A late uplink reply (e.g. a queued ACK echo), or a
                # pushed timeline: keep the latest one for this session's
                # trace (acknowledged delivery can span several cycles).
                with contextlib.suppress(UnicodeDecodeError, uplink.UplinkSyntaxError):
                    line = uplink.parse_reply(payload.decode("utf-8"))
                    if isinstance(line, uplink.Timeline) and line.trace == self.trace_id:
                        self._timeline = line
                continue
            try:
                cycle = decoder.feed(kind, payload)
            except WireProtocolError as exc:
                raise WireError(
                    str(exc),
                    shard=self._cluster_shard(),
                    frame_kind=kind.name,
                    phase="decode",
                ) from exc
            if cycle is None:
                continue
            assert decoder.last_header is not None
            signatures.append(decoder.last_header["signature"])
            plan = decoder.last_header.get("plan")
            if plan is not None:
                new_k = int(plan.get("k", self.num_channels))
                if new_k != self.num_channels:
                    # Mid-session K change: the two-tier protocol
                    # replans from each cycle's own layout, so following
                    # the plan is just bookkeeping -- no protocol reset.
                    self.k_retunes += 1
                    self.num_channels = new_k
            cluster = decoder.last_header.get("cluster")
            if cluster is not None:
                self._check_cluster(cluster)
                self._verify_placement(cluster, cycle)
            was_satisfied = protocol.satisfied
            protocol.on_cycle(cycle)
            if (
                self.ack_required
                and protocol.can_use(cycle)
                and not was_satisfied
            ):
                await self._send(
                    Command(
                        Verb.RECV,
                        query_id=self.query_id,
                        cycle=cycle.cycle_number,
                        docs=frozenset(protocol.received_doc_ids),
                    )
                )
            if protocol.satisfied:
                satisfied = True
                with contextlib.suppress(ConnectionError, OSError):
                    await self._send(Command(Verb.BYE))
                break
        trace: Optional[QueryTrace] = None
        if satisfied and self._timeline is not None:
            # Close the chain: ``received`` is this client's stamp on
            # the shared system monotonic clock.
            trace = QueryTrace.from_entry(
                self._timeline.trace,
                self._timeline.entry,
                query=str(self.query),
                received=MonotonicClock().now(),
            )
        return ClientReport(
            query_id=self.query_id,
            protocol=protocol.protocol_name,
            metrics=protocol.metrics,
            satisfied=satisfied,
            cycles_verified=len(signatures),
            signatures=signatures,
            trace=trace,
            dropped=dropped and not satisfied,
            resumes=self.resumes,
            epoch_bumps=self.epoch_bumps,
            k_retunes=self.k_retunes,
        )

    async def run(self) -> ClientReport:
        """connect + tune + submit + session, with cleanup.

        With ``resume=True``, a dropped downlink (worker crash, socket
        reset, corrupt frame) is retried: the client re-enters through
        its original address, re-tunes, and resubmits the same query
        under the same ``client_key``.  The daemon's uplink dedup makes
        the resubmit idempotent -- if the crash-resume journal already
        re-admitted the query, the resubmit attaches to that pending
        entry instead of double-counting it.  ``UplinkError`` (the
        daemon *answered* and said no) is never retried.
        """
        if not self.resume:
            await self.connect()
            try:
                await self.tune()
                await self.submit()
                return await self.run_session()
            finally:
                await self.close()
        delay = RESUME_DELAY
        last_error: Optional[BaseException] = None
        for attempt in range(MAX_RESUMES + 1):
            if attempt > 0:
                self.resumes += 1
                await asyncio.sleep(delay)
                delay = min(delay * 2, 1.0)
            try:
                await self.connect()
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
            try:
                await self.tune()
                await self.submit()
                report = await self.run_session()
            except UplinkError:
                raise
            except (
                Backpressure,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
            ) as exc:
                last_error = exc
                continue
            finally:
                await self.close()
            if report.satisfied or not report.dropped:
                return report
            last_error = ConnectionResetError(
                "downlink dropped before satisfied"
            )
        # Re-raise the concrete transient error: callers with their own
        # retry taxonomy (run_load) classify it instead of a bare
        # ConnectionError that reads as a verdict.
        if last_error is not None:
            raise last_error
        raise ConnectionError(
            f"query not satisfied after {MAX_RESUMES} resumes"
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_protocol(self) -> AccessProtocol:
        if self.protocol is not None:
            return self.protocol
        assert self.arrival_time is not None
        self.protocol = TwoTierClient(
            self.query, self.arrival_time, first_tier_read=self.first_tier_read
        )
        return self.protocol

    async def _exchange(self, command: Command, expect: Type[_R]) -> _R:
        """Send *command* and return its *expect*-ed reply."""
        reply = await self._command(command)
        if isinstance(reply, expect):
            return reply
        if isinstance(reply, uplink.RetryAfter):
            raise Backpressure(reply.hint)
        raise UplinkError(
            f"{command.verb.value} rejected: {uplink.format_reply(reply)!r}"
        )

    def _check_cluster(self, cluster: Dict) -> None:
        """Pin the daemon's placement contract against the pinned shard.

        Also watches the ShardIdentity ``epoch``: a bump means the
        worker restarted since we last tuned, so every piece of state
        derived from the old incarnation's broadcast -- placement
        verdicts, the cached partition map, deferred frames, and the
        access protocol's index position -- is discarded before the new
        stream is consumed.
        """
        self.cluster = cluster
        if self.shard is not None and cluster["shard"] != self.shard:
            raise WireProtocolError(
                f"tuned to shard {cluster.get('shard')}, expected {self.shard}"
            )
        epoch = cluster.get("epoch", 0)
        if self.epoch is not None and epoch != self.epoch:
            self.epoch_bumps += 1
            self._placed.clear()
            self._partition = None
            self._deferred.clear()
            self.protocol = None
        self.epoch = epoch

    def _cluster_shard(self) -> Optional[int]:
        if self.shard is not None:
            return self.shard
        return self.cluster["shard"] if self.cluster is not None else None

    def _verify_placement(self, cluster: Dict, cycle: BroadcastCycle) -> None:
        """Every document this shard broadcasts must hash to this shard
        under the partition map the header itself advertises."""
        shard = cluster["shard"]
        if self._partition is None:
            self._partition = PartitionMap.from_description(cluster["map"])
        for doc_id in cycle.doc_ids:
            if doc_id in self._placed:
                continue
            owner = self._partition.shard_of(doc_id)
            if owner != shard:
                raise WireProtocolError(
                    f"doc {doc_id} belongs to shard {owner} but aired on "
                    f"shard {shard}"
                )
            self._placed.add(doc_id)

    #: one full cycle of a large collection is thousands of frames; a
    #: reply delayed past this many is a wedged daemon, not a race
    _MAX_DEFERRED = 65_536

    async def _send(self, command: Command) -> None:
        assert self._writer is not None
        self._writer.write(encode_text(uplink.format_command(command)))
        await self._writer.drain()

    async def _command(self, command: Command) -> uplink.Reply:
        """Send one uplink command and read its reply.

        On a tuned connection to a *live* daemon, downlink cycle frames
        (and a traced query's pushed timeline) can legitimately race the
        reply: the daemon streams cycles to every subscriber whenever
        any query is pending.  Those frames are part of the broadcast
        this client tuned into, so they are deferred -- not dropped --
        and :meth:`run_session` consumes them in arrival order before
        reading the socket again.
        """
        assert self._reader is not None
        await self._send(command)
        while True:
            kind, payload = await read_frame_mixed(
                self._reader, self._checksum
            )
            if kind is FrameKind.TEXT:
                try:
                    reply = uplink.parse_reply(payload.decode("utf-8"))
                except (UnicodeDecodeError, uplink.UplinkSyntaxError) as exc:
                    raise UplinkError(
                        f"unreadable {command.verb.value} reply: {exc}"
                    ) from exc
                if not isinstance(reply, uplink.Timeline):
                    return reply
                # A pushed timeline answers no command: it waits its turn
                # with the cycle frames it travels beside.
            if len(self._deferred) >= self._MAX_DEFERRED:
                raise UplinkError(
                    f"no reply to {command.verb.value} within "
                    f"{self._MAX_DEFERRED} downlink frames"
                )
            self._deferred.append((kind, payload))

    async def _read_downlink(self) -> Tuple[FrameKind, bytes]:
        """Read one downlink frame (TEXT = no trailer, binary = model's).

        Frames that raced an uplink reply drain first, so the decoder
        sees the stream exactly as the daemon sent it."""
        if self._deferred:
            return self._deferred.pop(0)
        assert self._reader is not None
        return await read_frame_mixed(self._reader, self._checksum)
