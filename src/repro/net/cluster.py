"""The sharded serving tier: front-door router + worker supervisor.

One :class:`ClusterRouter` owns the public listening socket; the
document collection is partitioned across N worker processes -- each an
*unchanged* :class:`~repro.net.daemon.BroadcastDaemon` serving its slice
of the :class:`~repro.broadcast.partition.PartitionMap` -- and the
router steers every uplink session to the owning shard:

* ``SUBMIT``/``TUNE``/``RECV`` carrying ``SHARD=<i>`` route to worker
  ``i`` (clients pin their shard; the worker re-validates, so a
  misrouted session fails loudly);
* a ``SUBMIT`` naming no shard is spread by a stable hash of its query
  text (:meth:`~repro.broadcast.partition.PartitionMap.shard_for_query`)
  -- the text :func:`repro.net.uplink.parse_command` extracts, which is
  the text the worker will parse;
* ``STATUS`` at the front door aggregates every worker's status;
* ``/metrics`` at the front door scrapes every worker's endpoint,
  relabels the samples ``shard="i"`` and merges them with the router's
  own counters into one lint-clean exposition.

A routed session is spliced: the router opens a backend connection,
forwards the first command and then copies raw bytes both ways, so
clients need no cluster awareness at all.

Cluster-wide admission rides the existing wire vocabulary: when the sum
of pending queries across all shards reaches ``max_sessions``, the
front door answers the routing command with ``RETRY_AFTER`` before any
worker sees it.

:class:`ClusterSupervisor` spawns the workers as ``python -m repro
serve --shard i/N`` subprocesses on ephemeral ports and, with
:meth:`~ClusterSupervisor.monitor` running, heals them: crash respawn
under a bumped epoch with journal replay, a crash-loop circuit breaker,
heartbeat kills for hung workers (see its docstring).

**Failure domains.** Each shard is an independent failure domain: the
router keeps a per-shard :class:`ShardHealth` (``UP`` / ``DEGRADED`` /
``DOWN``).  Transient connect failures are retried with backoff and mark
the shard DEGRADED; enough consecutive failures mark it DOWN, after
which routed commands get ``RETRY_AFTER`` at the front door (bounded by
periodic re-probes) while every other shard keeps streaming -- graceful
degradation, not collapse.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.broadcast.partition import PartitionMap
from repro.net.clock import ClockAdapter, MonotonicClock
from repro.net.daemon import DaemonStats
from repro.net.framing import encode_text
from repro.net import uplink
from repro.net.uplink import Command, Verb
from repro.obs.telemetry.exporter import (
    Family,
    MetricsHTTPServer,
    merge_expositions,
    render_openmetrics,
    scrape,
    stat,
    stat_families,
    stat_status,
    status_total_keys,
)

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "RouterStats",
    "ShardHealth",
    "WorkerAddress",
]

_SPLICE_CHUNK = 64 * 1024

#: commands the router routes to a shard (everything else it answers)
_ROUTED = (Verb.SUBMIT, Verb.TUNE, Verb.RECV)

#: base backoff between backend connect attempts, doubled per attempt
_CONNECT_BACKOFF = 0.05
#: the hint sent with a front-door ``RETRY_AFTER`` for an unavailable shard
_RETRY_AFTER_HINT = 1
#: how long :meth:`ClusterSupervisor.stop` waits for the graceful drain
#: before escalating to SIGKILL
_STOP_TIMEOUT = 60.0
#: a heartbeat with no reply inside this many seconds is a miss, and
#: this many consecutive misses get a hung worker killed
_HEARTBEAT_TIMEOUT = 2.0
_HEARTBEAT_MISSES = 2


class ShardHealth(enum.Enum):
    """The router's view of one shard's failure domain.

    ``UP`` routes normally; ``DEGRADED`` (recent connect failures, still
    under the DOWN threshold) routes but is one failure from isolation;
    ``DOWN`` answers ``RETRY_AFTER`` at the front door, re-probing the
    worker at most once per ``ClusterConfig.down_probe_interval``.
    """

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass(frozen=True)
class WorkerAddress:
    """Where one shard's daemon listens."""

    shard: int
    host: str
    port: int
    #: the worker's /metrics endpoint; ``None`` = no telemetry plane
    metrics_port: Optional[int] = None


@dataclass
class ClusterConfig:
    """Front-door knobs (the broadcast model lives in the workers)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port lands in ``router.port``
    #: cluster-wide admission bound: when the pending-query total across
    #: all shards reaches this, routing commands get RETRY_AFTER at the
    #: front door; ``None`` = each worker's own ``max_pending`` is the
    #: only limit
    max_sessions: Optional[int] = None
    #: how stale (seconds) the cached cluster pending total may be
    #: before the admission gate re-polls the workers; 0 = always fresh
    admission_refresh: float = 0.25
    #: serve an aggregated /metrics (+ /healthz) at the front door;
    #: ``None`` = no endpoint, 0 = ephemeral
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    #: injectable clock for the admission cache (tests pin staleness)
    clock: Optional[ClockAdapter] = None
    #: extra backend connect attempts before a splice gives up (a worker
    #: mid-restart refuses connections for a few hundred ms; retrying
    #: here hides the blip from the client entirely)
    connect_retries: int = 2
    #: consecutive failed connects (after retries) that flip a shard
    #: from DEGRADED to DOWN
    down_after: int = 3
    #: how often (seconds) a DOWN shard is re-probed by letting one
    #: routed command attempt a real connect
    down_probe_interval: float = 1.0
    #: close a spliced session when *neither* direction moves a byte for
    #: this long -- reclaims sessions wedged on a hung (not dead) worker.
    #: ``None`` disables the timer (an idle-but-healthy tuned session is
    #: legitimate; enable this for chaos runs and busy front doors)
    splice_idle_timeout: Optional[float] = None


@dataclass
class RouterStats:
    """Operational counters of the front door, declared like
    :class:`~repro.net.daemon.DaemonStats`: the ``router`` block of the
    front door's ``STATUS`` and its ``/metrics`` families render from
    these fields."""

    connections_total: int = stat("router.connections", status="connections")
    #: exported per shard, from ``routed_by_shard``
    routed_total: int = stat(status="routed")
    proxied_total: int = stat("router.sessions_proxied", status="proxied")
    rejected_overload: int = stat("router.rejected_overload", status="rejected")
    #: routed commands answered RETRY_AFTER because their shard was
    #: DOWN or its backend connect failed after retries
    rejected_unavailable: int = stat(
        "router.rejected_unavailable", status="rejected_unavailable"
    )
    #: backend connect attempts beyond the first (retry pressure)
    connect_retries_total: int = stat("router.connect_retries")
    #: spliced sessions closed by the idle timeout
    splices_idle_closed: int = stat("router.splices_idle_closed")
    errors_total: int = stat("router.errors")
    status_requests: int = stat("router.status_requests")
    #: per-shard routed-session counts, indexed by shard
    routed_by_shard: List[int] = field(default_factory=list)


class ClusterRouter:
    """Asyncio front door for a sharded broadcast cluster."""

    def __init__(
        self,
        partition: PartitionMap,
        workers: Sequence[WorkerAddress],
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if len(workers) != partition.num_shards:
            raise ValueError(
                f"{partition.num_shards} shards need exactly that many "
                f"workers, got {len(workers)}"
            )
        for i, worker in enumerate(workers):
            if worker.shard != i:
                raise ValueError(
                    f"workers must be listed in shard order; slot {i} "
                    f"holds shard {worker.shard}"
                )
        self.partition = partition
        self.workers = list(workers)
        self.config = config if config is not None else ClusterConfig()
        self.clock: ClockAdapter = self.config.clock or MonotonicClock()
        self.stats = RouterStats(routed_by_shard=[0] * partition.num_shards)
        #: live spliced sessions per shard
        self.active: List[int] = [0] * partition.num_shards
        #: per-shard failure-domain state the routing decisions read
        self.health: List[ShardHealth] = (
            [ShardHealth.UP] * partition.num_shards
        )
        #: consecutive failed connects (post-retry) per shard
        self._connect_failures: List[int] = [0] * partition.num_shards
        #: clock time of the last DOWN-shard probe per shard
        self._probe_at: List[float] = [float("-inf")] * partition.num_shards

        self.port: Optional[int] = None
        self.metrics_port: Optional[int] = None
        self._tcp: Optional[asyncio.base_events.Server] = None
        #: one task per open front-door connection, spliced or not
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._pending_cache: Optional[int] = None
        self._pending_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the front-door socket (and the metrics endpoint)."""
        self._tcp = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self._metrics_text,
                self._health,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            self.metrics_port = await self._metrics_http.start()

    async def stop(self) -> None:
        """Stop listening and end every open connection, splices
        included: each leaves through its handler's ``finally``, so both
        ends of a live session read EOF."""
        if self._tcp is not None:
            self._tcp.close()
            # ``wait_closed`` alone ends no session: before Python 3.12 it
            # returns with the handlers still running, from 3.12 on it
            # waits for connections nobody is closing.
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            # (a handler's own failure is the stream protocol's to report)
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._tcp.wait_closed()
            self._tcp = None
        if self._metrics_http is not None:
            await self._metrics_http.stop()
            self._metrics_http = None

    @property
    def active_sessions(self) -> int:
        return sum(self.active)

    # ------------------------------------------------------------------
    # Shard health
    # ------------------------------------------------------------------

    def set_health(self, shard: int, health: ShardHealth) -> None:
        """Externally assert a shard's health (the supervisor's monitor
        marks a shard DOWN the moment its process exits, ahead of any
        client discovering it the slow way)."""
        self.health[shard] = health
        if health is ShardHealth.UP:
            self._connect_failures[shard] = 0

    def update_worker(self, shard: int, worker: WorkerAddress) -> None:
        """Point a shard at a (re)started worker and mark it UP."""
        if worker.shard != shard:
            raise ValueError(
                f"address for shard {worker.shard} cannot serve slot {shard}"
            )
        self.workers[shard] = worker
        self.set_health(shard, ShardHealth.UP)

    def _record_connect_failure(self, shard: int) -> None:
        self._connect_failures[shard] += 1
        if self._connect_failures[shard] >= self.config.down_after:
            self.health[shard] = ShardHealth.DOWN
        else:
            self.health[shard] = ShardHealth.DEGRADED

    def _allow_attempt(self, shard: int) -> bool:
        """Whether a routed command may try this shard's backend now.

        UP/DEGRADED shards always may.  A DOWN shard admits one probe
        per ``down_probe_interval`` so recovery is discovered even if
        the supervisor never calls :meth:`update_worker`.
        """
        if self.health[shard] is not ShardHealth.DOWN:
            return True
        now = self.clock.now()
        if now - self._probe_at[shard] >= self.config.down_probe_interval:
            self._probe_at[shard] = now
            return True
        return False

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_total += 1

        async def handle(command: Command) -> Optional[uplink.Reply]:
            if command.verb is Verb.STATUS:
                self.stats.status_requests += 1
                return uplink.Status(await self.aggregate_status())
            if command.verb in _ROUTED:
                return await self._route(command, reader, writer)
            return uplink.Bye()

        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            await uplink.serve_connection(reader, writer, handle, self._on_err)
        except asyncio.CancelledError:
            # :meth:`stop` ending the session.  Nobody awaits a stream
            # handler but ``stop``, and asyncio's stream protocol logs one
            # that *ends* cancelled as a crashed callback: close the
            # connection below and finish normally instead.
            pass
        finally:
            self._handlers.discard(task)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    def _on_err(self, reply: uplink.Err) -> None:
        self.stats.errors_total += 1

    async def _route(
        self,
        command: Command,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[uplink.Reply]:
        """Steer one routed command: the front door's own answer, or
        ``None`` once the connection has been spliced to its worker (the
        splice closes it when either side leaves)."""
        shard = command.shard
        if shard is None:
            # No pin: a SUBMIT spreads by its query text, the rest go to 0.
            shard = (
                self.partition.shard_for_query(command.query)
                if command.verb is Verb.SUBMIT
                else 0
            )
        elif not 0 <= shard < self.partition.num_shards:
            return uplink.Err(
                f"shard {shard} out of range "
                f"(cluster has {self.partition.num_shards})"
            )
        if self.config.max_sessions is not None:
            pending = await self._cluster_pending()
            if pending >= self.config.max_sessions:
                self.stats.rejected_overload += 1
                return uplink.RetryAfter(pending)
        if not self._allow_attempt(shard):
            # Graceful degradation: a DOWN shard answers RETRY_AFTER at
            # the front door -- the client backs off and resubmits --
            # while sessions for every other shard route normally.
            self.stats.rejected_unavailable += 1
            return uplink.RetryAfter(_RETRY_AFTER_HINT)
        self.stats.routed_total += 1
        self.stats.routed_by_shard[shard] += 1
        return await self._splice(shard, command, reader, writer)

    async def _connect_worker(
        self, shard: int
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """Open a backend connection, retrying transient failures.

        A worker mid-restart refuses connections for a moment; bounded
        retry-with-backoff here turns that into added latency instead of
        a client-visible error.  Success resets the shard to UP; final
        failure counts toward the DOWN threshold.
        """
        delay = _CONNECT_BACKOFF
        for attempt in range(self.config.connect_retries + 1):
            if attempt:
                self.stats.connect_retries_total += 1
                await asyncio.sleep(delay)
                delay *= 2
            worker = self.workers[shard]
            try:
                pair = await asyncio.open_connection(worker.host, worker.port)
            except OSError:
                continue
            self.set_health(shard, ShardHealth.UP)
            return pair
        self._record_connect_failure(shard)
        return None

    async def _splice(
        self,
        shard: int,
        command: Command,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[uplink.Reply]:
        """Forward the routing command, then pump raw bytes both ways
        until either side closes (or goes idle too long)."""
        pair = await self._connect_worker(shard)
        if pair is None:
            # Same vocabulary as overload: the client's Backpressure
            # retry loop handles a crashed worker with no new code.
            self.stats.rejected_unavailable += 1
            return uplink.RetryAfter(_RETRY_AFTER_HINT)
        up_reader, up_writer = pair
        self.stats.proxied_total += 1
        self.active[shard] += 1
        try:
            up_writer.write(encode_text(uplink.format_command(command)))
            await up_writer.drain()
            await asyncio.gather(
                self._pump(reader, up_writer), self._pump(up_reader, writer)
            )
        finally:
            self.active[shard] -= 1
            for w in (up_writer, writer):
                with contextlib.suppress(ConnectionError, OSError):
                    w.close()
                    await w.wait_closed()
        return None

    async def _pump(
        self, src: asyncio.StreamReader, dst: asyncio.StreamWriter
    ) -> None:
        timeout = self.config.splice_idle_timeout
        try:
            while True:
                if timeout is None:
                    chunk = await src.read(_SPLICE_CHUNK)
                else:
                    # Per-direction idle timer: a session whose worker
                    # is hung (alive but wedged, e.g. SIGSTOP) moves no
                    # bytes and is reclaimed instead of leaking forever.
                    try:
                        chunk = await asyncio.wait_for(
                            src.read(_SPLICE_CHUNK), timeout
                        )
                    except asyncio.TimeoutError:
                        self.stats.splices_idle_closed += 1
                        break
                if not chunk:
                    break
                dst.write(chunk)
                await dst.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            # Propagate the EOF so the other end of the splice winds
            # down instead of waiting on a half-dead session.
            with contextlib.suppress(ConnectionError, OSError, RuntimeError):
                if dst.can_write_eof():
                    dst.write_eof()
                else:  # pragma: no cover - TLS-style transports only
                    dst.close()

    # ------------------------------------------------------------------
    # Cluster-wide admission + aggregation
    # ------------------------------------------------------------------

    async def _cluster_pending(self) -> int:
        """Total pending queries across all shards (cached briefly)."""
        now = self.clock.now()
        if (
            self._pending_cache is None
            or now - self._pending_at >= self.config.admission_refresh
        ):
            status = await self.aggregate_status()
            self._pending_cache = status["totals"].get("pending", 0)
            self._pending_at = now
        return self._pending_cache

    async def aggregate_status(self) -> Dict:
        """The front door's STATUS payload: per-shard + cluster totals."""
        statuses = await asyncio.gather(*(worker_status(w) for w in self.workers))
        total_keys = status_total_keys(DaemonStats)
        totals: Dict[str, int] = {}
        shards: Dict[str, Dict] = {}
        for worker, status in zip(self.workers, statuses):
            if status is None:
                continue
            shards[str(worker.shard)] = status
            for key in total_keys:
                totals[key] = totals.get(key, 0) + int(status.get(key, 0))
        return {
            "num_shards": self.partition.num_shards,
            "partition": self.partition.describe(),
            "workers_up": len(shards),
            "totals": totals,
            "shards": shards,
            "health": [h.value for h in self.health],
            "router": {
                **stat_status(self.stats),
                "active_sessions": self.active_sessions,
            },
        }

    # ------------------------------------------------------------------
    # Front-door /metrics aggregation
    # ------------------------------------------------------------------

    def _router_families(self) -> List[Family]:
        routed = Family("router.sessions_routed", "counter")
        active = Family("router.active_sessions", "gauge")
        # Health as a one-hot state gauge (the OpenMetrics idiom for
        # enums): exactly one of the three series per shard is 1.
        health = Family("router.shard_health", "gauge")
        for shard in range(self.partition.num_shards):
            routed.add(self.stats.routed_by_shard[shard], shard=str(shard))
            active.add(self.active[shard], shard=str(shard))
            for state in ShardHealth:
                health.add(
                    int(self.health[shard] is state),
                    shard=str(shard),
                    state=state.value,
                )
        return [
            health,
            routed,
            active,
            Family("router.workers", "gauge").add(len(self.workers)),
            *stat_families(self.stats),
        ]

    async def _metrics_text(self) -> str:
        """Merge every worker's exposition (relabelled ``shard="i"``)
        with the router's own families into one lint-clean document."""
        parts: List[Tuple[Dict[str, str], str]] = [
            ({}, render_openmetrics({}, extra_families=self._router_families()))
        ]

        async def _scrape(worker: WorkerAddress) -> Optional[str]:
            assert worker.metrics_port is not None
            try:
                code, text = await scrape(worker.host, worker.metrics_port)
            except (ConnectionError, OSError):
                return None
            return text if code == 200 else None

        scrapable = [w for w in self.workers if w.metrics_port is not None]
        bodies = await asyncio.gather(*(_scrape(w) for w in scrapable))
        for worker, body in zip(scrapable, bodies):
            if body is not None:
                parts.append(({"shard": str(worker.shard)}, body))
        return merge_expositions(parts)

    def _health(self) -> Tuple[int, Dict]:
        return 200, {
            "status": "ok",
            "workers": len(self.workers),
            "active_sessions": self.active_sessions,
        }


async def worker_status(worker: WorkerAddress) -> Optional[Dict]:
    """One worker's ``STATUS`` payload; ``None`` if it is unreachable or
    answers anything else."""
    line = uplink.format_command(Command(Verb.STATUS))
    try:
        reply = uplink.parse_reply(
            await uplink.round_trip(worker.host, worker.port, line)
        )
    except (asyncio.IncompleteReadError, OSError, ValueError):
        return None
    return reply.info if isinstance(reply, uplink.Status) else None


# --------------------------------------------------------------------------
# Worker supervisor


class ClusterSupervisor:
    """Spawn, watch, restart and drain ``repro serve --shard i/N``
    worker subprocesses.

    Each worker binds an **ephemeral** uplink port (and, with
    ``metrics=True``, an ephemeral metrics port) and reports it through
    a port file the supervisor polls -- the ``--port-file`` pattern the
    CLI tests established, so parallel CI jobs can never collide on a
    hardcoded port.  ``stop()`` sends SIGINT for the daemon's graceful
    drain and escalates to SIGKILL only after a minute.

    **Failover**: run :meth:`monitor` as an asyncio task and a crashed
    worker is respawned with exponential backoff under a fresh
    ``ShardIdentity`` epoch, rehydrating its admitted-but-unsatisfied
    queries from its write-ahead journal (``journal=True``).  More than
    ``max_restarts`` crashes inside ``crash_window`` seconds open a
    **circuit breaker**: the shard is declared broken and pinned DOWN
    at the router instead of being respawned forever.  With
    ``heartbeat_interval > 0`` the monitor also round-trips ``STATUS``
    on each worker's uplink; two consecutive timeouts
    escalate a hung-but-alive worker to ``SIGKILL``, which the
    exit-watch then handles like any other crash.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        partition_seed: int = 0,
        serve_args: Sequence[str] = (),
        metrics: bool = False,
        workdir: Optional[pathlib.Path] = None,
        python: str = sys.executable,
        startup_timeout: float = 60.0,
        journal: bool = False,
        flight: bool = False,
        restart_backoff: float = 0.2,
        restart_backoff_cap: float = 5.0,
        max_restarts: int = 5,
        crash_window: float = 30.0,
        heartbeat_interval: float = 0.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.partition = PartitionMap(num_workers, seed=partition_seed)
        self.serve_args = list(serve_args)
        self.metrics = metrics
        self.python = python
        self.startup_timeout = startup_timeout
        self.journal = journal
        self.flight = flight
        self.restart_backoff = restart_backoff
        self.restart_backoff_cap = restart_backoff_cap
        self.max_restarts = max_restarts
        self.crash_window = crash_window
        self.heartbeat_interval = heartbeat_interval
        self.workdir = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-cluster-")
            if workdir is None
            else workdir
        )
        self.procs: List[subprocess.Popen] = []
        self.workers: List[WorkerAddress] = []
        #: restart generation per shard; worker i serves with
        #: ``--epoch epochs[i]`` so clients can detect the respawn
        self.epochs: List[int] = [0] * num_workers
        #: completed restarts per shard (monitor bookkeeping)
        self.restarts: List[int] = [0] * num_workers
        #: circuit breaker: True = shard crashed too often, stay down
        self.broken: List[bool] = [False] * num_workers
        #: monitor event journal (crash / restart / circuit_open /
        #: heartbeat_kill dicts, in order) -- tests and ops read this
        self.events: List[Dict] = []
        self._crash_times: List[List[float]] = [[] for _ in range(num_workers)]
        self._hb_misses: List[int] = [0] * num_workers
        self._stopping = False

    def journal_path(self, index: int) -> pathlib.Path:
        """Where shard ``index``'s write-ahead journal lives."""
        return self.workdir / f"worker-{index}.journal"

    # -- spawning ------------------------------------------------------

    def _worker_cmd(
        self, index: int
    ) -> Tuple[List[str], pathlib.Path, Optional[pathlib.Path]]:
        """(command, port_file, metrics_file) for one worker spawn."""
        n = self.partition.num_shards
        port_file = self.workdir / f"worker-{index}.port"
        cmd = [
            self.python,
            "-m",
            "repro",
            "serve",
            "--shard",
            f"{index}/{n}",
            "--partition-seed",
            str(self.partition.seed),
            "--epoch",
            str(self.epochs[index]),
            "--port",
            "0",
            "--port-file",
            str(port_file),
        ]
        if self.journal:
            cmd += ["--journal", str(self.journal_path(index))]
        if self.flight:
            cmd += ["--flight-dir", str(self.workdir / f"worker-{index}.flight")]
        metrics_file: Optional[pathlib.Path] = None
        if self.metrics:
            metrics_file = self.workdir / f"worker-{index}.metrics-port"
            cmd += [
                "--metrics-port",
                "0",
                "--metrics-port-file",
                str(metrics_file),
            ]
        cmd += self.serve_args
        return cmd, port_file, metrics_file

    def _spawn(self, index: int) -> Tuple[pathlib.Path, Optional[pathlib.Path]]:
        """Launch worker ``index``; stale port files are removed first so
        :meth:`_await_port` can never read a previous incarnation's port."""
        cmd, port_file, metrics_file = self._worker_cmd(index)
        port_file.unlink(missing_ok=True)
        if metrics_file is not None:
            metrics_file.unlink(missing_ok=True)
        log_path = self.workdir / f"worker-{index}.log"
        with log_path.open("ab") as log:  # append across restarts
            proc = subprocess.Popen(
                cmd,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=os.environ.copy(),
            )
        if index < len(self.procs):
            self.procs[index] = proc
        else:
            self.procs.append(proc)
        return port_file, metrics_file

    def start(self) -> List[WorkerAddress]:
        """Spawn every worker and wait for its bound ports.

        Fails fast: a worker that exits before writing its port file
        raises immediately (with its log tail), and every worker already
        spawned is torn down -- no orphan subprocesses outlive a failed
        start.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = [self._spawn(i) for i in range(self.partition.num_shards)]
        try:
            for i, port_files in enumerate(files):
                self.workers.append(self._await_address(i, *port_files))
            return self.workers
        except Exception:
            for proc in self.procs:
                if proc.poll() is None:
                    with contextlib.suppress(ProcessLookupError, OSError):
                        proc.kill()
            for proc in self.procs:
                with contextlib.suppress(Exception):
                    proc.wait(timeout=5)
            raise

    def restart_worker(self, index: int) -> WorkerAddress:
        """Respawn one worker under a bumped epoch (blocking).

        The new process replays its journal before binding, so by the
        time the port file appears its pending set is rehydrated.
        """
        self.epochs[index] += 1
        worker = self._await_address(index, *self._spawn(index))
        self.workers[index] = worker
        self.restarts[index] += 1
        return worker

    def _await_address(
        self, index: int, port_file: pathlib.Path, metrics_file: Optional[pathlib.Path]
    ) -> WorkerAddress:
        port = self._await_port(index, port_file)
        metrics_port = (
            self._await_port(index, metrics_file) if metrics_file is not None else None
        )
        return WorkerAddress(index, "127.0.0.1", port, metrics_port)

    def _log_tail(self, index: int, lines: int = 8) -> str:
        log_path = self.workdir / f"worker-{index}.log"
        try:
            text = log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return "<no log>"
        tail = text.strip().splitlines()[-lines:]
        return "\n".join(tail) if tail else "<empty log>"

    def _await_port(self, index: int, path: pathlib.Path) -> int:
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            if self.procs[index].poll() is not None:
                # Fail fast: the worker died before binding (bad flags,
                # unreadable collection, import error) -- surface its
                # exit code and log tail instead of spinning out the
                # full startup timeout on a port that will never come.
                raise RuntimeError(
                    f"worker {index} exited with "
                    f"{self.procs[index].returncode} before binding; "
                    f"log tail ({self.workdir / f'worker-{index}.log'}):\n"
                    f"{self._log_tail(index)}"
                )
            try:
                text = path.read_text().strip()
            except OSError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.02)
        raise RuntimeError(
            f"worker {index} did not report a port within "
            f"{self.startup_timeout}s; see {self.workdir / f'worker-{index}.log'}"
        )

    # -- failure watch -------------------------------------------------

    def _note(
        self,
        kind: str,
        on_event: Optional[Callable[[Dict], None]],
        **fields,
    ) -> None:
        event: Dict = {"kind": kind, **fields}
        self.events.append(event)
        if on_event is not None:
            on_event(event)

    async def monitor(
        self,
        router: Optional[ClusterRouter] = None,
        *,
        poll_interval: float = 0.05,
        on_event: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        """Exit-watch + heartbeats: run as a task next to the router.

        Restarts crashed workers (exponential backoff, circuit breaker)
        and, when a ``router`` is given, keeps its health view current:
        DOWN the moment the process is gone -- ahead of any client
        timing out on it -- and UP again at :meth:`ClusterRouter.update_worker`
        once the respawn binds.  Runs until cancelled or :meth:`stop`.
        """
        last_heartbeat = time.monotonic()
        while not self._stopping:
            for index in range(self.partition.num_shards):
                if self._stopping:
                    return
                if self.broken[index] or index >= len(self.procs):
                    continue
                if self.procs[index].poll() is not None:
                    await self._handle_crash(index, router, on_event)
            now = time.monotonic()
            if (
                self.heartbeat_interval > 0
                and now - last_heartbeat >= self.heartbeat_interval
                and not self._stopping
            ):
                last_heartbeat = now
                await self._heartbeat_sweep(on_event)
            await asyncio.sleep(poll_interval)

    async def _handle_crash(
        self,
        index: int,
        router: Optional[ClusterRouter],
        on_event: Optional[Callable[[Dict], None]],
    ) -> None:
        code = self.procs[index].returncode
        now = time.monotonic()
        window = self._crash_times[index]
        window.append(now)
        self._crash_times[index] = window = [
            t for t in window if now - t <= self.crash_window
        ]
        self._hb_misses[index] = 0
        if router is not None:
            router.set_health(index, ShardHealth.DOWN)
        self._note(
            "crash", on_event, shard=index, code=code, crashes=len(window)
        )
        if len(window) > self.max_restarts:
            # Crash loop: stop burning CPU on doomed respawns.  The
            # shard stays DOWN (RETRY_AFTER at the front door) until an
            # operator intervenes; everything else keeps streaming.
            self.broken[index] = True
            self._note("circuit_open", on_event, shard=index, crashes=len(window))
            return
        backoff = min(
            self.restart_backoff_cap,
            self.restart_backoff * (2 ** (len(window) - 1)),
        )
        await asyncio.sleep(backoff)
        if self._stopping:
            return
        try:
            worker = await asyncio.to_thread(self.restart_worker, index)
        except RuntimeError as exc:
            # The respawn itself died pre-bind; count it as another
            # crash next sweep (poll() will see the corpse).
            self._note("restart_failed", on_event, shard=index, error=str(exc))
            return
        if router is not None:
            router.update_worker(index, worker)
        self._note(
            "restart",
            on_event,
            shard=index,
            epoch=self.epochs[index],
            port=worker.port,
            backoff=backoff,
        )

    async def _heartbeat_sweep(
        self, on_event: Optional[Callable[[Dict], None]]
    ) -> None:
        for index, worker in enumerate(self.workers):
            if (
                self.broken[index]
                or index >= len(self.procs)
                or self.procs[index].poll() is not None
            ):
                continue
            if await self._heartbeat(worker):
                self._hb_misses[index] = 0
                continue
            self._hb_misses[index] += 1
            if self._hb_misses[index] >= _HEARTBEAT_MISSES:
                # Alive but unresponsive (hung event loop, SIGSTOP):
                # escalate to a kill; the exit-watch restarts it.
                self._note(
                    "heartbeat_kill",
                    on_event,
                    shard=index,
                    misses=self._hb_misses[index],
                )
                with contextlib.suppress(ProcessLookupError, OSError):
                    self.procs[index].kill()

    @staticmethod
    async def _heartbeat(worker: WorkerAddress) -> bool:
        """One STATUS round trip; False = no reply inside the timeout."""
        try:
            status = await asyncio.wait_for(
                worker_status(worker), _HEARTBEAT_TIMEOUT
            )
        except asyncio.TimeoutError:
            return False
        return status is not None

    # -- drain ---------------------------------------------------------

    def stop(self) -> List[int]:
        """SIGINT every worker (graceful drain) and collect exit codes."""
        self._stopping = True  # the monitor must not restart drainees
        for proc in self.procs:
            if proc.poll() is None:
                with contextlib.suppress(ProcessLookupError, OSError):
                    proc.send_signal(signal.SIGINT)
        codes: List[int] = []
        deadline = time.monotonic() + _STOP_TIMEOUT
        for proc in self.procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                codes.append(proc.wait(timeout=remaining))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        return codes
