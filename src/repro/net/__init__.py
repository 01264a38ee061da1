"""Live serving layer: the broadcast daemon and its async client.

The simulator models the paper's on-demand system inside a
discrete-event loop; this package makes it a *live* system.  A
:class:`~repro.net.daemon.BroadcastDaemon` drives the existing
:class:`~repro.broadcast.server.BroadcastServer` pipeline on a real
cycle clock, accepts XPath queries over a framed TCP uplink (one codec,
:mod:`repro.net.uplink`) and streams every built cycle as wire frames on
the downlink (:mod:`repro.net.wire`), paced by a token bucket.  An
:class:`~repro.net.client.AsyncTwoTierClient` runs the
*unchanged* client access protocols over that socket: each streamed
cycle is decoded back into a :class:`~repro.broadcast.program.
BroadcastCycle` whose :func:`~repro.broadcast.program.program_signature`
must match the server's, so per-query access and tuning bytes are --
by construction and by differential test -- identical to the
simulator's (``tests/net/test_parity.py``).

Wall-clock time never enters the protocol: all pacing and arrival
stamping go through an injectable :class:`~repro.net.clock.ClockAdapter`
(:class:`~repro.net.clock.ManualClock` in tests, monotonic time in
production).

Telemetry is opt-in: hand the :class:`~repro.net.daemon.DaemonConfig` a
:class:`~repro.obs.telemetry.TelemetryConfig` and the daemon serves
``/metrics`` (OpenMetrics) + ``/healthz`` from its own event loop,
streams structured events, arms a flight recorder, and honours the
``TRACE=`` SUBMIT option for end-to-end query tracing.

The tier scales out horizontally via :mod:`repro.net.cluster`: a
:class:`~repro.net.cluster.ClusterRouter` front door partitions the
collection across N unchanged worker daemons by a deterministic
:class:`~repro.broadcast.partition.PartitionMap` (advertised in every
``CYCLE_BEGIN`` header so clients verify placement), splicing each
session to its owning worker and applying cluster-wide admission
through the existing ``RETRY_AFTER`` reply.
:mod:`repro.net.loadgen` drives any endpoint -- single daemon or
cluster -- with a deterministic open-loop Poisson session schedule.

The tier is also *self-healing*: the
:class:`~repro.net.cluster.ClusterSupervisor` restarts crashed workers
(exponential backoff, crash-loop circuit breaker, heartbeat escalation
for hung processes), each worker rehydrates its admitted-but-unsatisfied
queries from a per-shard write-ahead journal
(:class:`~repro.tools.persist.QueryJournal`), the router tracks
per-shard health (:class:`~repro.net.cluster.ShardHealth`) and answers
``RETRY_AFTER`` for DOWN shards while the rest keep streaming, and
clients in ``resume`` mode reconnect, detect the restart via the
``ShardIdentity`` epoch, and resubmit idempotently.  The whole failure
path is exercised by the deterministic process-level chaos harness in
:mod:`repro.net.chaos`.
"""

from repro.broadcast.partition import PartitionMap, ShardIdentity
from repro.net.chaos import (
    ChaosAction,
    ChaosController,
    ChaosSchedule,
    ChaosViolation,
    assert_recovery,
    audit_journal,
    build_chaos_schedule,
)
from repro.net.cluster import (
    ClusterConfig,
    ClusterRouter,
    ClusterSupervisor,
    RouterStats,
    ShardHealth,
    WorkerAddress,
)

from repro.net.client import (
    AsyncTwoTierClient,
    Backpressure,
    ClientReport,
    UplinkError,
    WireError,
)
from repro.net.clock import ClockAdapter, ManualClock, MonotonicClock
from repro.net.daemon import BroadcastDaemon, DaemonConfig, DaemonStats
from repro.net.framing import (
    FrameError,
    FrameKind,
    encode_frame,
    read_frame,
    read_frame_mixed,
)
from repro.net.loadgen import (
    LoadPlan,
    LoadReport,
    SessionSpec,
    build_load_plan,
    run_load,
)
from repro.net.pacing import TokenBucket
from repro.net.wire import CycleDecoder, WireFrame, WireProtocolError, encode_cycle

__all__ = [
    "AsyncTwoTierClient",
    "Backpressure",
    "BroadcastDaemon",
    "ChaosAction",
    "ChaosController",
    "ChaosSchedule",
    "ChaosViolation",
    "ClientReport",
    "ClockAdapter",
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "CycleDecoder",
    "DaemonConfig",
    "DaemonStats",
    "FrameError",
    "FrameKind",
    "LoadPlan",
    "LoadReport",
    "ManualClock",
    "MonotonicClock",
    "PartitionMap",
    "RouterStats",
    "SessionSpec",
    "ShardHealth",
    "ShardIdentity",
    "TokenBucket",
    "UplinkError",
    "WireError",
    "WireFrame",
    "WireProtocolError",
    "WorkerAddress",
    "assert_recovery",
    "audit_journal",
    "build_chaos_schedule",
    "build_load_plan",
    "encode_cycle",
    "encode_frame",
    "read_frame",
    "read_frame_mixed",
    "run_load",
]
