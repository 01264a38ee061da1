"""Open-loop load generation for the live serving tier.

Two halves, split so determinism is testable without a socket:

* :func:`build_load_plan` is **pure**: from a document collection and a
  seed it derives a :class:`LoadPlan` -- Poisson (or flood) arrival
  offsets, one XPath query per session *generated from the documents of
  the shard the session lands on* (so every query matches at least one
  document its worker actually serves), and a stable ``client_key`` per
  session.  Same seed, same documents -> byte-identical plan
  (pinned by ``tests/net/test_loadgen.py``).
* :func:`run_load` executes a plan **open-loop** against a live
  endpoint: each session is an :class:`~repro.net.client.AsyncTwoTierClient`
  spawned at its scheduled offset regardless of how the previous ones
  are doing -- arrival rate is an input, not a feedback loop, which is
  what makes offered load comparable across cluster sizes.

The plan is partitioned at ``granularity`` shards (default 1).  A plan
built at granularity G can be replayed against any cluster of N workers
where ``G % N == 0`` via :meth:`LoadPlan.worker_for` -- the same hash
slots nest, so the 1-worker and 4-worker runs of the scale benchmark
serve the *same* sessions and queries, making the throughput ratio a
pure measure of the sharded tier.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.broadcast.partition import PartitionMap
from repro.net.client import AsyncTwoTierClient, Backpressure, WireError
from repro.net.clock import ClockAdapter, MonotonicClock
from repro.xpath.generator import generate_workload

__all__ = [
    "LoadPlan",
    "LoadReport",
    "SessionSpec",
    "build_load_plan",
    "run_load",
]


@dataclass(frozen=True)
class SessionSpec:
    """One scheduled client session of a load plan."""

    index: int
    #: arrival offset in seconds from the start of the run
    start_s: float
    #: XPath query text (guaranteed to match >=1 document of its shard)
    query: str
    #: plan-granularity shard this session's query was generated from
    shard: int
    client_key: int


@dataclass(frozen=True)
class LoadPlan:
    """A deterministic open-loop schedule of client sessions."""

    seed: int
    #: Poisson arrival rate in sessions/second; ``None`` = flood (all
    #: sessions start at t=0 -- the unpaced throughput mode)
    rate: Optional[float]
    #: number of shards the plan was partitioned at
    granularity: int
    partition_seed: int
    sessions: Tuple[SessionSpec, ...] = field(default_factory=tuple)

    def worker_for(self, spec: SessionSpec, num_workers: int) -> int:
        """The worker owning *spec* in an ``num_workers``-shard cluster.

        Valid whenever ``granularity % num_workers == 0``: contiguous
        hash-slot ranges nest, so plan-shard ``s`` of G collapses onto
        worker ``s * num_workers // G`` of N.
        """
        if num_workers < 1 or self.granularity % num_workers != 0:
            raise ValueError(
                f"plan granularity {self.granularity} does not nest onto "
                f"{num_workers} workers (need granularity % workers == 0)"
            )
        return spec.shard * num_workers // self.granularity

    def describe(self) -> Dict:
        return {
            "seed": self.seed,
            "rate": self.rate,
            "granularity": self.granularity,
            "partition_seed": self.partition_seed,
            "sessions": len(self.sessions),
        }


def build_load_plan(
    documents: Sequence,
    num_sessions: int,
    *,
    seed: int = 1,
    rate: Optional[float] = None,
    granularity: int = 1,
    partition_seed: int = 0,
    wildcard_prob: float = 0.1,
    max_depth: int = 10,
) -> LoadPlan:
    """Derive a deterministic open-loop plan from *documents*.

    Two-pass construction: first every session draws its shard and its
    inter-arrival gap from one seeded RNG; then each shard's query
    batch is generated *from that shard's documents only* (the server
    rejects queries with empty result sets, so cross-shard queries
    would be admission errors, not load).
    """
    if num_sessions < 1:
        raise ValueError("num_sessions must be at least 1")
    partition = PartitionMap(granularity, seed=partition_seed)
    by_shard: List[List] = [[] for _ in range(granularity)]
    for document in documents:
        by_shard[partition.shard_of(document.doc_id)].append(document)
    for shard, docs in enumerate(by_shard):
        if not docs:
            raise ValueError(
                f"shard {shard} of {granularity} owns no documents; "
                "grow the collection or lower the granularity"
            )

    rng = random.Random(seed)
    shard_choices = [rng.randrange(granularity) for _ in range(num_sessions)]
    arrivals: List[float] = []
    t = 0.0
    for _ in range(num_sessions):
        if rate is not None:
            t += rng.expovariate(rate)
        arrivals.append(t if rate is not None else 0.0)

    counts = [0] * granularity
    for shard in shard_choices:
        counts[shard] += 1
    batches: List[List[str]] = []
    for shard in range(granularity):
        if counts[shard] == 0:
            batches.append([])
            continue
        queries = generate_workload(
            by_shard[shard],
            counts[shard],
            seed=seed * 1_000_003 + shard,
            wildcard_descendant_prob=wildcard_prob,
            max_depth=max_depth,
        )
        batches.append([str(q) for q in queries])

    cursor = [0] * granularity
    sessions: List[SessionSpec] = []
    for index in range(num_sessions):
        shard = shard_choices[index]
        query = batches[shard][cursor[shard]]
        cursor[shard] += 1
        sessions.append(
            SessionSpec(
                index=index,
                start_s=arrivals[index],
                query=query,
                shard=shard,
                client_key=seed * 1_000_000 + index,
            )
        )
    return LoadPlan(
        seed=seed,
        rate=rate,
        granularity=granularity,
        partition_seed=partition_seed,
        sessions=tuple(sessions),
    )


@dataclass
class LoadReport:
    """What one :func:`run_load` execution measured."""

    sessions: int = 0
    satisfied: int = 0
    failed: int = 0
    retries: int = 0
    #: wall seconds from first session launch to last completion
    elapsed: float = 0.0
    #: per-satisfied-session latency (due time -> satisfied), seconds
    latencies: List[float] = field(default_factory=list)
    #: first few failure reasons, for post-mortem (capped at 16)
    errors: List[str] = field(default_factory=list)

    @property
    def queries_per_sec(self) -> float:
        return self.satisfied / self.elapsed if self.elapsed > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated latency percentile, ``q`` in [0, 100]."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def describe(self) -> Dict:
        return {
            "sessions": self.sessions,
            "satisfied": self.satisfied,
            "failed": self.failed,
            "retries": self.retries,
            "elapsed_s": round(self.elapsed, 4),
            "queries_per_sec": round(self.queries_per_sec, 2),
            "latency_p50_s": round(self.percentile(50), 4),
            "latency_p90_s": round(self.percentile(90), 4),
            "latency_p99_s": round(self.percentile(99), 4),
            "latency_max_s": round(self.percentile(100), 4),
            "errors": list(self.errors),
        }


async def run_load(
    plan: LoadPlan,
    host: str,
    port: int,
    *,
    num_workers: Optional[int] = None,
    clock: Optional[ClockAdapter] = None,
    max_retries: int = 8,
    retry_delay: float = 0.05,
    resume: bool = False,
) -> LoadReport:
    """Execute *plan* open-loop against ``host:port``.

    ``num_workers`` set -> sessions pin ``SHARD=`` (the plan shard
    collapsed onto the cluster size), so the front door splices each
    session to its planned worker.  ``None`` -> unpinned sessions for a
    single daemon, or spread by query text at a front door.
    ``RETRY_AFTER`` backpressure is retried up to
    ``max_retries`` times with a fixed ``retry_delay``.

    A connection torn down mid-dialogue (reset, broken pipe, EOF in
    the middle of a reply, corrupt frame) is a crash or restart of the
    peer, not a verdict on the query -- those are retried on the same
    schedule as backpressure rather than counted as failures.
    ``resume=True`` additionally arms each session's own in-client
    reconnect loop (idempotent resubmit under its ``client_key``),
    which is what the chaos/availability benches run with.
    """
    wall = clock or MonotonicClock()
    t0 = wall.now()
    report = LoadReport(sessions=len(plan.sessions))

    def _record_failure(spec: SessionSpec, why: str) -> None:
        report.failed += 1
        if len(report.errors) < 16:
            report.errors.append(f"session {spec.index}: {why}")

    async def one_session(spec: SessionSpec) -> None:
        delay = spec.start_s - (wall.now() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        shard = (
            plan.worker_for(spec, num_workers)
            if num_workers is not None
            else None
        )
        # Latency runs from the session's due time, not from whenever the
        # event loop got round to it: a late start is the load's lateness
        # and belongs in the sample (no coordinated omission).
        started = t0 + spec.start_s
        #: mid-dialogue teardown = the peer died or restarted; treat it
        #: exactly like backpressure (the retry, not the failure, is
        #: the correct account of a self-healing cluster)
        transient = (
            ConnectionResetError,
            BrokenPipeError,
            ConnectionRefusedError,
            asyncio.IncompleteReadError,
            WireError,
        )
        for attempt in range(max_retries + 1):
            client = AsyncTwoTierClient(
                spec.query,
                host=host,
                port=port,
                client_key=spec.client_key,
                shard=shard,
                resume=resume,
            )
            try:
                client_report = await client.run()
            except Backpressure:
                report.retries += 1
                if attempt == max_retries:
                    _record_failure(spec, "backpressure retries exhausted")
                    return
                await asyncio.sleep(retry_delay * (attempt + 1))
                continue
            except transient as exc:
                report.retries += 1
                if attempt == max_retries:
                    _record_failure(
                        spec, f"transient retries exhausted: {exc}"
                    )
                    return
                await asyncio.sleep(retry_delay * (attempt + 1))
                continue
            except (ConnectionError, OSError) as exc:
                _record_failure(spec, f"{type(exc).__name__}: {exc}")
                return
            if client_report.satisfied:
                report.satisfied += 1
                report.latencies.append(wall.now() - started)
            else:
                _record_failure(spec, "session ended unsatisfied")
            return
        _record_failure(spec, "retry loop exhausted")

    await asyncio.gather(*(one_session(s) for s in plan.sessions))
    report.elapsed = wall.now() - t0
    return report
