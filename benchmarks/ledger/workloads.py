"""The six ledger workloads: set-up, one timed round, and its checks.

A *round* is one set-up (timed, reported as ``setup_s``) followed by one
timed region driven from outside the program, through its public API.
Everything runs on one thread: the live workloads put daemon(s), router
and every client session on one asyncio loop over 127.0.0.1, so
``wall = cpu + idle`` and the per-layer self times of a traced round sum
to its wall clock (see ``layers.py``).

The program under test receives only generated inputs.  The corpus, the
pool of queries and the mutation plan are fixed; ``--seed`` draws who
asks which query and when (README "Seeds" has the measurements behind
that split).
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.broadcast.partition import PartitionMap
from repro.broadcast.program import BroadcastCycle, program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.faults import ChaosSimulation, FaultPlan
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.net.cluster import ClusterConfig, ClusterRouter, WorkerAddress
from repro.net.loadgen import LoadPlan, SessionSpec, build_load_plan
from repro.obs.telemetry import (
    EventLog,
    FlightRecorder,
    OpenMetricsError,
    TelemetryConfig,
    lint_openmetrics,
    scrape,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulation import Simulation, build_collection
from repro.sim.workload import ArrivalPlan
from repro.xpath.ast import XPathQuery
from repro.xpath.generator import generate_workload
from repro.xpath.parser import parse_query

from layers import Tracer

WORKLOADS = (
    "sim_static",
    "sim_churn",
    "live_paced",
    "live_closed",
    "live_closed_obs",
    "cluster_paced",
)

#: open-loop workloads: the channel, not the generator, sets the pace
PACED = ("live_paced", "cluster_paced")


def is_sim(name: str) -> bool:
    return name.startswith("sim_")


#: the fixed corpus (``SimulationConfig.collection_seed`` default)
CORPUS_SEED = 7
#: seed of everything held fixed across ``--seed``: the query pools
#: and the churn workload's mutation plan
POOL_SEED = 1
#: partition seed of the two-shard cluster
PARTITION_SEED = 0
NUM_SHARDS = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes of one scale; ``full`` is what the ledger records."""

    sim_documents: int
    sim_n_q: int
    sim_arrival_cycles: int
    sim_capacity: int
    live_documents: int
    live_capacity: int
    #: downlink bytes/second of the paced daemons
    bandwidth: float
    #: open-loop Poisson arrival rate, sessions/second
    rate: float
    #: closed-loop client count
    clients: int
    #: fresh-daemon rounds a closed-loop run is split into
    closed_rounds: int
    #: sessions in the fixed query pool (cycled, fresh keys)
    pool: int


SCALES: Dict[str, Scale] = {
    "full": Scale(
        sim_documents=400, sim_n_q=200, sim_arrival_cycles=3, sim_capacity=100_000,
        live_documents=240, live_capacity=100_000, bandwidth=2_000_000.0,
        rate=20.0, clients=32, closed_rounds=4, pool=200,
    ),
    "smoke": Scale(
        sim_documents=60, sim_n_q=25, sim_arrival_cycles=2, sim_capacity=20_000,
        live_documents=60, live_capacity=20_000, bandwidth=2_000_000.0,
        rate=40.0, clients=8, closed_rounds=1, pool=40,
    ),
}


def derive(seed: int, label: str) -> int:
    """A 31-bit sub-seed of *seed* for one named input stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# ----------------------------------------------------------------------
# What one round measured
# ----------------------------------------------------------------------


@dataclass
class Round:
    """Raw measurements of one set-up plus (optionally) one timed region."""

    setup_s: float
    #: set-up components, seconds, by per-layer metric name
    setup_parts: Dict[str, float] = field(default_factory=dict)
    timed: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    satisfied: int = 0
    #: on-air bytes (``server.clock``), summed over daemons
    air_bytes: int = 0
    #: per satisfied session, two-tier client byte counts
    access_bytes: List[int] = field(default_factory=list)
    tuning_bytes: List[int] = field(default_factory=list)
    lookup_bytes: List[int] = field(default_factory=list)
    cycles_listened: List[int] = field(default_factory=list)
    #: per satisfied session, due time -> satisfied, milliseconds
    latency_ms: List[float] = field(default_factory=list)
    #: per session, actual start minus due start, milliseconds
    late_ms: List[float] = field(default_factory=list)
    #: counts read off public stat objects, by per-layer metric name
    counts: Dict[str, float] = field(default_factory=dict)
    #: sha256 over the round's program signatures, in broadcast order
    signature_sha: Optional[str] = None
    #: correctness-gate failures, human readable
    problems: List[str] = field(default_factory=list)
    #: the SimulationResult of a sim round (model validation input)
    result: Any = None


class CycleLog:
    """Wraps one server's ``build_cycle`` to note what each cycle aired.

    A handful of integer reads per cycle; cycles themselves are kept
    only on request (the simulator rounds hash their signatures after
    the clock stops).
    """

    def __init__(self, server: BroadcastServer, keep: bool = False) -> None:
        self.server = server
        self.cycles: List[BroadcastCycle] = []
        #: (total, data, first tier, offset list, docs) bytes per cycle
        self.rows: List[Tuple[int, int, int, int, int]] = []
        #: start time -> queries admitted before that cycle was built
        self._admitted_before: Dict[int, int] = {}
        self._keep = keep
        self._build = server.build_cycle
        server.build_cycle = self  # type: ignore[method-assign]

    def __call__(self, now: Optional[int] = None) -> Optional[BroadcastCycle]:
        server = self.server
        admitted = len(server.pending) + len(server.completed)
        cycle = self._build(now)
        if cycle is not None:
            self._admitted_before[cycle.start_time] = admitted
            self.rows.append(
                (
                    cycle.total_bytes,
                    cycle.data_bytes,
                    cycle.first_tier_bytes,
                    cycle.offset_list_air_bytes,
                    len(cycle.doc_ids),
                )
            )
            if self._keep:
                self.cycles.append(cycle)
        return cycle

    def predates(self, arrival_time: int, query_id: int) -> bool:
        """Was a cycle starting exactly at *arrival_time* built before
        query *query_id* was admitted?  (Query ids count admissions.)"""
        admitted = self._admitted_before.get(arrival_time)
        return admitted is not None and admitted <= query_id


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def server_counts(servers: Sequence[BroadcastServer], logs: Sequence[CycleLog],
                  capacity: int) -> Dict[str, float]:
    """Per-layer counts every workload reads off its server(s)."""
    stats: Dict[str, int] = {}
    for server in servers:
        assert server.cache is not None
        for key, value in server.cache.stats.items():
            stats[key] = stats.get(key, 0) + value
    records = [record for server in servers for record in server.records]
    rows = [row for log in logs for row in log.rows]
    ci_builds = stats["ci_hits"] + stats["ci_incremental"] + stats["ci_rebuilds"]
    total = sum(row[0] for row in rows)
    ci_bytes = mean([r.pruning.bytes_before for r in records])
    pci_bytes = mean([r.pruning.bytes_after for r in records])
    return {
        "broadcast.cycles": len(records),
        "dataguide.ci_full_merges": stats["ci_rebuilds"],
        "dataguide.ci_incremental": stats["ci_incremental"],
        "broadcast.ci_cache_reuse_ratio": ratio(
            stats["ci_hits"] + stats["ci_incremental"], ci_builds
        ),
        "broadcast.dfa_cache_hit_ratio": ratio(
            stats["dfa_hits"], stats["dfa_hits"] + stats["dfa_misses"]
        ),
        "broadcast.pci_cache_hit_ratio": ratio(
            stats["pci_hits"], stats["pci_hits"] + stats["pci_misses"]
        ),
        "index.ci_bytes_mean": ci_bytes,
        "index.pci_bytes_mean": pci_bytes,
        "index.pci_over_ci_ratio": ratio(pci_bytes, ci_bytes),
        "index.first_tier_bytes_mean": mean([row[2] for row in rows]),
        "index.offset_list_bytes_mean": mean([row[3] for row in rows]),
        "broadcast.cycle_fill_ratio": ratio(
            mean([row[1] for row in rows]), capacity
        ),
        "broadcast.index_share_of_air": ratio(
            total - sum(row[1] for row in rows), total
        ),
        "broadcast.docs_per_cycle_mean": mean([row[4] for row in rows]),
    }


class ResultOracle:
    """Result-set sizes by the reference evaluator's semantics.

    ``xpath.evaluator.result_table`` decides a predicate-free query per
    document by ``query.matches_any_path(doc.distinct_label_paths())``
    (any path with ``query.matches_path``); grouping documents under
    each distinct label path first asks the same question once per path
    instead of once per document, which is what makes checking every
    session affordable.
    """

    def __init__(self, documents: Sequence) -> None:
        self._docs_of_path: Dict[Tuple[str, ...], set] = {}
        for document in documents:
            for path in document.distinct_label_paths():
                self._docs_of_path.setdefault(path, set()).add(document.doc_id)
        self._sizes: Dict[str, int] = {}

    def result_size(self, query_text: str) -> int:
        size = self._sizes.get(query_text)
        if size is None:
            query: XPathQuery = parse_query(query_text)
            matched: set = set()
            for path, doc_ids in self._docs_of_path.items():
                if query.matches_path(path):
                    matched |= doc_ids
            size = self._sizes[query_text] = len(matched)
        return size


@functools.lru_cache(maxsize=None)
def oracle_for(document_count: int, shard: Optional[int] = None) -> ResultOracle:
    """The oracle over the fixed corpus (or one shard of it).

    Built from its own copy of the collection, once per process and
    outside every timed region, so the rounds of a run share the
    answers already worked out.
    """
    config = SimulationConfig(
        document_count=document_count, collection_seed=CORPUS_SEED
    )
    if shard is not None:
        config = config.with_(
            num_shards=NUM_SHARDS, shard_index=shard, partition_seed=PARTITION_SEED
        )
    return ResultOracle(build_collection(config))


def _signature_sha(cycles: Sequence[BroadcastCycle]) -> str:
    digest = hashlib.sha256()
    for cycle in cycles:
        digest.update(program_signature(cycle).encode("ascii"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


def sim_config(name: str, seed: int, scale: Scale) -> SimulationConfig:
    config = SimulationConfig(
        document_count=scale.sim_documents,
        collection_seed=CORPUS_SEED,
        n_q=scale.sim_n_q,
        query_seed=POOL_SEED,
        arrival_cycles=scale.sim_arrival_cycles,
        cycle_data_capacity=scale.sim_capacity,
    )
    if name == "sim_churn":
        # Mutation-only chaos: no uplink or downlink faults, monitors
        # on.  The plan draws "add" first, so at the issue's 0.9/0.9 a
        # remove is drawn on 9% of builds and most runs see none; 0.4 /
        # 0.95 splits the builds 40/57.  The plan's seed is fixed: how
        # many mutations take effect sets the cost (14 of them serve 265
        # queries/s, 22 serve 205), and redrawing the plan per seed moved
        # throughput by 14 % between seeds.  At this seed a full-scale
        # run sees 11 adds and 11 removes whatever the arrival order.
        config = config.with_(
            faults=FaultPlan(
                seed=POOL_SEED,
                fault_cycles=None,
                doc_add_prob=0.4,
                doc_remove_prob=0.95,
                checksum=False,
            )
        )
    return config


class PoolArrivals:
    """Stands in for ``Simulation.workload``: the same schedule shape
    over a fixed pool of queries.

    ``WorkloadBuilder`` draws both the queries and their arrival times
    from ``query_seed``; with 600 queries a run, redrawing them moved the
    look-up bytes by 6 % and the throughput by 15 % between seeds.  This
    keeps its schedule -- ``n_q`` arrivals per broadcast cycle, uniform
    over the cycle's byte span, for ``arrival_cycles`` cycles, the first
    batch at time 0 -- but asks one fixed pool of
    ``n_q * arrival_cycles`` queries (``generate_workload`` at
    ``POOL_SEED``) in an order, and at times, drawn from ``--seed``:
    the same inputs the live workloads get from :func:`load_plan`.
    """

    def __init__(
        self, pool: Sequence[XPathQuery], config: SimulationConfig, seed: int
    ) -> None:
        self._rng = random.Random(derive(seed, "arrivals"))
        self._order = list(pool)
        self._rng.shuffle(self._order)
        self._n_q = config.n_q
        self._cycles = config.arrival_cycles
        self._issued = 0

    @property
    def exhausted(self) -> bool:
        return self._issued >= self._cycles

    def initial_batch(self) -> List[ArrivalPlan]:
        return self._issue(0, 0)

    def arrivals_during(self, start_time: int, end_time: int) -> List[ArrivalPlan]:
        return self._issue(start_time, end_time)

    def _issue(self, start_time: int, end_time: int) -> List[ArrivalPlan]:
        if self.exhausted:
            return []
        queries = self._order[self._issued * self._n_q:(self._issued + 1) * self._n_q]
        self._issued += 1
        plans = [
            ArrivalPlan(
                arrival_time=(
                    self._rng.randint(start_time, end_time - 1)
                    if end_time > start_time
                    else start_time
                ),
                query=query,
            )
            for query in queries
        ]
        plans.sort(key=lambda plan: plan.arrival_time)
        return plans


def sim_round(
    name: str, seed: int, scale: Scale, timed: bool, tracer: Optional[Tracer]
) -> Round:
    clock = time.perf_counter
    config = sim_config(name, seed, scale)
    started = clock()
    documents = build_collection(config)
    generated = clock()
    pool = generate_workload(
        documents,
        config.total_queries(),
        seed=POOL_SEED,
        wildcard_descendant_prob=config.wildcard_prob,
        max_depth=config.max_query_depth,
    )
    pooled = clock()
    if config.faults is not None:
        sim: Simulation = ChaosSimulation(config, documents=documents)
    else:
        sim = Simulation(config, documents=documents)
    sim.workload = PoolArrivals(pool, config, seed)  # type: ignore[assignment]
    log = CycleLog(sim.server, keep=True)
    done = clock()
    round_ = Round(
        setup_s=done - started,
        setup_parts={
            "xmlkit.generate_s": generated - started,
            "xpath.generate_s": pooled - generated,
            "sim.construct_s": done - pooled,
        },
    )
    round_.counts["xmlkit.collection_bytes"] = sim.store.total_data_bytes()
    if not timed:
        return round_

    if tracer is not None:
        tracer.open_root()
    cpu0, wall0 = time.process_time(), clock()
    result = sim.run()
    wall1, cpu1 = clock(), time.process_time()
    if tracer is not None:
        tracer.close_root()

    round_.timed = True
    round_.wall_s, round_.cpu_s = wall1 - wall0, cpu1 - cpu0
    round_.result = result
    round_.attempted = config.total_queries()
    records = result.records_for("two-tier")
    round_.satisfied = len(records)
    round_.air_bytes = sim.server.clock
    round_.access_bytes = [r.access_bytes for r in records]
    round_.tuning_bytes = [r.tuning_bytes for r in records]
    round_.lookup_bytes = [r.index_lookup_bytes for r in records]
    round_.cycles_listened = [r.cycles_listened for r in records]
    round_.signature_sha = _signature_sha(log.cycles)
    round_.counts.update(server_counts([sim.server], [log], scale.sim_capacity))
    round_.counts["sim.clients"] = sum(len(s.clients) for s in sim.sessions)

    if not result.completed:
        round_.problems.append("simulation did not drain (completed=False)")
    if round_.satisfied != round_.attempted:
        round_.problems.append(
            f"{round_.attempted - round_.satisfied} of {round_.attempted} "
            "sessions unsatisfied"
        )
    if isinstance(sim, ChaosSimulation):
        adds = sim.fault_stats["docs_added"]
        removes = sim.fault_stats["docs_removed"]
        round_.counts["faults.mutations_add"] = adds
        round_.counts["faults.mutations_remove"] = removes
        if adds == 0 or removes == 0:
            round_.problems.append(
                f"churn run mutated one way only ({adds} adds, {removes} removes)"
            )
    else:
        # Static collection: every record's result count is checkable
        # against the evaluator (under churn the collection moves and the
        # chaos safety monitor, which ran every cycle, is the check).
        oracle = oracle_for(scale.sim_documents)
        for record in records:
            want = oracle.result_size(record.query_text)
            if record.result_doc_count != want:
                round_.problems.append(
                    f"{record.query_text}: {record.result_doc_count} result "
                    f"documents, evaluator says {want}"
                )
                break
    return round_


# ----------------------------------------------------------------------
# Live workloads (one daemon, or router + two sharded daemons)
# ----------------------------------------------------------------------


@dataclass
class _Outcome:
    spec: SessionSpec
    report: Any = None
    error: Optional[str] = None
    latency_ms: float = 0.0
    late_ms: float = 0.0


@dataclass
class _Tier:
    """A started serving tier: where clients connect, what to stop."""

    port: int
    daemons: List[BroadcastDaemon]
    #: one per daemon, same order
    logs: List[CycleLog]
    router: Optional[ClusterRouter]
    plan: LoadPlan
    #: the whole (unsharded) collection
    documents: List
    setup_parts: Dict[str, float]
    collection_bytes: int
    #: sessions whose client skipped a cycle that predated its query
    stale_cycles_skipped: int = 0

    def shard_of(self, spec: SessionSpec) -> Optional[int]:
        """The shard a session is pinned to (``None`` when unsharded)."""
        if self.router is None:
            return None
        return self.plan.worker_for(spec, NUM_SHARDS)

    async def stop(self) -> None:
        if self.router is not None:
            # Every client has hung up; give the splices a moment to see
            # it, or the closing loop finds their handler tasks pending.
            for _ in range(100):
                if self.router.active_sessions == 0:
                    break
                await asyncio.sleep(0.01)
            await self.router.stop()
        for daemon in self.daemons:
            daemon.request_stop()
        for daemon in self.daemons:
            await daemon.wait_done()


def _telemetry() -> TelemetryConfig:
    """The whole plane armed: registry + exporter, debug events into
    the void, flight ring buffers filling."""
    return TelemetryConfig(
        metrics_port=0,
        events=EventLog(sink=None, level="debug"),
        flight=FlightRecorder(),
    )


def load_plan(
    documents: Sequence, seed: int, scale: Scale, cluster: bool,
    paced_seconds: Optional[float],
) -> LoadPlan:
    """The session schedule of one live round.

    The *pool* of (query, shard) pairs is fixed: ``build_load_plan`` at
    ``POOL_SEED`` over the fixed corpus, each query generated from the
    documents of the shard it lands on.  ``--seed`` draws the order the
    pool is asked in and, open loop, the Poisson arrival offsets, scaled
    so the last session is due at *paced_seconds* (a Poisson process
    conditioned on its count).  Result sizes are heavy-tailed: redrawing
    the queries per seed moved the byte means by 9 % and the cluster's
    median latency by 30 % between seeds, the same queries in another
    order move them by a third of that.
    """
    granularity = NUM_SHARDS if cluster else 1
    pool = build_load_plan(
        documents, scale.pool, seed=POOL_SEED, granularity=granularity,
        partition_seed=PARTITION_SEED,
    )
    rng = random.Random(derive(seed, "plan"))
    order = list(pool.sessions)
    rng.shuffle(order)
    if paced_seconds is None:
        count, offsets = len(order), [0.0] * len(order)
    else:
        count = max(1, round(scale.rate * paced_seconds))
        offsets, t = [], 0.0
        for _ in range(count):
            t += rng.expovariate(scale.rate)
            offsets.append(t)
        offsets = [offset * paced_seconds / t for offset in offsets]
    return LoadPlan(
        seed=seed,
        rate=scale.rate if paced_seconds is not None else None,
        granularity=granularity,
        partition_seed=PARTITION_SEED,
        sessions=tuple(
            SessionSpec(
                index=index,
                start_s=offsets[index],
                query=order[index % len(order)].query,
                shard=order[index % len(order)].shard,
                client_key=index,
            )
            for index in range(count)
        ),
    )


async def _start_tier(
    name: str, seed: int, scale: Scale, paced_seconds: Optional[float]
) -> _Tier:
    clock = time.perf_counter
    cluster = name == "cluster_paced"
    paced = name in PACED
    base = SimulationConfig(
        document_count=scale.live_documents,
        collection_seed=CORPUS_SEED,
        cycle_data_capacity=scale.live_capacity,
    )
    t0 = clock()
    documents = build_collection(base)
    t1 = clock()
    plan = load_plan(documents, seed, scale, cluster, paced_seconds)
    t2 = clock()
    if cluster:
        configs = [
            base.with_(
                num_shards=NUM_SHARDS, shard_index=i, partition_seed=PARTITION_SEED
            )
            for i in range(NUM_SHARDS)
        ]
    else:
        configs = [base]
    shard_docs = [config.shard_documents(documents) for config in configs]
    stores = [
        DocumentStore(docs, config.size_model)
        for docs, config in zip(shard_docs, configs)
    ]
    t3 = clock()
    daemons = [
        BroadcastDaemon(
            store,
            config,
            DaemonConfig(
                bandwidth=scale.bandwidth if paced else None,
                telemetry=_telemetry() if name == "live_closed_obs" else None,
                shard=config.shard_identity,
            ),
        )
        for store, config in zip(stores, configs)
    ]
    for daemon in daemons:
        await daemon.start()
    router: Optional[ClusterRouter] = None
    if cluster:
        router = ClusterRouter(
            PartitionMap(NUM_SHARDS, seed=PARTITION_SEED),
            [
                WorkerAddress(i, "127.0.0.1", daemon.port)
                for i, daemon in enumerate(daemons)
            ],
            ClusterConfig(),
        )
        await router.start()
    port = router.port if router is not None else daemons[0].port
    assert port is not None
    return _Tier(
        port=port,
        daemons=daemons,
        logs=[CycleLog(daemon.server) for daemon in daemons],
        router=router,
        plan=plan,
        documents=documents,
        setup_parts={
            "xmlkit.generate_s": t1 - t0,
            "xpath.generate_s": t2 - t1,
            "dataguide.store_build_s": t3 - t2,
        },
        collection_bytes=sum(store.total_data_bytes() for store in stores),
    )


async def _session(
    spec: SessionSpec, key: int, due: float, tier: _Tier, trace: bool
) -> _Outcome:
    """One client session, timed from when it was *due*."""
    clock = time.perf_counter
    outcome = _Outcome(spec=spec, late_ms=(clock() - due) * 1e3)
    shard = tier.shard_of(spec)
    client = AsyncTwoTierClient(
        spec.query, port=tier.port, client_key=key, shard=shard, trace=trace
    )
    try:
        await client.connect()
        await client.tune()
        await client.submit()
        assert client.arrival_time is not None and client.query_id is not None
        if tier.logs[shard or 0].predates(client.arrival_time, client.query_id):
            # The daemon stamps a query admitted while a cycle is on air
            # at offset 0 with that cycle's own start time, so the
            # client would read an index built before its query existed
            # and lock a truncated result set (README "Known warts").
            # A client that saw CYCLE_BEGIN before its ACK knows better:
            # it starts listening one byte later and takes the next one.
            client.arrival_time += 1
            tier.stale_cycles_skipped += 1
        outcome.report = await client.run_session()
        outcome.latency_ms = (clock() - due) * 1e3
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        await client.close()
    return outcome


async def _open_loop(tier: _Tier) -> List[_Outcome]:
    """Every session starts at its planned offset, whatever the others do."""
    t0 = time.perf_counter()

    async def one(spec: SessionSpec) -> _Outcome:
        due = t0 + spec.start_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        return await _session(spec, spec.client_key, due, tier, False)

    return list(await asyncio.gather(*(one(spec) for spec in tier.plan.sessions)))


async def _closed_loop(tier: _Tier, clients: int, seconds: float, trace: bool
                       ) -> List[_Outcome]:
    """*clients* callers, each starting its next session when the last
    one is satisfied, until *seconds* have passed."""
    deadline = time.perf_counter() + seconds
    #: the plan is cycled with fresh keys, so a repeated query string is
    #: a new admission (popular queries recur; dedup never applies)
    feed: Iterator[Tuple[int, SessionSpec]] = enumerate(
        itertools.cycle(tier.plan.sessions)
    )
    outcomes: List[_Outcome] = []

    async def caller() -> None:
        while time.perf_counter() < deadline:
            key, spec = next(feed)
            outcomes.append(
                await _session(spec, key, time.perf_counter(), tier, trace)
            )

    await asyncio.gather(*(caller() for _ in range(clients)))
    return outcomes


async def _live_round(
    name: str, seed: int, scale: Scale, seconds: Optional[float],
    tracer: Optional[Tracer],
) -> Round:
    clock = time.perf_counter
    paced = name in PACED
    obs_on = name == "live_closed_obs"
    started = clock()
    tier = await _start_tier(name, seed, scale, (seconds or 1.0) if paced else None)
    round_ = Round(setup_s=clock() - started, setup_parts=tier.setup_parts)
    round_.counts["xmlkit.collection_bytes"] = tier.collection_bytes
    if seconds is None:
        await tier.stop()
        return round_

    if tracer is not None:
        tracer.open_root()
    cpu0, wall0 = time.process_time(), clock()
    if paced:
        outcomes = await _open_loop(tier)
    else:
        outcomes = await _closed_loop(tier, scale.clients, seconds, obs_on)
    wall1, cpu1 = clock(), time.process_time()
    if tracer is not None:
        tracer.close_root()

    if obs_on:
        port = tier.daemons[0].metrics_port
        assert port is not None
        t0 = clock()
        status, body = await scrape("127.0.0.1", port)
        round_.counts["obs.scrape_ms"] = (clock() - t0) * 1e3
        if status != 200 or not body.strip():
            round_.problems.append(f"/metrics scrape answered {status}")
        else:
            try:
                lint_openmetrics(body)
            except OpenMetricsError as exc:
                round_.problems.append(f"/metrics does not lint: {exc}")
    await tier.stop()

    round_.timed = True
    round_.wall_s, round_.cpu_s = wall1 - wall0, cpu1 - cpu0
    round_.attempted = len(outcomes)
    round_.air_bytes = sum(daemon.server.clock for daemon in tier.daemons)
    for outcome in outcomes:
        round_.late_ms.append(outcome.late_ms)
        problem = _check_session(outcome, tier)
        if problem is not None:
            if len(round_.problems) < 8:
                round_.problems.append(problem)
            continue
        metrics = outcome.report.metrics
        round_.satisfied += 1
        round_.latency_ms.append(outcome.latency_ms)
        round_.access_bytes.append(metrics.access_bytes)
        round_.tuning_bytes.append(metrics.tuning_bytes)
        round_.lookup_bytes.append(metrics.index_lookup_bytes)
        round_.cycles_listened.append(metrics.cycles_listened)

    servers = [daemon.server for daemon in tier.daemons]
    round_.counts.update(server_counts(servers, tier.logs, scale.live_capacity))
    round_.counts["net.stale_cycles_skipped"] = tier.stale_cycles_skipped
    stats = [daemon.stats for daemon in tier.daemons]
    frames_sent = sum(s.frames_sent for s in stats)
    frames_encoded = sum(s.frames_encoded for s in stats)
    round_.counts.update(
        {
            "net.frames_sent": frames_sent,
            "net.frames_encoded": frames_encoded,
            "net.fanout_ratio": ratio(frames_sent, frames_encoded),
            "net.bytes_streamed": sum(s.bytes_streamed for s in stats),
            "net.rejected_total": sum(s.rejected_total for s in stats),
            "net.slow_consumers_evicted": sum(
                s.slow_consumers_evicted for s in stats
            ),
        }
    )
    if paced:
        on_air_capacity = scale.bandwidth * len(tier.daemons) * round_.wall_s
        round_.counts["net.dead_air_ratio"] = 1.0 - ratio(
            round_.air_bytes, on_air_capacity
        )
    if tier.router is not None:
        router = tier.router.stats
        round_.counts.update(
            {
                "net.router_proxied": router.proxied_total,
                "net.router_connect_retries": router.connect_retries_total,
                "net.router_errors": router.errors_total,
            }
        )
        if router.proxied_total != round_.attempted:
            round_.problems.append(
                f"router proxied {router.proxied_total} of "
                f"{round_.attempted} sessions"
            )
    return round_


def _check_session(outcome: _Outcome, tier: _Tier) -> Optional[str]:
    """``None`` when the session passes the correctness gate."""
    spec = outcome.spec
    if outcome.error is not None:
        return f"session {spec.index} ({spec.query}): {outcome.error}"
    report = outcome.report
    if not report.satisfied:
        return f"session {spec.index} ({spec.query}) ended unsatisfied"
    if report.cycles_verified == 0:
        return f"session {spec.index} verified no cycle signature"
    oracle = oracle_for(len(tier.documents), tier.shard_of(spec))
    want = oracle.result_size(spec.query)
    if report.metrics.result_doc_count != want:
        return (
            f"session {spec.index} ({spec.query}): "
            f"{report.metrics.result_doc_count} result documents, "
            f"evaluator says {want}"
        )
    return None


# ----------------------------------------------------------------------
# One entry point
# ----------------------------------------------------------------------


def run_round(
    name: str,
    seed: int,
    scale: Scale,
    seconds: Optional[float],
    tracer: Optional[Tracer] = None,
) -> Round:
    """One set-up and, unless *seconds* is ``None``, one timed region.

    Simulator rounds run their fixed-size batch whatever *seconds* says
    (the caller repeats them until the time is spent); live rounds
    generate load for *seconds*.
    """
    if is_sim(name):
        return sim_round(name, seed, scale, seconds is not None, tracer)
    return asyncio.run(_live_round(name, seed, scale, seconds, tracer))


def round_plan(name: str, scale: Scale, seconds: float) -> List[Optional[float]]:
    """Timed seconds of each round of one run (``None`` = set-up only).

    Paced workloads need one uninterrupted region -- a restart empties
    the queue and the first second of every region reads low -- so their
    extra set-ups exist only to give ``setup_s`` a median.  Closed-loop
    workloads are CPU-bound and get a fresh tier per round, so a burst
    of machine noise lands in some rounds and the run reports the best.
    Simulator rounds are open-ended: see :func:`run_round`.
    """
    if is_sim(name):
        return []
    if name in PACED:
        return [None, None, seconds]
    return [seconds / scale.closed_rounds] * scale.closed_rounds
