"""Cluster scale-out: queries/sec vs worker count under open-loop load.

The sharded tier's claim is *algorithmic*, not parallel-hardware: each
worker owns its own broadcast channel (paced at ``BANDWIDTH`` on-air
bytes/second, the scarce resource in data broadcast), and a worker
serving 1/N of the collection airs a schedule ~N times shorter for the
same offered session load -- so aggregate queries/sec scales ~N-fold.
That holds on a single-core runner -- pacing is air-time, not CPU --
which is exactly what this bench pins: the same deterministic
:class:`~repro.net.loadgen.LoadPlan` (granularity ``WORKERS`` nests
onto both cluster sizes, so both serve *the same sessions and
queries*) floods a 1-worker and an ``N``-worker cluster, and the
``N``-worker run must clear ``GATE``x the single-worker queries/sec.

Both clusters run the real deployment shape: ``repro serve --shard i/N``
subprocesses under a :class:`~repro.net.cluster.ClusterSupervisor`
behind a :class:`~repro.net.cluster.ClusterRouter` that splices each
pinned session to its worker.  Every port -- front door,
workers, metrics -- is OS-assigned ephemeral; nothing here can collide
with a parallel CI job.

Knobs (CI downsamples through them):

* ``REPRO_CLUSTER_SESSIONS``  -- open-loop sessions per run (default 96)
* ``REPRO_CLUSTER_DOCS``      -- collection size (default 240)
* ``REPRO_CLUSTER_WORKERS``   -- scaled-out worker count (default 4)
* ``REPRO_CLUSTER_GATE``      -- required q/s ratio (default 2.5)
* ``REPRO_CLUSTER_CAPACITY``  -- cycle data capacity in bytes
* ``REPRO_CLUSTER_BANDWIDTH`` -- per-worker downlink bytes/second
"""

from __future__ import annotations

import asyncio
import json
import os

from conftest import RESULTS_DIR

from repro.experiments.report import format_table
from repro.net.cluster import ClusterConfig, ClusterRouter, ClusterSupervisor
from repro.net.loadgen import build_load_plan, run_load
from repro.sim.config import SimulationConfig
from repro.sim.simulation import build_collection

SESSIONS = int(os.environ.get("REPRO_CLUSTER_SESSIONS", "96"))
DOCS = int(os.environ.get("REPRO_CLUSTER_DOCS", "240"))
WORKERS = int(os.environ.get("REPRO_CLUSTER_WORKERS", "4"))
GATE = float(os.environ.get("REPRO_CLUSTER_GATE", "2.5"))
BANDWIDTH = int(os.environ.get("REPRO_CLUSTER_BANDWIDTH", "400000"))

PARTITION_SEED = 7
PLAN_SEED = 23
CAPACITY = int(os.environ.get("REPRO_CLUSTER_CAPACITY", "40000"))

#: The workload every cluster size serves: one plan at worker-count
#: granularity, so its hash slots collapse exactly onto 1 and WORKERS.
CONFIG = SimulationConfig(
    document_count=DOCS,
    collection_seed=7,
    cycle_data_capacity=CAPACITY,
)

SERVE_ARGS = [
    "--dtd", CONFIG.dtd,
    "--count", str(DOCS),
    "--seed", str(CONFIG.collection_seed),
    "--capacity", str(CAPACITY),
    "--bandwidth", str(BANDWIDTH),
    "--max-pending", str(max(1024, SESSIONS)),
    "--log-level", "warning",
]


async def _measure(num_workers: int, plan) -> dict:
    supervisor = ClusterSupervisor(
        num_workers,
        partition_seed=PARTITION_SEED,
        serve_args=SERVE_ARGS,
    )
    try:
        workers = await asyncio.to_thread(supervisor.start)
        router = ClusterRouter(supervisor.partition, workers, ClusterConfig())
        await router.start()
        try:
            report = await run_load(
                plan, "127.0.0.1", router.port, num_workers=num_workers
            )
        finally:
            await router.stop()
    finally:
        await asyncio.to_thread(supervisor.stop)
    assert report.failed == 0, (
        f"{num_workers}-worker run failed {report.failed}/{report.sessions} "
        f"sessions; worker logs in {supervisor.workdir}"
    )
    return {"num_workers": num_workers, **report.describe()}


def _run() -> dict:
    documents = build_collection(CONFIG)
    plan = build_load_plan(
        documents,
        SESSIONS,
        seed=PLAN_SEED,
        rate=None,  # flood: unpaced offered load, throughput mode
        granularity=WORKERS,
        partition_seed=PARTITION_SEED,
    )
    runs = {}
    for num_workers in (1, WORKERS):
        runs[str(num_workers)] = asyncio.run(_measure(num_workers, plan))
    return runs


def test_cluster_scale(benchmark):
    runs = benchmark.pedantic(_run, rounds=1, iterations=1)
    single = runs["1"]
    scaled = runs[str(WORKERS)]
    ratio = scaled["queries_per_sec"] / single["queries_per_sec"]

    rows = []
    for key in ("1", str(WORKERS)):
        r = runs[key]
        rows += [
            (f"{key} worker(s): queries/sec", r["queries_per_sec"]),
            (f"{key} worker(s): elapsed s", r["elapsed_s"]),
            (f"{key} worker(s): latency p50 s", r["latency_p50_s"]),
            (f"{key} worker(s): latency p99 s", r["latency_p99_s"]),
        ]
    rows.append((f"scale-out ratio (gate >= {GATE}x)", f"{ratio:.2f}x"))
    text = format_table(
        "Cluster scale-out (splicing front door, subprocess workers)",
        ("metric", "value"),
        rows,
        note=(
            f"{DOCS} docs, {SESSIONS} open-loop sessions (flood), plan "
            f"granularity {WORKERS}, capacity {CAPACITY} B, per-worker "
            f"downlink {BANDWIDTH} B/s; identical sessions+queries at "
            "both cluster sizes; single-core runner -- the ratio is "
            "per-channel air-time, not CPU parallelism"
        ),
    )
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cluster_scale.txt").write_text(text + "\n", encoding="utf-8")
    payload = {"gate": GATE, "ratio": ratio, "runs": runs}
    (RESULTS_DIR / "cluster_scale.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    for key in ("1", str(WORKERS)):
        assert runs[key]["satisfied"] == SESSIONS, f"{key}-worker run lost sessions"
    assert ratio >= GATE, (
        f"{WORKERS}-worker cluster reached only {ratio:.2f}x the "
        f"single-worker queries/sec (gate {GATE}x)"
    )
