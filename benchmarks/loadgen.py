"""Open-loop load generator CLI for a live daemon or cluster front door.

Thin wrapper over :mod:`repro.net.loadgen`: build a deterministic
session plan from the same seeded collection the server runs, then
drive ``host:port`` open-loop and print the latency/throughput report.

Usage (against ``python -m repro serve --workers 4 ...``):

    python benchmarks/loadgen.py --port 40123 --sessions 200 \\
        --rate 50 --granularity 4 --num-workers 4

``--rate`` paces arrivals as a Poisson process (sessions/sec); omit it
to flood every session at t=0 (the throughput mode the scale bench
uses).  ``--num-workers`` pins each session's shard, so the front door
splices it to its planned worker; omit it against a single daemon.

The file is named ``loadgen.py`` (not ``bench_*``/``test_*``) on
purpose: it is an operator tool, not a collected benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.net.loadgen import build_load_plan, run_load
from repro.sim.config import SimulationConfig
from repro.sim.simulation import build_collection


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--sessions", type=int, default=100)
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="Poisson arrival rate in sessions/sec (default: flood at t=0)",
    )
    parser.add_argument("--seed", type=int, default=1, help="plan seed")
    parser.add_argument(
        "--granularity",
        type=int,
        default=1,
        help="shards the plan partitions queries at (must be a multiple "
        "of the cluster's worker count to pin shards)",
    )
    parser.add_argument("--partition-seed", type=int, default=0)
    parser.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help="pin sessions to their shard of an N-worker cluster; "
        "default: unpinned",
    )
    parser.add_argument("--dtd", choices=("nitf", "nasa", "dblp"), default="nitf")
    parser.add_argument("--count", type=int, default=100, help="documents")
    parser.add_argument(
        "--collection-seed", type=int, default=7,
        help="must match the server's --seed",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    config = SimulationConfig(
        dtd=args.dtd,
        document_count=args.count,
        collection_seed=args.collection_seed,
    )
    plan = build_load_plan(
        build_collection(config),
        args.sessions,
        seed=args.seed,
        rate=args.rate,
        granularity=args.granularity,
        partition_seed=args.partition_seed,
    )
    print(f"plan: {json.dumps(plan.describe())}", file=sys.stderr)
    report = asyncio.run(
        run_load(
            plan, args.host, args.port, num_workers=args.num_workers
        )
    )
    summary = report.describe()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key, value in summary.items():
            print(f"{key:>18}: {value}")
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
