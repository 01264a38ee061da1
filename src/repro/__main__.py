"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``generate``  -- emit a synthetic XML collection to a directory;
* ``workload``  -- print a synthetic XPath workload for a collection;
* ``index``     -- build CI -> PCI -> two-tier over a collection and a
  workload, print the size breakdown;
* ``simulate``  -- run one end-to-end broadcast simulation and print the
  summary;
* ``stats``     -- phase-timing + byte-accounting perf report, from a
  saved trace (``--trace``) or a fresh observed run; ``--json`` for the
  machine-readable form; v3 traces with ``query_trace`` records also
  render per-query wire latency breakdowns;
* ``serve``     -- run the live broadcast daemon: framed uplink for
  XPath submissions (grammar: :mod:`repro.net.uplink`), paced downlink
  streaming each built cycle as wire frames; SIGINT drains gracefully
  and progress goes to **stderr** as structured events, so stdout stays
  clean for automation.  ``--workers N`` runs the sharded, self-healing
  cluster tier instead (N journaled worker subprocesses behind one
  front-door router); ``--shard i/N`` runs one such worker directly;
* ``client``    -- submit one query to a running daemon or front door,
  tune in with the two-tier protocol and print the access/tuning byte
  accounting (``--trace`` adds the end-to-end wire latency breakdown).

The paper's tables and figures have their own entry point, ``python -m
repro.experiments``.  Everything except ``serve``/``client`` (which talk
TCP on localhost by default) is seeded and offline; every flag is
documented under ``--help`` of its subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import secrets
import sys
from typing import List, Optional

from repro import obs
from repro.broadcast.program import IndexScheme
from repro.broadcast.server import DocumentStore
from repro.control.plan import ControlConfig
from repro.experiments.report import print_table
from repro.experiments.runner import PendingIndex
from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation
from repro.tools.persist import (
    load_collection,
    load_workload,
    save_collection,
    save_workload,
)
from repro.tools.trace import export_trace, load_trace, trace_records
from repro.xmlkit.generator import (
    BUILTIN_DTDS,
    GeneratorConfig,
    generate_collection,
)
from repro.xmlkit.stats import collection_stats
from repro.xpath.generator import generate_workload


def _add_collection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtd", choices=tuple(BUILTIN_DTDS), default="nitf")
    parser.add_argument("--count", type=int, default=100, help="documents")
    parser.add_argument("--seed", type=int, default=7)


def _add_program_args(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_simulation_config` reads -- collection, cycle
    program, channels, adaptive control plane -- shared by ``simulate``,
    ``stats`` and ``serve``."""
    from repro.broadcast.multichannel import ALLOCATION_POLICIES

    _add_collection_args(parser)
    parser.add_argument("--collection", help="load a saved collection directory")
    parser.add_argument("--capacity", type=int, default=200_000)
    parser.add_argument(
        "--scheduler", choices=("leelo", "fcfs", "mrf", "rxw"), default="leelo"
    )
    parser.add_argument(
        "--scheme", choices=("one-tier", "two-tier"), default="two-tier"
    )
    parser.add_argument(
        "--channels",
        type=int,
        default=1,
        metavar="K",
        help="broadcast documents over K parallel data channels "
        "(default 1: the paper's single channel)",
    )
    parser.add_argument(
        "--allocation",
        choices=ALLOCATION_POLICIES,
        default="balanced",
        help="how the schedule splits across data channels",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="enable the adaptive control plane: re-plan K/policy/hot set "
        "each cycle from live demand (off = the static broadcast, "
        "byte-identical to a build without this flag)",
    )
    parser.add_argument(
        "--k-min", type=int, metavar="K",
        help="adaptive: lower bound of the data-channel band (default 1)",
    )
    parser.add_argument(
        "--k-max", type=int, metavar="K",
        help="adaptive: upper bound of the data-channel band (default 4)",
    )
    parser.add_argument(
        "--hot-set-size", type=int, metavar="N",
        help="adaptive: promote up to N hot documents onto a fast-repeat "
        "channel (default 0: no hot channel)",
    )


def cmd_generate(args) -> int:
    documents = generate_collection(
        BUILTIN_DTDS[args.dtd](), args.count, config=GeneratorConfig(seed=args.seed)
    )
    for doc in documents:
        doc.name = f"{args.dtd}-{doc.doc_id:05d}"
    stats = collection_stats(documents)
    out_dir = save_collection(documents, args.out)
    print(f"wrote {stats.document_count} documents (+ manifest.json) to {out_dir}/")
    print(stats.summary())
    return 0


def _collection_for(args):
    """Load a saved collection when --collection is given, else generate."""
    if getattr(args, "collection", None):
        return load_collection(args.collection)
    return generate_collection(
        BUILTIN_DTDS[args.dtd](), args.count, config=GeneratorConfig(seed=args.seed)
    )


def cmd_workload(args) -> int:
    documents = _collection_for(args)
    queries = generate_workload(
        documents,
        args.queries,
        seed=args.query_seed,
        wildcard_descendant_prob=args.p,
        max_depth=args.dq,
    )
    if args.out:
        save_workload(queries, args.out)
        print(f"wrote {len(queries)} queries to {args.out}")
        return 0
    for query in queries:
        print(query)
    return 0


def cmd_index(args) -> int:
    documents = _collection_for(args)
    store = DocumentStore(documents)
    if args.workload:
        queries = load_workload(args.workload)
    else:
        queries = generate_workload(
            documents,
            args.queries,
            seed=args.query_seed,
            wildcard_descendant_prob=args.p,
            max_depth=args.dq,
        )
    pending = PendingIndex.build(store, queries)
    stats, first_tier = pending.stats, pending.pci.size_bytes(one_tier=False)
    data = store.total_data_bytes()
    print_table(
        f"Index sizes ({len(documents)} docs, {len(queries)} queries)",
        ("structure", "nodes", "bytes", "% of data"),
        [
            ("CI (one-tier)", stats.nodes_before, stats.bytes_before,
             100 * stats.bytes_before / data),
            ("PCI (one-tier)", stats.nodes_after, stats.bytes_after,
             100 * stats.bytes_after / data),
            ("first tier (L_I)", stats.nodes_after, first_tier,
             100 * first_tier / data),
        ],
        note=f"collection: {data:,} bytes; requested docs: "
        f"{len(pending.requested)}",
    )
    return 0


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """Everything ``simulate`` and ``stats`` share: the program flags
    plus the workload, loss, fault and scenario flags :func:`_run_config`
    reads (a daemon has no use for those)."""
    from repro.sim.config import SCENARIOS

    _add_program_args(parser)
    parser.add_argument("--queries", type=int, default=100, help="N_Q per cycle")
    parser.add_argument("--p", type=float, default=0.1)
    parser.add_argument("--dq", type=int, default=10)
    parser.add_argument("--arrival-cycles", type=int, default=2)
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-packet erasure probability (error-prone channel); the "
        "report then covers the client's loss-recovery accounting",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run under the default fault plan (unreliable uplink, packet "
        "corruption/erasure behind per-packet checksums, overload-degraded "
        "builds, mid-cycle collection mutations) with chaos monitors on",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        help="seed of the fault plan (default 0; every injected fault is "
        "deterministic)",
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIOS,
        default=None,
        help="shape the arrival stream: flash crowd, diurnal wave, or "
        "popularity drift (default: the paper's constant-rate stream)",
    )
    parser.add_argument(
        "--scenario-intensity", type=float,
        help="peak load as a multiple of N_Q (flash/diurnal; default 3.0)",
    )
    parser.add_argument(
        "--scenario-period", type=int,
        help="cycles per diurnal wave / drift hot-slice rotation (default 8)",
    )


#: flags that only mean something beside another flag: ``parent ->
#: dependents``.  A dependent defaults to ``None`` (not given), so
#: :func:`main` can refuse one given without its parent.
DEPENDENT_FLAGS = {
    "adaptive": ("k_min", "k_max", "hot_set_size"),
    "faults": ("fault_seed",),
    "scenario": ("scenario_intensity", "scenario_period"),
}


class ConfigError(ValueError):
    """The flags describe no valid configuration (a usage error)."""


def _given(args, parent: str) -> dict:
    """``name -> value`` of *parent*'s dependent flags the command line gave."""
    values = {name: getattr(args, name) for name in DEPENDENT_FLAGS[parent]}
    return {name: value for name, value in values.items() if value is not None}


def _simulation_config(args, **overrides) -> SimulationConfig:
    """The configuration the flags ``simulate``, ``stats`` and ``serve``
    share describe; *overrides* carry each command's own fields.  An
    invalid one raises :class:`ConfigError`."""
    try:
        return SimulationConfig(
            dtd=args.dtd,
            document_count=args.count,
            collection_seed=args.seed,
            cycle_data_capacity=args.capacity,
            scheduler=args.scheduler,
            scheme=IndexScheme(args.scheme),
            num_data_channels=args.channels,
            channel_allocation=args.allocation,
            adaptive=args.adaptive,
            control=ControlConfig(**_given(args, "adaptive"))
            if args.adaptive
            else None,
            **overrides,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_config(args) -> SimulationConfig:
    """``simulate`` / ``stats``: the shared fields plus the workload,
    loss, fault and scenario flags a daemon has no use for."""
    faults = None
    if args.faults:
        from repro.faults.plan import default_fault_plan

        faults = default_fault_plan(args.fault_seed or 0)
    return _simulation_config(
        args,
        n_q=args.queries,
        wildcard_prob=args.p,
        max_query_depth=args.dq,
        loss_prob=args.loss,
        faults=faults,
        arrival_cycles=args.arrival_cycles,
        scenario=args.scenario,
        **_given(args, "scenario"),
    )


def cmd_simulate(args) -> int:
    config = _run_config(args)
    documents = load_collection(args.collection) if args.collection else None
    chaos = None
    if config.faults is not None:
        from repro.faults.chaos import ChaosSimulation

        chaos = ChaosSimulation(config, documents=documents)
        result = chaos.run()
    else:
        result = run_simulation(config, documents=documents)
    if args.trace:
        export_trace(result, args.trace)
        print(f"trace written to {args.trace}")
    rows = [(key, value) for key, value in result.summary().items()]
    rows.append(("completed", int(result.completed)))
    if args.loss == 0 and config.faults is None:
        rows.append(
            (
                "improvement (1-tier/2-tier lookup)",
                result.mean_index_lookup_bytes("one-tier")
                / max(1.0, result.mean_index_lookup_bytes("two-tier")),
            )
        )
    print_table("Simulation summary", ("metric", "value"), rows)
    if chaos is not None:
        fault_rows = list(chaos.fault_stats.items())
        fault_rows.append(("server degraded cycles", chaos.server.degraded_cycles))
        fault_rows.append(("server dedup hits", chaos.server.uplink_dedup_hits))
        print_table(
            f"Fault injection (seed {config.faults.seed}, "
            f"window {config.faults.fault_cycles} cycles)",
            ("fault metric", "value"),
            fault_rows,
            note="chaos safety/liveness monitors passed on every cycle",
        )
    return 0


def cmd_stats(args) -> int:
    """Phase-timing + byte-accounting report (the perf-report CLI)."""
    from repro.obs.report import report_from_trace

    if args.trace:
        report = report_from_trace(load_trace(args.trace))
    else:
        documents = load_collection(args.collection) if args.collection else None
        with obs.observed():
            result = run_simulation(_run_config(args), documents=documents)
        if args.export_trace:
            export_trace(result, args.export_trace)
        report = report_from_trace(trace_records(result), source="run")
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nperf snapshot written to {args.out}", file=sys.stderr)
    return 0


def _parse_shard(spec: Optional[str]):
    """``"i/N"`` -> ``(i, N)``; ``None`` -> ``(None, None)``."""
    if spec is None:
        return None, None
    index_text, sep, total_text = spec.partition("/")
    try:
        if not sep:
            raise ValueError
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise SystemExit(f"--shard wants i/N (e.g. 0/2), got {spec!r}")
    return index, total


def _write_port_files(args, port: int, metrics_port: Optional[int]) -> None:
    """``--port-file`` / ``--metrics-port-file``: where scripted clients
    and the cluster supervisor learn an ephemeral port."""
    if args.port_file:
        pathlib.Path(args.port_file).write_text(f"{port}\n")
    if args.metrics_port_file and metrics_port is not None:
        pathlib.Path(args.metrics_port_file).write_text(f"{metrics_port}\n")


def cmd_serve(args) -> int:
    """Run the live broadcast daemon until SIGINT/SIGTERM drains it."""
    import asyncio
    import signal

    from repro.net import BroadcastDaemon, DaemonConfig, MonotonicClock
    from repro.obs.telemetry import EventLog, FlightRecorder, TelemetryConfig

    if args.workers is not None and args.workers > 1:
        if args.shard is not None:
            raise SystemExit("--workers and --shard are mutually exclusive")
        return _serve_cluster(args)

    shard_index, num_shards = _parse_shard(args.shard)
    documents = _collection_for(args)
    config = _simulation_config(
        args,
        num_shards=num_shards,
        shard_index=shard_index,
        partition_seed=args.partition_seed,
    )
    documents = config.shard_documents(documents)
    store = DocumentStore(documents)
    clock = MonotonicClock()
    log = EventLog(
        sink=sys.stderr,
        clock=clock,
        level=args.log_level,
        json_lines=args.log_json,
    )
    flight_dir = pathlib.Path(args.flight_dir) if args.flight_dir else None
    telemetry = TelemetryConfig(
        metrics_port=args.metrics_port,
        events=log,
        flight=FlightRecorder() if flight_dir else None,
        flight_dir=flight_dir,
    )
    shard = config.shard_identity
    if shard is not None and args.epoch:
        shard = dataclasses.replace(shard, epoch=args.epoch)
    journal = None
    if args.journal:
        from repro.tools.persist import QueryJournal

        journal = QueryJournal(args.journal)
    net = DaemonConfig(
        host=args.host,
        port=args.port,
        bandwidth=args.bandwidth,
        max_pending=args.max_pending,
        max_queries=args.max_queries,
        clock=clock,
        telemetry=telemetry,
        shard=shard,
        journal=journal,
    )
    preload = load_workload(args.workload) if args.workload else []

    async def _serve() -> None:
        daemon = BroadcastDaemon(store, config, net)
        await daemon.start()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGINT, daemon.request_stop)

        def _on_sigterm() -> None:
            daemon.dump_flight("sigterm")
            daemon.request_stop()

        loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        if preload:
            admitted = daemon.preload(preload)
            log.info("preloaded", admitted=admitted, total=len(preload))
        log.info(
            "listening",
            host=args.host,
            port=daemon.port,
            docs=len(documents),
            scheme=config.scheme.value,
            channels=config.num_data_channels,
            bandwidth=args.bandwidth or "unpaced",
            metrics_port=daemon.metrics_port,
            shard=args.shard or "none",
        )
        _write_port_files(args, daemon.port, daemon.metrics_port)
        await daemon.wait_done()
        status = daemon.status()
        log.info(
            "drained",
            admitted=status["admitted"],
            completed=status["completed"],
            cycles=status["cycles"],
            bytes_streamed=daemon.stats.bytes_streamed,
        )

    asyncio.run(_serve())
    return 0


def _worker_argv(args) -> List[str]:
    """The ``serve`` flags a front door hands each of its workers: all
    that shapes the collection, the broadcast program or the daemon, so a
    worker re-parses to the front door's own :func:`_simulation_config`
    (a unit test holds the two equal).  The per-worker flags -- shard,
    epoch, ports, journal, flight directory -- are the supervisor's."""
    argv = [
        "--dtd", args.dtd,
        "--count", str(args.count),
        "--seed", str(args.seed),
        "--capacity", str(args.capacity),
        "--scheduler", args.scheduler,
        "--scheme", args.scheme,
        "--channels", str(args.channels),
        "--allocation", args.allocation,
        "--max-pending", str(args.max_pending),
        "--log-level", args.log_level,
    ]
    if args.adaptive:
        argv.append("--adaptive")
        for name, value in _given(args, "adaptive").items():
            argv += ["--" + name.replace("_", "-"), str(value)]
    if args.log_json:
        argv.append("--log-json")
    if args.collection is not None:
        argv += ["--collection", args.collection]
    if args.workload is not None:
        argv += ["--workload", args.workload]
    if args.bandwidth is not None:
        argv += ["--bandwidth", str(args.bandwidth)]
    if args.max_queries is not None:
        argv += ["--max-queries", str(args.max_queries)]
    return argv


def _serve_cluster(args) -> int:
    """``serve --workers N``: supervisor + front-door router."""
    import asyncio
    import signal

    from repro.net.cluster import ClusterConfig, ClusterRouter, ClusterSupervisor

    supervisor = ClusterSupervisor(
        args.workers,
        partition_seed=args.partition_seed,
        serve_args=_worker_argv(args),
        metrics=args.metrics_port is not None,
        journal=True,
        flight=bool(args.flight_dir),
        heartbeat_interval=args.heartbeat_interval,
    )
    print(
        f"cluster: spawning {args.workers} workers "
        f"(logs in {supervisor.workdir})",
        file=sys.stderr,
    )

    async def _serve() -> int:
        import contextlib

        workers = await asyncio.to_thread(supervisor.start)
        router = ClusterRouter(
            supervisor.partition,
            workers,
            ClusterConfig(
                host=args.host,
                port=args.port,
                max_sessions=args.max_sessions,
                metrics_port=args.metrics_port,
            ),
        )
        await router.start()

        def _on_event(event) -> None:
            print(f"cluster: {event}", file=sys.stderr)

        monitor_task = asyncio.create_task(
            supervisor.monitor(router, on_event=_on_event)
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGINT, stop.set)
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        print(
            f"cluster: front door on {args.host}:{router.port} "
            f"(metrics_port={router.metrics_port})",
            file=sys.stderr,
        )
        _write_port_files(args, router.port, router.metrics_port)
        await stop.wait()
        print("cluster: draining workers", file=sys.stderr)
        monitor_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await monitor_task
        codes = await asyncio.to_thread(supervisor.stop)
        await router.stop()
        print(f"cluster: workers exited {codes}", file=sys.stderr)
        return 0 if all(code == 0 for code in codes) else 1

    try:
        return asyncio.run(_serve())
    finally:
        supervisor.stop()


def cmd_client(args) -> int:
    """Submit one query to a running daemon and report the byte costs."""
    import asyncio

    from repro.net import AsyncTwoTierClient

    want_trace = args.trace or bool(args.trace_out)
    key = args.key
    if args.resume and key is None:
        # resume needs an idempotent-uplink identity for dedup
        key = secrets.randbits(31)
    client = AsyncTwoTierClient(
        args.query,
        host=args.host,
        port=args.port,
        arrival_time=args.arrival,
        client_key=key,
        trace=want_trace,
        shard=args.shard,
        resume=args.resume,
    )
    report = asyncio.run(client.run())
    payload = {
        "query_id": report.query_id,
        "protocol": report.protocol,
        "satisfied": report.satisfied,
        "access_bytes": report.access_bytes,
        "tuning_bytes": report.tuning_bytes,
        "index_lookup_bytes": report.metrics.index_lookup_bytes,
        "cycles_listened": report.metrics.cycles_listened,
        "cycles_verified": report.cycles_verified,
    }
    if args.resume:
        payload["resumes"] = report.resumes
        payload["epoch_bumps"] = report.epoch_bumps
    if report.trace is not None:
        payload["trace"] = report.trace.to_record()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            ("satisfied", str(report.satisfied)),
            ("access bytes", report.access_bytes),
            ("tuning bytes", report.tuning_bytes),
            ("index look-up bytes", report.metrics.index_lookup_bytes),
            ("cycles listened", report.metrics.cycles_listened),
            ("cycles signature-verified", report.cycles_verified),
        ]
        if args.resume:
            rows.append(("downlink resumes", report.resumes))
            rows.append(("worker epoch bumps", report.epoch_bumps))
        print_table(
            f"Query {report.query_id} ({report.protocol})",
            ("metric", "value"),
            rows,
        )
        if report.trace is not None:
            comp = report.trace.components()
            print_table(
                f"Wire latency (trace {report.trace.trace_id})",
                ("component", "ms"),
                [
                    ("queue", round(comp["queue_seconds"] * 1e3, 3)),
                    ("build", round(comp["build_seconds"] * 1e3, 3)),
                    ("on-air", round(comp["on_air_seconds"] * 1e3, 3)),
                    ("tune", round(comp["tune_seconds"] * 1e3, 3)),
                    ("total", round(comp["total_seconds"] * 1e3, 3)),
                ],
                note="additive: queue + build + on-air + tune = total",
            )
    if want_trace and report.trace is None:
        print("no wire trace captured (query unsatisfied?)", file=sys.stderr)
    if args.trace_out and report.trace is not None:
        from repro.tools.trace import export_query_traces

        export_query_traces([report.trace], args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0 if report.satisfied else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="emit a synthetic collection")
    _add_collection_args(generate)
    generate.add_argument("--out", default="collection", help="output directory")
    generate.set_defaults(func=cmd_generate)

    workload = commands.add_parser("workload", help="print a query workload")
    workload.add_argument("--queries", type=int, default=20)
    workload.add_argument("--out", help="write the workload to a file")
    workload.set_defaults(func=cmd_workload)

    index = commands.add_parser("index", help="build CI/PCI/two-tier and size them")
    index.add_argument("--queries", type=int, default=100)
    index.add_argument("--workload", help="load a saved workload file")
    index.set_defaults(func=cmd_index)

    for offline in (workload, index):  # both draw a workload from a collection
        _add_collection_args(offline)
        offline.add_argument("--query-seed", type=int, default=11)
        offline.add_argument("--p", type=float, default=0.1)
        offline.add_argument("--dq", type=int, default=10)
        offline.add_argument("--collection", help="load a saved collection directory")

    simulate = commands.add_parser("simulate", help="run one broadcast simulation")
    _add_run_args(simulate)
    simulate.add_argument("--trace", help="export the run as a JSONL trace")
    simulate.set_defaults(func=cmd_simulate)

    stats = commands.add_parser(
        "stats",
        help="phase-timing and byte-accounting perf report",
        description="Render a perf report from a saved trace (--trace) or "
        "from a fresh simulation run with observability enabled.",
    )
    _add_run_args(stats)
    stats.add_argument("--trace", help="report from this JSONL trace instead of running")
    stats.add_argument(
        "--export-trace", help="also export the fresh run as a (v3) JSONL trace"
    )
    stats.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )
    stats.add_argument("--out", help="also write the JSON report to a file")
    stats.set_defaults(func=cmd_stats)

    serve = commands.add_parser(
        "serve",
        help="run the live broadcast daemon",
        description="Serve a collection over TCP: framed uplink for XPath "
        "submissions, paced downlink streaming every built cycle as wire "
        "frames.  SIGINT/SIGTERM drain gracefully (pending queries are "
        "served, then subscribers get SERVER_BYE).",
    )
    _add_program_args(serve)
    serve.add_argument("--workload", help="preload a saved workload at t=0")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument(
        "--port-file", help="write the bound port here (scripted clients)"
    )
    serve.add_argument(
        "--bandwidth",
        type=float,
        default=None,
        metavar="BYTES_PER_SEC",
        help="pace the downlink at this on-air byte rate (default: unpaced)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission bound; excess SUBMITs get RETRY_AFTER",
    )
    serve.add_argument(
        "--max-queries",
        type=int,
        default=None,
        help="stop admitting after this many queries and drain (smoke runs)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve OpenMetrics on http://host:PORT/metrics (+ /healthz); "
        "0 = ephemeral; default: no metrics endpoint; with --workers the "
        "front door serves the shard-labelled aggregation of every worker",
    )
    serve.add_argument(
        "--metrics-port-file",
        help="write the bound metrics port here (scripted scrapers)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the sharded cluster tier: N worker subprocesses behind "
        "one front-door router (default: a single in-process daemon)",
    )
    serve.add_argument(
        "--shard",
        metavar="i/N",
        help="serve only shard i of an N-way partition map (one worker of "
        "a cluster); mutually exclusive with --workers",
    )
    serve.add_argument(
        "--partition-seed",
        type=int,
        default=0,
        help="seed of the cluster partition map (must match across all "
        "workers of one cluster)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="cluster-wide admission bound at the front door; excess "
        "sessions get RETRY_AFTER (needs --workers)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="event-log threshold for the structured stderr log",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit the event log as JSON lines instead of human-readable text",
    )
    serve.add_argument(
        "--flight-dir",
        metavar="DIR",
        help="arm the flight recorder; dumps a replayable artifact to DIR "
        "on uplink ERR, SIGTERM, or crash-resume",
    )
    serve.add_argument(
        "--journal",
        metavar="FILE",
        help="write-ahead journal of admitted queries: every fresh "
        "admission is flushed to FILE before its ACK, and a daemon booting "
        "on an existing journal replays admitted-but-unsatisfied queries "
        "(crash-resume); with --workers the supervisor journals every "
        "worker automatically",
    )
    serve.add_argument(
        "--epoch",
        type=int,
        default=0,
        help="restart generation advertised in the cluster header; the "
        "supervisor bumps this on every respawn so reconnecting clients "
        "detect the restart and discard stale per-cycle state",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --workers: STATUS-round-trip heartbeat period for "
        "hung-worker detection; repeated misses escalate to SIGKILL and "
        "a supervised restart (default: exit-watch only)",
    )
    serve.set_defaults(func=cmd_serve)

    client = commands.add_parser(
        "client",
        help="submit one query to a running daemon",
        description="Connect to a broadcast daemon, submit one XPath query, "
        "tune into the downlink with the two-tier protocol and print the "
        "paper's access/tuning byte accounting for the live session.",
    )
    client.add_argument("query", help="XPath query, e.g. '/nitf//tobject'")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument(
        "--arrival",
        type=int,
        default=None,
        help="scripted arrival byte-time (replay); default: stamped on air",
    )
    client.add_argument(
        "--key", type=int, default=None, help="idempotent-uplink client key"
    )
    client.add_argument(
        "--shard",
        type=int,
        default=None,
        help="pin the session to this cluster shard (SHARD= on the wire)",
    )
    client.add_argument(
        "--resume",
        action="store_true",
        help="survive worker restarts: re-tune after a dropped downlink, "
        "detect the successor epoch and resubmit idempotently (picks a "
        "random --key if none is given)",
    )
    client.add_argument(
        "--trace",
        action="store_true",
        help="request an end-to-end wire trace (TRACE= token on SUBMIT) and "
        "print the per-query latency breakdown",
    )
    client.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the wire trace as a v3 JSONL trace file (implies --trace)",
    )
    client.add_argument("--json", action="store_true")
    client.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command.  A dependent flag given without its parent, or
    flags that build no valid configuration, end in ``parser.error``
    (exit 2, no traceback); errors of the run itself propagate."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for parent in DEPENDENT_FLAGS:
        if hasattr(args, parent) and not getattr(args, parent):
            for name in _given(args, parent):
                parser.error(f"--{name.replace('_', '-')} needs --{parent}")
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
