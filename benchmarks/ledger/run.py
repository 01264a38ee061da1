#!/usr/bin/env python3
"""The perf ledger: one command, six workloads, every metric by name.

    python3 benchmarks/ledger/run.py                  # all six, 3 repeats
    python3 benchmarks/ledger/run.py --trace          # ... plus per-layer
    python3 benchmarks/ledger/run.py --workload sim_static --seed 5 \
        --seconds 10 --trace 0                        # one workload

With ``--workload`` the process *is* the measurement (fresh interpreter,
one thread) and its last stdout line is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  Without it, every workload runs
in a child of that form and the records are gathered into one result
file (``--out``), optionally appended to a history (``--history``).

See README.md in this directory for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 23


def _fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"ledger: {message}", file=sys.stderr)
    raise SystemExit(code)


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.analysis.model import validate_against_simulation  # noqa: E402

import catalog  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Round, mean, ratio  # noqa: E402

#: a traced live round lasts this share of --seconds: per-layer numbers
#: carry no bound, and the traced invocation also pays for an untraced
#: reference round of the same length
TRACE_SHARE = 0.5
#: warm-up size relative to a timed run (lazy NFA compile, cold caches)
WARMUP_SHARE = 0.1


# ----------------------------------------------------------------------
# Small numerics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percent(count: int) -> float:
    """The highest percentile up to 95 with ten samples beyond it.

    200 samples support p95; 40 support p75; below 20 nothing beyond the
    median is supported, so the "tail" reads as the median.
    """
    return max(50.0, min(95.0, 100.0 * (1.0 - 10.0 / count))) if count else 50.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spin() -> int:
    """The calibration loop of ``benchmarks/bench_core_ops.py``: fixed
    pure-Python integer work, so records from different machines (or a
    noisy hour on one machine) can be told apart."""
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def calibrate() -> float:
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        _spin()
        samples.append(time.perf_counter() - start)
    return _median(samples)


# ----------------------------------------------------------------------
# One timed run = the rounds that fit in --seconds
# ----------------------------------------------------------------------


def timed_run(name: str, seed: int, scale: wl.Scale, seconds: float) -> List[Round]:
    plan = wl.round_plan(name, scale, seconds)
    if plan:
        return [wl.run_round(name, seed, scale, span) for span in plan]
    # Simulator: fixed-size batches, repeated until the time is spent
    # (at least two, so there is a median to take).
    rounds: List[Round] = []
    spent = 0.0
    while True:
        rounds.append(wl.run_round(name, seed, scale, seconds))
        spent += rounds[-1].wall_s
        if len(rounds) >= 2 and spent + 0.5 * rounds[-1].wall_s >= seconds:
            return rounds


def warm_up(name: str, seed: int, scale: wl.Scale, seconds: float) -> None:
    """One discarded round at a tenth of the size."""
    if wl.is_sim(name):
        small = dataclasses.replace(
            scale,
            sim_arrival_cycles=max(1, round(scale.sim_arrival_cycles * WARMUP_SHARE)),
        )
        wl.run_round(name, seed, small, seconds)
    else:
        wl.run_round(name, seed, scale, max(0.2, seconds * WARMUP_SHARE))


def best_round(rounds: Sequence[Round]) -> Round:
    """The least disturbed timed round of a run: the one that served
    the most queries per second.

    The build box flips between two speed states a third apart and
    stays in one for 10-40 s (README "Measured noise"), so the median of
    a run's rounds just reports which state the run landed in.
    Interference only ever slows a round; the fastest one is the closest
    a 10 s run gets to the machine's own speed (6.6 % spread between
    runs against 10.2 % for the median, same 5-minute probe).
    """
    return max(
        (r for r in rounds if r.timed), key=lambda r: ratio(r.satisfied, r.wall_s)
    )


def end_to_end(name: str, rounds: Sequence[Round]) -> Dict[str, float]:
    """The eleven end-to-end values of one timed run."""
    timed = [r for r in rounds if r.timed]
    best = best_round(rounds)
    if wl.is_sim(name):
        # A batch has no per-query wall clock: the delay a simulator
        # user sees is one whole run, so that is the one latency sample.
        latency = [best.wall_s * 1e3]
    else:
        latency = best.latency_ms
    return {
        "setup_s": _median([r.setup_s for r in rounds]),
        "queries_per_s": ratio(best.satisfied, best.wall_s),
        "cpu_ms_per_query": ratio(best.cpu_s * 1e3, best.satisfied),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p95_ms": percentile(latency, tail_percent(len(latency))),
        "satisfied_ratio": ratio(
            sum(r.satisfied for r in timed), sum(r.attempted for r in timed)
        ),
        "access_bytes_mean": mean(best.access_bytes),
        "tuning_bytes_mean": mean(best.tuning_bytes),
        "index_lookup_bytes_mean": mean(best.lookup_bytes),
        "air_bytes_per_query": ratio(best.air_bytes, best.satisfied),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------


def load_expected() -> Dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def pinned_values(round_: Round) -> Dict[str, Any]:
    """What ``expected.json`` pins for a simulator round."""
    return {
        "access_bytes_mean": mean(round_.access_bytes),
        "tuning_bytes_mean": mean(round_.tuning_bytes),
        "index_lookup_bytes_mean": mean(round_.lookup_bytes),
        "air_bytes_per_query": ratio(round_.air_bytes, round_.satisfied),
        "signature_sha256": round_.signature_sha,
    }


def gate(name: str, seed: int, scale_name: str, rounds: Sequence[Round]) -> List[str]:
    """Every reason this run's outputs are not correct."""
    problems = [p for r in rounds for p in r.problems]
    timed = [r for r in rounds if r.timed]
    if not timed:
        problems.append("no timed round ran")
    if wl.is_sim(name):
        values = [pinned_values(r) for r in timed]
        if any(v != values[0] for v in values[1:]):
            problems.append("simulator rounds of one seed disagree (nondeterminism)")
        if seed == DEFAULT_SEED and values:
            want = load_expected().get(name, {}).get(scale_name)
            if want is None:
                problems.append(f"expected.json pins nothing for {name}/{scale_name}")
            elif want != values[0]:
                diff = sorted(k for k in want if want[k] != values[0].get(k))
                problems.append(f"differs from expected.json on {', '.join(diff)}")
    return problems


# ----------------------------------------------------------------------
# Per-layer metrics of a traced round
# ----------------------------------------------------------------------


def reconcile(traced: Round, summary: layers.TraceSummary) -> Dict[str, float]:
    """Where the traced region's wall clock went.

    One thread: wall = layer self times + root self, and root self =
    idle (wall - cpu: awaiting the channel, or descheduled by the host)
    + CPU no probe covered.  That last part is the to-do list of a later
    in-program tracing change.
    """
    attributed = sum(summary.layer_self().values())
    idle = max(0.0, traced.wall_s - traced.cpu_s)
    return {
        "wall_s": traced.wall_s,
        "cpu_s": traced.cpu_s,
        "layers_s": attributed,
        "idle_s": idle,
        "unattributed_s": max(0.0, traced.wall_s - attributed - idle),
    }


def per_layer(
    name: str,
    traced: Round,
    summary: layers.TraceSummary,
    reference: Round,
    plain: Optional[Round],
    calibration_s: float,
    scale: wl.Scale,
) -> Dict[str, float]:
    """Every per-layer metric; the ones a workload has no use for read 0."""
    out: Dict[str, float] = {metric: 0.0 for metric in catalog.MOVES}
    out.update(traced.setup_parts)
    out.update(traced.counts)

    busy, calls = summary.busy, summary.calls
    for layer, seconds in summary.layer_self().items():
        out[f"{layer}.self_s"] = seconds
    out["xpath.parse_us_per_query"] = ratio(
        busy("xpath.parse_query") * 1e6, calls("xpath.parse_query")
    )
    resolved_strings = summary.edges.get(
        ("filtering.resolve", "filtering.nfa_add_query"), 0
    )
    out["filtering.resolve_busy_s"] = busy("filtering.resolve")
    out["filtering.resolve_calls"] = calls("filtering.resolve")
    out["filtering.resolve_reuse_ratio"] = ratio(traced.attempted, resolved_strings)
    out["filtering.dfa_compile_busy_s"] = busy("filtering.dfa_compile")
    out["dataguide.ci_build_busy_s"] = busy("dataguide.ci_build")
    out["index.prune_busy_s"] = busy("index.prune")
    out["index.pack_busy_s"] = busy("index.pack")
    out["index.split_busy_s"] = busy("index.split")
    out["index.lookup_busy_s"] = busy("index.lookup")
    out["index.lookup_calls"] = calls("index.lookup")
    builds = [d * 1e3 for d in summary.durations.get("broadcast.build_cycle", [])]
    out["broadcast.build_cycle_ms_p50"] = percentile(builds, 50)
    out["broadcast.build_cycle_ms_p95"] = percentile(builds, 95)
    out["broadcast.build_cycle_busy_s"] = busy("broadcast.build_cycle")
    out["broadcast.submit_busy_s"] = busy("broadcast.submit")
    out["broadcast.schedule_busy_s"] = busy("broadcast.schedule")
    out["broadcast.cache_invalidations"] = calls("broadcast.cache_invalidate")
    out["client.on_cycle_busy_s"] = busy("client.on_cycle")
    out["client.on_cycle_calls"] = calls("client.on_cycle")
    out["client.cycles_listened_mean"] = mean(traced.cycles_listened)
    out["net.encode_cycle_busy_s"] = busy("net.encode_cycle")
    out["net.encode_frame_busy_s"] = busy("net.encode_frame")
    out["net.decode_cycle_busy_s"] = busy("net.decode_feed")
    out["net.decode_calls"] = calls("net.decode_feed")
    for metric, span in (
        ("net.connect_ms_p50", "net.connect"),
        ("net.tune_rtt_ms_p50", "net.tune"),
        ("net.submit_rtt_ms_p50", "net.submit"),
    ):
        out[metric] = percentile(summary.wait_durations.get(span, []), 50) * 1e3
    out["net.pacing_idle_s"] = max(0.0, traced.wall_s - traced.cpu_s)
    out["net.generator_late_ms_p95"] = percentile(traced.late_ms, 95)
    if traced.result is not None and name == "sim_static":
        model = validate_against_simulation(traced.result, scale.sim_capacity)
        out["analysis.model_two_tier_error"] = model.two_tier_error
        out["analysis.model_cycles_error"] = model.cycles_error

    out["harness.unattributed_ratio"] = ratio(
        reconcile(traced, summary)["unattributed_s"], traced.cpu_s
    )
    out["harness.trace_overhead_ratio"] = ratio(
        ratio(traced.cpu_s, traced.satisfied),
        ratio(reference.cpu_s, reference.satisfied),
    )
    out["harness.calibration_s"] = calibration_s
    if plain is not None:
        # live_closed_obs only: the same load without the telemetry plane
        out["obs.overhead_ratio"] = 1.0 - ratio(
            ratio(reference.satisfied, reference.wall_s),
            ratio(plain.satisfied, plain.wall_s),
        )
    return out


# ----------------------------------------------------------------------
# The measuring process (--workload)
# ----------------------------------------------------------------------


def machine_meta(args: argparse.Namespace, spec: Dict) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a source export, not a clone
    scale = wl.SCALES[args.scale]
    config = json.dumps(
        [dataclasses.asdict(scale), args.seconds, args.repeats, spec], sort_keys=True
    )
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "scale": args.scale,
        "config_sha256": hashlib.sha256(config.encode("utf-8")).hexdigest(),
        "network": "loopback",
        "unix_time": time.time(),
    }


def measure(args: argparse.Namespace, spec: Dict) -> Dict[str, Any]:
    """Run one workload in this process; returns its record."""
    name, seed = args.workload, args.seed
    scale = wl.SCALES[args.scale]
    calibration_s = calibrate()
    warm_up(name, seed, scale, args.seconds)

    problems: List[str] = []
    attempted = satisfied = 0
    samples: Dict[str, List[float]] = {}
    detail: Dict[str, Any] = {}

    if not args.trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for _ in range(args.repeats):
            rounds = timed_run(name, seed, scale, args.seconds)
            problems += gate(name, seed, args.scale, rounds)
            attempted += sum(r.attempted for r in rounds)
            satisfied += sum(r.satisfied for r in rounds)
            for metric, value in end_to_end(name, rounds).items():
                samples.setdefault(metric, []).append(value)
        detail["rounds_per_run"] = len(rounds)
        if wl.is_sim(name):
            # what expected.json pins (copy from here to re-pin on purpose)
            detail["pinned"] = pinned_values(rounds[-1])
        detail["round_queries_per_s"] = [
            round(ratio(r.satisfied, r.wall_s), 2) for r in rounds if r.timed
        ]
        detail["latency_samples"] = (
            1 if wl.is_sim(name) else len(best_round(rounds).latency_ms)
        )
        detail["latency_tail_percentile"] = tail_percent(detail["latency_samples"])
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        span = args.seconds * TRACE_SHARE
        plain = (
            wl.run_round("live_closed", seed, scale, span)
            if name == "live_closed_obs"
            else None
        )
        reference = wl.run_round(name, seed, scale, span)
        tracer = layers.Tracer()
        uninstall = layers.install(tracer)
        try:
            traced = wl.run_round(name, seed, scale, span, tracer)
        finally:
            uninstall()
        rounds = [reference, traced] + ([plain] if plain is not None else [])
        problems += [p for r in rounds for p in r.problems]
        summary = tracer.summary()
        missing = sorted(layers.EXPECTED[name] - summary.fired())
        if missing:
            problems.append(f"probes never fired: {', '.join(missing)}")
        attempted = sum(r.attempted for r in rounds)
        satisfied = sum(r.satisfied for r in rounds)
        for metric, value in per_layer(
            name, traced, summary, reference, plain, calibration_s, scale
        ).items():
            samples[metric] = [value]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}.jsonl"
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["trace_spans"] = tracer.write(trace_path)
        detail["reconcile"] = reconcile(traced, summary)
        detail["layer_self_s"] = summary.layer_self()

    if set(samples) != set(units):
        _fail(
            "harness and BENCHMARK.json disagree on metric names: "
            f"{sorted(set(samples) ^ set(units))}",
            code=3,
        )
    failed = attempted - satisfied
    if failed:
        problems.append(f"{failed} of {attempted} sessions failed")
    return {
        "workload": name,
        "trace": int(bool(args.trace)),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "metrics": {
            metric: {
                "value": _median(values),
                "min": min(values),
                "max": max(values),
                "unit": units[metric],
            }
            for metric, values in sorted(samples.items())
        },
        "detail": detail,
        "meta": machine_meta(args, spec),
    }


def print_record(record: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}: {kind}, seed {record['meta']['seed']}, "
          f"{record['meta']['repeats']} x {record['meta']['seconds']} s ==")
    for metric, entry in record["metrics"].items():
        spread = (
            f"   [{entry['min']:.6g} .. {entry['max']:.6g}]"
            if entry["min"] != entry["max"]
            else ""
        )
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}{spread}")
    for key, value in record["detail"].items():
        if key not in ("reconcile", "layer_self_s"):
            print(f"  ({key}: {value})")
    reconcile = record["detail"].get("reconcile")
    if reconcile:
        print(
            "  reconcile: wall {wall_s:.3f} s = layers {layers_s:.3f} + "
            "unattributed {unattributed_s:.3f} + idle {idle_s:.3f}; "
            "cpu {cpu_s:.3f} s".format(**reconcile)
        )
    for problem in record["problems"]:
        print(f"  INCORRECT: {problem}")
    print(f"  correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")


def driver_line(record: Dict[str, Any]) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in record["metrics"].items()
            },
        }
    )


# ----------------------------------------------------------------------
# The gathering process (no --workload)
# ----------------------------------------------------------------------


def gather(args: argparse.Namespace) -> Dict[str, Any]:
    """Run every workload in a fresh child; returns the result set."""
    OUT_DIR.mkdir(exist_ok=True)
    records: List[Dict[str, Any]] = []
    for name in wl.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            record_path = OUT_DIR / f"record-{name}-{trace}.json"
            record_path.unlink(missing_ok=True)
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--repeats", str(args.repeats), "--scale", args.scale,
                "--record", str(record_path), "--quiet",
            ]
            child = subprocess.run(command, cwd=ROOT)
            if not record_path.is_file():
                _fail(f"{name} (trace {trace}) exited {child.returncode} "
                      "without a record", code=1)
            with open(record_path, encoding="utf-8") as handle:
                record = json.load(handle)
            record_path.unlink()
            print_record(record)
            records.append(record)
    return {
        "meta": records[0]["meta"],
        "correct": all(record["correct"] for record in records),
        "records": records,
    }


def parse_args(argv: Optional[Sequence[str]], spec: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of one timed run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a traced run")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per workload (median, min, max); "
                             "default 3, or 1 with --workload")
    parser.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    parser.add_argument("--out", type=pathlib.Path,
                        default=OUT_DIR / "latest.json",
                        help="where the gathered result set is written")
    parser.add_argument("--history", type=pathlib.Path,
                        help="append the result as one JSON line")
    parser.add_argument("--record", type=pathlib.Path, help=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats is None:
        args.repeats = 1 if args.workload else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = catalog.load_spec()
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {catalog.SPEC_PATH}: {exc}")
    args = parse_args(argv, spec)

    if args.workload:
        record = measure(args, spec)
        if args.record:
            args.record.write_text(json.dumps(record) + "\n", encoding="utf-8")
        if not args.quiet:
            print_record(record)
        result: Dict[str, Any] = record
        last_line = driver_line(record)
    else:
        result = gather(args)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        last_line = f"wrote {args.out}; correct={result['correct']}"
    if args.history:
        with open(args.history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
    print(last_line, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
