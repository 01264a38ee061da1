#!/usr/bin/env python3
"""Check the ledger against itself: ``python3 benchmarks/ledger/selfcheck.py``.

1. ``BENCHMARK.json`` is inside the benchmark contract's limits: six
   workloads, eleven end-to-end metrics (one of them ``setup_s``), at
   most 128 per-layer metrics, every name ``[A-Za-z0-9_.-]+`` and used
   once, every bound at most 0.25.
2. The files agree on names, both directions: the spec's workloads are
   the harness's, its per-layer metrics are ``catalog.MOVES``'s, every
   ``MOVES`` target is a declared end-to-end metric on a declared
   workload, every probe belongs to a known layer.
3. ``--scale smoke``: all six workloads, untraced and traced, tiny
   inputs, correctness gate on, timings not judged -- so the harness
   itself can be exercised in seconds.  The measuring code refuses to
   report when the names it emits differ from the spec's, which is the
   harness half of check 2.

Exits non-zero on the first family of failures, listing each.
"""

from __future__ import annotations

import re
import sys
import time
from typing import Dict, List

import run  # also puts src/ on the path
import catalog
import layers
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = 0.6
SMOKE_BUDGET_S = 20.0


def check_spec(spec: Dict) -> List[str]:
    problems: List[str] = []
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if len(workloads) != 6:
        problems.append(f"{len(workloads)} workloads, want 6")
    if len(end_to_end) != 11:
        problems.append(f"{len(end_to_end)} end-to-end metrics, want 11")
    if not 1 <= len(per_layer) <= 128:
        problems.append(f"{len(per_layer)} per-layer metrics, want 1..128")
    names = workloads + end_to_end + per_layer
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r} on {metric['name']}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"bad direction on {metric['name']}")
    for metric in spec["end_to_end"]:
        if not 0 <= metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside [0, 0.25]")
    setup = catalog.declared(spec, "end_to_end").get("setup_s")
    if setup is None or (setup["unit"], setup["better"]) != ("s", "lower"):
        problems.append("setup_s (unit s, lower is better) is required")
    for workload in spec["workloads"]:
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"why of {workload['name']} is not one short line")
    return problems


def check_names(spec: Dict) -> List[str]:
    problems: List[str] = []
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = set(catalog.declared(spec, "end_to_end"))
    per_layer = set(catalog.declared(spec, "per_layer"))
    if workloads != list(wl.WORKLOADS):
        problems.append(f"spec workloads {workloads} != harness {list(wl.WORKLOADS)}")
    for name in sorted(per_layer ^ set(catalog.MOVES)):
        where = "BENCHMARK.json" if name in per_layer else "catalog.MOVES"
        problems.append(f"per-layer metric {name} is only in {where}")
    for name, (metrics, on) in catalog.MOVES.items():
        problems += [f"{name} moves unknown metric {m}" for m in metrics if m not in end_to_end]
        problems += [f"{name} names unknown workload {w}" for w in on if w not in workloads]
        if name.split(".")[0] not in layers.LAYERS + ("faults", "analysis", "harness"):
            problems.append(f"{name} belongs to no layer")
    if set(layers.EXPECTED) != set(workloads):
        problems.append("layers.EXPECTED does not cover exactly the six workloads")
    spans = {probe.span for probe in layers.PROBES}
    for probe in layers.PROBES:
        if probe.span.split(".")[0] not in layers.LAYERS:
            problems.append(f"probe {probe.span} belongs to no layer")
    for workload, expected in layers.EXPECTED.items():
        problems += [f"{workload} expects unprobed span {s}" for s in expected - spans]
    return problems


def smoke(spec: Dict) -> List[str]:
    problems: List[str] = []
    started = time.perf_counter()
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            args = run.parse_args(
                ["--workload", name, "--scale", "smoke", "--trace", str(trace),
                 "--seconds", str(SMOKE_SECONDS)],
                spec,
            )
            record = run.measure(args, spec)
            problems += [f"{name} trace={trace}: {p}" for p in record["problems"]]
            print(f"  smoke {name:<16} trace={trace} attempted={record['attempted']:<4} "
                  f"correct={record['correct']}")
    elapsed = time.perf_counter() - started
    print(f"  smoke pass took {elapsed:.1f} s")
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke pass took {elapsed:.1f} s, budget {SMOKE_BUDGET_S:.0f} s")
    return problems


def main() -> int:
    spec = catalog.load_spec()
    for title, check in (
        ("BENCHMARK.json limits", check_spec),
        ("names agree", check_names),
        ("smoke pass", smoke),
    ):
        print(f"{title}:")
        problems = check(spec)
        for problem in problems:
            print(f"  FAIL {problem}")
        if problems:
            return 1
        print("  ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
