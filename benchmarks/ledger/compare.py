#!/usr/bin/env python3
"""Compare two ledger result sets: ``compare.py A.json B.json``.

A is the base (the parent commit), B the candidate; both are files
written by ``run.py`` (``--out``).  Per workload and end-to-end metric
it prints both medians, the ratio ``B / A`` (its base is A's median),
the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse``   -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- not worse by the medians, but the run-to-run spread
  (either side's min-max range, as a share of A's median) is wider than
  the bound and the sides' ranges overlap, so a regression of the
  bound's size could hide in it.  More ``--repeats`` resolve it;
* ``better``  -- B's median is better by more than the bound (and, when
  the spread is wider than the bound, every repeat of B reads better
  than every repeat of A);
* ``same``    -- everything else: the gap is within the bound and so is
  the spread.

Under each end-to-end row it lists the per-layer metrics declared to
move it on that workload (``catalog.MOVES``) whenever both sets were
traced.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional, Sequence, Tuple

import catalog

Entry = Dict[str, float]


def _load(path: str) -> Dict[Tuple[str, int], Dict]:
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    return {(r["workload"], r["trace"]): r for r in result["records"]}


def verdict(a: Entry, b: Entry, better: str, bound: float) -> str:
    """Classify one metric of one workload; see the module docstring."""
    base = abs(a["value"])
    if base == 0.0:
        return "same" if b["value"] == a["value"] else "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (b["value"] - a["value"]) / base  # positive = B better
    if gain < -bound:
        return "worse"
    if better == "lower":
        apart = b["max"] < a["min"]
    else:
        apart = b["min"] > a["max"]
    spread = max(a["max"] - a["min"], b["max"] - b["min"]) / base
    if spread > bound and not apart:
        return "unresolved"
    return "better" if gain > bound else "same"


def compare(
    a: Dict[Tuple[str, int], Dict], b: Dict[Tuple[str, int], Dict], spec: Dict
) -> int:
    """Print the table; returns how many verdicts were ``worse``."""
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        rec_a, rec_b = a.get((workload, 0)), b.get((workload, 0))
        if rec_a is None or rec_b is None:
            print(f"== {workload}: missing from one side, skipped")
            continue
        print(f"== {workload}")
        layer_a: Optional[Dict] = a.get((workload, 1), {}).get("metrics")
        layer_b: Optional[Dict] = b.get((workload, 1), {}).get("metrics")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ea, eb = rec_a["metrics"][name], rec_b["metrics"][name]
            word = verdict(ea, eb, metric["better"], bound)
            worse += word == "worse"
            ratio = eb["value"] / ea["value"] if ea["value"] else float("nan")
            print(
                f"  {name:<24} A {ea['value']:>12.6g}  B {eb['value']:>12.6g} "
                f"{metric['unit']:<5} B/A {ratio:6.3f}  bound {bound:<5g} "
                f"{metric['better']:<6} -> {word}"
            )
            if layer_a and layer_b:
                for layer in catalog.layers_moving(name, workload):
                    la, lb = layer_a[layer]["value"], layer_b[layer]["value"]
                    if la == lb:
                        continue
                    change = f"{(lb - la) / la:+.1%} of A" if la else "A was 0"
                    print(f"      {layer:<34} {la:>12.6g} -> {lb:<12.6g} {change}")
    return worse


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n")[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    worse = compare(_load(argv[0]), _load(argv[1]), catalog.load_spec())
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
