"""Microbenchmarks of the core operations (real timing rounds).

These are the per-cycle costs the broadcast server pays: resolving the
queries on the combined guide through the query NFA, building the CI, pruning it, packing
it and encoding it -- plus a client-side lookup.  Useful for regression
tracking; no paper figure corresponds to them.

Beyond the pytest-benchmark timing rounds, ``test_core_ops_ratchet``
gates the three rewritten hot kernels (NFA match, CI merge+prune, frame
encode) against the committed ``baselines/core_ops.json``.  Absolute
seconds do not transfer between machines, so each kernel's cost is
normalised by a fixed pure-Python calibration loop timed on the same
run: the committed numbers are dimensionless "kernel cost in
calibration units", which tracks interpreter/machine speed well enough
that a >``RATCHET_SLACK`` regression means the *code* got slower, not
the runner.  Regenerate the baseline (after an intentional perf
change) with ``REPRO_WRITE_BASELINE=1``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from conftest import RESULTS_DIR, bench_scale

from repro.broadcast.server import build_ci_from_store
from repro.filtering.nfa import resolve_on_guide
from repro.index.encoding import LabelTable, encode_index
from repro.index.packing import pack_index
from repro.index.pruning import prune_to_pci
from repro.net.wire import encode_cycle
from repro.sim.simulation import make_server

BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "core_ops.json"
#: A kernel may cost at most this multiple of its committed baseline
#: ratio before the ratchet fails (20% regression budget, wide enough
#: for calibration noise, tight enough to catch a real slowdown).
RATCHET_SLACK = 1.20
#: Best-of repeats for both the calibration loop and each kernel: min
#: over repeats discards scheduler noise, which only ever adds time.
REPEATS = 5


@pytest.fixture(scope="module")
def workload(context):
    return context.pending_index()


def test_resolve_on_guide(benchmark, context, workload):
    queries = workload.queries
    benchmark(lambda: resolve_on_guide(context.store.full_guide, queries))


def test_build_ci(benchmark, context, workload):
    requested = workload.requested
    benchmark(lambda: build_ci_from_store(context.store, requested))


def test_prune_to_pci(benchmark, workload):
    benchmark(lambda: prune_to_pci(workload.ci, workload.queries))


def test_pack_index(benchmark, workload):
    benchmark(lambda: pack_index(workload.pci, one_tier=False))


def test_encode_index(benchmark, workload):
    table = LabelTable.from_index(workload.pci)
    benchmark(lambda: encode_index(workload.pci, table, one_tier=False))


def test_client_lookup(benchmark, workload):
    query = workload.queries[0]
    benchmark(lambda: workload.pci.lookup(query))


# ----------------------------------------------------------------------
# Ratchet: the rewritten hot kernels vs the committed baseline
# ----------------------------------------------------------------------


def _spin() -> int:
    """Fixed pure-Python calibration workload: loop + integer arithmetic,
    the same work profile that dominates the interpreted kernels."""
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _hot_kernels(context, workload):
    """The three rewritten hot paths as closures over a shared workload."""
    queries, requested = workload.queries, workload.requested
    store = context.store
    server = make_server(context.base_config(), store)
    for query in queries[:8]:
        try:
            server.submit(query, arrival_time=0)
        except ValueError:
            continue
    cycle = server.build_cycle()
    assert cycle is not None
    encode_cycle(cycle, store)  # warm the serialized-document cache
    return {
        "nfa_match": lambda: resolve_on_guide(store.full_guide, queries),
        "ci_merge_prune": lambda: prune_to_pci(
            build_ci_from_store(store, requested), queries
        ),
        "frame_encode": lambda: encode_cycle(cycle, store),
    }


def test_core_ops_ratchet(context, workload):
    if bench_scale() != "bench":
        pytest.skip("baseline ratios are committed at the 'bench' scale")
    calibration = _best_of(_spin)
    ops = {}
    for name, kernel in _hot_kernels(context, workload).items():
        seconds = _best_of(kernel)
        ops[name] = {"sec": seconds, "ratio": seconds / calibration}

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"calibration_sec": calibration, "ops": ops}
    (RESULTS_DIR / "core_ops.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for name, data in sorted(ops.items()):
        print(
            f"{name}: {data['sec'] * 1e3:.2f} ms "
            f"= {data['ratio']:.2f} calibration units"
        )

    if os.environ.get("REPRO_WRITE_BASELINE") == "1":
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        baseline = {
            "ratios": {name: data["ratio"] for name, data in ops.items()}
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"baseline rewritten at {BASELINE_PATH}")

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))["ratios"]
    assert set(baseline) == set(ops), (
        "kernel set drifted from the baseline; regenerate it with "
        "REPRO_WRITE_BASELINE=1"
    )
    for name, data in sorted(ops.items()):
        ceiling = baseline[name] * RATCHET_SLACK
        assert data["ratio"] <= ceiling, (
            f"{name} costs {data['ratio']:.2f} calibration units, above "
            f"{ceiling:.2f} (= committed {baseline[name]:.2f} x "
            f"{RATCHET_SLACK}); if intentional, regenerate the baseline "
            "with REPRO_WRITE_BASELINE=1"
        )
