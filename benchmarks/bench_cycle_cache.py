"""Cycle-build cache benchmark: cached vs ``enable_caches=False`` servers.

Two scenarios drive identical submissions through a cached and an
uncached :class:`~repro.broadcast.server.BroadcastServer`:

* **steady state** -- a small pool of overlapping query strings keeps
  arriving every cycle, so the requested-document and query-string sets
  stabilise and the CI/DFA/PCI layers hit outright.  This is the
  acceptance scenario: the ``server.ci_build`` + ``server.prune_to_pci``
  span totals must drop by at least 2x.
* **drain** -- one burst of queries drained over many small cycles, the
  cache's worst case (the requested set shrinks every cycle, forcing
  incremental CI maintenance and a fresh prune per cycle).

Both scenarios hard-fail if any cycle's :func:`program_signature`
diverges between the two servers -- caching must never change a single
broadcast byte.  This is the CI smoke job's failure condition.
"""

from __future__ import annotations

import random

from repro import obs
from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.experiments.runner import FigureResult
from repro.xpath.generator import QueryGenerator, QueryWorkloadConfig

STEADY_CYCLES = 40
STEADY_POOL = 30
STEADY_PER_CYCLE = 12
CAPACITY = 6_000


def _span_seconds(totals, name):
    return totals.get(name, (0, 0.0))[1]


def _steady_state(documents, pool, enable_caches):
    """Continuous overlapping arrivals; returns (signatures, span totals)."""
    rng = random.Random(42)
    server = BroadcastServer(
        DocumentStore(documents),
        cycle_data_capacity=CAPACITY,
        enable_caches=enable_caches,
    )
    signatures = []
    with obs.observed() as registry:
        for _ in range(STEADY_CYCLES):
            batch = [pool[rng.randrange(len(pool))] for _ in range(STEADY_PER_CYCLE)]
            admissible = [q for q in batch if server.resolve(q)]
            server.submit_batch(admissible, server.clock)
            cycle = server.build_cycle()
            assert cycle is not None
            signatures.append(program_signature(cycle))
        totals = registry.span_totals("server.")
    return signatures, totals, server


def _drain(documents, queries, enable_caches):
    """One submission burst drained to empty over small cycles."""
    server = BroadcastServer(
        DocumentStore(documents),
        cycle_data_capacity=CAPACITY,
        enable_caches=enable_caches,
    )
    with obs.observed() as registry:
        for query in queries:
            try:
                server.submit(query, 0)
            except ValueError:
                continue
        signatures = []
        guard = 0
        while server.pending:
            signatures.append(program_signature(server.build_cycle()))
            guard += 1
            assert guard < 2_000
        totals = registry.span_totals("server.")
    return signatures, totals, server


def test_cycle_cache_steady_state_speedup(context, record_figure):
    pool = QueryGenerator(
        context.documents, QueryWorkloadConfig(seed=303)
    ).generate_many(STEADY_POOL)

    cached_sigs, cached, server = _steady_state(context.documents, pool, True)
    plain_sigs, plain, _ = _steady_state(context.documents, pool, False)

    # Failure condition: caching must not change a single broadcast byte.
    assert cached_sigs == plain_sigs, "cached cycle programs diverge from enable_caches=False"
    assert len(cached_sigs) >= 20

    rows = []
    for name in ("server.ci_build", "server.prune_to_pci", "server.scheduling"):
        cached_s = _span_seconds(cached, name)
        plain_s = _span_seconds(plain, name)
        rows.append(
            (name, round(plain_s, 4), round(cached_s, 4),
             round(plain_s / cached_s, 1) if cached_s else float("inf"))
        )
    combined_cached = _span_seconds(cached, "server.ci_build") + _span_seconds(
        cached, "server.prune_to_pci"
    )
    combined_plain = _span_seconds(plain, "server.ci_build") + _span_seconds(
        plain, "server.prune_to_pci"
    )
    speedup = combined_plain / combined_cached if combined_cached else float("inf")
    rows.append(
        ("ci_build + prune_to_pci", round(combined_plain, 4),
         round(combined_cached, 4), round(speedup, 1))
    )
    stats = server.cache.stats
    record_figure(
        FigureResult(
            figure_id="cache-steady",
            title=f"cycle-build caches, steady state ({len(cached_sigs)} cycles)",
            axis="server phase",
            headers=("span", "no-cache s", "cached s", "speedup"),
            rows=rows,
            note=f"byte-identical programs; cache stats: {stats}",
        )
    )
    # Acceptance: >= 2x on the indexing phases at steady state.
    assert speedup >= 2.0, f"steady-state speedup {speedup:.2f}x below 2x"
    assert stats["ci_hits"] + stats["ci_incremental"] > 0
    assert stats["pci_hits"] > 0


def test_cycle_cache_drain_equivalence(context, record_figure):
    queries = QueryGenerator(
        context.documents, QueryWorkloadConfig(seed=404)
    ).generate_many(context.scale.n_q_default)

    cached_sigs, cached, server = _drain(context.documents, queries, True)
    plain_sigs, plain, _ = _drain(context.documents, queries, False)

    assert cached_sigs == plain_sigs, "cached cycle programs diverge from enable_caches=False"
    assert len(cached_sigs) >= 20

    rows = []
    for name in ("server.ci_build", "server.prune_to_pci", "server.scheduling"):
        cached_s = _span_seconds(cached, name)
        plain_s = _span_seconds(plain, name)
        rows.append(
            (name, round(plain_s, 4), round(cached_s, 4),
             round(plain_s / cached_s, 1) if cached_s else float("inf"))
        )
    record_figure(
        FigureResult(
            figure_id="cache-drain",
            title=f"cycle-build caches, drain worst case ({len(cached_sigs)} cycles)",
            axis="server phase",
            headers=("span", "no-cache s", "cached s", "speedup"),
            rows=rows,
            note="requested set shrinks every cycle: incremental CI + DFA reuse "
            f"only; cache stats: {server.cache.stats}",
        )
    )
    # Worst case must still never lose: the delta path beats re-merging.
    assert _span_seconds(cached, "server.ci_build") <= _span_seconds(
        plain, "server.ci_build"
    )
    assert server.cache.stats["ci_incremental"] > 0
    assert server.cache.stats["dfa_hits"] > 0
