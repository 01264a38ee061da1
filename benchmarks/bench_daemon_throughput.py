"""Live daemon throughput: queries/sec and cycles/sec at fixed bandwidth.

The daemon's wire path adds real work on top of the simulator -- frame
encoding, CRC trailers, TCP fan-out, the asyncio scheduler -- so this
bench pins what a single daemon process sustains end to end: M
concurrent :class:`~repro.net.AsyncTwoTierClient` sessions submit,
tune, decode every cycle (signature-verified) and ack their deliveries,
all inside one event loop.

Three regimes are recorded:

* **unpaced** -- no token bucket: the number is pure protocol + codec
  throughput (queries/sec, cycles/sec, streamed MB/sec of wall time);
* **unpaced+telemetry** -- the same workload with the whole telemetry
  plane armed (live /metrics registry + exporter endpoint, debug-level
  event log, flight recorder, every client wire-tracing), which gates
  the telemetry overhead;
* **paced** -- ``bandwidth`` bytes/sec through the token bucket with the
  real monotonic clock: the stream must track the configured channel
  rate, which gates that pacing neither stalls (deadlock) nor runs away
  (no pacing at all).

Gates: every client satisfied with signature-verified cycles in every
regime; the paced run's effective on-air rate lands within 40% of the
configured bandwidth (debt-model slack on short runs); and telemetry-on
queries/sec stays within ``TELEMETRY_OVERHEAD_BUDGET`` of plain.  The
two unpaced variants run as interleaved pairs (after one discarded
warm-up), best against best, because shared-runner machine drift
between rounds dwarfs the overhead budget under test; pairing continues
-- ``MIN_PAIRS`` up to ``MAX_PAIRS`` -- until the ratio clears the
budget, so one noisy epoch cannot fail the gate while a genuine
regression still runs out of chances.
"""

from __future__ import annotations

import asyncio
import json
import time

from conftest import RESULTS_DIR

from repro.broadcast.server import DocumentStore
from repro.experiments.report import format_table
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.obs.telemetry import EventLog, FlightRecorder, TelemetryConfig
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation, build_collection

#: Sized so one unpaced run lasts ~2s: short runs (a few hundred ms) see
#: +-20% machine noise on shared runners, which would drown the
#: telemetry-overhead gate; at this scale per-run noise is a few percent.
CONFIG = small_setup(document_count=60, n_q=48, arrival_cycles=2)
#: On-air bytes/sec of the paced regime.  Far below what the unpaced
#: daemon sustains (~165 KB/sec measured locally at this client count,
#: >3x this rate), so the token bucket stays the binding constraint even
#: on a slower runner, the run lasts several seconds, and the
#: rate-tracking gate can tell paced from unpaced despite burst slack.
PACED_BANDWIDTH = 50_000.0
#: Interleaved unpaced pairs (plain, telemetry); each side keeps its
#: best queries/sec, so shared-machine drift cancels out of the ratio.
#: The loop stops early once the ratio clears the budget (healthy runs
#: usually need the minimum), and keeps pairing up to the cap when the
#: first pairs land in a noisy epoch.
MIN_PAIRS = 2
MAX_PAIRS = 6
#: The telemetry plane may cost at most this fraction of unpaced
#: queries/sec (telemetry >= (1 - budget) * plain).  The plane's cost
#: is *absolute* (per-frame counters, per-query traces, personalised
#: trailers), so when the hot-path rewrite cut the plain path ~9x the
#: same absolute cost became a much larger fraction -- the budget is
#: scaled to match, and the absolute floor below keeps the plane
#: honest: telemetry-on throughput must clear the same 5x speedup over
#: its own pre-rewrite figure.
TELEMETRY_OVERHEAD_BUDGET = 0.40
#: Queries/sec of the pre-rewrite daemon on this workload (the
#: committed ``results/daemon_throughput.json`` before the hot-path
#: rewrite).  The flattened kernels + share-once downlink must clear at
#: least 5x these figures.
BASELINE_UNPACED_QPS = 38.17
BASELINE_TELEMETRY_QPS = 39.06
SPEEDUP_FLOOR = 5.0


def _plans(documents):
    """A simulator arrival schedule, so the daemon serves the exact
    workload the model would."""
    sim = Simulation(CONFIG, documents=documents)
    sim.run()
    return [(s.plan.arrival_time, str(s.plan.query)) for s in sim.sessions]


async def _drive(store, plans, bandwidth, telemetry=None, trace=False):
    daemon = BroadcastDaemon(
        store,
        CONFIG,
        DaemonConfig(
            # port=0: always an OS-assigned ephemeral port, so parallel
            # CI jobs and local runs can never collide on a fixed one.
            port=0,
            autostart=False,
            bandwidth=bandwidth,
            telemetry=telemetry,
        ),
    )
    await daemon.start()
    assert daemon.port, "daemon must report its ephemeral bound port"
    clients = [
        AsyncTwoTierClient(
            query, port=daemon.port, arrival_time=arrival, trace=trace
        )
        for arrival, query in plans
    ]
    for client in clients:
        await client.connect()
        await client.tune()
    for client in clients:
        await client.submit()
    started = time.perf_counter()
    daemon.start_broadcast()
    reports = await asyncio.gather(*(c.run_session() for c in clients))
    elapsed = time.perf_counter() - started
    for client in clients:
        await client.close()
    daemon.request_stop()
    await daemon.wait_done()
    return reports, daemon, elapsed


def _full_telemetry() -> TelemetryConfig:
    """The whole plane armed: registry + HTTP exporter, debug events
    into the void, flight ring buffers filling."""
    return TelemetryConfig(
        metrics_port=0,
        events=EventLog(sink=None, level="debug"),
        flight=FlightRecorder(),
    )


def _unpaced_round(store, plans, with_telemetry):
    """One unpaced round; a fresh TelemetryConfig each time so ring
    buffers and registries never carry over between rounds."""
    telemetry = _full_telemetry() if with_telemetry else None
    run = asyncio.run(
        _drive(
            store,
            plans,
            bandwidth=None,
            telemetry=telemetry,
            trace=with_telemetry,
        )
    )
    return _regime_stats(*run)


def _measure():
    documents = build_collection(CONFIG)
    store = DocumentStore(documents, CONFIG.size_model)
    plans = _plans(documents)
    # Machine speed drifts by tens of percent across successive rounds
    # (shared-runner CPU scaling), far above the telemetry budget under
    # test.  Run the two variants as interleaved pairs -- after one
    # discarded warm-up -- so the drift lands on both sides alike, and
    # compare best against best.
    _unpaced_round(store, plans, with_telemetry=False)  # warm-up, discarded
    plain = None
    telemetry = None
    pairs = 0
    while pairs < MAX_PAIRS:
        for with_telemetry in (False, True):
            s = _unpaced_round(store, plans, with_telemetry)
            best = telemetry if with_telemetry else plain
            if best is None or s["queries_per_sec"] > best["queries_per_sec"]:
                if with_telemetry:
                    telemetry = s
                else:
                    plain = s
        pairs += 1
        ratio = (
            telemetry["queries_per_sec"] / plain["queries_per_sec"]
        )
        if pairs >= MIN_PAIRS and ratio >= 1 - TELEMETRY_OVERHEAD_BUDGET:
            break
    stats = {
        "unpaced": plain,
        "unpaced_telemetry": telemetry,
        "unpaced_pairs": pairs,
        "paced": _regime_stats(
            *asyncio.run(_drive(store, plans, bandwidth=PACED_BANDWIDTH))
        ),
    }
    return plans, stats


def _regime_stats(reports, daemon, elapsed):
    on_air = daemon.server.clock  # byte-time = total on-air bytes streamed
    return {
        "clients": len(reports),
        "satisfied": sum(1 for r in reports if r.satisfied),
        "cycles": daemon.stats.cycles_streamed,
        "frames": daemon.stats.frames_sent,
        "on_air_bytes": on_air,
        "streamed_bytes": daemon.stats.bytes_streamed,
        "elapsed_sec": elapsed,
        "queries_per_sec": len(reports) / elapsed,
        "cycles_per_sec": daemon.stats.cycles_streamed / elapsed,
        "on_air_bytes_per_sec": on_air / elapsed,
    }


def test_daemon_throughput(benchmark):
    plans, stats = benchmark.pedantic(_measure, rounds=1, iterations=1)
    overhead = 1.0 - (
        stats["unpaced_telemetry"]["queries_per_sec"]
        / stats["unpaced"]["queries_per_sec"]
    )
    stats["telemetry_overhead_fraction"] = overhead

    rows = []
    for regime in ("unpaced", "unpaced_telemetry", "paced"):
        s = stats[regime]
        rows += [
            (f"{regime}: queries/sec", s["queries_per_sec"]),
            (f"{regime}: cycles/sec", s["cycles_per_sec"]),
            (f"{regime}: on-air MB/sec", s["on_air_bytes_per_sec"] / 1e6),
            (f"{regime}: cycles streamed", s["cycles"]),
        ]
    rows.append(("telemetry overhead (qps)", f"{overhead:+.1%}"))
    text = format_table(
        "Live daemon throughput (in-process TCP, signature-verified clients)",
        ("metric", "value"),
        rows,
        note=(
            f"{CONFIG.document_count} docs, {len(plans)} scripted clients, "
            f"capacity {CONFIG.cycle_data_capacity} B; paced regime at "
            f"{PACED_BANDWIDTH / 1e3:.0f} KB/sec on-air; unpaced rows are "
            f"best of {stats['unpaced_pairs']} interleaved pairs; telemetry "
            "= exporter + debug events + flight recorder + traced clients"
        ),
    )
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "daemon_throughput.txt").write_text(text + "\n", encoding="utf-8")
    (RESULTS_DIR / "daemon_throughput.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # Gates: full satisfaction in every regime ...
    for regime in ("unpaced", "unpaced_telemetry", "paced"):
        s = stats[regime]
        assert s["satisfied"] == s["clients"], f"{regime}: unsatisfied clients"
        assert s["cycles"] >= 1
    # ... the telemetry plane must stay within its overhead budget ...
    assert overhead <= TELEMETRY_OVERHEAD_BUDGET, (
        f"telemetry costs {overhead:.1%} of unpaced queries/sec "
        f"(budget {TELEMETRY_OVERHEAD_BUDGET:.0%})"
    )
    # ... unpaced must outrun the paced channel rate (else pacing is free,
    # i.e. the daemon itself is the bottleneck at this bandwidth) ...
    assert stats["unpaced"]["on_air_bytes_per_sec"] > PACED_BANDWIDTH
    # ... the hot-path rewrite must hold: flattened NFA/CI kernels plus
    # the share-once downlink sustain at least 5x the pre-rewrite
    # daemon's queries/sec on this same workload ...
    assert (
        stats["unpaced"]["queries_per_sec"]
        >= SPEEDUP_FLOOR * BASELINE_UNPACED_QPS
    ), (
        f"unpaced {stats['unpaced']['queries_per_sec']:.1f} q/s is below "
        f"{SPEEDUP_FLOOR:.0f}x the {BASELINE_UNPACED_QPS} q/s baseline"
    )
    # ... with the full telemetry plane armed the same floor holds
    # against the telemetry regime's own pre-rewrite figure, so the
    # relaxed relative budget above cannot hide an absolute regression
    # in the plane itself ...
    assert (
        stats["unpaced_telemetry"]["queries_per_sec"]
        >= SPEEDUP_FLOOR * BASELINE_TELEMETRY_QPS
    ), (
        f"telemetry-on {stats['unpaced_telemetry']['queries_per_sec']:.1f} "
        f"q/s is below {SPEEDUP_FLOOR:.0f}x the {BASELINE_TELEMETRY_QPS} "
        "q/s baseline"
    )
    # ... and the paced stream tracks the configured bandwidth: no stall,
    # no runaway.  The token bucket starts empty (no free initial burst),
    # so the bound covers cycle 1 as tightly as the rest of the run: the
    # long-run rate can only undershoot the configured bandwidth (build
    # time between cycles), never materially overshoot it.
    paced_rate = stats["paced"]["on_air_bytes_per_sec"]
    assert 0.6 * PACED_BANDWIDTH <= paced_rate <= 1.05 * PACED_BANDWIDTH, (
        f"paced on-air rate {paced_rate:,.0f} B/s vs configured "
        f"{PACED_BANDWIDTH:,.0f} B/s"
    )
