"""The metric catalogue: what ``BENCHMARK.json`` declares, and which
end-to-end metric each per-layer metric is expected to move.

``BENCHMARK.json`` (repo root) is the source of truth for names, units,
directions and regression bounds; this module only reads it.  ``MOVES``
is the interaction model written down *before* measuring (README "How
the metrics interact"): ``compare.py`` lists each per-layer delta under
the end-to-end metrics named here, and ``selfcheck.py`` fails when the
two files name different per-layer metrics.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

_SIM = ("sim_static", "sim_churn")
_LIVE = ("live_paced", "live_closed", "live_closed_obs", "cluster_paced")
_PACED = ("live_paced", "cluster_paced")
_CLOSED = ("live_closed", "live_closed_obs")
_ALL = _SIM + _LIVE

_BYTES = ("access_bytes_mean", "tuning_bytes_mean", "index_lookup_bytes_mean",
          "air_bytes_per_query")

#: per-layer metric -> (end-to-end metrics it should move, on which
#: workloads).  An empty tuple of metrics marks a validity check: it
#: moves nothing, it says whether the other rows can be trusted.
MOVES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "xmlkit.generate_s": (("setup_s",), _ALL),
    "xmlkit.collection_bytes": (("setup_s", "peak_rss_mb"), _ALL),
    "xmlkit.self_s": (("queries_per_s",), ("sim_churn",)),
    "xpath.generate_s": (("setup_s", "queries_per_s"), _ALL),
    "xpath.parse_us_per_query": (("cpu_ms_per_query",), _LIVE),
    "xpath.self_s": (("cpu_ms_per_query",), _ALL),
    "filtering.resolve_busy_s": (("queries_per_s", "cpu_ms_per_query"), ("sim_churn",) + _CLOSED),
    "filtering.resolve_calls": (("queries_per_s",), ("sim_churn",)),
    "filtering.resolve_reuse_ratio": (("queries_per_s",), ("sim_churn",)),
    "filtering.dfa_compile_busy_s": (("queries_per_s",), _SIM + _CLOSED),
    "filtering.self_s": (("queries_per_s", "cpu_ms_per_query"), _ALL),
    "dataguide.store_build_s": (("setup_s",), _LIVE),
    "dataguide.ci_build_busy_s": (("queries_per_s",), ("sim_churn",)),
    "dataguide.ci_full_merges": (("queries_per_s",), ("sim_churn",)),
    "dataguide.ci_incremental": (("queries_per_s",), ("sim_static",)),
    "dataguide.self_s": (("queries_per_s", "cpu_ms_per_query"), _ALL),
    "index.prune_busy_s": (("queries_per_s", "cpu_ms_per_query"), ("sim_static",) + _CLOSED),
    "index.pack_busy_s": (("queries_per_s", "cpu_ms_per_query"), ("sim_static",) + _CLOSED),
    "index.split_busy_s": (("queries_per_s", "cpu_ms_per_query"), ("sim_static",) + _CLOSED),
    "index.lookup_busy_s": (("queries_per_s", "cpu_ms_per_query"), ("sim_static",) + _CLOSED),
    "index.lookup_calls": (("queries_per_s",), ("sim_static",) + _CLOSED),
    "index.ci_bytes_mean": (("peak_rss_mb",), _ALL),
    "index.pci_bytes_mean": (_BYTES, _SIM + ("live_paced",)),
    "index.pci_over_ci_ratio": (_BYTES, _SIM + ("live_paced",)),
    "index.first_tier_bytes_mean": (_BYTES + ("latency_p50_ms",), _SIM + ("live_paced",)),
    "index.offset_list_bytes_mean": (_BYTES + ("latency_p50_ms",), _SIM + ("live_paced",)),
    "index.self_s": (("queries_per_s", "cpu_ms_per_query"), _ALL),
    "broadcast.build_cycle_ms_p50": (("queries_per_s", "latency_p50_ms"), _SIM + _CLOSED),
    "broadcast.build_cycle_ms_p95": (("latency_p95_ms",), _CLOSED + _PACED),
    "broadcast.build_cycle_busy_s": (("queries_per_s", "cpu_ms_per_query"), _ALL),
    "broadcast.cycles": (("cpu_ms_per_query",), _LIVE),
    "broadcast.submit_busy_s": (("cpu_ms_per_query",), _CLOSED),
    "broadcast.schedule_busy_s": (("cpu_ms_per_query",), _CLOSED),
    "broadcast.ci_cache_reuse_ratio": (("queries_per_s",), ("sim_static",)),
    "broadcast.dfa_cache_hit_ratio": (("queries_per_s",), ("sim_static",)),
    "broadcast.pci_cache_hit_ratio": (("queries_per_s", "cpu_ms_per_query"), ("sim_static",) + _PACED),
    "broadcast.cache_invalidations": (("queries_per_s",), ("sim_churn",)),
    "broadcast.cycle_fill_ratio": (("air_bytes_per_query", "access_bytes_mean"), _SIM + ("live_paced",)),
    "broadcast.index_share_of_air": (("air_bytes_per_query", "latency_p50_ms"), _SIM + _PACED),
    "broadcast.docs_per_cycle_mean": (("access_bytes_mean",), _SIM + ("live_paced",)),
    "broadcast.self_s": (("queries_per_s", "cpu_ms_per_query"), _ALL),
    "client.on_cycle_busy_s": (("queries_per_s", "cpu_ms_per_query"), ("sim_static",) + _CLOSED),
    "client.on_cycle_calls": (("queries_per_s",), ("sim_static",)),
    "client.cycles_listened_mean": (("access_bytes_mean", "tuning_bytes_mean"), _ALL),
    "client.self_s": (("queries_per_s", "cpu_ms_per_query"), _ALL),
    "sim.construct_s": (("setup_s",), _SIM),
    "sim.self_s": (("queries_per_s",), _SIM),
    "sim.clients": (("queries_per_s",), _SIM),
    "faults.mutations_add": ((), ("sim_churn",)),
    "faults.mutations_remove": ((), ("sim_churn",)),
    "net.encode_cycle_busy_s": (("queries_per_s", "cpu_ms_per_query"), _CLOSED),
    "net.encode_frame_busy_s": (("queries_per_s", "cpu_ms_per_query"), _CLOSED),
    "net.decode_cycle_busy_s": (("queries_per_s", "cpu_ms_per_query"), _CLOSED),
    "net.decode_calls": (("cpu_ms_per_query",), _CLOSED),
    "net.frames_sent": (("cpu_ms_per_query",), _LIVE),
    "net.frames_encoded": (("cpu_ms_per_query",), _LIVE),
    "net.fanout_ratio": (("cpu_ms_per_query",), _LIVE),
    "net.bytes_streamed": (("cpu_ms_per_query",), _LIVE),
    "net.connect_ms_p50": (("latency_p50_ms",), ("cluster_paced",)),
    "net.tune_rtt_ms_p50": (("latency_p50_ms",), ("cluster_paced",)),
    "net.submit_rtt_ms_p50": (("latency_p50_ms",), ("cluster_paced",)),
    "net.dead_air_ratio": (("latency_p50_ms", "latency_p95_ms"), _PACED),
    "net.pacing_idle_s": (("latency_p50_ms",), _PACED),
    "net.rejected_total": (("satisfied_ratio",), _LIVE),
    "net.slow_consumers_evicted": (("satisfied_ratio",), _LIVE),
    "net.router_proxied": (("satisfied_ratio",), ("cluster_paced",)),
    "net.router_connect_retries": (("latency_p95_ms",), ("cluster_paced",)),
    "net.router_errors": (("satisfied_ratio",), ("cluster_paced",)),
    "net.generator_late_ms_p95": ((), _PACED),
    "net.stale_cycles_skipped": ((), _LIVE),
    "net.self_s": (("queries_per_s", "cpu_ms_per_query"), _LIVE),
    "obs.overhead_ratio": (("queries_per_s",), ("live_closed_obs",)),
    "obs.scrape_ms": ((), ("live_closed_obs",)),
    "obs.self_s": (("queries_per_s", "cpu_ms_per_query"), ("live_closed_obs",)),
    "analysis.model_two_tier_error": ((), ("sim_static",)),
    "analysis.model_cycles_error": ((), ("sim_static",)),
    "harness.unattributed_ratio": ((), _ALL),
    "harness.trace_overhead_ratio": ((), _ALL),
    "harness.calibration_s": ((), _ALL),
}


def load_spec() -> Dict:
    """``BENCHMARK.json`` as a dict; raises if it is missing."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def declared(spec: Dict, section: str) -> Dict[str, Dict]:
    """``name -> entry`` of one metric section of the spec."""
    return {entry["name"]: entry for entry in spec[section]}


def layers_moving(metric: str, workload: str) -> List[str]:
    """Per-layer metrics declared to move *metric* on *workload*."""
    return [
        name
        for name, (metrics, workloads) in MOVES.items()
        if metric in metrics and workload in workloads
    ]
