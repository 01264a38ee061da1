"""Tracing from outside: timing wrappers around each layer's public calls.

Nothing in ``src/`` knows about this file.  :func:`install` replaces the
binding the *caller* uses (``repro.broadcast.server.prune_to_pci``, not
only ``repro.index.pruning.prune_to_pci``) with a wrapper that records a
span -- name, start, end, parent span, a cycle/session id -- into a
:class:`Tracer`.  Spans stay in memory; :meth:`Tracer.write` dumps them
as JSON lines when the run ends.

Every workload is one thread, so synchronous spans nest on one stack and
a span's *self time* is its duration minus its children's.  Coroutines
(``connect``/``tune``/``submit``/``run_session``) interleave on the
event loop, so they are recorded as *waits*: durations with no place in
the self-time sum, used only for the round-trip percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

ROOT = "harness.run"

#: a layer is a ``src/repro`` package; a span name is ``<layer>.<call>``
LAYERS = (
    "xmlkit",
    "xpath",
    "filtering",
    "dataguide",
    "index",
    "broadcast",
    "client",
    "sim",
    "net",
    "obs",
)


def _first_arg_attr(attr: str) -> Callable[[tuple], Optional[int]]:
    """Span id read off ``args[0].<attr>`` (a server or a cycle)."""

    def ident(args: tuple) -> Optional[int]:
        value = getattr(args[0], attr, None) if args else None
        return value if isinstance(value, int) else None

    return ident


def _second_arg_attr(attr: str) -> Callable[[tuple], Optional[int]]:
    def ident(args: tuple) -> Optional[int]:
        value = getattr(args[1], attr, None) if len(args) > 1 else None
        return value if isinstance(value, int) else None

    return ident


@dataclass(frozen=True)
class Probe:
    """One patched binding."""

    #: dotted module holding the binding, then the attribute path in it
    module: str
    attr: str
    #: span name, ``<layer>.<call>``
    span: str
    #: span id extractor over the positional args (``None`` = no id)
    ident: Optional[Callable[[tuple], Optional[int]]] = None


_CYCLE_OF_SERVER = _first_arg_attr("cycle_number")
_CYCLE_OF_ARG = _second_arg_attr("cycle_number")
_SESSION_OF_CLIENT = _first_arg_attr("client_key")

#: Every patched binding.  Module-level names are patched where the
#: caller looks them up; methods are patched on their class.
PROBES: Tuple[Probe, ...] = (
    # xmlkit: generation inside the timed region (chaos adds documents)
    Probe("repro.xmlkit.generator", "DocumentGenerator.generate", "xmlkit.generate_document"),
    Probe("repro.net.client", "parse_query", "xpath.parse_query"),
    Probe("repro.net.daemon", "parse_query", "xpath.parse_query"),
    # filtering: admission-time resolution over the combined guide, and
    # the lazy pruning-DFA compile
    Probe("repro.broadcast.server", "BroadcastServer.resolve_batch", "filtering.resolve"),
    Probe("repro.filtering.nfa", "SharedPathNFA.add_query", "filtering.nfa_add_query"),
    Probe("repro.filtering.dfa", "LazyQueryDFA.from_queries", "filtering.dfa_compile"),
    # dataguide: CI construction (cache layer, full merge, delta apply)
    Probe("repro.broadcast.cycle_cache", "CycleBuildCache.ci_for", "dataguide.ci_build"),
    Probe("repro.broadcast.server", "build_ci_from_store", "dataguide.ci_build"),
    Probe("repro.broadcast.cycle_cache", "build_combined_guide", "dataguide.full_merge"),
    Probe("repro.broadcast.cycle_cache", "add_document_to_guide", "dataguide.incremental"),
    Probe("repro.broadcast.cycle_cache", "remove_document_from_guide", "dataguide.incremental"),
    # index: guide -> CI, prune to PCI, pack, two-tier split, client lookup
    Probe("repro.index.ci", "CompactIndex.from_guide", "index.from_guide"),
    Probe("repro.broadcast.cycle_cache", "CycleBuildCache.pci_for", "index.prune"),
    Probe("repro.broadcast.cycle_cache", "prune_to_pci", "index.prune_to_pci"),
    Probe("repro.broadcast.server", "prune_to_pci", "index.prune_to_pci"),
    Probe("repro.broadcast.program", "pack_index", "index.pack"),
    Probe("repro.broadcast.program", "split_two_tier", "index.split"),
    Probe("repro.broadcast.program", "BroadcastCycle.lookup", "index.lookup", _CYCLE_OF_SERVER),
    # broadcast: admission, scheduling, cycle build and assembly, mutations
    Probe("repro.broadcast.server", "BroadcastServer.build_cycle", "broadcast.build_cycle", _CYCLE_OF_SERVER),
    Probe("repro.broadcast.server", "BroadcastServer.submit_batch", "broadcast.submit"),
    Probe("repro.broadcast.scheduling", "Scheduler.select", "broadcast.schedule"),
    Probe("repro.broadcast.server", "build_cycle_program", "broadcast.assemble"),
    Probe("repro.broadcast.server", "BroadcastServer.confirm_delivery", "broadcast.confirm_delivery"),
    Probe("repro.broadcast.server", "BroadcastServer.add_document", "broadcast.mutate"),
    Probe("repro.broadcast.server", "BroadcastServer.remove_document", "broadcast.mutate"),
    Probe("repro.broadcast.cycle_cache", "CycleBuildCache.invalidate_collection", "broadcast.cache_invalidate"),
    # client: the shared access protocol, per cycle per client
    Probe("repro.client.protocol", "AccessProtocol.on_cycle", "client.on_cycle", _CYCLE_OF_ARG),
    # sim: the discrete-event loop (its self time is the orchestration)
    Probe("repro.sim.simulation", "Simulation.run", "sim.run"),
    # net: wire codec both ways, and the client's uplink round trips
    Probe("repro.net.daemon", "encode_cycle", "net.encode_cycle", _CYCLE_OF_SERVER),
    Probe("repro.net.daemon", "encode_frame", "net.encode_frame"),
    Probe("repro.net.wire", "CycleDecoder.feed", "net.decode_feed"),
    Probe("repro.net.client", "AsyncTwoTierClient.connect", "net.connect", _SESSION_OF_CLIENT),
    Probe("repro.net.client", "AsyncTwoTierClient.tune", "net.tune", _SESSION_OF_CLIENT),
    Probe("repro.net.client", "AsyncTwoTierClient.submit", "net.submit", _SESSION_OF_CLIENT),
    Probe("repro.net.client", "AsyncTwoTierClient.run_session", "net.session", _SESSION_OF_CLIENT),
    # obs: the telemetry plane's per-event and per-cycle work
    Probe("repro.obs.telemetry.events", "EventLog.emit", "obs.event_emit"),
    Probe("repro.obs.telemetry.flight", "FlightRecorder.record_cycle", "obs.flight_record"),
    Probe("repro.obs.telemetry.tracing", "QueryTracer.begin_build", "obs.trace_stamp"),
    Probe("repro.obs.telemetry.tracing", "QueryTracer.cycle_entries", "obs.trace_entries"),
    Probe("repro.net.daemon", "program_signature", "obs.program_signature"),
    Probe("repro.net.daemon", "render_openmetrics", "obs.render_metrics"),
)

_SIM_SPANS = {
    "sim.run",
    "filtering.resolve",
    "filtering.nfa_add_query",
    "filtering.dfa_compile",
    "dataguide.ci_build",
    "dataguide.full_merge",
    "index.from_guide",
    "index.prune",
    "index.prune_to_pci",
    "index.pack",
    "index.split",
    "index.lookup",
    "broadcast.build_cycle",
    "broadcast.submit",
    "broadcast.schedule",
    "broadcast.assemble",
    "client.on_cycle",
}
_LIVE_SPANS = (_SIM_SPANS - {"sim.run"}) | {
    "xpath.parse_query",
    "net.encode_cycle",
    "net.encode_frame",
    "net.decode_feed",
    "net.connect",
    "net.tune",
    "net.submit",
    "net.session",
}

#: spans that must fire on a workload; a probe that silently stopped
#: matching (a renamed function, a caller that re-imported) fails the run
EXPECTED: Dict[str, Set[str]] = {
    "sim_static": _SIM_SPANS,
    "sim_churn": _SIM_SPANS
    | {
        "xmlkit.generate_document",
        "broadcast.mutate",
        "broadcast.confirm_delivery",
        "broadcast.cache_invalidate",
    },
    "live_paced": _LIVE_SPANS,
    "live_closed": _LIVE_SPANS,
    "live_closed_obs": _LIVE_SPANS
    | {
        "obs.event_emit",
        "obs.flight_record",
        "obs.trace_stamp",
        "obs.trace_entries",
        "obs.program_signature",
    },
    "cluster_paced": _LIVE_SPANS,
}


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, id]`` per synchronous span;
        #: index 0 is the root once :meth:`open_root` ran
        self.spans: List[list] = []
        #: ``(name, start, end, id)`` per awaited call
        self.waits: List[Tuple[str, float, float, Optional[int]]] = []
        self._stack: List[int] = []
        self.active = False

    # -- the root span covers exactly the timed region ------------------

    def open_root(self) -> None:
        if self.spans:
            raise RuntimeError("one Tracer traces one timed region")
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, None])
        self._stack.append(0)
        self.active = True

    def close_root(self) -> None:
        self.active = False
        self.spans[0][2] = time.perf_counter()
        self._stack.clear()

    # -- wrappers -------------------------------------------------------

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(probe, fn)
        return self._wrap_sync(probe, fn)

    def _wrap_sync(self, probe: Probe, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, ident_of = probe.span, probe.ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1], ident_of(args) if ident_of else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _wrap_async(self, probe: Probe, fn: Callable) -> Callable:
        waits, clock = self.waits, time.perf_counter
        name, ident_of = probe.span, probe.ident

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return await fn(*args, **kwargs)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                waits.append((name, start, clock(), ident_of(args) if ident_of else None))

        return traced

    # -- aggregation ----------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans, self.waits)

    def write(self, path: Any) -> int:
        """One JSON object per span; returns the line count."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, ident) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"i": index, "name": name, "start": start, "end": end,
                         "parent": parent, "id": ident}
                    )
                    + "\n"
                )
            for name, start, end, ident in self.waits:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": 0, "id": ident, "wait": True}
                    )
                    + "\n"
                )
        return len(self.spans) + len(self.waits)


class TraceSummary:
    """Per-span-name totals and per-layer self time of one traced run."""

    def __init__(
        self,
        spans: Sequence[Sequence],
        waits: Sequence[Tuple[str, float, float, Optional[int]]],
    ) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ident in spans:
            if parent >= 0:
                child_time[parent] += end - start
        #: span name -> (calls, inclusive seconds, self seconds)
        self.by_name: Dict[str, Tuple[int, float, float]] = {}
        #: span name -> individual inclusive durations, in call order
        self.durations: Dict[str, List[float]] = {}
        #: (parent name, child name) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        for index, (name, start, end, parent, _ident) in enumerate(spans):
            duration = end - start
            calls, total, own = self.by_name.get(name, (0, 0.0, 0.0))
            self.by_name[name] = (
                calls + 1,
                total + duration,
                own + duration - child_time[index],
            )
            self.durations.setdefault(name, []).append(duration)
            if parent >= 0:
                edge = (spans[parent][0], name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
        self.wait_durations: Dict[str, List[float]] = {}
        for name, start, end, _ident in waits:
            self.wait_durations.setdefault(name, []).append(end - start)

    def calls(self, name: str) -> int:
        return self.by_name.get(name, (0, 0.0, 0.0))[0]

    def busy(self, name: str) -> float:
        """Inclusive seconds spent under spans called *name*."""
        return self.by_name.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer; with the root span's own they sum to wall."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, own) in self.by_name.items():
            if name != ROOT:
                out[name.split(".", 1)[0]] += own
        return out

    def fired(self) -> Set[str]:
        return (set(self.by_name) - {ROOT}) | set(self.wait_durations)


def _resolve(probe: Probe) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, raw attribute) of a probe target."""
    owner: Any = importlib.import_module(probe.module)
    *path, leaf = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[leaf] if inspect.isclass(owner) else getattr(owner, leaf)
    return owner, leaf, raw


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every probe; returns the function that undoes it.

    Raises if a target is missing -- a probe that cannot be installed is
    a measurement that silently reads zero.
    """
    undo: List[Tuple[Any, str, Any]] = []
    #: one wrapper per (original function, span name): a function reached
    #: through two bindings must not be wrapped twice
    wrapped: Dict[Tuple[int, str], Any] = {}
    try:
        for probe in PROBES:
            owner, leaf, raw = _resolve(probe)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            key = (id(fn), probe.span)
            if key not in wrapped:
                traced = tracer.wrap(probe, fn)
                if isinstance(raw, classmethod):
                    traced = classmethod(traced)
                elif isinstance(raw, staticmethod):
                    traced = staticmethod(traced)
                wrapped[key] = traced
            undo.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped[key])
    except Exception:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)
        raise

    def uninstall() -> None:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)

    return uninstall
