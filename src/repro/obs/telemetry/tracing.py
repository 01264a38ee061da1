"""End-to-end query tracing across the uplink/downlink wire.

A client opts in per query by adding ``TRACE=`` to its ``SUBMIT`` line
(empty value: the daemon mints an ID; non-empty: the client's ID is
adopted).  The daemon echoes ``TRACE=<id>`` on ``ACK``/``RETRY_AFTER``
and, from then on, stamps the trace at every hop with its own injected
:class:`~repro.net.clock.ClockAdapter`:

``submit`` -> ``admit`` -> ``build_start``/``build_end`` (cycle build)
-> ``stream_start`` -> ``last_doc`` (final DOC frame carrying one of
the query's result documents) .

The completed daemon-side timeline is pushed as one uplink ``TRACE``
line (:class:`repro.net.uplink.Timeline`) to the connection that
submitted the trace, just ahead of the ``CYCLE_END`` of the cycle that
completed it -- beside the cycle, not inside it, so the cycle's frames
are the same bytes for every subscriber -- and the client closes the
chain by stamping ``received`` when its query is satisfied.  Because
Linux ``CLOCK_MONOTONIC`` is system-wide, daemon and client stamps share
a timebase and every latency component is non-negative and additive:

``queue`` (submit->build_start) + ``build`` + ``on_air``
(build_end->last_doc) + ``tune`` (last_doc->received) = ``total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

__all__ = ["QueryTrace", "QueryTracer"]

#: Timeline keys a complete daemon-side trace entry must carry.
_ENTRY_STAMPS = (
    "submit",
    "admit",
    "build_start",
    "build_end",
    "stream_start",
    "last_doc",
)


@dataclass
class _TraceState:
    """Daemon-side per-trace bookkeeping."""

    trace_id: str
    submit: float
    admit: Optional[float] = None
    query_id: Optional[int] = None
    pending: Optional[Any] = None  # broadcast.server.PendingQuery
    #: whoever the timeline is owed to (the daemon passes the submitting
    #: connection); opaque here, and forgotten with the state
    owner: Optional[Any] = None
    #: result docs still owed when the current build began -- snapshotted
    #: *before* build_cycle because non-ack builds shrink remaining sets
    #: at build time, not at delivery time
    remaining_before: Set[int] = field(default_factory=set)
    build_start: Optional[float] = None
    build_end: Optional[float] = None
    stream_start: Optional[float] = None
    last_doc: Optional[float] = None
    touched: bool = False


class QueryTracer:
    """Daemon-side trace registry; all stamps come from ``clock.now()``.

    The daemon calls every hook unconditionally: with no query traced
    each one loops over an empty dict (the per-frame hook is a single
    failed lookup), so an untraced broadcast pays no guard and no work.
    """

    def __init__(self, clock: Any) -> None:
        self._now = clock.now
        self.states: Dict[str, _TraceState] = {}
        self._minted = 0
        #: doc_id -> traces owing it, rebuilt per cycle by begin_build
        #: so the per-frame hook is one dict lookup, not a scan
        self._owed: Dict[int, List[_TraceState]] = {}
        #: owed doc ids that hit the wire in the current cycle
        self._aired: Set[int] = set()

    # -- admission ---------------------------------------------------------

    def on_submit(self, trace_id: Optional[str]) -> str:
        """Open (or reopen) a trace; mints an ID when none given."""
        if not trace_id:
            self._minted += 1
            trace_id = f"t{self._minted}"
        self.states[trace_id] = _TraceState(
            trace_id=trace_id, submit=self._now()
        )
        return trace_id

    def on_admit(self, trace_id: str, pending: Any, owner: Any = None) -> None:
        state = self.states.get(trace_id)
        if state is None:
            return
        state.admit = self._now()
        state.query_id = getattr(pending, "query_id", None)
        state.pending = pending
        state.owner = owner

    def on_reject(self, trace_id: str) -> None:
        """Query not admitted (overload / closed / parse error): the
        trace dies here; a resubmit with the same ID starts fresh."""
        self.states.pop(trace_id, None)

    # -- cycle build -------------------------------------------------------

    def begin_build(self) -> None:
        """Stamp build start for every live trace and snapshot each
        query's owed documents (call *before* ``build_cycle``)."""
        now = self._now()
        for trace_id in [
            t for t, s in self.states.items()
            if s.pending is not None and s.pending.is_satisfied
        ]:
            # Satisfied queries had their timeline pushed in an earlier
            # cycle; their traces are complete and can be retired.
            del self.states[trace_id]
        self._owed = {}
        self._aired = set()
        for state in self.states.values():
            if state.pending is None:
                continue
            state.build_start = now
            state.build_end = None
            state.stream_start = None
            state.last_doc = None
            state.touched = False
            state.remaining_before = set(state.pending.remaining_doc_ids)
            for doc_id in state.remaining_before:
                self._owed.setdefault(doc_id, []).append(state)

    def end_build(self) -> None:
        now = self._now()
        for state in self.states.values():
            if state.build_start is not None and state.build_end is None:
                state.build_end = now

    # -- streaming ---------------------------------------------------------

    def begin_stream(self) -> None:
        now = self._now()
        for state in self.states.values():
            if state.build_end is not None and state.stream_start is None:
                state.stream_start = now

    def on_doc_sent(self, doc_id: int) -> None:
        """A DOC frame just hit the wire; stamp traces that owed it."""
        owing = self._owed.get(doc_id)
        if not owing:
            return
        self._aired.add(doc_id)
        now = self._now()
        for state in owing:
            state.last_doc = now
            state.touched = True

    # -- timelines ---------------------------------------------------------

    def cycle_entries(self, cycle_number: int) -> Dict[str, Dict[str, Any]]:
        """Timeline entries for the cycle on air, keyed by trace ID
        (call once its last DOC frame is stamped); each is pushed to its
        state's ``owner``.

        Only traces this cycle *could have completed* -- every document
        still owed at build time went on air -- get an entry.  Partially
        served queries will emit on a later cycle; the satisfying cycle
        always qualifies, so the client never misses its timeline, and
        trace freight stays O(1) per traced query per cycle.
        """
        entries: Dict[str, Dict[str, Any]] = {}
        for trace_id, state in self.states.items():
            if not state.touched:
                continue
            if not state.remaining_before.issubset(self._aired):
                continue
            # Compact wire shape: the trace ID travels beside the entry
            # (the client restores it) and stamps are rounded to the
            # microsecond -- full ``perf_counter`` precision would double
            # the line for no measurable gain.
            entries[trace_id] = {
                "query_id": state.query_id,
                "cycle": cycle_number,
                "submit": round(state.submit, 6),
                "admit": round(state.admit, 6),
                "build_start": round(state.build_start, 6),
                "build_end": round(state.build_end, 6),
                "stream_start": round(state.stream_start, 6),
                "last_doc": round(state.last_doc, 6),
            }
        return entries


@dataclass(frozen=True)
class QueryTrace:
    """A closed trace: daemon timeline + the client's receipt stamp.

    Built client-side from the latest timeline pushed for the client's
    trace ID, closed with ``received`` = the client clock's stamp at
    query satisfaction.
    """

    trace_id: str
    query: str
    query_id: Optional[int]
    cycle: int
    submit: float
    admit: float
    build_start: float
    build_end: float
    stream_start: float
    last_doc: float
    received: float

    def components(self) -> Dict[str, float]:
        """Additive wire-latency breakdown in seconds.

        ``queue + build + on_air + tune == total`` by construction
        (the chain telescopes), and each component is non-negative on
        a shared-monotonic-clock host.
        """
        return {
            "queue_seconds": self.build_start - self.submit,
            "build_seconds": self.build_end - self.build_start,
            "on_air_seconds": self.last_doc - self.build_end,
            "tune_seconds": self.received - self.last_doc,
            "total_seconds": self.received - self.submit,
        }

    def spans(self) -> List[Dict[str, Any]]:
        """The causally-linked span tree (root + one child per hop)."""
        root = {
            "name": "query",
            "parent": None,
            "start": self.submit,
            "end": self.received,
        }
        hops = [
            ("admit", self.submit, self.admit),
            ("queue", self.admit, self.build_start),
            ("build", self.build_start, self.build_end),
            ("on_air", self.build_end, self.last_doc),
            ("tune", self.last_doc, self.received),
        ]
        return [root] + [
            {"name": name, "parent": "query", "start": start, "end": end}
            for name, start, end in hops
        ]

    def to_record(self) -> Dict[str, Any]:
        """The trace-format-v3 ``query_trace`` record."""
        return {
            "kind": "query_trace",
            "trace_id": self.trace_id,
            "query": self.query,
            "query_id": self.query_id,
            "cycle": self.cycle,
            "spans": self.spans(),
            "components": self.components(),
        }

    @classmethod
    def from_entry(
        cls,
        trace_id: str,
        entry: Dict[str, Any],
        query: str,
        received: float,
    ) -> "QueryTrace":
        """Close a daemon timeline entry with the client's receipt stamp."""
        missing = [k for k in _ENTRY_STAMPS if entry.get(k) is None]
        if missing:
            raise ValueError(
                f"incomplete trace entry (missing {missing}): {entry}"
            )
        return cls(
            trace_id=trace_id,
            query=query,
            query_id=entry.get("query_id"),
            cycle=int(entry["cycle"]),
            submit=float(entry["submit"]),
            admit=float(entry["admit"]),
            build_start=float(entry["build_start"]),
            build_end=float(entry["build_end"]),
            stream_start=float(entry["stream_start"]),
            last_doc=float(entry["last_doc"]),
            received=float(received),
        )
