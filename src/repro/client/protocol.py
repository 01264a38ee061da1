"""Common machinery of the client access protocols.

A protocol instance represents one mobile client with one query.  The
simulation feeds it every broadcast cycle whose index the client can use
(cycles starting at or after its arrival); the protocol decides what to
listen to and updates its metrics.  Protocols are pure consumers -- they
never mutate the cycle or the server state.
"""

from __future__ import annotations

import abc
import enum
from typing import Callable, FrozenSet, Optional, Set

from repro import obs
from repro.broadcast.program import BroadcastCycle, IndexScheme
from repro.client.metrics import ClientMetrics
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import LookupResult
from repro.xpath.ast import XPathQuery

#: A shared search the simulation may inject: one index walk per cycle
#: for its whole audience (one compiled query set), of which each client
#: is handed its own query's view.  A client given none searches for
#: itself.
LookupFn = Callable[[BroadcastCycle, XPathQuery], LookupResult]


class OffsetRead(enum.Enum):
    """How a two-tier client consumes the second-tier offset list.

    ``FULL`` (the default, and the literal Equation-1 L_O term) downloads
    the whole list each cycle; ``SELECTIVE`` exploits the sort order to
    binary-search only the packets holding its own entries (plus the
    header packet) -- an optimisation knob the offset-read ablation
    bench quantifies.
    """

    FULL = "full"
    SELECTIVE = "selective"


class FirstTierRead(enum.Enum):
    """How a two-tier client consumes the first-tier index.

    ``SELECTIVE`` walks only the packets its query needs (the Section 3.1
    packing exists precisely to make this cheap); ``FULL`` downloads the
    whole first tier, which is the literal reading of Equation 1's L_I
    term.  Both are available; the experiments default to SELECTIVE and
    the ablation bench compares the two.
    """

    SELECTIVE = "selective"
    FULL = "full"


class AccessProtocol(abc.ABC):
    """Base class: arrival bookkeeping, probe charging, completion."""

    #: the index scheme whose packing the protocol reads (the naive
    #: client reads none and leaves it unset)
    scheme: IndexScheme
    #: reporting label; doubles as the ``protocol`` label on byte counters
    protocol_name: str = "unknown"

    def __init__(
        self,
        query: XPathQuery,
        arrival_time: int,
        lookup_fn: Optional[LookupFn] = None,
    ) -> None:
        self.query = query
        self.metrics = ClientMetrics(arrival_time=arrival_time)
        self._lookup_fn = lookup_fn
        #: the query compiled at this client's first own search and kept
        #: for its session (a one-tier client searches every cycle)
        self._compiled: Optional[LazyQueryDFA] = None
        self._probed = False
        #: result ids learned from the index (or injected, for the naive
        #: client); ``None`` until the first index read.
        self.expected_doc_ids: Optional[FrozenSet[int]] = None
        self.received_doc_ids: Set[int] = set()

    # ------------------------------------------------------------------
    # Cycle consumption
    # ------------------------------------------------------------------

    @property
    def satisfied(self) -> bool:
        return (
            self.expected_doc_ids is not None
            and self.received_doc_ids >= self.expected_doc_ids
        )

    def can_use(self, cycle: BroadcastCycle) -> bool:
        """A client uses a cycle when it arrived before the cycle began."""
        return cycle.start_time >= self.metrics.arrival_time

    def on_cycle(self, cycle: BroadcastCycle) -> None:
        """Listen to one broadcast cycle."""
        if self.satisfied or not self.can_use(cycle):
            return
        registry = obs.get_registry()
        probe = 0
        if not self._probed:
            # Initial probe: one packet to learn when the next index starts.
            with registry.span("client.probe"):
                probe = cycle.layout.packet_bytes
                self._probed = True
        if cycle.degraded == "pci-stale" and self.expected_doc_ids is None:
            # An overloaded server aired last cycle's PCI.  A stale pruning
            # may omit documents admitted after it, so locking the expected
            # set here could under-count the true result set; defer the
            # one-shot first-tier read to a non-stale cycle.  (The other
            # degraded mode, "ci-unpruned", is complete and safe to read.)
            self.metrics.probe_bytes += probe
            if registry.enabled:
                label = self.protocol_name
                registry.counter(
                    "client.stale_index_deferrals_total", protocol=label
                ).inc()
                registry.counter(
                    "client.probe_bytes_total", protocol=label
                ).inc(probe)
            return
        if not registry.enabled:
            self._consume(cycle, probe)
            return
        metrics = self.metrics
        before = (
            metrics.probe_bytes,
            metrics.index_bytes,
            metrics.offset_bytes,
            metrics.doc_bytes,
        )
        self._consume(cycle, probe)
        # Per-protocol byte counters, diffed around _consume so every
        # protocol is covered without instrumenting each accounting site.
        label = self.protocol_name
        registry.counter("client.cycles_listened_total", protocol=label).inc()
        registry.counter("client.probe_bytes_total", protocol=label).inc(
            metrics.probe_bytes - before[0]
        )
        registry.counter("client.index_bytes_total", protocol=label).inc(
            metrics.index_bytes - before[1]
        )
        registry.counter("client.offset_bytes_total", protocol=label).inc(
            metrics.offset_bytes - before[2]
        )
        registry.counter("client.doc_bytes_total", protocol=label).inc(
            metrics.doc_bytes - before[3]
        )

    @abc.abstractmethod
    def _consume(self, cycle: BroadcastCycle, probe_bytes: int) -> None:
        """Protocol-specific listening within one cycle."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _lookup(self, cycle: BroadcastCycle) -> LookupResult:
        if self._lookup_fn is not None:
            return self._lookup_fn(cycle, self.query)
        if self._compiled is None:
            self._compiled = LazyQueryDFA.from_queries([self.query])
        return cycle.lookup(self._compiled)

    def _download_documents(self, cycle: BroadcastCycle, wanted: Set[int]) -> int:
        """Download the wanted documents present in this cycle.

        Returns the document bytes listened to and updates completion when
        the expected set is fully received.
        """
        doc_bytes = 0
        last_end = 0
        for doc_id in cycle.doc_ids:
            if doc_id in wanted and doc_id not in self.received_doc_ids:
                air = cycle.doc_air_bytes[doc_id]
                doc_bytes += air
                self.received_doc_ids.add(doc_id)
                last_end = cycle.doc_offsets[doc_id] + air
        self._record_completion(cycle, last_end)
        return doc_bytes

    def _record_completion(self, cycle: BroadcastCycle, last_end: int) -> None:
        """Stamp the session complete once the expected set has arrived.

        *last_end* is the cycle-relative end of the last document just
        received: access time ends when it finishes, not at the cycle
        boundary.
        """
        if self.satisfied and self.metrics.completion_time is None:
            assert self.expected_doc_ids is not None
            self.metrics.completion_time = cycle.start_time + last_end
            self.metrics.result_doc_count = len(self.expected_doc_ids)
