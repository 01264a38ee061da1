"""The simulated audience: every listening client of a run as one table.

A client's first usable cycle runs its own ``on_cycle`` (probe,
``pci-stale`` deferral, first-tier read, downloads: what a live client
runs).  After it, on a lossless single-channel cycle, the clients of one
string that read the same index share a *row*.  A cycle pops, for each
aired document in air order, the rows waiting on it, so a row none of
whose documents air costs nothing.  A row whose last document airs is
settled by Equation 1 (``TT = L_I + n*L_O + download``): ``n*L_O`` and
the naive data segment are prefix-sum differences, the one-tier search
a per-string running sum, and the session completes at that document's
end.  Loss draws and K >= 2 tune plans are per client, so a lossy or
multi-channel cycle hands the rows back to their clients.  A new query
string recompiles the audience's query set, without the strings nobody
listens for any more.

Under acknowledged delivery a cycle also hands back *receipts*: one per
row that took a document this cycle, and one per client listening for
itself whose expected or received set changed, each naming the clients
and the received set they share.  What did not change is not reported.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.broadcast.program import BroadcastCycle
from repro.client.protocol import AccessProtocol
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import LookupResult
from repro.xpath.ast import XPathQuery

#: per-protocol counters a settled row adds to (the first read charged
#: the probe): cycles, then index, offset and document bytes
_COUNTERS = ("cycles_listened", "index_bytes", "offset_bytes", "doc_bytes")

#: clients whose state one cycle changed, and the received set they share
Receipt = Tuple[Sequence[AccessProtocol], Set[int]]


class _Row:
    """Clients awaiting the same documents since the same cycle."""

    __slots__ = (
        "clients", "key", "start", "received", "remaining", "docs", "base", "heard"
    )

    def __init__(self, client: AccessProtocol, start: int, base: int) -> None:
        self.clients = [client]
        self.key = str(client.query)
        #: the first cycle (prefix-sum position) the row listens to
        self.start = start
        #: documents received: one set, shared by the clients until settled
        self.received = client.received_doc_ids
        self.remaining = 0
        #: bytes of the documents taken since ``start``
        self.docs = 0
        #: its string's one-tier index-byte sum at ``start``
        self.base = base
        #: the last cycle (prefix-sum end) a receipt reported the row
        self.heard = start


class Audience:
    """Every not yet satisfied client of a simulation."""

    def __init__(self) -> None:
        #: clients listening for themselves: before their first read, and
        #: everyone after a cycle the rows could not join
        self._own: List[AccessProtocol] = []
        #: document -> the rows waiting on it
        self._waiting: Dict[int, List[_Row]] = {}
        #: prefix sums over the joined cycles of L_O and the data segment
        self._offset_sums = [0]
        self._data_sums = [0]
        #: per string, its one-tier index bytes summed over the joined
        #: cycles that had a one-tier client in a row
        self._index_sums: Dict[str, int] = {}
        self._one_tier_clients = 0  # in rows
        #: the compiled strings, then new ones; and the compiled ids
        self._strings: Dict[str, XPathQuery] = {}
        self._ids: Dict[str, int] = {}
        self._compiled: Optional[LazyQueryDFA] = None
        #: the on-air cycle's walk, made at its first search
        self._on_air: Optional[Tuple[BroadcastCycle, LookupResult]] = None

    def admit(self, clients: Sequence[AccessProtocol]) -> None:
        """Add one session's clients (all asking one query)."""
        self._own.extend(clients)
        key = str(clients[0].query)
        if key not in self._strings:
            self._strings[key] = clients[0].query
            self._compiled = None

    def drop(self, clients: Sequence[AccessProtocol]) -> None:
        """Forget clients that never listened (a NACKed admission)."""
        self._own = [client for client in self._own if client not in clients]

    def search(self, cycle: BroadcastCycle, query: XPathQuery) -> LookupResult:
        """One walk of the cycle's index for the whole audience; each
        client reads its own query's view of it."""
        return self._walk(cycle).for_query(self._ids[str(query)])

    def _walk(self, cycle: BroadcastCycle) -> LookupResult:
        if self._compiled is None:  # an admission brought a new string
            live = {str(client.query) for client in self._own}
            live.update(row.key for rows in self._waiting.values() for row in rows)
            self._strings = {k: q for k, q in self._strings.items() if k in live}
            self._ids = {key: at for at, key in enumerate(self._strings)}
            self._compiled = LazyQueryDFA.from_queries(list(self._strings.values()))
            self._on_air = None
        if self._on_air is None or self._on_air[0] is not cycle:
            self._on_air = (cycle, cycle.lookup(self._compiled))
        return self._on_air[1]

    def deliver(
        self,
        cycle: BroadcastCycle,
        lossless: bool,
        receipts: Optional[List[Receipt]] = None,
    ) -> None:
        """Everyone listens to one aired cycle; with *receipts*, what
        changed is appended to it."""
        if lossless and cycle.num_data_channels == 1:
            self._join(cycle, receipts)
        else:
            self.flush()
            self._own = [
                client for client in self._own if not _listen(client, cycle, receipts)
            ]

    def _join(self, cycle: BroadcastCycle, receipts: Optional[List[Receipt]]) -> None:
        air, offsets = cycle.doc_air_bytes, cycle.doc_offsets
        at = len(self._offset_sums) - 1  # this cycle's prefix position
        end = at + 1
        self._offset_sums.append(self._offset_sums[at] + cycle.offset_list_air_bytes)
        self._data_sums.append(
            self._data_sums[at] + sum(map(air.__getitem__, cycle.doc_ids))
        )
        # Clients that listened for themselves so far join from this cycle.
        first_reads = [c for c in self._own if not c.metrics.cycles_listened]
        self._enrol([c for c in self._own if c.metrics.cycles_listened], at)
        if self._one_tier_clients:  # the one-tier search repeats every cycle
            packed, sums = cycle.packed_one_tier, self._index_sums
            counts = self._walk(cycle).packet_counts(packed, range(len(self._ids)))
            for key, count in zip(self._ids, counts):
                sums[key] = sums.get(key, 0) + count * packed.packet_bytes
        waiting = self._waiting
        for doc_id in cycle.doc_ids:
            rows = waiting.pop(doc_id, None)
            if rows is None:
                continue
            doc_air = air[doc_id]
            for row in rows:
                row.received.add(doc_id)
                row.docs += doc_air
                row.remaining -= 1
                if receipts is not None and row.heard != end:
                    row.heard = end
                    receipts.append((row.clients, row.received))
                if not row.remaining:
                    self._settle(row, end, cycle.start_time + offsets[doc_id] + doc_air)
        listening = [c for c in first_reads if not _listen(c, cycle, receipts)]
        self._enrol([c for c in listening if c.metrics.cycles_listened], end)
        # not on air yet, or a stale index deferred the first read
        self._own = [c for c in listening if not c.metrics.cycles_listened]

    def _enrol(self, clients: List[AccessProtocol], start: int) -> None:
        """Put clients that have read their expected sets into rows."""
        made: Dict[Tuple[str, FrozenSet[int], FrozenSet[int]], _Row] = {}
        for client in clients:
            expected = client.expected_doc_ids
            assert expected is not None
            same = (str(client.query), expected, frozenset(client.received_doc_ids))
            row = made.get(same)
            if row is None:
                row = made[same] = _Row(client, start, self._index_sums.get(same[0], 0))
                missing = expected - row.received
                row.remaining = len(missing)
                for doc_id in missing:
                    self._waiting.setdefault(doc_id, []).append(row)
            else:
                row.clients.append(client)
                client.received_doc_ids = row.received
            if client.protocol_name == "one-tier":
                self._one_tier_clients += 1

    def _settle(self, row: _Row, end: int, completion: Optional[int] = None) -> None:
        """Add what a row's clients listened to in cycles ``start .. end -
        1`` to their metrics; with *completion*, they are done."""
        start = row.start
        offsets = self._offset_sums[end] - self._offset_sums[start]
        taken = {  # (index, offset, document) bytes of each protocol
            "one-tier": (self._index_sums.get(row.key, 0) - row.base, 0, row.docs),
            "two-tier": (0, offsets, row.docs),
            # the naive client listens to the whole data segment
            "naive": (0, 0, self._data_sums[end] - self._data_sums[start]),
        }
        registry = obs.get_registry()
        for client in row.clients:
            if client.protocol_name == "one-tier":
                self._one_tier_clients -= 1
            index_bytes, offset_bytes, doc_bytes = taken[client.protocol_name]
            metrics = client.metrics
            metrics.index_bytes += index_bytes
            metrics.offset_bytes += offset_bytes
            metrics.doc_bytes += doc_bytes
            metrics.cycles_listened += end - start
            if completion is not None:
                metrics.completion_time = completion
                metrics.result_doc_count = len(row.received)  # all expected
            if client is not row.clients[0]:  # stop sharing the set
                client.received_doc_ids = set(row.received)
            if registry.enabled:
                values = (end - start, index_bytes, offset_bytes, doc_bytes)
                for name, value in zip(_COUNTERS, values):
                    registry.counter(
                        f"client.{name}_total", protocol=client.protocol_name
                    ).inc(value)

    def flush(self) -> None:
        """Hand every row back to its clients, metrics up to date."""
        rows = {id(row): row for rows in self._waiting.values() for row in rows}
        self._waiting.clear()
        for row in rows.values():
            self._settle(row, len(self._offset_sums) - 1)
            self._own.extend(row.clients)


def _listen(
    client: AccessProtocol,
    cycle: BroadcastCycle,
    receipts: Optional[List[Receipt]],
) -> bool:
    """One client listens to *cycle* for itself; True once satisfied."""
    if client.can_use(cycle):
        locked, had = client.expected_doc_ids, len(client.received_doc_ids)
        client.on_cycle(cycle)
        received = client.received_doc_ids
        if receipts is not None and (
            client.expected_doc_ids is not locked or len(received) != had
        ):
            receipts.append(([client], received))
    return client.satisfied
