"""Document scheduling for on-demand broadcast cycles.

Given the pending queries (each with its set of still-missing result
documents) and a per-cycle data capacity in bytes, a scheduler picks the
documents the next cycle will carry.

The paper adopts the allocation algorithm of Lee & Lo, "Broadcast Data
Allocation for Efficient Access of Multiple Data Items in Mobile
Environments" (MONET 2003), which targets *multi-item* requests: a query
is only satisfied when **all** its result documents have been received,
so broadcasting scattered fragments of many queries helps nobody.
:class:`LeeLoScheduler` follows that principle greedily: documents are
scored by how much they contribute to *completing* pending requests
(popularity weighted by the reciprocal of each requesting query's
remaining-set size), so small remainders get finished first and the mean
number of cycles a client must listen to stays low.

Simpler baselines (FCFS, most-requested-first, RxW) exist for the
scheduler ablation bench; the paper's figures use Lee-Lo.

Every scheduler reads its demand from the server-maintained
:class:`DemandTable` (doc id -> pending queries still missing it), which
mirrors every remaining-set mutation, so ``rank()`` never re-derives the
doc-to-queries map from the pending list.
"""

from __future__ import annotations

import abc
import operator
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.broadcast.server import DocumentStore, PendingQuery


class DemandTable:
    """Incrementally maintained ``doc id -> pending queries missing it``.

    The :class:`~repro.broadcast.server.BroadcastServer` owns one instance
    and mirrors every remaining-set mutation into it (query admission,
    per-cycle broadcast shrink, delivery acknowledgement, document
    removal).  Schedulers then read the table instead of rebuilding the
    same mapping from the pending list each cycle.

    Queries are stored regardless of arrival time; readers filter with
    ``arrival_time <= now`` (see :meth:`items_for`) so the table agrees
    exactly with a from-scratch build over the *active* pending set --
    property-tested in ``tests/broadcast/test_admission_differential.py``.
    When no registered query has a future arrival the per-edge filter is
    skipped entirely (the common steady-state fast path).
    """

    def __init__(self) -> None:
        self._by_doc: Dict[int, Dict[int, "PendingQuery"]] = {}
        #: latest arrival time ever registered; reads at ``now`` past it
        #: need no per-edge arrival filtering
        self._max_arrival: int = 0

    def add_query(self, query: "PendingQuery") -> None:
        """Register every document a just-admitted *query* is missing
        (its id is above every registered one, so it waits last)."""
        if query.arrival_time > self._max_arrival:
            self._max_arrival = query.arrival_time
        by_doc = self._by_doc
        for doc_id in query.remaining_doc_ids:
            by_doc.setdefault(doc_id, {})[query.query_id] = query

    def add(self, query: "PendingQuery", doc_ids: Iterable[int]) -> None:
        """Register *query*'s demand edges on *doc_ids* again.  Each
        document's waiters stay in query-id (admission) order, the order
        a rebuild over the pending list has, so Lee-Lo sums its weights
        in that order whatever the acknowledgement history."""
        by_doc, query_id = self._by_doc, query.query_id
        for doc_id in doc_ids:
            waiters = by_doc.setdefault(doc_id, {})
            early = bool(waiters) and query_id < next(reversed(waiters))
            waiters[query_id] = query
            if early:
                by_doc[doc_id] = dict(sorted(waiters.items()))

    def drop(self, query: "PendingQuery", doc_ids: Iterable[int]) -> None:
        """Drop *query*'s demand edges on *doc_ids*, where present."""
        by_doc = self._by_doc
        query_id = query.query_id
        for doc_id in doc_ids:
            waiters = by_doc.get(doc_id)
            if waiters is None:
                continue
            waiters.pop(query_id, None)
            if not waiters:
                del by_doc[doc_id]

    def pop(self, doc_id: int, now: int) -> Iterable["PendingQuery"]:
        """Drop and return the queries eligible at *now* that wait on
        *doc_id*: one step per aired document, however many wait."""
        waiters = self._by_doc.get(doc_id)
        if waiters is None:
            return ()
        if now >= self._max_arrival:
            del self._by_doc[doc_id]
            return waiters.values()
        eligible = [q for q in waiters.values() if q.arrival_time <= now]
        for query in eligible:
            del waiters[query.query_id]
        if not waiters:
            del self._by_doc[doc_id]
        return eligible

    def discard_doc(self, doc_id: int) -> None:
        """Drop a document entirely (it left the collection)."""
        self._by_doc.pop(doc_id, None)

    def items_for(
        self, now: int
    ) -> Iterator[Tuple[int, List["PendingQuery"]]]:
        """``(doc_id, eligible queries)`` pairs for a cycle built at *now*.

        The table's edges are mirrored exactly by the server (an edge
        exists iff ``doc_id in query.remaining_doc_ids``), so satisfied
        queries never appear here.  Arrival times still need re-checking
        when some registered query arrives after *now*; otherwise the
        per-edge filter is skipped outright.  Documents whose every
        requester is ineligible are skipped, matching the rebuilt table's
        key set.
        """
        if now >= self._max_arrival:
            for doc_id, queries in self._by_doc.items():
                if queries:
                    yield doc_id, list(queries.values())
            return
        for doc_id, queries in self._by_doc.items():
            eligible = [q for q in queries.values() if q.arrival_time <= now]
            if eligible:
                yield doc_id, eligible

    def snapshot(self, now: int) -> Dict[int, List["PendingQuery"]]:
        """The eligible view as a dict: what the schedulers rank."""
        return dict(self.items_for(now))


class Scheduler(abc.ABC):
    """Strategy interface: pick the documents of the next cycle."""

    name: str = "abstract"

    @abc.abstractmethod
    def rank(
        self,
        pending: Sequence["PendingQuery"],
        now: int,
        demand: DemandTable,
    ) -> List[int]:
        """Return candidate doc ids, best first (may contain all candidates).

        *demand* mirrors the remaining sets of *pending*.
        """

    def select(
        self,
        pending: Sequence["PendingQuery"],
        store: "DocumentStore",
        capacity_bytes: int,
        now: int,
        demand: DemandTable,
    ) -> List[int]:
        """Fill the cycle greedily from :meth:`rank`'s order.

        At least one document is always scheduled when anything is pending,
        even if it alone exceeds the capacity -- otherwise an oversized
        document could never be delivered.
        """
        chosen: List[int] = []
        used = 0
        for doc_id in self.rank(pending, now, demand):
            cost = store.air_bytes(doc_id)
            if chosen and used + cost > capacity_bytes:
                continue
            chosen.append(doc_id)
            used += cost
            if used >= capacity_bytes:
                break
        return chosen


class FCFSScheduler(Scheduler):
    """First-come-first-served: finish the oldest query's documents first."""

    name = "fcfs"

    def rank(
        self,
        pending: Sequence["PendingQuery"],
        now: int,
        demand: DemandTable,
    ) -> List[int]:
        ordered: List[int] = []
        seen: Set[int] = set()
        for query in sorted(pending, key=lambda q: (q.arrival_time, q.query_id)):
            for doc_id in sorted(query.remaining_doc_ids):
                if doc_id not in seen:
                    seen.add(doc_id)
                    ordered.append(doc_id)
        return ordered


class MostRequestedFirstScheduler(Scheduler):
    """Pure popularity: documents wanted by the most pending queries."""

    name = "mrf"

    def rank(
        self,
        pending: Sequence["PendingQuery"],
        now: int,
        demand: DemandTable,
    ) -> List[int]:
        table = demand.snapshot(now)
        return sorted(table, key=lambda d: (-len(table[d]), d))


class RxWScheduler(Scheduler):
    """Classic RxW: popularity times the longest wait among requesters."""

    name = "rxw"

    def rank(
        self,
        pending: Sequence["PendingQuery"],
        now: int,
        demand: DemandTable,
    ) -> List[int]:
        table = demand.snapshot(now)

        def score(doc_id: int) -> float:
            queries = table[doc_id]
            longest_wait = max(now - q.arrival_time for q in queries)
            return len(queries) * max(longest_wait, 1)

        return sorted(table, key=lambda d: (-score(d), d))


_QUERY_ID = operator.attrgetter("query_id")


class LeeLoScheduler(Scheduler):
    """Completion-oriented allocation in the spirit of Lee & Lo [8].

    Each document's score sums, over the pending queries still missing it,
    the reciprocal of that query's remaining-set size.  A document that is
    the *last* missing piece of many queries scores highest; fragments of
    queries with huge remainders score low.  Ties break toward smaller
    documents (more completions per byte) and then doc id (determinism);
    the smaller-doc tie-break is why the scheduler needs the store.
    """

    name = "leelo"

    def __init__(self, store: "DocumentStore") -> None:
        self._store = store

    def rank(
        self,
        pending: Sequence["PendingQuery"],
        now: int,
        demand: DemandTable,
    ) -> List[int]:
        table = demand.snapshot(now)
        # One weight per pending query, not one division per (doc, query)
        # edge.  The per-document sum() still adds the same floats in the
        # same order, so scores are bit-identical to the per-edge form
        # (3.12's compensated sum() included; a hand-written loop is not).
        weight_of = {
            q.query_id: 1.0 / len(q.remaining_doc_ids)
            for q in pending
            if q.remaining_doc_ids
        }.__getitem__
        scores: Dict[int, float] = {}
        for doc_id, queries in table.items():
            scores[doc_id] = sum(map(weight_of, map(_QUERY_ID, queries)))

        def key(doc_id: int) -> Tuple[float, int, int]:
            return (-scores[doc_id], self._store.air_bytes(doc_id), doc_id)

        return sorted(table, key=key)


_SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    FCFSScheduler.name: FCFSScheduler,
    MostRequestedFirstScheduler.name: MostRequestedFirstScheduler,
    RxWScheduler.name: RxWScheduler,
    LeeLoScheduler.name: LeeLoScheduler,
}


def make_scheduler(name: str, store: Optional["DocumentStore"] = None) -> Scheduler:
    """Factory by name (``fcfs``, ``mrf``, ``rxw``, ``leelo``).

    The ``leelo`` scheduler requires *store* (its tie-break is
    size-aware); the others ignore it.
    """
    try:
        factory = _SCHEDULERS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}"
        ) from exc
    if name == LeeLoScheduler.name:
        if store is None:
            raise ValueError(
                "the 'leelo' scheduler needs the DocumentStore for its "
                "smaller-document tie-break; pass make_scheduler('leelo', store)"
            )
        return factory(store)
    return factory()


def scheduler_names() -> List[str]:
    return sorted(_SCHEDULERS)
