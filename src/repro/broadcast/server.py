"""The on-demand broadcast server (paper Figure 1, Section 2.1).

The server owns the document collection, accumulates XPath queries in a
pending queue, resolves each query to its result documents (via the
filtering substrate over the collection's combined DataGuide), and emits
broadcast cycles: per cycle it

1. gathers the still-unsatisfied pending queries,
2. builds the CI over the union of their remaining result documents,
3. prunes it against the pending query set (PCI),
4. asks the scheduler which documents fill the cycle's data capacity,
5. assembles the cycle program and advances per-query bookkeeping.

:meth:`BroadcastServer.build_cycle` does step 1, decides once whether
the build is overloaded, and runs the rest as four stages: **index**
(2-3; on an overloaded build, the degradation ladder), **schedule** (4,
then hot-set forcing), **assemble** (the program of 5) and **record**
(the bookkeeping of 5, the :class:`CycleRecord` and its metrics).

Admission (:class:`Admission`, the server's ``admission``) resolves each
arriving query once and queues it with its result set; a query whose
result set is empty is rejected.

A query leaves the pending queue once every document of its result set
has been broadcast since its arrival (the client listening for it has had
the chance to download everything).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.broadcast.cycle_cache import CollectionTable, CycleBuildCache
from repro.broadcast.multichannel import check_channel_shape
from repro.broadcast.program import (
    BroadcastCycle,
    IndexScheme,
    build_cycle_program,
)
from repro.broadcast.scheduling import DemandTable, LeeLoScheduler, Scheduler
from repro.dataguide.dataguide import DataGuide, build_dataguide
from repro.dataguide.roxsum import CombinedDataGuide, build_combined_guide
from repro.filtering.nfa import SharedPathNFA, resolve_on_guide
from repro.index.ci import CompactIndex
from repro.index.pruning import PruningStats, Restriction, prune_to_pci
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import XMLDocument
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover - layering guard (control -> broadcast)
    from repro.control.plan import CyclePlan


#: LRU capacity of :class:`Admission`'s per-string resolution cache.
#: Entries outlive collection mutations (they are delta-maintained), so
#: without a cap the cache would hold every distinct string ever asked.
RESOLUTION_CACHE_SIZE = 4096


class DocumentStore:
    """The collection plus everything the server pre-computes about it.

    Per-document DataGuides and on-air sizes are immutable once built, so
    they are cached here and shared by the server, the experiments and the
    per-document baseline.  The full-collection combined guide and its
    index table (:class:`~repro.broadcast.cycle_cache.CollectionTable`)
    are built at first use and follow every mutation by its delta.
    """

    def __init__(
        self,
        documents: Sequence[XMLDocument],
        size_model: SizeModel = PAPER_SIZE_MODEL,
    ) -> None:
        if not documents:
            raise ValueError("a broadcast server needs a non-empty collection")
        self.documents: List[XMLDocument] = list(documents)
        self.size_model = size_model
        self.by_id: Dict[int, XMLDocument] = {}
        for doc in self.documents:
            if doc.doc_id in self.by_id:
                raise ValueError(f"duplicate doc id {doc.doc_id}")
            self.by_id[doc.doc_id] = doc
        self.guides: Dict[int, DataGuide] = {
            doc.doc_id: build_dataguide(doc) for doc in self.documents
        }
        self._air_bytes: Dict[int, int] = {
            doc.doc_id: size_model.document_air_bytes(doc.size_bytes)
            for doc in self.documents
        }
        self._collection: Optional[CollectionTable] = None
        #: lazily filled ``doc_id -> serialized XML bytes``; documents are
        #: immutable once in the store, so a document re-broadcast every
        #: cycle serialises once, not once per cycle
        self._serialized: Dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def collection(self) -> CollectionTable:
        """The combined guide and collection table (built at first use)."""
        if self._collection is None:
            self._collection = CollectionTable(self)
        return self._collection

    @property
    def full_guide(self) -> CombinedDataGuide:
        return self.collection.guide

    def air_bytes(self, doc_id: int) -> int:
        """On-air footprint of a document (packet aligned, with header)."""
        return self._air_bytes[doc_id]

    def serialized(self, doc_id: int) -> bytes:
        """The document's serialized UTF-8 bytes (cached)."""
        blob = self._serialized.get(doc_id)
        if blob is None:
            from repro.xmlkit.serialize import serialize_document

            blob = serialize_document(self.by_id[doc_id]).encode("utf-8")
            self._serialized[doc_id] = blob
        return blob

    # ------------------------------------------------------------------
    # Incremental collection maintenance
    # ------------------------------------------------------------------

    def add_document(self, document: XMLDocument) -> None:
        """Add a document to the live collection.

        All caches (per-document guide, air size, combined guide and
        collection table) update incrementally.
        """
        if document.doc_id in self.by_id:
            raise ValueError(f"doc id {document.doc_id} already in the store")
        guide = build_dataguide(document)
        if self._collection is not None:
            self._collection.add(document, guide)
        self.documents.append(document)
        self.by_id[document.doc_id] = document
        self.guides[document.doc_id] = guide
        self._air_bytes[document.doc_id] = self.size_model.document_air_bytes(
            document.size_bytes
        )

    def remove_document(self, doc_id: int) -> XMLDocument:
        """Remove a document from the live collection; returns it."""
        if doc_id not in self.by_id:
            raise ValueError(f"doc id {doc_id} not in the store")
        if len(self.documents) == 1:
            raise ValueError("cannot remove the last document")
        document = self.by_id[doc_id]
        if self._collection is not None:
            self._collection.remove(document, self.guides[doc_id])
        self.documents = [doc for doc in self.documents if doc.doc_id != doc_id]
        del self.by_id[doc_id]
        del self.guides[doc_id]
        del self._air_bytes[doc_id]
        self._serialized.pop(doc_id, None)
        return document

    def document(self, doc_id: int) -> XMLDocument:
        return self.by_id[doc_id]

    def total_data_bytes(self) -> int:
        """Raw serialized size of the whole collection."""
        return sum(doc.size_bytes for doc in self.documents)


@dataclass
class PendingQuery:
    """One admitted query and its delivery bookkeeping."""

    query_id: int
    query: XPathQuery
    arrival_time: int
    result_doc_ids: FrozenSet[int]
    remaining_doc_ids: Set[int] = field(default_factory=set)
    #: cycle number at which the query was first served by an index
    first_indexed_cycle: Optional[int] = None
    #: cycle number whose data segment completed the result set
    satisfied_cycle: Optional[int] = None
    satisfied_time: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.remaining_doc_ids:
            self.remaining_doc_ids = set(self.result_doc_ids)

    @property
    def is_satisfied(self) -> bool:
        return not self.remaining_doc_ids

    def satisfy(self, cycle: BroadcastCycle) -> None:
        """Stamp *cycle* as the one whose data completed the result set."""
        self.satisfied_cycle = cycle.cycle_number
        self.satisfied_time = cycle.end_time
        # A set emptied by discards keeps its table; clearing frees it.
        self.remaining_doc_ids.clear()

    @property
    def cycles_listened(self) -> Optional[int]:
        """The paper's n: cycles from first index read to completion."""
        if self.satisfied_cycle is None or self.first_indexed_cycle is None:
            return None
        return self.satisfied_cycle - self.first_indexed_cycle + 1


class Admitted(NamedTuple):
    """One submitted query's outcome (:meth:`BroadcastServer.submit_batch`)."""

    #: ``None`` when the query was rejected: its result set is empty
    pending: Optional[PendingQuery]
    #: a keyed retry: *pending* is the earlier admission, unchanged
    duplicate: bool = False


class Admission:
    """Query admission: per-query validation, the resolution LRU (kept
    right across collection mutations by their deltas), the keyed-uplink
    dedup and the query ids.  Starts empty."""

    def __init__(self, store: DocumentStore) -> None:
        self.store = store
        #: query string -> (a query with that string, its result set over
        #: the live collection); LRU, at most RESOLUTION_CACHE_SIZE entries.
        #: The representative queries let :meth:`add_document` run the
        #: cached strings over the new document alone, through their
        #: shared NFA (``None`` after a resolution or eviction changed them)
        self.resolutions: "OrderedDict[str, Tuple[XPathQuery, FrozenSet[int]]]" = (
            OrderedDict()
        )
        self._nfa: Optional[Tuple[List[str], SharedPathNFA]] = None
        #: ``(client_key, query string)`` -> that keyed admission
        self._keyed: Dict[Tuple[int, str], PendingQuery] = {}
        self.next_query_id = 0
        #: plain-int mirrors of ``server.uplink_dedup_hits_total`` and
        #: ``server.resolved_query_strings_total`` (strings resolved by a
        #: full combined-guide walk)
        self.dedup_hits = 0
        self.resolved_query_strings = 0

    def resolve(self, queries: Sequence[XPathQuery]) -> List[FrozenSet[int]]:
        """Result-document sets of *queries*, resolved in one shared pass.

        All cache-missing query strings go to one :func:`resolve_on_guide`
        call, which compiles them into a single :class:`SharedPathNFA` and
        walks the combined guide **once** -- the same shared-prefix trick
        YFilter plays, applied to admission.  Results are identical to
        query-at-a-time resolution (tested) and land in the same cache.
        """
        for query in queries:
            if query.has_predicates():
                raise ValueError(
                    "the air index is purely structural: predicate queries "
                    "are resolved for the experiments (PendingIndex) "
                    "but not by the broadcast protocol -- the paper's "
                    "experiments use simple queries without predicates "
                    "(Section 4.1)"
                )
        cache = self.resolutions
        misses: Dict[str, XPathQuery] = {}
        for query in queries:
            key = str(query)
            if key in cache:
                cache.move_to_end(key)
            else:
                misses.setdefault(key, query)
        if misses:
            with obs.span("server.query_filtering"):
                resolved = resolve_on_guide(self.store.full_guide, list(misses.values()))
            self.resolved_query_strings += len(misses)
            obs.counter("server.resolved_query_strings_total").inc(len(misses))
            for (key, query), value in zip(misses.items(), resolved):
                cache[key] = (query, value)
            self._nfa = None
        results = [cache[str(query)][1] for query in queries]
        while len(cache) > RESOLUTION_CACHE_SIZE:
            cache.popitem(last=False)
        return results

    def admit(
        self,
        queries: Sequence[XPathQuery],
        arrival_time: int,
        client_keys: Optional[Sequence[Optional[int]]],
        resolve: Callable[[Sequence[XPathQuery]], List[FrozenSet[int]]],
    ) -> List[Admitted]:
        """One :class:`Admitted` per query.  A keyed query already
        admitted under its key is a duplicate, neither resolved nor
        re-validated; the rest go to *resolve* in one call, and each
        non-empty result is admitted under the next id."""
        if client_keys is None:
            client_keys = [None] * len(queries)
        if len(client_keys) != len(queries):
            raise ValueError("client_keys must match queries one-to-one")
        out = [Admitted(self.keyed(k, q), True) for q, k in zip(queries, client_keys)]
        fresh = [position for position, done in enumerate(out) if done.pending is None]
        if len(fresh) < len(out):
            self.dedup_hits += len(out) - len(fresh)
            obs.counter("server.uplink_dedup_hits_total").inc(len(out) - len(fresh))
        if not fresh:
            return out
        first_id = self.next_query_id
        for position, result in zip(fresh, resolve([queries[p] for p in fresh])):
            pending, key = None, client_keys[position]
            if result:
                pending = PendingQuery(
                    self.next_query_id, queries[position], arrival_time, result
                )
                self.next_query_id += 1
                if key is not None:
                    self._keyed[(key, str(pending.query))] = pending
            out[position] = Admitted(pending)
        if self.next_query_id > first_id:
            obs.counter("server.queries_total").inc(self.next_query_id - first_id)
        return out

    def keyed(
        self, client_key: Optional[int], query: XPathQuery
    ) -> Optional[PendingQuery]:
        """The admission a submission of *query* under *client_key* would
        return as a duplicate (``None`` if unkeyed or new)."""
        if client_key is None:
            return None
        return self._keyed.get((client_key, str(query)))

    def forget(self, client_key: int, query: XPathQuery) -> None:
        """Drop one keyed admission: the key's next submission of *query*
        is admitted fresh."""
        del self._keyed[(client_key, str(query))]

    def add_document(self, doc_id: int) -> None:
        """The store just added *doc_id*: it joins the cached result sets
        it matches.  ``resolve(q)`` is the set of documents whose own
        DataGuide has a path *q* accepts, so one shared-NFA walk of the
        cached strings over the new document's guide finds exactly them."""
        cache = self.resolutions
        if not cache:
            return
        with obs.span("server.query_filtering"):
            if self._nfa is None:
                nfa = SharedPathNFA()
                nfa.add_queries([query for query, _docs in cache.values()])
                self._nfa = (list(cache), nfa.freeze())
            keys, nfa = self._nfa
            joined: Set[int] = set()
            for _node, accepted in nfa.trie_matches(
                (self.store.guides[doc_id].root,)
            ):
                joined |= accepted
        for query_id in joined:
            query, docs = cache[keys[query_id]]
            cache[keys[query_id]] = (query, docs | {doc_id})

    def remove_document(self, doc_id: int) -> None:
        """The store just removed *doc_id*: it leaves the cached result
        sets that contain it."""
        cache = self.resolutions
        for key, (query, docs) in cache.items():
            if doc_id in docs:
                cache[key] = (query, docs - {doc_id})


@dataclass(frozen=True)
class CycleRecord:
    """One emitted cycle: the run's only per-cycle record.

    The server appends one per build (:attr:`BroadcastServer.records`);
    a simulation's result, the JSONL trace's ``cycle`` records and the
    flight recorder's cycle entries are all this record.
    """

    cycle_number: int
    #: channel byte-time at which the cycle starts
    start_time: int
    total_bytes: int
    data_bytes: int
    pending_count: int
    requested_docs: int
    scheduled_docs: int
    pci_nodes: int
    #: the PCI's first-tier size (``pci.size_bytes(one_tier=False)``),
    #: before packing into the packet-aligned L_I segment
    pci_first_tier_bytes: int
    #: the second tier's size-model bytes, before packet alignment
    offset_list_bytes: int
    #: CI (``bytes_before``) against the aired PCI (``bytes_after``)
    pruning: PruningStats
    #: wall-clock seconds per server phase of this cycle's construction;
    #: empty unless the run was observed (``obs.observed()``)
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    #: ``None`` for a full build; ``"pci-stale"`` / ``"ci-unpruned"``
    #: when the build was overloaded and the degradation ladder ran
    degraded: Optional[str] = None

    @classmethod
    def of(
        cls,
        cycle: BroadcastCycle,
        pending_count: int,
        requested_docs: int,
        pruning: PruningStats,
        phase_seconds: Mapping[str, float],
    ) -> "CycleRecord":
        """The record of *cycle*, just built from *pending_count* active
        queries requesting *requested_docs* documents."""
        return cls(
            cycle_number=cycle.cycle_number,
            start_time=cycle.start_time,
            total_bytes=cycle.total_bytes,
            data_bytes=cycle.data_bytes,
            pending_count=pending_count,
            requested_docs=requested_docs,
            scheduled_docs=len(cycle.doc_ids),
            pci_nodes=cycle.pci.node_count,
            pci_first_tier_bytes=cycle.pci.size_bytes(one_tier=False),
            offset_list_bytes=cycle.offset_list.size_bytes,
            pruning=pruning,
            phase_seconds=phase_seconds,
            degraded=cycle.degraded,
        )

    def emit(
        self,
        registry: Union[obs.MetricsRegistry, obs.NullRegistry],
        cycle: BroadcastCycle,
        scheduler: str,
    ) -> None:
        """Count this cycle into *registry*: the record's byte and
        document totals, its assembly time, and (K > 1) *cycle*'s
        per-channel split."""
        registry.counter("server.cycles_total").inc()
        registry.counter("server.broadcast_bytes_total").inc(self.total_bytes)
        registry.counter("server.data_bytes_total").inc(self.data_bytes)
        registry.counter("server.index_bytes_total").inc(
            self.total_bytes - self.data_bytes
        )
        registry.counter("server.scheduled_docs_total").inc(self.scheduled_docs)
        registry.histogram(
            "server.cycle_assembly_seconds", scheduler=scheduler
        ).observe(self.phase_seconds["cycle_assembly"])
        # Per-channel families describe a split data segment; a K = 1
        # cycle's one channel is already data_bytes_total above.
        if cycle.num_data_channels > 1:
            for channel, span_bytes in enumerate(cycle.channel_spans):
                registry.counter(
                    "server.channel_air_bytes_total", channel=str(channel)
                ).inc(span_bytes)
                registry.counter(
                    "server.channel_docs_total", channel=str(channel)
                ).inc(len(cycle.channel_queues[channel]))
            registry.counter("server.channel_idle_bytes_total").inc(
                cycle.idle_padding_bytes
            )


class BroadcastServer:
    """On-demand XML broadcast server."""

    def __init__(
        self,
        store: DocumentStore,
        scheduler: Optional[Scheduler] = None,
        scheme: IndexScheme = IndexScheme.TWO_TIER,
        cycle_data_capacity: int = 100_000,
        acknowledged_delivery: bool = False,
        enable_caches: bool = True,
        num_data_channels: int = 1,
        channel_allocation: str = "balanced",
    ) -> None:
        if cycle_data_capacity <= 0:
            raise ValueError("cycle_data_capacity must be positive")
        check_channel_shape(
            num_data_channels,
            channel_allocation,
            two_tier=scheme is IndexScheme.TWO_TIER,
        )
        self.store = store
        self.scheduler = scheduler or LeeLoScheduler(store)
        self.scheme = scheme
        self.cycle_data_capacity = cycle_data_capacity
        #: K, the number of parallel data channels each cycle airs its
        #: documents on; 1 is the paper's single-channel program.
        #: :meth:`apply_plan` may change it between cycles.
        self.num_data_channels = num_data_channels
        #: how the schedule splits across the K channels
        #: (:data:`~repro.broadcast.multichannel.ALLOCATION_POLICIES`);
        #: every policy is the identity at K = 1
        self.channel_allocation = channel_allocation
        #: Documents promoted onto the fast-repeat channel by the adaptive
        #: control plane (:meth:`apply_plan`).  Hot documents still
        #: demanded are force-scheduled every cycle and pinned to data
        #: channel 0; empty (the default) leaves scheduling untouched.
        self.hot_doc_ids: Tuple[int, ...] = ()
        #: Incremental cycle-build caches (CI restriction, pruning-DFA
        #: LRU, PCI reuse).  With ``enable_caches=False`` (the tests'
        #: oracle) the index stage builds every CI and PCI from scratch;
        #: cycle programs are byte-identical either way (property-tested).
        self.cache: Optional[CycleBuildCache] = (
            CycleBuildCache(store) if enable_caches else None
        )
        self.admission = Admission(store)
        #: With acknowledged delivery (error-prone channel extension) the
        #: server does NOT assume broadcast means received: documents stay
        #: in a query's remaining set until :meth:`confirm_delivery`
        #: reports them received, so lost frames get rebroadcast.
        self.acknowledged_delivery = acknowledged_delivery
        #: ``None`` -> every build is a full one (the paper's server).
        #: The chaos harness sets its fault plan's overload draw here: a
        #: cycle it declares overloaded skips pruning and airs on time
        #: with the best index the degradation ladder has (stale PCI,
        #: then unpruned CI) instead of stalling.
        self.force_overload: Optional[Callable[[int], bool]] = None
        self.pending: List[PendingQuery] = []
        self.completed: List[PendingQuery] = []
        self.records: List[CycleRecord] = []
        #: plain-int mirror of ``server.degraded_cycles_total``
        self.degraded_cycles = 0
        #: doc id -> pending queries still missing it, mirrored across every
        #: remaining-set mutation; the scheduler reads it
        self.demand = DemandTable()
        self.clock = 0  # channel byte-time
        self.cycle_number = 0

    # ------------------------------------------------------------------
    # Query admission
    # ------------------------------------------------------------------

    def resolve(self, query: XPathQuery) -> FrozenSet[int]:
        """Result-document set of *query* over the full collection.

        Runs the query automaton over the combined DataGuide: the matched
        guide nodes' containment sets union to exactly the documents the
        naive evaluator returns (tested).  Cached per query string.
        """
        return self.resolve_batch([query])[0]

    def resolve_batch(
        self, queries: Sequence[XPathQuery]
    ) -> List[FrozenSet[int]]:
        """Result-document sets of *queries*, resolved in one shared pass
        (:meth:`Admission.resolve`): every resolution, admission's
        included, comes through here."""
        return self.admission.resolve(queries)

    def submit(
        self,
        query: XPathQuery,
        arrival_time: int,
        client_key: Optional[int] = None,
    ) -> PendingQuery:
        """Admit one query (:meth:`submit_batch`); ``ValueError`` when its
        result set is empty (the paper assumes non-empty result sets; the
        workload generator guarantees it)."""
        pending = self.submit_batch([query], arrival_time, [client_key])[0].pending
        if pending is None:
            raise ValueError(f"query {query} has an empty result set")
        return pending

    def submit_batch(
        self,
        queries: Sequence[XPathQuery],
        arrival_time: int,
        client_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> List[Admitted]:
        """Admit several same-time queries with one shared resolution pass,
        one :class:`Admitted` each: a query
        with an empty result set is rejected alone, and with a client key
        (unreliable-uplink extension) a retry of an admitted ``(key,
        query)`` is a duplicate, returned unchanged
        (:meth:`Admission.admit`)."""
        admitted = self.admission.admit(
            queries, arrival_time, client_keys, self.resolve_batch
        )
        for result in admitted:
            if result.pending is not None and not result.duplicate:
                self.pending.append(result.pending)
                self.demand.add_query(result.pending)
        return admitted

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------

    def active_pending(self, now: int) -> List[PendingQuery]:
        """Queries admitted by *now* and not yet satisfied."""
        return [
            q
            for q in self.pending
            if q.arrival_time <= now and not q.is_satisfied
        ]

    def build_cycle(self, now: Optional[int] = None) -> Optional[BroadcastCycle]:
        """Assemble and "broadcast" the next cycle; ``None`` when idle.

        Runs the four stages (module docstring), each fed only what the
        ones before it produced.  Advances the server clock past the
        emitted cycle and updates the pending queries' remaining sets.
        """
        if now is None:
            now = self.clock
        active = self.active_pending(now)
        if not active:
            return None
        registry = obs.get_registry()
        totals_before = registry.span_totals("server.") if registry.enabled else None
        requested = frozenset().union(*[query.remaining_doc_ids for query in active])
        overloaded = (
            self.force_overload is not None and self.force_overload(self.cycle_number)
        )
        with registry.span("server.build_cycle"):
            pci, pruning, degraded = self._index_stage(active, requested, overloaded)
            scheduled = self._schedule_stage(active, requested, now)
            cycle = self._assemble_stage(pci, scheduled, now, degraded)
        self._record_stage(cycle, active, len(requested), pruning, totals_before)
        return cycle

    def _index_stage(
        self,
        active: Sequence[PendingQuery],
        requested: FrozenSet[int],
        overloaded: bool,
    ) -> Tuple[CompactIndex, PruningStats, Optional[str]]:
        """Index: the CI over *requested*, then its PCI; returns the index
        to air, its pruning stats and the ladder rung (``None`` if none).

        An *overloaded* build skips pruning and walks down the degradation
        ladder so the cycle still airs on time.  Rung 1, **stale PCI**: the
        cache's PCI for the same query-string set, as-is (every annotation
        was a true result when pruned; clients that have not read the first
        tier defer on it).  Rung 2, **unpruned CI**: complete for the
        requested set, just bigger on air.  Neither rung is cached.
        """
        queries = [query.query for query in active]
        cache = self.cache
        with obs.span("server.ci_build"):
            if cache is not None:
                ci = cache.ci_for(requested)
            else:
                ci = Restriction.of(build_ci_from_store(self.store, requested))
        if not overloaded:
            with obs.span("server.prune_to_pci"):
                if cache is not None:
                    pci, pruning = cache.pci_for(ci, requested, queries)
                else:
                    pci, pruning = prune_to_pci(ci, queries)
            return pci, pruning, None
        with obs.span("server.degraded_build"):
            stale = cache.stale_pci(queries) if cache is not None else None
            if stale is not None:
                pci, pruning, rung = stale[0], stale[1], "pci-stale"
            else:
                pci = ci.materialise()
                pruning, rung = PruningStats.between(ci, pci), "ci-unpruned"
        self.degraded_cycles += 1
        obs.counter("server.degraded_cycles_total", mode=rung, reason="forced").inc()
        return pci, pruning, rung

    def _schedule_stage(
        self,
        active: Sequence[PendingQuery],
        requested: FrozenSet[int],
        now: int,
    ) -> List[int]:
        """Schedule: the scheduler fills K data segments, then still
        requested hot documents are forced in (:meth:`_force_hot_schedule`)."""
        with obs.span("server.scheduling"):
            # Capacity is per data channel: K parallel channels carry K
            # full data segments in the same wall-clock span.
            capacity = self.cycle_data_capacity * self.num_data_channels
            scheduled = self.scheduler.select(
                active, self.store, capacity, now, self.demand
            )
            if self.hot_doc_ids:
                scheduled = self._force_hot_schedule(scheduled, requested, capacity)
        return scheduled

    def _force_hot_schedule(
        self, scheduled: List[int], requested: FrozenSet[int], capacity: int
    ) -> List[int]:
        """Force still-requested hot documents into the schedule.

        The adaptive control plane's fast-repeat channel re-airs the hot
        set every cycle: missing hot documents are prepended (schedule
        order otherwise preserved) and the cold tail is trimmed back under
        *capacity*.  Trimmed documents are not lost -- they stay in their
        queries' remaining sets (adaptive runs use acknowledged delivery)
        and the scheduler re-picks them as their wait grows, so the cold
        set rotates.  Which channel airs them is
        :func:`~repro.broadcast.multichannel.allocate_channels`' call.
        """
        on_air = set(scheduled)
        missing = [d for d in self.hot_doc_ids if d in requested and d not in on_air]
        if not missing:
            return scheduled
        schedule = missing + scheduled
        total = sum(self.store.air_bytes(d) for d in schedule)
        hot = set(self.hot_doc_ids)
        # Trim cold documents from the tail until the schedule fits; hot
        # documents are never trimmed (they are why we are here).
        position = len(schedule) - 1
        while total > capacity and position >= 0:
            doc_id = schedule[position]
            if doc_id not in hot:
                total -= self.store.air_bytes(doc_id)
                del schedule[position]
            position -= 1
        obs.counter("server.hot_forced_docs_total").inc(len(missing))
        return schedule

    def _assemble_stage(
        self,
        pci: CompactIndex,
        scheduled: List[int],
        now: int,
        degraded: Optional[str],
    ) -> BroadcastCycle:
        """Assemble: the program airing *pci* and *scheduled* from *now*,
        split across the channels by the allocation policy (which reads
        the demand sets under ``"demand"``) and the hot set."""
        with obs.span("server.cycle_assembly"):
            demand_sets = None
            if self.channel_allocation == "demand":
                demand_sets = {
                    doc_id: frozenset(q.query_id for q in queries_for)
                    for doc_id, queries_for in self.demand.items_for(now)
                }
            cycle = build_cycle_program(
                cycle_number=self.cycle_number,
                pci=pci,
                scheduled_doc_ids=scheduled,
                store=self.store,
                scheme=self.scheme,
                num_channels=self.num_data_channels,
                allocation=self.channel_allocation,
                demand_sets=demand_sets,
                hot_doc_ids=self.hot_doc_ids,
            )
        cycle.start_time = now
        cycle.degraded = degraded
        return cycle

    def _record_stage(
        self,
        cycle: BroadcastCycle,
        active: Sequence[PendingQuery],
        requested_docs: int,
        pruning: PruningStats,
        totals_before: Optional[Dict[str, Tuple[int, float]]],
    ) -> None:
        """Record: stamp first reads, retire what broadcast delivered
        (unless delivery is acknowledged), reap, append the
        :class:`CycleRecord` and, when observed, emit its metrics."""
        for query in active:
            if query.first_indexed_cycle is None:
                query.first_indexed_cycle = cycle.cycle_number
        if not self.acknowledged_delivery:  # broadcast counts as received
            for doc_id in cycle.doc_ids:
                for query in self.demand.pop(doc_id, cycle.start_time):
                    remaining = query.remaining_doc_ids
                    remaining.discard(doc_id)
                    if not remaining:
                        query.satisfy(cycle)
        self._reap_satisfied()
        registry = obs.get_registry()
        phase_seconds: Dict[str, float] = {}
        if totals_before is not None:  # else unobserved: no metric work
            # This cycle's share of every server span (the nested ones in
            # assembly included): the aggregate totals diffed around it.
            for name, (count, total) in registry.span_totals("server.").items():
                before_count, before_total = totals_before.get(name, (0, 0.0))
                if count > before_count and name != "server.build_cycle":
                    phase_seconds[name[len("server."):]] = total - before_total
        record = CycleRecord.of(cycle, len(active), requested_docs, pruning, phase_seconds)
        if totals_before is not None:
            record.emit(registry, cycle, self.scheduler.name)
        self.records.append(record)
        self.cycle_number += 1
        self.clock = cycle.end_time

    def apply_plan(self, plan: "CyclePlan") -> None:
        """Apply an adaptive control-plane plan to the next builds.

        Mutates the channel count, allocation policy and hot set between
        cycles.
        """
        check_channel_shape(
            plan.num_channels,
            plan.allocation,
            two_tier=self.scheme is IndexScheme.TWO_TIER,
            hot=bool(plan.hot_doc_ids),
        )
        self.num_data_channels = plan.num_channels
        self.channel_allocation = plan.allocation
        self.hot_doc_ids = tuple(plan.hot_doc_ids)

    # ------------------------------------------------------------------
    # Live collection changes
    # ------------------------------------------------------------------

    def add_document(self, document: XMLDocument) -> None:
        """Add a document to the broadcast collection between cycles.

        Every derived structure follows by the delta: the resolution cache
        (:meth:`Admission.add_document`) and the cycle-build caches, which
        are told which document changed and keep every layer that does
        not depend on it (a brand-new document is in no cached requested
        set; see :mod:`repro.broadcast.cycle_cache`).  Already-admitted
        queries keep their admission-time result sets, exactly as a real
        server that resolved them on arrival would.
        """
        self.store.add_document(document)
        if self.cache is not None:
            self.cache.invalidate_collection(document.doc_id)
        self.admission.add_document(document.doc_id)

    def remove_document(self, doc_id: int) -> XMLDocument:
        """Remove a document; pending queries stop waiting for it.

        Any pending query whose remaining set contained the document has
        it dropped (it can never be broadcast again); queries fully
        satisfied by the removal leave the queue.  A query satisfied this
        way gets a ``satisfied_time`` stamp, but ``satisfied_cycle`` only
        if some cycle actually served it (``first_indexed_cycle`` set) --
        a query whose whole result set vanished before it was ever
        indexed was never broadcast-satisfied, so its ``cycles_listened``
        stays ``None`` instead of reporting a bogus pre-arrival cycle.

        Cached resolutions survive: the document is subtracted from the
        result sets that contain it (:meth:`Admission.remove_document`).
        """
        document = self.store.remove_document(doc_id)
        if self.cache is not None:
            self.cache.invalidate_collection(doc_id)
        self.admission.remove_document(doc_id)
        self.demand.discard_doc(doc_id)
        for pending in self.pending:
            if doc_id in pending.result_doc_ids:  # else keep the shared set
                pending.result_doc_ids = pending.result_doc_ids - {doc_id}
            pending.remaining_doc_ids.discard(doc_id)
            if pending.is_satisfied and pending.satisfied_time is None:
                pending.satisfied_time = self.clock
                if pending.first_indexed_cycle is not None:
                    pending.satisfied_cycle = self.cycle_number - 1
        self._reap_satisfied()
        return document

    def confirm_delivery(
        self,
        pending: Union[PendingQuery, Sequence[PendingQuery]],
        received_doc_ids: Set[int],
        cycle: BroadcastCycle,
    ) -> None:
        """Uplink ACK: the clients of *pending* (one query, or a row's
        queries) hold exactly *received_doc_ids*.  Each remaining set
        becomes the result set minus that, so erased frames stay
        scheduled and what an earlier ACK covered but this one omits
        comes back; a document removed since admission stays dropped
        (even if its id is reused).  The ACK that empties a set stamps it.
        """
        if not self.acknowledged_delivery:
            raise RuntimeError("confirm_delivery requires acknowledged_delivery=True")
        for query in (pending,) if isinstance(pending, PendingQuery) else pending:
            result, remaining = query.result_doc_ids, query.remaining_doc_ids
            before = len(remaining)
            delivered = remaining & received_doc_ids
            # A satisfied query is final; else no earlier ACK (len(result)
            # - before) is omitted if, besides the new ones, that many came.
            if 0 < before < len(result) and not (
                len(received_doc_ids) - len(delivered) == len(result) - before
                and received_doc_ids <= result
            ):
                restored = result.difference(remaining, received_doc_ids)
                remaining |= restored
                self.demand.add(query, restored)
            query.remaining_doc_ids = remaining = remaining - delivered
            self.demand.drop(query, delivered)
            if before and not remaining:
                query.satisfy(cycle)
                at = next((i for i, q in enumerate(self.pending) if q is query), None)
                if at is not None:  # move it alone, no rescan
                    self.completed.append(self.pending.pop(at))

    def _reap_satisfied(self) -> None:
        newly_done = [q for q in self.pending if q.is_satisfied]
        if newly_done:
            self.completed.extend(newly_done)
            self.pending = [q for q in self.pending if not q.is_satisfied]


def build_ci_from_store(
    store: DocumentStore, requested_doc_ids: Iterable[int]
) -> CompactIndex:
    """CI over the requested documents, reusing the store's cached guides."""
    requested = sorted(set(requested_doc_ids))
    if not requested:
        raise ValueError("no requested documents -- nothing to index")
    subset = [store.by_id[doc_id] for doc_id in requested]
    guides = [store.guides[doc_id] for doc_id in requested]
    guide = build_combined_guide(subset, guides)
    return CompactIndex.from_guide(guide, size_model=store.size_model)
