"""Incremental cycle-build caches for the broadcast server.

Consecutive on-demand broadcast cycles overlap heavily: most pending
queries survive from one cycle to the next, so the requested document
set and the pending query set change only at the margins.  The seed
implementation nevertheless rebuilt everything from scratch each cycle
-- re-merging the requested documents' DataGuides into a fresh CI,
compiling a fresh pruning DFA, and re-pruning an unchanged index.

:class:`CycleBuildCache` removes that repeated work with three layers:

* **CI cache** -- the last cycle's combined guide is kept and the *delta*
  of requested doc ids is applied through the incremental RoXSum
  machinery (:func:`~repro.dataguide.roxsum.add_document_to_guide` /
  :func:`~repro.dataguide.roxsum.remove_document_from_guide`).  When the
  delta exceeds :data:`REBUILD_THRESHOLD` (as a fraction of the new
  request set) a full re-merge is cheaper and is used instead.
* **Pruning-DFA cache** -- an LRU of :class:`~repro.filtering.dfa.LazyQueryDFA`
  instances keyed by the frozen pending-query-string set, wired through
  ``prune_to_pci``'s ``dfa`` parameter so memoised subset-construction
  transitions survive across cycles.
* **PCI cache** -- when *both* the requested set and the query set are
  unchanged, the previous cycle's pruned index (and its stats) are
  reused outright.

Every layer is observable (``server.*_cache_*`` counters plus spans) and
falsifiable: the caches are bypassed entirely with the server's
``enable_caches=False`` (the tests' from-scratch oracle), and property
tests assert cached and from-scratch cycle programs are byte-identical.

Live collection mutations are followed by their delta, not by a flush.
``BroadcastServer.add_document`` / ``remove_document`` make one call,
:meth:`CycleBuildCache.invalidate_collection` with the mutated doc id,
and each layer moves only if it depends on that document:

* the **CI** depends on the per-document guides of its *requested set*
  and on nothing else.  A document outside that set -- every brand-new
  document, every removal of a document nobody is waiting for -- leaves
  it untouched; a removed document inside it is unmerged from the cached
  guide (the server calls before the store forgets the document, so its
  per-document guide is still there);
* the **PCI** depends on the CI's requested set plus the query-string
  set; it is dropped exactly when the document is in its requested set;
* the **DFAs** depend on query strings only and never move.

Only the argument-less form drops every layer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Sequence, Tuple

from repro import obs
from repro.dataguide.roxsum import (
    CombinedDataGuide,
    add_document_to_guide,
    build_combined_guide,
    remove_document_from_guide,
)
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex
from repro.index.pruning import PruningStats, prune_to_pci
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.broadcast.server import DocumentStore


#: incremental CI maintenance is abandoned for a full re-merge when
#: ``|added| + |removed| > REBUILD_THRESHOLD * |requested|``
REBUILD_THRESHOLD = 0.5

#: LRU capacity of the pruning-DFA layer (distinct pending query sets)
DFA_CACHE_SIZE = 16

#: Frozen set of query strings -- the cache key of the DFA/PCI layers.
QueryKey = FrozenSet[str]
#: The PCI layer's key: the requested document set and the query key.
PCIKey = Tuple[FrozenSet[int], QueryKey]


def query_key_of(queries: Sequence[XPathQuery]) -> QueryKey:
    """The DFA/PCI cache key of a pending query list.

    Keyed by query *string*: two pending queries with equal text prune
    identically, and the order queries were admitted in is irrelevant to
    the accepting/live predicates pruning consults.
    """
    return frozenset(str(query) for query in queries)


class CycleBuildCache:
    """Carries reusable cycle-build state from one broadcast cycle to the next."""

    def __init__(self, store: "DocumentStore") -> None:
        self.store = store

        # CI layer
        self._ci_requested: Optional[FrozenSet[int]] = None
        self._ci_guide: Optional[CombinedDataGuide] = None
        self._ci_index: Optional[CompactIndex] = None
        # DFA layer (LRU, most-recently-used last)
        self._dfas: "OrderedDict[QueryKey, LazyQueryDFA]" = OrderedDict()
        # PCI layer: (requested set, query-string set), its PCI and stats
        self._pci: Optional[Tuple[PCIKey, CompactIndex, PruningStats]] = None

        #: plain-int mirror of the obs counters so tests and benchmarks can
        #: assert cache behaviour without enabling a registry
        self.stats: Dict[str, int] = {
            "ci_hits": 0,
            "ci_incremental": 0,
            "ci_rebuilds": 0,
            "dfa_hits": 0,
            "dfa_misses": 0,
            "pci_hits": 0,
            "pci_misses": 0,
            "pci_stale_served": 0,
        }

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate_collection(self, doc_id: Optional[int] = None) -> None:
        """Follow a live collection mutation of document *doc_id*.

        Called by the server on every ``add_document`` (after the store
        took the document in) and ``remove_document`` (*before* the store
        forgets it: unmerging needs its per-document guide).  Layers that
        do not depend on the document are kept -- the dependency rule is
        in the module docstring.  Without *doc_id* every layer is dropped.
        """
        obs.counter("server.cycle_cache_invalidations_total").inc()
        if doc_id is None:
            self._drop_ci()
            self._pci = None
            self._dfas.clear()
            return
        if self._pci is not None and doc_id in self._pci[0][0]:
            self._pci = None
        if self._ci_requested is not None and doc_id in self._ci_requested:
            remaining = self._ci_requested - {doc_id}
            guide = self.store.guides.get(doc_id)
            if self._ci_guide is None or guide is None or not remaining:
                self._drop_ci()
            else:
                self._ci_guide = remove_document_from_guide(
                    self._ci_guide, self.store.by_id[doc_id], guide
                )
                self._ci_requested = remaining
                self._ci_index = None

    def _drop_ci(self) -> None:
        self._ci_requested = None
        self._ci_guide = None
        self._ci_index = None

    # ------------------------------------------------------------------
    # CI layer
    # ------------------------------------------------------------------

    def ci_for(self, requested: FrozenSet[int]) -> CompactIndex:
        """The CI over *requested*, reusing last cycle's guide when possible."""
        if not requested:
            raise ValueError("no requested documents -- nothing to index")
        if self._ci_index is not None and requested == self._ci_requested:
            self._count("ci_hits", "server.ci_cache_hits_total")
            return self._ci_index

        guide = self._incremental_guide(requested)
        if guide is None:
            with obs.span("server.ci_full_merge"):
                ordered = sorted(requested)
                guide = build_combined_guide(
                    [self.store.by_id[doc_id] for doc_id in ordered],
                    [self.store.guides[doc_id] for doc_id in ordered],
                )
            self._count("ci_rebuilds", "server.ci_cache_rebuilds_total")
        else:
            self._count("ci_incremental", "server.ci_cache_incremental_total")

        index = CompactIndex.from_guide(guide, size_model=self.store.size_model)
        self._ci_requested = requested
        self._ci_guide = guide
        self._ci_index = index
        return index

    def _incremental_guide(
        self, requested: FrozenSet[int]
    ) -> Optional[CombinedDataGuide]:
        """Apply the request-set delta to the cached guide; ``None`` when a
        full rebuild is the better (or only) option."""
        cached_set, guide = self._ci_requested, self._ci_guide
        if cached_set is None or guide is None:
            return None
        added = requested - cached_set
        removed = cached_set - requested
        if len(added) + len(removed) > REBUILD_THRESHOLD * len(requested):
            return None
        with obs.span("server.ci_incremental_apply"):
            # Additions first: the guide then always covers ``requested``,
            # so removals can never empty it mid-way.
            for doc_id in sorted(added):
                guide = add_document_to_guide(
                    guide, self.store.by_id[doc_id], self.store.guides[doc_id]
                )
            for doc_id in sorted(removed):
                guide = remove_document_from_guide(
                    guide, self.store.by_id[doc_id], self.store.guides[doc_id]
                )
        return guide

    # ------------------------------------------------------------------
    # DFA layer
    # ------------------------------------------------------------------

    def dfa_for(
        self, key: QueryKey, queries: Sequence[XPathQuery]
    ) -> LazyQueryDFA:
        """The pruning DFA of a pending query set (LRU-cached by string set)."""
        dfa = self._dfas.get(key)
        if dfa is not None:
            self._dfas.move_to_end(key)
            self._count("dfa_hits", "server.dfa_cache_hits_total")
            return dfa
        # One query per string: pruning reads only whether some query
        # accepts or stays live, never which, so duplicates add nothing.
        distinct = {str(query): query for query in queries}
        dfa = LazyQueryDFA.from_queries(list(distinct.values()))
        self._dfas[key] = dfa
        while len(self._dfas) > DFA_CACHE_SIZE:
            self._dfas.popitem(last=False)
        self._count("dfa_misses", "server.dfa_cache_misses_total")
        return dfa

    # ------------------------------------------------------------------
    # PCI layer
    # ------------------------------------------------------------------

    def pci_for(
        self,
        ci: CompactIndex,
        requested: FrozenSet[int],
        queries: Sequence[XPathQuery],
    ) -> Tuple[CompactIndex, PruningStats]:
        """Prune *ci* against *queries*, reusing last cycle's PCI when both
        the requested set and the query-string set are unchanged."""
        key = (requested, query_key_of(queries))
        if self._pci is not None and key == self._pci[0]:
            self._count("pci_hits", "server.pci_cache_hits_total")
            return self._pci[1], self._pci[2]
        pci, stats = prune_to_pci(ci, queries, dfa=self.dfa_for(key[1], queries))
        self._pci = (key, pci, stats)
        self._count("pci_misses", "server.pci_cache_misses_total")
        return pci, stats

    def stale_pci(
        self, queries: Sequence[XPathQuery]
    ) -> Optional[Tuple[CompactIndex, PruningStats]]:
        """Last cycle's PCI *iff* it was pruned for the same query-string
        set -- the requested set may have moved on (that is what makes it
        stale).  Used by the server's overload degradation ladder; never
        updates the cache.  ``None`` when no such PCI is held (cold
        cache, different query set, or a collection mutation dropped it).
        """
        if self._pci is None or self._pci[0][1] != query_key_of(queries):
            return None
        self._count("pci_stale_served", "server.pci_cache_stale_served_total")
        return self._pci[1], self._pci[2]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count(self, stat: str, metric: str) -> None:
        self.stats[stat] += 1
        obs.counter(metric).inc()
