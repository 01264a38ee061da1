"""The collection table and the cycle-build caches of the broadcast server.

Every cycle's CI is a piece of one structure, the combined DataGuide of
the whole collection.  :class:`CollectionTable` holds it, one per store,
built at first use: the guide, and the guide as an index table
(:meth:`CompactIndex.from_guide <repro.index.ci.CompactIndex.from_guide>`'s
preorder rows) with per-row leaf and containing document masks.  The CI
over a requested set is the table *restricted* to it
(:class:`~repro.index.pruning.Restriction`), which the prune walk reads
as it is: nothing is merged or materialised per cycle.  Mutations follow
by their delta.  A removed document clears its bits; its rows stay, and
a row no requested document contains is never in a CI.  An added
document sets its bits on the rows of its paths; only a path the table
lacks rebuilds the table from the guide.

:class:`CycleBuildCache` carries per-server state across cycles:

* **CI layer** -- the restriction to the last requested set, returned
  as is while the set and the table stay the same;
* **Pruning-DFA cache** -- an LRU of :class:`~repro.filtering.dfa.LazyQueryDFA`
  instances keyed by the pending-query-string set, passed as
  ``prune_to_pci``'s ``dfa`` so memoised transitions survive cycles;
* **PCI cache** -- when *both* the requested set and the query set are
  unchanged, the previous cycle's pruned index (and its stats) are
  reused outright.

The caches are bypassed with the server's ``enable_caches=False`` (the
tests' from-scratch oracle); property tests hold cached and from-scratch
cycle programs byte-identical.  On ``add_document`` / ``remove_document``
(:meth:`CycleBuildCache.invalidate_collection`) the PCI is dropped exactly
when the document is in its requested set, a removed document leaves the
cached requested set, and the DFAs never move; only the argument-less
form drops every layer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.dataguide.dataguide import DataGuide
from repro.dataguide.roxsum import (
    add_document_to_guide,
    build_combined_guide,
    remove_document_from_guide,
)
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex
from repro.index.pruning import PruningStats, Restriction, prune_to_pci
from repro.xmlkit.model import XMLDocument
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.broadcast.server import DocumentStore


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


class CollectionTable:
    """A store's combined guide and its collection table, kept by delta."""

    def __init__(self, store: "DocumentStore") -> None:
        self.size_model = store.size_model
        self.guide = build_combined_guide(
            store.documents, [store.guides[doc.doc_id] for doc in store.documents]
        )
        self._tabulate()

    def _tabulate(self) -> None:
        whole = Restriction.of(
            CompactIndex.from_guide(self.guide, size_model=self.size_model)
        )
        self.index, self.leaf, self.containing = whole.index, whole.leaf, whole.containing
        #: label path -> row (``from_guide`` lays rows out in guide preorder)
        paths = self.guide.root.iter_with_paths()
        self.rows = {path: row for row, (_node, path) in enumerate(paths)}

    def restrict(self, requested: FrozenSet[int]) -> Restriction:
        """The CI over *requested*, as a restriction of the table."""
        mask = sum(1 << doc_id for doc_id in requested)
        return Restriction(self.index, self.leaf, self.containing, mask)

    def add(self, document: XMLDocument, guide: DataGuide) -> None:
        self.guide = add_document_to_guide(self.guide, document, guide)
        rows = self._rows_of(guide)
        if any(row is None for row, _leaf in rows):  # a new path: rebuild
            self._tabulate()
            return
        bit = 1 << document.doc_id
        for row, leaf in rows:
            self.containing[row] |= bit
            self.leaf[row] |= bit if leaf else 0

    def remove(self, document: XMLDocument, guide: DataGuide) -> None:
        self.guide = remove_document_from_guide(self.guide, document, guide)
        keep = ~(1 << document.doc_id)
        for row, _leaf in self._rows_of(guide):
            self.containing[row] &= keep
            self.leaf[row] &= keep

    def _rows_of(self, guide: DataGuide) -> List[Tuple[Any, bool]]:
        """``(row, leaf occurrence)`` of each of *guide*'s paths (row
        ``None`` where the table lacks the path), and the virtual root's."""
        top = (self.index.labels[0],) if self.index.virtual_root else ()
        found = [
            (self.rows.get(top + path), node.is_leaf_occurrence)
            for node, path in guide.root.iter_with_paths()
        ]
        return found + [(0, False)] if top else found


class CycleBuildCache:
    """Carries reusable cycle-build state from one broadcast cycle to the next."""

    def __init__(self, store: "DocumentStore") -> None:
        self.store = store

        # CI layer: the last requested set and its restriction
        self._ci_requested: Optional[FrozenSet[int]] = None
        self._ci: Optional[Restriction] = None
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

        Called by the server on every ``add_document`` and
        ``remove_document``.  Layers that do not depend on the document
        are kept -- the dependency rule is in the module docstring.
        Without *doc_id* every layer is dropped.
        """
        obs.counter("server.cycle_cache_invalidations_total").inc()
        if doc_id is None:
            self._ci_requested = self._ci = self._pci = None
            self._dfas.clear()
            return
        if self._pci is not None and doc_id in self._pci[0][0]:
            self._pci = None
        requested, ci = self._ci_requested, self._ci
        if requested is not None and ci is not None and doc_id in requested:
            # The store clears the document's bits in the table itself;
            # its id leaves the mask, lest a reused id slip back in.
            remaining = requested - {doc_id}
            self._ci_requested = remaining or None
            self._ci = ci._replace(mask=ci.mask & ~(1 << doc_id)) if remaining else None

    # ------------------------------------------------------------------
    # CI layer
    # ------------------------------------------------------------------

    def ci_for(self, requested: FrozenSet[int]) -> Restriction:
        """The CI over *requested*: the collection table restricted to it."""
        if not requested:
            raise ValueError("no requested documents -- nothing to index")
        table = self.store.collection
        ci = self._ci
        if ci is not None and ci.index is table.index:
            if requested == self._ci_requested:
                self._count("ci_hits", "server.ci_cache_hits_total")
                return ci
            self._count("ci_incremental", "server.ci_cache_incremental_total")
        else:
            self._count("ci_rebuilds", "server.ci_cache_rebuilds_total")
        self._ci_requested, self._ci = requested, table.restrict(requested)
        return self._ci

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
        ci: Restriction,
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
