"""One index search for a whole query set: per-row query masks.

:meth:`CompactIndex.lookup <repro.index.ci.CompactIndex.lookup>` walks
an index table once under a compiled query set
(:class:`~repro.filtering.dfa.LazyQueryDFA`) and records it as a
:class:`RowMasks`: per row, an int whose bit ``q`` is set when query
``q`` reads the row, and every accepting row with the mask of the
queries accepting there.  A :class:`LookupResult` is that record seen
through one query mask -- one query's bit, or every query's (the union,
which is what a one-query search is) -- and derives the search's
documents, matches and visited rows only when they are read.

The simulator walks each cycle's PCI once for its whole audience and
hands every client its own query's view.  What a client charges for --
the packets its rows occupy -- comes from the rows grouped by who reads
them, once per walk: each packing maps every group to its packets once,
and a query's packets are the union of its groups'.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - the index layer imports this module
    from repro.index.packing import PackedIndex


class RowMasks:
    """The record of one walk over an index table.

    ``masks[i]`` holds the queries that read row ``i``: those still live
    where the walk reached it, plus -- maximal layout, where a match's
    documents sit anywhere in its subtree -- those that accepted a row
    above it.  ``matches`` lists ``(row, queries accepting there)`` for
    every accepting row; ``ends`` and ``doc_ids`` are the searched
    table's columns, and ``everyone`` is the mask of the whole set.
    """

    def __init__(
        self,
        masks: List[int],
        matches: List[Tuple[int, int]],
        ends: Sequence[int],
        doc_ids: Sequence[Tuple[int, ...]],
        containment: bool,
        everyone: int,
    ) -> None:
        self.masks = masks
        self.matches = matches
        self.ends = ends
        self.doc_ids = doc_ids
        self.containment = containment
        self.everyone = everyone
        #: the read rows grouped by who reads them (readers -> rows), and
        #: per query id the positions of its groups; made at the first
        #: packet question
        self._groups: Optional[Dict[int, List[int]]] = None
        self._groups_of_query: List[List[int]] = []
        #: per packing, each group's packets
        self._packets: Dict[Tuple[object, bool], List[FrozenSet[int]]] = {}

    def packets(self, packed: "PackedIndex", mask: int) -> FrozenSet[int]:
        """Packets of *packed* that the queries of *mask* read."""
        if self._groups is None:
            self._groups, self._groups_of_query = self._group_rows()
        key = (packed.strategy, packed.one_tier)
        packets = self._packets.get(key)
        if packets is None:
            packets = self._packets[key] = [
                packed.packets_for_nodes(rows) for rows in self._groups.values()
            ]
        if mask and mask & (mask - 1) == 0:  # one query
            groups = self._groups_of_query[mask.bit_length() - 1]
        else:
            groups = [at for at, readers in enumerate(self._groups) if readers & mask]
        return frozenset().union(*[packets[at] for at in groups])

    def packet_counts(
        self, packed: "PackedIndex", query_ids: Sequence[int]
    ) -> List[int]:
        """How many packets of *packed* each of *query_ids* reads.

        One pass ORs each read row's readers into the packets carrying
        it, and the packets' reader masks are summed bit-sliced: plane
        ``k`` holds bit ``k`` of every query's count, so a query's count
        is its bit in each of about log2(packets) planes.
        """
        masks, packets_of = self.masks, packed.packet_of_node
        readers = [0] * packed.packet_count
        for row in compress(range(len(masks)), masks):
            mask = masks[row]
            for packet in packets_of[row]:
                readers[packet] |= mask
        planes: List[int] = []
        for carry in readers:  # ripple-carry add of one packet's readers
            for k, plane in enumerate(planes):
                planes[k], carry = plane ^ carry, plane & carry
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        return [
            sum(((plane >> q) & 1) << k for k, plane in enumerate(planes))
            for q in query_ids
        ]

    def _group_rows(self) -> Tuple[Dict[int, List[int]], List[List[int]]]:
        # Rows with the same readers (a matched subtree, a path every query
        # shares) travel together, so one pass over the distinct reader
        # sets hands each group to every query reading it: the work is the
        # answers' size, not queries x rows, and each packing then maps
        # every group to packets once.
        masks = self.masks
        groups: Dict[int, List[int]] = {}
        for row in compress(range(len(masks)), masks):  # rows anyone reads
            readers = masks[row]
            rows = groups.get(readers)
            if rows is None:
                groups[readers] = [row]
            else:
                rows.append(row)
        of_query: List[List[int]] = [[] for _ in range(self.everyone.bit_length())]
        for at, readers in enumerate(groups):
            while readers:
                bit = readers & -readers
                of_query[bit.bit_length() - 1].append(at)
                readers ^= bit
        return groups, of_query


class LookupResult:
    """Outcome of an index search, for one query or a query set.

    ``visited_node_ids`` are the nodes a client actually reads: the
    navigation walk (every node whose configuration is still live) plus
    the full subtrees of matched nodes (document annotations may sit
    anywhere below a match).  Tuning-time accounting maps these node ids
    to packets.  The three fields are derived from the walk on first read;
    two results are equal when the three are.
    """

    __slots__ = (
        "_walk", "_mask", "_doc_ids", "_matched", "_visited", "_packets", "_views"
    )

    def __init__(self, walk: RowMasks, mask: int) -> None:
        self._walk = walk
        self._mask = mask
        self._doc_ids: Optional[Tuple[int, ...]] = None
        self._matched: Optional[FrozenSet[int]] = None
        self._visited: Optional[FrozenSet[int]] = None
        #: :meth:`packets_in` memo, by packing
        self._packets: Dict[Tuple[object, bool], FrozenSet[int]] = {}
        #: :meth:`for_query` memo.  Views point at the walk and never the
        #: walk at them: a reference cycle would outlive the cycle on air
        #: until a full collection.
        self._views: Dict[int, LookupResult] = {}

    def for_query(self, query_id: int) -> "LookupResult":
        """The view of query *query_id* (its id in the compiled set) of
        the same walk, one object however often it is asked for."""
        view = self._views.get(query_id)
        if view is None:
            view = self._views[query_id] = LookupResult(self._walk, 1 << query_id)
        return view

    @property
    def matched_node_ids(self) -> FrozenSet[int]:
        if self._matched is None:
            mask = self._mask
            self._matched = frozenset(
                row for row, accepting in self._walk.matches if accepting & mask
            )
        return self._matched

    @property
    def doc_ids(self) -> Tuple[int, ...]:
        if self._doc_ids is None:
            walk = self._walk
            docs_at, docs = walk.doc_ids, set()
            if walk.containment:  # a match carries its full result set
                for row in self.matched_node_ids:
                    docs.update(docs_at[row])
            else:
                end = 0
                # Preorder: a match inside a subtree already read adds nothing.
                for row in sorted(self.matched_node_ids):
                    if row >= end:
                        end = walk.ends[row]
                        docs.update(*docs_at[row:end])
            self._doc_ids = tuple(sorted(docs))
        return self._doc_ids

    @property
    def visited_node_ids(self) -> FrozenSet[int]:
        if self._visited is None:
            mask = self._mask
            self._visited = frozenset(
                row for row, readers in enumerate(self._walk.masks) if readers & mask
            )
        return self._visited

    def packets_in(self, packed: "PackedIndex") -> FrozenSet[int]:
        """Distinct packets of *packed* the visited nodes touch.

        *packed* must pack the index that was searched (node ids mean
        nothing elsewhere), so strategy and layout identify it here.  The
        walk maps its reader groups to a packing's packets once for all
        its queries, and each view keeps its own answer: every client of
        a query string is handed the same view.
        """
        key = (packed.strategy, packed.one_tier)
        packets = self._packets.get(key)
        if packets is None:
            packets = self._packets[key] = self._walk.packets(packed, self._mask)
        return packets

    def packet_counts(
        self, packed: "PackedIndex", query_ids: Sequence[int]
    ) -> List[int]:
        """Per query of the searched set, its packets of *packed*: see
        :meth:`RowMasks.packet_counts`."""
        return self._walk.packet_counts(packed, query_ids)

    def _fields(self) -> Tuple[Tuple[int, ...], FrozenSet[int], FrozenSet[int]]:
        return self.doc_ids, self.matched_node_ids, self.visited_node_ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LookupResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        doc_ids, matched, visited = self._fields()
        return (
            f"LookupResult(doc_ids={doc_ids!r}, matched_node_ids={matched!r}, "
            f"visited_node_ids={visited!r})"
        )
