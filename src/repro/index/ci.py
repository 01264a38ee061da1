"""The Compact Index (CI) -- paper Section 3.1.

A CI is the combined DataGuide of a document set materialised as one
table of rows in depth-first preorder -- the form it has on air, so the
row number is the node id is the on-air position -- with document
annotations at maximal paths.  The table is the only form: the guide
conversion, pruning and the decoder emit rows through
:class:`~repro.index.nodes.RowBuilder`, and size accounting, packing,
the encoder and the search read the columns.  There is no node object
and no parent link; a subtree is an id range.
``CompactIndex.lookup`` reproduces the client-side index
search: descend from the root following viable entries, and at every node
the query accepts, collect the document annotations of the whole subtree
(the running example's q1 hits leaf n4 and reads d1, d2 directly).  One
walk serves a whole compiled query set, recording per row which queries
read it (:mod:`repro.filtering.masks`).

:func:`build_full_ci` is the CI over a whole collection (Section 3.1).
The server airs the CI over the *requested* documents only (Section 3.2):
its collection table restricted to them (:mod:`repro.broadcast.cycle_cache`).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.dataguide.roxsum import (
    CombinedDataGuide,
    CombinedGuideNode,
    build_combined_guide,
)
from repro.filtering.dfa import LazyQueryDFA
from repro.filtering.masks import LookupResult, RowMasks
from repro.index.nodes import RowBuilder
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import XMLDocument
from repro.xpath.ast import XPathQuery


#: How document annotations are laid out in an index tree.
#:
#: * ``"maximal"`` (the default, used by CI and the standard PCI): each
#:   document is annotated at its maximal paths; a lookup collects the
#:   matched nodes' *subtrees*.
#: * ``"containment"``: every accepting node carries its full containment
#:   set; a lookup reads the matched nodes *only* (no subtree walk).  Used
#:   by the alternative pruning mode for the annotation-scheme ablation.
AnnotationScheme = str

#: A hand-written tree for :meth:`CompactIndex.from_nested`:
#: ``(label, doc_ids, [children])``, each child nested the same way.
Nested = Tuple[str, Sequence[int], Sequence[Any]]


class CompactIndex:
    """A CI/PCI as one preorder table, with size accounting and
    client-side lookup.

    Row ``i`` is node ``i`` is the ``i``-th node on air: ``labels[i]``,
    ``doc_ids[i]`` (sorted), ``ends[i]`` (where its subtree stops, so a
    subtree is the id range ``i .. ends[i]``) and ``children[i]`` (child
    ids, derived from ``ends``).  Nothing writes to a table once it is
    constructed.
    """

    def __init__(
        self,
        rows: RowBuilder,
        size_model: SizeModel = PAPER_SIZE_MODEL,
        virtual_root: bool = False,
        annotation: AnnotationScheme = "maximal",
        validate: bool = True,
    ) -> None:
        if annotation not in ("maximal", "containment"):
            raise ValueError("annotation must be 'maximal' or 'containment'")
        self.size_model = size_model
        self.virtual_root = virtual_root
        self.annotation = annotation
        self.labels = rows.labels
        self.doc_ids = rows.doc_ids
        self.ends = ends = rows.ends
        # Internal builders (guide conversion, pruning) emit rows that are
        # correct by construction and pass ``validate=False`` to skip the
        # checking walk; anything built from external bytes or by hand
        # keeps the default.
        if validate:
            self._validate()
        self.children: List[Tuple[int, ...]] = []
        for node_id, end in enumerate(ends):
            child_ids = []
            child = node_id + 1
            while child < end:  # hop from sibling to sibling
                child_ids.append(child)
                child = ends[child]
            self.children.append(tuple(child_ids))
        self._total_doc_entries = sum(map(len, self.doc_ids))
        # The packer, the encoder and the program signature each read a
        # PCI's whole-table forms: memoise them.
        self._node_sizes: Dict[bool, array] = {}
        self._tree_form: Optional[Tuple] = None

    def _validate(self) -> None:
        """Structural sanity checks on rows built outside this package.

        * the rows are one tree: the root spans the table and every other
          subtree ends inside its parent's,
        * child labels are unique per node,
        * doc id tuples are sorted and duplicate-free.
        """
        labels, ends = self.labels, self.ends
        if not len(ends) == len(labels) == len(self.doc_ids):
            raise ValueError("index columns differ in length")
        if not ends or ends[0] != len(ends):
            raise ValueError("the root row must span the whole table")
        #: innermost last: (end, child labels seen) of each row still open,
        #: below a frame standing for the table itself
        open_rows: List[Tuple[int, Set[str]]] = [(len(ends), set())]
        for node_id, (label, docs, end) in enumerate(zip(labels, self.doc_ids, ends)):
            while open_rows[-1][0] <= node_id:
                open_rows.pop()
            parent_end, seen = open_rows[-1]
            if not node_id < end <= parent_end:
                raise ValueError(
                    f"node {node_id} ({label!r}) ends at {end}, outside its "
                    f"parent's subtree ({node_id}, {parent_end}]"
                )
            if label in seen:
                raise ValueError(f"duplicate child label {label!r} at node {node_id}")
            seen.add(label)
            if list(docs) != sorted(set(docs)):
                raise ValueError(
                    f"node {label!r} has unsorted or duplicated doc ids: {docs}"
                )
            open_rows.append((end, set()))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_guide(
        cls,
        guide: CombinedDataGuide,
        size_model: SizeModel = PAPER_SIZE_MODEL,
    ) -> "CompactIndex":
        """Materialise a combined guide as an index table."""
        rows = RowBuilder()
        # Guide nodes still to open, nearest last; an int is a row whose
        # subtree is complete.
        pending: List[Union[CombinedGuideNode, int]] = [guide.root]
        while pending:
            item = pending.pop()
            if type(item) is int:
                rows.close(item)
                continue
            pending.append(rows.open(item.label, tuple(sorted(item.leaf_docs))))
            children = item.children
            pending.extend(
                [children[label] for label in sorted(children, reverse=True)]
            )
        # Correct by construction: sorted unique child labels, sorted doc
        # ids, nested extents -- skip the validation walk.
        return cls(
            rows,
            size_model=size_model,
            virtual_root=guide.virtual_root,
            validate=False,
        )

    @classmethod
    def from_nested(
        cls,
        nested: Nested,
        size_model: SizeModel = PAPER_SIZE_MODEL,
        virtual_root: bool = False,
        annotation: AnnotationScheme = "maximal",
    ) -> "CompactIndex":
        """Build (and validate) a hand-written ``(label, doc_ids,
        [children])`` tree, children in the order given."""
        rows = RowBuilder()
        pending: List[Union[Nested, int]] = [nested]
        while pending:
            item = pending.pop()
            if type(item) is int:
                rows.close(item)
                continue
            label, doc_ids, children = item
            pending.append(rows.open(label, tuple(doc_ids)))
            pending.extend(reversed(children))
        return cls(
            rows,
            size_model=size_model,
            virtual_root=virtual_root,
            annotation=annotation,
        )

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.ends)

    def total_doc_entries(self) -> int:
        """Total ``<doc, pointer>`` entries across all nodes."""
        return self._total_doc_entries

    def annotated_doc_ids(self) -> FrozenSet[int]:
        """All documents the index can locate."""
        return frozenset().union(*self.doc_ids)

    def node_sizes(self, one_tier: bool) -> array:
        """Per-node serialized sizes, indexed by node id (cached).

        ``header + children*child_entry + docs*doc_entry`` per row; the
        packer and encoder iterate this.
        """
        cached = self._node_sizes.get(one_tier)
        if cached is None:
            model = self.size_model
            header = model.node_header_bytes
            child_entry = model.child_entry_bytes
            doc_entry = (
                model.doc_entry_one_tier_bytes
                if one_tier
                else model.doc_entry_first_tier_bytes
            )
            cached = array(
                "i",
                [
                    header + len(child_ids) * child_entry + len(docs) * doc_entry
                    for child_ids, docs in zip(self.children, self.doc_ids)
                ],
            )
            self._node_sizes[one_tier] = cached
        return cached

    def size_bytes(self, one_tier: bool = True) -> int:
        """Total serialized index size (one-tier or first-tier layout)."""
        return self.size_model.tree_bytes(
            len(self.ends), self._total_doc_entries, one_tier=one_tier
        )

    def tree_form(self) -> Tuple:
        """Canonical ``(id, label, doc_ids, child_count)`` preorder (cached).

        This is the tree component of :func:`~repro.broadcast.program.
        program_signature`.
        """
        if self._tree_form is None:
            self._tree_form = tuple(
                (node_id, label, docs, len(child_ids))
                for node_id, (label, docs, child_ids) in enumerate(
                    zip(self.labels, self.doc_ids, self.children)
                )
            )
        return self._tree_form

    # ------------------------------------------------------------------
    # Lookup (client-side index search)
    # ------------------------------------------------------------------

    def lookup(self, query: Union[XPathQuery, LazyQueryDFA]) -> LookupResult:
        """Simulate the client's index search, for one query or a set.

        A caller that searches more than once (every cycle, for a
        one-tier client) compiles its query once
        (:meth:`LazyQueryDFA.from_queries
        <repro.filtering.dfa.LazyQueryDFA.from_queries>`) and passes the
        compiled form: its memoised rows make a repeat search a walk of
        dict reads.  A bare query is compiled into a throwaway here and
        takes the same walk.  A DFA over several queries is walked once
        for all of them: the result is their union (matches are the
        nodes *any* of them accepts), and ``result.for_query(q)`` is
        query ``q``'s own search.
        """
        dfa = (
            query
            if isinstance(query, LazyQueryDFA)
            else LazyQueryDFA.from_queries([query])
        )
        step, row_of, masks_of = dfa.step, dfa.row, dfa.masks
        # Maximal layout: a match's result documents sit anywhere in its
        # subtree, which the client reads whole.  Containment layout: the
        # matched node carries its full result set; nothing below it is
        # read (or charged) unless the walk is still live there.
        maximal = self.annotation != "containment"
        labels, children, ends = self.labels, self.children, self.ends
        everyone = masks_of(dfa.start)[0]
        # per row, the queries reading it (bit q = query q)
        masks = [0] * len(ends)
        matches: List[Tuple[int, int]] = []
        # (node id, state, queries inside a subtree they matched above)
        # walk over live states only; the virtual root does not consume a
        # query step because it is not a document element, and every
        # query reads it.
        if self.virtual_root:
            masks[0] = everyone
            seeds = [(child, step(dfa.start, labels[child])) for child in children[0]]
        else:
            seeds = [(0, step(dfa.start, labels[0]))]
        stack = [(node_id, state, 0) for node_id, state in seeds if state]
        while stack:
            node_id, state, inside = stack.pop()
            live, accepting = masks_of(state)
            masks[node_id] |= live
            if accepting:
                matches.append((node_id, accepting))
                fresh = accepting & ~inside
                if maximal and fresh:
                    # the subtree is one contiguous id range
                    inside |= fresh
                    for below in range(node_id + 1, ends[node_id]):
                        masks[below] |= fresh
            row = row_of(state)
            for child in children[node_id]:
                label = labels[child]
                target = row.get(label)
                if target is None:
                    target = step(state, label)
                if target:  # a dead branch: the client does not descend
                    stack.append((child, target, inside))
        walk = RowMasks(masks, matches, ends, self.doc_ids, not maximal, everyone)
        return LookupResult(walk, everyone)


def build_full_ci(
    documents: Sequence[XMLDocument],
    size_model: SizeModel = PAPER_SIZE_MODEL,
) -> CompactIndex:
    """The CI over the entire collection (paper Section 3.1)."""
    guide = build_combined_guide(documents)
    return CompactIndex.from_guide(guide, size_model=size_model)

