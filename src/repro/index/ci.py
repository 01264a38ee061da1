"""The Compact Index (CI) -- paper Section 3.1.

A CI is the combined DataGuide of a document set materialised as an
:class:`~repro.index.nodes.IndexNode` tree, with document annotations at
maximal paths.  ``CompactIndex.lookup`` reproduces the client-side index
search: descend from the root following viable entries, and at every node
the query accepts, collect the document annotations of the whole subtree
(the running example's q1 hits leaf n4 and reads d1, d2 directly).

Two builders cover the paper's two uses:

* :func:`build_full_ci` -- over the entire collection (the conceptual CI
  of Section 3.1);
* :func:`build_ci` -- over the *requested* documents only, which is what
  the server actually broadcasts in on-demand mode ("if a document is
  never requested, it will not be broadcast", Section 3.2) and what the
  CI curves of Figure 9 measure.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dataguide.roxsum import (
    CombinedDataGuide,
    CombinedGuideNode,
    build_combined_guide,
)
from repro.filtering.nfa import SharedPathNFA
from repro.index.nodes import IndexNode, assign_preorder_ids, validate_tree
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import LabelPath, XMLDocument
from repro.xpath.ast import XPathQuery


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one index lookup.

    ``visited_node_ids`` are the nodes a client actually reads: the
    navigation walk (every node whose configuration is still live) plus
    the full subtrees of matched nodes (document annotations may sit
    anywhere below a match).  Tuning-time accounting maps these node ids
    to packets.
    """

    doc_ids: Tuple[int, ...]
    matched_node_ids: FrozenSet[int]
    visited_node_ids: FrozenSet[int]

    @property
    def is_empty(self) -> bool:
        return not self.doc_ids


#: How document annotations are laid out in an index tree.
#:
#: * ``"maximal"`` (the default, used by CI and the standard PCI): each
#:   document is annotated at its maximal paths; a lookup collects the
#:   matched nodes' *subtrees*.
#: * ``"containment"``: every accepting node carries its full containment
#:   set; a lookup reads the matched nodes *only* (no subtree walk).  Used
#:   by the alternative pruning mode for the annotation-scheme ablation.
AnnotationScheme = str


class CompactIndex:
    """A CI/PCI tree with size accounting and client-side lookup."""

    def __init__(
        self,
        root: IndexNode,
        size_model: SizeModel = PAPER_SIZE_MODEL,
        virtual_root: bool = False,
        annotation: AnnotationScheme = "maximal",
        validate: bool = True,
    ) -> None:
        if annotation not in ("maximal", "containment"):
            raise ValueError("annotation must be 'maximal' or 'containment'")
        self.root = root
        self.size_model = size_model
        self.virtual_root = virtual_root
        self.annotation = annotation
        self.nodes: List[IndexNode] = assign_preorder_ids(root)
        # Internal builders (guide conversion, pruning, the cycle cache)
        # construct trees that are correct by construction and pass
        # ``validate=False`` to skip the second full walk; anything built
        # from external bytes keeps the default.
        if validate:
            validate_tree(root)
        # Flat per-node count arrays in preorder (node_id == position):
        # all byte accounting runs off these, never re-walking the tree.
        child_counts = array("i", [0]) * len(self.nodes)
        doc_counts = array("i", [0]) * len(self.nodes)
        total_docs = 0
        for position, node in enumerate(self.nodes):
            child_counts[position] = len(node.children)
            docs = len(node.doc_ids)
            doc_counts[position] = docs
            total_docs += docs
        self._child_counts = child_counts
        self._doc_counts = doc_counts
        self._total_doc_entries = total_docs
        # Index trees are immutable once constructed, and the cycle-build
        # cache hands the same CI to every cycle's pruning stats -- memoise
        # the remaining whole-tree forms instead of re-walking per cycle.
        self._node_sizes: Dict[bool, array] = {}
        self._tree_form: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_guide(
        cls,
        guide: CombinedDataGuide,
        size_model: SizeModel = PAPER_SIZE_MODEL,
    ) -> "CompactIndex":
        """Materialise a combined guide as an index tree."""
        # Correct by construction: sorted unique child labels, sorted doc
        # ids, fresh parent links -- skip the validation walk.
        return cls(
            cls._convert(guide.root),
            size_model=size_model,
            virtual_root=guide.virtual_root,
            validate=False,
        )

    @staticmethod
    def _convert(guide_node: CombinedGuideNode) -> IndexNode:
        node = IndexNode(
            0, guide_node.label, doc_ids=tuple(sorted(guide_node.leaf_docs))
        )
        for label in sorted(guide_node.children):
            node.add_child(CompactIndex._convert(guide_node.children[label]))
        return node

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def total_doc_entries(self) -> int:
        """Total ``<doc, pointer>`` entries across all nodes."""
        return self._total_doc_entries

    def annotated_doc_ids(self) -> FrozenSet[int]:
        """All documents the index can locate."""
        ids: Set[int] = set()
        for node in self.nodes:
            ids.update(node.doc_ids)
        return frozenset(ids)

    def node_bytes(self, node: IndexNode, one_tier: bool) -> int:
        return self.size_model.node_bytes(
            len(node.children), len(node.doc_ids), one_tier=one_tier
        )

    def node_sizes(self, one_tier: bool) -> array:
        """Per-node serialized sizes, indexed by node id (cached).

        Computed from the flat count arrays in one vectorised-style pass:
        ``header + children*child_entry + docs*doc_entry`` per slot; the
        packer and encoder iterate this instead of touching node objects.
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
            child_counts = self._child_counts
            doc_counts = self._doc_counts
            cached = array(
                "i",
                (
                    header
                    + child_counts[position] * child_entry
                    + doc_counts[position] * doc_entry
                    for position in range(len(self.nodes))
                ),
            )
            self._node_sizes[one_tier] = cached
        return cached

    def size_bytes(self, one_tier: bool = True) -> int:
        """Total serialized index size (one-tier or first-tier layout)."""
        return self.size_model.tree_bytes(
            len(self.nodes), self._total_doc_entries, one_tier=one_tier
        )

    def tree_form(self) -> Tuple:
        """Canonical ``(id, label, doc_ids, child_count)`` preorder (cached).

        This is the tree component of :func:`~repro.broadcast.program.
        program_signature`; node ids equal preorder positions, so it reads
        straight off the flat node list.
        """
        if self._tree_form is None:
            self._tree_form = tuple(
                (node.node_id, node.label, node.doc_ids, len(node.children))
                for node in self.nodes
            )
        return self._tree_form

    def find_node(self, path: LabelPath) -> Optional[IndexNode]:
        """The node at a document label path, if present."""
        if not path:
            return None
        node = self.root
        labels: Sequence[str] = path
        if not self.virtual_root:
            if path[0] != node.label:
                return None
            labels = path[1:]
        for label in labels:
            nxt = node.child_by_label(label)
            if nxt is None:
                return None
            node = nxt
        return node

    # ------------------------------------------------------------------
    # Lookup (client-side index search)
    # ------------------------------------------------------------------

    def lookup(self, query: XPathQuery) -> LookupResult:
        """Simulate the client's index search for one query."""
        nfa = SharedPathNFA()
        nfa.add_query(0, query)
        nfa.freeze()
        return self.lookup_with_nfa(nfa)

    def lookup_with_nfa(self, nfa: SharedPathNFA) -> LookupResult:
        """Index search with a pre-built (single- or multi-query) NFA.

        Matches are nodes whose configuration accepts *any* registered
        query, so the server can also use this to locate the result set of
        a whole workload in one pass.
        """
        visited: Set[int] = set()
        matched: Set[int] = set()
        initial = nfa.initial_states()
        # (node, configuration) walk; the virtual root does not consume a
        # query step because it is not a document element.
        if self.virtual_root:
            visited.add(self.root.node_id)
            stack = [
                (child, nfa.move(initial, child.label)) for child in self.root.children
            ]
        else:
            stack = [(self.root, nfa.move(initial, self.root.label))]
        while stack:
            node, configuration = stack.pop()
            if not configuration:
                continue  # dead branch: the client does not descend here
            visited.add(node.node_id)
            if nfa.is_accepting(configuration):
                matched.add(node.node_id)
            for child in node.children:
                stack.append((child, nfa.move(configuration, child.label)))

        doc_ids: Set[int] = set()
        if self.annotation == "containment":
            # Containment layout: the matched nodes carry their full result
            # sets; no subtree walk is needed (or charged).
            for node_id in matched:
                doc_ids.update(self.nodes[node_id].doc_ids)
        else:
            for node_id in matched:
                for sub in self.nodes[node_id].iter_preorder():
                    visited.add(sub.node_id)
                    doc_ids.update(sub.doc_ids)
        return LookupResult(
            doc_ids=tuple(sorted(doc_ids)),
            matched_node_ids=frozenset(matched),
            visited_node_ids=frozenset(visited),
        )


def build_full_ci(
    documents: Sequence[XMLDocument],
    size_model: SizeModel = PAPER_SIZE_MODEL,
) -> CompactIndex:
    """The CI over the entire collection (paper Section 3.1)."""
    guide = build_combined_guide(documents)
    return CompactIndex.from_guide(guide, size_model=size_model)


def build_ci(
    documents: Sequence[XMLDocument],
    requested_doc_ids: Iterable[int],
    size_model: SizeModel = PAPER_SIZE_MODEL,
) -> CompactIndex:
    """The CI over the *requested* documents (the on-demand broadcast CI).

    Only documents some pending query asks for are indexed; everything
    else will never be broadcast in the current cycle anyway.
    """
    requested = frozenset(requested_doc_ids)
    subset = [doc for doc in documents if doc.doc_id in requested]
    if not subset:
        raise ValueError("no requested documents -- nothing to index")
    guide = build_combined_guide(subset)
    return CompactIndex.from_guide(guide, size_model=size_model)
