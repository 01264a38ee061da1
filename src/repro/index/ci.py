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
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.dataguide.roxsum import (
    CombinedDataGuide,
    CombinedGuideNode,
    build_combined_guide,
)
from repro.filtering.dfa import LazyQueryDFA
from repro.index.nodes import IndexNode, assign_preorder_ids, validate_tree
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import LabelPath, XMLDocument
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover - packing imports this module
    from repro.index.packing import PackedIndex, PackingStrategy


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
    #: :meth:`packets_in` memo; lives and dies with the result, outside
    #: its value
    _packets: Dict[Tuple["PackingStrategy", bool], FrozenSet[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def is_empty(self) -> bool:
        return not self.doc_ids

    def packets_in(self, packed: "PackedIndex") -> FrozenSet[int]:
        """Distinct packets of *packed* the visited nodes touch.

        *packed* must pack the index that was searched (node ids mean
        nothing elsewhere), so strategy and layout identify it here.  One
        search result is shared by every client asking the same string in
        a cycle; the accounting runs once per packing, not per client.
        """
        key = (packed.strategy, packed.one_tier)
        packets = self._packets.get(key)
        if packets is None:
            packets = packed.packets_for_nodes(self.visited_node_ids)
            self._packets[key] = packets
        return packets


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
        self._subtree: Optional[Tuple[array, List[Tuple[int, ...]]]] = None

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

    def lookup(self, query: Union[XPathQuery, LazyQueryDFA]) -> LookupResult:
        """Simulate the client's index search for one query.

        A caller that searches more than once (every cycle, for a
        one-tier client) compiles its query once
        (:meth:`LazyQueryDFA.from_queries
        <repro.filtering.dfa.LazyQueryDFA.from_queries>`) and passes the
        compiled form: its memoised rows make a repeat search a walk of
        dict reads.  A bare query is compiled into a throwaway here and
        takes the same walk.  A DFA over several queries works too --
        matches are then the nodes *any* of them accepts.
        """
        dfa = (
            query
            if isinstance(query, LazyQueryDFA)
            else LazyQueryDFA.from_queries([query])
        )
        step, row_of, accepting = dfa.step, dfa.row, dfa.is_accepting
        # Maximal layout: a match's result documents sit anywhere in its
        # subtree, which the client reads whole.  Containment layout: the
        # matched node carries its full result set; nothing below it is
        # read (or charged) unless the walk is still live there.
        maximal = self.annotation != "containment"
        ends, docs_at = self._subtree_form() if maximal else ((), ())
        visited: Set[int] = set()
        matched: Set[int] = set()
        doc_ids: Set[int] = set()
        # (node, state, inside a matched subtree) walk over live states
        # only; the virtual root does not consume a query step because it
        # is not a document element.
        root = self.root
        if self.virtual_root:
            visited.add(root.node_id)
            seeds = [(child, step(dfa.start, child.label)) for child in root.children]
        else:
            seeds = [(root, step(dfa.start, root.label))]
        stack = [(node, state, False) for node, state in seeds if state]
        while stack:
            node, state, inside = stack.pop()
            node_id = node.node_id
            if accepting(state):
                matched.add(node_id)
                if not maximal:
                    doc_ids.update(node.doc_ids)
                elif not inside:
                    # node_id == preorder position: the subtree is one
                    # contiguous id range.
                    inside = True
                    end = ends[node_id]
                    visited.update(range(node_id, end))
                    doc_ids.update(*docs_at[node_id:end])
            if not inside:
                visited.add(node_id)
            row = row_of(state)
            for child in node.children:
                label = child.label
                target = row.get(label)
                if target is None:
                    target = step(state, label)
                if target:  # a dead branch: the client does not descend
                    stack.append((child, target, inside))
        return LookupResult(
            doc_ids=tuple(sorted(doc_ids)),
            matched_node_ids=frozenset(matched),
            visited_node_ids=frozenset(visited),
        )

    def _subtree_form(self) -> Tuple[array, List[Tuple[int, ...]]]:
        """Per preorder position: the subtree's end position (exclusive)
        and the node's doc ids (cached)."""
        if self._subtree is None:
            nodes = self.nodes
            ends = array("i", [0]) * len(nodes)
            for position in range(len(nodes) - 1, -1, -1):
                children = nodes[position].children
                # the last child's subtree closes its parent's
                ends[position] = (
                    ends[children[-1].node_id] if children else position + 1
                )
            self._subtree = (ends, [node.doc_ids for node in nodes])
        return self._subtree


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
