"""Index pruning: CI -> PCI (paper Section 3.2, Figure 6).

A DFA built from the pending query set is run over the CI tree.  A node
is *accepting* when some pending query matches its path exactly; it is
*kept* when its subtree contains an accepting node (so it is an accepting
node itself or a navigation ancestor of one).  Everything else is dead
and cut -- the paper's running example keeps exactly n1, n2, n5 for
Q = {/a/b, /a/b/c}.

Cutting a node below an accepting ancestor would orphan its document
annotations (the result documents of the ancestor's query live in its
subtree), so those annotations are *re-attached* to the node's nearest
surviving ancestor.  Annotations of nodes with no accepting ancestor-or-
self belong to documents no pending query requests; they are dropped,
matching "if a document is never requested, it will not be broadcast".

Pruning is transparent to clients: looking any pending query up in the
PCI returns exactly the documents the CI lookup returns (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.filtering.dfa import DFAState, LazyQueryDFA
from repro.index.ci import CompactIndex
from repro.index.nodes import IndexNode
from repro.xpath.ast import XPathQuery


@dataclass(frozen=True)
class PruningStats:
    """Before/after measures of one pruning run."""

    nodes_before: int
    nodes_after: int
    doc_entries_before: int
    doc_entries_after: int
    bytes_before: int
    bytes_after: int

    @classmethod
    def between(cls, ci: CompactIndex, pci: CompactIndex) -> "PruningStats":
        """The measures of airing *pci* in place of *ci* (the same index
        twice when an over-budget build airs the CI unpruned)."""
        return cls(
            nodes_before=ci.node_count,
            nodes_after=pci.node_count,
            doc_entries_before=ci.total_doc_entries(),
            doc_entries_after=pci.total_doc_entries(),
            bytes_before=ci.size_bytes(one_tier=True),
            bytes_after=pci.size_bytes(one_tier=True),
        )

    @property
    def node_ratio(self) -> float:
        return self.nodes_after / self.nodes_before if self.nodes_before else 1.0

    @property
    def size_ratio(self) -> float:
        """PCI size as a fraction of CI size (the paper's ~0.9)."""
        return self.bytes_after / self.bytes_before if self.bytes_before else 1.0


@dataclass
class _Reattached:
    """Sentinel carrying doc ids of a pruned subtree up to the survivor."""

    doc_ids: Tuple[int, ...]


_PruneOutcome = Union[IndexNode, _Reattached, None]


def prune_to_pci(
    ci: CompactIndex,
    queries: Sequence[XPathQuery],
    dfa: Optional[LazyQueryDFA] = None,
) -> Tuple[CompactIndex, PruningStats]:
    """Prune *ci* against the pending *queries*; return (PCI, stats).

    A pre-built *dfa* over the same query set may be passed to share the
    memoised transitions across broadcast cycles (the server's cycle-build
    cache does exactly that); the ``pruning.dfa_transitions_materialised``
    counter then shows the per-cycle determinisation work decaying.
    """
    if dfa is None:
        obs.counter("pruning.dfa_built_total").inc()
        dfa = LazyQueryDFA.from_queries(list(queries))
    transitions_before = dfa.materialised_transitions

    outcome = _prune_node(
        node=ci.root,
        state=None if ci.virtual_root else dfa.step(dfa.start, ci.root.label),
        dfa=dfa,
        is_virtual_root=ci.virtual_root,
        accepting_above=False,
    )
    if isinstance(outcome, IndexNode):
        pruned_root = outcome
    else:
        # No pending query matches anything: broadcast a bare root so the
        # program structure stays uniform and clients learn "no results".
        pruned_root = IndexNode(0, ci.root.label)

    pci = CompactIndex(
        pruned_root,
        size_model=ci.size_model,
        virtual_root=ci.virtual_root,
        validate=False,  # pruning preserves the CI's invariants
    )
    stats = PruningStats.between(ci, pci)
    obs.counter("pruning.dfa_transitions_materialised_total").inc(
        dfa.materialised_transitions - transitions_before
    )
    return pci, stats


def _prune_node(
    node: IndexNode,
    state: Optional[DFAState],
    dfa: LazyQueryDFA,
    is_virtual_root: bool,
    accepting_above: bool,
) -> _PruneOutcome:
    """Recursively build the pruned copy of *node*.

    Returns the surviving copy, a :class:`_Reattached` sentinel bubbling
    requested annotations of a structurally dead subtree up to its nearest
    surviving ancestor, or ``None`` for a fully dead, unrequested subtree.
    """
    if is_virtual_root:
        accepting_here = False
    else:
        assert state is not None
        if not dfa.is_live(state):
            # Dead configuration: no pending query can match at or below
            # this path, so the subtree carries no navigable structure.
            # Its annotations are requested only via an accepting ancestor.
            return _collect_for_reattachment(node, accepting_above)
        accepting_here = dfa.is_accepting(state)

    child_accepting_above = accepting_here or accepting_above
    kept_children: List[IndexNode] = []
    gathered: Set[int] = set()
    for child in node.children:
        child_state = (
            dfa.step(dfa.start, child.label)
            if is_virtual_root
            else dfa.step(state, child.label)  # type: ignore[arg-type]
        )
        outcome = _prune_node(
            node=child,
            state=child_state,
            dfa=dfa,
            is_virtual_root=False,
            accepting_above=child_accepting_above,
        )
        if outcome is None:
            continue
        if isinstance(outcome, _Reattached):
            gathered.update(outcome.doc_ids)
        else:
            kept_children.append(outcome)

    requested_here = accepting_here or accepting_above
    own_docs = set(node.doc_ids) if requested_here else set()
    subtree_has_accepting = accepting_here or bool(kept_children)

    if not subtree_has_accepting:
        docs = own_docs | gathered
        if docs and accepting_above:
            return _Reattached(tuple(sorted(docs)))
        return None

    new_node = IndexNode(0, node.label, doc_ids=tuple(sorted(own_docs | gathered)))
    for child in kept_children:
        new_node.add_child(child)
    return new_node


def _collect_for_reattachment(node: IndexNode, accepting_above: bool) -> _PruneOutcome:
    if not accepting_above:
        return None
    docs: Set[int] = set()
    for sub in node.iter_preorder():
        docs.update(sub.doc_ids)
    return _Reattached(tuple(sorted(docs))) if docs else None


# ----------------------------------------------------------------------
# Alternative: containment-annotated pruning (ablation)
# ----------------------------------------------------------------------


def prune_to_pci_containment(
    ci: CompactIndex,
    queries: Sequence[XPathQuery],
    dfa: Optional[LazyQueryDFA] = None,
) -> Tuple[CompactIndex, PruningStats]:
    """The literal reading of Figure 6: keep accepting nodes and their
    ancestors only, and attach each accepting node's **full containment
    set** (so a lookup reads the matched nodes, no subtree walk).

    This variant duplicates a document once per accepting node containing
    it, so -- unlike :func:`prune_to_pci` -- the result can exceed the CI
    under heavy query loads.  It exists for the annotation-scheme
    ablation; results remain exactly transparent to pending queries.
    """
    if dfa is None:
        dfa = LazyQueryDFA.from_queries(list(queries))
    pruned_root = _prune_containment(
        node=ci.root,
        state=None if ci.virtual_root else dfa.step(dfa.start, ci.root.label),
        dfa=dfa,
        is_virtual_root=ci.virtual_root,
    )
    if pruned_root is None:
        pruned_root = IndexNode(0, ci.root.label)
    pci = CompactIndex(
        pruned_root,
        size_model=ci.size_model,
        virtual_root=ci.virtual_root,
        annotation="containment",
        validate=False,  # pruning preserves the CI's invariants
    )
    stats = PruningStats.between(ci, pci)
    return pci, stats


def _prune_containment(
    node: IndexNode,
    state: Optional[DFAState],
    dfa: LazyQueryDFA,
    is_virtual_root: bool,
) -> Optional[IndexNode]:
    if is_virtual_root:
        accepting_here = False
    else:
        assert state is not None
        if not dfa.is_live(state):
            return None
        accepting_here = dfa.is_accepting(state)

    kept_children: List[IndexNode] = []
    for child in node.children:
        child_state = (
            dfa.step(dfa.start, child.label)
            if is_virtual_root
            else dfa.step(state, child.label)  # type: ignore[arg-type]
        )
        pruned_child = _prune_containment(
            node=child, state=child_state, dfa=dfa, is_virtual_root=False
        )
        if pruned_child is not None:
            kept_children.append(pruned_child)

    if not accepting_here and not kept_children:
        return None
    docs = node.subtree_doc_ids() if accepting_here else ()
    new_node = IndexNode(0, node.label, doc_ids=docs)
    for child in kept_children:
        new_node.add_child(child)
    return new_node
