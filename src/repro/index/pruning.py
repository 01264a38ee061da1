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
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import AnnotationScheme, CompactIndex
from repro.index.nodes import RowBuilder
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
        twice when an overloaded build airs the CI unpruned)."""
        return cls(
            nodes_before=ci.node_count,
            nodes_after=pci.node_count,
            doc_entries_before=ci.total_doc_entries(),
            doc_entries_after=pci.total_doc_entries(),
            bytes_before=ci.size_bytes(one_tier=True),
            bytes_after=pci.size_bytes(one_tier=True),
        )


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
    pci = _prune(ci, dfa, "maximal")
    obs.counter("pruning.dfa_transitions_materialised_total").inc(
        dfa.materialised_transitions - transitions_before
    )
    return pci, PruningStats.between(ci, pci)


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
    pci = _prune(ci, dfa, "containment")
    return pci, PruningStats.between(ci, pci)


def _prune(
    ci: CompactIndex, dfa: LazyQueryDFA, annotation: AnnotationScheme
) -> CompactIndex:
    """One walk of the CI under *dfa*, emitting the PCI's rows.

    A row is opened on the way down for every node whose configuration is
    live and, on the way up, kept when it accepts or kept a child and
    dropped otherwise.  Under the maximal scheme a dropped row hands the
    annotations it held for an accepting ancestor to the nearest row that
    survives; a dead subtree (no pending query can match at or below it,
    so it carries no navigable structure) is never opened and hands over
    its whole id range at once.  Under the containment scheme nothing is
    handed over: an accepting row takes its CI subtree's annotations
    outright.
    """
    containment = annotation == "containment"
    labels, children = ci.labels, ci.children
    ends, docs_at = ci.ends, ci.doc_ids
    step, accepting = dfa.step, dfa.is_accepting
    rows = RowBuilder()
    # The virtual root is not a document element: it consumes no query
    # step and never accepts.
    state = dfa.start if ci.virtual_root else step(dfa.start, labels[0])
    # Live CI nodes still to open, nearest last, as (node id, state, frame
    # of the row above); a frame -- [row, frame above, an ancestor-or-self
    # accepts, keep, annotations] -- is a row whose subtree is complete.
    # The root's frame sits below one that stands for no row.
    top: list = [None, None, False, False, set()]
    pending: list = [(0, state, top)] if state else []
    while pending:
        item = pending.pop()
        if type(item) is list:
            row, above, _requested, keep, docs = item
            if keep:
                rows.doc_ids[row] = tuple(sorted(docs))
                rows.close(row)
                above[3] = True
            else:
                rows.drop(row)
                above[4].update(docs)
            continue
        node_id, state, above = item
        accepts = accepting(state) and not (above is top and ci.virtual_root)
        requested = accepts or above[2]
        # Annotations with no accepting ancestor-or-self belong to
        # documents no pending query requests: "if a document is never
        # requested, it will not be broadcast".
        if containment:
            docs = set().union(*docs_at[node_id : ends[node_id]]) if accepts else set()
        else:
            docs = set(docs_at[node_id]) if requested else set()
        frame = [rows.open(labels[node_id]), above, requested, accepts, docs]
        pending.append(frame)
        for child in reversed(children[node_id]):
            target = step(state, labels[child])
            if target:
                pending.append((child, target, frame))
            elif requested and not containment:
                docs.update(*docs_at[child : ends[child]])
    if not rows.ends:
        # No pending query matches anything: broadcast a bare root so the
        # program structure stays uniform and clients learn "no results".
        rows.close(rows.open(labels[0]))
    return CompactIndex(
        rows,
        size_model=ci.size_model,
        virtual_root=ci.virtual_root,
        annotation=annotation,
        validate=False,  # pruning preserves the CI's invariants
    )
