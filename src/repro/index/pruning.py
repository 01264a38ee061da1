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

The walk reads a table restricted to the requested documents
(:class:`Restriction`), kept by the server over its whole collection.
Pruning is transparent to clients: looking any pending query up in the
PCI returns exactly the documents the CI lookup returns (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro import obs
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import AnnotationScheme, CompactIndex
from repro.index.nodes import RowBuilder
from repro.xpath.ast import WILDCARD, Axis, Step, XPathQuery


class Restriction(NamedTuple):
    """The CI over a requested document set, read off a table as it is.

    ``leaf[i]`` / ``containing[i]``: the documents (bit ``d`` is document
    ``d``) with a childless element at row ``i``'s path / with the path.
    A row is in the CI when its containing mask meets *mask*, with its
    leaf mask within *mask* as postings.  Masks change in place, so all
    else is read off them when asked.  A *whole* restriction is a
    materialised CI's own table.
    """

    index: CompactIndex
    leaf: List[int]
    containing: List[int]
    mask: int
    whole: bool = False

    @classmethod
    def of(cls, index: CompactIndex) -> "Restriction":
        """A materialised index as a table restricted to all its documents."""
        leaf = [sum(1 << doc_id for doc_id in docs) for docs in index.doc_ids]
        containing = [reduce(or_, leaf[row:end]) for row, end in enumerate(index.ends)]
        return cls(index, leaf, containing, containing[0], whole=True)

    @property
    def root(self) -> Tuple[int, bool]:
        """The CI's root row, and whether it is virtual: a virtual root over
        one requested root label is no root, as in that set's guide."""
        index, containing, mask = self.index, self.containing, self.mask
        if index.virtual_root and not self.whole:
            roots = [row for row in index.children[0] if containing[row] & mask]
            if len(roots) == 1:
                return roots[0], False
        return 0, index.virtual_root

    def materialise(self) -> CompactIndex:
        """The CI as a table of its own: the walk under ``//*`` keeps all."""
        every_path = XPathQuery.from_steps([Step(Axis.DESCENDANT, WILDCARD)])
        return _prune(self, LazyQueryDFA.from_queries([every_path]), "maximal")


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
    def between(cls, ci: Restriction, pci: CompactIndex) -> "PruningStats":
        """The measures of airing *pci* in place of *ci* (its own
        materialisation when an overloaded build airs the CI unpruned)."""
        root, mask = ci.root[0], ci.mask
        nodes = sum(1 for docs in ci.containing[root : ci.index.ends[root]] if docs & mask)
        entries = sum((docs & mask).bit_count() for docs in ci.leaf)
        size = ci.index.size_model.tree_bytes(nodes, entries, one_tier=True)
        return cls(
            nodes, pci.node_count, entries, pci.total_doc_entries(),
            size, pci.size_bytes(one_tier=True),
        )


def prune_to_pci(
    ci: Union[CompactIndex, Restriction],
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
    view = ci if isinstance(ci, Restriction) else Restriction.of(ci)
    transitions_before = dfa.materialised_transitions
    pci = _prune(view, dfa, "maximal")
    obs.counter("pruning.dfa_transitions_materialised_total").inc(
        dfa.materialised_transitions - transitions_before
    )
    return pci, PruningStats.between(view, pci)


def prune_to_pci_containment(
    ci: Union[CompactIndex, Restriction],
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
    view = ci if isinstance(ci, Restriction) else Restriction.of(ci)
    pci = _prune(view, dfa or LazyQueryDFA.from_queries(list(queries)), "containment")
    return pci, PruningStats.between(view, pci)


def _prune(
    ci: Restriction, dfa: LazyQueryDFA, annotation: AnnotationScheme
) -> CompactIndex:
    """One walk of the restricted table under *dfa*, emitting the PCI's rows.

    A row of the CI is opened on the way down when its configuration is
    live and, on the way up, kept when it accepts or kept a child and
    dropped otherwise.  Under the maximal scheme a dropped row hands the
    annotations it held for an accepting ancestor to the nearest row that
    survives; a dead subtree (no pending query can match at or below it)
    is never opened and hands over its containing mask at once.  Under
    the containment scheme an accepting row takes its containing mask.
    """
    containment = annotation == "containment"
    labels, children = ci.index.labels, ci.index.children
    leaf, containing, mask = ci.leaf, ci.containing, ci.mask
    root, virtual = ci.root
    step, accepting, row_of = dfa.step, dfa.is_accepting, dfa.row
    rows = RowBuilder()
    # The virtual root is not a document element: it consumes no query
    # step and never accepts.
    state = dfa.start if virtual else step(dfa.start, labels[root])
    # Live rows still to open, nearest last, as (row, state, frame of the
    # row above); a frame -- [row, frame above, an ancestor-or-self
    # accepts, keep, annotation mask] -- is a row whose subtree is
    # complete.  The root's frame sits below one that stands for no row.
    top: list = [None, None, False, False, 0]
    pending: list = [(root, state, top)] if state else []
    while pending:
        item = pending.pop()
        if type(item) is list:
            row, above, _requested, keep, docs = item
            if keep:
                ids = []
                while docs:  # the mask's documents, ascending
                    low = docs & -docs
                    ids.append(low.bit_length() - 1)
                    docs ^= low
                rows.doc_ids[row] = tuple(ids)
                rows.close(row)
                above[3] = True
            else:
                rows.drop(row)
                above[4] |= docs
            continue
        node_id, state, above = item
        accepts = accepting(state) and not (above is top and virtual)
        requested = accepts or above[2]
        # Annotations with no accepting ancestor-or-self belong to
        # documents no pending query requests: "if a document is never
        # requested, it will not be broadcast".
        if containment:
            docs = containing[node_id] & mask if accepts else 0
        else:
            docs = leaf[node_id] & mask if requested else 0
        frame = [rows.open(labels[node_id]), above, requested, accepts, 0]
        pending.append(frame)
        transitions = row_of(state)
        for child in reversed(children[node_id]):
            below = containing[child] & mask
            if not below:  # no requested document has this path
                continue
            label = labels[child]
            target = transitions.get(label)
            if target is None:
                target = step(state, label)
            if target:
                pending.append((child, target, frame))
            elif requested and not containment:
                docs |= below
        frame[4] = docs
    if not rows.ends:
        # No pending query matches anything: broadcast a bare root so the
        # program structure stays uniform and clients learn "no results".
        rows.close(rows.open(labels[root]))
    return CompactIndex(
        rows,
        size_model=ci.index.size_model,
        virtual_root=virtual,
        annotation=annotation,
        validate=False,  # pruning preserves the CI's invariants
    )
