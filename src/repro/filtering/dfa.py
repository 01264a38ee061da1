"""Lazily determinised DFA over the shared-path NFA: a compiled query (set).

Index pruning (paper Section 3.2) "first builds a DFA based on the set of
queries Q pending at the server side" and then checks every Compact Index
node against it.  Full subset construction is wasteful -- only the state
sets actually reachable through the index's label paths matter -- so the
DFA is determinised *lazily*: each (configuration, label) transition is
computed once through the NFA and memoised, as are each configuration's
query masks.

This is the one compiled form of a query (set).  The server compiles the
pending set for pruning; a client compiles its single query, and the
simulator its whole audience's strings, for the index search
(:meth:`CompactIndex.lookup <repro.index.ci.CompactIndex.lookup>`).  The
memo lives and dies with the object, so whoever searches repeatedly --
every cycle, for the one-tier baseline -- keeps the object and pays for
each transition once, however many index trees it walks.

A DFA state is the canonical sorted tuple of NFA state ids (the flat
automaton's native configuration form); it answers:

* ``masks`` -- which queries (bit ``q`` for query id ``q``) are still
  live after the consumed path, and which match it exactly;
* ``is_accepting`` -- some query matches the path consumed so far (the
  node is a *result node*);
* ``is_live`` -- the configuration is non-empty, i.e. the path consumed so
  far is still a viable prefix of some query match (the node may have
  result descendants).
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro.filtering.nfa import SharedPathNFA
from repro.xmlkit.model import LabelPath
from repro.xpath.ast import XPathQuery

DFAState = Tuple[int, ...]


class LazyQueryDFA:
    """Memoised subset-construction DFA over a query-set NFA."""

    def __init__(self, nfa: SharedPathNFA) -> None:
        self.nfa = nfa.freeze()
        self._start = nfa.initial_states()
        #: state -> {label: successor}, filled one transition at a time
        self._rows: Dict[DFAState, Dict[str, DFAState]] = {}
        #: state -> (live, accepting) query bitmasks, asked of the NFA once
        self._masks: Dict[DFAState, Tuple[int, int]] = {}
        self._materialised = 0

    @classmethod
    def from_queries(cls, queries: Sequence[XPathQuery]) -> "LazyQueryDFA":
        nfa = SharedPathNFA()
        nfa.add_queries(queries)
        return cls(nfa)

    @property
    def start(self) -> DFAState:
        return self._start

    @property
    def materialised_transitions(self) -> int:
        """How many transitions have been determinised so far."""
        return self._materialised

    def row(self, state: DFAState) -> Dict[str, DFAState]:
        """The memoised transitions out of *state*, by label.

        Holds the labels stepped so far, not the alphabet: a tree walk
        reads it directly and sends each miss through :meth:`step`,
        which fills it in.
        """
        row = self._rows.get(state)
        if row is None:
            row = self._rows[state] = {}
        return row

    def step(self, state: DFAState, label: str) -> DFAState:
        """The (memoised) DFA transition on *label*."""
        row = self.row(state)
        target = row.get(label)
        if target is None:
            target = row[label] = self.nfa.move(state, label)
            self._materialised += 1
        return target

    def run(self, path: LabelPath) -> DFAState:
        """Consume a whole label path from the start state."""
        state = self._start
        for label in path:
            state = self.step(state, label)
            if not state:
                return state
        return state

    def masks(self, state: DFAState) -> Tuple[int, int]:
        """The (memoised) ``(live, accepting)`` query bitmasks of *state*:
        bit ``q`` is query ``q`` (its id in the NFA), still able to match
        below the consumed path / matching it exactly."""
        masks = self._masks.get(state)
        if masks is None:
            masks = self._masks[state] = self.nfa.query_masks(state)
        return masks

    def is_accepting(self, state: DFAState) -> bool:
        """Does some pending query match exactly the consumed path?"""
        # the memo read inline: pruning asks this once per index row
        return (self._masks.get(state) or self.masks(state))[1] != 0

    def accepted_queries(self, state: DFAState) -> Set[int]:
        return self.nfa.accepted_queries(state)

    def is_live(self, state: DFAState) -> bool:
        """Could the consumed path still be extended into a match?"""
        return bool(state)
