"""Reference (dict-based) shared-path NFA: the differential oracle.

This is the original pointer-chasing implementation of
:class:`~repro.filtering.nfa.SharedPathNFA`, kept verbatim as the
semantic oracle for the flattened array engine.  The property tests in
``tests/filtering/test_nfa_flat.py`` drive both automata over random
query sets and event streams and assert identical configurations and
accept sets.  It is not used on any hot path.

All queries are compiled into one automaton whose common prefixes share
states, so the per-event work is independent of how many queries share a
path.  The construction follows the YFilter paper:

* a child step ``/t`` adds a transition on ``t`` (or a ``*`` transition);
* a descendant step ``//t`` first moves through a dedicated *self-loop
  state* (reachable by epsilon, looping on every label) and then takes the
  ``t`` transition from it;
* the state reached by a query's last step *accepts* that query.

States are integers; the automaton is immutable once queries are added and
execution starts (enforced by :meth:`SharedPathNFA.freeze`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.xpath.ast import Axis, Step, WILDCARD, XPathQuery


@dataclass
class _State:
    """One NFA state.

    ``children`` maps concrete labels to successor states, ``wild`` is the
    ``*`` successor, ``descendant`` is the epsilon-reachable self-loop
    state used for ``//`` steps, and ``self_loop`` marks the state as such
    a loop state.  ``accepts`` lists the query ids whose last step lands
    here.
    """

    state_id: int
    children: Dict[str, int] = field(default_factory=dict)
    wild: Optional[int] = None
    descendant: Optional[int] = None
    self_loop: bool = False
    accepts: List[int] = field(default_factory=list)


class ReferenceSharedPathNFA:
    """Trie-shaped NFA shared by an entire query set."""

    def __init__(self) -> None:
        self._states: List[_State] = [_State(0)]
        self._queries: Dict[int, XPathQuery] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def start_state(self) -> int:
        return 0

    @property
    def state_count(self) -> int:
        return len(self._states)

    @property
    def query_count(self) -> int:
        return len(self._queries)

    def queries(self) -> Dict[int, XPathQuery]:
        """The registered queries by id (a copy)."""
        return dict(self._queries)

    def add_query(self, query_id: int, query: XPathQuery) -> None:
        """Register *query* under *query_id*, sharing existing prefixes."""
        if self._frozen:
            raise RuntimeError("cannot add queries to a frozen NFA")
        if query_id in self._queries:
            raise ValueError(f"query id {query_id} already registered")
        state = 0
        for step in query.steps:
            state = self._extend(state, step)
        self._states[state].accepts.append(query_id)
        self._queries[query_id] = query

    def add_queries(self, queries: Sequence[XPathQuery]) -> List[int]:
        """Register queries under consecutive ids; return the ids."""
        ids = []
        next_id = max(self._queries, default=-1) + 1
        for offset, query in enumerate(queries):
            self.add_query(next_id + offset, query)
            ids.append(next_id + offset)
        return ids

    def freeze(self) -> "ReferenceSharedPathNFA":
        """Mark construction finished; returns self for chaining."""
        self._frozen = True
        return self

    def _new_state(self, self_loop: bool = False) -> int:
        state = _State(len(self._states), self_loop=self_loop)
        self._states.append(state)
        return state.state_id

    def _extend(self, state_id: int, step: Step) -> int:
        if step.axis is Axis.DESCENDANT:
            state_id = self._descendant_of(state_id)
        return self._transition_of(state_id, step.test)

    def _descendant_of(self, state_id: int) -> int:
        state = self._states[state_id]
        if state.descendant is None:
            state.descendant = self._new_state(self_loop=True)
        return state.descendant

    def _transition_of(self, state_id: int, test: str) -> int:
        state = self._states[state_id]
        if test == WILDCARD:
            if state.wild is None:
                state.wild = self._new_state()
            return state.wild
        target = state.children.get(test)
        if target is None:
            target = self._new_state()
            state.children[test] = target
        return target

    # ------------------------------------------------------------------
    # Execution primitives
    # ------------------------------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """Close a state set under descendant-state epsilon edges."""
        closed: Set[int] = set()
        frontier = list(states)
        while frontier:
            state_id = frontier.pop()
            if state_id in closed:
                continue
            closed.add(state_id)
            descendant = self._states[state_id].descendant
            if descendant is not None and descendant not in closed:
                frontier.append(descendant)
        return frozenset(closed)

    def initial_states(self) -> FrozenSet[int]:
        """The closed start configuration."""
        return self.epsilon_closure([self.start_state])

    def move(self, states: FrozenSet[int], tag: str) -> FrozenSet[int]:
        """One step of the automaton on a start-element *tag*.

        Self-loop states stay active (the ``//`` skip), label and wildcard
        transitions fire, and the result is epsilon-closed.
        """
        nxt: Set[int] = set()
        for state_id in states:
            state = self._states[state_id]
            if state.self_loop:
                nxt.add(state_id)
            target = state.children.get(tag)
            if target is not None:
                nxt.add(target)
            if state.wild is not None:
                nxt.add(state.wild)
        return self.epsilon_closure(nxt)

    def accepted_queries(self, states: Iterable[int]) -> Set[int]:
        """Query ids accepted by any state in the configuration."""
        matched: Set[int] = set()
        for state_id in states:
            matched.update(self._states[state_id].accepts)
        return matched

    def is_accepting(self, states: Iterable[int]) -> bool:
        return any(self._states[state_id].accepts for state_id in states)

    def describe(self) -> str:
        """Dump the automaton for debugging and documentation."""
        lines = [f"ReferenceSharedPathNFA: {self.state_count} states, {self.query_count} queries"]
        for state in self._states:
            bits = []
            for label, target in sorted(state.children.items()):
                bits.append(f"--{label}--> {target}")
            if state.wild is not None:
                bits.append(f"--*--> {state.wild}")
            if state.descendant is not None:
                bits.append(f"..eps..> {state.descendant}")
            marker = " (loop)" if state.self_loop else ""
            accept = f" accepts={state.accepts}" if state.accepts else ""
            lines.append(f"  s{state.state_id}{marker}{accept}: " + ", ".join(bits))
        return "\n".join(lines)
