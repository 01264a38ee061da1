"""Shared-path NFA over a query set (the heart of YFilter).

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
:func:`resolve_on_guide` runs it over a combined DataGuide's label trie
rather than over document events: the one answer to "which documents
match these queries".

Execution runs on a **flattened** representation compiled lazily from the
construction trie (cache-conscious, integer-indexed -- the layout of
"Fast Query Processing by Distributing an Index over CPU Caches"):

* one dense transition table (``state x label -> state``) in a single
  contiguous ``array('i')``, with parallel flat arrays for the wildcard
  successor, the epsilon-reachable descendant state and the self-loop
  flag;
* per-state epsilon closures and accept lists in CSR form (one offsets
  array into one flat ids array), so closing a configuration never
  chases pointers;
* per-state query bitmasks -- the queries accepting at the state, and
  those accepting at or below it (still live there) -- so a
  configuration answers "which queries" with a few integer ORs;
* a reusable scratch *seen* array stamped with a generation counter, so
  :meth:`move` and :meth:`epsilon_closure` allocate no per-event set or
  frozenset -- the only allocation left is the small canonical result
  tuple.

Configurations are canonical sorted ``tuple`` objects (hashable, ordered,
falsy when dead), which the lazy DFA memoises directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.xpath.ast import Axis, Step, WILDCARD, XPathQuery

if TYPE_CHECKING:  # pragma: no cover - the dataguide layer sits above this one
    from repro.dataguide.roxsum import CombinedDataGuide

#: One automaton configuration: canonically sorted, duplicate-free state ids.
Configuration = Tuple[int, ...]


@dataclass
class _State:
    """One NFA state (construction form).

    ``children`` maps concrete labels to successor states, ``wild`` is the
    ``*`` successor, ``descendant`` is the epsilon-reachable self-loop
    state used for ``//`` steps, and ``self_loop`` marks the state as such
    a loop state.  ``accepts`` lists the query ids whose last step lands
    here.  Execution never touches these dicts -- they are compiled into
    the flat arrays below.
    """

    state_id: int
    children: Dict[str, int] = field(default_factory=dict)
    wild: Optional[int] = None
    descendant: Optional[int] = None
    self_loop: bool = False
    accepts: List[int] = field(default_factory=list)


class SharedPathNFA:
    """Trie-shaped NFA shared by an entire query set."""

    def __init__(self) -> None:
        self._states: List[_State] = [_State(0)]
        self._queries: Dict[int, XPathQuery] = {}
        self._frozen = False
        # -- flattened execution form (built lazily) -------------------
        self._compiled = False
        self._label_ids: Dict[str, int] = {}
        self._num_labels = 0
        self._trans = array("i")  #: dense state x label successor table
        self._wild = array("i")
        self._loop = bytearray()
        self._closure_off = array("i")  #: CSR offsets into _closure_ids
        self._closure_ids = array("i")  #: per-state epsilon closures
        self._accept_off = array("i")  #: CSR offsets into _accept_ids
        self._accept_ids = array("i")  #: per-state accepted query ids
        #: per state, bit ``q`` set for query ``q``: accepted here / here
        #: or anywhere below in the trie (the query is still live here)
        self._accept_masks: List[int] = []
        self._live_masks: List[int] = []
        # -- reusable scratch (the no-allocation move path) ------------
        self._seen = array("i")  #: generation stamps, one slot per state
        self._gen = 0
        self._buf: List[int] = []  #: reused result builder
        #: how many times the scratch/compiled buffers were (re)allocated;
        #: steady-state execution must not grow this (asserted by tests)
        self.scratch_allocations = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

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
        self._compiled = False

    def add_queries(self, queries: Sequence[XPathQuery]) -> List[int]:
        """Register queries under consecutive ids; return the ids."""
        ids = []
        next_id = max(self._queries, default=-1) + 1
        for offset, query in enumerate(queries):
            self.add_query(next_id + offset, query)
            ids.append(next_id + offset)
        return ids

    def freeze(self) -> "SharedPathNFA":
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
    # Flattening
    # ------------------------------------------------------------------

    def _compile(self) -> None:
        """Flatten the construction trie into contiguous arrays."""
        states = self._states
        count = len(states)
        labels = sorted({label for state in states for label in state.children})
        label_ids = {label: lid for lid, label in enumerate(labels)}
        num_labels = len(labels)

        trans = array("i", [-1]) * (count * num_labels)
        wild = array("i", [-1]) * count
        loop = bytearray(count)
        for state in states:
            if state.wild is not None:
                wild[state.state_id] = state.wild
            if state.self_loop:
                loop[state.state_id] = 1
            base = state.state_id * num_labels
            for label, target in state.children.items():
                trans[base + label_ids[label]] = target

        # Epsilon closure of a single state is the chain of descendant
        # links (each hop jumps to a fresh loop state, so chains are
        # finite and duplicate-free by construction).
        closure_off = array("i", [0]) * (count + 1)
        closure_ids = array("i")
        for state in states:
            current: Optional[int] = state.state_id
            while current is not None:
                closure_ids.append(current)
                current = states[current].descendant
            closure_off[state.state_id + 1] = len(closure_ids)

        accept_off = array("i", [0]) * (count + 1)
        accept_ids = array("i")
        accept_masks = [0] * count
        for state in states:
            accept_ids.extend(state.accepts)
            accept_off[state.state_id + 1] = len(accept_ids)
            for query_id in state.accepts:
                accept_masks[state.state_id] |= 1 << query_id
        # A state's live mask: the queries accepting at or below it in the
        # trie.  Every successor is created after its parent, so one
        # reverse sweep sees each child's mask before its parent's.
        live_masks = list(accept_masks)
        for state in reversed(states):
            mask = live_masks[state.state_id]
            for target in (state.wild, state.descendant, *state.children.values()):
                if target is not None:
                    mask |= live_masks[target]
            live_masks[state.state_id] = mask

        self._label_ids = label_ids
        self._num_labels = num_labels
        self._trans = trans
        self._wild = wild
        self._loop = loop
        self._closure_off = closure_off
        self._closure_ids = closure_ids
        self._accept_off = accept_off
        self._accept_ids = accept_ids
        self._accept_masks = accept_masks
        self._live_masks = live_masks
        self._seen = array("i", [0]) * count
        self._gen = 0
        self._buf = []
        self.scratch_allocations += 1
        self._compiled = True

    # ------------------------------------------------------------------
    # Execution primitives
    # ------------------------------------------------------------------

    def _next_gen(self) -> int:
        """Advance the scratch generation, re-zeroing on 31-bit wrap."""
        gen = self._gen + 1
        if gen == 0x7FFFFFFF:  # keep stamps within the array's int range
            seen = self._seen
            for index in range(len(seen)):
                seen[index] = 0
            gen = 1
        self._gen = gen
        return gen

    def epsilon_closure(self, states: Iterable[int]) -> Configuration:
        """Close a state set under descendant-state epsilon edges."""
        if not self._compiled:
            self._compile()
        gen = self._next_gen()
        seen = self._seen
        buf = self._buf
        buf.clear()
        closure_off = self._closure_off
        closure_ids = self._closure_ids
        for state_id in states:
            for position in range(closure_off[state_id], closure_off[state_id + 1]):
                member = closure_ids[position]
                if seen[member] != gen:
                    seen[member] = gen
                    buf.append(member)
        buf.sort()
        return tuple(buf)

    def initial_states(self) -> Configuration:
        """The closed start configuration."""
        return self.epsilon_closure((0,))

    def move(self, states: Iterable[int], tag: str) -> Configuration:
        """One step of the automaton on a start-element *tag*.

        Self-loop states stay active (the ``//`` skip), label and wildcard
        transitions fire, and the result is epsilon-closed.  The returned
        configuration is a canonical sorted tuple; all intermediate work
        happens in the reusable scratch buffers.
        """
        if not self._compiled:
            self._compile()
        gen = self._next_gen()
        seen = self._seen
        buf = self._buf
        buf.clear()
        num_labels = self._num_labels
        label_id = self._label_ids.get(tag, -1) if num_labels else -1
        trans = self._trans
        wild = self._wild
        loop = self._loop
        closure_off = self._closure_off
        closure_ids = self._closure_ids
        for state_id in states:
            if loop[state_id] and seen[state_id] != gen:
                # A loop state's own closure is just itself (loop states
                # never grow descendant links), so no chain walk needed.
                seen[state_id] = gen
                buf.append(state_id)
            target = trans[state_id * num_labels + label_id] if label_id >= 0 else -1
            if target >= 0:
                for position in range(closure_off[target], closure_off[target + 1]):
                    member = closure_ids[position]
                    if seen[member] != gen:
                        seen[member] = gen
                        buf.append(member)
            target = wild[state_id]
            if target >= 0:
                for position in range(closure_off[target], closure_off[target + 1]):
                    member = closure_ids[position]
                    if seen[member] != gen:
                        seen[member] = gen
                        buf.append(member)
        buf.sort()
        return tuple(buf)

    def accepted_queries(self, states: Iterable[int]) -> Set[int]:
        """Query ids accepted by any state in the configuration."""
        if not self._compiled:
            self._compile()
        accept_off = self._accept_off
        accept_ids = self._accept_ids
        matched: Set[int] = set()
        for state_id in states:
            for position in range(accept_off[state_id], accept_off[state_id + 1]):
                matched.add(accept_ids[position])
        return matched

    def query_masks(self, states: Iterable[int]) -> Tuple[int, int]:
        """``(live, accepting)`` bitmasks of a configuration over query ids.

        Bit ``q`` of *live* is set when query ``q`` can still match an
        extension of the consumed path (its accepting state lies at or
        below one of *states*); bit ``q`` of *accepting* when it matches
        the path itself.
        """
        if not self._compiled:
            self._compile()
        states = tuple(states)
        return (
            reduce(or_, map(self._live_masks.__getitem__, states), 0),
            reduce(or_, map(self._accept_masks.__getitem__, states), 0),
        )

    def trie_matches(self, roots: Iterable[Any]) -> Iterator[Tuple[Any, Set[int]]]:
        """Run the automaton over label tries; yield ``(node, accepted ids)``.

        *roots* are trie nodes exposing ``label`` and a ``children``
        mapping -- a per-document :class:`~repro.dataguide.dataguide.DataGuide`
        root or the roots of a combined guide.  Every node at which some
        query accepts is yielded once, in depth-first order.  Descent
        stops early only below a node where *every* registered query
        accepted (nothing deeper can add a query), which degenerates to
        the classic stop-at-accept walk for a single query.
        """
        query_count = len(self._queries)
        initial = self.initial_states()
        stack = [(root, self.move(initial, root.label)) for root in roots]
        while stack:
            node, configuration = stack.pop()
            if not configuration:
                continue
            accepted = self.accepted_queries(configuration)
            if accepted:
                yield node, accepted
                if len(accepted) == query_count:
                    continue
            for child in node.children.values():
                stack.append((child, self.move(configuration, child.label)))

    def is_accepting(self, states: Iterable[int]) -> bool:
        if not self._compiled:
            self._compile()
        accept_off = self._accept_off
        return any(
            accept_off[state_id] != accept_off[state_id + 1] for state_id in states
        )


def resolve_on_guide(
    guide: "CombinedDataGuide", queries: Sequence[XPathQuery]
) -> List[FrozenSet[int]]:
    """Result-document set of each of *queries* over a combined guide.

    The queries share one :class:`SharedPathNFA` and the guide is walked
    once.  A matched node's containment set holds every document with that
    path, so the union over a query's matched nodes is ``{d : the query
    accepts a path of guide(d)}`` -- for a structural query exactly what
    the reference evaluator returns (tested).  Predicates are ignored: a
    predicated query resolves to its structural relaxation's candidates.
    """
    nfa = SharedPathNFA()
    for query_id, query in enumerate(queries):
        nfa.add_query(query_id, query)
    nfa.freeze()
    roots = guide.root.children.values() if guide.virtual_root else (guide.root,)
    resolved: List[Set[int]] = [set() for _ in queries]
    for node, accepted in nfa.trie_matches(roots):
        docs = node.containing_docs()
        for query_id in accepted:
            resolved[query_id].update(docs)
    return [frozenset(docs) for docs in resolved]
