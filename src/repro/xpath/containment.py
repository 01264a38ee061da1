"""Query containment for the paper's linear XPath fragment.

``contains(a, b)`` decides whether query *a* subsumes query *b*: every
label path matched by *b* is matched by *a*.  For linear patterns over
``/``, ``//`` and ``*`` this is exact (unlike tree patterns, where the
homomorphism test is only sound), because each query denotes a regular
language of label strings and containment is regular-language inclusion.

The alphabet is unbounded (``*`` and ``//`` accept labels never written
in any query), so inclusion is checked over the finite alphabet of
*mentioned* labels plus one fresh symbol standing for "any other label".
A string over the infinite alphabet can be relabelled to this finite one
without changing either query's verdict, so the reduction is exact.

The decision procedure runs both queries' NFAs (the same construction
the resolver uses) in product over that alphabet, breadth-first
over configuration pairs, looking for a witness configuration where *b*
accepts and *a* does not.

``WorkloadAnalysis`` applies this to a pending query set: duplicate
strings, queries subsumed by another pending query, and the effective
(non-redundant) workload -- the statistics a broadcast server operator
cares about, since subsumed queries add no documents and no index nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.filtering.nfa import Configuration, SharedPathNFA
from repro.xpath.ast import WILDCARD, XPathQuery

#: Fresh symbol standing in for every label neither query mentions.  The
#: NUL prefix keeps it outside any parseable query's label space.
_FRESH = "\x00other"


def _mentioned_labels(*queries: XPathQuery) -> Set[str]:
    labels: Set[str] = set()
    for query in queries:
        for step in query.steps:
            if step.test != WILDCARD:
                labels.add(step.test)
    return labels


def _single_nfa(query: XPathQuery) -> SharedPathNFA:
    nfa = SharedPathNFA()
    nfa.add_query(0, query.structural_relaxation())
    return nfa.freeze()


def contains(container: XPathQuery, contained: XPathQuery) -> bool:
    """Is ``L(contained)`` a subset of ``L(container)``?

    Exact for predicate-free queries; queries with predicates are
    compared by their structural relaxations, which makes the answer
    *sound for pruning purposes* (structure is what the index sees) but
    not a semantic subsumption -- callers handling predicated queries
    should check ``has_predicates()`` first.
    """
    big = _single_nfa(container)
    small = _single_nfa(contained)
    alphabet = sorted(_mentioned_labels(container, contained)) + [_FRESH]

    start = (small.initial_states(), big.initial_states())
    seen: Set[Tuple[Configuration, Configuration]] = {start}
    frontier = deque([start])
    while frontier:
        small_config, big_config = frontier.popleft()
        if small.is_accepting(small_config) and not big.is_accepting(big_config):
            return False  # a witness string reaches here
        for label in alphabet:
            next_small = small.move(small_config, label)
            if not next_small:
                continue  # strings through here cannot be matched by b
            next_big = big.move(big_config, label)
            state = (next_small, next_big)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return True


def equivalent(left: XPathQuery, right: XPathQuery) -> bool:
    """Do both queries match exactly the same label paths?"""
    return contains(left, right) and contains(right, left)


@dataclass(frozen=True)
class WorkloadAnalysis:
    """Redundancy structure of a pending query set."""

    total: int
    #: indexes of queries kept as the effective workload
    effective: Tuple[int, ...]
    #: index -> index of the (kept) query that subsumes it
    subsumed_by: Dict[int, int] = field(default_factory=dict)
    #: index -> index of the first identical query
    duplicates_of: Dict[int, int] = field(default_factory=dict)

    @property
    def redundant_fraction(self) -> float:
        if not self.total:
            return 0.0
        return (len(self.subsumed_by) + len(self.duplicates_of)) / self.total


def analyse_workload(queries: Sequence[XPathQuery]) -> WorkloadAnalysis:
    """Partition a workload into effective / duplicate / subsumed queries.

    Quadratic in the number of *distinct* query strings; fine for the
    paper's N_Q range.  Queries with predicates are never merged away
    (their structural relaxation over-approximates them).
    """
    duplicates_of: Dict[int, int] = {}
    first_by_text: Dict[str, int] = {}
    distinct: List[int] = []
    for index, query in enumerate(queries):
        text = str(query)
        if text in first_by_text:
            duplicates_of[index] = first_by_text[text]
        else:
            first_by_text[text] = index
            distinct.append(index)

    subsumed_by: Dict[int, int] = {}
    # Wider queries (fewer steps, more //*) tend to subsume; checking in
    # ascending specificity keeps the kept set maximal-coverage.
    for index in distinct:
        if queries[index].has_predicates():
            continue
        for other in distinct:
            if other == index or other in subsumed_by:
                continue
            if queries[other].has_predicates():
                continue
            if contains(queries[other], queries[index]) and not contains(
                queries[index], queries[other]
            ):
                subsumed_by[index] = other
                break

    effective = tuple(
        index
        for index in distinct
        if index not in subsumed_by
    )
    return WorkloadAnalysis(
        total=len(queries),
        effective=effective,
        subsumed_by=subsumed_by,
        duplicates_of=duplicates_of,
    )
