"""Naive reference evaluator for the XPath subset.

Walks document trees directly, with no index and no automaton.  It is the
*oracle* the guide-walk resolver and the Compact Index lookups are
differential-tested against, so it favours obviousness over speed.

Two evaluation levels exist:

* the paper's predicate-free queries are matched purely on label paths
  (``matches_path``);
* queries with predicates (the grammar extension) are evaluated at the
  element level: structure first, then attribute / relative-path
  predicates on each candidate element.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set

from repro.xmlkit.model import XMLDocument, XMLElement
from repro.xpath.ast import (
    AttributePredicate,
    Axis,
    PathPredicate,
    Predicate,
    Step,
    XPathQuery,
)


def _descendants(element: XMLElement) -> Iterator[XMLElement]:
    """Strict descendants, document order."""
    for child in element.children:
        yield child
        yield from _descendants(child)


def predicate_holds(element: XMLElement, predicate: Predicate) -> bool:
    """Evaluate one predicate on a context element."""
    if isinstance(predicate, AttributePredicate):
        if predicate.name not in element.attributes:
            return False
        return (
            predicate.value is None
            or element.attributes[predicate.name] == predicate.value
        )
    if isinstance(predicate, PathPredicate):
        return _relative_match(element, predicate.steps)
    raise TypeError(f"unknown predicate type: {predicate!r}")


def _relative_match(context: XMLElement, steps: Sequence[Step]) -> bool:
    """Does the relative path exist under *context*?"""
    contexts: Set[XMLElement] = {context}
    for step in steps:
        advanced: Set[XMLElement] = set()
        for element in contexts:
            candidates: Iterable[XMLElement]
            if step.axis is Axis.CHILD:
                candidates = element.children
            else:
                candidates = _descendants(element)
            advanced.update(
                candidate
                for candidate in candidates
                if step.test_matches(candidate.tag)
            )
        if not advanced:
            return False
        contexts = advanced
    return True


def _step_candidates(
    contexts: Set[XMLElement], step: Step, is_first: bool, document: XMLDocument
) -> Set[XMLElement]:
    """Elements one location step reaches from the current contexts."""
    advanced: Set[XMLElement] = set()
    if is_first:
        # The first step applies at the (virtual) document node: CHILD
        # reaches the root element, DESCENDANT reaches every element.
        if step.axis is Axis.CHILD:
            pool: Iterable[XMLElement] = (document.root,)
        else:
            pool = document.root.iter()
        candidates = pool
        advanced.update(c for c in candidates if step.test_matches(c.tag))
    else:
        for element in contexts:
            candidates = (
                element.children
                if step.axis is Axis.CHILD
                else _descendants(element)
            )
            advanced.update(c for c in candidates if step.test_matches(c.tag))
    return advanced


def matching_elements(query: XPathQuery, document: XMLDocument) -> List[XMLElement]:
    """All elements of *document* the query selects (predicates honoured)."""
    if not query.has_predicates():
        return [
            element
            for element, path in document.root.iter_with_paths()
            if query.matches_path(path)
        ]
    contexts: Set[XMLElement] = set()
    for index, step in enumerate(query.steps):
        contexts = _step_candidates(contexts, step, index == 0, document)
        for predicate in step.predicates:
            contexts = {
                element
                for element in contexts
                if predicate_holds(element, predicate)
            }
        if not contexts:
            return []
    # Deterministic document order for stable test output.
    order = {id(element): pos for pos, element in enumerate(document.root.iter())}
    return sorted(contexts, key=lambda element: order[id(element)])


def evaluate_on_document(query: XPathQuery, document: XMLDocument) -> bool:
    """Does *document* satisfy *query* (contain at least one match)?"""
    if not query.has_predicates():
        return any(
            query.matches_path(path)
            for _element, path in document.root.iter_with_paths()
        )
    return bool(matching_elements(query, document))


def matching_documents(
    query: XPathQuery, documents: Sequence[XMLDocument]
) -> Set[int]:
    """IDs of the documents in the collection satisfying *query*."""
    return {doc.doc_id for doc in documents if evaluate_on_document(query, doc)}


def result_table(
    queries: Sequence[XPathQuery], documents: Sequence[XMLDocument]
) -> Dict[XPathQuery, Set[int]]:
    """Per-query result-document sets, computed naively.

    This is what :func:`repro.filtering.nfa.resolve_on_guide` must
    reproduce; the tests assert equality between the two.
    """
    table: Dict[XPathQuery, Set[int]] = {query: set() for query in queries}
    for doc in documents:
        # Predicate-free queries share the distinct-path enumeration.
        paths = doc.distinct_label_paths()
        for query in queries:
            if query.has_predicates():
                if evaluate_on_document(query, doc):
                    table[query].add(doc.doc_id)
            elif query.matches_any_path(paths):
                table[query].add(doc.doc_id)
    return table
