"""Differential tests: the one resolver against the reference evaluator.

:func:`repro.filtering.nfa.resolve_on_guide` answers every "which
documents match this query" question in ``src`` -- admission
(``BroadcastServer.resolve_batch``), the experiments'
:class:`~repro.experiments.runner.PendingIndex` and ``repro index``.  It
must equal :func:`repro.xpath.evaluator.result_table` on any collection,
under both combined-guide layouts (one shared root label, or a virtual
root over differing ones), for workload-generated query sets at P = 0
and P = 0.3, and for queries that match nothing.  Predicated queries go
through ``PendingIndex.build``'s phase two.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.server import DocumentStore
from repro.dataguide.roxsum import build_combined_guide
from repro.experiments.runner import PendingIndex
from repro.filtering.nfa import resolve_on_guide
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.evaluator import result_table
from repro.xpath.generator import QueryGenerator, QueryWorkloadConfig
from repro.xpath.parser import parse_query
from tests.strategies import LABELS, xml_elements

#: A label outside the strategies' alphabet: a query on it matches nothing.
NO_MATCH = parse_query("/zz")


@st.composite
def laid_out_collections(draw):
    """``(documents, virtual_root)``: every root relabelled to one label
    (single-root guide), or the first two forced apart (virtual root)."""
    virtual = draw(st.booleans())
    roots = draw(st.lists(xml_elements(), min_size=2 if virtual else 1, max_size=5))
    for index, root in enumerate(roots):
        root.tag = LABELS[index % 2] if virtual and index < 2 else LABELS[0]
    return [XMLDocument(doc_id, root) for doc_id, root in enumerate(roots)], virtual


def _workload(documents, p, seed, count):
    config = QueryWorkloadConfig(seed=seed, wildcard_descendant_prob=p, max_depth=4)
    return QueryGenerator(documents, config).generate_many(count)


class TestResolveOnGuide:
    @given(
        laid_out_collections(),
        st.sampled_from([0.0, 0.3]),
        st.integers(0, 2**16),
        st.integers(1, 8),
    )
    def test_equals_reference_evaluator(self, collection, p, seed, count):
        documents, virtual = collection
        guide = build_combined_guide(documents)
        assert guide.virtual_root is virtual
        queries = _workload(documents, p, seed, count) + [NO_MATCH]
        oracle = result_table(queries, documents)
        resolved = resolve_on_guide(guide, queries)
        assert resolved == [frozenset(oracle[query]) for query in queries]
        assert resolved[-1] == frozenset()

    def test_no_queries(self):
        guide = build_combined_guide([XMLDocument(0, build_element("a"))])
        assert resolve_on_guide(guide, []) == []


class TestPendingIndexPhaseTwo:
    #: Phase two keeps what the evaluator accepts: the predicate can only
    #: narrow the structural relaxation's candidates, and ``[.//zz]``
    #: rejects every one of them.
    PREDICATED = ("/a[b]", "//b[c]", "//*[@x]", "/a//c[.//d]", "//b[.//zz]")

    @given(laid_out_collections(), st.integers(0, 2**16))
    def test_equals_reference_evaluator(self, collection, seed):
        documents, _virtual = collection
        # A generated query guarantees the CI has a document to index.
        queries = _workload(documents, 0.3, seed, 2) + [
            parse_query(text) for text in self.PREDICATED
        ]
        pending = PendingIndex.build(DocumentStore(documents), queries)
        oracle = result_table(queries, documents)
        assert pending.docs_per_query == [frozenset(oracle[q]) for q in queries]
        assert pending.requested == frozenset().union(*pending.docs_per_query)

    def test_candidates_that_all_fail_phase_two(self, nitf_store):
        query = parse_query("//table[.//nosuch]")
        candidates = resolve_on_guide(
            nitf_store.full_guide, [query.structural_relaxation()]
        )[0]
        assert candidates  # the structure phase finds tables ...
        pending = PendingIndex.build(
            nitf_store, [query, parse_query("/nitf/head/title")]
        )
        assert pending.docs_per_query[0] == frozenset()  # ... none survive
        assert pending.requested == pending.docs_per_query[1]
