"""Each cycle's CI is the collection table restricted to its request.

The store keeps one table over its whole collection, with per-row
document masks, and follows every mutation by its delta: a removed
document clears its bits, an added one sets them, and only a new path
rebuilds the table.  This differential draws request sets, query sets
and interleaved add/remove mutations, and holds the restriction -- as a
materialised CI, as a PCI and in its pruning stats -- to
``build_ci_from_store`` + ``prune_to_pci`` from scratch, on the ledger's
corpus and on mixed-root collections.
"""

from __future__ import annotations

import functools
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.server import BroadcastServer, DocumentStore, build_ci_from_store
from repro.dataguide.roxsum import build_combined_guide
from repro.index.ci import CompactIndex
from repro.index.pruning import prune_to_pci
from repro.sim.config import SimulationConfig
from repro.sim.simulation import build_collection
from repro.xmlkit.generator import (
    DocumentGenerator,
    GeneratorConfig,
    nasa_like_dtd,
    nitf_like_dtd,
)
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.ast import XPathQuery
from repro.xpath.generator import generate_workload
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries, xml_elements


@functools.lru_cache(maxsize=None)
def ledger_corpus() -> List[XMLDocument]:
    """The live workloads' corpus (240 documents, collection seed 7)."""
    return build_collection(SimulationConfig(document_count=240, collection_seed=7))


@functools.lru_cache(maxsize=None)
def ledger_pool() -> List[XPathQuery]:
    return generate_workload(ledger_corpus(), 80, seed=1)


def form(index: CompactIndex):
    return (index.virtual_root, index.annotation, index.tree_form())


class Table:
    """A cached server whose every restriction is checked from scratch."""

    def __init__(self, documents: List[XMLDocument]) -> None:
        self.server = BroadcastServer(DocumentStore(documents))
        self.next_id = max(doc.doc_id for doc in documents) + 1
        #: removed ids, for adds that reuse one (with other content)
        self.free_ids: List[int] = []

    def add(self, make, reuse_id: bool) -> None:
        if reuse_id and self.free_ids:
            doc_id = self.free_ids.pop()
        else:
            doc_id, self.next_id = self.next_id, self.next_id + 1
        self.server.add_document(make(doc_id))

    def remove(self, doc_id: int) -> None:
        if len(self.server.store) > 1:
            self.server.remove_document(doc_id)
            self.free_ids.append(doc_id)

    def check(self, requested, query_list) -> None:
        cache, store = self.server.cache, self.server.store
        requested = frozenset(requested)
        ci = cache.ci_for(requested)
        scratch = build_ci_from_store(store, requested)
        assert form(ci.materialise()) == form(scratch)
        pci, stats = cache.pci_for(ci, requested, query_list)
        scratch_pci, scratch_stats = prune_to_pci(scratch, query_list)
        assert form(pci) == form(scratch_pci)
        assert stats == scratch_stats


def requests(live: List[int], most: int):
    """The whole live set (so a reused id meets every row it shares) or
    a random part of it."""
    return st.one_of(
        st.just(frozenset(live)),
        st.frozensets(st.sampled_from(live), min_size=1, max_size=most),
    )


def run_steps(table: Table, data, query_pool) -> None:
    seed = data.draw(st.integers(0, 9), label="generator seed")
    nitf = DocumentGenerator(nitf_like_dtd(), GeneratorConfig(seed=seed))
    nasa = DocumentGenerator(nasa_like_dtd(), GeneratorConfig(seed=3))
    for _ in range(data.draw(st.integers(2, 8), label="steps")):
        operation = data.draw(
            st.sampled_from(["check", "check", "add", "add_other_root", "remove"]),
            label="operation",
        )
        live = sorted(table.server.store.by_id)
        reuse_id = data.draw(st.booleans(), label="reuse id")
        if operation == "add":
            table.add(nitf.generate, reuse_id)
        elif operation == "add_other_root":
            table.add(nasa.generate, reuse_id)
        elif operation == "remove":
            table.remove(data.draw(st.sampled_from(live), label="victim"))
        else:
            requested = data.draw(requests(live, 40), label="requested")
            table.check(requested, data.draw(query_pool, label="queries"))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_ledger_corpus_restrictions_match_scratch(data):
    table = Table(ledger_corpus())
    pool = st.lists(st.sampled_from(ledger_pool()), min_size=1, max_size=12)
    run_steps(table, data, pool)
    table.check(table.server.store.by_id, data.draw(pool))


@settings(max_examples=80, deadline=None)
@given(document_collections(min_docs=2, max_docs=6), st.data())
def test_mixed_root_restrictions_match_scratch(docs, data):
    table = Table(docs)
    pool = st.lists(queries(max_steps=3), min_size=1, max_size=4)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        live = sorted(table.server.store.by_id)
        operation = data.draw(st.sampled_from(["check", "add", "remove"]), label="operation")
        if operation == "add":
            root = data.draw(xml_elements(max_depth=3), label="root")
            reuse_id = data.draw(st.booleans(), label="reuse id")
            table.add(lambda doc_id: XMLDocument(doc_id, root), reuse_id)
        elif operation == "remove":
            table.remove(data.draw(st.sampled_from(live), label="victim"))
        else:
            requested = data.draw(requests(live, 8), label="requested")
            table.check(requested, data.draw(pool, label="queries"))


def test_one_root_label_of_a_virtual_collection_is_not_virtual():
    """A request under one root label of a mixed collection gets the CI
    the combined guide of that set has: rooted at the label, not virtual."""
    docs = [
        XMLDocument(0, build_element("a", build_element("b"), build_element("c"))),
        XMLDocument(1, build_element("x", build_element("y"))),
        XMLDocument(2, build_element("a", build_element("b", build_element("d")))),
    ]
    store = DocumentStore(docs)
    assert store.collection.index.virtual_root
    ci = store.collection.restrict(frozenset({0, 2})).materialise()
    expected = CompactIndex.from_guide(build_combined_guide([docs[0], docs[2]]))
    assert not ci.virtual_root
    assert form(ci) == form(expected)
    table = Table(docs)
    table.check({0, 2}, [parse_query("/a/b"), parse_query("//d")])
    table.check({0, 1}, [parse_query("/a/b"), parse_query("/x")])
    table.remove(1)  # the table stays virtual; every request is under "a"
    table.check({0, 2}, [parse_query("//b")])


def test_a_reused_id_keeps_none_of_the_old_postings():
    """Removing a document clears every bit it had: the same id added
    back with other content shares rows it used to be a leaf of."""
    table = Table(
        [
            XMLDocument(0, build_element("a", build_element("b"))),
            XMLDocument(1, build_element("a", build_element("b", build_element("x")))),
            XMLDocument(2, build_element("a", build_element("c"))),
        ]
    )
    table.check({0, 1, 2}, [parse_query("/a")])
    table.remove(0)
    table.add(lambda doc_id: XMLDocument(doc_id, build_element("a", build_element("c"))), True)
    table.check({0, 1}, [parse_query("/a/b"), parse_query("/a/c")])
    table.check({0, 1, 2}, [parse_query("/a")])
