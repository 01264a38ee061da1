"""Unit, example and property tests for CI -> PCI pruning."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.filtering.dfa import LazyQueryDFA
from repro.broadcast.server import DocumentStore, build_ci_from_store
from repro.index.ci import build_full_ci
from repro.index.pruning import prune_to_pci
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.index.tables import find_node, node_paths
from tests.strategies import document_collections, queries


def paper_docs():
    from tests.xpath.test_evaluator import paper_documents

    return paper_documents()


class TestPaperFigure6:
    """Q = {/a/b, /a/b/c} prunes the running example to n1, n2, n5."""

    def test_kept_structure(self):
        ci = build_full_ci(paper_docs())
        queries_ = [parse_query("/a/b"), parse_query("/a/b/c")]
        pci, stats = prune_to_pci(ci, queries_)
        assert node_paths(pci) == [("a",), ("a", "b"), ("a", "b", "c")]
        assert stats.nodes_before == 7
        assert stats.nodes_after == 3

    def test_results_preserved(self):
        docs = paper_docs()
        ci = build_full_ci(docs)
        queries_ = [parse_query("/a/b"), parse_query("/a/b/c")]
        pci, _stats = prune_to_pci(ci, queries_)
        for query in queries_:
            assert set(pci.lookup(query).doc_ids) == matching_documents(query, docs)

    def test_orphaned_annotations_reattached(self):
        """d1's only annotation lives at the pruned node a/b/a; it must
        re-attach at a/b or /a/b would lose a result document."""
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci(ci, [parse_query("/a/b"), parse_query("/a/b/c")])
        assert 0 in pci.doc_ids[find_node(pci, ("a", "b"))]  # d1

    def test_unrequested_annotations_dropped(self):
        """d4 matches neither query; its annotations must vanish."""
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci(ci, [parse_query("/a/b"), parse_query("/a/b/c")])
        assert 3 not in pci.annotated_doc_ids()


class TestPruningBehaviour:
    def test_no_matching_query_yields_bare_root(self):
        ci = build_full_ci(paper_docs())
        pci, stats = prune_to_pci(ci, [parse_query("/zzz")])
        assert pci.node_count == 1
        assert pci.total_doc_entries() == 0

    def test_descendant_query_keeps_matching_spine(self):
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci(ci, [parse_query("/a//c")])
        kept = set(node_paths(pci))
        # All paths ending in c are accepting; their ancestors survive.
        assert ("a", "b", "c") in kept
        assert ("a", "c") in kept
        assert ("a", "b", "a") not in kept  # no c below, dead

    def test_prebuilt_dfa_accepted(self):
        ci = build_full_ci(paper_docs())
        query_list = [parse_query("/a/b")]
        dfa = LazyQueryDFA.from_queries(query_list)
        pci_a, _ = prune_to_pci(ci, query_list, dfa=dfa)
        pci_b, _ = prune_to_pci(ci, query_list)
        assert pci_a.tree_form() == pci_b.tree_form()

    def test_stats_ratios(self):
        ci = build_full_ci(paper_docs())
        _pci, stats = prune_to_pci(ci, [parse_query("/a/b")])
        assert 0 < stats.nodes_after < stats.nodes_before
        assert 0 < stats.bytes_after < stats.bytes_before
        assert stats.doc_entries_after <= stats.doc_entries_before

    def test_wildcard_queries(self):
        docs = paper_docs()
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci(ci, [parse_query("/a/c/*")])
        assert set(pci.lookup(parse_query("/a/c/*")).doc_ids) == {1, 3, 4}


class TestPruningProperties:
    @given(document_collections(), st.lists(queries(), min_size=1, max_size=4))
    def test_transparency(self, docs, query_list):
        """The paper's core guarantee: "pruning is transparent to clients"
        -- every pending query finds exactly its CI result set in the PCI."""
        ci = build_full_ci(docs)
        pci, _stats = prune_to_pci(ci, query_list)
        for query in query_list:
            expected = set(ci.lookup(query).doc_ids)
            assert set(pci.lookup(query).doc_ids) == expected, str(query)

    @given(
        document_collections(min_docs=2), st.lists(queries(), min_size=1, max_size=4)
    )
    def test_transparency_under_virtual_root(self, docs, query_list):
        """Transparency when the collection needs a synthetic root: mixed
        root labels force ``virtual_root=True`` and the depth-shifted DFA
        walk, which plain random collections only sometimes exercise."""
        for index, doc in enumerate(docs):
            doc.root.tag = ("a", "b")[index % 2]  # guarantee >= 2 root labels
        ci = build_full_ci(docs)
        assert ci.virtual_root
        pci, _stats = prune_to_pci(ci, query_list)
        for query in query_list:
            expected = set(ci.lookup(query).doc_ids)
            assert set(pci.lookup(query).doc_ids) == expected, str(query)

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=4))
    def test_pci_never_larger(self, docs, query_list):
        """Pruning must reduce (or preserve) index size -- the headline."""
        ci = build_full_ci(docs)
        _pci, stats = prune_to_pci(ci, query_list)
        assert stats.bytes_after <= stats.bytes_before
        assert stats.nodes_after <= stats.nodes_before
        assert stats.doc_entries_after <= stats.doc_entries_before

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=3))
    def test_annotations_only_for_requested_docs(self, docs, query_list):
        """Documents no pending query requests never appear in the PCI."""
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci(ci, query_list)
        requested = set()
        for query in query_list:
            requested |= matching_documents(query, docs)
        assert set(pci.annotated_doc_ids()) <= requested

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=3))
    def test_kept_nodes_lead_to_accepting_nodes(self, docs, query_list):
        """Every PCI node has an accepting descendant-or-self (no dead
        weight survives pruning)."""
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci(ci, query_list)
        if pci.node_count == 1 and pci.total_doc_entries() == 0:
            return  # bare-root fallback

        # Label paths in document space (virtual root stripped).
        paths = [
            path[1:] if pci.virtual_root else path for path in node_paths(pci)
        ]
        for node_id in range(1 if pci.virtual_root else 0, pci.node_count):
            subtree_paths = set(paths[node_id : pci.ends[node_id]])
            assert any(
                query.matches_path(path)
                for query in query_list
                for path in subtree_paths
            ), f"dead node {paths[node_id]}"

    def test_pruning_with_requested_subset_ci(self, nitf_docs, nitf_queries):
        """Realistic pipeline: CI over requested docs, then pruning."""
        requested = set()
        for query in nitf_queries:
            requested |= matching_documents(query, nitf_docs)
        ci = build_ci_from_store(DocumentStore(nitf_docs), requested)
        pci, stats = prune_to_pci(ci, nitf_queries)
        assert stats.bytes_after <= stats.bytes_before
        for query in nitf_queries[:10]:
            assert set(pci.lookup(query).doc_ids) == matching_documents(
                query, nitf_docs
            )
