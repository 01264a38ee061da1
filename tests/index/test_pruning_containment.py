"""Tests for the containment-annotated pruning variant (ablation).

This is the literal reading of the paper's Figure 6 (keep accepting
nodes + ancestors, full containment lists at accepting nodes).  It is
transparent to queries but can exceed the CI's size under load -- the
measurement that justified making the deduplicating scheme the default
(DESIGN.md section 7.1, EXPERIMENTS.md ablation table).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.server import DocumentStore, build_ci_from_store
from repro.index.ci import build_full_ci
from repro.index.pruning import prune_to_pci, prune_to_pci_containment
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.index.tables import find_node, node_paths
from tests.strategies import document_collections, queries


def paper_docs():
    from tests.xpath.test_evaluator import paper_documents

    return paper_documents()


class TestFigure6Literal:
    def test_kept_structure_matches_figure(self):
        """Q = {/a/b, /a/b/c} keeps exactly n1, n2, n5 -- the figure."""
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci_containment(
            ci, [parse_query("/a/b"), parse_query("/a/b/c")]
        )
        assert node_paths(pci) == [("a",), ("a", "b"), ("a", "b", "c")]

    def test_accepting_nodes_carry_containment(self):
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci_containment(
            ci, [parse_query("/a/b"), parse_query("/a/b/c")]
        )
        # containing(a/b) = d1, d2, d3, d5 -- the full result of /a/b.
        assert pci.doc_ids[find_node(pci, ("a", "b"))] == (0, 1, 2, 4)
        # Pure ancestors carry nothing.
        assert pci.doc_ids[find_node(pci, ("a",))] == ()

    def test_lookup_reads_matched_nodes_only(self):
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci_containment(ci, [parse_query("/a/b")])
        lookup = pci.lookup(parse_query("/a/b"))
        assert set(lookup.doc_ids) == {0, 1, 2, 4}
        # No subtree expansion: visited == live walk only.
        paths = node_paths(pci)
        visited_paths = {paths[i] for i in lookup.visited_node_ids}
        assert visited_paths <= {("a",), ("a", "b")}

    def test_duplication_across_nested_accepting_nodes(self):
        """The duplication this variant suffers from: a doc in both
        containment sets appears twice."""
        ci = build_full_ci(paper_docs())
        pci, _ = prune_to_pci_containment(
            ci, [parse_query("/a/b"), parse_query("/a/b/c")]
        )
        occurrences = sum(1 for docs in pci.doc_ids if 1 in docs)  # d2
        assert occurrences == 2  # at (a,b) and (a,b,c)

    def test_can_exceed_maximal_scheme(self, nitf_docs, nitf_queries):
        """Measured motivation for the default: under a real workload the
        containment layout is never smaller than the deduplicating one."""
        requested = set()
        for query in nitf_queries:
            requested |= matching_documents(query, nitf_docs)
        ci = build_ci_from_store(DocumentStore(nitf_docs), requested)
        _pci_m, stats_m = prune_to_pci(ci, nitf_queries)
        _pci_c, stats_c = prune_to_pci_containment(ci, nitf_queries)
        assert stats_c.bytes_after >= stats_m.bytes_after


class TestContainmentProperties:
    @given(document_collections(), st.lists(queries(), min_size=1, max_size=4))
    def test_transparency(self, docs, query_list):
        """Pending queries still find their exact CI result sets."""
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci_containment(ci, query_list)
        for query in query_list:
            expected = set(ci.lookup(query).doc_ids)
            assert set(pci.lookup(query).doc_ids) == expected, str(query)

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=4))
    def test_structure_matches_default_pruning(self, docs, query_list):
        """Both variants keep exactly the same node set; only annotations
        differ."""
        ci = build_full_ci(docs)
        pci_m, _ = prune_to_pci(ci, query_list)
        pci_c, _ = prune_to_pci_containment(ci, query_list)
        assert pci_m.labels == pci_c.labels
        assert pci_m.ends == pci_c.ends

    @given(document_collections(), st.lists(queries(), min_size=1, max_size=3))
    def test_lookup_never_visits_beyond_walk(self, docs, query_list):
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci_containment(ci, query_list)
        for query in query_list:
            lookup = pci.lookup(query)
            # Every visited node lies on a live root walk: its ancestors
            # are all visited too.
            for node_id in lookup.visited_node_ids:
                ancestors = [
                    above for above in range(node_id) if pci.ends[above] > node_id
                ]
                assert lookup.visited_node_ids.issuperset(ancestors)
