"""End-to-end replay of the paper's running example (Figures 2-7).

The five documents and six queries of Section 3 flow through the entire
pipeline: filtering, CI construction, pruning, the two-tier split and the
client protocols.  Every paper statement that survives in the available
text is asserted here.
"""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.onetier import OneTierClient
from repro.client.twotier import TwoTierClient
from repro.dataguide.roxsum import build_combined_guide
from repro.filtering.nfa import resolve_on_guide
from repro.index.ci import build_full_ci
from repro.index.packing import pack_index
from repro.index.pruning import prune_to_pci
from repro.index.twotier import split_two_tier
from repro.xpath.parser import parse_query
from tests.index.tables import find_node, node_paths

QUERY_TEXTS = ["/a/b/a", "/a/c/a", "/a//c", "/a/b", "/a/c/*", "/a/c/a"]

#: Figure 2(b): matched document ID lists (0-based: d1 -> 0 ... d5 -> 4).
EXPECTED_RESULTS = {
    0: {0, 1},  # q1
    1: {3, 4},  # q2
    2: {1, 2, 3, 4},  # q3
    3: {0, 1, 2, 4},  # q4
    4: {1, 3, 4},  # q5
    5: {3, 4},  # q6
}


@pytest.fixture(scope="module")
def docs():
    from tests.xpath.test_evaluator import paper_documents

    return paper_documents()


@pytest.fixture(scope="module")
def queries():
    return [parse_query(text) for text in QUERY_TEXTS]


class TestFigure2:
    def test_query_result_table(self, docs, queries):
        result = resolve_on_guide(build_combined_guide(docs), queries)
        assert dict(enumerate(result)) == EXPECTED_RESULTS


class TestFigure3:
    def test_ci_structure(self, docs):
        ci = build_full_ci(docs)
        # Our reconstruction has 7 guide nodes (the paper's figure shows 9
        # for its unrecoverable exact document set; all recoverable
        # annotations below agree).
        assert ci.node_count == 7
        assert ci.doc_ids[find_node(ci, ("a", "b", "a"))] == (0, 1)

    def test_q1_walkthrough(self, docs):
        """Section 3.1: q1 descends a -> b -> leaf (a,b,a), reads d1, d2."""
        ci = build_full_ci(docs)
        lookup = ci.lookup(parse_query("/a/b/a"))
        assert lookup.doc_ids == (0, 1)
        paths = node_paths(ci)
        walked = sorted(paths[i] for i in lookup.visited_node_ids)
        assert ("a",) in walked and ("a", "b") in walked and ("a", "b", "a") in walked
        # The /a/c branch dies immediately: never visited.
        assert ("a", "c") not in walked

    def test_d2_annotated_three_times(self, docs):
        """Section 3.3: d2's pointer appears exactly three times in CI."""
        ci = build_full_ci(docs)
        assert sum(1 for docs in ci.doc_ids if 1 in docs) == 3


class TestFigure5Packing:
    def test_nodes_packed_fewer_packets_than_nodes(self, docs):
        ci = build_full_ci(docs)
        packed = pack_index(ci, one_tier=True)
        assert packed.packet_count < ci.node_count

    def test_q1_touches_prefix_packets_only(self, docs):
        """'Rather than downloading the entire index, clients only need to
        access packet P1 to answer q1' -- with our sizes the walk stays in
        the leading packet(s), never the trailing ones."""
        ci = build_full_ci(docs)
        packed = pack_index(ci, one_tier=True)
        lookup = ci.lookup(parse_query("/a/b/a"))
        touched = packed.packets_for_nodes(lookup.visited_node_ids)
        assert max(touched) < packed.packet_count - 1 or packed.packet_count == 1


class TestFigure6Pruning:
    def test_exact_kept_set(self, docs):
        ci = build_full_ci(docs)
        pci, stats = prune_to_pci(
            ci, [parse_query("/a/b"), parse_query("/a/b/c")]
        )
        assert node_paths(pci) == [("a",), ("a", "b"), ("a", "b", "c")]
        assert stats.nodes_after == 3


class TestFigure7TwoTier:
    def test_two_tier_split_sizes(self, docs, queries):
        ci = build_full_ci(docs)
        pci, _ = prune_to_pci(ci, queries)
        two_tier = split_two_tier(pci)
        assert two_tier.first_tier_bytes < pci.size_bytes(one_tier=True)

    def test_q1_two_tier_protocol(self, docs):
        """Section 3.3's walkthrough: q1 reads the first tier for IDs
        (d1, d2), then the second tier for their offsets."""
        store = DocumentStore(docs)
        server = BroadcastServer(store, cycle_data_capacity=1_000_000)
        query = parse_query("/a/b/a")
        server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(query, 0)
        client.on_cycle(cycle)
        assert client.expected_doc_ids == frozenset({0, 1})
        assert client.received_doc_ids == {0, 1}
        offsets = cycle.offset_list.lookup({0, 1})
        assert set(offsets) == {0, 1}


class TestFullBroadcast:
    def test_all_six_queries_served(self, docs, queries):
        store = DocumentStore(docs)
        server = BroadcastServer(store, cycle_data_capacity=256)
        clients = []
        for query in queries:
            server.submit(query, 0)
            clients.append(
                (TwoTierClient(query, 0), OneTierClient(query, 0), query)
            )
        for _ in range(50):
            cycle = server.build_cycle()
            if cycle is None:
                break
            for two, one, _query in clients:
                two.on_cycle(cycle)
                one.on_cycle(cycle)
        for index, (two, one, query) in enumerate(clients):
            assert two.satisfied, str(query)
            assert one.satisfied, str(query)
            assert two.received_doc_ids == EXPECTED_RESULTS[index]
            assert one.received_doc_ids == EXPECTED_RESULTS[index]
