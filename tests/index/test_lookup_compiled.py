"""The index search over a compiled query (``CompactIndex.lookup``).

One :class:`LazyQueryDFA` is compiled per query (or query set) and reused
across index trees; its memoised rows and query masks must never leak
one tree's (or one state's) answer into another search.  The
differential below holds the compiled walk against three independent
answers: a fresh compile per search, the pre-flattening pointer-chasing
NFA kept in ``tests/filtering/nfa_reference.py`` driving the original
(node, configuration) walk, and the naive ``xpath.evaluator``.
``TestPipelineDifferential`` carries the same answers on through
pruning, packing and the encode -> decode round trip, and
``TestQuerySetWalk`` holds one walk for a whole query set to every
query's own reference search, packets included.
"""

from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Set, Tuple, Union

from hypothesis import given
from hypothesis import strategies as st

from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex, LookupResult, build_full_ci
from repro.index.encoding import LabelTable, decode_index, encode_index
from repro.index.packing import PackingStrategy, pack_index
from repro.index.pruning import prune_to_pci, prune_to_pci_containment
from repro.index.sizes import PAPER_SIZE_MODEL, SizeModel
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.filtering.nfa_reference import ReferenceSharedPathNFA
from tests.index.tables import node_paths
from tests.strategies import LABELS, document_collections, queries

#: 16-byte packets: a row with two children or a few documents spans
#: several packets
TINY_PACKETS = SizeModel(packet_bytes=16)


class Reference(NamedTuple):
    """What a search must find, worked out without the search under test."""

    doc_ids: Tuple[int, ...]
    matched_node_ids: FrozenSet[int]
    visited_node_ids: FrozenSet[int]


def reference_lookup(index: CompactIndex, query) -> Reference:
    """The index search as it was before queries were compiled: a
    (node, configuration) walk stepping the reference NFA per child, then
    a subtree sweep per matched node."""
    nfa = ReferenceSharedPathNFA()
    nfa.add_query(0, query)
    nfa.freeze()
    visited: Set[int] = set()
    matched: Set[int] = set()
    initial = nfa.initial_states()
    labels, children = index.labels, index.children
    if index.virtual_root:
        visited.add(0)
        stack = [(c, nfa.move(initial, labels[c])) for c in children[0]]
    else:
        stack = [(0, nfa.move(initial, labels[0]))]
    while stack:
        node_id, configuration = stack.pop()
        if not configuration:
            continue
        visited.add(node_id)
        if nfa.is_accepting(configuration):
            matched.add(node_id)
        for child in children[node_id]:
            stack.append((child, nfa.move(configuration, labels[child])))
    doc_ids: Set[int] = set()
    for node_id in matched:
        if index.annotation == "containment":
            doc_ids.update(index.doc_ids[node_id])
            continue
        # Child by child, not as the id range the search under test takes.
        sweep = [node_id]
        while sweep:
            sub = sweep.pop()
            visited.add(sub)
            doc_ids.update(index.doc_ids[sub])
            sweep.extend(children[sub])
    return Reference(
        doc_ids=tuple(sorted(doc_ids)),
        matched_node_ids=frozenset(matched),
        visited_node_ids=frozenset(visited),
    )


@st.composite
def index_nodes(draw, label: str = LABELS[0], max_depth: int = 4):
    """A nested ``(label, doc_ids, [children])`` tree."""
    doc_ids = sorted(draw(st.sets(st.integers(0, 7), max_size=3)))
    children = []
    if max_depth > 1:
        for child_label in sorted(draw(st.sets(st.sampled_from(LABELS), max_size=3))):
            children.append(draw(index_nodes(child_label, max_depth - 1)))
    return label, doc_ids, children


@st.composite
def index_trees(draw, size_models=(PAPER_SIZE_MODEL,)) -> CompactIndex:
    """A random valid index tree: virtual root or not, either layout."""
    return CompactIndex.from_nested(
        draw(index_nodes(draw(st.sampled_from(LABELS)))),
        size_model=draw(st.sampled_from(size_models)),
        virtual_root=draw(st.booleans()),
        annotation=draw(st.sampled_from(["maximal", "containment"])),
    )


def assert_same_result(
    got: LookupResult, want: Union[LookupResult, Reference], what: str
) -> None:
    assert got.doc_ids == want.doc_ids, what
    assert got.matched_node_ids == want.matched_node_ids, what
    assert got.visited_node_ids == want.visited_node_ids, what


class TestCompiledLookupDifferential:
    @given(st.lists(index_trees(), min_size=3, max_size=5), queries())
    def test_one_compile_across_trees_equals_fresh_and_reference(
        self, trees: List[CompactIndex], query
    ):
        compiled = LazyQueryDFA.from_queries([query])
        # Twice over the trees: the second pass runs on rows and accept
        # flags the first pass (over *other* trees) left behind.
        for tree in trees + trees:
            got = tree.lookup(compiled)
            assert_same_result(got, tree.lookup(query), "fresh compile")
            assert_same_result(got, reference_lookup(tree, query), "reference NFA")

    @given(
        st.lists(document_collections(), min_size=3, max_size=3),
        queries(),
        st.lists(queries(), max_size=3),
    )
    def test_one_compile_across_collections_equals_evaluator(
        self, collections, query, others
    ):
        """CI, PCI and containment PCI of three collections, one compiled
        query: every tree returns the evaluator's documents (the query is
        in each pruning set, so pruning is transparent to it)."""
        compiled = LazyQueryDFA.from_queries([query])
        pending = [query] + others
        for docs in collections:
            ci = build_full_ci(docs)
            want = tuple(sorted(matching_documents(query, docs)))
            for tree in (
                ci,
                prune_to_pci(ci, pending)[0],
                prune_to_pci_containment(ci, pending)[0],
            ):
                got = tree.lookup(compiled)
                assert got.doc_ids == want
                assert_same_result(got, tree.lookup(query), "fresh compile")
                assert_same_result(
                    got, reference_lookup(tree, query), "reference NFA"
                )

    def test_nested_matches_are_all_reported(self):
        """``//a`` over a/a/a: every level matches; the outer match's
        subtree range must not swallow the inner matches."""
        index = CompactIndex.from_nested(
            ("a", (0,), [("a", (1,), [("a", (2,), [])]), ("b", (3,), [])])
        )
        result = index.lookup(parse_query("//a"))
        assert result.matched_node_ids == {0, 1, 2}
        assert result.visited_node_ids == {0, 1, 2, 3}
        assert result.doc_ids == (0, 1, 2, 3)

    def test_repeat_search_materialises_nothing(self, nitf_docs):
        """A second tree over the same label paths is walked entirely on
        memoised rows."""
        query = parse_query("//body//p")
        compiled = LazyQueryDFA.from_queries([query])
        first = build_full_ci(nitf_docs).lookup(compiled)
        materialised = compiled.materialised_transitions
        assert materialised > 0
        again = build_full_ci(nitf_docs).lookup(compiled)
        assert compiled.materialised_transitions == materialised
        assert again == first


class TestPipelineDifferential:
    """The same three answers carried past the search: through pruning
    under both annotation schemes, every packing, and the wire."""

    @given(
        document_collections(),
        st.lists(queries(), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_prune_pack_encode_decode(self, docs, pending, one_root):
        if one_root:
            for doc in docs:
                doc.root.tag = LABELS[0]
        ci = build_full_ci(docs)
        assert ci.virtual_root == (len({doc.root.tag for doc in docs}) > 1)
        results = {
            query: tuple(sorted(matching_documents(query, docs))) for query in pending
        }
        # The kept set, from the paths alone: a node survives exactly
        # when some pending query matches a path at or below it.
        paths = [path[1:] if ci.virtual_root else path for path in node_paths(ci)]
        accepts = [any(query.matches_path(path) for query in pending) for path in paths]
        kept = [
            node_id
            for node_id, end in enumerate(ci.ends)
            if any(accepts[node_id:end])
        ] or [0]  # nothing matches: the bare root
        warm = LazyQueryDFA.from_queries(pending)
        for prune in (prune_to_pci, prune_to_pci_containment):
            pci = prune(ci, pending, dfa=warm)[0]
            assert pci.tree_form() == prune(ci, pending)[0].tree_form()
            assert pci.virtual_root == ci.virtual_root
            assert pci.annotation == (
                "maximal" if prune is prune_to_pci else "containment"
            )
            assert node_paths(pci) == [node_paths(ci)[node_id] for node_id in kept]
            if not any(accepts):
                assert pci.doc_ids == [()]
            assert pci.annotated_doc_ids() == frozenset().union(*results.values())
            for query, want in results.items():
                got = pci.lookup(query)
                assert got.doc_ids == want == ci.lookup(query).doc_ids, str(query)
                assert_same_result(got, reference_lookup(pci, query), "reference NFA")
            for index in (ci, pci):
                self.check_packings_and_wire(index)

    @staticmethod
    def check_packings_and_wire(index: CompactIndex) -> None:
        nodes = list(range(index.node_count))
        depths = [len(path) for path in node_paths(index)]
        for child_ids in index.children:
            child_labels = [index.labels[child] for child in child_ids]
            assert child_labels == sorted(set(child_labels))
        table = LabelTable.from_index(index)
        for one_tier in (True, False):
            blob = encode_index(index, table, one_tier=one_tier)
            assert len(blob) == index.size_bytes(one_tier=one_tier)
            decoded, _offsets = decode_index(
                blob,
                table,
                one_tier=one_tier,
                root_label=index.labels[0],
                annotation=index.annotation,
            )
            assert decoded.labels == index.labels
            assert decoded.doc_ids == index.doc_ids
            assert decoded.ends == index.ends
            assert decoded.children == index.children
            assert decoded.virtual_root == index.virtual_root
            assert decoded.annotation == index.annotation
            for strategy in PackingStrategy:
                packed = pack_index(index, one_tier=one_tier, strategy=strategy)
                # Level order is preorder, stably sorted by depth.
                order = sorted(nodes, key=depths.__getitem__)
                assert list(packed.node_order) == (
                    order if strategy is PackingStrategy.BFS else nodes
                )
                assert sorted(packed.packet_of_node) == nodes
                assert packed.used_bytes == len(blob)


class TestQuerySetWalk:
    """One walk for a whole query set (the simulator's audience): every
    query's view is that query's own reference search, the set's result
    is their union, and the packets either charges (or counts, for every
    query at once) are the ones its visited rows occupy."""

    @given(
        st.lists(index_trees((PAPER_SIZE_MODEL, TINY_PACKETS)), min_size=2, max_size=4),
        st.lists(queries(), min_size=1, max_size=5),
    )
    def test_every_view_is_its_querys_own_search(
        self, trees: List[CompactIndex], query_list
    ):
        compiled = LazyQueryDFA.from_queries(query_list)
        # Twice over the trees, as above: one compiled set, many tables.
        for tree in trees + trees:
            union = tree.lookup(compiled)
            wants = [reference_lookup(tree, query) for query in query_list]
            views = [union.for_query(query_id) for query_id in range(len(wants))]
            for query_id, (view, want) in enumerate(zip(views, wants)):
                assert_same_result(view, want, f"query {query_id}")
                assert view is union.for_query(query_id)
            assert union.doc_ids == tuple(
                sorted(set().union(*(want.doc_ids for want in wants)))
            )
            for field in ("matched_node_ids", "visited_node_ids"):
                assert getattr(union, field) == frozenset().union(
                    *(getattr(want, field) for want in wants)
                ), field
            for one_tier in (True, False):
                for strategy in PackingStrategy:
                    packed = pack_index(tree, one_tier=one_tier, strategy=strategy)
                    for got, want in [(union, union), *zip(views, wants)]:
                        assert got.packets_in(packed) == packed.packets_for_nodes(
                            want.visited_node_ids
                        ), (one_tier, strategy)
                    assert union.packet_counts(packed, range(len(wants))) == [
                        len(packed.packets_for_nodes(want.visited_node_ids))
                        for want in wants
                    ], (one_tier, strategy)

    def test_a_long_row_charges_every_packet_it_spans(self):
        """Under 16-byte packets the root row (two children) takes two
        packets; a query reading only the root pays for both."""
        index = CompactIndex.from_nested(
            ("a", (), [("b", (0,), []), ("c", (1,), [])]),
            size_model=TINY_PACKETS,
        )
        packed = pack_index(index, one_tier=True)
        assert len(packed.packet_of_node[0]) == 2
        result = index.lookup(
            LazyQueryDFA.from_queries([parse_query("/a/d"), parse_query("/a/c")])
        )
        assert result.for_query(0).visited_node_ids == {0}
        assert result.for_query(0).packets_in(packed) == set(packed.packet_of_node[0])
        assert result.for_query(1).visited_node_ids == {0, 2}
        assert result.for_query(1).doc_ids == (1,)

    def test_a_virtual_root_is_read_by_every_query(self):
        index = CompactIndex.from_nested(
            ("", (), [("a", (0,), []), ("b", (1,), [])]), virtual_root=True
        )
        result = index.lookup(
            LazyQueryDFA.from_queries([parse_query("/z"), parse_query("/b")])
        )
        assert result.for_query(0).visited_node_ids == {0}
        assert not result.for_query(0).doc_ids
        assert result.for_query(1).visited_node_ids == {0, 2}
        assert result.visited_node_ids == {0, 2}
