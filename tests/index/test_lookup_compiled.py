"""The index search over a compiled query (``CompactIndex.lookup``).

One :class:`LazyQueryDFA` is compiled per query and reused across index
trees; its memoised rows and accept flags must never leak one tree's (or
one state's) answer into another search.  The differential below holds
the compiled walk against three independent answers: a fresh compile per
search, the pre-flattening pointer-chasing NFA kept in
``tests/filtering/nfa_reference.py`` driving the original
(node, configuration) walk, and the naive ``xpath.evaluator``.
"""

from __future__ import annotations

from typing import List, Set

from hypothesis import given
from hypothesis import strategies as st

from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex, LookupResult, build_full_ci
from repro.index.nodes import IndexNode
from repro.index.pruning import prune_to_pci, prune_to_pci_containment
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query
from tests.filtering.nfa_reference import ReferenceSharedPathNFA
from tests.strategies import LABELS, document_collections, queries


def reference_lookup(index: CompactIndex, query) -> LookupResult:
    """The index search as it was before queries were compiled: a
    (node, configuration) walk stepping the reference NFA per child, then
    a subtree sweep per matched node."""
    nfa = ReferenceSharedPathNFA()
    nfa.add_query(0, query)
    nfa.freeze()
    visited: Set[int] = set()
    matched: Set[int] = set()
    initial = nfa.initial_states()
    if index.virtual_root:
        visited.add(index.root.node_id)
        stack = [(c, nfa.move(initial, c.label)) for c in index.root.children]
    else:
        stack = [(index.root, nfa.move(initial, index.root.label))]
    while stack:
        node, configuration = stack.pop()
        if not configuration:
            continue
        visited.add(node.node_id)
        if nfa.is_accepting(configuration):
            matched.add(node.node_id)
        for child in node.children:
            stack.append((child, nfa.move(configuration, child.label)))
    doc_ids: Set[int] = set()
    for node_id in matched:
        if index.annotation == "containment":
            doc_ids.update(index.nodes[node_id].doc_ids)
        else:
            for sub in index.nodes[node_id].iter_preorder():
                visited.add(sub.node_id)
                doc_ids.update(sub.doc_ids)
    return LookupResult(
        doc_ids=tuple(sorted(doc_ids)),
        matched_node_ids=frozenset(matched),
        visited_node_ids=frozenset(visited),
    )


@st.composite
def index_nodes(draw, label: str = LABELS[0], max_depth: int = 4) -> IndexNode:
    node = IndexNode(
        0, label, doc_ids=tuple(sorted(draw(st.sets(st.integers(0, 7), max_size=3))))
    )
    if max_depth > 1:
        for child_label in sorted(draw(st.sets(st.sampled_from(LABELS), max_size=3))):
            node.add_child(draw(index_nodes(child_label, max_depth - 1)))
    return node


@st.composite
def index_trees(draw) -> CompactIndex:
    """A random valid index tree: virtual root or not, either layout."""
    return CompactIndex(
        draw(index_nodes(draw(st.sampled_from(LABELS)))),
        virtual_root=draw(st.booleans()),
        annotation=draw(st.sampled_from(["maximal", "containment"])),
    )


def assert_same_result(got: LookupResult, want: LookupResult, what: str) -> None:
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
        root = IndexNode(0, "a", doc_ids=(0,))
        middle = root.add_child(IndexNode(0, "a", doc_ids=(1,)))
        middle.add_child(IndexNode(0, "a", doc_ids=(2,)))
        root.add_child(IndexNode(0, "b", doc_ids=(3,)))
        result = CompactIndex(root).lookup(parse_query("//a"))
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
