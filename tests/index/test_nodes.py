"""Unit tests for the row builder, the flag convention and the table's
structural validation."""

from __future__ import annotations

from array import array

import pytest

from repro.index.ci import CompactIndex
from repro.index.nodes import ROOT_FLAG_VALUE, RowBuilder, flag_value
from tests.index.tables import find_node, node_paths

#: the running example's shape: a( b( a c ) c( b ) )
SMALL_TREE = (
    "a",
    (),
    [
        ("b", (), [("a", (0, 1), []), ("c", (1,), [])]),
        ("c", (2,), [("b", (1,), [])]),
    ],
)


def small_tree() -> CompactIndex:
    return CompactIndex.from_nested(SMALL_TREE)


def rows_of(labels, doc_ids, ends) -> RowBuilder:
    """Rows as an outside producer might hand them over, unchecked."""
    rows = RowBuilder()
    rows.labels, rows.doc_ids, rows.ends = list(labels), list(doc_ids), array("i", ends)
    return rows


class TestBuilder:
    def test_open_close_emits_preorder_rows(self):
        rows = RowBuilder()
        root = rows.open("a")
        child = rows.open("b", (3,))
        rows.close(child)
        leaf = rows.open("c")
        rows.close(leaf)
        rows.close(root)
        assert (root, child, leaf) == (0, 1, 2)
        assert rows.labels == ["a", "b", "c"]
        assert rows.doc_ids == [(), (3,), ()]
        assert list(rows.ends) == [3, 2, 3]

    def test_drop_takes_back_the_last_row(self):
        rows = RowBuilder()
        root = rows.open("a")
        rows.close(rows.open("b"))
        rows.drop(rows.open("c", (1,)))
        rows.close(root)
        index = CompactIndex(rows)
        assert index.labels == ["a", "b"]
        assert index.children == [(1,), ()]

    def test_drop_refuses_a_row_with_rows_below_it(self):
        rows = RowBuilder()
        root = rows.open("a")
        rows.close(rows.open("b"))
        with pytest.raises(ValueError):
            rows.drop(root)

    def test_from_nested_keeps_the_given_child_order(self):
        index = CompactIndex.from_nested(("r", (), [("z", (), []), ("a", (), [])]))
        assert index.labels == ["r", "z", "a"]


class TestKindsAndFlags:
    def test_root_kind(self):
        index = small_tree()
        assert flag_value(0, len(index.children[0])) == ROOT_FLAG_VALUE
        # a bare root is still the root, not a leaf
        assert flag_value(0, 0) == ROOT_FLAG_VALUE

    def test_internal_kind(self):
        index = small_tree()
        internal = find_node(index, ("a", "b"))
        assert flag_value(internal, len(index.children[internal])) == 0

    def test_leaf_kind(self):
        index = small_tree()
        leaf = find_node(index, ("a", "b", "a"))
        assert index.children[leaf] == ()
        assert flag_value(leaf, 0) == 1

    def test_internal_node_may_carry_docs(self):
        # The paper's n3: internal *and* annotated.
        index = small_tree()
        node_c = find_node(index, ("a", "c"))
        assert index.children[node_c]
        assert index.doc_ids[node_c] == (2,)


class TestTraversal:
    def test_preorder_ids(self):
        index = small_tree()
        assert index.node_count == 6
        assert index.children == [(1, 4), (2, 3), (), (), (5,), ()]
        assert [row[0] for row in index.tree_form()] == list(range(6))

    def test_preorder_matches_paper_dfs_order(self):
        # Figure 5's order: root, then the b-subtree fully, then c-subtree.
        assert small_tree().labels == ["a", "b", "a", "c", "c", "b"]

    def test_paths(self):
        paths = set(node_paths(small_tree()))
        assert ("a", "b", "c") in paths
        assert ("a", "c", "b") in paths

    def test_path_from_root(self):
        index = small_tree()
        assert node_paths(index)[5] == ("a", "c", "b")
        assert find_node(index, ("a", "c", "b")) == 5

    def test_child_by_label(self):
        index = small_tree()
        assert find_node(index, ("a", "b")) == index.children[0][0]
        assert find_node(index, ("a", "zzz")) is None
        assert find_node(index, ("zzz",)) is None
        assert find_node(index, ()) is None

    def test_subtree_doc_ids(self):
        # What a client collects when a query matches a node: the
        # annotations of the node's id range.
        index = small_tree()
        node_c = find_node(index, ("a", "c"))
        assert set().union(*index.doc_ids[0 : index.ends[0]]) == {0, 1, 2}
        assert set().union(*index.doc_ids[node_c : index.ends[node_c]]) == {1, 2}

    def test_subtree_node_count(self):
        index = small_tree()
        assert index.ends[0] == 6
        assert [end - node_id for node_id, end in enumerate(index.ends)] == [
            6, 3, 1, 1, 2, 1,
        ]


class TestValidateTree:
    def test_valid_tree_passes(self):
        index = small_tree()
        again = CompactIndex(rows_of(index.labels, index.doc_ids, index.ends))
        assert again.tree_form() == index.tree_form()

    def test_bad_ids_detected(self):
        # Row number is node id, so a bad id is a bad extent: a root that
        # does not span the table, an end at or before its own row, a
        # column of another length.
        with pytest.raises(ValueError):
            CompactIndex(rows_of(["a", "b"], [(), ()], [1, 2]))
        with pytest.raises(ValueError):
            CompactIndex(rows_of(["a", "b"], [(), ()], [2, 1]))
        with pytest.raises(ValueError):
            CompactIndex(rows_of(["a", "b"], [()], [2, 2]))
        with pytest.raises(ValueError):
            CompactIndex(RowBuilder())

    def test_duplicate_child_labels_detected(self):
        with pytest.raises(ValueError):
            CompactIndex.from_nested(("a", (), [("b", (), []), ("b", (), [])]))
        # ...while the same label under different parents is the norm
        CompactIndex.from_nested(
            ("a", (), [("b", (), [("x", (), [])]), ("c", (), [("x", (), [])])])
        )

    def test_unsorted_docs_detected(self):
        with pytest.raises(ValueError):
            CompactIndex.from_nested(("a", (2, 1), []))
        with pytest.raises(ValueError):
            CompactIndex.from_nested(("a", (1, 1), []))

    def test_broken_parent_link_detected(self):
        # A parent is whoever's extent encloses the row: a child running
        # past its parent's end belongs to nobody.
        with pytest.raises(ValueError):
            CompactIndex(rows_of(["a", "b", "c", "d"], [()] * 4, [4, 3, 4, 4]))
