"""Index rows (paper Figure 3(b)/(c)): the builder and the flag convention.

A Compact Index is a table of rows in depth-first preorder -- the exact
order the greedy packing algorithm (Section 3.1) consumes nodes, and the
order nodes appear on air -- so a row's number is its node id.  Every
producer (guide conversion, pruning, the decoder, hand-written trees)
emits rows through :class:`RowBuilder`: :meth:`~RowBuilder.open` a row on
the way down, :meth:`~RowBuilder.close` it on the way up once its whole
subtree is emitted, or :meth:`~RowBuilder.drop` it instead when nothing
below it survived.

Per Figure 3(c), a node decomposes into three blocks: a *flag* (1 for a
leaf node, 0 for an internal node, a magic "real index value" for the
root), the ``<entry, pointer>`` child block, and the ``<doc, pointer>``
document block.  Internal nodes may carry doc entries too (the paper's n3)
-- here that happens whenever a document has a childless element at an
internal path.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

#: The paper sets the root node's flag to "the real index value"; we use a
#: fixed magic constant identifying the index format version.
ROOT_FLAG_VALUE = 0x7C1


def flag_value(node_id: int, child_count: int) -> int:
    """The flag block's value per the paper's convention."""
    if node_id == 0:
        return ROOT_FLAG_VALUE
    return 0 if child_count else 1


class RowBuilder:
    """Index rows under construction, one column per field."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        #: annotated documents per row (sorted doc ids); in the one-tier
        #: layout each entry is accompanied by a pointer on air
        self.doc_ids: List[Tuple[int, ...]] = []
        #: exclusive end of each row's subtree; 0 while the row is open
        self.ends = array("i")

    def open(self, label: str, doc_ids: Tuple[int, ...] = ()) -> int:
        """Append a row below the innermost open one; returns its id."""
        self.labels.append(label)
        self.doc_ids.append(doc_ids)
        self.ends.append(0)
        return len(self.ends) - 1

    def close(self, row: int) -> None:
        """Every row emitted since *row* opened is its subtree."""
        self.ends[row] = len(self.ends)

    def drop(self, row: int) -> None:
        """Take back *row*, the last one standing (its own subtree was
        dropped before it, or it never had one)."""
        if row != len(self.ends) - 1:
            raise ValueError(f"row {row} still has rows below it")
        del self.labels[row], self.doc_ids[row], self.ends[row]
