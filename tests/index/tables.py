"""Reading an index table the way the tests talk about it: by label path."""

from __future__ import annotations

from typing import List, Optional

from repro.index.ci import CompactIndex
from repro.xmlkit.model import LabelPath


def node_paths(index: CompactIndex) -> List[LabelPath]:
    """The root-to-node label path of every node, by node id (a virtual
    root's label included)."""
    paths: List[LabelPath] = [(index.labels[0],)] * index.node_count
    for node_id, child_ids in enumerate(index.children):  # parents come first
        for child in child_ids:
            paths[child] = paths[node_id] + (index.labels[child],)
    return paths


def find_node(index: CompactIndex, path: LabelPath) -> Optional[int]:
    """The id of the node at a document label path, if present."""
    if not path:
        return None
    labels = index.labels
    node_id = 0
    if not index.virtual_root:
        if path[0] != labels[0]:
            return None
        path = path[1:]
    for label in path:
        for child in index.children[node_id]:
            if labels[child] == label:
                node_id = child
                break
        else:
            return None
    return node_id
