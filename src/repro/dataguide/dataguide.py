"""Strong DataGuides for single documents.

For tree data a strong DataGuide is the trie of the document's distinct
label paths: concise (each path once) and accurate (exactly the document's
paths, unlike lossy signatures).  The guide is the per-document summary
the paper's Figure 3(a) shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.xmlkit.model import LabelPath, XMLDocument, XMLElement


@dataclass
class DataGuideNode:
    """One trie node of a DataGuide.

    ``is_leaf_occurrence`` records whether the summarised document contains
    a *childless* element with this node's path; the combined guide uses it
    to place document annotations at maximal paths only.
    """

    label: str
    children: Dict[str, "DataGuideNode"] = field(default_factory=dict)
    is_leaf_occurrence: bool = False

    def child(self, label: str) -> Optional["DataGuideNode"]:
        return self.children.get(label)

    def ensure_child(self, label: str) -> "DataGuideNode":
        node = self.children.get(label)
        if node is None:
            node = DataGuideNode(label)
            self.children[label] = node
        return node

    def iter_with_paths(
        self, prefix: LabelPath = ()
    ) -> Iterator[Tuple["DataGuideNode", LabelPath]]:
        """Depth-first traversal (children in label order for determinism)."""
        stack: List[Tuple[DataGuideNode, LabelPath]] = [(self, prefix + (self.label,))]
        while stack:
            node, path = stack.pop()
            yield node, path
            for label in sorted(node.children, reverse=True):
                stack.append((node.children[label], path + (label,)))

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_with_paths())


@dataclass
class DataGuide:
    """Strong DataGuide of one document."""

    doc_id: int
    root: DataGuideNode

    def paths(self) -> List[LabelPath]:
        """Every distinct label path, in depth-first label order."""
        return [path for _node, path in self.root.iter_with_paths()]

    def node_count(self) -> int:
        return self.root.node_count()


def build_dataguide(document: XMLDocument) -> DataGuide:
    """Build the strong DataGuide of *document*.

    Walks the document once; every element's path is inserted into the
    trie, so each distinct path ends up recorded exactly once.
    """
    root_element = document.root
    guide_root = DataGuideNode(root_element.tag)
    # Walk document elements and guide nodes in lockstep.
    stack: List[Tuple[XMLElement, DataGuideNode]] = [(root_element, guide_root)]
    while stack:
        element, guide_node = stack.pop()
        if not element.children:
            guide_node.is_leaf_occurrence = True
            continue
        for child in element.children:
            stack.append((child, guide_node.ensure_child(child.tag)))
    return DataGuide(doc_id=document.doc_id, root=guide_root)
