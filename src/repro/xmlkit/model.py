"""Element-tree model for XML documents.

The broadcast system only needs the *structural* part of XML (element tags
and their nesting) plus byte-exact sizing of serialized documents, so the
model is deliberately small: elements carry a tag, an ordered attribute
mapping, text content and child elements.  Everything is plain Python with
no external dependencies.

A *label path* -- the sequence of tags from the document root down to an
element -- is the unit of structure the whole paper operates on: DataGuides
summarise the set of label paths of a document, and XPath queries of the
paper's subset select documents by label path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: A label path is the tuple of element tags from the root to some element,
#: e.g. ``("a", "b", "c")`` for the element reached by ``/a/b/c``.
LabelPath = Tuple[str, ...]


class XMLElement:
    """A single XML element: tag, attributes, text and ordered children.

    The class is intentionally mutable while a tree is being built (the
    generator and the parser append children incrementally) but exposes
    read-mostly traversal helpers used by the rest of the system.
    """

    __slots__ = ("tag", "attributes", "text", "children", "parent")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        text: str = "",
        children: Optional[List["XMLElement"]] = None,
    ) -> None:
        if not tag:
            raise ValueError("element tag must be a non-empty string")
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.text = text
        self.children: List[XMLElement] = []
        self.parent: Optional[XMLElement] = None
        for child in children or []:
            self.append(child)

    def append(self, child: "XMLElement") -> "XMLElement":
        """Attach *child* as the last child of this element and return it."""
        if child.parent is not None:
            raise ValueError(
                f"element <{child.tag}> already has a parent <{child.parent.tag}>"
            )
        child.parent = self
        self.children.append(child)
        return child

    def child(self, tag: str) -> Optional["XMLElement"]:
        """Return the first child with the given *tag*, or ``None``."""
        for c in self.children:
            if c.tag == tag:
                return c
        return None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def iter(self) -> Iterator["XMLElement"]:
        """Pre-order (document-order) traversal of the subtree."""
        stack: List[XMLElement] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_with_paths(
        self, prefix: LabelPath = ()
    ) -> Iterator[Tuple["XMLElement", LabelPath]]:
        """Pre-order traversal yielding ``(element, label_path)`` pairs.

        *prefix* is the label path of this element's parent; the element's
        own path is ``prefix + (self.tag,)``.
        """
        stack: List[Tuple[XMLElement, LabelPath]] = [(self, prefix + (self.tag,))]
        while stack:
            node, path = stack.pop()
            yield node, path
            for child in reversed(node.children):
                stack.append((child, path + (child.tag,)))

    # ------------------------------------------------------------------
    # Structural measures
    # ------------------------------------------------------------------

    def depth(self) -> int:
        """Height of the subtree rooted here (a leaf has depth 1)."""
        best = 0
        for node, path in self.iter_with_paths():
            if len(path) > best:
                best = len(path)
        return best

    def element_count(self) -> int:
        """Number of elements in the subtree, including this one."""
        return sum(1 for _ in self.iter())

    def label_paths(self) -> Iterator[LabelPath]:
        """All label paths of the subtree (one per element, with duplicates)."""
        for _node, path in self.iter_with_paths():
            yield path

    def distinct_label_paths(self) -> List[LabelPath]:
        """The *set* of label paths, in first-occurrence document order.

        This is exactly the path set a strong DataGuide must contain once
        each.
        """
        seen = set()
        ordered: List[LabelPath] = []
        for path in self.label_paths():
            if path not in seen:
                seen.add(path)
                ordered.append(path)
        return ordered

    # ------------------------------------------------------------------
    # Equality / debugging
    # ------------------------------------------------------------------

    def structurally_equal(self, other: "XMLElement") -> bool:
        """Deep equality on tag, attributes, text and child order."""
        if (
            self.tag != other.tag
            or self.attributes != other.attributes
            or self.text != other.text
            or len(self.children) != len(other.children)
        ):
            return False
        return all(
            a.structurally_equal(b) for a, b in zip(self.children, other.children)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"XMLElement(tag={self.tag!r}, children={len(self.children)}, "
            f"attrs={len(self.attributes)})"
        )


@dataclass
class XMLDocument:
    """A document in the server's collection.

    ``doc_id`` is the collection-unique identifier carried on the air index
    (the paper encodes it in 2 bytes).  ``size_bytes`` is the serialized
    size used for all broadcast accounting; it is computed lazily from the
    serializer and cached, since document content never changes after the
    collection is built.
    """

    doc_id: int
    root: XMLElement
    name: str = ""
    _cached_size: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ValueError("doc_id must be non-negative")

    @property
    def size_bytes(self) -> int:
        """Serialized size of the document in bytes (cached)."""
        if self._cached_size is None:
            from repro.xmlkit.serialize import serialize_document

            self._cached_size = len(serialize_document(self).encode("utf-8"))
        return self._cached_size

    def distinct_label_paths(self) -> List[LabelPath]:
        """Distinct label paths of the document (DataGuide path set)."""
        return self.root.distinct_label_paths()

    def element_count(self) -> int:
        return self.root.element_count()

    def depth(self) -> int:
        return self.root.depth()


def build_element(tag: str, *children: XMLElement, text: str = "", **attrs: str) -> XMLElement:
    """Convenience constructor used heavily in tests and examples.

    >>> root = build_element("a", build_element("b"), build_element("c"))
    >>> [c.tag for c in root.children]
    ['b', 'c']
    """
    element = XMLElement(tag, attributes=attrs, text=text)
    for child in children:
        element.append(child)
    return element
