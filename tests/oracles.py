"""Independent re-statements the tests check ``src`` against.

``src`` never needs these facts for itself; each one is an oracle for
some structure it does build (combined-guide annotations, element
paths, the workload generator's ``P = 0`` setting, DTD recursion).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.dataguide.roxsum import CombinedDataGuide
from repro.xmlkit.dtd import DTD
from repro.xmlkit.model import LabelPath, XMLDocument, XMLElement
from repro.xpath.ast import Axis, WILDCARD, XPathQuery


def path_frequencies(documents: Sequence[XMLDocument]) -> Dict[LabelPath, int]:
    """How many documents contain each distinct label path -- exactly the
    document annotation a combined DataGuide carries."""
    counter: Counter = Counter()
    for doc in documents:
        for path in doc.distinct_label_paths():
            counter[path] += 1
    return dict(counter)


def docs_containing(guide: CombinedDataGuide, path: LabelPath) -> FrozenSet[int]:
    """Documents of the guide's collection containing *path*."""
    node = guide.find(path)
    return node.containing_docs() if node is not None else frozenset()


def path_from_root(element: XMLElement) -> LabelPath:
    """The label path from the document root down to *element*, by
    parent links."""
    parts: List[str] = []
    node: Optional[XMLElement] = element
    while node is not None:
        parts.append(node.tag)
        node = node.parent
    return tuple(reversed(parts))


def has_wildcard(query: XPathQuery) -> bool:
    return any(step.test == WILDCARD for step in query.steps)


def has_descendant_axis(query: XPathQuery) -> bool:
    return any(step.axis is Axis.DESCENDANT for step in query.steps)


def is_recursive(dtd: DTD) -> bool:
    """True if some element of *dtd* can (transitively) contain itself.

    Recursive DTDs are what make the generator's *max depth* knob
    meaningful; the NITF and NASA DTDs are recursive like real NITF.
    """
    # Depth-first search for a cycle in the element-containment graph.
    colour: Dict[str, int] = {}  # 0 = in progress, 1 = done

    def visit(name: str) -> bool:
        state = colour.get(name)
        if state == 0:
            return True
        if state == 1:
            return False
        colour[name] = 0
        found = any(visit(child) for child in dtd.declarations[name].child_names())
        colour[name] = 1
        return found

    return any(visit(name) for name in dtd.declarations)
