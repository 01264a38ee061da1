"""XML parser over the standard library's expat.

It exists so that generated collections can be persisted to disk and
reloaded, and so that the serializer can be round-trip tested.  Expat's
events build the :mod:`repro.xmlkit.model` tree on an explicit stack.
It is *not* a validating parser: a DOCTYPE is refused outright (so no
entity is ever declared, let alone expanded), and namespaces are out of
scope for the paper.

Nesting is capped at :data:`MAX_DEPTH`.  Generated documents stop at
``GeneratorConfig.max_depth`` (12 by default), while the serializer and
the DataGuide builder recurse over the tree: without the cap a
3,000-deep file would parse here and crash there.
"""

from __future__ import annotations

from typing import Dict, List, Type
from xml.parsers import expat

from repro.xmlkit.model import XMLDocument, XMLElement

#: deepest element nesting (and, in ``dtd_parser``, content-model group
#: nesting) a parsed file may have
MAX_DEPTH = 256


class XMLParseError(ValueError):
    """Raised on malformed input, with the byte offset of the problem."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def run_expat(parser: expat.XMLParserType, text: str, error: Type[ValueError]) -> None:
    """Feed *text* to *parser*, turning every failure into *error*.

    The position is expat's byte index into the UTF-8 encoding of
    *text* (0 when expat has none, as for empty input).
    """
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise error(str(exc), max(parser.ErrorByteIndex, 0)) from None
    except UnicodeEncodeError as exc:
        offset = len(text[: exc.start].encode("utf-8"))
        raise error("text is not encodable as UTF-8", offset) from None


def parse_element(text: str) -> XMLElement:
    """Parse *text* containing exactly one element (plus leading misc)."""
    parser = expat.ParserCreate()
    parser.buffer_text = True
    stack: List[XMLElement] = []
    texts: List[List[str]] = []
    roots: List[XMLElement] = []

    def start(tag: str, attributes: Dict[str, str]) -> None:
        if len(stack) >= MAX_DEPTH:
            raise XMLParseError(
                f"elements nest deeper than {MAX_DEPTH}", parser.CurrentByteIndex
            )
        element = XMLElement(tag, attributes)
        if stack:
            stack[-1].append(element)
        else:
            roots.append(element)
        stack.append(element)
        texts.append([])

    def end(_tag: str) -> None:
        element = stack.pop()
        raw = "".join(texts.pop())
        # Whitespace-only character data around child elements is
        # formatting noise (pretty printing), not content.  Compact
        # serializer output never inserts such whitespace, so compact
        # round-trips are exact.
        element.text = "" if (element.children and not raw.strip()) else raw

    def doctype(*_args: object) -> None:
        raise XMLParseError("a DOCTYPE is not accepted", parser.CurrentByteIndex)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = lambda data: texts[-1].append(data)
    parser.StartDoctypeDeclHandler = doctype
    run_expat(parser, text, XMLParseError)
    return roots[0]


def parse_document(text: str, doc_id: int = 0, name: str = "") -> XMLDocument:
    """Parse a full document (optional XML declaration + one element)."""
    return XMLDocument(doc_id=doc_id, root=parse_element(text), name=name)
