"""Serializer for the :mod:`repro.xmlkit.model` element tree.

Produces plain UTF-8 XML text.  The broadcast system charges clients for
every byte they download, so serialization is the single source of truth
for document sizes: ``XMLDocument.size_bytes`` is the length of the string
produced here.
"""

from __future__ import annotations

from typing import List
from xml.sax.saxutils import escape as escape_text  # & < > in element content

from repro.xmlkit.model import XMLDocument, XMLElement


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(value, {'"': "&quot;"})


def serialize_element(element: XMLElement, indent: int = 0, pretty: bool = False) -> str:
    """Serialize an element subtree to XML text.

    With ``pretty=False`` (the default, and what sizing uses) the output is
    fully compact: no whitespace is inserted between tags, so the byte size
    is deterministic regardless of tree shape.
    """
    parts: List[str] = []
    _serialize_into(element, parts, indent, pretty)
    return "".join(parts)


def _serialize_into(element: XMLElement, parts: List[str], indent: int, pretty: bool) -> None:
    pad = "  " * indent if pretty else ""
    newline = "\n" if pretty else ""
    attrs = "".join(
        f' {name}="{escape_attr(value)}"' for name, value in element.attributes.items()
    )
    if not element.children and not element.text:
        parts.append(f"{pad}<{element.tag}{attrs}/>{newline}")
        return
    parts.append(f"{pad}<{element.tag}{attrs}>")
    if element.text:
        parts.append(escape_text(element.text))
    if element.children:
        parts.append(newline)
        for child in element.children:
            _serialize_into(child, parts, indent + 1, pretty)
        parts.append(pad)
    parts.append(f"</{element.tag}>{newline}")


def serialize_document(document: XMLDocument, pretty: bool = False) -> str:
    """Serialize a document, including the XML declaration.

    The declaration is part of what a real broadcast would push on air, so
    it is included in the size accounting.
    """
    header = '<?xml version="1.0" encoding="UTF-8"?>' + ("\n" if pretty else "")
    return header + serialize_element(document.root, pretty=pretty)
