"""XML substrate: element-tree model, parser, serializer, DTD model and
random document generation.

The paper generates its document collection with the IBM XML Generator over
the NITF DTD.  Neither tool (nor ``lxml``) is available offline, so this
package re-implements the whole pipeline from scratch:

* :mod:`repro.xmlkit.model` -- a minimal, dependency-free element tree with
  label-path enumeration and byte-exact size accounting;
* :mod:`repro.xmlkit.parser` -- an XML parser over the standard library's
  expat that round-trips the serializer output (persistence and tests);
* :mod:`repro.xmlkit.dtd` -- a simplified DTD model (element declarations
  with child particles and repetition cardinalities);
* :mod:`repro.xmlkit.generator` -- a DTD-driven random document generator
  mimicking the IBM generator's knobs (max depth, fan-out, repetition
  probabilities), with built-in NITF-like and NASA-like DTDs;
* :mod:`repro.xmlkit.stats` -- structural statistics over collections.
"""

from repro.xmlkit.model import XMLDocument, XMLElement, LabelPath
from repro.xmlkit.parser import XMLParseError, parse_document, parse_element
from repro.xmlkit.serialize import serialize_document, serialize_element
from repro.xmlkit.dtd import DTD, ElementDecl, Particle, Repetition
from repro.xmlkit.generator import (
    DocumentGenerator,
    GeneratorConfig,
    dblp_like_dtd,
    nitf_like_dtd,
    nasa_like_dtd,
    generate_collection,
)
from repro.xmlkit.dtd_parser import DTDParseError, load_dtd, parse_dtd
from repro.xmlkit.stats import CollectionStats, collection_stats, document_stats

__all__ = [
    "XMLDocument",
    "XMLElement",
    "LabelPath",
    "XMLParseError",
    "parse_document",
    "parse_element",
    "serialize_document",
    "serialize_element",
    "DTD",
    "ElementDecl",
    "Particle",
    "Repetition",
    "DocumentGenerator",
    "GeneratorConfig",
    "dblp_like_dtd",
    "nitf_like_dtd",
    "nasa_like_dtd",
    "generate_collection",
    "DTDParseError",
    "load_dtd",
    "parse_dtd",
    "CollectionStats",
    "collection_stats",
    "document_stats",
]
