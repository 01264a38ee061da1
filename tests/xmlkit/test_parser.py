"""Unit and property tests for the XML parser."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmlkit.generator import (
    dblp_like_dtd,
    generate_collection,
    nasa_like_dtd,
    nitf_like_dtd,
)
from repro.xmlkit.model import XMLDocument, build_element
from repro.xmlkit.parser import MAX_DEPTH, XMLParseError, parse_document, parse_element
from repro.xmlkit.serialize import serialize_document, serialize_element
from tests.strategies import xml_elements


class TestParseElement:
    def test_self_closing(self):
        element = parse_element("<a/>")
        assert element.tag == "a"
        assert not element.children

    def test_attributes(self):
        element = parse_element('<a x="1" y="two"/>')
        assert element.attributes == {"x": "1", "y": "two"}

    def test_single_quoted_attributes(self):
        assert parse_element("<a x='1'/>").attributes == {"x": "1"}

    def test_nested_children(self):
        element = parse_element("<a><b/><c><d/></c></a>")
        assert [c.tag for c in element.children] == ["b", "c"]
        assert element.children[1].children[0].tag == "d"

    def test_text_content(self):
        assert parse_element("<a>hello</a>").text == "hello"

    def test_entities_decoded(self):
        assert parse_element("<a>1 &lt; 2 &amp; 3</a>").text == "1 < 2 & 3"

    def test_numeric_entities(self):
        assert parse_element("<a>&#65;&#x42;</a>").text == "AB"

    def test_comments_skipped(self):
        element = parse_element("<!-- lead --><a><!-- inner --><b/></a>")
        assert [c.tag for c in element.children] == ["b"]

    def test_processing_instruction_skipped(self):
        element = parse_element('<?xml version="1.0"?><a/>')
        assert element.tag == "a"

    def test_whitespace_between_children_ignored(self):
        element = parse_element("<a>\n  <b/>\n  <c/>\n</a>")
        assert [c.tag for c in element.children] == ["b", "c"]
        assert element.text == ""


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "<a>",
            "<a></b>",
            "<a",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a>&nosuch;</a>",
            "<a/><b/>",
            "text only",
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLParseError):
            parse_element(bad)

    def test_error_carries_offset(self):
        try:
            parse_element("<a></b>")
        except XMLParseError as exc:
            assert exc.position >= 0
        else:  # pragma: no cover
            pytest.fail("expected XMLParseError")


class TestParseDocument:
    def test_round_trip_simple(self):
        doc = XMLDocument(
            doc_id=5,
            root=build_element(
                "a", build_element("b", text="x & y"), build_element("c"), k="v"
            ),
        )
        parsed = parse_document(serialize_document(doc), doc_id=5)
        assert parsed.doc_id == 5
        assert parsed.root.structurally_equal(doc.root)

    @given(xml_elements())
    def test_round_trip_random_trees(self, element):
        text = serialize_element(element)
        assert parse_element(text).structurally_equal(element)

    def test_round_trip_generated_collection(self):
        for dtd in (nitf_like_dtd(), nasa_like_dtd(), dblp_like_dtd()):
            for doc in generate_collection(dtd, 300, seed=3):
                parsed = parse_document(serialize_document(doc))
                assert parsed.root.structurally_equal(doc.root)


def _nested(depth: int) -> str:
    return "<a>" * depth + "</a>" * depth


class TestHostileInput:
    """Regression: a deep document and two character references crashed
    the parser with ``RecursionError`` / a bare ``ValueError``."""

    @pytest.mark.parametrize(
        "bad",
        [
            _nested(5000),
            _nested(MAX_DEPTH + 1),
            "<a>&#xZZ;</a>",
            "<a>&#99999999;</a>",
            '<!DOCTYPE a [<!ENTITY x "y">]><a>&x;</a>',
            "<a>\x01</a>",
            "<a>\ud800</a>",
        ],
        ids=["deep", "cap+1", "bad-hex", "huge-ref", "doctype", "control", "surrogate"],
    )
    def test_typed_error_with_a_position_inside_the_text(self, bad):
        with pytest.raises(XMLParseError) as excinfo:
            parse_element(bad)
        assert 0 <= excinfo.value.position <= len(bad.encode("utf-8", "surrogatepass"))

    def test_nesting_up_to_the_cap_parses(self):
        assert parse_element(_nested(MAX_DEPTH)).depth() == MAX_DEPTH

    def test_cdata_and_xml_normalisation(self):
        element = parse_element('<a k="x\ty"><![CDATA[1 < 2]]>\r\n</a>')
        assert element.text == "1 < 2\n"
        assert element.attributes == {"k": "x y"}


@st.composite
def _damaged_documents(draw, corpus):
    data = draw(st.sampled_from(corpus)).encode("utf-8")
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    else:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    return data.decode("utf-8", "surrogateescape")


_CORPUS = [
    serialize_document(doc)
    for dtd in (nitf_like_dtd(), nasa_like_dtd(), dblp_like_dtd())
    for doc in generate_collection(dtd, 3, seed=5)
]


class TestFuzz:
    @given(st.one_of(st.text(), _damaged_documents(_CORPUS)))
    def test_a_tree_or_a_typed_error(self, text):
        try:
            parse_element(text)
        except XMLParseError as exc:
            assert 0 <= exc.position <= len(text.encode("utf-8", "surrogateescape"))
