"""Tests for the real-DTD-file parser."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmlkit.dtd import Repetition
from repro.xmlkit.dtd_parser import DTDParseError, load_dtd, parse_dtd
from repro.xmlkit.generator import DocumentGenerator, GeneratorConfig
from repro.xmlkit.parser import MAX_DEPTH


SIMPLE = """
<!-- a tiny article DTD -->
<!ELEMENT article (title, section+, appendix?)>
<!ELEMENT appendix (para*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT section (title, para*)>
<!ELEMENT para (#PCDATA | emph | ref)*>
<!ELEMENT emph (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST ref target CDATA #REQUIRED
              kind (internal|external) "internal">
<!ATTLIST article id ID #IMPLIED>
"""


class TestParseSimple:
    def test_elements_declared(self):
        dtd = parse_dtd(SIMPLE)
        assert set(dtd.element_names()) == {
            "article", "appendix", "title", "section", "para", "emph", "ref",
        }

    def test_root_inferred(self):
        assert parse_dtd(SIMPLE).root == "article"

    def test_explicit_root(self):
        assert parse_dtd(SIMPLE, root="section").root == "section"

    def test_unknown_root_rejected(self):
        with pytest.raises(DTDParseError):
            parse_dtd(SIMPLE, root="nope")

    def test_sequence_particles(self):
        dtd = parse_dtd(SIMPLE)
        particles = dtd["article"].particles
        assert [p.alternatives for p in particles] == [
            ("title",), ("section",), ("appendix",),
        ] or [p.alternatives[0] for p in particles[:2]] == ["title", "section"]
        assert particles[1].repetition is Repetition.PLUS
        assert particles[2].repetition is Repetition.OPTIONAL

    def test_pcdata_sets_has_text(self):
        dtd = parse_dtd(SIMPLE)
        assert dtd["title"].has_text
        assert not dtd["ref"].has_text

    def test_mixed_content(self):
        dtd = parse_dtd(SIMPLE)
        para = dtd["para"]
        assert para.has_text
        assert len(para.particles) == 1
        assert set(para.particles[0].alternatives) == {"emph", "ref"}
        assert para.particles[0].repetition is Repetition.STAR

    def test_empty_element(self):
        assert not parse_dtd(SIMPLE)["ref"].particles

    def test_attlist_collected(self):
        dtd = parse_dtd(SIMPLE)
        assert "target" in dtd["ref"].attribute_names
        assert "kind" in dtd["ref"].attribute_names
        assert dtd["article"].attribute_names == ["id"]

    def test_undeclared_child_rejected(self):
        with pytest.raises(ValueError):
            parse_dtd("<!ELEMENT a (ghost)>")


class TestConstructs:
    def test_choice_group(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b | c)+><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        )
        particle = dtd["a"].particles[0]
        assert set(particle.alternatives) == {"b", "c"}
        assert particle.repetition is Repetition.PLUS

    def test_nested_group_flattened(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b, (c | d)*)>"
            "<!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>"
        )
        particles = dtd["a"].particles
        assert particles[0].alternatives == ("b",)
        assert set(particles[1].alternatives) == {"c", "d"}
        assert particles[1].repetition is Repetition.STAR

    def test_unrepeated_nested_sequence_inlined(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b, (c, d))>"
            "<!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>"
        )
        assert [p.alternatives[0] for p in dtd["a"].particles] == ["b", "c", "d"]

    @pytest.mark.parametrize(
        "model, expected",
        [
            ("(b, c*)?", [Repetition.OPTIONAL, Repetition.STAR]),
            ("(b, c?)+", [Repetition.STAR, Repetition.STAR]),
            ("(b?, (c | b))*", [Repetition.STAR, Repetition.STAR]),
        ],
    )
    def test_repeated_or_optional_sequence_widens_each_particle(self, model, expected):
        dtd = parse_dtd(f"<!ELEMENT a {model}><!ELEMENT b EMPTY><!ELEMENT c EMPTY>")
        assert [p.repetition for p in dtd["a"].particles] == expected

    def test_repeated_names_and_attributes_count_once(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b | (c | b))*><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
            "<!ATTLIST a k CDATA #IMPLIED>"
            "<!ATTLIST a k CDATA #IMPLIED j CDATA #IMPLIED>"
        )
        assert dtd["a"].particles[0].alternatives == ("b", "c")
        assert dtd["a"].attribute_names == ["k", "j"]

    def test_any_content(self):
        dtd = parse_dtd("<!ELEMENT a ANY><!ELEMENT b EMPTY>")
        particle = dtd["a"].particles[-1]
        assert set(particle.alternatives) == {"a", "b"}

    def test_parameter_entities_expanded(self):
        text = """
        <!ENTITY % inline "(em | strong)*">
        <!ELEMENT p %inline;>
        <!ELEMENT em EMPTY>
        <!ELEMENT strong EMPTY>
        """
        dtd = parse_dtd(text, root="p")
        assert set(dtd["p"].particles[0].alternatives) == {"em", "strong"}

    def test_entity_cycle_rejected(self):
        text = '<!ENTITY % a "%b;"><!ENTITY % b "%a;"><!ELEMENT x (%a;)>'
        with pytest.raises(DTDParseError):
            parse_dtd(text)

    def test_duplicate_element_rejected(self):
        with pytest.raises(DTDParseError):
            parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a EMPTY>")

    def test_no_elements_rejected(self):
        with pytest.raises(DTDParseError):
            parse_dtd("<!-- nothing here -->")

    def test_malformed_group_rejected(self):
        with pytest.raises(DTDParseError):
            parse_dtd("<!ELEMENT a (b, >")


class TestGenerationFromParsedDTD:
    def test_parsed_dtd_drives_the_generator(self):
        """The point of the parser: load a DTD, generate documents."""
        dtd = parse_dtd(SIMPLE)
        docs = DocumentGenerator(dtd, GeneratorConfig(seed=4)).generate_many(20)
        for doc in docs:
            assert doc.root.tag == "article"
            for element in doc.root.iter():
                assert element.tag in dtd
                allowed = dtd[element.tag].child_names()
                for child in element.children:
                    assert child.tag in allowed

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "article.dtd"
        path.write_text(SIMPLE, encoding="utf-8")
        dtd = load_dtd(path)
        assert dtd.name == "article"
        assert dtd.root == "article"


def _groups(depth: int) -> str:
    return "<!ELEMENT a " + "(" * depth + "b" + ")" * depth + "><!ELEMENT b EMPTY>"


class TestHostileInput:
    """Regression: a content model nested 3,000 deep raised
    ``RecursionError``; far deeper ones would crash expat's tuple
    conversion outright, so nesting is capped before it runs."""

    @pytest.mark.parametrize(
        "bad",
        [
            _groups(3000),
            _groups(1_000_000),
            _groups(MAX_DEPTH + 1),
            # the nesting hidden behind parameter entities
            '<!ENTITY % o "' + "(" * 50 + '"><!ENTITY % c "' + ")" * 50 + '">'
            "<!ELEMENT a " + "%o;" * 20 + "b" + "%c;" * 20 + "><!ELEMENT b EMPTY>",
            "<!ELEMENT a (b, c | b)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
            "<a>not a DTD</a>",
        ],
        ids=["deep", "million", "cap+1", "entity-deep", "mixed-separators", "document"],
    )
    def test_typed_error(self, bad):
        with pytest.raises(DTDParseError):
            parse_dtd(bad)

    def test_nesting_up_to_the_cap_parses(self):
        assert parse_dtd(_groups(MAX_DEPTH))["a"].particles[0].alternatives == ("b",)

    def test_external_parameter_entity_is_never_fetched(self, tmp_path):
        secret = tmp_path / "secret.ent"
        secret.write_text("<!ELEMENT leaked EMPTY>", encoding="utf-8")
        dtd = parse_dtd(
            f'<!ENTITY % x SYSTEM "{secret}"> %x;'
            '<!ENTITY % kids "(b)"><!ELEMENT a %kids;><!ELEMENT b EMPTY>'
            "<!ATTLIST a k CDATA #IMPLIED>"
        )
        assert "leaked" not in dtd
        # declarations after the unread entity still count
        assert dtd["a"].attribute_names == ["k"]


CONFERENCE = """
<!ENTITY % person "(name, affiliation?)">
<!ELEMENT programme (day+)>
<!ATTLIST programme year CDATA #REQUIRED venue CDATA #IMPLIED>
<!ELEMENT day (session+)>
<!ELEMENT session (title, chair?, talk+)>
<!ELEMENT chair %person;>
<!ELEMENT talk (title, speaker+, abstract?)>
<!ELEMENT speaker %person;>
<!ELEMENT name (#PCDATA)>
<!ELEMENT affiliation (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT abstract (#PCDATA | title)*>
"""


@st.composite
def _damaged_dtds(draw):
    data = draw(st.sampled_from([SIMPLE, CONFERENCE])).encode("utf-8")
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    else:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    return data.decode("utf-8", "surrogateescape")


class TestFuzz:
    @given(st.one_of(st.text(), _damaged_dtds()))
    def test_a_dtd_or_a_typed_error(self, text):
        try:
            parse_dtd(text)
        except DTDParseError as exc:
            size = len(text.encode("utf-8", "surrogateescape"))
            assert exc.position is None or 0 <= exc.position <= size
