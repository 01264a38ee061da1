"""Unit tests for the DTD model."""

from __future__ import annotations

import pytest

from repro.xmlkit.dtd import DTD, ElementDecl, Particle, Repetition
from tests.oracles import is_recursive


def tiny_dtd() -> DTD:
    return DTD(
        root="a",
        declarations=[
            ElementDecl("a", [Particle.one("b"), Particle.star("c")]),
            ElementDecl("b", has_text=True),
            ElementDecl("c", [Particle.optional("b")]),
        ],
    )


class TestRepetition:
    @pytest.mark.parametrize(
        "repetition,min_count,unbounded",
        [
            (Repetition.ONE, 1, False),
            (Repetition.OPTIONAL, 0, False),
            (Repetition.STAR, 0, True),
            (Repetition.PLUS, 1, True),
        ],
    )
    def test_cardinality(self, repetition, min_count, unbounded):
        assert repetition.min_count == min_count
        assert repetition.is_unbounded == unbounded


class TestParticle:
    def test_empty_alternatives_rejected(self):
        with pytest.raises(ValueError):
            Particle(())

    def test_constructors(self):
        assert Particle.one("x").repetition is Repetition.ONE
        assert Particle.optional("x").repetition is Repetition.OPTIONAL
        assert Particle.star("x").repetition is Repetition.STAR
        assert Particle.plus("x").repetition is Repetition.PLUS

    def test_choice(self):
        particle = Particle.choice(("x", "y"), Repetition.PLUS)
        assert particle.alternatives == ("x", "y")
        assert particle.repetition is Repetition.PLUS


class TestElementDecl:
    def test_child_names_unions_alternatives(self):
        decl = ElementDecl("a", [Particle.one("b"), Particle.choice(("c", "d"))])
        assert decl.child_names() == {"b", "c", "d"}

    def test_is_leaf(self):
        assert not ElementDecl("a").particles
        assert ElementDecl("a", [Particle.one("b")]).particles


class TestDTD:
    def test_validates_root_declared(self):
        with pytest.raises(ValueError):
            DTD(root="missing", declarations=[ElementDecl("a")])

    def test_validates_children_declared(self):
        with pytest.raises(ValueError):
            DTD(root="a", declarations=[ElementDecl("a", [Particle.one("ghost")])])

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError):
            DTD(root="a", declarations=[ElementDecl("a"), ElementDecl("a")])

    def test_lookup(self):
        dtd = tiny_dtd()
        assert dtd["b"].has_text
        assert "c" in dtd
        assert "zzz" not in dtd

    def test_element_names_sorted(self):
        assert tiny_dtd().element_names() == ["a", "b", "c"]

    def test_not_recursive(self):
        assert not is_recursive(tiny_dtd())

    def test_recursive_via_cycle(self):
        dtd = DTD(
            root="a",
            declarations=[
                ElementDecl("a", [Particle.star("b")]),
                ElementDecl("b", [Particle.optional("a")]),
            ],
        )
        assert is_recursive(dtd)

    def test_self_recursive(self):
        dtd = DTD(
            root="a",
            declarations=[ElementDecl("a", [Particle.star("a")])],
        )
        assert is_recursive(dtd)
