"""Unit tests for the DTD-driven document generator."""

from __future__ import annotations

import pytest

from repro.xmlkit.dtd import DTD, ElementDecl, Particle
from repro.xmlkit.generator import (
    DocumentGenerator,
    GeneratorConfig,
    generate_collection,
    nasa_like_dtd,
    nitf_like_dtd,
)
from tests.oracles import is_recursive


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": 0},
            {"max_repeat": 0},
            {"repeat_prob": 1.0},
            {"repeat_prob": -0.1},
            {"optional_prob": 1.5},
            {"min_text_words": 5, "max_text_words": 2},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)


class TestDocumentGenerator:
    def test_deterministic_from_seed(self):
        dtd = nitf_like_dtd()
        first = DocumentGenerator(dtd, GeneratorConfig(seed=42)).generate_many(5)
        second = DocumentGenerator(dtd, GeneratorConfig(seed=42)).generate_many(5)
        for left, right in zip(first, second):
            assert left.root.structurally_equal(right.root)

    def test_different_seeds_differ(self):
        dtd = nitf_like_dtd()
        first = DocumentGenerator(dtd, GeneratorConfig(seed=1)).generate(0)
        second = DocumentGenerator(dtd, GeneratorConfig(seed=2)).generate(0)
        assert not first.root.structurally_equal(second.root)

    def test_doc_ids_consecutive(self):
        docs = DocumentGenerator(nitf_like_dtd()).generate_many(4, start_id=10)
        assert [doc.doc_id for doc in docs] == [10, 11, 12, 13]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DocumentGenerator(nitf_like_dtd()).generate_many(-1)

    def test_max_depth_respected(self):
        config = GeneratorConfig(seed=9, max_depth=5)
        docs = DocumentGenerator(nitf_like_dtd(), config).generate_many(20)
        assert max(doc.depth() for doc in docs) <= 5

    def test_root_matches_dtd(self):
        doc = DocumentGenerator(nasa_like_dtd()).generate(0)
        assert doc.root.tag == "dataset"

    def test_tags_all_declared(self):
        dtd = nitf_like_dtd()
        doc = DocumentGenerator(dtd, GeneratorConfig(seed=3)).generate(0)
        for element in doc.root.iter():
            assert element.tag in dtd

    def test_children_allowed_by_content_model(self):
        dtd = nitf_like_dtd()
        doc = DocumentGenerator(dtd, GeneratorConfig(seed=4)).generate(0)
        for element in doc.root.iter():
            allowed = dtd[element.tag].child_names()
            for child in element.children:
                assert child.tag in allowed

    def test_required_particles_present_above_depth_limit(self):
        # nitf requires exactly one head and one body.
        doc = DocumentGenerator(nitf_like_dtd(), GeneratorConfig(seed=5)).generate(0)
        assert [c.tag for c in doc.root.children] == ["head", "body"]

    def test_text_only_on_pcdata_elements(self):
        dtd = nitf_like_dtd()
        doc = DocumentGenerator(dtd, GeneratorConfig(seed=6)).generate(0)
        for element in doc.root.iter():
            if element.text:
                assert dtd[element.tag].has_text

    def test_unbounded_repetition_capped(self):
        dtd = DTD(
            root="a",
            declarations=[ElementDecl("a", [Particle.plus("b")]), ElementDecl("b")],
        )
        config = GeneratorConfig(seed=1, max_repeat=3, repeat_prob=0.9)
        for _ in range(10):
            doc = DocumentGenerator(dtd, config).generate(0)
            assert 1 <= len(doc.root.children) <= 3


class TestGenerateCollection:
    def test_count_and_ids(self):
        docs = generate_collection(nitf_like_dtd(), 7, seed=1)
        assert len(docs) == 7
        assert [d.doc_id for d in docs] == list(range(7))

    def test_seed_flows_through(self):
        first = generate_collection(nitf_like_dtd(), 3, seed=5)
        second = generate_collection(nitf_like_dtd(), 3, seed=5)
        for left, right in zip(first, second):
            assert left.root.structurally_equal(right.root)


class TestBuiltinDTDs:
    def test_nitf_is_recursive(self):
        assert is_recursive(nitf_like_dtd())

    def test_nasa_is_recursive(self):
        assert is_recursive(nasa_like_dtd())

    def test_both_validate(self):
        nitf_like_dtd().validate()
        nasa_like_dtd().validate()

    def test_collection_profile_plausible(self, nitf_docs):
        from repro.xmlkit.stats import collection_stats

        stats = collection_stats(nitf_docs)
        # The paper's collection: ~KB-scale documents, non-trivial depth.
        assert 500 < stats.mean_bytes < 50_000
        assert stats.max_depth <= 12
        assert stats.distinct_tags > 20


class TestAttributes:
    def test_attribute_prob_zero_yields_no_attributes(self):
        config = GeneratorConfig(seed=8, attribute_prob=0.0)
        doc = DocumentGenerator(nitf_like_dtd(), config).generate(0)
        for element in doc.root.iter():
            assert element.attributes == {}

    def test_attribute_prob_one_fills_all_declared(self):
        dtd = nitf_like_dtd()
        config = GeneratorConfig(seed=8, attribute_prob=1.0)
        doc = DocumentGenerator(dtd, config).generate(0)
        for element in doc.root.iter():
            declared = dtd[element.tag].attribute_names
            assert set(element.attributes) == set(declared)

    def test_attributes_only_from_declarations(self):
        dtd = nitf_like_dtd()
        doc = DocumentGenerator(dtd, GeneratorConfig(seed=9)).generate(0)
        for element in doc.root.iter():
            for name in element.attributes:
                assert name in dtd[element.tag].attribute_names
