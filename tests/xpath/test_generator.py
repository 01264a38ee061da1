"""Unit tests for the synthetic query workload generator."""

from __future__ import annotations

import pytest

from repro.xpath.ast import Axis, WILDCARD
from repro.xpath.evaluator import evaluate_on_document
from repro.xpath.generator import (
    QueryGenerator,
    QueryWorkloadConfig,
    generate_workload,
)
from tests.oracles import has_descendant_axis, has_wildcard


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wildcard_descendant_prob": -0.1},
            {"wildcard_descendant_prob": 1.1},
            {"max_depth": 0},
            {"max_depth": -3},
            {"wildcard_descendant_prob": float("nan")},
            {"zipf_theta": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QueryWorkloadConfig(**kwargs)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            QueryGenerator([], QueryWorkloadConfig())


class TestGeneration:
    def test_deterministic(self, nitf_docs):
        first = generate_workload(nitf_docs, 10, seed=1)
        second = generate_workload(nitf_docs, 10, seed=1)
        assert [str(q) for q in first] == [str(q) for q in second]

    def test_depth_bounded(self, nitf_docs):
        for d_q in (2, 5, 8):
            queries = generate_workload(nitf_docs, 30, seed=2, max_depth=d_q)
            assert all(q.depth <= d_q for q in queries)

    def test_non_empty_results_guaranteed(self, nitf_docs):
        """The paper's Section 2.1 assumption, and the generator contract."""
        queries = generate_workload(nitf_docs, 40, seed=3, wildcard_descendant_prob=0.3)
        for query in queries:
            assert any(evaluate_on_document(query, doc) for doc in nitf_docs), str(
                query
            )

    def test_p_zero_generates_plain_child_paths(self, nitf_docs):
        queries = generate_workload(nitf_docs, 30, seed=4, wildcard_descendant_prob=0.0)
        for query in queries:
            assert not has_wildcard(query)
            assert not has_descendant_axis(query)

    def test_p_one_generates_many_mutations(self, nitf_docs):
        queries = generate_workload(nitf_docs, 30, seed=5, wildcard_descendant_prob=1.0)
        mutated = sum(
            1 for q in queries if has_wildcard(q) or has_descendant_axis(q)
        )
        assert mutated == len(queries)

    def test_never_all_wildcards(self, nitf_docs):
        queries = generate_workload(nitf_docs, 50, seed=6, wildcard_descendant_prob=1.0)
        for query in queries:
            assert any(step.test != WILDCARD for step in query.steps)

    def test_first_step_roots_at_document_root(self, nitf_docs):
        # Generalised or not, step one derives from the document root label.
        queries = generate_workload(nitf_docs, 20, seed=7, wildcard_descendant_prob=0.0)
        assert all(q.steps[0].test == "nitf" for q in queries)

    def test_leafwalk_concentrates_depth(self, nitf_docs):
        """Leafwalk queries sit near min(document depth, D_Q) -- the property
        behind the paper's D_Q selectivity trend."""
        queries = generate_workload(nitf_docs, 60, seed=8, max_depth=10)
        mean_depth = sum(q.depth for q in queries) / len(queries)
        assert mean_depth > 4.0

    def test_zipf_skew_narrows_sources(self, nitf_docs):
        uniform = QueryGenerator(nitf_docs, QueryWorkloadConfig(seed=10))
        skewed = QueryGenerator(
            nitf_docs, QueryWorkloadConfig(seed=10, zipf_theta=2.0)
        )
        uniform_qs = {str(q) for q in uniform.generate_many(60)}
        skewed_qs = {str(q) for q in skewed.generate_many(60)}
        # Heavier skew samples fewer distinct source documents, hence fewer
        # distinct query strings.
        assert len(skewed_qs) <= len(uniform_qs)

    def test_negative_count_rejected(self, nitf_docs):
        with pytest.raises(ValueError):
            QueryGenerator(nitf_docs, QueryWorkloadConfig()).generate_many(-1)
