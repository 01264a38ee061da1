"""Unit tests for the experiment runner.

These run at a deliberately tiny custom scale so the full pipeline (both
experiment primitives) is exercised in seconds; the real scales are
executed by the benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    BENCH_SCALE,
    ExperimentContext,
    PAPER_SCALE,
    SCALES,
    Scale,
)


@pytest.fixture(scope="module")
def tiny_context():
    context = ExperimentContext(scale="bench")
    # Shrink in place for test speed: fewer documents, small cycles.
    context.scale = Scale(
        name="tiny",
        document_count=50,
        n_q_default=20,
        n_q_sweep=(10, 20),
        p_sweep=(0.0, 0.2),
        d_q_sweep=(4, 8),
        arrival_cycles=2,
        cycle_data_capacity=40_000,
    )
    return context


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"paper", "bench"}
        assert PAPER_SCALE.document_count == 1000
        assert BENCH_SCALE.document_count < PAPER_SCALE.document_count

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentContext(scale="galactic")


class TestIndexSizePoint:
    def test_fields_consistent(self, tiny_context):
        point = tiny_context.index_size_point(n_q=10)
        assert point.n_q == 10
        assert point.pci_bytes <= point.ci_bytes
        assert point.pci_first_tier_bytes <= point.pci_bytes
        assert point.two_tier_bytes == point.pci_first_tier_bytes + point.offset_list_bytes
        assert 0 < point.pci_to_ci <= 1
        assert 0 < point.two_tier_to_data
        assert point.two_tier_bytes < point.ci_bytes

    def test_collection_cached(self, tiny_context):
        first = tiny_context.documents
        second = tiny_context.documents
        assert first is second


class TestTuningPoint:
    def test_fields_consistent(self, tiny_context):
        point = tiny_context.tuning_point(n_q=10)
        assert point.completed
        assert point.two_tier_lookup > 0
        assert point.one_tier_lookup > point.two_tier_lookup
        assert point.improvement > 1
        assert point.mean_cycles >= 1
