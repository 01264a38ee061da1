"""Unit tests for result records and aggregation."""

from __future__ import annotations

import pytest

from repro.broadcast.server import CycleRecord
from repro.client.metrics import ClientMetrics
from repro.index.pruning import PruningStats
from repro.sim.results import ClientRecord, SimulationResult


def record(protocol: str, lookup: int = 100, cycles: int = 3) -> ClientRecord:
    return ClientRecord(
        query_text="/a/b",
        protocol=protocol,
        arrival_time=0,
        result_doc_count=5,
        cycles_listened=cycles,
        probe_bytes=128,
        index_bytes=lookup - 128,
        offset_bytes=0,
        doc_bytes=1000,
        index_lookup_bytes=lookup,
        tuning_bytes=lookup + 1000,
        access_bytes=5000,
    )


def cycle_record(n: int = 0) -> CycleRecord:
    return CycleRecord(
        cycle_number=n,
        start_time=n * 1000,
        total_bytes=1000,
        data_bytes=800,
        pending_count=4,
        requested_docs=5,
        scheduled_docs=3,
        pci_nodes=10,
        pci_first_tier_bytes=300,
        offset_list_bytes=20,
        pruning=PruningStats(
            nodes_before=12,
            nodes_after=10,
            doc_entries_before=9,
            doc_entries_after=7,
            bytes_before=600,
            bytes_after=500,
        ),
    )


class TestClientRecord:
    def test_from_metrics(self):
        metrics = ClientMetrics(arrival_time=10)
        metrics.merge_cycle(probe=128, index=256, offsets=64, docs=512)
        metrics.completion_time = 1010
        metrics.result_doc_count = 2
        rec = ClientRecord.from_metrics("/a", "two-tier", metrics)
        assert rec.index_lookup_bytes == 128 + 256 + 64
        assert rec.tuning_bytes == rec.index_lookup_bytes + 512
        assert rec.access_bytes == 1000

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            ClientRecord.from_metrics("/a", "two-tier", ClientMetrics(arrival_time=0))


class TestSimulationResult:
    def test_means_per_protocol(self):
        result = SimulationResult(
            clients=[
                record("one-tier", lookup=300),
                record("one-tier", lookup=500),
                record("two-tier", lookup=100),
            ]
        )
        assert result.mean_index_lookup_bytes("one-tier") == 400
        assert result.mean_index_lookup_bytes("two-tier") == 100
        assert result.mean_index_lookup_bytes("naive") == 0.0

    def test_cycle_aggregates(self):
        result = SimulationResult(cycles=[cycle_record(0), cycle_record(1)])
        assert result.mean_ci_bytes() == 600
        assert result.mean_pci_bytes() == 500
        assert result.mean_two_tier_bytes() == 320

    def test_index_to_data_ratio(self):
        result = SimulationResult(collection_bytes=10_000)
        assert result.index_to_data_ratio(500) == 0.05
        empty = SimulationResult()
        assert empty.index_to_data_ratio(500) == 0.0

    def test_summary_keys(self):
        result = SimulationResult(
            clients=[record("one-tier"), record("two-tier")],
            cycles=[cycle_record()],
            collection_bytes=100,
        )
        summary = result.summary()
        for key in ("cycles", "mean_cycles_listened", "one_tier_lookup"):
            assert key in summary

    def test_summary_counts_every_session(self):
        """Regression: two sessions asking the same query at the same
        arrival time were counted once.  Each session has exactly one
        two-tier record."""
        result = SimulationResult(
            clients=[record("one-tier"), record("two-tier"), record("two-tier")]
        )
        assert result.summary()["clients"] == 2

    def test_mean_cycles_listened(self):
        result = SimulationResult(
            clients=[record("two-tier", cycles=2), record("two-tier", cycles=4)]
        )
        assert result.mean_cycles_listened("two-tier") == 3.0
