"""Result records and aggregation for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.broadcast.server import CycleRecord
from repro.client.metrics import ClientMetrics


@dataclass(frozen=True)
class ClientRecord:
    """One completed client session under one protocol."""

    query_text: str
    protocol: str  #: "one-tier", "two-tier" or "naive"
    arrival_time: int
    result_doc_count: int
    cycles_listened: int
    probe_bytes: int
    index_bytes: int
    offset_bytes: int
    doc_bytes: int
    index_lookup_bytes: int
    tuning_bytes: int
    access_bytes: int

    @classmethod
    def from_metrics(
        cls, query_text: str, protocol: str, metrics: ClientMetrics
    ) -> "ClientRecord":
        if metrics.access_bytes is None:
            raise ValueError("cannot record an incomplete session")
        return cls(
            query_text=query_text,
            protocol=protocol,
            arrival_time=metrics.arrival_time,
            result_doc_count=metrics.result_doc_count,
            cycles_listened=metrics.cycles_listened,
            probe_bytes=metrics.probe_bytes,
            index_bytes=metrics.index_bytes,
            offset_bytes=metrics.offset_bytes,
            doc_bytes=metrics.doc_bytes,
            index_lookup_bytes=metrics.index_lookup_bytes,
            tuning_bytes=metrics.tuning_bytes,
            access_bytes=metrics.access_bytes,
        )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class SimulationResult:
    """Everything a finished run produced."""

    clients: List[ClientRecord] = field(default_factory=list)
    #: the server's record of every cycle the run aired
    cycles: List[CycleRecord] = field(default_factory=list)
    collection_bytes: int = 0
    document_count: int = 0
    completed: bool = True  #: False when max_cycles stopped the drain
    #: metrics-registry snapshot taken at the end of an observed run
    #: (``None`` with observability off, the default)
    metrics: Optional[Dict[str, Dict]] = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def records_for(self, protocol: str) -> List[ClientRecord]:
        return [record for record in self.clients if record.protocol == protocol]

    def mean_index_lookup_bytes(self, protocol: str) -> float:
        """The Figure 11 metric: mean tuning time during index look-up."""
        return _mean([r.index_lookup_bytes for r in self.records_for(protocol)])

    def mean_tuning_bytes(self, protocol: str) -> float:
        return _mean([r.tuning_bytes for r in self.records_for(protocol)])

    def mean_access_bytes(self, protocol: str) -> float:
        return _mean([r.access_bytes for r in self.records_for(protocol)])

    def mean_cycles_listened(self, protocol: str) -> float:
        """The paper's "on average 11.8 broadcast cycles" measure."""
        return _mean([r.cycles_listened for r in self.records_for(protocol)])

    def mean_result_size(self) -> float:
        two = self.records_for("two-tier") or self.clients
        return _mean([r.result_doc_count for r in two])

    # Index-size aggregates over cycles ---------------------------------

    def mean_ci_bytes(self) -> float:
        return _mean([c.pruning.bytes_before for c in self.cycles])

    def mean_pci_bytes(self) -> float:
        return _mean([c.pruning.bytes_after for c in self.cycles])

    def mean_first_tier_bytes(self) -> float:
        return _mean([c.pci_first_tier_bytes for c in self.cycles])

    def mean_offset_list_bytes(self) -> float:
        return _mean([c.offset_list_bytes for c in self.cycles])

    def mean_two_tier_bytes(self) -> float:
        """First tier plus one cycle's second tier (Figure 10's two-tier)."""
        return self.mean_first_tier_bytes() + self.mean_offset_list_bytes()

    def index_to_data_ratio(self, index_bytes: float) -> float:
        """Index size relative to the collection size (the 0.1%-0.5% claim)."""
        return index_bytes / self.collection_bytes if self.collection_bytes else 0.0

    def summary(self) -> Dict[str, float]:
        """Headline numbers, keyed for report printing."""
        return {
            "cycles": len(self.cycles),
            # every session has exactly one two-tier record
            "clients": len(self.records_for("two-tier")),
            "mean_result_docs": self.mean_result_size(),
            "mean_cycles_listened": self.mean_cycles_listened("two-tier"),
            "ci_bytes": self.mean_ci_bytes(),
            "pci_bytes": self.mean_pci_bytes(),
            "two_tier_bytes": self.mean_two_tier_bytes(),
            "one_tier_lookup": self.mean_index_lookup_bytes("one-tier"),
            "two_tier_lookup": self.mean_index_lookup_bytes("two-tier"),
        }
