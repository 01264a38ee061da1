"""Shared experiment machinery.

Two experiment primitives cover every figure:

* :meth:`ExperimentContext.pending_index` -- draw N_Q queries, resolve
  them on the combined guide, build the CI over the requested documents
  and prune it to the PCI; the *static* sizing behind Figures 9 and 10
  (:meth:`~ExperimentContext.index_size_point`) sizes its tiers;
* :meth:`ExperimentContext.tuning_point` -- the *dynamic* experiment
  behind Figure 11 and the cycles-per-query statistic: a full broadcast
  simulation accounting both client protocols on the same schedule.

Collections are cached per (dtd, size, seed) because document generation
plus DataGuide construction dominates sweep time otherwise.

Two scales are provided: ``paper`` (Table 2: 1000 documents, N_Q up to
900) and ``bench`` (2.5x smaller, for the pytest-benchmark harness to
finish in seconds while preserving every shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.broadcast.server import DocumentStore, build_ci_from_store
from repro.filtering.nfa import resolve_on_guide
from repro.index.ci import CompactIndex
from repro.index.pruning import PruningStats, prune_to_pci
from repro.index.sizes import PAPER_SIZE_MODEL
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.simulation import Simulation, build_collection
from repro.xmlkit.model import XMLDocument
from repro.xpath.ast import XPathQuery
from repro.xpath.evaluator import evaluate_on_document
from repro.xpath.generator import QueryGenerator, QueryWorkloadConfig


@dataclass(frozen=True)
class Scale:
    """Experiment scale: collection size, load levels, cycle capacity."""

    name: str
    document_count: int
    n_q_default: int
    n_q_sweep: Tuple[int, ...]
    p_sweep: Tuple[float, ...]
    d_q_sweep: Tuple[int, ...]
    arrival_cycles: int
    cycle_data_capacity: int


PAPER_SCALE = Scale(
    name="paper",
    document_count=1000,
    n_q_default=500,
    n_q_sweep=(100, 300, 500, 700, 900),
    p_sweep=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    d_q_sweep=(4, 6, 8, 10, 12),
    arrival_cycles=3,
    cycle_data_capacity=500_000,
)

BENCH_SCALE = Scale(
    name="bench",
    document_count=400,
    n_q_default=200,
    n_q_sweep=(40, 120, 200, 280, 360),
    p_sweep=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    d_q_sweep=(4, 6, 8, 10, 12),
    arrival_cycles=2,
    cycle_data_capacity=200_000,
)

SCALES: Dict[str, Scale] = {scale.name: scale for scale in (PAPER_SCALE, BENCH_SCALE)}


@dataclass(frozen=True)
class PendingIndex:
    """One pending load as the server indexes it: queries -> requested
    documents -> CI -> PCI."""

    queries: List[XPathQuery]
    #: each query's result documents, in query order
    docs_per_query: List[FrozenSet[int]]
    #: documents requested by at least one query
    requested: FrozenSet[int]
    ci: CompactIndex
    pci: CompactIndex
    stats: PruningStats

    @classmethod
    def build(cls, store: DocumentStore, queries: List[XPathQuery]) -> "PendingIndex":
        """Resolve *queries* on the store's combined guide, index what they
        request, prune.

        A predicated query (from a workload file) resolves its structural
        relaxation; phase two keeps the candidates the evaluator accepts.
        """
        candidates = resolve_on_guide(
            store.full_guide, [query.structural_relaxation() for query in queries]
        )
        docs_per_query = [
            frozenset(d for d in docs if evaluate_on_document(query, store.by_id[d]))
            if query.has_predicates()
            else docs
            for query, docs in zip(queries, candidates)
        ]
        requested = frozenset().union(*docs_per_query)
        ci = build_ci_from_store(store, requested)
        pci, stats = prune_to_pci(ci, queries)
        return cls(queries, docs_per_query, requested, ci, pci, stats)


@dataclass(frozen=True)
class IndexSizePoint:
    """One point of a static index-size sweep."""

    n_q: int
    p: float
    d_q: int
    requested_docs: int
    mean_result_docs: float
    ci_nodes: int
    pci_nodes: int
    ci_bytes: int  #: one-tier CI
    pci_bytes: int  #: one-tier PCI
    pci_first_tier_bytes: int  #: L_I
    offset_list_bytes: int  #: L_O for one average cycle
    collection_bytes: int

    @property
    def pci_to_ci(self) -> float:
        return self.pci_bytes / self.ci_bytes if self.ci_bytes else 1.0

    @property
    def two_tier_bytes(self) -> int:
        return self.pci_first_tier_bytes + self.offset_list_bytes

    @property
    def two_tier_to_data(self) -> float:
        return self.two_tier_bytes / self.collection_bytes


@dataclass(frozen=True)
class TuningPoint:
    """One point of a dynamic tuning-time sweep."""

    n_q: int
    p: float
    d_q: int
    one_tier_lookup: float
    two_tier_lookup: float
    mean_cycles: float
    mean_result_docs: float
    cycles_run: int
    completed: bool

    @property
    def improvement(self) -> float:
        """one-tier / two-tier index-lookup tuning ratio."""
        return (
            self.one_tier_lookup / self.two_tier_lookup
            if self.two_tier_lookup
            else float("inf")
        )


@dataclass
class FigureResult:
    """One reproduced figure: id, axis, rows and the note to print (an
    empty id prints the title alone)."""

    figure_id: str
    title: str
    axis: str
    headers: Tuple[str, ...]
    rows: List[Tuple] = field(default_factory=list)
    note: str = ""

    def as_text(self) -> str:
        from repro.experiments.report import format_table

        heading = f"{self.figure_id}: {self.title}" if self.figure_id else self.title
        return format_table(heading, self.headers, self.rows, self.note)


class ExperimentContext:
    """Caches collections and stores across sweep points."""

    def __init__(self, scale: str = "paper", dtd: str = "nitf", seed: int = 7) -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
        self.scale = SCALES[scale]
        self.dtd = dtd
        self.seed = seed
        self._documents: Optional[List[XMLDocument]] = None
        self._store: Optional[DocumentStore] = None

    # ------------------------------------------------------------------
    # Cached inputs
    # ------------------------------------------------------------------

    def base_config(self, **overrides) -> SimulationConfig:
        config = SimulationConfig(
            dtd=self.dtd,
            document_count=self.scale.document_count,
            collection_seed=self.seed,
            n_q=self.scale.n_q_default,
            arrival_cycles=self.scale.arrival_cycles,
            cycle_data_capacity=self.scale.cycle_data_capacity,
        )
        return config.with_(**overrides) if overrides else config

    @property
    def documents(self) -> List[XMLDocument]:
        if self._documents is None:
            self._documents = build_collection(self.base_config())
        return self._documents

    @property
    def store(self) -> DocumentStore:
        if self._store is None:
            self._store = DocumentStore(self.documents)
        return self._store

    @property
    def collection_bytes(self) -> int:
        return self.store.total_data_bytes()

    # ------------------------------------------------------------------
    # Experiment primitives
    # ------------------------------------------------------------------

    def queries(
        self, n_q: Optional[int] = None, p: float = 0.1, d_q: int = 10
    ) -> List[XPathQuery]:
        """N_Q pending queries drawn from the collection (Table 2's P, D_Q)."""
        n_q = n_q if n_q is not None else self.scale.n_q_default
        return QueryGenerator(
            self.documents,
            QueryWorkloadConfig(wildcard_descendant_prob=p, max_depth=d_q),
        ).generate_many(n_q)

    def pending_index(
        self, n_q: Optional[int] = None, p: float = 0.1, d_q: int = 10
    ) -> PendingIndex:
        """The server's index for :meth:`queries`."""
        return PendingIndex.build(self.store, self.queries(n_q, p, d_q))

    def index_size_point(
        self, n_q: Optional[int] = None, p: float = 0.1, d_q: int = 10
    ) -> IndexSizePoint:
        """Static sizing: N_Q pending queries -> CI -> PCI -> tiers."""
        pending = self.pending_index(n_q, p, d_q)
        stats, per_query = pending.stats, pending.docs_per_query
        return IndexSizePoint(
            n_q=len(pending.queries),
            p=p,
            d_q=d_q,
            requested_docs=len(pending.requested),
            mean_result_docs=sum(map(len, per_query)) / len(pending.queries),
            ci_nodes=stats.nodes_before,
            pci_nodes=stats.nodes_after,
            ci_bytes=stats.bytes_before,
            pci_bytes=stats.bytes_after,
            pci_first_tier_bytes=pending.pci.size_bytes(one_tier=False),
            offset_list_bytes=PAPER_SIZE_MODEL.offset_list_bytes(
                self._mean_docs_per_cycle()
            ),
            collection_bytes=self.collection_bytes,
        )

    def _mean_docs_per_cycle(self) -> int:
        """Documents an average cycle carries, for static L_O estimates."""
        mean_air = sum(
            self.store.air_bytes(doc.doc_id) for doc in self.documents
        ) / len(self.documents)
        return max(1, int(self.scale.cycle_data_capacity / mean_air))

    def tuning_point(
        self,
        n_q: Optional[int] = None,
        p: float = 0.1,
        d_q: int = 10,
        **config_overrides,
    ) -> TuningPoint:
        """Dynamic experiment: full simulation, both protocols accounted."""
        n_q = n_q if n_q is not None else self.scale.n_q_default
        config = self.base_config(
            n_q=n_q, wildcard_prob=p, max_query_depth=d_q, **config_overrides
        )
        result = self.run_simulation(config)
        return TuningPoint(
            n_q=n_q,
            p=p,
            d_q=d_q,
            one_tier_lookup=result.mean_index_lookup_bytes("one-tier"),
            two_tier_lookup=result.mean_index_lookup_bytes("two-tier"),
            mean_cycles=result.mean_cycles_listened("two-tier"),
            mean_result_docs=result.mean_result_size(),
            cycles_run=len(result.cycles),
            completed=result.completed,
        )

    def run_simulation(self, config: SimulationConfig) -> SimulationResult:
        """A full run reusing the cached collection when shapes match."""
        documents = (
            self.documents
            if (
                config.dtd == self.dtd
                and config.document_count == self.scale.document_count
                and config.collection_seed == self.seed
            )
            else None
        )
        return Simulation(config, documents=documents).run()
