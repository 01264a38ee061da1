"""Tests for the DBLP-like third data set."""

from __future__ import annotations

from repro.xmlkit.generator import DocumentGenerator, GeneratorConfig, dblp_like_dtd
from repro.xmlkit.stats import collection_stats
from tests.oracles import is_recursive


class TestDblpDTD:
    def test_validates(self):
        dblp_like_dtd().validate()

    def test_not_recursive(self):
        # Bibliographies are flat: the containment graph is a DAG.
        assert not is_recursive(dblp_like_dtd())

    def test_shallow_and_regular(self):
        docs = DocumentGenerator(dblp_like_dtd(), GeneratorConfig(seed=5)).generate_many(50)
        stats = collection_stats(docs)
        assert stats.max_depth == 3  # dblp / record / field
        # Far fewer distinct paths than the NITF set of equal size.
        assert stats.distinct_paths < 60

    def test_records_have_required_fields(self):
        docs = DocumentGenerator(dblp_like_dtd(), GeneratorConfig(seed=6)).generate_many(10)
        for doc in docs:
            for record in doc.root.children:
                if record.tag == "www":
                    continue
                tags = {child.tag for child in record.children}
                assert "title" in tags
                assert "author" in tags
                assert "year" in tags

    def test_end_to_end_broadcast(self):
        from repro.sim.config import small_setup
        from repro.sim.simulation import run_simulation

        result = run_simulation(small_setup(dtd="dblp"))
        assert result.completed
        assert result.mean_index_lookup_bytes(
            "two-tier"
        ) < result.mean_index_lookup_bytes("one-tier")

    def test_annotation_dominated_index(self):
        """With almost no structure, the two-tier pointer removal is the
        whole game: savings approach pointer/(id+pointer) = 2/3."""
        from repro.broadcast.server import DocumentStore, build_ci_from_store
        from repro.index.pruning import prune_to_pci
        from repro.xpath.generator import generate_workload

        docs = DocumentGenerator(dblp_like_dtd(), GeneratorConfig(seed=5)).generate_many(80)
        store = DocumentStore(docs)
        queries = generate_workload(docs, 40, seed=11)
        from repro.filtering.nfa import resolve_on_guide

        requested = frozenset().union(*resolve_on_guide(store.full_guide, queries))
        ci = build_ci_from_store(store, requested)
        pci, _ = prune_to_pci(ci, queries)
        one_tier = pci.size_bytes(one_tier=True)
        first_tier = pci.size_bytes(one_tier=False)
        saving = 1 - first_tier / one_tier
        assert saving > 0.5
