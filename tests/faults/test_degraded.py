"""Overload-degraded cycle builds: the ladder, counters and client side."""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.twotier import TwoTierClient
from repro.xpath.parser import parse_query


def make_server(overloaded=(), **kwargs):
    """A server over the paper's documents whose builds of the cycle
    numbers in *overloaded* are forced down the degradation ladder."""
    from tests.xpath.test_evaluator import paper_documents

    server = BroadcastServer(DocumentStore(paper_documents()), **kwargs)
    wanted = set(overloaded)
    server.force_overload = lambda cycle: cycle in wanted
    return server


class TestLadder:
    def test_stale_pci_when_query_set_unchanged(self):
        server = make_server(
            acknowledged_delivery=True, overloaded=(1,)
        )
        server.submit(parse_query("/a//c"), 0)
        first = server.build_cycle()
        assert first.degraded is None
        second = server.build_cycle()
        assert second.degraded == "pci-stale"
        assert server.records[-1].degraded == "pci-stale"
        assert server.degraded_cycles == 1
        assert server.cache.stats["pci_stale_served"] == 1
        # The stale PCI is literally last cycle's object.
        assert second.pci is first.pci

    def test_unpruned_ci_on_cold_cache(self):
        server = make_server(overloaded=(0,))
        server.submit(parse_query("/a//c"), 0)
        cycle = server.build_cycle()
        assert cycle.degraded == "ci-unpruned"
        stats = server.records[-1].pruning
        assert stats.nodes_before == stats.nodes_after  # no pruning happened
        assert cycle.pci.node_count == stats.nodes_before

    def test_unpruned_ci_when_query_set_changed(self):
        server = make_server(
            acknowledged_delivery=True, overloaded=(1,)
        )
        server.submit(parse_query("/a//c"), 0)
        first = server.build_cycle()
        server.submit(parse_query("/a/b"), first.end_time)
        second = server.build_cycle()
        assert second.degraded == "ci-unpruned"

    def test_unpruned_ci_without_caches(self):
        server = make_server(
            enable_caches=False,
            acknowledged_delivery=True,
            overloaded=(1,),
        )
        server.submit(parse_query("/a//c"), 0)
        server.build_cycle()
        assert server.build_cycle().degraded == "ci-unpruned"

    def test_degraded_output_never_cached(self):
        server = make_server(
            acknowledged_delivery=True, overloaded=(1,)
        )
        server.submit(parse_query("/a//c"), 0)
        server.build_cycle()
        misses = server.cache.stats["pci_misses"]
        assert server.build_cycle().degraded == "pci-stale"
        third = server.build_cycle()
        # Recovery: the full build re-prunes; the degraded cycle left no
        # trace in the PCI layer (the stale entry it served is still the
        # cycle-0 one, now reusable as a hit).
        assert third.degraded is None
        assert server.cache.stats["pci_misses"] == misses

    def test_degraded_cycles_air_back_to_back(self):
        server = make_server(
            acknowledged_delivery=True,
            overloaded=(0, 1, 2),
        )
        server.submit(parse_query("/a//c"), 0)
        clock = 0
        for _ in range(3):
            cycle = server.build_cycle()
            assert cycle is not None and cycle.degraded is not None
            assert cycle.start_time == clock  # no stall between cycles
            clock = cycle.end_time
        assert server.degraded_cycles == 3


class TestBudgetTriggers:
    def test_within_budget_builds_normally(self):
        server = make_server()
        server.submit(parse_query("/a//c"), 0)
        assert server.build_cycle().degraded is None
        assert server.degraded_cycles == 0

    def test_forced_overload_is_counted_with_its_reason(self):
        from repro import obs

        server = make_server(overloaded=(0,))
        server.submit(parse_query("/a//c"), 0)
        with obs.observed() as registry:
            assert server.build_cycle().degraded == "ci-unpruned"
            counter = registry.counter(
                "server.degraded_cycles_total", mode="ci-unpruned", reason="forced"
            )
            assert counter.value == 1


class TestClientDeferral:
    def test_fresh_client_defers_on_stale_pci(self):
        server = make_server(
            acknowledged_delivery=True, overloaded=(1,)
        )
        query = parse_query("/a//c")
        server.submit(query, 0)
        server.build_cycle()
        stale = server.build_cycle()
        assert stale.degraded == "pci-stale"

        client = TwoTierClient(query, stale.start_time)
        client.on_cycle(stale)
        assert client.expected_doc_ids is None  # deferred the index read
        assert client.metrics.probe_bytes > 0  # but paid the probe
        assert client.metrics.index_bytes == 0
        assert client.metrics.doc_bytes == 0

    def test_locked_client_keeps_consuming_stale_cycles(self):
        server = make_server(
            acknowledged_delivery=True, overloaded=(1,)
        )
        query = parse_query("/a//c")
        server.submit(query, 0)
        first = server.build_cycle()
        client = TwoTierClient(query, 0)
        client.on_cycle(first)
        assert client.expected_doc_ids is not None
        stale = server.build_cycle()
        client.on_cycle(stale)  # no deferral once the set is locked

    def test_fresh_client_reads_unpruned_ci(self):
        server = make_server(overloaded=(0,))
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        assert cycle.degraded == "ci-unpruned"
        client = TwoTierClient(query, 0)
        client.on_cycle(cycle)
        # The unpruned CI is complete, so the one-shot read is safe.
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})
