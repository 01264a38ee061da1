"""Single-channel vs K=1 multichannel builds must be byte-identical.

The multichannel cycle builder (``repro.broadcast.multichannel``) is a
generalisation, not a fork: with one data channel it must emit exactly
the single-channel program -- equal
:func:`~repro.broadcast.program.program_signature` fingerprints (which
cover the channel assignment), the channel field elided from the second
tier, and every client protocol's end-to-end metrics unchanged.  The
scripted suite pins this per allocation policy and across live
collection mutation; the Hypothesis suite fuzzes workloads and
mutations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.multichannel import ALLOCATION_POLICIES, MultiChannelCycle
from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries

ALL_PROTOCOLS = ("one-tier", "two-tier")


def make_pair(docs, allocation="balanced", **kwargs):
    """A single-channel server and a K=1 multichannel server."""
    single = BroadcastServer(DocumentStore(docs), **kwargs)
    multi = BroadcastServer(
        DocumentStore(docs),
        num_data_channels=1,
        channel_allocation=allocation,
        **kwargs,
    )
    return single, multi


def submit_both(single, multi, query_list, arrival_time=0):
    admitted = 0
    for query in query_list:
        try:
            single.submit(query, arrival_time)
        except ValueError:
            continue  # empty result set: skip on both servers
        multi.submit(query, arrival_time)
        admitted += 1
    return admitted


def assert_cycles_match(single, multi, now=None):
    cycle_s = single.build_cycle(now)
    cycle_m = multi.build_cycle(now)
    if cycle_s is None or cycle_m is None:
        assert cycle_s is None and cycle_m is None
        return None
    assert not isinstance(cycle_s, MultiChannelCycle)
    assert isinstance(cycle_m, MultiChannelCycle)
    assert program_signature(cycle_s) == program_signature(cycle_m)
    # Byte identity, not just fingerprint identity: same layout, same
    # on-air second-tier length (channel field elided at K=1), same
    # placement.
    assert cycle_m.layout.segments == cycle_s.layout.segments
    assert cycle_m.offset_list_air_bytes == cycle_s.offset_list_air_bytes
    assert cycle_m.doc_offsets == cycle_s.doc_offsets
    assert cycle_m.total_bytes == cycle_s.total_bytes
    return cycle_m


class TestScriptedEquivalence:
    @pytest.mark.parametrize("allocation", ALLOCATION_POLICIES)
    def test_steady_drain_per_policy(self, nitf_docs, nitf_queries, allocation):
        """Every allocation policy degenerates to the identity at K=1."""
        single, multi = make_pair(
            nitf_docs, allocation=allocation, cycle_data_capacity=4_000
        )
        assert submit_both(single, multi, nitf_queries) >= 10
        cycles = 0
        while single.pending or multi.pending:
            assert assert_cycles_match(single, multi) is not None
            cycles += 1
            assert cycles < 500
        assert cycles >= 20  # a real steady-state drain, not a one-shot

    def test_equivalence_across_collection_mutation(self):
        """add/remove_document between cycles; programs stay identical."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b", text="x" * 40))),
            XMLDocument(1, build_element("a", build_element("b", build_element("c")))),
            XMLDocument(2, build_element("a", build_element("c", text="y" * 60))),
        ]
        single, multi = make_pair(docs, cycle_data_capacity=64)
        for server in (single, multi):
            server.submit(parse_query("/a/b"), 0)
            server.submit(parse_query("/a//c"), 0)
        assert_cycles_match(single, multi)

        extra = XMLDocument(7, build_element("a", build_element("b", text="z" * 30)))
        for server in (single, multi):
            server.add_document(extra)
            server.submit(parse_query("/a/b"), server.clock)
        assert_cycles_match(single, multi)

        for server in (single, multi):
            server.remove_document(2)
        while single.pending or multi.pending:
            assert_cycles_match(single, multi)

    def test_signature_covers_channel_assignment(self, nitf_docs, nitf_queries):
        """At K>=2 the fingerprint must change when only the channel
        assignment changes (round-robin vs balanced on the same schedule)."""
        servers = {
            policy: BroadcastServer(
                DocumentStore(nitf_docs),
                num_data_channels=3,
                channel_allocation=policy,
                cycle_data_capacity=12_000,
            )
            for policy in ("round-robin", "balanced")
        }
        for query in nitf_queries[:10]:
            try:
                servers["round-robin"].submit(query, 0)
            except ValueError:
                continue
            servers["balanced"].submit(query, 0)
        cycle_rr = servers["round-robin"].build_cycle()
        cycle_bal = servers["balanced"].build_cycle()
        assert cycle_rr is not None and cycle_bal is not None
        assert tuple(cycle_rr.doc_ids) == tuple(cycle_bal.doc_ids)
        if cycle_rr.doc_channels != cycle_bal.doc_channels:
            assert program_signature(cycle_rr) != program_signature(cycle_bal)

    @pytest.mark.parametrize("allocation", ALLOCATION_POLICIES)
    def test_simulation_client_metrics_identical(self, allocation):
        """End-to-end: a K=1 multichannel simulation reproduces every
        protocol's client records."""
        base = dict(document_count=40, n_q=12, cycle_data_capacity=10_000)
        res_single = run_simulation(small_setup(**base))
        res_multi = run_simulation(
            small_setup(
                num_data_channels=1, channel_allocation=allocation, **base
            )
        )
        assert res_single.completed and res_multi.completed
        for protocol in ALL_PROTOCOLS:
            records = res_single.records_for(protocol)
            assert records and res_multi.records_for(protocol) == records


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        document_collections(min_docs=2, max_docs=6),
        st.lists(queries(max_steps=3), min_size=1, max_size=5),
        st.integers(min_value=64, max_value=512),
        st.sampled_from(ALLOCATION_POLICIES),
    )
    def test_random_workloads_byte_identical(
        self, docs, query_list, capacity, allocation
    ):
        single, multi = make_pair(
            docs, allocation=allocation, cycle_data_capacity=capacity
        )
        if not submit_both(single, multi, query_list):
            return
        guard = 0
        while single.pending or multi.pending:
            assert assert_cycles_match(single, multi) is not None
            guard += 1
            assert guard < 200

    @settings(max_examples=15, deadline=None)
    @given(
        document_collections(min_docs=3, max_docs=6),
        document_collections(min_docs=1, max_docs=2),
        st.lists(queries(max_steps=3), min_size=1, max_size=4),
        st.integers(min_value=64, max_value=512),
    )
    def test_equivalence_survives_live_mutation(
        self, docs, extra_docs, query_list, capacity
    ):
        """Mid-drain add/remove mutations keep the K=1 build identical."""
        single, multi = make_pair(docs, cycle_data_capacity=capacity)
        if not submit_both(single, multi, query_list):
            return
        assert_cycles_match(single, multi)

        next_id = max(doc.doc_id for doc in docs) + 1
        for offset, extra in enumerate(extra_docs):
            extra.doc_id = next_id + offset
            for server in (single, multi):
                server.add_document(extra)
        for query in query_list[:2]:
            try:
                single.submit(query, single.clock)
            except ValueError:
                continue
            multi.submit(query, multi.clock)
        victim = docs[0].doc_id
        for server in (single, multi):
            server.remove_document(victim)
        guard = 0
        while single.pending or multi.pending:
            assert_cycles_match(single, multi)
            guard += 1
            assert guard < 200
