"""K is a field of the cycle, not a mode: one builder for every K.

Two contracts pin the default (K = 1) program:

* **goldens** -- SHA-256 digests over the per-cycle
  :func:`~repro.broadcast.program.program_signature`, segment layout and
  on-air second-tier length of seeded default-K runs, captured at the
  last commit that still had a separate single-channel builder
  (two-tier and one-tier simulations, a server drained across
  ``add_document``/``remove_document``, an adaptive run clamped to
  ``k_max=1``).  Nothing the paper's single-channel program put on air
  may move;
* **policy identity** -- at K = 1 every allocation policy is the
  identity (the one queue is the schedule), so a server configured with
  any policy emits the default server's programs byte for byte, through
  steady drains, live collection mutation and Hypothesis-fuzzed
  workloads.

At K >= 2 the signature must tell channel assignments apart.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.broadcast.multichannel import ALLOCATION_POLICIES
from repro.broadcast.program import IndexScheme, program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.control import ControlConfig
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation, run_simulation
from repro.xmlkit.generator import generate_collection, nitf_like_dtd
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries

ALL_PROTOCOLS = ("one-tier", "two-tier")


class _ProgramDigest:
    """Running SHA-256 over what each cycle puts on air."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.cycles = 0

    def add(self, cycle) -> None:
        form = (
            program_signature(cycle),
            tuple((s.kind.value, s.start, s.length) for s in cycle.layout.segments),
            cycle.offset_list_air_bytes,
        )
        self.sha.update(repr(form).encode("utf-8"))
        self.cycles += 1

    def result(self):
        return self.cycles, self.sha.hexdigest()


def _simulation_digest(config):
    digest = _ProgramDigest()

    class Signed(Simulation):
        def _record_cycle(self, cycle):
            digest.add(cycle)
            super()._record_cycle(cycle)

    assert Signed(config).run().completed
    return digest.result()


class TestDefaultKGoldens:
    """Captured at commit 5ff7714 (``num_data_channels=None``, where
    ``None`` and ``1`` were pinned identical); never re-capture to make
    a refactor pass."""

    def test_two_tier_simulation(self):
        assert _simulation_digest(small_setup()) == (
            19,
            "da6d56f634fac2e7a96b1d9aa7bee7598ce1ac2b4aaa36c77dc829b7f27b5669",
        )

    def test_one_tier_simulation(self):
        assert _simulation_digest(small_setup(scheme=IndexScheme.ONE_TIER)) == (
            19,
            "e427e770fa990e16db205a860eb5d5064b7d36bacefdc15eccda05893f61151d",
        )

    def test_adaptive_clamped_to_one_channel(self):
        """The controller runs (governor, policy regret) but K cannot
        leave 1, so every plan it applies must be layout-neutral."""
        config = small_setup(
            adaptive=True,
            control=ControlConfig(k_min=1, k_max=1, hot_set_size=0),
        )
        assert _simulation_digest(config) == (
            23,
            "f4c89f5a51a2481bfc5d557da4aacda4453381856ab318df8f7b35b9be4ba3b6",
        )

    def test_drain_across_collection_mutation(self, nitf_docs, nitf_queries):
        """add_document every 2nd cycle (with fresh arrivals),
        remove_document every 3rd, until the server drains."""
        spare = list(nitf_docs[50:]) + generate_collection(
            nitf_like_dtd(), 66, seed=101
        )[60:]
        server = BroadcastServer(
            DocumentStore(nitf_docs[:50]), cycle_data_capacity=6_000
        )
        for query in nitf_queries[:20]:
            try:
                server.submit(query, 0)
            except ValueError:
                pass
        digest = _ProgramDigest()
        step = 0
        while server.pending:
            digest.add(server.build_cycle())
            step += 1
            if step % 2 == 0 and spare:
                server.add_document(spare.pop(0))
                for query in nitf_queries[20 + step : 22 + step]:
                    try:
                        server.submit(query, server.clock)
                    except ValueError:
                        pass
            if step % 3 == 0:
                server.remove_document(min(server.store.by_id))
            assert step < 500
        assert digest.result() == (
            47,
            "e40a078e38859999b3227df194cb6bc152e5f784925469ed59e9e89be3e0f32f",
        )


class _BuildDigest:
    """Running SHA-256 over what each build decides: the program it
    airs, its :class:`CycleRecord` (timings aside) and the remaining sets
    the pending queries are left with."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.cycles = 0

    def add(self, server, cycle) -> None:
        record = server.records[-1]
        form = (
            program_signature(cycle),
            tuple(
                (field.name, getattr(record, field.name))
                for field in dataclasses.fields(record)
                if field.name != "phase_seconds"
            ),
            tuple(
                (query.query_id, tuple(sorted(query.remaining_doc_ids)))
                for query in server.pending
            ),
        )
        self.sha.update(repr(form).encode("utf-8"))
        self.cycles += 1

    def result(self):
        return self.cycles, self.sha.hexdigest()


def _drain_digest(docs, queries, overload=False, **kwargs):
    """Drain a server over *docs*: ten queries at time 0, one more every
    fourth cycle.  With *overload* every third build (from cycle 1) is
    forced down the degradation ladder; an acknowledging server hears
    back every scheduled document but a rotating quarter of them."""
    server = BroadcastServer(DocumentStore(docs), cycle_data_capacity=6_000, **kwargs)
    if overload:
        server.force_overload = lambda cycle_number: cycle_number % 3 == 1
    for query in queries[:10]:
        try:
            server.submit(query, 0)
        except ValueError:
            pass
    digest = _BuildDigest()
    step = 0
    while server.pending:
        cycle = server.build_cycle()
        digest.add(server, cycle)
        if server.acknowledged_delivery:
            for query in list(server.pending):
                got = {
                    doc_id
                    for doc_id in cycle.doc_ids
                    if doc_id in query.remaining_doc_ids and (doc_id + step) % 4
                }
                if got:
                    held = query.result_doc_ids - query.remaining_doc_ids
                    server.confirm_delivery(query, held | got, cycle)
        step += 1
        if step % 4 == 0:
            for query in queries[10 + step // 4 : 11 + step // 4]:
                try:
                    server.submit(query, server.clock)
                except ValueError:
                    pass
        assert step < 500
    return server, digest.result()


class TestBuildStageGoldens:
    """What a cycle build decides -- hot-set forcing at K >= 2, both
    rungs of the overload ladder, acknowledged retirement and the
    ``enable_caches=False`` fork -- pinned build by build.  Captured at
    commit 0252f6d, before the build was split into stages; never
    re-capture to make a refactor pass."""

    def test_adaptive_hot_set(self):
        """K moves within 2..4 and up to four hot documents are forced
        onto the fast-repeat channel."""
        digest = _BuildDigest()

        class Signed(Simulation):
            def _record_cycle(self, cycle):
                digest.add(self.server, cycle)
                super()._record_cycle(cycle)

        config = small_setup(
            adaptive=True,
            control=ControlConfig(k_min=2, k_max=4, hot_set_size=4),
        )
        with obs.observed() as registry:
            assert Signed(config).run().completed
            assert registry.counter("server.hot_forced_docs_total").value > 0
        assert digest.result() == (
            14,
            "fa8c7d6176a73d719d69440b15ce0469aef3c43f1ab40b34d5d04f8858f44199",
        )

    @pytest.mark.parametrize(
        "enable_caches, expected",
        [
            (
                True,
                (
                    149,
                    "7eb23bf0d0c9716bce790637d9b30cc1255111a6bb44c254add591aeb162f7b8",
                ),
            ),
            (
                False,
                (
                    149,
                    "3dbace610c81ba71c4f734e122a279fa2edef1e8610b4d035aeecc6bc9f3195c",
                ),
            ),
        ],
        ids=["cached", "plain"],
    )
    def test_forced_overload(self, nitf_docs, nitf_queries, enable_caches, expected):
        """Both rungs with caches; the from-scratch twin has no stale PCI
        to serve, so every overloaded build airs the unpruned CI."""
        server, result = _drain_digest(
            nitf_docs, nitf_queries, overload=True, enable_caches=enable_caches
        )
        rungs = {record.degraded for record in server.records}
        assert rungs == {None, "ci-unpruned"} | (
            {"pci-stale"} if enable_caches else set()
        )
        assert result == expected

    @pytest.mark.parametrize("enable_caches", [True, False], ids=["cached", "plain"])
    def test_acknowledged_delivery(self, nitf_docs, nitf_queries, enable_caches):
        """Three demand-allocated channels, remaining sets shrinking only
        on (lossy) acknowledgements; the twin airs the same builds."""
        _server, result = _drain_digest(
            nitf_docs,
            nitf_queries,
            acknowledged_delivery=True,
            num_data_channels=3,
            channel_allocation="demand",
            enable_caches=enable_caches,
        )
        assert result == (
            130,
            "f753a8c07869e91a9a6e1aa148a4cabae2279780257147027e416ff6aef54018",
        )


def make_pair(docs, allocation, **kwargs):
    """The default server and a K=1 server under *allocation*."""
    default = BroadcastServer(DocumentStore(docs), **kwargs)
    policy = BroadcastServer(
        DocumentStore(docs),
        num_data_channels=1,
        channel_allocation=allocation,
        **kwargs,
    )
    return default, policy


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
    assert cycle_s.num_data_channels == cycle_m.num_data_channels == 1
    assert program_signature(cycle_s) == program_signature(cycle_m)
    # Byte identity, not just fingerprint identity: same layout, same
    # on-air second-tier length (no channel field at K=1), same
    # placement, one queue that is the schedule.
    assert cycle_m.layout.segments == cycle_s.layout.segments
    assert cycle_m.offset_list_air_bytes == cycle_s.offset_list_air_bytes
    assert cycle_m.doc_offsets == cycle_s.doc_offsets
    assert cycle_m.total_bytes == cycle_s.total_bytes
    assert cycle_m.channel_queues == (cycle_m.doc_ids,)
    assert cycle_m.channel_spans == (cycle_m.data_bytes,)
    return cycle_m


class TestScriptedEquivalence:
    @pytest.mark.parametrize("allocation", ALLOCATION_POLICIES)
    def test_steady_drain_per_policy(self, nitf_docs, nitf_queries, allocation):
        """Every allocation policy is the identity at K=1."""
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
        single, multi = make_pair(docs, "demand", cycle_data_capacity=64)
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
        """End-to-end: the policy cannot move any protocol's client
        records at K=1."""
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
        """Mid-drain add/remove mutations keep the policies identical
        (``demand`` is the one that reads the live demand table)."""
        single, multi = make_pair(docs, "demand", cycle_data_capacity=capacity)
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
