"""Property suite for K-data-channel cycle programs and their client.

Hypothesis-driven invariants of ``allocate_channels`` and the one
program builder (``repro.broadcast.program.build_cycle_program``) over
K >= 1 data channels:

* **partition** -- every scheduled document airs on exactly one channel
  exactly once per cycle, for every allocation policy;
* **span bound** -- no channel's used bytes exceed the cycle's data
  segment (the air-byte span the cycle reserves);
* **deferral terminates** -- a single-tuner client facing cross-channel
  conflicts still retrieves every indexed result document in finitely
  many cycles, because each cycle containing a wanted document delivers
  at least one and acknowledged delivery keeps the rest scheduled;
* **tuning <= access** -- the tuning time of a completed session never
  exceeds its access time plus the initial probe packet (Eq. 1's
  accounting stays consistent under the extended second tier; the probe
  is charged to tuning but not to elapsed byte-time throughout the
  client stack -- the seed's ``TwoTierClient`` shows the same slack --
  so the physically rigorous inequality is ``tuning - probe <=
  access``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.multichannel import ALLOCATION_POLICIES, allocate_channels
from repro.broadcast.packets import PacketKind
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.broadcast.validate import validate_cycle
from repro.client.twotier import TwoTierClient
from repro.index.sizes import PAPER_SIZE_MODEL
from repro.index.twotier import CHANNEL_ID_BYTES, offset_list_air_bytes
from tests.strategies import document_collections, queries


def _demand_sets_for(doc_ids, rng_ints):
    """A deterministic pseudo-demand map from a list of drawn ints."""
    demand = {}
    for position, doc_id in enumerate(doc_ids):
        queries_for = frozenset(
            rng_ints[(position + j) % len(rng_ints)] % 7 for j in range(3)
        )
        demand[doc_id] = queries_for
    return demand


class TestAllocationProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        document_collections(min_docs=1, max_docs=8),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(ALLOCATION_POLICIES),
        st.lists(st.integers(min_value=0, max_value=1000), min_size=3, max_size=8),
    )
    def test_partition_exactly_once(self, docs, num_channels, policy, rng_ints):
        """Channel queues partition the schedule: each doc on exactly one
        channel exactly once, schedule order preserved within a channel."""
        store = DocumentStore(docs)
        scheduled = [doc.doc_id for doc in docs]
        demand = _demand_sets_for(scheduled, rng_ints)
        allocated = allocate_channels(
            scheduled, store, num_channels, policy=policy, demand_sets=demand
        )
        assert len(allocated) == num_channels
        flat = [doc_id for queue in allocated for doc_id in queue]
        assert sorted(flat) == sorted(scheduled)  # exactly once each
        position = {doc_id: i for i, doc_id in enumerate(scheduled)}
        for queue in allocated:
            order = [position[doc_id] for doc_id in queue]
            assert order == sorted(order)  # schedule order survives

    @settings(max_examples=30, deadline=None)
    @given(
        document_collections(min_docs=1, max_docs=8),
        st.lists(queries(max_steps=3), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(ALLOCATION_POLICIES),
    )
    def test_channel_spans_bounded_by_data_segment(
        self, docs, query_list, num_channels, policy
    ):
        """No channel exceeds the cycle's reserved air-byte span, and the
        longest channel defines it exactly; the full validator passes."""
        server = BroadcastServer(
            DocumentStore(docs),
            num_data_channels=num_channels,
            channel_allocation=policy,
            cycle_data_capacity=2_000,
        )
        admitted = 0
        for query in query_list:
            try:
                server.submit(query, 0)
            except ValueError:
                continue
            admitted += 1
        if not admitted:
            return
        cycle = server.build_cycle()
        assert cycle is not None
        data = cycle.layout.segment(PacketKind.DATA)
        assert data is not None
        assert max(cycle.channel_spans) == data.length
        for span in cycle.channel_spans:
            assert 0 <= span <= data.length
        validate_cycle(cycle, server.store)

    def test_channel_field_elided_only_at_k1(self):
        """The second tier pays one channel byte per entry exactly when
        there is more than one data channel to point into."""
        model = PAPER_SIZE_MODEL
        docs = 2 * model.payload_bytes  # long enough that alignment shows
        single = offset_list_air_bytes(model, docs, num_channels=1)
        assert single == model.packet_aligned_bytes(model.offset_list_bytes(docs))
        for k in (2, 5):
            assert offset_list_air_bytes(
                model, docs, num_channels=k
            ) == model.packet_aligned_bytes(
                model.offset_list_bytes(docs) + docs * CHANNEL_ID_BYTES
            )


class TestClientProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        document_collections(min_docs=3, max_docs=8),
        st.lists(queries(max_steps=3), min_size=1, max_size=4),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(ALLOCATION_POLICIES),
    )
    def test_deferral_terminates(self, docs, query_list, num_channels, policy):
        """Despite cross-channel conflicts every client retrieves all of
        its indexed result documents in finitely many cycles."""
        server = BroadcastServer(
            DocumentStore(docs),
            num_data_channels=num_channels,
            channel_allocation=policy,
            cycle_data_capacity=1_000,
            acknowledged_delivery=True,
        )
        clients = []
        for query in query_list:
            try:
                pending = server.submit(query, 0)
            except ValueError:
                continue
            clients.append((pending, TwoTierClient(query, 0)))
        if not clients:
            return
        cycles = 0
        while server.pending:
            cycle = server.build_cycle()
            assert cycle is not None
            for pending, client in clients:
                if client.satisfied:
                    continue
                client.on_cycle(cycle)
                server.confirm_delivery(pending, client.received_doc_ids, cycle)
            cycles += 1
            assert cycles < 300, "deferral failed to terminate"
        for _pending, client in clients:
            assert client.satisfied
            assert client.received_doc_ids >= client.expected_doc_ids

    @settings(max_examples=15, deadline=None)
    @given(
        document_collections(min_docs=3, max_docs=8),
        st.lists(queries(max_steps=3), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_tuning_at_most_access(self, docs, query_list, num_channels):
        """For every completed session, tuning time <= access time."""
        server = BroadcastServer(
            DocumentStore(docs),
            num_data_channels=num_channels,
            channel_allocation="balanced",
            cycle_data_capacity=1_000,
            acknowledged_delivery=True,
        )
        clients = []
        for query in query_list:
            try:
                pending = server.submit(query, 0)
            except ValueError:
                continue
            clients.append((pending, TwoTierClient(query, 0)))
        if not clients:
            return
        guard = 0
        while server.pending:
            cycle = server.build_cycle()
            assert cycle is not None
            for pending, client in clients:
                if client.satisfied:
                    continue
                client.on_cycle(cycle)
                server.confirm_delivery(pending, client.received_doc_ids, cycle)
            guard += 1
            assert guard < 300
        for _pending, client in clients:
            metrics = client.metrics
            assert metrics.completion_time is not None
            # Everything after the probe is listened inside the elapsed
            # window: per cycle, the selective first-tier read, the full
            # offset read and the downloaded documents occupy disjoint
            # byte-time intervals of that cycle, and completion stamps
            # the last document's end.  The probe packet alone is charged
            # outside elapsed time (same accounting as TwoTierClient).
            assert (
                metrics.tuning_bytes - metrics.probe_bytes
                <= metrics.access_bytes
            )
