"""Idempotent uplink admission: keyed retries never double-admit.

Pins the ``confirm_delivery``/pending interaction: a dedup hit must
return the *existing* :class:`PendingQuery` object with its
``arrival_time`` and satisfaction bookkeeping untouched -- a retried or
duplicated submission must never reset a query's delivery state.
"""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.xpath.parser import parse_query


def make_server(**kwargs):
    from tests.xpath.test_evaluator import paper_documents

    return BroadcastServer(DocumentStore(paper_documents()), **kwargs)


class TestDedup:
    def test_keyed_retry_returns_same_object(self):
        server = make_server()
        query = parse_query("/a//c")
        first = server.submit(query, 10, client_key=1)
        retry = server.submit(query, 999, client_key=1)
        assert retry is first
        assert retry.arrival_time == 10  # never reset by the retry
        assert len(server.pending) == 1
        assert server.admission.dedup_hits == 1

    def test_same_query_different_keys_admit_separately(self):
        server = make_server()
        query = parse_query("/a//c")
        one = server.submit(query, 0, client_key=1)
        two = server.submit(query, 0, client_key=2)
        assert one is not two
        assert len(server.pending) == 2

    def test_unkeyed_submissions_never_dedup(self):
        server = make_server()
        query = parse_query("/a//c")
        one = server.submit(query, 0)
        two = server.submit(query, 0)
        assert one is not two
        assert server.admission.dedup_hits == 0

    def test_duplicate_after_satisfaction_does_not_readmit(self):
        server = make_server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0, client_key=7)
        cycle = server.build_cycle()
        assert cycle is not None
        assert pending.is_satisfied
        assert server.pending == []
        stamped = (pending.satisfied_cycle, pending.satisfied_time)

        late = server.submit(query, cycle.end_time + 5, client_key=7)
        assert late is pending
        assert server.pending == []  # still satisfied, not re-queued
        assert (pending.satisfied_cycle, pending.satisfied_time) == stamped
        assert server.build_cycle() is None  # nothing to broadcast

    def test_dedup_hit_skips_revalidation(self):
        server = make_server()
        query = parse_query("/a//c")
        server.submit(query, 0, client_key=3)
        server.admission.resolutions.clear()
        # A dedup hit must not resolve at all, so a (hypothetically)
        # changed collection cannot reject or alter the admitted query.
        before = dict(server.admission.resolutions)
        server.submit(query, 1, client_key=3)
        assert server.admission.resolutions == before

    def test_batch_mixes_fresh_and_duplicate(self):
        server = make_server()
        qa, qb = parse_query("/a//c"), parse_query("/a/b")
        first = server.submit(qa, 0, client_key=1)
        out = server.submit_batch([qa, qb], 5, client_keys=[1, 2])
        assert out[0].pending is first and out[0].duplicate
        assert out[1].pending.arrival_time == 5 and not out[1].duplicate
        assert len(server.pending) == 2

    def test_client_keys_length_mismatch(self):
        server = make_server()
        with pytest.raises(ValueError, match="one-to-one"):
            server.submit_batch([parse_query("/a")], 0, client_keys=[1, 2])


class TestAckedDeliveryInteraction:
    def test_retry_between_confirms_preserves_remaining(self):
        server = make_server(acknowledged_delivery=True)
        query = parse_query("/a//c")
        pending = server.submit(query, 0, client_key=1)
        cycle = server.build_cycle()
        received = set(list(pending.result_doc_ids)[:2])
        server.confirm_delivery(pending, received, cycle)
        remaining = set(pending.remaining_doc_ids)
        assert remaining  # partially delivered

        dup = server.submit(query, cycle.end_time, client_key=1)
        assert dup is pending
        assert set(pending.remaining_doc_ids) == remaining
        assert pending.arrival_time == 0
