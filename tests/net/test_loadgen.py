"""The load generator's plans are deterministic and well-formed.

Open-loop comparisons (the scale bench's 1-vs-N ratio) are only valid
when both runs serve the same offered load, so the plan builder's
determinism is pinned: same seed -> byte-identical arrival schedule,
per-session queries and client keys.  The shard-aware properties --
every query matches at least one document of its own shard, plans nest
onto smaller worker counts -- are what keep cluster replays free of
empty-result admission errors.
"""

from __future__ import annotations

import pytest

from repro.broadcast.partition import PartitionMap
from repro.dataguide.roxsum import build_combined_guide
from repro.filtering.nfa import resolve_on_guide
from repro.net.loadgen import build_load_plan
from repro.sim.config import SimulationConfig
from repro.sim.simulation import build_collection
from repro.xpath.parser import parse_query

GRANULARITY = 4
PARTITION_SEED = 3


@pytest.fixture(scope="module")
def documents():
    return build_collection(SimulationConfig(document_count=64))


def _plan(documents, seed=9, rate=None):
    return build_load_plan(
        documents,
        24,
        seed=seed,
        rate=rate,
        granularity=GRANULARITY,
        partition_seed=PARTITION_SEED,
    )


class TestDeterminism:
    def test_same_seed_same_plan(self, documents):
        a = _plan(documents, seed=9, rate=40.0)
        b = _plan(documents, seed=9, rate=40.0)
        assert a == b  # frozen dataclasses: full structural equality
        assert [s.start_s for s in a.sessions] == [
            s.start_s for s in b.sessions
        ]
        assert [s.query for s in a.sessions] == [s.query for s in b.sessions]
        assert [s.client_key for s in a.sessions] == [
            s.client_key for s in b.sessions
        ]

    def test_different_seed_diverges(self, documents):
        a = _plan(documents, seed=9, rate=40.0)
        b = _plan(documents, seed=10, rate=40.0)
        assert a != b
        assert [s.query for s in a.sessions] != [s.query for s in b.sessions]

    def test_client_keys_unique(self, documents):
        plan = _plan(documents)
        keys = [s.client_key for s in plan.sessions]
        assert len(set(keys)) == len(keys)


class TestArrivals:
    def test_flood_mode_all_arrive_at_zero(self, documents):
        plan = _plan(documents, rate=None)
        assert all(s.start_s == 0.0 for s in plan.sessions)

    def test_poisson_arrivals_strictly_increase(self, documents):
        plan = _plan(documents, rate=200.0)
        starts = [s.start_s for s in plan.sessions]
        assert starts == sorted(starts)
        assert all(b > a for a, b in zip(starts, starts[1:]))
        assert starts[0] > 0.0


class TestShardPlacement:
    def test_every_query_matches_its_own_shard(self, documents):
        """The daemon rejects empty-result queries, so each session's
        query must match >= 1 document of the shard it targets."""
        plan = _plan(documents)
        pm = PartitionMap(GRANULARITY, seed=PARTITION_SEED)
        by_shard = pm.partition([d.doc_id for d in documents])
        docs_by_id = {d.doc_id: d for d in documents}
        for spec in plan.sessions:
            shard_docs = [docs_by_id[i] for i in by_shard[spec.shard]]
            [result] = resolve_on_guide(
                build_combined_guide(shard_docs), [parse_query(spec.query)]
            )
            assert result, (
                f"session {spec.index}: query {spec.query!r} matches "
                f"nothing on shard {spec.shard}"
            )

    def test_worker_for_nests_onto_smaller_clusters(self, documents):
        plan = _plan(documents)
        pm4 = PartitionMap(GRANULARITY, seed=PARTITION_SEED)
        pm2 = PartitionMap(2, seed=PARTITION_SEED)
        for spec in plan.sessions:
            assert plan.worker_for(spec, 1) == 0
            assert plan.worker_for(spec, GRANULARITY) == spec.shard
            # the 2-way collapse must agree with the 2-way map itself
            # for every document of the session's 4-way shard
            two = plan.worker_for(spec, 2)
            assert two == spec.shard * 2 // GRANULARITY
            assert two in (0, 1)
        with pytest.raises(ValueError):
            plan.worker_for(plan.sessions[0], 3)

    def test_empty_shard_rejected(self, documents):
        with pytest.raises(ValueError, match="owns no documents|grow"):
            build_load_plan(
                documents[:2], 4, granularity=GRANULARITY, seed=1
            )


class _LateClock:
    """Reads 0.0 once (the run's start), then ``reading``: a session due
    at 0.0 that the event loop starts only once the clock reads 0.5."""

    def __init__(self):
        self.reads = 0
        self.reading = 0.5

    def now(self):
        self.reads += 1
        return 0.0 if self.reads == 1 else self.reading

    async def sleep(self, seconds):  # pragma: no cover - never awaited
        raise AssertionError("run_load paces with the event loop")


class TestRunLoadTiming:
    def test_a_late_start_counts_against_latency(self, monkeypatch):
        """Coordinated omission: stamping a session's start after the
        event loop got to it drops its lateness from ``latencies``."""
        import asyncio

        from repro.net import loadgen

        clock = _LateClock()

        class _Satisfied:
            satisfied = True

        class _InstantClient:
            def __init__(self, *args, **kwargs):
                pass

            async def run(self):
                clock.reading = 1.0  # the session completes at t = 1.0
                return _Satisfied()

        monkeypatch.setattr(loadgen, "AsyncTwoTierClient", _InstantClient)
        plan = loadgen.LoadPlan(
            seed=1, rate=None, granularity=1, partition_seed=0,
            sessions=(loadgen.SessionSpec(0, 0.0, "//nitf", 0, 7),),
        )
        report = asyncio.run(loadgen.run_load(plan, "localhost", 0, clock=clock))
        assert report.satisfied == 1
        assert report.latencies == [1.0]  # due at 0.0, not started at 0.5
