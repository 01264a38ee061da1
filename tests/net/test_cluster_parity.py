"""Keystone cluster differential: sharding changes *where*, never *what*.

Two single-shard reference runs (one independent simulator + daemon per
partition slice) and one 2-shard cluster behind a proxy-mode front door
serve the same per-shard query plans.  Every per-query byte count and
every per-shard cycle signature must be identical: routing through the
cluster tier is invisible in the broadcast itself.

The reference metrics come from the *unchanged* ``Simulation`` over
each shard's sub-collection, so this test transitively anchors the
cluster to the simulator through the same equality
``tests/net/test_parity.py`` pins for the single daemon.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.broadcast.partition import PartitionMap
from repro.broadcast.program import program_signature
from repro.broadcast.server import DocumentStore
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.net.cluster import ClusterConfig, ClusterRouter, WorkerAddress
from repro.sim.config import small_setup
from repro.sim.simulation import Simulation, build_collection

NUM_SHARDS = 2
PARTITION_SEED = 5


class RecordingSimulation(Simulation):
    """Capture each emitted cycle's program signature, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.signatures = []

    def _record_cycle(self, cycle):
        self.signatures.append(program_signature(cycle))
        return super()._record_cycle(cycle)


@pytest.fixture(scope="module")
def base_config():
    return small_setup(document_count=48, n_q=6, arrival_cycles=2)


@pytest.fixture(scope="module")
def shard_configs(base_config):
    """One config per shard; distinct query seeds so the shards serve
    genuinely different workloads, not mirrored ones."""
    return [
        base_config.with_(
            num_shards=NUM_SHARDS,
            shard_index=i,
            partition_seed=PARTITION_SEED,
            query_seed=11 + i,
        )
        for i in range(NUM_SHARDS)
    ]


@pytest.fixture(scope="module")
def shard_docs(shard_configs):
    """Each shard's sub-collection (derived from the same full seed)."""
    return [build_collection(config) for config in shard_configs]


@pytest.fixture(scope="module")
def references(shard_configs, shard_docs):
    """Per-shard reference runs of the unchanged simulator."""
    result = []
    for config, docs in zip(shard_configs, shard_docs):
        sim = RecordingSimulation(config, documents=docs)
        sim.run()
        plans = [
            (s.plan.arrival_time, str(s.plan.query)) for s in sim.sessions
        ]
        expected = [
            (
                client.metrics.access_bytes,
                client.metrics.tuning_bytes,
                client.metrics.index_lookup_bytes,
                client.metrics.cycles_listened,
            )
            for session in sim.sessions
            for client in session.clients
            if client.protocol_name == "two-tier"
        ]
        assert len(expected) == len(plans)
        result.append((plans, expected, sim.signatures))
    return result


async def _run_cluster(shard_configs, shard_docs, references):
    """2 sharded daemons behind a proxy front door, scripted replay.

    Returns per-shard (reports, daemon) keyed like the references.
    """
    partition = PartitionMap(NUM_SHARDS, seed=PARTITION_SEED)
    daemons = []
    for config, docs in zip(shard_configs, shard_docs):
        daemon = BroadcastDaemon(
            DocumentStore(docs, config.size_model),
            config,
            DaemonConfig(autostart=False, shard=config.shard_identity),
        )
        await daemon.start()
        daemons.append(daemon)
    router = ClusterRouter(
        partition,
        [WorkerAddress(i, "127.0.0.1", d.port) for i, d in enumerate(daemons)],
        ClusterConfig(),
    )
    await router.start()

    # Shard-pinned clients enter through the front door only; the proxy
    # splice must carry the whole session (uplink replies + downlink
    # cycle stream) transparently.
    by_shard = []
    for shard, (plans, _, _) in enumerate(references):
        by_shard.append(
            [
                AsyncTwoTierClient(
                    query,
                    port=router.port,
                    arrival_time=arrival,
                    shard=shard,
                )
                for arrival, query in plans
            ]
        )
    for clients in by_shard:
        for client in clients:
            await client.connect()
            await client.tune()
    # Submit in plan order per shard: query-id assignment at each worker
    # must match its reference simulator exactly.
    for clients in by_shard:
        for client in clients:
            await client.submit()
    for daemon in daemons:
        daemon.start_broadcast()
    reports = [
        await asyncio.gather(*(c.run_session() for c in clients))
        for clients in by_shard
    ]
    cluster_banners = [
        [client.cluster for client in clients] for clients in by_shard
    ]
    for clients in by_shard:
        for client in clients:
            await client.close()
    await router.stop()
    for daemon in daemons:
        daemon.request_stop()
        await daemon.wait_done()
    return reports, daemons, router, cluster_banners


@pytest.fixture(scope="module")
def cluster_run(shard_configs, shard_docs, references):
    return asyncio.run(
        asyncio.wait_for(
            _run_cluster(shard_configs, shard_docs, references), timeout=300
        )
    )


class TestClusterParity:
    def test_per_shard_metrics_equal_reference(self, references, cluster_run):
        reports, _, _, _ = cluster_run
        for shard, (_, expected, _) in enumerate(references):
            for i, (report, want) in enumerate(
                zip(reports[shard], expected)
            ):
                assert report.satisfied, f"shard {shard} client {i}"
                got = (
                    report.metrics.access_bytes,
                    report.metrics.tuning_bytes,
                    report.metrics.index_lookup_bytes,
                    report.metrics.cycles_listened,
                )
                assert got == want, (
                    f"shard {shard} client {i}: cluster {got} != "
                    f"reference {want}"
                )

    def test_per_shard_cycle_signatures_identical(
        self, references, cluster_run
    ):
        """Byte-identity: every cycle a client decoded through the
        cluster is its shard's reference cycle, signature-for-signature
        from the start of the run (clients tune before cycle 1)."""
        reports, daemons, _, _ = cluster_run
        for shard, (_, _, sim_signatures) in enumerate(references):
            assert daemons[shard].stats.cycles_streamed == len(sim_signatures)
            for report in reports[shard]:
                assert report.signatures, f"shard {shard}: no cycles decoded"
                assert (
                    report.signatures
                    == sim_signatures[: len(report.signatures)]
                )

    def test_cluster_header_advertised_and_verified(self, cluster_run):
        """Every session saw the partition contract (TUNED banner /
        CYCLE_BEGIN header) and the client's placement verification ran
        against it."""
        _, _, _, cluster_banners = cluster_run
        partition = PartitionMap(NUM_SHARDS, seed=PARTITION_SEED)
        for shard, banners in enumerate(cluster_banners):
            assert banners  # both shards actually served sessions
            for banner in banners:
                assert banner is not None
                assert banner["shard"] == shard
                assert banner["num_shards"] == NUM_SHARDS
                assert banner["map"] == partition.describe()

    def test_router_saw_every_session(self, references, cluster_run):
        _, _, router, _ = cluster_run
        total = sum(len(plans) for plans, _, _ in references)
        assert router.stats.proxied_total == total
        for shard, (plans, _, _) in enumerate(references):
            assert router.stats.routed_by_shard[shard] == len(plans)
