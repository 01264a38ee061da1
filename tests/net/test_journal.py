"""Crash-resume through the write-ahead journal, in one process.

``daemon.abort()`` is the in-process stand-in for ``SIGKILL``: no
drain, no ``SERVER_BYE``, sockets RST, journal left exactly as the
last flushed record put it.  A successor daemon booted on the same
journal (with a bumped ShardIdentity epoch) must rehydrate every
admitted-but-unsatisfied query and nothing else -- the multi-process
version of the same contract lives in ``test_chaos_cluster.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter

import pytest

from repro.broadcast.partition import PartitionMap, ShardIdentity
from repro.broadcast.server import DocumentStore
from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
from repro.net.uplink import parse_reply, round_trip
from repro.sim.config import small_setup
from repro.tools.persist import QueryJournal, load_journal


@pytest.fixture(scope="module")
def store(nitf_docs):
    return DocumentStore(nitf_docs[:30])


@pytest.fixture()
def config():
    return small_setup(document_count=30)


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def _identity(epoch: int = 0) -> ShardIdentity:
    return ShardIdentity(0, PartitionMap(1, seed=0), epoch=epoch)


class TestCrashResume:
    def test_abort_preserves_admitted_queries(self, store, config, tmp_path):
        """Admits journaled pre-ACK survive an abort; dones do not."""
        path = tmp_path / "shard.journal"

        async def crash():
            daemon = BroadcastDaemon(
                store,
                config,
                DaemonConfig(
                    autostart=False,
                    shard=_identity(),
                    journal=QueryJournal(path),
                ),
            )
            await daemon.start()
            ack1 = await round_trip(
                "127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=5 //nitf"
            )
            ack2 = await round_trip(
                "127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=6 //nitf/head"
            )
            assert ack1.startswith("ACK") and ack2.startswith("ACK")
            await daemon.abort()

        _run(crash())
        state = load_journal(path)
        assert [e.query for e in state.outstanding] == ["//nitf", "//nitf/head"]
        assert [e.client_key for e in state.outstanding] == [5, 6]

        async def resume():
            daemon = BroadcastDaemon(
                store,
                config,
                DaemonConfig(
                    autostart=False,
                    shard=_identity(epoch=1),
                    journal=QueryJournal(path),
                ),
            )
            await daemon.start()
            try:
                status = parse_reply(
                    await round_trip("127.0.0.1", daemon.port, "STATUS")
                ).info
                return daemon.journal_replayed, status
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        replayed, status = _run(resume())
        assert replayed == 2
        assert status["pending"] >= 2
        assert status["epoch"] == 1
        assert status["journal_replayed"] == 2
        # the compacted journal re-admitted both under the new epoch
        state = load_journal(path)
        assert state.resumes == 1
        assert all(e.epoch == 1 for e in state.admits)
        assert {e.client_key for e in state.admits} == {5, 6}

    def test_satisfied_queries_are_not_replayed(self, store, config, tmp_path):
        path = tmp_path / "shard.journal"

        async def serve_and_satisfy():
            daemon = BroadcastDaemon(
                store,
                config,
                DaemonConfig(shard=_identity(), journal=QueryJournal(path)),
            )
            await daemon.start()
            try:
                report = await AsyncTwoTierClient(
                    "//nitf", port=daemon.port, client_key=9
                ).run()
                assert report.satisfied
                # the done record trails the cycle that satisfied the
                # query; wait for the broadcast loop to write it
                deadline = asyncio.get_running_loop().time() + 30
                while not load_journal(path).outstanding == []:
                    if asyncio.get_running_loop().time() > deadline:
                        break
                    await asyncio.sleep(0.05)
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        _run(serve_and_satisfy())
        state = load_journal(path)
        assert state.outstanding == []
        assert len(state.admits) == 1 and len(state.done_ids) == 1

        async def reboot():
            daemon = BroadcastDaemon(
                store,
                config,
                DaemonConfig(
                    autostart=False,
                    shard=_identity(epoch=1),
                    journal=QueryJournal(path),
                ),
            )
            await daemon.start()
            try:
                return daemon.journal_replayed
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        assert _run(reboot()) == 0

    def test_unjournaled_daemon_unchanged(self, store, config):
        """No journal configured -> no journal file, no status key."""

        async def body():
            daemon = BroadcastDaemon(
                store, config, DaemonConfig(autostart=False)
            )
            await daemon.start()
            try:
                await round_trip("127.0.0.1", daemon.port, "SUBMIT AT=0 //nitf")
                return parse_reply(
                    await round_trip("127.0.0.1", daemon.port, "STATUS")
                ).info
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        status = _run(body())
        assert "journal_replayed" not in status
        assert status["redelivered"] == 0


class _Kill(BaseException):
    """``SIGKILL`` in one process: no handler on the way up may eat it."""


class TestReplayIsAtomic:
    """Regression: crash-resume compacted the journal to header + marker
    *before* re-admitting what it owed, so a second kill during the
    replay lost acknowledged queries for good."""

    OWED = [(5, "//nitf"), (6, "//nitf/head"), (7, "//body")]

    def _boot(self, store, config, path, *, epoch, kill_at=None, monkeypatch=None):
        """Boot on *path*; ``kill_at`` 1..3 kills inside that replayed
        submit, 4 kills inside the compaction's ``os.replace``."""

        async def body():
            daemon = BroadcastDaemon(
                store,
                config,
                DaemonConfig(
                    autostart=False,
                    shard=_identity(epoch=epoch),
                    journal=QueryJournal(path),
                ),
            )
            submit, calls = daemon.server.submit, []

            def dying_submit(*args, **kwargs):
                calls.append(1)
                if len(calls) == kill_at:
                    raise _Kill
                return submit(*args, **kwargs)

            daemon.server.submit = dying_submit
            if kill_at == 4:
                def dying_replace(src, dst):
                    raise _Kill

                monkeypatch.setattr("repro.tools.persist.os.replace", dying_replace)
            await daemon.start()
            try:
                return daemon.journal_replayed, daemon.stats.admitted_total
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        return _run(body())

    @pytest.mark.parametrize("kill_at", [1, 2, 3, 4])
    def test_kill_during_replay_loses_nothing(
        self, store, config, tmp_path, monkeypatch, kill_at
    ):
        path = tmp_path / "shard.journal"
        crashed = QueryJournal(path)
        crashed.open()
        for query_id, (key, query) in enumerate(self.OWED):
            crashed.record_admit(query_id, query, 0, key)
        crashed.close()

        def owed():
            return [(e.client_key, e.query) for e in load_journal(path).outstanding]

        with pytest.raises(_Kill):
            self._boot(
                store, config, path, epoch=1, kill_at=kill_at, monkeypatch=monkeypatch
            )
        monkeypatch.undo()
        assert owed() == self.OWED, "every acknowledged query is still owed"

        # The next boot admits each (client_key, query) once -- and so
        # does the one after it, from the compacted journal.
        for epoch in (2, 3):
            assert self._boot(store, config, path, epoch=epoch) == (3, 3)
            state = load_journal(path)
            assert owed() == self.OWED
            admits = Counter((e.client_key, e.query) for e in state.admits)
            assert set(admits.values()) == {1}
            assert {e.epoch for e in state.admits} == {epoch}
            assert state.resumes == 1


class TestRedelivery:
    def test_resubmit_after_satisfaction_readmits(self, store, config):
        """A keyed resubmit of an already-satisfied query must not be
        swallowed by the uplink dedup: the daemon forgets the dedup
        entry and re-admits, because the docs it already aired will
        never re-air on their own for a client that missed them."""

        async def body():
            daemon = BroadcastDaemon(store, config, DaemonConfig())
            await daemon.start()
            try:
                report = await AsyncTwoTierClient(
                    "//nitf", port=daemon.port, client_key=11
                ).run()
                assert report.satisfied
                reply = await round_trip(
                    "127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=11 //nitf"
                )
                assert reply.startswith("ACK")
                status = parse_reply(
                    await round_trip("127.0.0.1", daemon.port, "STATUS")
                ).info
                return status
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        status = _run(body())
        assert status["redelivered"] == 1
        assert status["admitted"] == 2

    def test_pending_resubmit_still_dedups(self, store, config):
        """While the original is *unsatisfied*, the dedup holds: same
        key + query -> same query id, no second admission."""

        async def body():
            daemon = BroadcastDaemon(
                store, config, DaemonConfig(autostart=False)
            )
            await daemon.start()
            try:
                first = await round_trip(
                    "127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=3 //nitf"
                )
                second = await round_trip(
                    "127.0.0.1", daemon.port, "SUBMIT AT=0 KEY=3 //nitf"
                )
                status = parse_reply(
                    await round_trip("127.0.0.1", daemon.port, "STATUS")
                ).info
                return first, second, status
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        first, second, status = _run(body())
        assert first.split()[1] == second.split()[1]  # same query id
        assert status["pending"] == 1  # one pending entry, not two
        assert status["redelivered"] == 0


class TestEpochVisibility:
    def test_client_sees_epoch_in_cycle_header(self, store, config):
        async def body():
            daemon = BroadcastDaemon(
                store,
                config,
                DaemonConfig(shard=_identity(epoch=3)),
            )
            await daemon.start()
            try:
                client = AsyncTwoTierClient("//nitf", port=daemon.port)
                report = await client.run()
                assert report.satisfied
                return client.epoch, report.epoch_bumps
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        epoch, bumps = _run(body())
        assert epoch == 3
        assert bumps == 0  # a constant epoch is not a restart
