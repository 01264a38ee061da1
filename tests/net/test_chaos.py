"""The pure half of the chaos harness: schedules and safety audits.

No processes are forked here -- determinism of the fault schedule and
the journal accounting invariants are plain-data properties, which is
exactly why :func:`build_chaos_schedule` is separate from
:class:`ChaosController` (the live half runs under ``-m cluster`` in
``test_chaos_cluster.py``).
"""

from __future__ import annotations

import pytest

from repro.net.chaos import (
    ChaosAction,
    ChaosSchedule,
    ChaosViolation,
    assert_recovery,
    audit_journal,
    build_chaos_schedule,
)
from repro.tools.persist import JournalEntry, QueryJournal


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = build_chaos_schedule(4, 30.0, seed=11, extra_actions=6)
        b = build_chaos_schedule(4, 30.0, seed=11, extra_actions=6)
        assert a == b

    def test_different_seed_different_schedule(self):
        a = build_chaos_schedule(4, 30.0, seed=11, extra_actions=6)
        b = build_chaos_schedule(4, 30.0, seed=12, extra_actions=6)
        assert a != b

    def test_every_shard_is_killed_at_least_once(self):
        schedule = build_chaos_schedule(5, 20.0, seed=3)
        for shard in range(5):
            kills = [
                a for a in schedule.actions if a.shard == shard and a.kind == "kill"
            ]
            assert len(kills) >= 1

    def test_kills_land_in_the_middle_band(self):
        """Early enough to recover under load, late enough to have
        admitted work to lose."""
        schedule = build_chaos_schedule(3, 10.0, seed=7, kills_per_shard=2)
        for action in schedule.actions:
            assert 0.2 * 10.0 <= action.at_s <= 0.8 * 10.0

    def test_actions_sorted_by_time(self):
        schedule = build_chaos_schedule(4, 30.0, seed=9, extra_actions=8)
        times = [a.at_s for a in schedule.actions]
        assert times == sorted(times)

    def test_describe_counts_kinds(self):
        schedule = build_chaos_schedule(2, 10.0, seed=1, extra_actions=3)
        described = schedule.describe()
        assert described["kinds"]["kill"] == 2
        assert sum(described["kinds"].values()) == len(schedule.actions)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_chaos_schedule(0, 10.0)
        with pytest.raises(ValueError):
            build_chaos_schedule(2, 0.0)
        with pytest.raises(ValueError):
            build_chaos_schedule(2, 10.0, kills_per_shard=0)
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosAction(at_s=1.0, kind="meteor", shard=0)
        with pytest.raises(ValueError):
            ChaosAction(at_s=-1.0, kind="kill", shard=0)

    def test_schedule_is_frozen(self):
        schedule = ChaosSchedule(seed=1, horizon_s=5.0)
        with pytest.raises(Exception):
            schedule.seed = 2  # type: ignore[misc]


class TestSafetyAudit:
    def _write(self, path, records):
        journal = QueryJournal(path)
        journal.open()
        for record in records:
            kind, args = record[0], record[1:]
            getattr(journal, f"record_{kind}")(*args[:-1], **args[-1])
        journal.close()
        return path

    def test_clean_journal_passes(self, tmp_path):
        path = self._write(
            tmp_path / "a.journal",
            [
                ("admit", 1, "//a", 0, {"client_key": 5}),
                ("admit", 2, "//b", 10, {"client_key": 6}),
                ("done", 1, {}),
                ("done", 2, {}),
            ],
        )
        audits = assert_recovery([path])
        assert audits[0]["outstanding"] == 0
        assert audits[0]["duplicate_admits"] == []

    def test_lost_query_raises(self, tmp_path):
        path = self._write(
            tmp_path / "a.journal",
            [
                ("admit", 1, "//a", 0, {"client_key": 5}),
                ("admit", 2, "//b", 10, {"client_key": 6}),
                ("done", 1, {}),
            ],
        )
        with pytest.raises(ChaosViolation, match="never\\s+satisfied"):
            assert_recovery([path])

    def test_duplicate_admit_within_epoch_raises(self, tmp_path):
        path = self._write(
            tmp_path / "a.journal",
            [
                ("admit", 1, "//a", 0, {"client_key": 5}),
                ("admit", 2, "//a", 0, {"client_key": 5}),
                ("done", 1, {}),
                ("done", 2, {}),
            ],
        )
        with pytest.raises(ChaosViolation, match="duplicate admissions"):
            assert_recovery([path])

    def test_readmission_across_epochs_is_not_a_duplicate(self, tmp_path):
        """Crash resume legitimately re-admits the same (key, query)
        under the next epoch -- that must not trip the audit."""
        path = self._write(
            tmp_path / "a.journal",
            [
                ("admit", 1, "//a", 0, {"client_key": 5}),
                ("admit", 7, "//a", 0, {"client_key": 5, "epoch": 1}),
                ("done", 1, {}),
                ("done", 7, {}),
            ],
        )
        audits = assert_recovery([path])
        assert audits[0]["duplicate_admits"] == []

    def test_keyless_admits_never_count_as_duplicates(self, tmp_path):
        """Two anonymous clients may submit the same query text."""
        path = self._write(
            tmp_path / "a.journal",
            [
                ("admit", 1, "//a", 0, {}),
                ("admit", 2, "//a", 0, {}),
                ("done", 1, {}),
                ("done", 2, {}),
            ],
        )
        assert assert_recovery([path])[0]["duplicate_admits"] == []

    def test_audit_reports_epoch_sections(self, tmp_path):
        journal = QueryJournal(tmp_path / "a.journal")
        journal.open()
        journal.record_admit(1, "//a", 0, client_key=5)
        journal.close()
        compacting = QueryJournal(journal.path)
        assert len(journal.load().outstanding) == 1
        # the replay re-admitted it as query 9; compaction records that
        compacting.compact(
            [JournalEntry(9, "//a", 0, client_key=5, epoch=1)], epoch=1
        )
        compacting.open()
        compacting.record_done(9)
        compacting.close()
        audit = audit_journal(journal.path)
        assert audit["resumes"] == 1
        assert audit["outstanding"] == 0

    def test_missing_journal_audits_empty(self, tmp_path):
        audit = audit_journal(tmp_path / "never.journal")
        assert audit["admits"] == 0 and audit["outstanding"] == 0
