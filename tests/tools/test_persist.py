"""Tests for collection/workload persistence."""

from __future__ import annotations

import dataclasses
import json
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tools.persist import (
    JournalEntry,
    QueryJournal,
    load_collection,
    load_journal,
    load_workload,
    save_collection,
    save_workload,
)
from repro.xpath.parser import parse_query


class TestCollectionPersistence:
    def test_round_trip(self, tmp_path, nitf_docs):
        subset = nitf_docs[:6]
        save_collection(subset, tmp_path / "coll")
        loaded = load_collection(tmp_path / "coll")
        assert len(loaded) == len(subset)
        for original, restored in zip(subset, loaded):
            assert restored.doc_id == original.doc_id
            assert restored.root.structurally_equal(original.root)

    def test_sizes_preserved(self, tmp_path, nitf_docs):
        subset = nitf_docs[:3]
        save_collection(subset, tmp_path / "coll")
        loaded = load_collection(tmp_path / "coll")
        for original, restored in zip(subset, loaded):
            assert restored.size_bytes == original.size_bytes

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_collection([], tmp_path / "coll")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "coll").mkdir()
        with pytest.raises(FileNotFoundError):
            load_collection(tmp_path / "coll")

    def test_bad_format_version(self, tmp_path, nitf_docs):
        directory = save_collection(nitf_docs[:1], tmp_path / "coll")
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format"] = 99
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_collection(directory)

    def test_duplicate_ids_rejected(self, tmp_path, nitf_docs):
        directory = save_collection(nitf_docs[:2], tmp_path / "coll")
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["documents"][1]["doc_id"] = manifest["documents"][0]["doc_id"]
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="repeats"):
            load_collection(directory)

    def test_loaded_collection_drives_the_pipeline(self, tmp_path, nitf_docs):
        """Persistence is useful only if a loaded collection behaves
        exactly like the original one end to end."""
        from repro.broadcast.server import BroadcastServer, DocumentStore
        from repro.xpath.generator import generate_workload

        subset = nitf_docs[:10]
        save_collection(subset, tmp_path / "coll")
        loaded = load_collection(tmp_path / "coll")
        queries = generate_workload(subset, 5, seed=3)
        original_server = BroadcastServer(DocumentStore(subset))
        loaded_server = BroadcastServer(DocumentStore(loaded))
        for query in queries:
            assert original_server.resolve(query) == loaded_server.resolve(query)


def _write_manifest(directory, manifest) -> None:
    (directory / "manifest.json").write_text(json.dumps(manifest))


class TestHostileManifest:
    """Regression: ``load_collection`` trusted its manifest.  A list
    manifest raised ``AttributeError``, a missing key ``KeyError``, a
    wrong type ``TypeError``; ``true`` passed as a doc id and as the
    format; ``"../x"`` read outside the directory; and doc id 70000
    loaded, then killed ``serve`` at the first cycle that aired it."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: [m],
            lambda m: {"format": 1},
            lambda m: {**m, "documents": 5},
            lambda m: {**m, "format": True},
            lambda m: {**m, "documents": [{"file": "doc-00000.xml"}]},
            lambda m: {**m, "documents": [{"doc_id": "x", "file": "doc-00000.xml"}]},
            lambda m: {**m, "documents": [{"doc_id": True, "file": "doc-00000.xml"}]},
            lambda m: {**m, "documents": [{"doc_id": 70000, "file": "doc-00000.xml"}]},
            lambda m: {**m, "documents": [{"doc_id": 0, "file": "../outside.xml"}]},
        ],
        ids=[
            "list", "no-documents", "documents-int", "format-true", "no-doc-id",
            "doc-id-str", "doc-id-true", "doc-id-70000", "file-outside",
        ],
    )
    def test_malformed_manifest_is_a_located_value_error(
        self, tmp_path, nitf_docs, mutate
    ):
        directory = save_collection(nitf_docs[:1], tmp_path / "coll")
        (tmp_path / "outside.xml").write_text(
            (directory / "doc-00000.xml").read_text()
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        _write_manifest(directory, mutate(manifest))
        with pytest.raises(ValueError, match=re.escape(str(directory / "manifest.json"))):
            load_collection(directory)

    @given(st.data())
    def test_only_a_collection_or_value_error(self, tmp_path_factory, nitf_docs, data):
        directory = save_collection(nitf_docs[:2], tmp_path_factory.mktemp("fuzz") / "c")
        (directory.parent / "outside.xml").write_text(
            (directory / "doc-00000.xml").read_text()
        )
        wrong = st.one_of(
            st.none(), st.booleans(), st.integers(-2, 70_000), st.floats(allow_nan=False),
            st.sampled_from(["doc-00001.xml", "../outside.xml", "/", "", ".", "x\x00"]),
            st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            entries = manifest.get("documents") if isinstance(manifest, dict) else None
            if isinstance(entries, list) and entries and isinstance(entries[0], dict) and data.draw(st.booleans()):
                entry = data.draw(st.sampled_from(entries))
                key = data.draw(st.sampled_from(["doc_id", "file", "name"]))
                if data.draw(st.booleans()):
                    entry[key] = data.draw(wrong)
                else:
                    entry.pop(key, None)
            elif isinstance(manifest, dict):
                manifest[data.draw(st.sampled_from(["format", "documents"]))] = data.draw(wrong)
            else:
                manifest = data.draw(wrong)
        _write_manifest(directory, manifest)
        try:
            documents = load_collection(directory)
        except ValueError as exc:
            assert str(exc).startswith(str(directory / "manifest.json")), exc
            return
        for doc in documents:
            assert type(doc.doc_id) is int and 0 <= doc.doc_id <= 0xFFFF
            assert isinstance(doc.name, str)


class TestDaemonBoot:
    """The persisted artifacts are exactly what ``repro serve`` loads at
    startup: a saved collection plus a saved workload must boot a live
    daemon whose broadcast equals one built from the originals."""

    def test_daemon_boots_from_persisted_artifacts(
        self, tmp_path, nitf_docs, nitf_queries
    ):
        import asyncio

        from repro.broadcast.program import program_signature
        from repro.broadcast.server import DocumentStore
        from repro.net import BroadcastDaemon, DaemonConfig
        from repro.sim.config import small_setup
        from repro.sim.simulation import make_server

        subset = nitf_docs[:12]
        queries = nitf_queries[:6]
        save_collection(subset, tmp_path / "coll")
        save_workload(queries, tmp_path / "workload.txt")
        loaded_docs = load_collection(tmp_path / "coll")
        loaded_queries = load_workload(tmp_path / "workload.txt")
        config = small_setup(document_count=12)

        async def boot():
            daemon = BroadcastDaemon(
                DocumentStore(loaded_docs, config.size_model),
                config,
                DaemonConfig(autostart=False),
            )
            await daemon.start()
            try:
                return daemon.preload(loaded_queries), daemon.server
            finally:
                daemon.request_stop()
                await daemon.wait_done()

        admitted, loaded_server = asyncio.run(asyncio.wait_for(boot(), 60))

        # Same admissions and a byte-identical first cycle as a server
        # fed the in-memory originals.
        reference = make_server(config, DocumentStore(subset, config.size_model))
        expected = 0
        for query in queries:
            try:
                reference.submit(query, 0)
            except ValueError:
                continue
            expected += 1
        assert admitted == expected
        assert admitted >= 1
        assert program_signature(loaded_server.build_cycle()) == program_signature(
            reference.build_cycle()
        )


class TestWorkloadPersistence:
    def test_round_trip(self, tmp_path, nitf_queries):
        path = save_workload(nitf_queries, tmp_path / "workload.txt")
        loaded = load_workload(path)
        assert [str(q) for q in loaded] == [str(q) for q in nitf_queries]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# header\n\n/a/b\n  \n//c\n")
        loaded = load_workload(path)
        assert [str(q) for q in loaded] == ["/a/b", "//c"]

    def test_predicates_survive(self, tmp_path):
        queries = [parse_query('/a/b[@id="7"][c]')]
        path = save_workload(queries, tmp_path / "w.txt")
        assert [str(q) for q in load_workload(path)] == [str(queries[0])]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("/a/b\nnot-a-query\n")
        with pytest.raises(ValueError, match=":2:"):
            load_workload(path)


class TestQueryJournal:
    """The write-ahead journal behind the daemon's crash-resume path."""

    def _journal(self, tmp_path) -> QueryJournal:
        return QueryJournal(tmp_path / "shard.journal")

    def test_admit_done_roundtrip(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.open()
        journal.record_admit(1, "//nitf", 0, client_key=7)
        journal.record_admit(2, "//head", 40, client_key=8)
        journal.record_done(1)
        journal.close()
        state = load_journal(journal.path)
        assert [e.query_id for e in state.admits] == [1, 2]
        assert state.done_ids == [1]
        assert [e.query_id for e in state.outstanding] == [2]
        assert state.outstanding[0].query == "//head"
        assert state.outstanding[0].arrival == 40
        assert state.outstanding[0].client_key == 8
        assert not state.torn_tail

    def test_missing_file_is_empty_state(self, tmp_path):
        state = load_journal(tmp_path / "never-written.journal")
        assert state.admits == [] and state.outstanding == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.open()
        journal.record_admit(1, "//nitf", 0)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as f:
            f.write('{"kind": "admit", "query_id": 2, "qu')  # killed mid-write
        state = load_journal(journal.path)
        assert state.torn_tail
        assert [e.query_id for e in state.admits] == [1]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.open()
        journal.record_admit(1, "//nitf", 0)
        journal.close()
        text = journal.path.read_text()
        lines = text.splitlines()
        lines.insert(1, "garbage not json")
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            load_journal(journal.path)

    def test_compact_then_reopen_starts_fresh_epoch(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.open()
        journal.record_admit(1, "//nitf", 0, client_key=7)
        journal.record_admit(2, "//head", 40, client_key=8)
        journal.record_done(1)
        journal.close()
        outstanding = load_journal(journal.path).outstanding

        # The daemon re-admits first (new ids, new epoch) and compacts
        # once, so no instant has a journal without the outstanding query.
        fresh = QueryJournal(journal.path)
        fresh.compact(
            [
                dataclasses.replace(entry, query_id=10 + i, epoch=1)
                for i, entry in enumerate(outstanding)
            ],
            epoch=1,
        )
        assert [e.query_id for e in load_journal(journal.path).outstanding] == [10]
        fresh.open()
        fresh.record_done(10)
        fresh.close()
        state = load_journal(journal.path)
        assert state.resumes == 1
        # the compaction cleared pre-crash admits; only epoch-1 remain
        assert [e.epoch for e in state.admits] == [1]
        assert state.outstanding == []

    def test_compact_after_open_refused(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.open()
        with pytest.raises(RuntimeError, match="compact before open"):
            journal.compact([], epoch=1)
        journal.close()

    def test_append_requires_open(self, tmp_path):
        journal = self._journal(tmp_path)
        with pytest.raises(RuntimeError, match="not open"):
            journal.record_done(1)

    def test_admit_counts_span_epochs(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.open()
        journal.record_admit(1, "//nitf", 0, client_key=7)
        journal.record_admit(2, "//nitf", 0, client_key=7, epoch=1)
        journal.close()
        counts = Counter(
            (e.client_key, e.query) for e in load_journal(journal.path).admits
        )
        assert counts[(7, "//nitf")] == 2

    def test_entries_are_frozen(self):
        entry = JournalEntry(1, "//a", 0)
        with pytest.raises(Exception):
            entry.query_id = 2  # type: ignore[misc]


# --------------------------------------------------------------------------
# hostile journal bytes (ROADMAP 4b): ValueError with path:line, or nothing


def _line(**record) -> str:
    return json.dumps(record, separators=(",", ":"))


HEADER = _line(kind="journal", format=1)


class TestHostileJournal:
    @pytest.mark.parametrize(
        "bad",
        [
            '{"kind":"admit","query":"//a","arrival":0}',  # was a KeyError
            "[1,2]",  # was an AttributeError
            '{"kind":"admit","query_id":1,"query":"//a","arrival":null}',  # TypeError
            '{"kind":"done","query_id":[1]}',  # TypeError
            '{"kind":"admit","query_id":true,"query":"//a","arrival":0}',
            '{"kind":"admit","query_id":1,"query":7,"arrival":0}',
            '{"kind":"journal","format":99}',
            '{"kind":"journal"}',
            '{"kind":"bogus"}',
            '"admit"',
        ],
    )
    def test_malformed_middle_line_is_a_located_value_error(self, tmp_path, bad):
        """Regression: these took the worker down at boot with a bare
        KeyError / AttributeError / TypeError traceback."""
        path = tmp_path / "shard.journal"
        good = _line(kind="admit", query_id=1, query="//a", arrival=0, client_key=3)
        path.write_text("\n".join([HEADER, good, bad, good]) + "\n")
        with pytest.raises(ValueError, match=r"shard\.journal:3: "):
            load_journal(path)


_ints = st.integers(-5, 40)
_records = st.one_of(
    st.builds(
        lambda q, text, at, key, epoch: dict(
            kind="admit", query_id=q, query=text, arrival=at, client_key=key, epoch=epoch
        ),
        _ints,
        st.sampled_from(["//a", "//a/b", "/c"]),
        _ints,
        st.none() | _ints,
        st.integers(0, 3),  # cross-epoch admits included
    ),
    st.builds(lambda q: dict(kind="done", query_id=q), _ints),
    st.builds(lambda e, n: dict(kind="resume", epoch=e, replayed=n), _ints, _ints),
)
_wrong = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(_ints, max_size=2), st.dictionaries(st.text(max_size=2), _ints, max_size=1),
)


@st.composite
def _mutated_journals(draw):
    """(lines, mutated): a valid journal, then maybe dropped, duplicated
    or reordered lines, wrong-typed or missing fields, a non-record line."""
    records = [dict(kind="journal", format=1)] + draw(st.lists(_records, max_size=12))
    mutations = draw(st.integers(0, 3))
    for _ in range(mutations):
        at = draw(st.integers(0, len(records) - 1))
        how = draw(st.integers(0, 5))
        if how == 0 and len(records) > 1:
            del records[at]
        elif how == 1:
            records.insert(draw(st.integers(0, len(records))), records[at])
        elif how == 2:
            records.insert(draw(st.integers(0, len(records) - 1)), records.pop(at))
        elif how == 3 and isinstance(records[at], dict):
            field = draw(st.sampled_from(sorted(records[at])))
            records[at] = {**records[at], field: draw(_wrong)}
        elif how == 4 and isinstance(records[at], dict):
            gone = draw(st.sampled_from(sorted(records[at])))
            records[at] = {k: v for k, v in records[at].items() if k != gone}
        else:
            records[at] = draw(st.sampled_from(["[1,2]", "7", '"x"', "null", "{", "\x00"]))
    lines = [r if isinstance(r, str) else _line(**r) for r in records]
    return lines, mutations > 0


def _owed(state):
    return [dataclasses.astuple(entry) for entry in state.outstanding]


class TestJournalFuzz:
    @given(_mutated_journals(), st.integers(0, 60))
    def test_only_value_error_escapes_and_a_torn_tail_is_tolerated(
        self, tmp_path_factory, journal, cut
    ):
        lines, mutated = journal
        path = tmp_path_factory.mktemp("fuzz") / "shard.journal"
        path.write_text("\n".join(lines) + "\n")
        try:
            whole = load_journal(path)
        except ValueError as exc:
            assert mutated, f"a valid journal was refused: {exc}"
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
            return
        # Killed mid-write: the last record is cut short.  The load must
        # still succeed, and owes what the journal owed without that record.
        last = lines[-1]
        torn = last[: 1 + cut % (len(last) - 1)] if len(last) > 1 else last
        path.write_text("\n".join(lines[:-1] + [torn]))
        state = load_journal(path)
        if torn != last:
            assert state.torn_tail
            path.write_text("\n".join(lines[:-1]) + "\n")
            assert _owed(state) == _owed(load_journal(path))
        else:
            assert _owed(state) == _owed(whole)

    @given(_mutated_journals())
    def test_load_replay_compact_load_is_idempotent(self, tmp_path_factory, journal):
        lines, _ = journal
        path = tmp_path_factory.mktemp("fuzz") / "shard.journal"
        path.write_text("\n".join(lines) + "\n")
        try:
            owed = load_journal(path).outstanding
        except ValueError:
            return
        # the replay re-admits each owed entry under a fresh id and epoch
        replayed = [
            dataclasses.replace(entry, query_id=100 + i, epoch=9)
            for i, entry in enumerate(owed)
        ]
        for _ in range(2):
            QueryJournal(path).compact(replayed, epoch=9)
            state = load_journal(path)
            assert state.outstanding == replayed
            assert state.resumes == 1 and not state.torn_tail
