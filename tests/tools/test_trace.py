"""Tests for broadcast-trace export and analysis."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.report import report_from_trace
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.tools.trace import export_query_traces, export_trace, load_trace


@pytest.fixture(scope="module")
def run_result():
    return run_simulation(small_setup())


@pytest.fixture(scope="module")
def observed_run_result():
    from repro import obs

    with obs.observed():
        return run_simulation(small_setup())


def _minimal_lines():
    """A hand-written format-3 trace of an unobserved run (no phase data)."""
    return [
        json.dumps(
            {
                "kind": "meta",
                "format": 3,
                "collection_bytes": 1000,
                "document_count": 3,
                "completed": True,
            }
        ),
        json.dumps(
            {
                "kind": "cycle",
                "cycle": 1,
                "start": 0,
                "total_bytes": 500,
                "data_bytes": 400,
                "doc_count": 3,
                "pending": 2,
                "ci_bytes": 60,
                "pci_bytes": 40,
                "first_tier_bytes": 20,
                "offset_list_bytes": 30,
            }
        ),
        json.dumps(
            {
                "kind": "client",
                "query": "/a/b",
                "protocol": "two-tier",
                "arrival": 0,
                "result_docs": 1,
                "cycles": 2,
                "probe_bytes": 5,
                "index_bytes": 15,
                "offset_bytes": 5,
                "doc_bytes": 100,
                "index_lookup_bytes": 25,
                "tuning_bytes": 125,
                "access_bytes": 500,
            }
        ),
    ]


class TestExportAndLoad:
    def test_round_trip(self, tmp_path, run_result):
        path = export_trace(run_result, tmp_path / "run.jsonl")
        records = load_trace(path)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "meta"
        assert kinds.count("cycle") == len(run_result.cycles)
        assert kinds.count("client") == len(run_result.clients)

    def test_meta_fields(self, tmp_path, run_result):
        path = export_trace(run_result, tmp_path / "run.jsonl")
        meta = load_trace(path)[0]
        assert meta["collection_bytes"] == run_result.collection_bytes
        assert meta["completed"] == run_result.completed

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "format": 3}\nnot json\n')
        with pytest.raises(ValueError, match="bad JSON"):
            load_trace(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "cycle"}\n')
        with pytest.raises(ValueError, match="meta"):
            load_trace(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "format": 42}\n')
        with pytest.raises(ValueError, match="format"):
            load_trace(path)


class TestFormatV2:
    def test_observed_round_trip_carries_phases_and_metrics(
        self, tmp_path, observed_run_result
    ):
        path = export_trace(observed_run_result, tmp_path / "v2.jsonl")
        records = load_trace(path)
        # The writer stamps the current format (v3); the v2 observability
        # records it introduced are unchanged.
        assert records[0]["format"] == 3
        cycles = [r for r in records if r["kind"] == "cycle"]
        assert all("phase_seconds" in c for c in cycles)
        assert "prune_to_pci" in cycles[0]["phase_seconds"]
        metrics = [r for r in records if r["kind"] == "metrics"]
        assert len(metrics) == 1
        assert "spans" in metrics[0]["snapshot"]

    def test_v2_summary_aggregates_phases(self, tmp_path, observed_run_result):
        path = export_trace(observed_run_result, tmp_path / "v2.jsonl")
        report = report_from_trace(load_trace(path))
        expected = sum(
            c.phase_seconds.get("prune_to_pci", 0.0)
            for c in observed_run_result.cycles
        )
        prune = report.phases["server.prune_to_pci"]
        assert prune["total_seconds"] == pytest.approx(expected)
        snapshot = observed_run_result.metrics
        assert report.phases == snapshot["spans"]
        assert report.counters == snapshot["counters"]

    def test_unobserved_export_omits_observability_records(
        self, tmp_path, run_result
    ):
        path = export_trace(run_result, tmp_path / "plain.jsonl")
        records = load_trace(path)
        assert not any(r["kind"] == "metrics" for r in records)
        assert not any(
            "phase_seconds" in r for r in records if r["kind"] == "cycle"
        )

    def test_client_byte_breakdown_round_trips(self, tmp_path, run_result):
        path = export_trace(run_result, tmp_path / "run.jsonl")
        clients = [r for r in load_trace(path) if r["kind"] == "client"]
        assert sum(c["doc_bytes"] for c in clients) == sum(
            r.doc_bytes for r in run_result.clients
        )
        assert sum(c["probe_bytes"] for c in clients) == sum(
            r.probe_bytes for r in run_result.clients
        )


class TestOldFormats:
    """Formats 1 and 2 were last written before format 3 existed; a trace
    of either is refused with its file and line (migration: re-export)."""

    @staticmethod
    def _with_format(tmp_path, version):
        lines = _minimal_lines()
        meta = json.loads(lines[0])
        meta["format"] = version
        lines[0] = json.dumps(meta)
        path = tmp_path / f"v{version}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_v1_trace_rejected_with_a_located_error(self, tmp_path):
        path = self._with_format(tmp_path, 1)
        message = r"v1\.jsonl:1: unsupported trace format 1 "
        with pytest.raises(ValueError, match=message):
            load_trace(path)

    def test_v2_trace_rejected_with_a_located_error(self, tmp_path):
        path = self._with_format(tmp_path, 2)
        message = r"v2\.jsonl:1: unsupported trace format 2 "
        with pytest.raises(ValueError, match=message):
            load_trace(path)

    def test_current_format_loads_and_summarises(self, tmp_path):
        path = tmp_path / "v3.jsonl"
        path.write_text("\n".join(_minimal_lines()) + "\n")
        report = report_from_trace(load_trace(path))
        assert (report.cycles, report.clients) == (1, 1)
        assert report.bytes["clients"]["two-tier"]["index_lookup"] == 25
        assert report.bytes["pci_mean"] == 40.0
        assert report.phases == {} and report.counters == {}

    def test_bool_format_is_not_format_1(self, tmp_path):
        """JSON ``true`` is a Python bool, and ``True == 1``: the meta
        format must be an int, not merely equal to one."""
        path = self._with_format(tmp_path, True)
        message = r"vTrue\.jsonl:1: unsupported trace format True "
        with pytest.raises(ValueError, match=message):
            load_trace(path)

    def test_client_byte_breakdown_is_required(self, tmp_path):
        lines = _minimal_lines()
        client = json.loads(lines[2])
        del client["doc_bytes"]
        lines[2] = json.dumps(client)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3.*doc_bytes"):
            load_trace(path)


class TestRecordValidation:
    def test_malformed_cycle_record_names_file_and_line(self, tmp_path):
        lines = _minimal_lines()
        lines[1] = json.dumps({"kind": "cycle", "cycle": 1})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2.*cycle record"):
            load_trace(path)

    def test_malformed_client_record_names_file_and_line(self, tmp_path):
        lines = _minimal_lines()
        lines[2] = json.dumps({"kind": "client", "query": "/a"})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3.*client record"):
            load_trace(path)

    def test_missing_keys_are_named(self, tmp_path):
        lines = _minimal_lines()
        lines[2] = json.dumps({"kind": "client", "query": "/a"})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="tuning_bytes"):
            load_trace(path)

    def test_unknown_kind_rejected(self, tmp_path):
        lines = _minimal_lines() + [json.dumps({"kind": "mystery"})]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:4.*unknown record kind"):
            load_trace(path)

    def test_metrics_record_requires_snapshot(self, tmp_path):
        lines = _minimal_lines() + [json.dumps({"kind": "metrics"})]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="snapshot"):
            load_trace(path)

    @pytest.mark.parametrize("kind", [["x"], {"k": 1}], ids=["list", "object"])
    def test_non_string_kind_is_a_located_error(self, tmp_path, kind):
        """An unhashable kind used to escape as ``TypeError`` (and crash
        ``repro stats --trace``) instead of the promised ValueError."""
        lines = _minimal_lines() + [json.dumps({"kind": kind})]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:4: record without a string"):
            load_trace(path)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_KINDS = ("meta", "cycle", "client", "metrics", "query_trace", "event")
#: record-shaped objects: a kind that is often real, plus a mix of the
#: keys the validator looks for and arbitrary ones, with arbitrary values
_records = st.fixed_dictionaries(
    {"kind": st.sampled_from(_KINDS) | _json_values},
    optional={
        name: _json_values
        for name in ("format", "snapshot", "total_bytes", "query", "trace_id", "x")
    },
)
#: at most one line that is not a record: any other JSON, or not JSON
_junk = st.none() | st.tuples(
    st.integers(0, 4), _json_values.map(json.dumps) | st.text(max_size=12)
)


class TestLoaderFuzz:
    # More examples than the profile's 50: the loader is cheap, and the
    # two escapes above each need a well-formed meta line first.
    @settings(max_examples=300)
    @given(
        meta_format=st.just(3) | _json_values,
        records=st.lists(_records.map(json.dumps), max_size=4),
        junk=_junk,
    )
    def test_any_lines_load_or_raise_value_error(
        self, tmp_path_factory, meta_format, records, junk
    ):
        body = list(records)
        if junk is not None:
            body.insert(*junk)
        meta = {
            "kind": "meta",
            "format": meta_format,
            "collection_bytes": 0,
            "document_count": 0,
            "completed": 0,
        }
        path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
        path.write_text("\n".join([json.dumps(meta), *body]) + "\n", encoding="utf-8")
        try:
            records = load_trace(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path))
        else:
            assert records[0]["kind"] == "meta"
            assert type(records[0]["format"]) is int and records[0]["format"] == 3
            assert all(isinstance(r["kind"], str) for r in records)


class TestSummarise:
    def test_matches_result_aggregates(self, tmp_path, run_result):
        """The report of a trace agrees with the simulator's own means."""
        path = export_trace(run_result, tmp_path / "run.jsonl")
        report = report_from_trace(load_trace(path))
        assert report.cycles == len(run_result.cycles)
        assert report.clients == len(run_result.clients)
        for protocol in ("one-tier", "two-tier"):
            sums = report.bytes["clients"][protocol]
            assert sums["index_lookup"] / sums["sessions"] == pytest.approx(
                run_result.mean_index_lookup_bytes(protocol)
            )
        assert report.bytes["pci_mean"] == pytest.approx(run_result.mean_pci_bytes())

    def test_unknown_protocol_lookup(self, tmp_path, run_result):
        path = export_trace(run_result, tmp_path / "run.jsonl")
        report = report_from_trace(load_trace(path))
        assert set(report.bytes["clients"]) == {r.protocol for r in run_result.clients}
        assert "no-such-protocol" not in report.bytes["clients"]


#: sha256 of ``repro simulate --count 30 --queries 10 --capacity 40000
#: --trace t.jsonl`` plus each row's flags: a refactor of the records
#: behind a trace must not move its bytes.  The faulted run schedules
#: differently on Python 3.12 from its seventh cycle on, so it is pinned
#: per version (checked on 3.10, 3.11 and 3.12).
TRACE_GOLDENS = {
    (): "2a9167b016a67908d5094c6fc4ec942e88b4b228b367707f624acb5cdb11e226",
    ("--faults",): (
        "082f2ab8b7ca07167fde4c02ed65a5fe06fe47bf57ac68bda338f4b1f246eca9"
        if sys.version_info >= (3, 12)
        else "0ee481774fd5e35937ccf8914703faf487e18822f43449fc171b6092510d2147"
    ),
    ("--channels", "4", "--allocation", "demand"): (
        "a882bd85bba3d882ab2faeacda3bf5dbe87343e93165814be90646398b4b0e65"
    ),
}


class TestTraceGoldens:
    @pytest.mark.parametrize("flags", list(TRACE_GOLDENS), ids=["k1", "faults", "k4"])
    def test_trace_bytes_are_pinned(self, tmp_path, capsys, flags):
        from repro.__main__ import main

        path = tmp_path / "t.jsonl"
        argv = ["simulate", "--count", "30", "--queries", "10", "--capacity", "40000"]
        assert main([*argv, "--trace", str(path), *flags]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_GOLDENS[flags]


def _query_trace():
    from repro.obs.telemetry import QueryTrace

    return QueryTrace(
        trace_id="t1",
        query="//nitf",
        query_id=0,
        cycle=2,
        submit=1.0,
        admit=1.1,
        build_start=1.5,
        build_end=1.8,
        stream_start=1.8,
        last_doc=2.4,
        received=2.5,
    )


class TestFormatV3:
    def test_export_query_traces_round_trip(self, tmp_path):
        path = export_query_traces(
            [_query_trace()],
            tmp_path / "wire.jsonl",
            collection_bytes=1234,
            document_count=25,
            events=[{"event": "admit", "query_id": 0}],
        )
        records = load_trace(path)
        assert records[0]["format"] == 3
        assert records[0]["collection_bytes"] == 1234
        kinds = [r["kind"] for r in records]
        assert kinds == ["meta", "query_trace", "event"]
        trace = records[1]
        assert trace["trace_id"] == "t1"
        assert trace["components"]["total_seconds"] == pytest.approx(1.5)
        assert records[2]["event"] == "admit"

    def test_accepts_prebuilt_record_dicts(self, tmp_path):
        record = _query_trace().to_record()
        path = export_query_traces([record], tmp_path / "wire.jsonl")
        assert load_trace(path)[1]["query"] == "//nitf"

    def test_query_trace_record_requires_components(self, tmp_path):
        lines = _minimal_lines()
        lines.append(json.dumps({"kind": "query_trace", "trace_id": "t1"}))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="components"):
            load_trace(path)

    def test_event_record_requires_event_key(self, tmp_path):
        lines = _minimal_lines()
        lines.append(json.dumps({"kind": "event", "level": "info"}))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="event record"):
            load_trace(path)

    def test_stats_report_renders_wire_latency(self, tmp_path):
        path = export_query_traces([_query_trace()], tmp_path / "wire.jsonl")
        report = report_from_trace(load_trace(path))
        assert report.wire_latencies[0]["trace_id"] == "t1"
        assert "Wire latency breakdown" in report.render()
