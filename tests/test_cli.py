"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.__main__ import (
    _run_config,
    _simulation_config,
    _worker_argv,
    build_parser,
    main,
)
from repro.control import ControlConfig
from repro.sim.config import SimulationConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


    @pytest.mark.parametrize(
        "argv",
        [
            ["figures"],
            ["simulate", "--no-cache"],
            ["stats", "--no-cache"],
            ["serve", "--workers", "2", "--no-failover"],
        ],
    )
    def test_censused_options_are_gone(self, argv):
        """Knobs nobody turned: the ``figures`` pointer, the ``--no-cache``
        escape hatch (``BroadcastServer(enable_caches=False)`` stays as
        the tests' oracle) and the ``--no-failover`` A/B switch."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestWorkerArgv:
    """``serve --workers N`` hands its flags to worker subprocesses; a
    flag the hand-off forgets silently changes what the cluster serves."""

    @given(
        st.fixed_dictionaries(
            {
                "--dtd": st.sampled_from(["nitf", "nasa", "dblp"]),
                "--count": st.integers(1, 10**4),
                "--seed": st.integers(0, 10**6),
                "--capacity": st.integers(1, 10**7),
                "--scheduler": st.sampled_from(["leelo", "fcfs", "mrf", "rxw"]),
                "--scheme": st.sampled_from(["one-tier", "two-tier"]),
                "--channels": st.integers(1, 4),
                "--allocation": st.sampled_from(["round-robin", "balanced", "demand"]),
                "--k-min": st.integers(1, 4),
                "--k-max": st.integers(4, 8),
                "--hot-set-size": st.integers(0, 16),
                "--max-pending": st.integers(1, 10**4),
                "--log-level": st.sampled_from(["debug", "info", "warning", "error"]),
            }
        ),
        st.booleans(),
    )
    def test_worker_reparses_to_the_front_doors_config(self, flags, adaptive):
        """Regression: the hand-written list dropped ``--adaptive``,
        ``--k-min/--k-max`` and ``--hot-set-size``, so
        ``serve --workers 2 --adaptive`` ran *static* workers."""
        # one-tier is the paper's single static channel
        assume(
            flags["--scheme"] == "two-tier"
            or (flags["--channels"] == 1 and not adaptive)
        )
        argv = ["serve", "--workers", "2"]
        for flag, value in flags.items():
            argv += [flag, str(value)]
        if adaptive:
            argv.append("--adaptive")
        parser = build_parser()
        front = parser.parse_args(argv)
        worker = parser.parse_args(["serve", "--shard", "0/2", *_worker_argv(front)])
        assert _simulation_config(worker) == _simulation_config(front)
        assert _simulation_config(front).adaptive is adaptive
        assert worker.max_pending == front.max_pending
        assert worker.log_level == front.log_level

    def test_optional_flags_travel_only_when_set(self):
        parser = build_parser()
        bare = _worker_argv(parser.parse_args(["serve", "--workers", "2"]))
        for flag in (
            "--workload", "--collection", "--bandwidth", "--max-queries",
            "--log-json", "--adaptive",
        ):
            assert flag not in bare
        full = _worker_argv(
            parser.parse_args(
                [
                    "serve", "--workers", "2", "--workload", "w.txt",
                    "--collection", "docs/", "--bandwidth", "30000.5",
                    "--max-queries", "9", "--log-json",
                ]
            )
        )
        worker = parser.parse_args(["serve", "--shard", "1/2", *full])
        assert worker.workload == "w.txt"  # regression: workers never preloaded
        assert worker.collection == "docs/"
        assert worker.bandwidth == 30000.5
        assert worker.max_queries == 9
        assert worker.log_json is True


class TestGenerate(object):
    def test_writes_documents(self, tmp_path, capsys):
        code = main(
            ["generate", "--count", "4", "--out", str(tmp_path / "coll")]
        )
        assert code == 0
        files = sorted((tmp_path / "coll").glob("*.xml"))
        assert len(files) == 4
        out = capsys.readouterr().out
        assert "4 documents" in out

    def test_written_documents_load_back(self, tmp_path):
        from repro.tools.persist import load_collection

        main(["generate", "--count", "2", "--out", str(tmp_path / "c")])
        documents = load_collection(tmp_path / "c")
        assert len(documents) == 2
        assert all(doc.root.tag == "nitf" for doc in documents)

    def test_nasa_dtd(self, tmp_path):
        main(["generate", "--dtd", "nasa", "--count", "2", "--out", str(tmp_path / "n")])
        from repro.tools.persist import load_collection

        docs = load_collection(tmp_path / "n")
        assert all(doc.root.tag == "dataset" for doc in docs)
        assert all(doc.name.startswith("nasa-") for doc in docs)


class TestWorkload:
    def test_prints_queries(self, capsys):
        code = main(["workload", "--count", "15", "--queries", "5"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 5
        assert all(line.startswith("/") for line in lines)

    def test_depth_flag(self, capsys):
        main(["workload", "--count", "15", "--queries", "8", "--dq", "3"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        from repro.xpath.parser import parse_query

        assert all(parse_query(line).depth <= 3 for line in lines)


#: ``repro index --count 60 --queries 20``, byte for byte, as the
#: collection filter printed it before the guide walk replaced it.
INDEX_GOLDEN = """\
Index sizes (60 docs, 20 queries)
=================================
       structure  nodes   bytes  % of data
------------------------------------------
   CI (one-tier)    548  17,166      5.295
  PCI (one-tier)     30   2,430      0.750
first tier (L_I)     30   1,046      0.323
------------------------------------------
collection: 324,169 bytes; requested docs: 60

"""

#: Predicated queries resolve in two phases; the last one's structural
#: candidates all fail the second.
PREDICATE_WORKLOAD = """\
//body[.//table]
/nitf/body/body-content[media]
/nitf/head[revision-history]/title
//media-reference[@mime-type]
//table[.//nosuch]
"""

#: ``repro index --count 60 --workload`` over :data:`PREDICATE_WORKLOAD`,
#: below the title (which used to print the ``--queries`` default).
PREDICATE_ROWS_GOLDEN = """\
       structure  nodes   bytes  % of data
------------------------------------------
   CI (one-tier)    519  15,090      4.655
  PCI (one-tier)     30   1,986      0.613
first tier (L_I)     30     898      0.277
------------------------------------------
collection: 324,169 bytes; requested docs: 50

"""


class TestIndex:
    def test_prints_size_table(self, capsys):
        code = main(["index", "--count", "30", "--queries", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CI (one-tier)" in out
        assert "first tier (L_I)" in out

    def test_golden_table(self, capsys):
        assert main(["index", "--count", "60", "--queries", "20"]) == 0
        assert capsys.readouterr().out == INDEX_GOLDEN

    def test_predicate_workload_golden_rows(self, tmp_path, capsys):
        workload = tmp_path / "w.txt"
        workload.write_text(PREDICATE_WORKLOAD, encoding="utf-8")
        assert main(["index", "--count", "60", "--workload", str(workload)]) == 0
        rows = capsys.readouterr().out.split("\n", 2)[2]
        assert rows == PREDICATE_ROWS_GOLDEN

    def test_title_counts_the_loaded_inputs(self, tmp_path, capsys):
        """The title counts the documents and queries actually loaded, not
        the ``--count`` / ``--queries`` defaults."""
        workload = tmp_path / "w.txt"
        workload.write_text(PREDICATE_WORKLOAD, encoding="utf-8")
        main(["index", "--count", "60", "--workload", str(workload)])
        assert capsys.readouterr().out.startswith("Index sizes (60 docs, 5 queries)\n")
        main(["generate", "--count", "25", "--out", str(tmp_path / "coll")])
        capsys.readouterr()
        main(["index", "--collection", str(tmp_path / "coll"), "--queries", "5"])
        assert capsys.readouterr().out.startswith("Index sizes (25 docs, 5 queries)\n")


class TestPipelineFlags:
    def test_collection_and_workload_flags(self, tmp_path, capsys):
        main(["generate", "--count", "8", "--out", str(tmp_path / "coll")])
        capsys.readouterr()
        main(
            [
                "workload",
                "--collection", str(tmp_path / "coll"),
                "--queries", "4",
                "--out", str(tmp_path / "w.txt"),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "index",
                "--collection", str(tmp_path / "coll"),
                "--workload", str(tmp_path / "w.txt"),
            ]
        )
        assert code == 0
        assert "CI (one-tier)" in capsys.readouterr().out

    def test_trace_export_flag(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--count", "20",
                "--queries", "5",
                "--capacity", "30000",
                "--trace", str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        from repro.obs.report import report_from_trace
        from repro.tools.trace import load_trace

        report = report_from_trace(load_trace(tmp_path / "t.jsonl"))
        assert report.clients > 0


class TestSimulate:
    def test_summary_table(self, capsys):
        code = main(
            ["simulate", "--count", "30", "--queries", "10", "--capacity", "40000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Simulation summary" in out
        assert "improvement" in out

    def test_lossy_run(self, capsys):
        code = main(
            [
                "simulate",
                "--count", "30",
                "--queries", "10",
                "--capacity", "40000",
                "--loss", "0.001",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement" not in out  # single-protocol mode under loss

    def test_scheduler_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--count", "30",
                "--queries", "10",
                "--capacity", "40000",
                "--scheduler", "fcfs",
            ]
        )
        assert code == 0

    def test_channels_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--count", "30",
                "--queries", "10",
                "--capacity", "40000",
                "--channels", "3",
                "--allocation", "demand",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Simulation summary" in out
        assert "completed" in out

    def test_rejects_bad_allocation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--channels", "2", "--allocation", "random"]
            )


class TestUsageErrors:
    """A flag value that builds no valid configuration, or a dependent
    flag without its parent, is a usage error: exit 2, one ``error:``
    line, no traceback (both used to surface as a raw ``ValueError`` or
    a silently ignored flag)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--channels", "0"],
            ["simulate", "--capacity", "0"],
            ["simulate", "--queries", "0"],
            ["simulate", "--count", "0"],
            ["simulate", "--loss", "1.0"],
            ["simulate", "--scenario", "diurnal", "--scenario-period", "1"],
            ["simulate", "--adaptive", "--k-min", "3", "--k-max", "2"],
            ["stats", "--p", "2"],
        ],
    )
    def test_an_invalid_configuration_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("repro: error: ")

    @pytest.mark.parametrize(
        "flags, parent",
        [
            (["--hot-set-size", "2"], "--adaptive"),
            (["--k-max", "1"], "--adaptive"),
            (["--k-min", "1"], "--adaptive"),
            (["--fault-seed", "3"], "--faults"),
            (["--scenario-intensity", "6"], "--scenario"),
            (["--scenario-period", "3"], "--scenario"),
        ],
    )
    def test_a_dependent_flag_needs_its_parent(self, flags, parent, capsys):
        argv = ["simulate", "--count", "30", "--queries", "10", *flags]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} needs {parent}" in err and "Traceback" not in err

    def test_dependent_flags_default_to_the_configs_defaults(self):
        parser = build_parser()
        bare = parser.parse_args(["simulate", "--adaptive"])
        assert _simulation_config(bare).control_config == ControlConfig()
        assert _run_config(bare).scenario_period == SimulationConfig().scenario_period


STATS_ARGS = ["stats", "--count", "30", "--queries", "10", "--capacity", "40000"]


class TestStats:
    def test_human_report(self, capsys):
        code = main(STATS_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase timings" in out
        assert "Channel bytes" in out
        assert "server.prune_to_pci" in out

    def test_json_report(self, capsys):
        import json

        code = main(STATS_ARGS + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "run"
        assert len(payload["phases"]) >= 6
        assert payload["bytes"]["broadcast_total"] > 0
        assert (
            payload["bytes"]["data_total"] + payload["bytes"]["index_total"]
            == payload["bytes"]["broadcast_total"]
        )

    def test_observability_scope_does_not_leak(self, capsys):
        from repro import obs

        main(STATS_ARGS + ["--json"])
        capsys.readouterr()
        assert not obs.is_enabled()

    def test_trace_mode(self, tmp_path, capsys):
        """A run's report and its own trace's report are one report."""
        import json

        trace = tmp_path / "t.jsonl"
        code = main(STATS_ARGS + ["--json", "--export-trace", str(trace)])
        assert code == 0
        run = json.loads(capsys.readouterr().out)
        code = main(["stats", "--trace", str(trace), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (run.pop("source"), payload.pop("source")) == ("run", "trace")
        assert payload == run
        assert len(payload["phases"]) >= 6

    def test_out_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "perf.json"
        code = main(STATS_ARGS + ["--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["source"] == "run"


def _spawn_daemon(tmp_path, *extra_args):
    """Start ``python -m repro serve`` on an ephemeral port; returns
    (process, port)."""
    port_file = tmp_path / "port.txt"
    # The child resolves ``repro`` the same way this process did: the
    # inherited PYTHONPATH (or an installed package) covers it.
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--count", "25",
            "--capacity", "20000",
            "--port-file", str(port_file),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return process, int(port_file.read_text())
        if process.poll() is not None:
            raise RuntimeError(f"daemon died: {process.stdout.read()}")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError("daemon never wrote its port file")


class TestServeClient:
    def test_serve_client_round_trip(self, tmp_path):
        """One scripted client against a real subprocess daemon."""
        import json

        process, port = _spawn_daemon(tmp_path, "--max-queries", "1")
        try:
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "client", "//nitf",
                    "--port", str(port), "--json",
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            report = json.loads(result.stdout)
            assert report["satisfied"] is True
            assert report["access_bytes"] > 0
            assert report["tuning_bytes"] > 0
            assert report["cycles_verified"] == report["cycles_listened"] >= 1
            # --max-queries 1: the daemon drains by itself after serving.
            out, _ = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "drained:" in out
        finally:
            if process.poll() is None:
                process.kill()

    def test_sigint_drains_cleanly(self, tmp_path):
        """Acceptance: SIGINT mid-run produces a clean drain, not a
        traceback -- pending queries are served, the summary prints."""
        process, port = _spawn_daemon(tmp_path)
        try:
            process.send_signal(signal.SIGINT)
            out, _ = process.communicate(timeout=60)
            assert process.returncode == 0, out
            assert "drained:" in out
            assert "Traceback" not in out
        finally:
            if process.poll() is None:
                process.kill()

    def test_client_parser_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "//nitf"])

    def test_serve_stdout_clean_log_json_and_client_trace(self, tmp_path):
        """Satellites: serve keeps stdout free of progress chatter (the
        structured log goes to stderr, here as JSON lines) and a traced
        client round-trips a v3 wire-trace artifact."""
        import json

        port_file = tmp_path / "port.txt"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--count", "25",
                "--capacity", "20000",
                "--port-file", str(port_file),
                "--max-queries", "1",
                "--log-json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                if process.poll() is not None:
                    raise RuntimeError(
                        f"daemon died: {process.stderr.read()}"
                    )
                time.sleep(0.05)
            port = int(port_file.read_text())
            trace_out = tmp_path / "wire.jsonl"
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "client", "//nitf",
                    "--port", str(port),
                    "--json", "--trace", "--trace-out", str(trace_out),
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            payload = json.loads(result.stdout)
            comp = payload["trace"]["components"]
            assert comp["total_seconds"] == pytest.approx(
                comp["queue_seconds"]
                + comp["build_seconds"]
                + comp["on_air_seconds"]
                + comp["tune_seconds"]
            )
            out, err = process.communicate(timeout=60)
            assert process.returncode == 0
            # stdout carries no progress chatter at all ...
            assert out == ""
            # ... stderr is machine-parseable JSON, one event per line,
            # ending with the drain summary.
            events = [json.loads(line)["event"] for line in err.splitlines()]
            assert "listening" in events
            assert events[-1] == "drained"

            from repro.tools.trace import load_trace

            records = load_trace(trace_out)
            assert records[0]["format"] == 3
            assert any(r["kind"] == "query_trace" for r in records)
        finally:
            if process.poll() is None:
                process.kill()

    def test_docstring_lists_every_subcommand(self):
        """Guard against --help drift: the module docstring documents
        exactly the registered subcommands."""
        import repro.__main__ as cli

        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        for name in subparsers.choices:
            assert f"``{name}``" in cli.__doc__, (
                f"subcommand {name!r} missing from the module docstring"
            )


class TestServeCrash:
    def test_a_crashed_broadcast_loop_is_not_exit_0(self, tmp_path, monkeypatch):
        """Regression: ``repro serve`` logged ``drained`` and exited 0
        after its broadcast loop died on an exception."""
        from repro.broadcast.server import BroadcastServer

        def boom(self, now=None):
            raise RuntimeError("boom in build_cycle")

        monkeypatch.setattr(BroadcastServer, "build_cycle", boom)
        workload = tmp_path / "w.txt"
        workload.write_text("//nitf\n")
        with pytest.raises(RuntimeError, match="boom in build_cycle"):
            main(
                [
                    "serve", "--count", "25", "--capacity", "20000", "--port", "0",
                    "--workload", str(workload), "--log-level", "error",
                ]
            )
