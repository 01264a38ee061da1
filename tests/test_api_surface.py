"""Public API surface checks.

A downstream user imports from ``repro`` (and subpackage ``__init__``s);
these tests pin that every advertised name exists, that ``__all__`` is
accurate, and that the README's quickstart snippet actually runs.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

PACKAGES = [
    "repro",
    "repro.xmlkit",
    "repro.xpath",
    "repro.filtering",
    "repro.dataguide",
    "repro.index",
    "repro.broadcast",
    "repro.client",
    "repro.sim",
    "repro.faults",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.tools",
    "repro.obs",
    "repro.obs.telemetry",
    "repro.net",
    "repro.net.uplink",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", None)
        assert exported, f"{package_name} should define __all__"
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_version_present(self):
        import repro

        assert repro.__version__

    def test_no_duplicate_exports(self):
        import repro

        assert len(repro.__all__) == len(set(repro.__all__))

    def test_client_surface_is_exactly_three_protocols(self):
        """One class per protocol: channel count and channel quality are
        inputs of ``TwoTierClient``, not further clients."""
        import repro.client

        assert set(repro.client.__all__) == {
            "AccessProtocol",
            "ClientMetrics",
            "FirstTierRead",
            "OffsetRead",
            "OneTierClient",
            "TwoTierClient",
            "NaiveClient",
        }

    @pytest.mark.parametrize("variant", ["Lossy", "DualChannel", "MultiChannel"])
    def test_merged_clients_are_gone(self, variant):
        import repro
        import repro.client

        class_name = f"{variant}TwoTierClient"
        module_name = variant.lower()
        assert not hasattr(repro.client, class_name)
        assert not hasattr(repro, class_name)
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.client.{module_name}")

    def test_broadcast_surface_is_exact(self):
        """One cycle class, one program builder: the K-channel twins of
        ``BroadcastCycle`` / ``build_cycle_program`` are gone."""
        import repro.broadcast

        assert set(repro.broadcast.__all__) == {
            "PacketKind",
            "CycleLayout",
            "Scheduler",
            "FCFSScheduler",
            "LeeLoScheduler",
            "MostRequestedFirstScheduler",
            "RxWScheduler",
            "make_scheduler",
            "BroadcastCycle",
            "IndexScheme",
            "build_cycle_program",
            "ALLOCATION_POLICIES",
            "allocate_channels",
            "BroadcastServer",
            "DocumentStore",
            "PartitionMap",
            "PendingQuery",
            "ShardIdentity",
            "LOSSLESS",
            "PacketLossModel",
            "CycleValidationError",
            "validate_cycle",
        }

    @pytest.mark.parametrize(
        "name",
        ["MultiChannelCycle", "ChannelOffsetList", "build_multichannel_program"],
    )
    def test_multichannel_fork_is_gone(self, name):
        import repro
        import repro.broadcast
        import repro.broadcast.multichannel

        for module in (repro, repro.broadcast, repro.broadcast.multichannel):
            assert not hasattr(module, name)
        with pytest.raises(ImportError):
            exec(f"from repro.broadcast import {name}")


class TestUplinkCodec:
    """One module owns the uplink; the inline speakers and the knobs
    nobody turned are gone (migration note: CHANGES.md, PR 17)."""

    def test_uplink_surface_is_exact(self):
        import repro.net.uplink

        assert set(repro.net.uplink.__all__) == {
            "Command", "Verb", "parse_command", "format_command",
            "Ack", "RetryAfter", "Err", "Tuned", "Status", "Bye", "Reply",
            "Timeline",  # PR 18: the pushed trace line, the one addition
            "parse_reply", "format_reply",
            "UplinkSyntaxError", "MAX_LINE_CHARS",
            "serve_connection", "round_trip",
        }

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.net.daemon:BroadcastDaemon", "_check_shard_option"),
            ("repro.net.daemon:BroadcastDaemon", "_record_ack"),
            ("repro.net.daemon:BroadcastDaemon", "_reply"),
            ("repro.net.daemon:BroadcastDaemon", "_restore_obs"),
            ("repro.net.cluster:ClusterRouter", "_shard_for"),
            ("repro.net.cluster:ClusterRouter", "_worker_status"),
            ("repro.net.cluster:ClusterRouter", "_reply"),
            ("repro.net.cluster:ClusterSupervisor", "_heartbeat_once"),
            ("repro.net.client:AsyncTwoTierClient", "_split_trace_echo"),
            ("repro.net.client:AsyncTwoTierClient", "_follow_moved"),
            ("repro.net.client:AsyncTwoTierClient", "_send_recv"),
            ("repro.obs.telemetry.tracing", "TRACE_TOKEN"),
            ("repro.tools", "compare_traces"),
            ("repro.tools", "compare_summaries"),
            ("repro.tools", "TraceComparison"),
            ("repro.tools", "MetricDrift"),
        ],
    )
    def test_inline_speakers_and_compare_tool_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)

    def test_compare_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.tools.compare")

    def test_censused_knobs_are_constants_now(self):
        import dataclasses
        import inspect

        from repro.control.plan import ControlConfig
        from repro.net import ClusterConfig, ClusterSupervisor, DaemonConfig
        from repro.sim.config import SimulationConfig
        from repro.xpath.generator import (
            QueryGenerator,
            QueryWorkloadConfig,
            generate_workload,
        )

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert "seed" not in names(ControlConfig)
        # the query generator's uniform depth mode: nothing selected it
        assert not {"depth_mode", "min_depth"} & names(QueryWorkloadConfig)
        assert "query_depth_mode" not in names(SimulationConfig)
        assert "depth_mode" not in inspect.signature(generate_workload).parameters
        assert not hasattr(QueryGenerator, "_uniform_depth_path")
        assert not {"drain_high_water", "max_buffered_bytes"} & names(DaemonConfig)
        assert not {"connect_backoff", "retry_after_hint"} & names(ClusterConfig)
        assert "server_caches" not in names(SimulationConfig)
        assert not {"stop_timeout", "heartbeat_timeout", "heartbeat_misses"} & set(
            inspect.signature(ClusterSupervisor).parameters
        )


class TestOnePump:
    """One stream loop, trace timelines beside the cycle, and the census
    of things nothing called (migration note: CHANGES.md, PR 18 --
    ``decoder.last_trailer["traces"]`` became the client's pushed
    ``uplink.Timeline``; ``relabel_exposition(text, **labels)`` is
    ``merge_expositions([(labels, text)])``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.net.daemon:BroadcastDaemon", "_stream_bulk"),
            ("repro.net.daemon:BroadcastDaemon", "_stream_paced"),
            ("repro.net.daemon:BroadcastDaemon", "_personal_trailers"),
            ("repro.net.daemon:BroadcastDaemon", "_count_air"),
            ("repro.net.daemon:BroadcastDaemon", "_shutdown"),
            ("repro.obs.telemetry.tracing:QueryTracer", "active"),
            ("repro.tools.persist:QueryJournal", "record_resume"),
            ("repro.obs.telemetry", "relabel_exposition"),
            ("repro.obs.telemetry.exporter", "relabel_exposition"),
            ("repro.broadcast.packets:CycleLayout", "packet_index_at"),
            ("repro.broadcast.packets:CycleLayout", "segment_packets"),
            ("repro.xmlkit.dtd:DTD", "max_label_path_alphabet"),
            ("repro.broadcast.program:BroadcastCycle", "one_tier_index_bytes"),
            ("repro.broadcast.server:DocumentStore", "guides_for"),
            # the same grep found these uncalled and untested too
            ("repro.broadcast.packets", "Packet"),
            ("repro.obs.registry:MetricsRegistry", "active_span"),
            ("repro.obs.registry:NullRegistry", "active_span"),
            ("repro.experiments.figures", "run_all"),
            # one per-cycle record, one report builder (migration table:
            # CHANGES.md -- CycleStats is the server's CycleRecord)
            ("repro.sim", "CycleStats"),
            ("repro.sim.results", "CycleStats"),
            ("repro.tools", "TraceSummary"),
            ("repro.tools", "summarise_trace"),
            ("repro.tools.trace", "TraceSummary"),
            ("repro.tools.trace", "summarise_trace"),
            ("repro.obs.report", "report_from_result"),
            # the engine keeps what the simulator calls
            ("repro.sim", "ScheduledEvent"),
            ("repro.sim.engine", "ScheduledEvent"),
            ("repro.sim.engine:EventQueue", "schedule_in"),
            ("repro.sim.engine:EventQueue", "step"),
            ("repro.sim.engine:EventQueue", "pending_count"),
            ("repro.sim.engine:EventQueue", "is_empty"),
            ("repro.sim.engine:EventQueue", "_prune_cancelled_top"),
            ("repro.sim.engine:EventQueue", "_note_cancellation"),
            ("repro.control.controller", "random"),
        ],
    )
    def test_the_fork_and_the_uncalled_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)

    def test_removed_parameters_and_attributes(self):
        import inspect

        from repro.index.ci import CompactIndex
        from repro.net.wire import CycleDecoder
        from repro.sim.engine import EventQueue

        assert "doc_filter" not in inspect.signature(CompactIndex.from_guide).parameters
        assert not hasattr(CycleDecoder(), "last_trailer")
        queue = EventQueue()
        assert not {"processed", "_cancelled_in_heap"} & set(vars(queue))
        assert list(inspect.signature(queue.run).parameters) == []
        assert list(inspect.signature(queue.schedule).parameters) == [
            "time", "callback", "priority",
        ]

    def test_no_option_was_added(self):
        """The counts the issue fixed before the change."""
        import dataclasses
        import inspect

        from repro.net import (
            AsyncTwoTierClient, BroadcastDaemon, ClusterConfig, DaemonConfig,
        )
        from repro.net.framing import FrameKind
        from repro.net.wire import WIRE_FORMAT_VERSION, CycleDecoder
        from repro.obs.telemetry import QueryTracer, TelemetryConfig

        def fields(cls):
            return len(dataclasses.fields(cls))

        def parameters(cls):
            return len(inspect.signature(cls).parameters)

        # TelemetryConfig 6 and AsyncTwoTierClient 12 until the parameter
        # census (TestEveryKnobHasAUser) made their test-only knobs constants
        assert (fields(DaemonConfig), fields(TelemetryConfig), fields(ClusterConfig)) == (
            10, 4, 11,
        )
        # CycleDecoder 3 until keep_documents went (TestOneCycleBuild)
        assert [
            parameters(c)
            for c in (BroadcastDaemon, AsyncTwoTierClient, CycleDecoder, QueryTracer)
        ] == [3, 9, 2, 1]
        assert len(FrameKind) == 7 and WIRE_FORMAT_VERSION == 2


class TestOneRouterPath:
    """The front door has one data path, the splice (migration table:
    CHANGES.md -- omit ``--redirect`` / ``ClusterConfig(redirect=True)``;
    ``uplink.Moved``, ``router_sessions_moved_total`` and the STATUS
    ``router.moved`` / ``router.mode`` keys have no successor)."""

    def test_the_redirect_reply_and_its_knobs_are_gone(self):
        import dataclasses
        import typing

        from repro.net import uplink
        from repro.net.client import AsyncTwoTierClient
        from repro.net.cluster import ClusterConfig, RouterStats

        assert not hasattr(uplink, "Moved")
        assert len(typing.get_args(uplink.Reply)) == 7
        assert "redirect" not in {f.name for f in dataclasses.fields(ClusterConfig)}
        assert "moved_total" not in {f.name for f in dataclasses.fields(RouterStats)}
        client = AsyncTwoTierClient("/a")
        assert not hasattr(client, "_moved_hops") and not hasattr(client, "_home")

    def test_serve_has_no_redirect_flag(self, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "2", "--redirect"])
        assert "--redirect" in capsys.readouterr().err


class TestOneTableHarness:
    """Every result table is a row of ``benchmarks/bench_tables.py``
    (migration table: CHANGES.md -- ``pytest benchmarks/bench_X.py`` is
    ``pytest benchmarks/bench_tables.py -k X``); each swept extension is
    implemented once, in :mod:`repro.experiments.extensions`."""

    BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

    def test_the_per_table_scripts_are_gone(self):
        scripts = {path.stem for path in self.BENCHMARKS.glob("bench_*.py")}
        assert "bench_tables" in scripts
        assert not {
            name
            for name in scripts
            if name.startswith(("bench_fig", "bench_ablation_", "bench_table2"))
        }
        assert not {
            "bench_cycles_per_query", "bench_ext_energy", "bench_headline_ratios",
            "bench_model_validation", "bench_substrate_scaling",
            "bench_baseline_signature",
        } & scripts

    def test_each_swept_extension_is_implemented_once(self, monkeypatch):
        import importlib.util
        import sys

        from repro.experiments.extensions import ext_energy, ext_loss, ext_skew

        path = self.BENCHMARKS / "bench_tables.py"
        spec = importlib.util.spec_from_file_location("bench_tables", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # for @dataclass
        spec.loader.exec_module(module)
        builds = {table.name: table.build for table in module.TABLES}
        assert len(builds) == len(module.TABLES), "one row per results file"
        assert (builds["ablation_loss"], builds["ablation_skew"], builds["extd"]) == (
            ext_loss, ext_skew, ext_energy,
        )


class TestOneSearch:
    """One index search over one compiled form, and no knob for it
    (migration note: CHANGES.md, PR 19 -- ``index.lookup_with_nfa(nfa)``
    is ``index.lookup(LazyQueryDFA(nfa))``; a client built without a
    ``lookup_fn`` now searches for itself instead of through
    ``default_lookup``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.index.ci:CompactIndex", "lookup_with_nfa"),
            ("repro.client.protocol", "default_lookup"),
            ("repro.broadcast.cycle_cache:CycleBuildCache", "_key_of"),
        ],
    )
    def test_the_second_search_and_the_string_memo_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)

    def test_no_option_was_added(self):
        import dataclasses
        import inspect

        from repro.broadcast.program import BroadcastCycle
        from repro.client import OneTierClient, TwoTierClient
        from repro.filtering.dfa import LazyQueryDFA
        from repro.index.ci import CompactIndex
        from repro.sim.config import SimulationConfig
        from repro.sim.simulation import Simulation

        def parameters(target):
            return list(inspect.signature(target).parameters)

        assert parameters(CompactIndex.lookup) == ["self", "query"]
        assert parameters(BroadcastCycle.lookup) == ["self", "query"]
        assert parameters(LazyQueryDFA) == ["nfa"]
        assert [
            len(parameters(c))
            for c in (CompactIndex, Simulation, OneTierClient, TwoTierClient)
        ] == [5, 3, 3, 7]
        # 30 until query_depth_mode went with the uniform depth mode, 29
        # until the parameter census took packing and validate_cycles
        assert len(dataclasses.fields(SimulationConfig)) == 27

    def test_a_bare_query_is_compiled_afresh_every_search(self, compiles):
        """Compiled queries belong to whoever searches, never to a module
        or class: nothing remembers a query the caller did not keep."""
        from repro.filtering.dfa import LazyQueryDFA
        from repro.index.ci import CompactIndex
        from repro.xpath.parser import parse_query

        index, query = CompactIndex.from_nested(("a", (0,), [])), parse_query("/a")
        assert index.lookup(query) == index.lookup(query)
        assert len(compiles) == 2
        compiled = LazyQueryDFA.from_queries([query])
        assert index.lookup(compiled) == index.lookup(compiled) == index.lookup(query)
        assert len(compiles) == 4


class TestOneIndexForm:
    """The index is one preorder table and nothing is kept beside it
    (migration table: CHANGES.md, PR 21 -- ``index.root.label`` is
    ``index.labels[0]``, ``index.nodes[i].doc_ids`` is
    ``index.doc_ids[i]``, ``CompactIndex(IndexNode(...))`` is
    ``CompactIndex.from_nested(...)``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.index", "IndexNode"),
            ("repro.index", "NodeKind"),
            ("repro.index.nodes", "IndexNode"),
            ("repro.index.nodes", "NodeKind"),
            ("repro.index.nodes", "assign_preorder_ids"),
            ("repro.index.nodes", "validate_tree"),
            ("repro.index.ci:CompactIndex", "node_bytes"),
            ("repro.index.ci:CompactIndex", "_convert"),
            ("repro.index.ci:CompactIndex", "_subtree_form"),
            ("repro.index.pruning", "_Reattached"),
            ("repro.index.pruning", "_prune_node"),
            ("repro.index.pruning", "_collect_for_reattachment"),
            ("repro.index.pruning", "_prune_containment"),
            ("repro.index.encoding", "_encode_node"),
        ],
    )
    def test_the_tree_and_its_helpers_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)

    def test_a_table_has_columns_and_no_tree_beside_them(self):
        from repro.index.ci import CompactIndex

        index = CompactIndex.from_nested(("a", (0,), [("b", (1,), [])]))
        for gone in ("root", "nodes", "_child_counts", "_doc_counts", "_subtree"):
            assert not hasattr(index, gone)
        assert (index.labels, index.doc_ids, list(index.ends), index.children) == (
            ["a", "b"], [(0,), (1,)], [2, 2], [(1,), ()],
        )

    def test_nodes_module_is_the_builder_and_the_flag_convention(self):
        import repro.index.nodes as nodes

        public = {name for name in vars(nodes) if not name.startswith("_")}
        assert public - {"annotations", "array", "List", "Tuple"} == {
            "ROOT_FLAG_VALUE", "flag_value", "RowBuilder",
        }

    def test_no_option_was_added(self):
        import inspect

        from repro.index.ci import CompactIndex
        from repro.index.encoding import decode_index
        from repro.index.nodes import RowBuilder

        def parameters(target):
            return list(inspect.signature(target).parameters)

        assert parameters(CompactIndex) == [
            "rows", "size_model", "virtual_root", "annotation", "validate",
        ]
        assert parameters(decode_index) == [
            "data", "label_table", "one_tier", "size_model", "root_label", "annotation",
        ]
        assert parameters(RowBuilder) == []

    def test_nothing_writes_to_a_table_after_construction(self):
        """``annotation`` was patched onto decoded indexes from outside;
        now the only assignment in ``src`` is the constructor's."""
        import pathlib

        import repro

        writes = [
            f"{path.name}: {line.strip()}"
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
            for line in path.read_text(encoding="utf-8").splitlines()
            if ".annotation = " in line
        ]
        assert writes == ["ci.py: self.annotation = annotation"]


class TestOneResolver:
    """One resolver: every "which documents match this query" question
    walks the combined DataGuide, and ``src`` keeps no code that only
    tests read (migration table: CHANGES.md --
    ``YFilterEngine.from_queries(qs).filter_collection(docs)`` is
    ``resolve_on_guide(build_combined_guide(docs), qs)``, or
    ``PendingIndex.build(store, qs)`` for predicated queries; the moved
    oracles live in ``tests/oracles.py``, ``tests/index/tables.py``,
    ``tests/filtering/viable_prefix.py`` and ``tests/net/test_framing.py``)."""

    def test_filtering_surface_is_exact(self):
        import repro.filtering

        assert set(repro.filtering.__all__) == {
            "SharedPathNFA",
            "resolve_on_guide",
            "LazyQueryDFA",
        }

    @pytest.mark.parametrize("module_name", ["yfilter", "events"])
    def test_the_collection_filter_is_gone(self, module_name):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.filtering.{module_name}")

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro", "YFilterEngine"),
            ("repro.filtering", "YFilterEngine"),
            ("repro.filtering", "FilterResult"),
            ("repro.filtering", "Event"),
            ("repro.filtering", "EventKind"),
            ("repro.filtering", "document_events"),
            ("repro.filtering.nfa:SharedPathNFA", "move_accepting"),
            ("repro.filtering.nfa:SharedPathNFA", "describe"),
            ("repro.filtering.nfa:SharedPathNFA", "queries"),
            ("repro.filtering.nfa:SharedPathNFA", "state_count"),
            ("repro.filtering.nfa:SharedPathNFA", "query_count"),
            ("repro.filtering.nfa:SharedPathNFA", "start_state"),
            # moved beside the tests that read them
            ("repro.xpath.ast:XPathQuery", "is_viable_prefix"),
            ("repro.xpath.ast:XPathQuery", "has_wildcard"),
            ("repro.xpath.ast:XPathQuery", "has_descendant_axis"),
            ("repro.index.ci:CompactIndex", "find_node"),
            ("repro.net.framing", "decode_frame"),
            ("repro.xmlkit.stats", "path_frequencies"),
            ("repro.xmlkit.dtd:DTD", "is_recursive"),
            ("repro.xmlkit.model:XMLElement", "path_from_root"),
            ("repro.dataguide.roxsum:CombinedDataGuide", "docs_containing"),
            # read by their own tests only
            ("repro.xmlkit.dtd:DTD", "reachable_elements"),
            ("repro.xmlkit.dtd:ElementDecl", "is_leaf"),
            ("repro.xmlkit.stats", "tag_frequencies"),
            ("repro.xmlkit.model", "collection_size_bytes"),
            ("repro.xpath.ast", "distinct_labels"),
            ("repro.faults.plan:FaultPlan", "is_null"),
            ("repro.index.twotier:TwoTierIndex", "savings_bytes"),
            ("repro.index.twotier:TwoTierIndex", "one_tier_bytes"),
            ("repro.index.twotier:OffsetList", "offset_of"),
            ("repro.index.packing:PackedIndex", "tuning_bytes_for_nodes"),
            ("repro.index.pruning:PruningStats", "node_ratio"),
            ("repro.index.pruning:PruningStats", "size_ratio"),
            ("repro.filtering.dfa:LazyQueryDFA", "accepts_path"),
            ("repro.filtering.masks:LookupResult", "is_empty"),
            ("repro.dataguide.dataguide:DataGuide", "contains_path"),
            ("repro.broadcast.packets:CycleLayout", "kind_at"),
            ("repro.broadcast.packets:CycleLayout", "total_packets"),
            ("repro.baselines.perdoc:PerDocumentIndexStats", "broadcast_bytes"),
            ("repro.experiments.runner:IndexSizePoint", "ci_to_data"),
            ("repro.net.chaos:ChaosSchedule", "for_shard"),
            ("repro.obs.registry:Gauge", "dec"),
            ("repro.obs.registry:MetricsRegistry", "span_depth"),
            ("repro.obs.registry:NullRegistry", "span_depth"),
            ("repro.tools.persist:JournalState", "admit_counts"),
        ],
    )
    def test_the_second_way_and_the_test_only_code_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)


class TestEveryKnobHasAUser:
    """The parameter census: an option that nothing outside ``tests/``
    set is a module constant at its old default (migration table:
    CHANGES.md -- ``BroadcastServer.build_budget = BuildBudget(
    force_overload=f)`` is ``server.force_overload = f``; a test that
    tuned a control-law threshold patches the constant in
    ``repro.control.controller``; ``sample_fault_plan`` lives in
    ``tests/faults/sampling.py``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.broadcast.server", "BuildBudget"),
            ("repro.obs.telemetry:TelemetryConfig", "wants_registry"),
            ("repro", "sample_fault_plan"),
            ("repro.faults", "sample_fault_plan"),
            ("repro.faults.plan", "sample_fault_plan"),
            ("repro.xpath.ast", "query_set_depth"),
            ("repro.xmlkit.model:XMLElement", "find_all"),
            ("repro.xmlkit.model:XMLDocument", "invalidate_size"),
        ],
    )
    def test_removed_names_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)

    def test_removed_options_are_gone(self):
        import dataclasses
        import inspect

        from repro.broadcast.cycle_cache import CycleBuildCache
        from repro.broadcast.program import build_cycle_program
        from repro.broadcast.server import BroadcastServer
        from repro.control import ControlConfig
        from repro.faults import FaultPlan
        from repro.net import AsyncTwoTierClient
        from repro.obs.telemetry import TelemetryConfig
        from repro.sim.config import SimulationConfig

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        def parameters(target):
            return set(inspect.signature(target).parameters)

        assert not {"packing", "validate_cycles"} & names(SimulationConfig)
        assert not {"packing", "build_budget"} & parameters(BroadcastServer)
        assert "packing" not in parameters(build_cycle_program)
        assert not {"rebuild_threshold", "dfa_cache_size"} & parameters(
            CycleBuildCache
        )
        assert not {
            "grow_backlog_factor", "shrink_idle_frac", "shrink_backlog_factor",
            "policy_switch_margin", "policy_patience", "hot_min_queries",
            "shed_backlog_factor", "retry_after_cycles",
        } & names(ControlConfig)
        assert not {"metrics_host", "registry"} & names(TelemetryConfig)
        assert not {"clock", "max_resumes", "resume_delay"} & parameters(
            AsyncTwoTierClient
        )
        assert not {"build_budget_bytes", "build_budget_seconds"} & names(FaultPlan)

    def test_the_constants_keep_the_old_defaults(self):
        from repro.broadcast import cycle_cache
        from repro.control import controller
        from repro.net import client

        assert cycle_cache.DFA_CACHE_SIZE == 16
        assert (
            controller.GROW_BACKLOG_FACTOR, controller.SHRINK_IDLE_FRAC,
            controller.SHRINK_BACKLOG_FACTOR, controller.POLICY_SWITCH_MARGIN,
            controller.POLICY_PATIENCE, controller.HOT_MIN_QUERIES,
            controller.SHED_BACKLOG_FACTOR, controller.RETRY_AFTER_CYCLES,
        ) == (1.5, 0.35, 0.9, 0.05, 2, 3, 6.0, 1)
        assert (client.MAX_RESUMES, client.RESUME_DELAY) == (8, 0.05)

    def test_lee_lo_needs_its_store(self):
        import inspect

        from repro.broadcast.scheduling import LeeLoScheduler

        store = inspect.signature(LeeLoScheduler).parameters["store"]
        assert store.default is inspect.Parameter.empty
        with pytest.raises(TypeError):
            LeeLoScheduler()  # type: ignore[call-arg]

    def test_no_option_was_added(self):
        """Each censused object's option count after the census."""
        import dataclasses
        import inspect

        import repro.__main__ as cli
        from repro.broadcast.cycle_cache import CycleBuildCache
        from repro.broadcast.scheduling import LeeLoScheduler
        from repro.broadcast.server import BroadcastServer
        from repro.control import ControlConfig
        from repro.net import AsyncTwoTierClient, DaemonConfig
        from repro.obs.telemetry import TelemetryConfig
        from repro.sim.config import SimulationConfig

        def fields(cls):
            return len(dataclasses.fields(cls))

        def parameters(target):
            return len(inspect.signature(target).parameters)

        # before the census: 29, 12, 10, 6
        assert [
            fields(c)
            for c in (SimulationConfig, ControlConfig, DaemonConfig, TelemetryConfig)
        ] == [27, 4, 10, 4]
        # before the census: 10, 3, 12, 1 (BuildBudget's 4 fields are gone)
        assert [
            parameters(c)
            for c in (BroadcastServer, CycleBuildCache, AsyncTwoTierClient, LeeLoScheduler)
        ] == [8, 1, 9, 1]
        # the CLI's flags were censused, not cut: each is its field's user
        assert inspect.getsource(cli).count("add_argument(") == 66


class TestOneCycleBuild:
    """The cycle build in four stages, each decision made once (migration
    table: CHANGES.md -- ``cycle.hot_doc_ids`` is ``tuple(d for d in
    cycle.doc_ids if d in server.hot_doc_ids)``;
    ``CycleDecoder(keep_documents=True).documents[d]`` is the body of the
    DOC frame ``encode_cycle`` emits for ``d``,
    ``frame.payload.partition(b"\\n")[2]``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.broadcast.program:BroadcastCycle", "hot_doc_ids"),
            ("repro.broadcast.server:BroadcastServer", "_degraded_pci"),
            ("repro.net.wire:CycleDecoder", "keep_documents"),
            ("repro.net.wire:CycleDecoder", "documents"),
        ],
    )
    def test_removed_names_are_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert not hasattr(target, name)
        if attr == "CycleDecoder":
            assert not hasattr(target(), name)

    def test_build_cycle_is_four_short_stages(self):
        """``build_cycle`` and every stage it calls fit 40 lines."""
        import ast
        import inspect
        import textwrap

        from repro.broadcast.server import BroadcastServer

        def lines(method):
            node = ast.parse(textwrap.dedent(inspect.getsource(method))).body[0]
            return node.end_lineno - node.lineno + 1

        build = ast.parse(textwrap.dedent(inspect.getsource(BroadcastServer.build_cycle)))
        called = {
            node.func.attr
            for node in ast.walk(build)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.endswith("_stage")
        }
        assert called == {
            "_index_stage", "_schedule_stage", "_assemble_stage", "_record_stage",
        }
        for name in ("build_cycle", "_force_hot_schedule", *called):
            assert lines(getattr(BroadcastServer, name)) <= 40, name


class TestOneCollectionTable:
    """Each cycle's CI is the store's collection table restricted to the
    request, so the per-cycle guide merge and its layer are gone
    (migration table: CHANGES.md -- ``cache.ci_for(requested)`` returns a
    :class:`~repro.index.pruning.Restriction`; ``.materialise()`` is the
    ``CompactIndex`` it used to return; ``store.full_guide`` is
    ``store.collection.guide``, built at first use; there is no
    threshold to tune; ``build_ci(docs, ids)`` is
    ``build_ci_from_store(DocumentStore(docs), ids)``;
    ``two_tier.first_tier_packets`` is
    ``two_tier.size_model.packets_for(two_tier.first_tier_bytes)``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.broadcast.cycle_cache", "REBUILD_THRESHOLD"),
            ("repro.broadcast.cycle_cache:CycleBuildCache", "_ci_guide"),
            ("repro.broadcast.cycle_cache:CycleBuildCache", "_ci_index"),
            ("repro.broadcast.cycle_cache:CycleBuildCache", "_incremental_guide"),
            ("repro.broadcast.cycle_cache:CycleBuildCache", "_drop_ci"),
            ("repro", "build_ci"),
            ("repro.index", "build_ci"),
            ("repro.index.ci", "build_ci"),
            ("repro.index.twotier:TwoTierIndex", "first_tier_packets"),
        ],
    )
    def test_the_guide_layer_is_gone(self, owner, name):
        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)
        if attr == "CycleBuildCache":
            from repro.broadcast.server import DocumentStore
            from tests.xpath.test_evaluator import paper_documents

            assert not hasattr(target(DocumentStore(paper_documents())), name)

    def test_one_prune_walk(self):
        """Every pruning entry point is the one walk over a restriction."""
        import inspect

        from repro.index import pruning

        walks = [
            name
            for name, function in inspect.getmembers(pruning, inspect.isfunction)
            if function.__module__ == pruning.__name__
            and "while pending" in inspect.getsource(function)
        ]
        assert walks == ["_prune"]


class TestOneAdmission:
    """Admission is one object with one per-query contract, and
    ``enable_caches=False`` forks the index stage alone (migration table:
    CHANGES.md -- ``server.forget_uplink_key(key, text)`` is
    ``server.admission.forget(key, query)``; ``submit_batch`` no longer
    rejects a whole batch for one empty result set: it returns one
    ``Admitted(pending, duplicate)`` per query, ``pending`` ``None``
    for a rejected one (``submit`` still raises the old ``ValueError``);
    ``Scheduler.rank`` / ``select`` take the
    ``DemandTable`` they read, no longer optional (``server.demand``, or
    ``DemandTable.add_query`` per pending query);
    ``server.uplink_dedup_hits`` is ``server.admission.dedup_hits`` and
    ``server.resolved_query_strings`` is
    ``server.admission.resolved_query_strings``; ``store.subset(ids)`` is
    ``[d for d in store.documents if d.doc_id in ids]``;
    ``controller.is_cold(docs)`` / ``record_shed()`` are one
    ``controller.sheds(lambda: docs)``)."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.broadcast.server:BroadcastServer", "forget_uplink_key"),
            ("repro.broadcast.server:BroadcastServer", "uplink_dedup_hits"),
            ("repro.broadcast.server:BroadcastServer", "resolved_query_strings"),
            ("repro.broadcast.server:BroadcastServer", "_resolution_cache"),
            ("repro.broadcast.server:BroadcastServer", "_uplink_dedup"),
            ("repro.broadcast.server:DocumentStore", "subset"),
            ("repro.broadcast.scheduling", "_demand_table"),
            ("repro.broadcast.scheduling", "_demand_view"),
            ("repro.control.controller:AdaptiveController", "is_cold"),
            ("repro.control.controller:AdaptiveController", "record_shed"),
        ],
    )
    def test_removed_names_are_gone(self, owner, name):
        from repro.broadcast.server import BroadcastServer, DocumentStore
        from tests.xpath.test_evaluator import paper_documents

        module_name, _, attr = owner.partition(":")
        target = importlib.import_module(module_name)
        if attr:
            target = getattr(target, attr)
        assert not hasattr(target, name)
        if target is BroadcastServer:
            assert not hasattr(BroadcastServer(DocumentStore(paper_documents())), name)

    def test_a_batch_rejects_per_query(self):
        from repro.broadcast.server import BroadcastServer, DocumentStore
        from repro.xpath.parser import parse_query
        from tests.xpath.test_evaluator import paper_documents

        server = BroadcastServer(DocumentStore(paper_documents()))
        kept, empty = server.submit_batch(
            [parse_query("/a/b"), parse_query("/nothing")], 0
        )
        assert kept.pending is not None and empty.pending is None
        assert server.pending == [kept.pending]

    def test_schedulers_take_the_demand_table(self):
        import inspect

        from repro.broadcast import scheduling

        for cls in (
            scheduling.Scheduler,
            scheduling.FCFSScheduler,
            scheduling.MostRequestedFirstScheduler,
            scheduling.RxWScheduler,
            scheduling.LeeLoScheduler,
        ):
            for method in (cls.rank, cls.select):
                demand = inspect.signature(method).parameters["demand"]
                assert demand.default is inspect.Parameter.empty, cls


class TestQuickstartSnippet:
    def test_readme_quickstart_runs(self):
        """The exact flow the README shows."""
        from repro import (
            BroadcastServer,
            DocumentStore,
            TwoTierClient,
            generate_collection,
            generate_workload,
            nitf_like_dtd,
        )

        docs = generate_collection(nitf_like_dtd(), 30, seed=7)
        queries = generate_workload(docs, 8, seed=11)
        server = BroadcastServer(DocumentStore(docs))
        for query in queries:
            server.submit(query, arrival_time=0)
        cycle = server.build_cycle()
        client = TwoTierClient(queries[0], arrival_time=0)
        client.on_cycle(cycle)
        assert client.metrics.index_lookup_bytes > 0
        assert client.expected_doc_ids


class TestModuleDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_package_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 40
