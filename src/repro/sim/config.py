"""Simulation configuration with the paper's Table 2 defaults.

Table 2 of the paper (partially garbled in the available text) fixes:
1000 generated documents, ~1 KB average document size, N_Q queries
submitted per broadcast cycle (default 500), P the probability of ``*``
and ``//`` in queries (default 0.1), D_Q the maximum query depth
(default 10 -- the table's default is unreadable in our copy; 10 matches
the NITF-like DTD's depth bound and is recorded as an assumption in
DESIGN.md), 2-byte document IDs, 4-byte pointers, and a broadcast cycle
whose data capacity we default to 100 KB (the printed "1KB" cannot carry
even one average document and is clearly an OCR casualty).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.broadcast.multichannel import check_channel_shape
from repro.broadcast.partition import PartitionMap, ShardIdentity
from repro.broadcast.program import IndexScheme
from repro.control.plan import ControlConfig
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.generator import BUILTIN_DTDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> sim)
    from repro.faults.plan import FaultPlan

#: scenario workload shapes understood by
#: :class:`~repro.sim.workload.WorkloadBuilder` (``None`` = the paper's
#: constant N_Q arrival rate)
SCENARIOS: tuple = ("flash", "diurnal", "drift")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run depends on."""

    # Collection (paper Section 4.1)
    dtd: str = "nitf"  #: ``nitf``, ``nasa`` or ``dblp``
    document_count: int = 1000
    collection_seed: int = 7

    # Query workload (paper Table 2)
    n_q: int = 500  #: queries submitted per broadcast cycle
    wildcard_prob: float = 0.1  #: the paper's P
    max_query_depth: int = 10  #: the paper's D_Q
    query_seed: int = 11
    zipf_theta: float = 0.0  #: query-pattern skew (the paper's future work)

    # Broadcast system
    cycle_data_capacity: int = 500_000  #: data-segment byte budget per cycle
    scheduler: str = "leelo"
    scheme: IndexScheme = IndexScheme.TWO_TIER
    size_model: SizeModel = PAPER_SIZE_MODEL

    #: K, the number of parallel data channels each cycle airs its
    #: documents on; 1 is the paper's single-channel program.  The
    #: two-tier client is a single tuner, so documents airing at the
    #: same time on different channels conflict and the loser is
    #: deferred; K>=2 therefore switches the server to acknowledged
    #: delivery so conflict-deferred documents stay scheduled until
    #: actually received.
    num_data_channels: int = 1

    #: How the schedule splits across data channels: "round-robin",
    #: "balanced" (greedy balanced-air-bytes) or "demand"
    #: (demand-weighted via the server's DemandTable).
    channel_allocation: str = "balanced"

    #: Adaptive control plane (:mod:`repro.control`): a feedback
    #: controller re-plans the broadcast each cycle -- grow/shrink the
    #: channel count within the configured band, switch allocation
    #: policy by counterfactual regret, promote hot documents onto a
    #: fast-repeat channel and shed cold queries under overload.  Off by
    #: default; static runs build no controller and stay byte-identical
    #: (differentially tested).  Adaptive runs start at
    #: ``num_data_channels`` and, when the control band can reach K=2,
    #: use acknowledged delivery throughout: the controller may grow K
    #: mid-run, and a grown K must never strand a conflict-deferred
    #: document behind a server that assumed broadcast == received.
    adaptive: bool = False

    #: Controller knobs; ``None`` uses :class:`ControlConfig` defaults.
    control: Optional[ControlConfig] = None

    #: Scenario workload shape (``None``, "flash", "diurnal" or "drift");
    #: see :class:`~repro.sim.workload.WorkloadBuilder`.  Scenarios
    #: modulate the per-cycle arrival quota (flash/diurnal) or the query
    #: popularity focus (drift) and are deterministic per ``query_seed``.
    scenario: Optional[str] = None
    #: peak arrival multiplier (flash burst height, diurnal peak)
    scenario_intensity: float = 3.0
    #: scenario period in cycles (diurnal wave length, drift dwell time)
    scenario_period: int = 8

    #: Per-packet erasure probability of the error-prone-channel
    #: extension; 0.0 is the paper's reliable channel.  Positive values
    #: hand the two-tier client a seeded
    #: :class:`~repro.broadcast.loss.PacketLossModel`, switch the server
    #: to acknowledged delivery and drop the one-tier/naive baselines from
    #: the run (they are not loss-aware; protocol comparison needs a
    #: shared reliable schedule, loss degradation does not).
    loss_prob: float = 0.0

    #: Fault-injection extension: a :class:`~repro.faults.plan.FaultPlan`
    #: switches the run to :class:`~repro.faults.chaos.ChaosSimulation`
    #: (unreliable uplink with retry/backoff, checksummed packets with
    #: corruption/erasure, overload-degraded builds, mid-cycle collection
    #: mutations) with safety/liveness monitors checked every cycle.
    #: ``None`` is the paper's fault-free system.  Every session is one
    #: two-tier client on the plan's erasure+corruption channel.  Mutually
    #: exclusive with ``loss_prob`` (fold erasures into
    #: ``FaultPlan.erase_prob``) and ``num_data_channels > 1``.
    faults: Optional["FaultPlan"] = None

    #: Cluster sharding (the serving tier of :mod:`repro.net.cluster`):
    #: ``num_shards``/``shard_index`` restrict the run to one worker's
    #: slice of the collection under the deterministic
    #: :class:`~repro.broadcast.partition.PartitionMap` seeded by
    #: ``partition_seed``.  Both must be set together; ``None`` keeps
    #: the paper's unsharded system.  Per-shard reference simulations
    #: built this way are what the cluster parity test compares the
    #: live multi-worker tier against.
    num_shards: Optional[int] = None
    shard_index: Optional[int] = None
    partition_seed: int = 0

    # Run shape
    arrival_cycles: int = 3  #: how many cycles receive fresh arrivals
    max_cycles: int = 400  #: hard stop (drain guard)
    track_naive_baseline: bool = False

    def __post_init__(self) -> None:
        if self.dtd not in BUILTIN_DTDS:
            raise ValueError(f"dtd must be one of {tuple(BUILTIN_DTDS)}")
        if self.document_count < 1:
            raise ValueError("document_count must be positive")
        if self.n_q < 1:
            raise ValueError("n_q must be positive")
        if not 0.0 <= self.wildcard_prob <= 1.0:
            raise ValueError("wildcard_prob must be in [0, 1]")
        if self.max_query_depth < 1:
            raise ValueError("max_query_depth must be positive")
        if self.cycle_data_capacity < 1:
            raise ValueError("cycle_data_capacity must be positive")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        check_channel_shape(
            self.num_data_channels,
            self.channel_allocation,
            two_tier=self.scheme is IndexScheme.TWO_TIER,
        )
        if self.faults is not None:
            if self.scheme is not IndexScheme.TWO_TIER:
                raise ValueError(
                    "fault injection requires the two-tier scheme (the "
                    "recovery ladder is defined on the two-tier protocol)"
                )
            if self.loss_prob > 0.0:
                raise ValueError(
                    "faults and loss_prob both drive the downlink channel; "
                    "fold erasures into FaultPlan.erase_prob instead"
                )
            if self.num_data_channels > 1:
                raise ValueError(
                    "fault injection runs on the single-channel program; "
                    "combine with multi-channel in separate runs"
                )
        if self.adaptive:
            if self.scheme is not IndexScheme.TWO_TIER:
                raise ValueError(
                    "the adaptive control plane requires the two-tier "
                    "scheme (it re-plans the multi-channel program)"
                )
            control = self.control or ControlConfig()
            if self.num_data_channels > control.k_max:
                raise ValueError(
                    f"num_data_channels {self.num_data_channels} exceeds "
                    f"the control band's k_max {control.k_max}"
                )
        elif self.control is not None:
            raise ValueError("control knobs require adaptive=True")
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {SCENARIOS} (or None)"
            )
        if self.scenario_intensity < 1.0:
            raise ValueError("scenario_intensity must be at least 1.0")
        if self.scenario_period < 2:
            raise ValueError("scenario_period must be at least 2 cycles")
        if (self.num_shards is None) != (self.shard_index is None):
            raise ValueError(
                "num_shards and shard_index must be set together"
            )
        if self.num_shards is not None:
            if self.num_shards < 1:
                raise ValueError("num_shards must be at least 1")
            assert self.shard_index is not None
            if not 0 <= self.shard_index < self.num_shards:
                raise ValueError(
                    f"shard_index {self.shard_index} out of range for "
                    f"{self.num_shards} shards"
                )
        if self.arrival_cycles < 1:
            raise ValueError("arrival_cycles must be positive")
        if self.max_cycles < self.arrival_cycles:
            raise ValueError("max_cycles must cover at least the arrival window")

    @property
    def needs_acknowledged_delivery(self) -> bool:
        """Whether the server must wait for client delivery confirmations.

        True on an error-prone channel (lost frames must be rebroadcast),
        with K >= 2 data channels (a single tuner can miss
        conflict-deferred documents), and on adaptive runs whose control
        band can reach K=2: the controller may grow K past 1 mid-run,
        and a deferral under the grown K must not be stranded by a
        server that already assumed broadcast == received
        (regression-tested).  An adaptive band clamped to K=1 can never
        defer, so it keeps the assume-received path -- and with it byte
        identity to the static single-channel run.  Shared by the
        simulator and the live daemon so both construct
        identically-behaving servers.
        """
        return (
            self.loss_prob > 0.0
            or self.num_data_channels >= 2
            or (self.adaptive and self.control_config.k_max >= 2)
        )

    @property
    def control_config(self) -> ControlConfig:
        """The controller knobs (defaults when ``control`` is unset)."""
        return self.control or ControlConfig()

    @property
    def partition_map(self) -> Optional[PartitionMap]:
        """The cluster partition map, or ``None`` when unsharded."""
        if self.num_shards is None:
            return None
        return PartitionMap(self.num_shards, seed=self.partition_seed)

    @property
    def shard_identity(self) -> Optional[ShardIdentity]:
        """This run's shard slice, or ``None`` when unsharded."""
        partition = self.partition_map
        if partition is None:
            return None
        assert self.shard_index is not None
        return ShardIdentity(self.shard_index, partition)

    def shard_documents(self, documents: Sequence) -> List:
        """Filter a full collection down to this configuration's shard.

        The identity when unsharded.  Raises if the shard owns nothing:
        an empty collection cannot broadcast, and a silent empty shard
        would make a cluster member that rejects every query.
        """
        identity = self.shard_identity
        if identity is None:
            return list(documents)
        owned = [d for d in documents if identity.owns(d.doc_id)]
        if not owned:
            raise ValueError(
                f"shard {identity.index}/{identity.partition.num_shards} "
                f"owns no documents of this {len(documents)}-document "
                "collection; use more documents or fewer shards"
            )
        return owned

    def total_queries(self) -> int:
        return self.n_q * self.arrival_cycles

    def with_(self, **overrides) -> "SimulationConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **overrides)


def paper_setup(**overrides) -> SimulationConfig:
    """The Table 2 configuration, optionally overridden."""
    return SimulationConfig().with_(**overrides) if overrides else SimulationConfig()


def small_setup(**overrides) -> SimulationConfig:
    """A scaled-down configuration for fast unit/integration tests."""
    base = SimulationConfig(
        document_count=60,
        n_q=25,
        arrival_cycles=2,
        cycle_data_capacity=20_000,
        max_cycles=200,
    )
    return base.with_(**overrides) if overrides else base
