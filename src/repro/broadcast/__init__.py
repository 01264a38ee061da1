"""Broadcast server substrate: packets, schedulers, cycle programs, server.

An on-demand broadcast server (paper Figure 1) accumulates XPath queries
in a pending queue, resolves each to its result documents, and assembles
*broadcast cycles*: an air index segment followed by the cycle's document
segment.  The scheduling algorithm decides which requested documents each
cycle carries; the paper adopts Lee & Lo's allocation for multi-item
requests [8], re-implemented here along with simpler baselines.

* :mod:`repro.broadcast.packets` -- packet and segment primitives;
* :mod:`repro.broadcast.scheduling` -- document schedulers (Lee-Lo-style,
  FCFS, most-requested-first, RxW);
* :mod:`repro.broadcast.program` -- cycle assembly with byte-exact
  offsets for one-tier and two-tier index schemes, over K >= 1 parallel
  data channels;
* :mod:`repro.broadcast.multichannel` -- the channel allocation policies
  that split a schedule across those K channels;
* :mod:`repro.broadcast.server` -- the server loop: query admission,
  resolution, per-cycle PCI construction and program emission;
* :mod:`repro.broadcast.partition` -- the hash-slot partition map that
  splits a collection across the shards of a serving cluster.
"""

from repro.broadcast.packets import PacketKind, CycleLayout
from repro.broadcast.scheduling import (
    FCFSScheduler,
    LeeLoScheduler,
    MostRequestedFirstScheduler,
    RxWScheduler,
    Scheduler,
    make_scheduler,
)
from repro.broadcast.program import BroadcastCycle, IndexScheme, build_cycle_program
from repro.broadcast.multichannel import ALLOCATION_POLICIES, allocate_channels
from repro.broadcast.partition import PartitionMap, ShardIdentity
from repro.broadcast.server import BroadcastServer, DocumentStore, PendingQuery
from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.broadcast.validate import CycleValidationError, validate_cycle

__all__ = [
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
]
