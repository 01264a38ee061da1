"""Channel allocation: which data channel airs which scheduled document.

A cycle program (:mod:`repro.broadcast.program`) airs its documents on
K >= 1 parallel data channels, following the multichannel XML-broadcast
literature (e.g. Khatibi & Khatibi, *Efficient Multichannel in XML
Wireless Broadcast Stream*).  :func:`allocate_channels` is the policy
half of that layout: it partitions the scheduler's document pick into
one queue per channel; the program builder then places each queue
back-to-back from the shared ``data_start`` boundary.

Allocation policies (:data:`ALLOCATION_POLICIES`):

* ``round-robin`` -- document *i* of the schedule goes to channel
  ``i mod K``;
* ``balanced`` -- greedy balanced-air-bytes: each document (in schedule
  order) goes to the currently lightest channel, minimising the padding
  of the longest channel;
* ``demand`` -- demand-weighted affinity clustering: documents are
  assigned most-demanded first (demand = the set of pending queries
  still missing the document, from the server's
  :class:`~repro.broadcast.scheduling.DemandTable`) to the channel whose
  documents share the most demanding queries, bounded by a per-channel
  load target.  Co-demanded documents land on the *same* channel
  back-to-back, so a single-tuner client rides one channel and retrieves
  its whole result set while other queries' channels air in parallel --
  this is what turns K channels into real aggregate throughput for
  single-tuner populations (spreading popular documents across channels
  would instead force every client into cross-channel conflicts).

Every policy preserves the scheduler's relative order *within* a
channel, so the scheduler's completion-oriented ordering survives the
split.  With one channel every policy is the identity: the single queue
is the schedule itself.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.broadcast.server import DocumentStore

ALLOCATION_POLICIES: Tuple[str, ...] = ("round-robin", "balanced", "demand")


def check_channel_shape(
    num_channels: int,
    policy: str = "balanced",
    two_tier: bool = True,
    hot: bool = False,
) -> None:
    """The channel-shape rule, which every place that configures or builds
    a channel layout checks here: K >= 1; K > 1 needs the two-tier scheme
    (only its second tier carries channel assignments); the *policy* is
    one of :data:`ALLOCATION_POLICIES`; a *hot* set needs K >= 2 (the
    fast-repeat channel cannot be the only data channel).
    """
    if num_channels < 1:
        raise ValueError(f"need at least 1 data channel, not {num_channels}")
    if num_channels > 1 and not two_tier:
        raise ValueError("multi-channel broadcast requires the two-tier scheme")
    if policy not in ALLOCATION_POLICIES:
        raise ValueError(
            f"unknown allocation policy {policy!r}; choose from {ALLOCATION_POLICIES}"
        )
    if hot and num_channels < 2:
        raise ValueError("a fast-repeat hot channel needs at least 2 data channels")


def allocate_channels(
    scheduled_doc_ids: Sequence[int],
    store: "DocumentStore",
    num_channels: int,
    policy: str = "balanced",
    demand_sets: Optional[Mapping[int, FrozenSet[int]]] = None,
    hot_doc_ids: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Partition the schedule across *num_channels* data channels.

    Returns one document queue per channel.  Every scheduled document
    lands on exactly one channel exactly once, and each queue preserves
    the schedule's relative order (property-tested).  ``demand_sets``
    (document id -> ids of the pending queries still missing it) is only
    consulted by the ``demand`` policy; missing documents have empty
    demand and fall back to balanced placement.

    ``hot_doc_ids`` (adaptive control plane) carves out a broadcast-disk
    style **fast-repeat channel**: scheduled documents in the hot set are
    pinned to channel 0 in schedule order, and the cold remainder is
    split across the other ``num_channels - 1`` channels by *policy*.
    An empty or non-scheduled hot set degenerates to the plain policy
    split, so static runs (no controller, no hot set) are unaffected.
    """
    hot_set = set(hot_doc_ids or ())
    hot_scheduled = [d for d in scheduled_doc_ids if d in hot_set] if hot_set else []
    check_channel_shape(num_channels, policy, hot=bool(hot_scheduled))
    if hot_scheduled:
        cold = [d for d in scheduled_doc_ids if d not in hot_set]
        return [hot_scheduled] + allocate_channels(
            cold, store, num_channels - 1, policy, demand_sets
        )
    if num_channels == 1:
        return [list(scheduled_doc_ids)]
    queues: List[List[int]] = [[] for _ in range(num_channels)]

    if policy == "round-robin":
        for position, doc_id in enumerate(scheduled_doc_ids):
            queues[position % num_channels].append(doc_id)
        return queues

    schedule_position = {doc_id: i for i, doc_id in enumerate(scheduled_doc_ids)}
    loads = [0] * num_channels
    assignment: Dict[int, int] = {}
    if policy == "balanced":
        # Greedy balanced-air-bytes: each document (schedule order) goes
        # to the currently lightest channel, ties toward channel 0.
        for doc_id in scheduled_doc_ids:
            channel = min(range(num_channels), key=lambda c: (loads[c], c))
            assignment[doc_id] = channel
            loads[channel] += store.air_bytes(doc_id)
    else:  # demand-weighted affinity clustering
        demand = demand_sets or {}
        # Most-demanded documents seed channels first; each later document
        # joins the channel sharing the most demanding queries, so one
        # query's result set stays together and a single tuner can ride a
        # single channel for it.  A per-channel load target keeps the
        # clustering from collapsing onto one channel.
        order = sorted(
            scheduled_doc_ids,
            key=lambda d: (-len(demand.get(d, ())), schedule_position[d]),
        )
        total_air = sum(store.air_bytes(doc_id) for doc_id in scheduled_doc_ids)
        target = -(-total_air // num_channels)  # ceil: balanced span bound
        channel_queries: List[Set[int]] = [set() for _ in range(num_channels)]
        for doc_id in order:
            queries = demand.get(doc_id, frozenset())
            open_channels = [
                c for c in range(num_channels) if loads[c] < target
            ] or list(range(num_channels))
            channel = max(
                open_channels,
                key=lambda c: (len(queries & channel_queries[c]), -loads[c], -c),
            )
            assignment[doc_id] = channel
            loads[channel] += store.air_bytes(doc_id)
            channel_queries[channel].update(queries)
    for doc_id in scheduled_doc_ids:  # schedule order within each channel
        queues[assignment[doc_id]].append(doc_id)
    return queues
