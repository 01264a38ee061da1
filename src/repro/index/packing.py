"""Packing index nodes into fixed-size packets (paper Section 3.1).

Broadcast data is delivered in fixed-size packets (128 bytes in the
paper) and clients pay tuning time per *packet*, not per byte, so packing
adjacent nodes together matters.  The paper's greedy algorithm walks the
nodes in depth-first order and opens a new packet whenever the current one
cannot accommodate the next node; Figure 5 packs the nine running-example
nodes into four packets.

Two alternative strategies exist purely for the packing ablation bench:
breadth-first order, and the naive one-node-per-packet layout.

A node larger than one packet (a long document-annotation list) spans
multiple dedicated packets; the remainder of its last packet is padding,
which keeps every other node readable from a single aligned packet run.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.index.ci import CompactIndex
from repro.index.sizes import SizeModel


class PackingStrategy(enum.Enum):
    GREEDY_DFS = "greedy-dfs"  #: the paper's algorithm
    BFS = "bfs"  #: level-order ablation
    ONE_PER_PACKET = "one-per-packet"  #: naive ablation


@dataclass(frozen=True)
class PackedIndex:
    """Result of packing one index layout.

    ``packet_of_node`` maps every node id to the (contiguous) range of
    packet indices carrying it; tuning-time accounting charges a client
    for every distinct packet its visited nodes touch.
    """

    strategy: PackingStrategy
    one_tier: bool
    packet_bytes: int
    packet_count: int
    node_order: Tuple[int, ...]
    packet_of_node: Dict[int, Tuple[int, ...]]
    used_bytes: int

    @property
    def total_bytes(self) -> int:
        """On-air footprint: packets times packet size."""
        return self.packet_count * self.packet_bytes

    @property
    def utilisation(self) -> float:
        """Fraction of the on-air footprint that is real index payload."""
        return self.used_bytes / self.total_bytes if self.packet_count else 1.0

    def packets_for_nodes(self, node_ids: Iterable[int]) -> FrozenSet[int]:
        """Distinct packets a client must download to read *node_ids*."""
        touched: Set[int] = set()
        for node_id in node_ids:
            touched.update(self.packet_of_node[node_id])
        return frozenset(touched)


def _node_order(index: CompactIndex, strategy: PackingStrategy) -> Tuple[int, ...]:
    """Node *ids* in packing order.

    Node ids are preorder positions, so the DFS strategies are a plain
    range -- no tree walk.
    """
    if strategy in (PackingStrategy.GREEDY_DFS, PackingStrategy.ONE_PER_PACKET):
        return tuple(range(index.node_count))
    # Breadth-first: level order from the root.
    order: List[int] = []
    queue = deque([0])
    while queue:
        node_id = queue.popleft()
        order.append(node_id)
        queue.extend(index.children[node_id])
    return tuple(order)


def pack_index(
    index: CompactIndex,
    one_tier: bool,
    strategy: PackingStrategy = PackingStrategy.GREEDY_DFS,
) -> PackedIndex:
    """Pack *index* into packets under the given layout and strategy.

    Runs entirely over the index's per-node size array.
    """
    size_model: SizeModel = index.size_model
    packet_bytes = size_model.packet_bytes
    # The fill capacity is the packet *payload*: a per-packet checksum
    # trailer (fault-injection extension) shrinks what index nodes can
    # occupy, so the checksum cost surfaces as extra packets here.
    payload_bytes = size_model.payload_bytes
    order = _node_order(index, strategy)
    sizes = index.node_sizes(one_tier)

    packet_of_node: Dict[int, Tuple[int, ...]] = {}
    next_packet = 0
    free = 0  # free payload bytes remaining in the currently open packet
    used = 0
    one_per_packet = strategy is PackingStrategy.ONE_PER_PACKET

    for node_id in order:
        node_size = sizes[node_id]
        used += node_size
        if one_per_packet or node_size > payload_bytes:
            # Naive layout, or an oversized node (a long annotation
            # list): dedicated packet run, then start fresh.
            span = size_model.packets_for(node_size)
            packet_of_node[node_id] = tuple(range(next_packet, next_packet + span))
            next_packet += span
            free = 0
            continue
        if node_size > free:
            # Greedy rule: open a new packet when the node does not fit.
            free = payload_bytes
            next_packet += 1
        packet_of_node[node_id] = (next_packet - 1,)
        free -= node_size

    return PackedIndex(
        strategy=strategy,
        one_tier=one_tier,
        packet_bytes=packet_bytes,
        packet_count=next_packet,
        node_order=order,
        packet_of_node=packet_of_node,
        used_bytes=used,
    )
