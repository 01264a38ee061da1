"""The paper's core contribution: Compact Index, pruning, two-tier split.

Pipeline (paper Section 3): :mod:`~repro.index.ci`, the **Compact Index**,
one preorder table of rows (built by :mod:`~repro.index.nodes`);
:mod:`~repro.index.pruning`, cutting it to the **Pruned Compact Index**;
:mod:`~repro.index.twotier`, the **two-tier split** of document pointers;
:mod:`~repro.index.packing`, greedy depth-first packing into packets;
:mod:`~repro.index.encoding`, the byte-exact on-air form; and
:mod:`~repro.index.sizes`, the size model (Section 4.1).
"""

from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.index.ci import CompactIndex, LookupResult, build_full_ci
from repro.index.pruning import prune_to_pci, prune_to_pci_containment, PruningStats
from repro.index.twotier import TwoTierIndex, OffsetList, split_two_tier
from repro.index.packing import PackedIndex, PackingStrategy, pack_index
from repro.index.encoding import (
    LabelTable,
    decode_index,
    decode_offset_list,
    encode_index,
    encode_offset_list,
)

__all__ = [
    "SizeModel",
    "PAPER_SIZE_MODEL",
    "CompactIndex",
    "LookupResult",
    "build_full_ci",
    "prune_to_pci",
    "prune_to_pci_containment",
    "PruningStats",
    "TwoTierIndex",
    "OffsetList",
    "split_two_tier",
    "PackedIndex",
    "PackingStrategy",
    "pack_index",
    "LabelTable",
    "encode_index",
    "decode_index",
    "encode_offset_list",
    "decode_offset_list",
]
