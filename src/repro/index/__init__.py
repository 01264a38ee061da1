"""The paper's core contribution: Compact Index, pruning, two-tier split.

Pipeline (paper Section 3):

1. :mod:`repro.index.ci` -- the **Compact Index (CI)**: the combined
   DataGuide of the (requested) document set, with ``<entry, pointer>``
   child entries and ``<doc, pointer>`` document annotations, held as one
   table of rows in depth-first preorder (row number = node id = on-air
   position; :mod:`repro.index.nodes` is the builder every producer
   emits rows through, and the flag convention).  Documents
   are annotated at their *maximal* paths (where they have a childless
   element), matching the paper's observation that d2's pointer appears
   exactly three times -- once per leaf path a/b/a, a/b/c, a/c/b;
2. :mod:`repro.index.pruning` -- the query-set DFA marks live nodes; dead
   nodes are cut and their document annotations re-attached to the nearest
   surviving ancestor, producing the **Pruned Compact Index (PCI)** --
   one compaction of the CI's rows, the same kind of table;
3. :mod:`repro.index.twotier` -- the **two-tier split**: document
   *pointers* move out of the index nodes into a per-cycle second-tier
   offset list (the BCNF normalisation of Section 3.3), leaving only
   2-byte document IDs in the first tier;
4. :mod:`repro.index.packing` -- the greedy depth-first packing of index
   nodes into fixed-size packets (Section 3.1, Figure 5);
5. :mod:`repro.index.encoding` -- byte-exact serialisation used on air;
   every size the experiments report equals the encoded size;
6. :mod:`repro.index.sizes` -- the size model (paper Section 4.1: 2-byte
   document IDs, 4-byte pointers, 128-byte packets).
"""

from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.index.ci import CompactIndex, LookupResult, build_ci, build_full_ci
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
    "build_ci",
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
