"""The index table holds no reference cycle.

An object tree with parent links is cyclic garbage the moment it is
dropped: only the collector can free it, and the collector's pauses land
on whoever allocates next.  The table is columns of strings, tuples and
ints, so building, pruning, decoding and searching one must each leave
nothing for the collector -- checked structurally, with the collector
off, not by timing.
"""

from __future__ import annotations

import gc

import pytest

from repro.dataguide.roxsum import build_combined_guide
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex
from repro.index.encoding import LabelTable, decode_index, encode_index
from repro.index.pruning import prune_to_pci, prune_to_pci_containment


@pytest.fixture()
def operations(nitf_docs, nitf_queries):
    """The four index operations of a broadcast cycle, warmed up."""
    guide = build_combined_guide(nitf_docs)
    ci = CompactIndex.from_guide(guide)
    warm = LazyQueryDFA.from_queries(nitf_queries)
    pci, _stats = prune_to_pci(ci, nitf_queries, dfa=warm)
    table = LabelTable.from_index(pci)
    blob = encode_index(pci, table, one_tier=False)
    compiled = LazyQueryDFA.from_queries(nitf_queries[:1])
    operations = {
        "from_guide": lambda: CompactIndex.from_guide(guide),
        "prune_to_pci": lambda: prune_to_pci(ci, nitf_queries, dfa=warm),
        "prune_to_pci_containment": lambda: prune_to_pci_containment(
            ci, nitf_queries, dfa=warm
        ),
        "decode_index": lambda: decode_index(
            blob, table, one_tier=False, root_label=pci.labels[0]
        ),
        "lookup": lambda: pci.lookup(compiled),
    }
    for operation in operations.values():
        operation()
    return operations


@pytest.mark.parametrize(
    "name",
    ["from_guide", "prune_to_pci", "prune_to_pci_containment", "decode_index", "lookup"],
)
def test_operation_leaves_no_cyclic_garbage(operations, name):
    operation = operations[name]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        operation()  # result dropped: whatever it held is now unreachable
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
