#!/usr/bin/env python3
"""Inspect the on-air byte format of the two-tier index.

Builds a pruned compact index over the paper's running example (the five
documents d1..d5 of Figure 2), encodes both tiers to their wire format,
hexdumps the leading packets and decodes them back -- demonstrating that
a client can reconstruct the index from the broadcast bytes alone.

Run:  python examples/wire_format.py
"""

from __future__ import annotations

from repro import (
    BroadcastServer,
    DocumentStore,
    XMLDocument,
    parse_query,
)
from repro.index.encoding import (
    LabelTable,
    decode_index,
    decode_offset_list,
    encode_index,
    encode_offset_list,
)
from repro.xmlkit.model import build_element


def paper_documents():
    """The running example's five documents (Figure 2(a) reconstruction)."""
    return [
        XMLDocument(0, build_element("a", build_element("b", build_element("a")))),
        XMLDocument(
            1,
            build_element(
                "a",
                build_element("b", build_element("a"), build_element("c")),
                build_element("c", build_element("b")),
            ),
        ),
        XMLDocument(2, build_element("a", build_element("b"), build_element("c"))),
        XMLDocument(3, build_element("a", build_element("c", build_element("a")))),
        XMLDocument(
            4,
            build_element(
                "a", build_element("b"), build_element("c", build_element("a"))
            ),
        ),
    ]


def hexdump(blob: bytes, limit: int = 96) -> str:
    lines = []
    for offset in range(0, min(len(blob), limit), 16):
        chunk = blob[offset : offset + 16]
        hexes = " ".join(f"{byte:02x}" for byte in chunk)
        lines.append(f"  {offset:04x}  {hexes}")
    if len(blob) > limit:
        lines.append(f"  ... ({len(blob) - limit} more bytes)")
    return "\n".join(lines)


def main() -> None:
    docs = paper_documents()
    server = BroadcastServer(DocumentStore(docs), cycle_data_capacity=10_000)
    for text in ("/a/b/a", "/a//c", "/a/c/*"):
        server.submit(parse_query(text), 0)
    cycle = server.build_cycle()
    pci = cycle.pci

    # The index in memory is the index on air: one row per node, in
    # depth-first preorder; a row's subtree is the id range up to its end.
    print(f"PCI: {pci.node_count} rows over labels {sorted(set(pci.labels))}")
    print("  id  label  end  children  docs")
    for node_id, (label, end, child_ids, doc_ids) in enumerate(
        zip(pci.labels, pci.ends, pci.children, pci.doc_ids)
    ):
        print(f"  n{node_id}  {label:5s}  {end:3d}  {str(list(child_ids)):8s}  "
              f"{list(doc_ids)}")

    table = LabelTable.from_index(pci)
    first_tier = encode_index(pci, table, one_tier=False)
    print(f"\nfirst tier on air: {len(first_tier)} bytes "
          f"({pci.size_model.packets_for(len(first_tier))} packet(s) of 128 B)")
    print(hexdump(first_tier))

    second_tier = encode_offset_list(cycle.offset_list)
    print(f"\nsecond tier on air: {len(second_tier)} bytes, "
          f"{cycle.offset_list.doc_count} (doc, offset) entries")
    print(hexdump(second_tier))

    # A client decodes the broadcast bytes and answers a query locally.
    decoded, _ = decode_index(
        first_tier, table, one_tier=False, root_label=pci.labels[0]
    )
    offsets = decode_offset_list(second_tier)
    query = parse_query("/a//c")
    ids = decoded.lookup(query).doc_ids
    print(f"\ndecoded lookup {query}: result doc ids {list(ids)}")
    print(f"second-tier join: {offsets.lookup(ids)}")


if __name__ == "__main__":
    main()
