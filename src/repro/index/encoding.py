"""Byte-exact serialisation of air-index structures.

The experiments report index sizes in bytes, so the encoding here is the
ground truth: for every structure, ``len(encode_*(x))`` equals the
:class:`~repro.index.sizes.SizeModel` prediction (asserted by tests).

Layout (all integers big-endian):

* node: ``flag(2) | child_count(2) | doc_count(2)`` then child entries
  ``label_id(2) | pointer(4)`` (pointer = byte offset of the child within
  the index stream) then doc entries ``doc_id(2)`` plus, in the one-tier
  layout, ``doc_offset(4)``;
* offset list: ``count(2)`` then ``doc_id(2) | offset(4)`` entries;
* label table: ``count(2)`` then per label ``label_id(2) | length(1) |
  utf-8 bytes`` (the table is normally derivable from the shared DTD and
  not broadcast; it exists for persistence and decoding).

Nodes are emitted in depth-first preorder -- the packing order -- so the
byte stream sliced into 128-byte frames is literally what goes on air.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.index.ci import AnnotationScheme, CompactIndex
from repro.index.nodes import RowBuilder, flag_value
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.index.twotier import OffsetList


class IndexEncodingError(ValueError):
    """Raised when a structure cannot be encoded or decoded."""


#: Decoding refuses trees deeper than this; real guides stay far below
#: (document depth is generator-bounded), so only hostile streams hit it.
_MAX_DECODE_DEPTH = 128


@dataclass(frozen=True)
class LabelTable:
    """Dictionary encoding of element labels."""

    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        ids = {label: label_id for label_id, label in enumerate(self.labels)}
        if len(ids) != len(self.labels):
            raise IndexEncodingError("label table has duplicate labels")
        # Frozen dataclass: the O(1) reverse map rides along as a non-field
        # attribute (it is derived, so equality/hash stay label-based).
        object.__setattr__(self, "_ids", ids)

    @classmethod
    def from_index(cls, index: CompactIndex) -> "LabelTable":
        return cls(tuple(sorted(set(index.labels))))

    def id_of(self, label: str) -> int:
        label_id = self._ids.get(label)  # type: ignore[attr-defined]
        if label_id is None:
            raise IndexEncodingError(f"label {label!r} not in table")
        return label_id

    def label_of(self, label_id: int) -> str:
        if not 0 <= label_id < len(self.labels):
            raise IndexEncodingError(f"label id {label_id} out of range")
        return self.labels[label_id]

    def encode(self) -> bytes:
        out = [struct.pack(">H", len(self.labels))]
        for label_id, label in enumerate(self.labels):
            raw = label.encode("utf-8")
            if len(raw) > 255:
                raise IndexEncodingError(f"label too long: {label!r}")
            out.append(struct.pack(">HB", label_id, len(raw)))
            out.append(raw)
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes) -> "LabelTable":
        try:
            (count,) = struct.unpack_from(">H", data, 0)
            pos = 2
            labels: List[str] = [""] * count
            for _ in range(count):
                label_id, length = struct.unpack_from(">HB", data, pos)
                pos += 3
                if label_id >= count:
                    raise IndexEncodingError(f"label id {label_id} out of range")
                if pos + length > len(data):
                    raise IndexEncodingError("truncated label table")
                labels[label_id] = data[pos : pos + length].decode("utf-8")
                pos += length
        except (struct.error, UnicodeDecodeError) as exc:
            raise IndexEncodingError("malformed label table") from exc
        return cls(tuple(labels))


_WIRE_MODEL_FIELDS = {
    "flag_bytes": 2,
    "count_bytes": 2,
    "label_bytes": 2,
    "pointer_bytes": 4,
    "doc_id_bytes": 2,
}


def _check_wire_model(model: SizeModel) -> None:
    """The struct formats below are fixed; reject mismatched size models."""
    for field_name, expected in _WIRE_MODEL_FIELDS.items():
        actual = getattr(model, field_name)
        if actual != expected:
            raise IndexEncodingError(
                f"binary encoding requires {field_name}={expected}, got {actual}; "
                "custom size models support size accounting only"
            )


def _check_ranges(index: CompactIndex) -> None:
    _check_wire_model(index.size_model)
    for child_ids, doc_ids in zip(index.children, index.doc_ids):
        for doc_id in doc_ids:
            if not 0 <= doc_id <= 0xFFFF:
                raise IndexEncodingError(
                    f"doc id {doc_id} does not fit the 2-byte field"
                )
        if len(child_ids) > 0xFFFF or len(doc_ids) > 0xFFFF:
            raise IndexEncodingError("node counts exceed 2-byte fields")


def encode_index(
    index: CompactIndex,
    label_table: Optional[LabelTable] = None,
    one_tier: bool = True,
    doc_offsets: Optional[Mapping[int, int]] = None,
) -> bytes:
    """Serialise an index tree into its on-air byte stream.

    *doc_offsets* supplies the one-tier document pointers (cycle offsets);
    documents without an entry get offset 0, which encoders of not-yet-
    scheduled cycles use as a placeholder.
    """
    _check_ranges(index)
    if label_table is None:
        label_table = LabelTable.from_index(index)
    node_offsets: List[int] = []
    position = 0
    for node_size in index.node_sizes(one_tier):
        node_offsets.append(position)
        position += node_size

    labels = index.labels
    out: List[bytes] = []
    for node_id, (child_ids, doc_ids) in enumerate(zip(index.children, index.doc_ids)):
        flag = flag_value(node_id, len(child_ids))
        out.append(struct.pack(">HHH", flag, len(child_ids), len(doc_ids)))
        for child in child_ids:
            label_id = label_table.id_of(labels[child])
            out.append(struct.pack(">HI", label_id, node_offsets[child]))
        for doc_id in doc_ids:
            if one_tier:
                offset = doc_offsets.get(doc_id, 0) if doc_offsets else 0
                out.append(struct.pack(">HI", doc_id, offset))
            else:
                out.append(struct.pack(">H", doc_id))
    blob = b"".join(out)
    if len(blob) != position:
        raise IndexEncodingError(
            f"encoded {len(blob)} bytes but size model predicted {position}"
        )
    return blob


def decode_index(
    data: bytes,
    label_table: LabelTable,
    one_tier: bool = True,
    size_model: SizeModel = PAPER_SIZE_MODEL,
    root_label: Optional[str] = None,
    annotation: AnnotationScheme = "maximal",
) -> Tuple[CompactIndex, Dict[int, int]]:
    """Reconstruct an index tree (and one-tier doc offsets) from bytes.

    The root node starts at offset 0.  Returns the rebuilt index and the
    ``doc_id -> offset`` mapping recovered from one-tier doc pointers
    (empty in the first-tier layout).  The stream does not say how its
    annotations are laid out; whoever carries it (the cycle header) passes
    *annotation* along.
    """
    doc_offsets: Dict[int, int] = {}
    #: offsets of the nodes on the current root-to-node path; a child
    #: pointer back into this set is a cycle (plain sharing of an already
    #: *finished* offset re-parses it, exactly as the recursive decoder
    #: did).
    in_progress: set = set()

    def unpack(fmt: str, at: int):
        try:
            return struct.unpack_from(fmt, data, at)
        except struct.error as exc:
            raise IndexEncodingError(
                f"truncated index stream at offset {at}"
            ) from exc

    def parse_node(
        at: int, depth: int
    ) -> Tuple[Tuple[int, ...], List[Tuple[str, int]]]:
        """Decode one node; return its doc ids and its child entries.

        Defends against malformed/hostile streams: pointer cycles and
        chains deeper than the decode limit are rejected (the limit kept
        for wire-format parity with the recursive decoder, although the
        iterative walk cannot blow the interpreter stack anyway).
        """
        if depth > _MAX_DECODE_DEPTH:
            raise IndexEncodingError("index tree deeper than the decode limit")
        if at in in_progress:
            raise IndexEncodingError(f"pointer cycle through offset {at}")
        if not 0 <= at < len(data):
            raise IndexEncodingError(f"child pointer {at} outside the stream")
        flag, child_count, doc_count = unpack(">HHH", at)
        pos = at + 6
        entries: List[Tuple[str, int]] = []
        for _ in range(child_count):
            label_id, pointer = unpack(">HI", pos)
            entries.append((label_table.label_of(label_id), pointer))
            pos += 6
        docs: List[int] = []
        for _ in range(doc_count):
            if one_tier:
                doc_id, offset = unpack(">HI", pos)
                doc_offsets[doc_id] = offset
                pos += 6
            else:
                (doc_id,) = unpack(">H", pos)
                pos += 2
            docs.append(doc_id)
        if sorted(set(docs)) != sorted(docs):
            raise IndexEncodingError(f"duplicate doc ids in node at offset {at}")
        if flag == 1 and entries:
            raise IndexEncodingError("leaf flag on a node with children")
        return tuple(sorted(docs)), entries

    if not data:
        raise IndexEncodingError("empty index stream")
    rows = RowBuilder()
    docs, root_entries = parse_node(0, 0)
    in_progress.add(0)
    # A node's own label is known only to its parent (labels live in the
    # entry, not the node); the root's comes from outside the stream.
    if root_label is None:
        root_label = "?"
    # frame: [offset, row, child entries, next entry index]; following the
    # pointers depth first visits the nodes in preorder, whatever order
    # the stream stores them in
    stack: List[List] = [[0, rows.open(root_label, docs), root_entries, 0]]
    while stack:
        frame = stack[-1]
        entries = frame[2]
        if frame[3] == len(entries):
            in_progress.discard(frame[0])
            rows.close(frame[1])
            stack.pop()
            continue
        label, pointer = entries[frame[3]]
        frame[3] += 1
        docs, child_entries = parse_node(pointer, len(stack))
        in_progress.add(pointer)
        stack.append([pointer, rows.open(label, docs), child_entries, 0])
    from repro.dataguide.roxsum import CombinedDataGuide

    virtual = root_label == CombinedDataGuide.VIRTUAL_ROOT_LABEL
    try:
        index = CompactIndex(
            rows, size_model=size_model, virtual_root=virtual, annotation=annotation
        )
    except ValueError as exc:
        raise IndexEncodingError(f"decoded tree is not a valid index: {exc}") from exc
    return index, doc_offsets


def encode_offset_list(offset_list: OffsetList) -> bytes:
    """Serialise a second-tier offset list."""
    parts = [struct.pack(">H", len(offset_list.entries))]
    for doc_id, offset in offset_list.entries:
        parts.append(struct.pack(">HI", doc_id, offset))
    blob = b"".join(parts)
    if len(blob) != offset_list.size_bytes:
        raise IndexEncodingError(
            f"encoded {len(blob)} bytes, size model said {offset_list.size_bytes}"
        )
    return blob


def decode_offset_list(
    data: bytes, size_model: SizeModel = PAPER_SIZE_MODEL
) -> OffsetList:
    try:
        (count,) = struct.unpack_from(">H", data, 0)
        pos = 2
        entries: List[Tuple[int, int]] = []
        for _ in range(count):
            doc_id, offset = struct.unpack_from(">HI", data, pos)
            entries.append((doc_id, offset))
            pos += 6
    except struct.error as exc:
        raise IndexEncodingError("truncated offset list") from exc
    try:
        return OffsetList(tuple(entries), size_model=size_model)
    except ValueError as exc:
        raise IndexEncodingError(f"malformed offset list: {exc}") from exc
