"""Cycle <-> wire-frame codec: the downlink stream format.

One broadcast cycle streams as::

    CYCLE_BEGIN   JSON header: cycle number, start byte-time, scheme,
                  packing strategy, segment layout, document schedule,
                  data channel count K with its allocation policy, and
                  the cycle's program_signature
    INDEX         label table + the on-air index encoding
                  (one-tier layout with embedded doc pointers, or the
                  first-tier layout under the two-tier scheme)
    OFFSETS       second-tier offset list (two-tier scheme only);
                  ``<doc, channel, offset>`` triples when K > 1
    DOC ...       one frame per scheduled document, in air order:
                  JSON header line (doc id, channel, offset, air bytes)
                  + the serialized XML document
    CYCLE_END     JSON trailer (cycle number, total on-air bytes)

Every frame carries pacing metadata (:class:`WireFrame`): its on-air
byte footprint under the :class:`~repro.index.sizes.SizeModel` and the
cycle-relative byte-time at which it ends, so the daemon's token bucket
paces the stream on the *channel model's* clock, not on TCP bytes.

:class:`CycleDecoder` reconstructs a full
:class:`~repro.broadcast.program.BroadcastCycle` from the frames: the
index tree is decoded byte-exactly, both packings are re-derived with
the server's packing strategy (packing is a pure function of the tree),
the per-channel queues and spans are rebuilt from the DOC frames'
``channel``/``offset``/``air_bytes``, and the rebuilt cycle's
:func:`~repro.broadcast.program.program_signature` is checked against
the header's.  A client feeding the reconstructed cycle to the
*unchanged* access protocols therefore counts access and tuning bytes
identically to the simulator -- the parity the differential test pins.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.broadcast.packets import CycleLayout, PacketKind, Segment
from repro.broadcast.partition import PartitionMap
from repro.broadcast.program import (
    BroadcastCycle,
    IndexScheme,
    program_signature,
)
from repro.index.encoding import (
    LabelTable,
    decode_index,
    decode_offset_list,
    encode_index,
    encode_offset_list,
)
from repro.index.packing import PackingStrategy, pack_index
from repro.index.sizes import SizeModel
from repro.index.twotier import CHANNEL_ID_BYTES, OffsetList
from repro.net.framing import FrameKind
from repro.xmlkit.serialize import serialize_document

WIRE_FORMAT_VERSION = 2


class WireProtocolError(ConnectionError):
    """Raised when the downlink stream violates the cycle protocol."""


@dataclass(frozen=True)
class WireFrame:
    """One downlink frame plus its pacing metadata."""

    kind: FrameKind
    payload: bytes
    #: on-air byte footprint this frame represents (0 for markers)
    air_bytes: int
    #: cycle-relative byte-time at which this frame's content ends
    end_offset: int
    #: data channel a DOC frame airs on (``None`` for index/marker frames)
    channel: Optional[int] = None
    #: document a DOC frame carries (``None`` otherwise); lets the
    #: daemon's query tracer stamp deliveries without re-parsing payloads
    doc_id: Optional[int] = None


def _json_payload(obj: object) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def cycle_header(
    cycle: BroadcastCycle,
    ack_required: bool = False,
    cluster: Optional[Dict] = None,
    plan: Optional[Dict] = None,
) -> Dict:
    """The CYCLE_BEGIN header describing everything but the bytes.

    ``cluster`` is a shard-configured daemon's placement contract
    (:meth:`~repro.broadcast.partition.ShardIdentity.header`); it is
    embedded only when given, so an unsharded daemon's headers stay
    byte-identical to before the cluster tier existed (and the decoder
    ignores unknown keys, so old clients keep working against shards).
    ``plan`` is an adaptive daemon's active control-plane plan
    (:meth:`~repro.control.plan.CyclePlan.header`), embedded under the
    same opt-in contract: static daemons never carry the key, so their
    headers stay byte-identical to before the control plane existed.
    """
    model = cycle.pci.size_model
    header: Dict = {
        "format": WIRE_FORMAT_VERSION,
        "cycle_number": cycle.cycle_number,
        "start_time": cycle.start_time,
        "scheme": cycle.scheme.value,
        "packing": cycle.packed_first_tier.strategy.value,
        "annotation": cycle.pci.annotation,
        "virtual_root": cycle.pci.virtual_root,
        "root_label": cycle.pci.labels[0],
        "degraded": cycle.degraded,
        "packet_bytes": model.packet_bytes,
        "checksum_bytes": model.checksum_bytes,
        "doc_header_bytes": model.doc_header_bytes,
        "segments": [
            [segment.kind.value, segment.start, segment.length]
            for segment in cycle.layout.segments
        ],
        "doc_ids": list(cycle.doc_ids),
        "signature": program_signature(cycle),
        "ack_required": ack_required,
        "num_channels": cycle.num_data_channels,
        "allocation": cycle.allocation,
    }
    if cluster is not None:
        header["cluster"] = cluster
    if plan is not None:
        header["plan"] = plan
    return header


def _encode_offsets(cycle: BroadcastCycle) -> bytes:
    """The OFFSETS payload: the second tier as it goes on air, with
    ``<doc, channel, offset>`` entries when K > 1."""
    if cycle.num_data_channels == 1:
        return encode_offset_list(cycle.offset_list)
    channels = cycle.doc_channels
    entries = cycle.offset_list.entries
    return struct.pack(">H", len(entries)) + b"".join(
        struct.pack(">HBI", doc_id, channels[doc_id], offset)
        for doc_id, offset in entries
    )


def _decode_offsets(
    data: bytes, num_channels: int, size_model: SizeModel
) -> Tuple[OffsetList, Dict[int, int]]:
    """Inverse of :func:`_encode_offsets`: the list and ``doc -> channel``.

    The payload is outside input: a truncated, unsorted or repeating
    list, or a channel no data channel answers to, is a
    :class:`WireProtocolError`.
    """
    try:
        if num_channels == 1:
            offset_list = decode_offset_list(data, size_model=size_model)
            return offset_list, {doc_id: 0 for doc_id, _offset in offset_list.entries}
        (count,) = struct.unpack_from(">H", data, 0)
        triples = [struct.unpack_from(">HBI", data, 2 + 7 * i) for i in range(count)]
        offset_list = OffsetList(
            tuple((doc_id, offset) for doc_id, _channel, offset in triples),
            size_model=size_model,
        )
    except (struct.error, ValueError) as exc:  # IndexEncodingError is a ValueError
        raise WireProtocolError(f"malformed offset list: {exc}") from exc
    for doc_id, channel, _offset in triples:
        if channel >= num_channels:
            raise WireProtocolError(
                f"offset list puts doc {doc_id} on channel {channel}, but "
                f"only {num_channels} data channels exist"
            )
    return offset_list, {doc_id: channel for doc_id, channel, _offset in triples}


def encode_cycle(
    cycle: BroadcastCycle,
    store,
    ack_required: bool = False,
    cluster: Optional[Dict] = None,
    plan: Optional[Dict] = None,
) -> List[WireFrame]:
    """Serialise one cycle into its downlink frames, in streaming order."""
    label_table = LabelTable.from_index(cycle.pci)
    one_tier = cycle.scheme is IndexScheme.ONE_TIER
    index_blob = encode_index(
        cycle.pci,
        label_table,
        one_tier=one_tier,
        doc_offsets=cycle.doc_offsets if one_tier else None,
    )
    table_blob = label_table.encode()
    index_segment = cycle.layout.segments[0]

    frames = [
        WireFrame(
            FrameKind.CYCLE_BEGIN,
            _json_payload(
                cycle_header(cycle, ack_required, cluster=cluster, plan=plan)
            ),
            air_bytes=0,
            end_offset=0,
        ),
        WireFrame(
            FrameKind.INDEX,
            struct.pack(">I", len(table_blob)) + table_blob + index_blob,
            air_bytes=index_segment.length,
            end_offset=index_segment.end,
        ),
    ]
    if not one_tier:
        offsets_segment = cycle.layout.segment(PacketKind.SECOND_TIER_INDEX)
        assert offsets_segment is not None
        frames.append(
            WireFrame(
                FrameKind.OFFSETS,
                _encode_offsets(cycle),
                air_bytes=offsets_segment.length,
                end_offset=offsets_segment.end,
            )
        )
    doc_channels = cycle.doc_channels
    # Stores cache serialized documents; fall back for duck-typed stores.
    serialized = getattr(store, "serialized", None)
    for doc_id in sorted(
        cycle.doc_ids,
        key=lambda d: (cycle.doc_offsets[d], doc_channels[d], d),
    ):
        document = store.document(doc_id)
        air = cycle.doc_air_bytes[doc_id]
        offset = cycle.doc_offsets[doc_id]
        doc_header = _json_payload(
            {
                "doc_id": doc_id,
                "name": document.name,
                "channel": doc_channels[doc_id],
                "offset": offset,
                "air_bytes": air,
            }
        )
        body = (
            serialized(doc_id)
            if serialized is not None
            else serialize_document(document).encode("utf-8")
        )
        frames.append(
            WireFrame(
                FrameKind.DOC,
                doc_header + b"\n" + body,
                air_bytes=air,
                end_offset=offset + air,
                channel=doc_channels[doc_id],
                doc_id=doc_id,
            )
        )
    frames.append(
        WireFrame(
            FrameKind.CYCLE_END,
            _json_payload(
                {"cycle_number": cycle.cycle_number, "total_bytes": cycle.total_bytes}
            ),
            air_bytes=0,
            end_offset=cycle.total_bytes,
        )
    )
    return frames


_SEGMENT_KINDS = {kind.value: kind for kind in PacketKind}

#: CYCLE_BEGIN fields the decoder reads, each with its JSON type(s)
_HEADER_FIELDS: Dict[str, Tuple[type, ...]] = {
    "cycle_number": (int,),
    "start_time": (int, float),
    "scheme": (str,),
    "packing": (str,),
    "annotation": (str,),
    "virtual_root": (bool,),
    "root_label": (str,),
    "degraded": (str, type(None)),
    "packet_bytes": (int,),
    "checksum_bytes": (int,),
    "doc_header_bytes": (int,),
    "segments": (list,),
    "doc_ids": (list,),
    "signature": (str,),
    "allocation": (str,),
}


def _is_a(value: object, kinds: Tuple[type, ...]) -> bool:
    """``isinstance`` under JSON typing, where ``true`` is no number."""
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def check_tuning(num_channels: Any, checksum_bytes: Any, cluster: Any) -> None:
    """Refuse a channel model a client cannot tune by: the one check of
    every ``CYCLE_BEGIN`` header and of the ``TUNED`` banner.

    K must fit the second tier's channel field (a larger one is hostile,
    and would size the decoder's queue rebuild), the checksum trailer is
    a non-negative integer, and a ``cluster`` placement names an integer
    shard and epoch and a map
    :meth:`~repro.broadcast.partition.PartitionMap.from_description` takes.
    """
    if not _is_a(num_channels, (int,)) or not 1 <= num_channels <= 256**CHANNEL_ID_BYTES:
        raise WireProtocolError(f"bad data channel count {num_channels!r}")
    if not _is_a(checksum_bytes, (int,)) or checksum_bytes < 0:
        raise WireProtocolError(f"bad checksum trailer size {checksum_bytes!r}")
    if cluster is None:
        return
    if not (
        isinstance(cluster, dict)
        and _is_a(cluster.get("shard"), (int,))
        and _is_a(cluster.get("epoch", 0), (int,))
        and isinstance(cluster.get("map"), dict)
    ):
        raise WireProtocolError(f"bad cluster placement {cluster!r}")
    try:
        PartitionMap.from_description(cluster["map"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(f"bad partition map: {exc}") from exc


@dataclass(frozen=True)
class _CycleHeader:
    """A CYCLE_BEGIN header, checked once where it is parsed.

    The header is outside input.  Everything the decoder goes on to read
    from it is present, of the right JSON type, in range and a known
    enum value, or :meth:`parse` raises :class:`WireProtocolError`.  So
    are the ``plan`` and ``cluster`` values the client goes on to read;
    keys nobody reads pass through in ``fields`` untouched.
    """

    fields: Dict
    model: SizeModel
    scheme: IndexScheme
    strategy: PackingStrategy
    layout: CycleLayout

    @classmethod
    def parse(cls, payload: bytes) -> "_CycleHeader":
        try:
            fields = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise WireProtocolError("malformed cycle header") from exc
        if not isinstance(fields, dict):
            raise WireProtocolError("cycle header is not a JSON object")
        if fields.get("format") != WIRE_FORMAT_VERSION:
            raise WireProtocolError(
                f"unsupported wire format {fields.get('format')!r}"
            )
        for name, kinds in _HEADER_FIELDS.items():
            if not _is_a(fields.get(name, ...), kinds):  # ``...``: missing
                raise WireProtocolError(
                    f"cycle header field {name!r} must be "
                    f"{'/'.join(kind.__name__ for kind in kinds)}, "
                    f"not {fields.get(name, ...)!r}"
                )
        if fields["annotation"] not in ("maximal", "containment"):
            raise WireProtocolError(f"unknown annotation {fields['annotation']!r}")
        check_tuning(
            fields.get("num_channels"), fields["checksum_bytes"], fields.get("cluster")
        )
        plan = fields.get("plan")
        if plan is not None and not (
            isinstance(plan, dict)
            and _is_a(plan.get("k", 1), (int,))
            and 1 <= plan.get("k", 1) <= 256**CHANNEL_ID_BYTES
        ):
            raise WireProtocolError(f"bad control plan {plan!r}")
        if not all(_is_a(doc_id, (int,)) for doc_id in fields["doc_ids"]):
            raise WireProtocolError("cycle header schedules a non-integer doc id")
        segments = []
        for entry in fields["segments"]:
            if not (
                isinstance(entry, list)
                and len(entry) == 3
                and isinstance(entry[0], str)
                and entry[0] in _SEGMENT_KINDS
                and _is_a(entry[1], (int,))
                and _is_a(entry[2], (int,))
                and entry[2] >= 0
            ):
                raise WireProtocolError(f"malformed segment {entry!r}")
            segments.append(Segment(_SEGMENT_KINDS[entry[0]], entry[1], entry[2]))
        if not segments:
            raise WireProtocolError("cycle header lays out no index segment")
        try:
            model = SizeModel(
                packet_bytes=fields["packet_bytes"],
                checksum_bytes=fields["checksum_bytes"],
                doc_header_bytes=fields["doc_header_bytes"],
            )
            return cls(
                fields,
                model,
                IndexScheme(fields["scheme"]),
                PackingStrategy(fields["packing"]),
                CycleLayout(
                    tuple(segments),
                    packet_bytes=model.packet_bytes,
                    checksum_bytes=model.checksum_bytes,
                ),
            )
        except ValueError as exc:  # out of range, or no such enum value
            raise WireProtocolError(f"bad cycle header: {exc}") from exc


@dataclass
class _SharedCycle:
    """One cycle header's decode, shared by every decoder in the process.

    ``frames`` (every frame after CYCLE_BEGIN, CYCLE_END last) and
    ``cycle`` stay ``None`` until the first decoder to reach CYCLE_END
    decodes them; both are written once and never change after.
    """

    header: _CycleHeader
    frames: Optional[Tuple[Tuple[FrameKind, bytes], ...]] = None
    cycle: Optional[BroadcastCycle] = None


#: the frame kinds a cycle holds after its CYCLE_BEGIN
_CYCLE_FRAMES = frozenset(
    (FrameKind.INDEX, FrameKind.OFFSETS, FrameKind.DOC, FrameKind.CYCLE_END)
)


class CycleDecoder:
    """Reassemble streamed frames into a verified broadcast cycle.

    Feed frames in order; :meth:`feed` returns the reconstructed cycle
    at CYCLE_END (and ``None`` otherwise).  ``verify=True`` (default)
    raises :class:`WireProtocolError` unless the rebuilt cycle's
    :func:`~repro.broadcast.program.program_signature` matches the
    header's -- the byte-for-byte parity check.

    Decoding is a pure function of the cycle's frame bytes, so decoders
    in one process share a small LRU keyed by ``(verify, CYCLE_BEGIN
    bytes)``; the daemon sends every subscriber the same cycle bytes
    (trace timelines travel beside the cycle, as uplink ``TRACE``
    lines), so co-located clients decode each cycle once:

    * the header is parsed once, by the first decoder to see it;
    * until some decoder has decoded the cycle, the others only record
      its frames -- under pacing every subscriber begins a cycle before
      any of them ends it;
    * the first decoder to reach CYCLE_END runs the full, verifying
      decode (DOC heads, index tree, packings, signature check) and
      stores the frames it was fed with the decoded cycle;
    * every other decoder follows that entry: it accepts each frame only
      if it is identical in kind and bytes to the entry's frame at the
      same position, and gets the shared cycle at CYCLE_END.

    On the first difference a follower replays what it was fed through
    the full decode and carries on there, so a hit needs byte equality
    of every frame and a tampered stream never receives the cached
    cycle.  Structural errors (CYCLE_BEGIN inside an open cycle, a frame
    outside a cycle, an unknown kind) are raised at the frame that
    causes them; a malformed DOC head reaching a decoder that is still
    recording is raised at CYCLE_END.  Consumers treat decoded cycles and
    :attr:`last_header` as read-only (the access protocols only ever read
    them -- the parity suite pins this).  ``share=False`` decodes every
    frame in full and shares nothing.
    """

    #: ``(verify, CYCLE_BEGIN payload) -> entry`` LRU shared by all decoders
    _shared_cycles: "OrderedDict[Tuple[bool, bytes], _SharedCycle]" = OrderedDict()
    _SHARED_MAX = 8

    def __init__(
        self,
        verify: bool = True,
        share: bool = True,
    ) -> None:
        self.verify = verify
        self.share = share
        self.header: Optional[_CycleHeader] = None
        #: header of the most recently completed cycle (survives the
        #: per-cycle reset; callers read the signature from it)
        self.last_header: Optional[Dict] = None
        #: the shared entry this cycle records toward or follows
        #: (``None``: decoding every frame in full)
        self._shared: Optional[_SharedCycle] = None
        #: frames fed while no decoder had decoded the cycle yet
        self._fed: List[Tuple[FrameKind, bytes]] = []
        #: how many of the entry's frames this cycle has matched
        self._matched = 0
        self._index_payload: Optional[bytes] = None
        self._offsets_payload: Optional[bytes] = None
        self._doc_offsets: Dict[int, int] = {}
        self._doc_air: Dict[int, int] = {}
        self._doc_channels: Dict[int, int] = {}

    def feed(self, kind: FrameKind, payload: bytes) -> Optional[BroadcastCycle]:
        if kind is FrameKind.CYCLE_BEGIN:
            if self.header is not None:
                raise WireProtocolError("CYCLE_BEGIN inside an open cycle")
            self._begin(payload)
            return None
        if self.header is None:
            raise WireProtocolError(f"{kind.name} frame outside a cycle")
        if kind not in _CYCLE_FRAMES:
            raise WireProtocolError(f"unexpected {kind.name} frame in cycle stream")
        shared = self._shared
        if shared is None:
            return self._decode(kind, payload)
        frames = shared.frames
        if frames is None:
            if kind is not FrameKind.CYCLE_END:
                self._fed.append((kind, payload))
                return None
            # First to finish: decode in full, then share the result.
            fed, self._fed = self._fed, []
            shared.cycle = self._replay(fed, kind, payload)
            shared.frames = (*fed, (kind, payload))  # last: followers key on it
            return shared.cycle
        if self._fed:
            # Another decoder finished while this one recorded: check the
            # recording against its frames, then follow them.
            fed, self._fed = self._fed, []
            if frames[: len(fed)] != tuple(fed):
                return self._replay(fed, kind, payload)
            self._matched = len(fed)
        matched = self._matched
        expected_kind, expected = frames[matched]
        if expected_kind is kind and expected == payload:
            if kind is FrameKind.CYCLE_END:
                return self._end(shared.cycle)
            self._matched = matched + 1
            return None
        # First difference: the stream so far is the entry's prefix.
        return self._replay(frames[:matched], kind, payload)

    def _begin(self, payload: bytes) -> None:
        if not self.share:
            self.header = _CycleHeader.parse(payload)
            return
        cache = type(self)._shared_cycles
        key = (self.verify, payload)
        shared = cache.get(key)
        if shared is None:
            shared = cache[key] = _SharedCycle(_CycleHeader.parse(payload))
            while len(cache) > self._SHARED_MAX:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        self._shared, self._matched = shared, 0
        self.header = shared.header

    def _replay(
        self, fed: Sequence[Tuple[FrameKind, bytes]], kind: FrameKind, payload: bytes
    ) -> Optional[BroadcastCycle]:
        """Stop sharing: decode the frames *fed* so far, then this one, in full."""
        self._shared = None
        for frame in fed:
            self._decode(*frame)
        return self._decode(kind, payload)

    def _decode(self, kind: FrameKind, payload: bytes) -> Optional[BroadcastCycle]:
        """The full decode of one frame after CYCLE_BEGIN."""
        if kind is FrameKind.INDEX:
            self._index_payload = payload
        elif kind is FrameKind.OFFSETS:
            self._offsets_payload = payload
        elif kind is FrameKind.DOC:
            head = payload.partition(b"\n")[0]
            try:
                info = json.loads(head.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireProtocolError("malformed document header") from exc
            try:
                doc_id = info["doc_id"]
                placement = info["offset"], info["air_bytes"], info["channel"]
                if not all(isinstance(field, int) for field in placement):
                    raise TypeError("document placement fields must be integers")
                self._doc_offsets[doc_id] = placement[0]
                self._doc_air[doc_id] = placement[1]
                self._doc_channels[doc_id] = placement[2]
            except (KeyError, TypeError) as exc:
                raise WireProtocolError("malformed document header") from exc
        else:
            return self._end(self._finish())
        return None

    def _end(self, cycle: BroadcastCycle) -> BroadcastCycle:
        assert self.header is not None
        self.last_header = self.header.fields
        self._reset()
        return cycle

    def _reset(self) -> None:
        self.header = None
        self._shared = None
        self._matched = 0
        self._index_payload = None
        self._offsets_payload = None
        self._doc_offsets = {}
        self._doc_air = {}
        self._doc_channels = {}

    def _finish(self) -> BroadcastCycle:
        parsed = self.header
        assert parsed is not None
        header, model, layout = parsed.fields, parsed.model, parsed.layout
        if self._index_payload is None:
            raise WireProtocolError("cycle ended without an INDEX frame")
        one_tier = parsed.scheme is IndexScheme.ONE_TIER

        try:
            (table_len,) = struct.unpack_from(">I", self._index_payload, 0)
        except struct.error as exc:
            raise WireProtocolError("truncated index frame") from exc
        table_blob = self._index_payload[4 : 4 + table_len]
        index_blob = self._index_payload[4 + table_len :]
        label_table = LabelTable.decode(table_blob)
        pci, embedded_offsets = decode_index(
            index_blob,
            label_table,
            one_tier=one_tier,
            size_model=model,
            root_label=header["root_label"],
            annotation=header["annotation"],
        )
        if pci.virtual_root != header["virtual_root"]:
            raise WireProtocolError("virtual-root flag disagrees with header")

        packed_one = pack_index(pci, one_tier=True, strategy=parsed.strategy)
        packed_first = pack_index(pci, one_tier=False, strategy=parsed.strategy)

        num_channels = header["num_channels"]
        if one_tier:
            # The one-tier encoding also carries pointer 0 for annotated
            # but unscheduled documents; the DOC frame headers hold the
            # schedule's actual offsets, and the embedded pointers must
            # agree wherever a document is scheduled.
            doc_offsets = dict(self._doc_offsets)
            for doc_id, offset in doc_offsets.items():
                if embedded_offsets.get(doc_id, offset) != offset:
                    raise WireProtocolError(
                        f"one-tier pointer for doc {doc_id} disagrees with "
                        "its document frame"
                    )
            offset_list = OffsetList.from_mapping(doc_offsets, size_model=model)
            doc_channels = dict.fromkeys(doc_offsets, 0)
        else:
            if self._offsets_payload is None:
                raise WireProtocolError("two-tier cycle without an OFFSETS frame")
            offset_list, doc_channels = _decode_offsets(
                self._offsets_payload, num_channels, model
            )
            doc_offsets = dict(offset_list.entries)

        if set(doc_offsets) != set(header["doc_ids"]):
            raise WireProtocolError("offset list disagrees with the doc schedule")
        if self._doc_offsets and self._doc_offsets != doc_offsets:
            raise WireProtocolError("document frames disagree with the offset list")
        if set(self._doc_air) != set(header["doc_ids"]):
            raise WireProtocolError("missing document frames")
        if self._doc_channels != doc_channels:
            raise WireProtocolError(
                "document frames disagree with the offset list on a channel"
            )

        # Every channel airs its queue back-to-back from the data
        # segment's start, so air order within a channel is offset order.
        data = layout.segment(PacketKind.DATA)
        data_start = data.start if data else layout.total_bytes
        queues: List[List[int]] = [[] for _ in range(num_channels)]
        spans = [0] * num_channels
        for doc_id in sorted(doc_offsets, key=doc_offsets.__getitem__):
            channel = doc_channels[doc_id]
            queues[channel].append(doc_id)
            spans[channel] = doc_offsets[doc_id] + self._doc_air[doc_id] - data_start

        cycle = BroadcastCycle(
            cycle_number=header["cycle_number"],
            scheme=parsed.scheme,
            pci=pci,
            packed_one_tier=packed_one,
            packed_first_tier=packed_first,
            offset_list=offset_list,
            doc_ids=tuple(header["doc_ids"]),
            doc_offsets=doc_offsets,
            doc_air_bytes=dict(self._doc_air),
            layout=layout,
            num_data_channels=num_channels,
            doc_channels=doc_channels,
            channel_queues=tuple(tuple(queue) for queue in queues),
            channel_spans=tuple(spans),
            allocation=header["allocation"],
            start_time=header["start_time"],
            degraded=header["degraded"],
        )

        if self.verify:
            rebuilt = program_signature(cycle)
            if rebuilt != header["signature"]:
                raise WireProtocolError(
                    f"cycle {header['cycle_number']} signature mismatch: "
                    f"streamed {header['signature'][:12]}..., "
                    f"rebuilt {rebuilt[:12]}..."
                )
        return cycle
