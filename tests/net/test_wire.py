"""Cycle wire codec: encode -> decode must round-trip byte-exactly.

The decoder's ``verify=True`` recomputes the program signature over the
*reconstructed* cycle and compares it to the header's -- so a passing
``feed`` chain here proves the wire stream carries everything the
signature covers: index bytes, offset lists, layout, schedule and
channel assignment.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.program import IndexScheme, program_signature
from repro.broadcast.server import DocumentStore
from repro.net.framing import FrameKind
from repro.net.wire import CycleDecoder, WireProtocolError, encode_cycle
from repro.sim.config import small_setup
from repro.sim.simulation import make_server
from repro.xmlkit import parse_document, serialize_document


@pytest.fixture(scope="module")
def store(nitf_docs):
    return DocumentStore(nitf_docs[:40])


@pytest.fixture(scope="module")
def hostile_frames(store, nitf_queries):
    """One honest K=2 cycle's ``(kind, payload)`` stream, for rewriting."""
    cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)
    return [(frame.kind, frame.payload) for frame in encode_cycle(cycle, store)]


def _build_cycle(store, queries, **overrides):
    config = small_setup(**overrides)
    server = make_server(config, store)
    for i, query in enumerate(queries):
        try:
            server.submit(query, arrival_time=0)
        except ValueError:
            continue
    cycle = server.build_cycle()
    assert cycle is not None
    return cycle


def _round_trip(cycle, store, **decoder_kwargs):
    decoder = CycleDecoder(**decoder_kwargs)
    result = None
    for frame in encode_cycle(cycle, store):
        assert result is None, "no frames may follow CYCLE_END"
        result = decoder.feed(frame.kind, frame.payload)
    assert result is not None
    return result, decoder


class TestRoundTrip:
    def test_two_tier_single_channel(self, store, nitf_queries):
        cycle = _build_cycle(store, nitf_queries[:8])
        rebuilt, _ = _round_trip(cycle, store)
        assert program_signature(rebuilt) == program_signature(cycle)

    def test_one_tier(self, store, nitf_queries):
        cycle = _build_cycle(
            store, nitf_queries[:8], scheme=IndexScheme.ONE_TIER
        )
        rebuilt, _ = _round_trip(cycle, store)
        assert program_signature(rebuilt) == program_signature(cycle)

    def test_multichannel_k4(self, store, nitf_queries):
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=4)
        rebuilt, _ = _round_trip(cycle, store)
        assert program_signature(rebuilt) == program_signature(cycle)
        assert rebuilt.num_data_channels == 4
        assert rebuilt.doc_channels == cycle.doc_channels

    def test_multiple_cycles_one_decoder(self, store, nitf_queries):
        """The decoder resets between cycles on one stream."""
        config = small_setup()
        server = make_server(config, store)
        for query in nitf_queries[:10]:
            try:
                server.submit(query, arrival_time=0)
            except ValueError:
                continue
        decoder = CycleDecoder()
        signatures = []
        for _ in range(3):
            cycle = server.build_cycle()
            if cycle is None:
                break
            for frame in encode_cycle(cycle, store):
                rebuilt = decoder.feed(frame.kind, frame.payload)
            assert program_signature(rebuilt) == program_signature(cycle)
            signatures.append(decoder.last_header["signature"])
        assert len(signatures) >= 2
        assert len(set(signatures)) == len(signatures)

    def test_doc_frame_bodies_parse_back(self, store, nitf_queries):
        """Each DOC frame carries its document's exact serialized XML
        after the header line."""
        cycle = _build_cycle(store, nitf_queries[:8])
        bodies = {
            frame.doc_id: frame.payload.partition(b"\n")[2]
            for frame in encode_cycle(cycle, store)
            if frame.kind is FrameKind.DOC
        }
        assert set(bodies) == set(cycle.doc_ids)
        for doc_id, body in bodies.items():
            original = store.document(doc_id)
            parsed = parse_document(body.decode("utf-8"), doc_id=doc_id)
            assert serialize_document(parsed) == serialize_document(original)


class TestFrameMetadata:
    def test_air_bytes_cover_the_cycle(self, store, nitf_queries):
        """Per-frame on-air footprints sum to the cycle's total bytes."""
        cycle = _build_cycle(store, nitf_queries[:8])
        frames = encode_cycle(cycle, store)
        assert sum(f.air_bytes for f in frames) == cycle.total_bytes
        assert frames[0].kind is FrameKind.CYCLE_BEGIN
        assert frames[-1].kind is FrameKind.CYCLE_END
        assert max(f.end_offset for f in frames) == cycle.total_bytes

    def test_doc_frames_carry_channels(self, store, nitf_queries):
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)
        doc_frames = [
            f for f in encode_cycle(cycle, store) if f.kind is FrameKind.DOC
        ]
        assert {f.channel for f in doc_frames} <= {0, 1}
        assert len(doc_frames) == len(cycle.doc_ids)


class TestTamperDetection:
    def test_signature_mismatch_raises(self, store, nitf_queries):
        cycle = _build_cycle(store, nitf_queries[:8])
        frames = encode_cycle(cycle, store)
        decoder = CycleDecoder()
        for frame in frames:
            payload = frame.payload
            if frame.kind is FrameKind.CYCLE_BEGIN:
                header = json.loads(payload.decode("utf-8"))
                header["signature"] = "0" * 64
                payload = json.dumps(header, sort_keys=True).encode("utf-8")
            if frame.kind is FrameKind.CYCLE_END:
                with pytest.raises(WireProtocolError, match="signature"):
                    decoder.feed(frame.kind, payload)
                return
            decoder.feed(frame.kind, payload)

    def test_missing_document_detected(self, store, nitf_queries):
        cycle = _build_cycle(store, nitf_queries[:8])
        frames = encode_cycle(cycle, store)
        doc_frames = [f for f in frames if f.kind is FrameKind.DOC]
        decoder = CycleDecoder()
        dropped = doc_frames[0]
        with pytest.raises(WireProtocolError):
            for frame in frames:
                if frame is dropped:
                    continue
                decoder.feed(frame.kind, frame.payload)

    def test_frames_outside_cycle_rejected(self):
        decoder = CycleDecoder()
        with pytest.raises(WireProtocolError, match="outside"):
            decoder.feed(FrameKind.INDEX, b"")


def _feed_all(frames, **decoder_kwargs):
    decoder = CycleDecoder(share=False, **decoder_kwargs)
    result = None
    for kind, payload in frames:
        result = decoder.feed(kind, payload)
    return result


def _rewrite(cycle, store, kind, edit, which=0):
    """The cycle's frames with the *which*-th *kind* payload edited."""
    frames, seen = [], 0
    for frame in encode_cycle(cycle, store):
        payload = frame.payload
        if frame.kind is kind:
            if seen == which:
                payload = edit(payload)
            seen += 1
        frames.append((frame.kind, payload))
    return frames


def _swap_entries(entry_bytes):
    def edit(payload):
        first = payload[2 : 2 + entry_bytes]
        second = payload[2 + entry_bytes : 2 + 2 * entry_bytes]
        return payload[:2] + second + first + payload[2 + 2 * entry_bytes :]

    return edit


def _doc_field(key, value):
    """Overwrite one field of a DOC frame's JSON header line."""

    def edit(payload):
        head, _, body = payload.partition(b"\n")
        info = json.loads(head)
        info[key] = value(info[key]) if callable(value) else value
        return json.dumps(info).encode("utf-8") + b"\n" + body

    return edit


def _doc_channel(channel):
    return _doc_field(
        "channel", channel if channel is not None else lambda current: 1 - current
    )


#: K=2 OFFSETS entries are <doc 2 | channel 1 | offset 4>
_HOSTILE_OFFSETS = {
    "swapped": _swap_entries(7),
    "duplicated": lambda p: p[:9] + p[2:9] + p[16:],
    "channel-out-of-range": lambda p: p[:4] + b"\x07" + p[5:],
    "truncated": lambda p: p[:-3],
}


def _header_edit(edit):
    """Rewrite the CYCLE_BEGIN JSON: *edit* takes the parsed header and
    returns whatever should be serialised in its place."""

    def rewrite(payload):
        return json.dumps(edit(json.loads(payload))).encode("utf-8")

    return rewrite


def _without(key):
    return _header_edit(lambda header: {k: v for k, v in header.items() if k != key})


def _with(key, value):
    return _header_edit(lambda header: {**header, key: value})


#: rewritten headers, each with what ``CycleDecoder`` let out before it
#: validated them
_HOSTILE_HEADERS = {
    "header is a list": _header_edit(lambda header: [header]),  # AttributeError
    "header is a number": _header_edit(lambda header: 7),  # AttributeError
    "no packet_bytes": _without("packet_bytes"),  # KeyError
    "no virtual_root": _without("virtual_root"),  # KeyError
    "no annotation": _without("annotation"),  # KeyError
    "no signature": _without("signature"),  # KeyError (verifying, and in the client)
    "packet_bytes is a string": _with("packet_bytes", "x"),  # TypeError
    "packet_bytes is 0": _with("packet_bytes", 0),  # ValueError
    "checksum_bytes is 200": _with("checksum_bytes", 200),  # ValueError
    "unknown scheme": _with("scheme", "bogus"),  # ValueError
    "unknown packing": _with("packing", "bogus"),  # ValueError
    # found while validating the rest of what the decoder reads
    "segments leave a gap": _with("segments", [["index", 128, 128]]),  # ValueError
    "segment is a pair": _with("segments", [["index", 0]]),  # ValueError
    "doc id is a list": _with("doc_ids", [[1]]),  # TypeError
    "packet_bytes is true": _with("packet_bytes", True),  # ValueError
    "no segments": _with("segments", []),  # a cycle with no index segment
    "nesting": lambda payload: b"[" * 100_000,  # RecursionError
}

#: any JSON value, with the shapes and magnitudes a header field takes
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.sampled_from([0, 1, 2, 7, 8, 128, 200, 256, 257, 2**32])
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.sampled_from(
        ["two-tier", "one-tier", "greedy-dfs", "bfs", "maximal", "containment",
         "index", "data", "balanced", "#root"]
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


class TestWireShape:
    """One CYCLE_BEGIN shape and one OFFSETS codec for every K."""

    @pytest.mark.parametrize("allocation", ("round-robin", "balanced", "demand"))
    @pytest.mark.parametrize("num_channels", (1, 2, 4))
    def test_channel_layout_round_trips_from_doc_frames(
        self, store, nitf_queries, num_channels, allocation
    ):
        """The header carries K and the policy only; queues, spans and the
        channel map are rebuilt from the DOC frames and must come back
        equal."""
        cycle = _build_cycle(
            store,
            nitf_queries[:12],
            num_data_channels=num_channels,
            channel_allocation=allocation,
        )
        assert len(cycle.doc_ids) >= 2
        rebuilt, decoder = _round_trip(cycle, store, verify=True, share=False)
        header = decoder.last_header
        assert header["num_channels"] == num_channels
        assert header["allocation"] == allocation
        assert not {"multichannel", "channel_queues", "channel_spans"} & set(header)
        assert rebuilt.num_data_channels == num_channels
        assert rebuilt.allocation == allocation
        assert rebuilt.channel_queues == cycle.channel_queues
        assert rebuilt.channel_spans == cycle.channel_spans
        assert rebuilt.doc_channels == cycle.doc_channels
        assert rebuilt.offset_list_air_bytes == cycle.offset_list_air_bytes
        assert rebuilt.idle_padding_bytes == cycle.idle_padding_bytes
        assert program_signature(rebuilt) == program_signature(cycle)


class TestHostileOffsets:
    """Corrupted second tiers and DOC channel fields are typed protocol
    errors (the client's drop/resume path), never a bare ValueError."""

    @pytest.mark.parametrize("corruption", sorted(_HOSTILE_OFFSETS))
    def test_k2_offsets_corruption_is_a_wire_error(
        self, store, nitf_queries, corruption
    ):
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)
        assert len(cycle.doc_ids) >= 2
        frames = _rewrite(
            cycle, store, FrameKind.OFFSETS, _HOSTILE_OFFSETS[corruption]
        )
        with pytest.raises(WireProtocolError):
            _feed_all(frames)

    def test_k1_unsorted_offsets_is_a_wire_error(self, store, nitf_queries):
        cycle = _build_cycle(store, nitf_queries[:8])
        assert len(cycle.doc_ids) >= 2
        frames = _rewrite(cycle, store, FrameKind.OFFSETS, _swap_entries(6))
        with pytest.raises(WireProtocolError, match="offset list"):
            _feed_all(frames)

    @pytest.mark.parametrize("channel", (None, 2, -1))
    def test_doc_header_channel_must_agree(self, store, nitf_queries, channel):
        """``None`` flips the document to the other (valid) channel."""
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)
        frames = _rewrite(cycle, store, FrameKind.DOC, _doc_channel(channel))
        with pytest.raises(WireProtocolError, match="channel"):
            _feed_all(frames, verify=False)

    @pytest.mark.parametrize("key", ("offset", "air_bytes", "channel"))
    @pytest.mark.parametrize("value", ("12", None, 1.5), ids=repr)
    def test_doc_header_placement_fields_must_be_ints(
        self, store, nitf_queries, key, value
    ):
        """``air_bytes`` feeds the span rebuild's arithmetic: a string or
        null there must not escape ``feed`` as a bare TypeError."""
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)
        frames = _rewrite(cycle, store, FrameKind.DOC, _doc_field(key, value))
        with pytest.raises(WireProtocolError, match="document header"):
            _feed_all(frames, verify=False)

    @pytest.mark.parametrize("num_channels", (0, 257, 10**9, "2", None))
    def test_header_channel_count_is_bounded(self, store, nitf_queries, num_channels):
        """The one-byte channel field caps K at 256; a header asking for
        more must be refused before the decoder sizes anything by it."""
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)

        def edit(payload):
            header = json.loads(payload)
            header["num_channels"] = num_channels
            return json.dumps(header).encode("utf-8")

        frames = _rewrite(cycle, store, FrameKind.CYCLE_BEGIN, edit)
        with pytest.raises(WireProtocolError, match="channel count"):
            _feed_all(frames, verify=False)

    @pytest.mark.parametrize("case", _HOSTILE_HEADERS)
    def test_hostile_cycle_header_is_a_wire_error(self, store, nitf_queries, case):
        """The header is checked once, where it is parsed: a rewritten
        ``CYCLE_BEGIN`` never gets as far as the code that trusted it."""
        cycle = _build_cycle(store, nitf_queries[:8], num_data_channels=2)
        frames = _rewrite(cycle, store, FrameKind.CYCLE_BEGIN, _HOSTILE_HEADERS[case])
        for verify in (True, False):
            with pytest.raises(WireProtocolError):
                _feed_all(frames, verify=verify)

    @given(
        st.dictionaries(
            st.sampled_from(
                ["format", "cycle_number", "start_time", "scheme", "packing",
                 "annotation", "virtual_root", "root_label", "degraded",
                 "packet_bytes", "checksum_bytes", "doc_header_bytes",
                 "segments", "doc_ids", "signature", "num_channels",
                 "allocation", "cluster", "plan"]
            ),
            st.none() | st.tuples(_json_values),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_fuzzed_header_fields_decode_or_raise_typed(
        self, hostile_frames, edits, verify
    ):
        """Any fields dropped (``None``) or overwritten with any JSON
        value: the stream decodes to a cycle that can be signed, or it is
        refused with ``WireProtocolError`` -- nothing else gets out."""

        def edit(header):
            for key, value in edits.items():
                if value is None:
                    header.pop(key, None)
                else:
                    header[key] = value[0]
            return header

        frames = [
            (kind, _header_edit(edit)(payload) if kind is FrameKind.CYCLE_BEGIN else payload)
            for kind, payload in hostile_frames
        ]
        try:
            cycle = _feed_all(frames, verify=verify)
        except WireProtocolError:
            return
        assert len(program_signature(cycle)) == 64

    def test_single_channel_doc_header_must_say_channel_zero(
        self, store, nitf_queries
    ):
        cycle = _build_cycle(store, nitf_queries[:8], scheme=IndexScheme.ONE_TIER)
        frames = _rewrite(cycle, store, FrameKind.DOC, _doc_channel(1))
        with pytest.raises(WireProtocolError, match="channel"):
            _feed_all(frames, verify=False)

    def test_resuming_client_reconnects_past_a_corrupted_k2_cycle(self, nitf_docs):
        """A frame-rewriting proxy swaps two OFFSETS entries of the first
        K=2 cycle it relays; a resume-mode client must drop that
        connection, come back through the same door and finish."""
        import asyncio

        from repro.net import AsyncTwoTierClient, BroadcastDaemon, DaemonConfig
        from repro.net.framing import encode_frame, read_frame

        corrupted = []

        async def pump_up(reader, writer):
            try:
                while data := await reader.read(65536):
                    writer.write(data)
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()

        async def pump_down(reader, writer):
            try:
                while True:
                    kind, payload = await read_frame(reader)
                    if kind is FrameKind.OFFSETS and not corrupted:
                        (count,) = struct.unpack_from(">H", payload, 0)
                        if count >= 2:
                            payload = _swap_entries(7)(payload)
                            corrupted.append(count)
                    writer.write(encode_frame(kind, payload))
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                pass
            finally:
                writer.close()

        async def body():
            daemon = BroadcastDaemon(
                DocumentStore(nitf_docs[:40]),
                small_setup(num_data_channels=2, cycle_data_capacity=4_000),
                DaemonConfig(),
            )
            await daemon.start()

            async def relay(client_reader, client_writer):
                up_reader, up_writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                await asyncio.gather(
                    pump_up(client_reader, up_writer),
                    pump_down(up_reader, client_writer),
                )

            proxy = await asyncio.start_server(relay, "127.0.0.1", 0)
            try:
                client = AsyncTwoTierClient(
                    "//nitf",
                    port=proxy.sockets[0].getsockname()[1],
                    client_key=7,
                    resume=True,
                )
                return await client.run()
            finally:
                proxy.close()
                await proxy.wait_closed()
                daemon.request_stop()
                await daemon.wait_done()

        report = asyncio.run(asyncio.wait_for(body(), timeout=60))
        assert corrupted, "the proxy never saw a two-entry OFFSETS frame"
        assert report.satisfied
        assert report.resumes >= 1
