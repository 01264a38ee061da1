"""Wire framing: round-trips, checksum trailers, malformed input."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, strategies as st

from repro.net.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameKind,
    encode_frame,
    encode_text,
    read_frame,
    read_frame_mixed,
)


def decode_frame(data: bytes, checksum_bytes: int = 0):
    """Decode one frame from the head of *data* through :func:`read_frame`.

    Returns ``(kind, payload, consumed_bytes)``; a buffer that ends
    mid-frame raises :class:`FrameError` like a malformed one.
    """

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader, checksum_bytes)

    try:
        kind, payload = asyncio.run(read())
    except asyncio.IncompleteReadError as exc:
        raise FrameError("truncated frame") from exc
    return kind, payload, 4 + int.from_bytes(data[:4], "big")


class TestRoundTrip:
    @given(
        kind=st.sampled_from(sorted(FrameKind)),
        payload=st.binary(max_size=512),
        checksum=st.integers(min_value=0, max_value=8),
    )
    def test_encode_decode_identity(self, kind, payload, checksum):
        blob = encode_frame(kind, payload, checksum)
        out_kind, out_payload, consumed = decode_frame(blob, checksum)
        assert out_kind is kind
        assert out_payload == payload
        assert consumed == len(blob)

    def test_text_helper(self):
        blob = encode_text("STATUS")
        kind, payload, _ = decode_frame(blob)
        assert kind is FrameKind.TEXT
        assert payload == b"STATUS"

    def test_back_to_back_frames(self):
        stream = encode_text("A") + encode_text("BB")
        kind, payload, consumed = decode_frame(stream)
        assert payload == b"A"
        kind, payload, _ = decode_frame(stream[consumed:])
        assert payload == b"BB"


class TestChecksum:
    def test_corrupt_payload_detected(self):
        blob = bytearray(encode_frame(FrameKind.DOC, b"hello world", 2))
        blob[8] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(blob), 2)

    def test_corrupt_trailer_detected(self):
        blob = bytearray(encode_frame(FrameKind.INDEX, b"payload", 4))
        blob[-1] ^= 0x01
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(blob), 4)

    def test_wide_trailer_zero_padded(self):
        """checksum_bytes > 4 pads the CRC-32 on the left with zeros."""
        blob = encode_frame(FrameKind.DOC, b"x", 6)
        kind, payload, _ = decode_frame(blob, 6)
        assert (kind, payload) == (FrameKind.DOC, b"x")


class TestMalformed:
    def test_truncated_length(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00")

    def test_truncated_body(self):
        blob = encode_text("STATUS")
        with pytest.raises(FrameError):
            decode_frame(blob[:-1])

    def test_unknown_kind(self):
        import struct

        blob = struct.pack(">I", 1) + b"\x7f"
        with pytest.raises(FrameError, match="unknown frame kind"):
            decode_frame(blob)

    def test_oversized_length_rejected(self):
        import struct

        blob = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\x01"
        with pytest.raises(FrameError, match="implausible"):
            decode_frame(blob)


class TestAsyncReaders:
    def _reader_for(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_frame(self):
        async def run():
            reader = self._reader_for(encode_frame(FrameKind.DOC, b"abc", 2))
            return await read_frame(reader, 2)

        assert asyncio.run(run()) == (FrameKind.DOC, b"abc")

    def test_read_frame_eof(self):
        async def run():
            reader = self._reader_for(encode_text("HI")[:-1])
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)

        asyncio.run(run())

    def test_mixed_reader_switches_on_kind(self):
        """TEXT frames never carry a trailer even when binary frames do."""

        async def run():
            stream = encode_text("ACK 1 0") + encode_frame(
                FrameKind.INDEX, b"blob", 2
            )
            reader = self._reader_for(stream)
            first = await read_frame_mixed(reader, 2)
            second = await read_frame_mixed(reader, 2)
            return first, second

        first, second = asyncio.run(run())
        assert first == (FrameKind.TEXT, b"ACK 1 0")
        assert second == (FrameKind.INDEX, b"blob")
