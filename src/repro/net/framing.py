"""Length-prefixed wire framing shared by uplink and downlink.

Every frame on the socket is::

    length (4, big-endian) | kind (1) | payload | checksum trailer

``length`` counts everything after itself (kind + payload + trailer).
The trailer exists only when the server's
:class:`~repro.index.sizes.SizeModel` reserves ``checksum_bytes`` per
packet (the fault-injection extension): it carries the CRC-32 of
``kind | payload``, truncated (or zero-padded) to that many bytes, and
readers verify it -- the same end-to-end integrity check the simulated
checksummed packets model, applied at frame granularity on the stream.

Uplink frames are :attr:`FrameKind.TEXT` carrying UTF-8 command and
reply lines (see :mod:`repro.net.uplink`); downlink frames are the
binary cycle stream (see :mod:`repro.net.wire`).
"""

from __future__ import annotations

import asyncio
import enum
import struct
import zlib
from typing import Tuple

_LENGTH = struct.Struct(">I")

#: Reject frames claiming to be larger than this (hostile/corrupt peers).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ConnectionError):
    """Raised on a malformed, oversized or checksum-failing frame."""


class FrameKind(enum.IntEnum):
    """Wire frame types."""

    TEXT = 0x01  #: uplink command / response line (UTF-8)
    CYCLE_BEGIN = 0x10  #: JSON cycle header (layout, schedule, signature)
    INDEX = 0x11  #: label table + encoded index tree
    OFFSETS = 0x12  #: second-tier offset list
    DOC = 0x13  #: one document: JSON header line + serialized XML
    CYCLE_END = 0x14  #: end-of-cycle marker
    SERVER_BYE = 0x15  #: daemon drained and is closing the downlink


def _trailer(kind: int, payload: bytes, checksum_bytes: int) -> bytes:
    crc = zlib.crc32(bytes([kind]) + payload) & 0xFFFFFFFF
    raw = crc.to_bytes(4, "big")
    if checksum_bytes <= 4:
        return raw[4 - checksum_bytes :]
    return b"\x00" * (checksum_bytes - 4) + raw


def encode_frame(kind: FrameKind, payload: bytes, checksum_bytes: int = 0) -> bytes:
    """Serialise one frame, with a checksum trailer when configured."""
    trailer = _trailer(int(kind), payload, checksum_bytes) if checksum_bytes else b""
    body_len = 1 + len(payload) + len(trailer)
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {body_len} bytes exceeds the wire limit")
    return _LENGTH.pack(body_len) + bytes([int(kind)]) + payload + trailer


def _split_body(body: bytes, checksum_bytes: int) -> Tuple[FrameKind, bytes]:
    try:
        kind = FrameKind(body[0])
    except ValueError as exc:
        raise FrameError(f"unknown frame kind 0x{body[0]:02x}") from exc
    if checksum_bytes:
        payload = body[1 : len(body) - checksum_bytes]
        trailer = body[len(body) - checksum_bytes :]
        if trailer != _trailer(int(kind), payload, checksum_bytes):
            raise FrameError(f"checksum mismatch on {kind.name} frame")
    else:
        payload = body[1:]
    return kind, payload


async def read_frame(
    reader: asyncio.StreamReader, checksum_bytes: int = 0
) -> Tuple[FrameKind, bytes]:
    """Read and verify exactly one frame from *reader*.

    Raises :class:`asyncio.IncompleteReadError` on EOF mid-frame and
    :class:`FrameError` on a malformed one.
    """
    header = await reader.readexactly(4)
    (body_len,) = _LENGTH.unpack(header)
    if body_len < 1 + checksum_bytes or body_len > MAX_FRAME_BYTES:
        raise FrameError(f"implausible frame length {body_len}")
    body = await reader.readexactly(body_len)
    return _split_body(body, checksum_bytes)


async def read_frame_mixed(
    reader: asyncio.StreamReader, checksum_bytes: int = 0
) -> Tuple[FrameKind, bytes]:
    """Read one frame whose trailer width depends on its kind.

    TEXT frames (uplink replies) never carry a checksum trailer; the
    binary cycle frames carry ``checksum_bytes``.  Tuned clients need
    this because both interleave on the same stream.
    """
    header = await reader.readexactly(4)
    (body_len,) = _LENGTH.unpack(header)
    if body_len < 1 or body_len > MAX_FRAME_BYTES:
        raise FrameError(f"implausible frame length {body_len}")
    body = await reader.readexactly(body_len)
    effective = 0 if body[0] == FrameKind.TEXT else checksum_bytes
    return _split_body(body, effective)


def encode_text(line: str, checksum_bytes: int = 0) -> bytes:
    """Convenience: one TEXT frame holding a command/response line."""
    return encode_frame(FrameKind.TEXT, line.encode("utf-8"), checksum_bytes)
