"""Length-prefixed framing over byte streams.

Frame layout: ``u32 total_length | u16 source_len | source | payload``
(all little-endian).  ``total_length`` counts everything after itself.
"""

from __future__ import annotations

import struct

MAX_FRAME = 16 << 20  # 16 MiB


class FrameError(ValueError):
    """Malformed or oversized frame."""


def write_frame(source: str, payload: bytes) -> bytes:
    src = source.encode("utf-8")
    if len(src) > 0xFFFF:
        raise FrameError("source name too long")
    body = struct.pack("<H", len(src)) + src + payload
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame too large: {len(body)}")
    return struct.pack("<I", len(body)) + body


def read_frame(recv_exact) -> tuple[str, bytes]:
    """Read one frame using ``recv_exact(n) -> bytes | bytearray`` (raises on EOF)."""
    (length,) = struct.unpack("<I", recv_exact(4))
    if length > MAX_FRAME:
        raise FrameError(f"frame too large: {length}")
    body = recv_exact(length)
    if len(body) < 2:
        raise FrameError("frame too short for source header")
    (src_len,) = struct.unpack_from("<H", body, 0)
    if 2 + src_len > len(body):
        raise FrameError("source name overruns frame")
    source = body[2 : 2 + src_len].decode("utf-8")
    return source, bytes(memoryview(body)[2 + src_len :])
