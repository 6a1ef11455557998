"""LEB128 variable-length integer encoding (as used by the Wasm binary format).

Wasm uses unsigned LEB128 for sizes/indices and signed LEB128 for integer
literals.  Decoding enforces the spec's bound: an N-bit integer uses at most
``ceil(N/7)`` bytes, and unused bits in the final byte must be a proper sign
extension (signed) or zero (unsigned).
"""

from __future__ import annotations

from repro.wasm.traps import DecodeError


def encode_u(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128."""
    if value < 0:
        raise ValueError(f"unsigned LEB128 cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_s(value: int) -> bytes:
    """Encode a signed integer as signed LEB128."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        sign_bit = byte & 0x40
        if (value == 0 and not sign_bit) or (value == -1 and sign_bit):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def decode_u(
    data: bytes, pos: int, bits: int = 32, end: int | None = None
) -> tuple[int, int]:
    """Decode an unsigned LEB128 integer of at most ``bits`` bits.

    Reads no byte at or past ``end`` (default ``len(data)``), so a caller
    bounds a read to a section without copying it.  Returns ``(value,
    new_pos)``.  Raises :class:`DecodeError` on overlong encodings,
    out-of-range values, or input truncated at ``end``.
    """
    if end is None:
        end = len(data)
    result = 0
    shift = 0
    max_bytes = (bits + 6) // 7
    for i in range(max_bytes):
        if pos >= end:
            raise DecodeError("unexpected end of LEB128")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result >> bits:
                raise DecodeError(f"LEB128 value {result} exceeds {bits} bits")
            return result, pos
        shift += 7
    raise DecodeError(f"LEB128 integer too long for u{bits}")


def decode_s(
    data: bytes, pos: int, bits: int = 32, end: int | None = None
) -> tuple[int, int]:
    """Decode a signed LEB128 integer of at most ``bits`` bits, reading no
    byte at or past ``end`` (default ``len(data)``).

    Returns ``(value, new_pos)``.
    """
    if end is None:
        end = len(data)
    result = 0
    shift = 0
    max_bytes = (bits + 6) // 7
    for i in range(max_bytes):
        if pos >= end:
            raise DecodeError("unexpected end of LEB128")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if byte & 0x40:
                result |= -1 << shift
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            if not lo <= result <= hi:
                raise DecodeError(f"LEB128 value {result} out of s{bits} range")
            return result, pos
    raise DecodeError(f"LEB128 integer too long for s{bits}")
