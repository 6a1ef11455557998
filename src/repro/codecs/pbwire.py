"""Protocol-Buffers wire format, from scratch.

Implements the protobuf encoding primitives (base-128 varints, ZigZag,
wire types 0/1/2/5) and a schema-driven message codec compatible with the
real wire format for the supported field types:

- ``int64`` / ``sint64`` (varint, the latter ZigZag-coded)
- ``bool`` (varint 0/1)
- ``double`` (wire type 1, little-endian IEEE-754)
- ``float`` (wire type 5)
- ``string`` / ``bytes`` (length-delimited)
- ``message`` (length-delimited nested message)
- ``repeated`` variants of all of the above (packed for scalars)

Unknown fields are skipped on decode, as protobuf requires - that is the
forward-compatibility property that makes it attractive for multivendor
interfaces.

A schema is fixed once built, so :meth:`PbMessage.encode` / ``.decode`` do
not walk it per message: on first use the schema is *lowered* to one flat
encoder and one flat decoder - generated Python source, the technique
:mod:`repro.wasm.aot` uses - with field names, tag bytes and ``struct``
packers as constants.  The generic walker (:meth:`PbMessage.walk_encode` /
``.walk_decode``) is kept as the reference the tests compare the generated
code against; nothing else calls it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.codecs.base import Codec, CodecError

_WT_VARINT = 0
_WT_64BIT = 1
_WT_LEN = 2
_WT_32BIT = 5

_WIRE_TYPE_BY_KIND = {
    "int64": _WT_VARINT,
    "sint64": _WT_VARINT,
    "bool": _WT_VARINT,
    "double": _WT_64BIT,
    "float": _WT_32BIT,
    "string": _WT_LEN,
    "bytes": _WT_LEN,
    "message": _WT_LEN,
}


def write_varint(value: int) -> bytes:
    """Encode an integer in [-2**63, 2**64) as a protobuf varint."""
    if not -(1 << 63) <= value < 1 << 64:
        raise CodecError(f"varint out of range: {value}")
    if value < 0:
        value += 1 << 64  # protobuf encodes negative int64 as 10-byte varint
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        if shift >= 70:
            raise CodecError("varint too long")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result & ((1 << 64) - 1), pos
        shift += 7


def zigzag_encode(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


@dataclass(frozen=True)
class PbField:
    """One field of a protobuf message schema."""

    number: int
    name: str
    kind: str  # 'int64' | 'sint64' | 'bool' | 'double' | 'float' | 'string' | 'bytes' | 'message'
    repeated: bool = False
    message: "PbMessage | None" = None  # schema for kind == 'message'

    def __post_init__(self):
        if not 1 <= self.number <= 536_870_911:
            raise ValueError(f"field number {self.number} out of range")
        if self.kind not in _WIRE_TYPE_BY_KIND:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "message" and self.message is None:
            raise ValueError("message fields need a nested schema")

    @property
    def key(self) -> int:
        """The tag this field is written with (packed fields aside)."""
        return (self.number << 3) | _WIRE_TYPE_BY_KIND[self.kind]


class PbMessage:
    """A message schema: an ordered set of :class:`PbField`."""

    def __init__(self, name: str, fields: list[PbField]):
        self.name = name
        self.fields = list(fields)
        numbers = [f.number for f in fields]
        if len(set(numbers)) != len(numbers):
            raise ValueError(f"duplicate field numbers in {name}")
        self.by_number = {f.number: f for f in fields}
        self.by_name = {f.name: f for f in fields}
        #: ``(encoder, decoder)`` once lowered; two threads lowering at
        #: once both finish and one assignment wins
        self._lowered = None

    def encode(self, values: dict[str, Any]) -> bytes:
        out = bytearray()
        (self._lowered or _lower(self))[0](values, out)
        return bytes(out)

    def decode(self, data: bytes) -> dict[str, Any]:
        return (self._lowered or _lower(self))[1](data)

    # ----- the reference walker -----------------------------------------------

    def walk_encode(self, values: dict[str, Any]) -> bytes:
        """:meth:`encode` by walking the schema: the tests' reference."""
        out = bytearray()
        for field in self.fields:
            if field.name not in values:
                continue
            value = values[field.name]
            tag = write_varint(field.key)
            if not field.repeated:
                out += tag + self._walk_value(field, value)
            elif field.kind in ("string", "bytes", "message"):
                for item in value:
                    out += tag + self._walk_value(field, item)
            elif value:
                packed = b"".join(self._walk_value(field, item) for item in value)
                out += write_varint((field.number << 3) | _WT_LEN)
                out += write_varint(len(packed)) + packed
        return bytes(out)

    @staticmethod
    def _walk_value(field: PbField, value: Any) -> bytes:
        kind = field.kind
        if kind == "int64":
            return write_varint(int(value))
        if kind == "sint64":
            return write_varint(zigzag_encode(int(value)))
        if kind == "bool":
            return write_varint(1 if value else 0)
        if kind == "double":
            return struct.pack("<d", float(value))
        if kind == "float":
            return struct.pack("<f", float(value))
        if kind == "string":
            payload = str(value).encode("utf-8")
        elif kind == "bytes":
            payload = bytes(value)
        else:
            payload = field.message.walk_encode(value)
        return write_varint(len(payload)) + payload

    def walk_decode(self, data: bytes) -> dict[str, Any]:
        """:meth:`decode` by walking the schema: the tests' reference."""
        values: dict[str, Any] = {}
        pos = 0
        while pos < len(data):
            key, pos = read_varint(data, pos)
            field = self.by_number.get(key >> 3)
            if field is None or key != field.key:
                pos = self._decode_rare(values, data, pos, key)
                continue
            if key & 7 == _WT_LEN:
                length, pos = read_varint(data, pos)
                end = pos + length
                if end > len(data):
                    raise CodecError("truncated length-delimited field")
                raw = data[pos:end]
                pos = end
                if field.kind == "string":
                    try:
                        value = raw.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CodecError(f"bad utf-8 in {field.name}: {exc}") from None
                elif field.kind == "bytes":
                    value = raw
                else:
                    value = field.message.walk_decode(raw)
            else:
                value, pos = self._decode_scalar(data, pos, field)
            if field.repeated:
                values.setdefault(field.name, []).append(value)
            else:
                values[field.name] = value  # last one wins, per proto3
        return values

    # ----- shared by the walker and the lowered decoder -----------------------

    def _decode_rare(self, values: dict[str, Any], data: bytes, pos: int,
                     key: int) -> int:
        """A key that is not some field's own tag: an unknown field, a
        packed repeated scalar or a wire-type mismatch.  Returns the
        position after it."""
        wire_type = key & 7
        field = self.by_number.get(key >> 3)
        if field is None:
            return self._skip(data, pos, wire_type)
        expected = _WIRE_TYPE_BY_KIND[field.kind]
        if wire_type != _WT_LEN or expected == _WT_LEN or not field.repeated:
            raise CodecError(
                f"field {field.name}: wire type {wire_type}, expected {expected}"
            )
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated packed field")
        items = values.setdefault(field.name, [])
        while pos < end:
            value, pos = self._decode_scalar(data, pos, field)
            items.append(value)
        return pos

    @staticmethod
    def _decode_scalar(data: bytes, pos: int, field: PbField) -> tuple[Any, int]:
        if field.kind in ("int64", "sint64", "bool"):
            raw, pos = read_varint(data, pos)
            if field.kind == "sint64":
                return zigzag_decode(raw), pos
            if field.kind == "bool":
                return bool(raw), pos
            # int64: interpret as two's complement
            return raw - (1 << 64) if raw >= 1 << 63 else raw, pos
        if field.kind == "double":
            if pos + 8 > len(data):
                raise CodecError("truncated double")
            return struct.unpack_from("<d", data, pos)[0], pos + 8
        if field.kind == "float":
            if pos + 4 > len(data):
                raise CodecError("truncated float")
            return struct.unpack_from("<f", data, pos)[0], pos + 4
        raise CodecError(f"not a scalar kind: {field.kind}")  # pragma: no cover

    @staticmethod
    def _skip(data: bytes, pos: int, wire_type: int) -> int:
        if wire_type == _WT_VARINT:
            _, pos = read_varint(data, pos)
            return pos
        if wire_type == _WT_64BIT:
            pos += 8
        elif wire_type == _WT_32BIT:
            pos += 4
        elif wire_type == _WT_LEN:
            length, pos = read_varint(data, pos)
            pos += length
        else:
            raise CodecError(f"cannot skip wire type {wire_type}")
        if pos > len(data):
            raise CodecError("truncated unknown field")
        return pos


# ---------------------------------------------------------------------------
# lowering: one schema -> one flat encoder and one flat decoder, as source
# ---------------------------------------------------------------------------

_FIXED = {"double": ("d", 8), "float": ("f", 4)}

#: what the generated source names besides its own schema's constants
_HELPERS = {
    "CodecError": CodecError,
    "write_varint": write_varint,
    "read_varint": read_varint,
    "_pack_d": struct.Struct("<d").pack,
    "_unpack_d": struct.Struct("<d").unpack_from,
    "_pack_f": struct.Struct("<f").pack,
    "_unpack_f": struct.Struct("<f").unpack_from,
}

_PATCH_LENGTH = [
    "n = len(out) - start",
    "if n < 128:",
    "    out[start - 1] = n",
    "else:",  # rare: the one-byte placeholder widens
    "    out[start - 1:start] = write_varint(n)",
]


def _indent(lines: list[str], levels: int = 1) -> list[str]:
    return ["    " * levels + line for line in lines]


def _put_varint(var: str) -> list[str]:
    return [f"if 0 <= {var} < 128:", f"    append({var})",
            "else:", f"    out += write_varint({var})"]


def _get_varint(var: str) -> list[str]:
    # past the end, data[pos] raises the IndexError _dec maps to
    # "truncated varint"
    return [f"{var} = data[pos]", f"if {var} < 128:", "    pos += 1",
            "else:", f"    {var}, pos = read_varint(data, pos)"]


def _emit_put(field: PbField, tag: bytes) -> list[str]:
    """Source appending ``v`` as one ``field`` value after ``tag`` (empty
    inside a packed run)."""
    if len(tag) == 1:
        put_tag = [f"append({tag[0]})"]
    else:
        put_tag = [f"out += {tag!r}"] if tag else []
    kind = field.kind
    if kind in ("int64", "sint64"):
        lines = ["if v.__class__ is not int:", "    v = int(v)"]
        if kind == "sint64":
            lines.append("v = (v << 1) ^ (v >> 63)")
        return lines + put_tag + _put_varint("v")
    if kind == "bool":
        return [f"out += {tag + bytes([1])!r} if v else {tag + bytes([0])!r}"]
    if kind in _FIXED:
        return put_tag + [f"out += _pack_{_FIXED[kind][0]}(float(v))"]
    if kind == "message":  # in place, behind a length byte patched after
        return [f"out += {tag + bytes([0])!r}", "start = len(out)",
                f"_enc{field.number}(v, out)", *_PATCH_LENGTH]
    payload = "str(v).encode('utf-8')" if kind == "string" else "bytes(v)"
    return [f"v = {payload}", *put_tag, "n = len(v)", *_put_varint("n"),
            "out += v"]


def _emit_encoder(schema: PbMessage) -> list[str]:
    """``_enc(values, out)``: fields in schema order, which is wire order."""
    body = ["append = out.append"]
    for field in schema.fields:
        tag = write_varint(field.key)
        if not field.repeated:
            arm = [f"v = values[{field.name!r}]", *_emit_put(field, tag)]
        elif field.kind in ("string", "bytes", "message"):
            arm = [f"for v in values[{field.name!r}]:",
                   *_indent(_emit_put(field, tag))]
        else:
            packed_tag = write_varint((field.number << 3) | _WT_LEN)
            arm = [
                f"value = values[{field.name!r}]",
                "if value:",
                f"    out += {packed_tag + bytes([0])!r}",
                "    start = len(out)",
                "    for v in value:",
                *_indent(_emit_put(field, b""), 2),
                *_indent(_PATCH_LENGTH),
            ]
        body += [f"if {field.name!r} in values:", *_indent(arm)]
    return ["def _enc(values, out):", *_indent(body)]


def _emit_get(field: PbField) -> list[str]:
    """Source reading one ``field`` value at ``pos`` into ``v``."""
    kind = field.kind
    if kind in ("int64", "sint64", "bool"):
        lines = _get_varint("v")
        if kind == "int64":  # two's complement; one byte is never negative
            lines += ["    if v >= 9223372036854775808:",
                      "        v -= 18446744073709551616"]
        elif kind == "sint64":
            lines.append("v = (v >> 1) ^ -(v & 1)")
        else:
            lines.append("v = v != 0")
        return lines
    if kind in _FIXED:
        fmt, size = _FIXED[kind]
        return [f"if pos + {size} > n:",
                f"    raise CodecError('truncated {kind}')",
                f"v = _unpack_{fmt}(data, pos)[0]", f"pos += {size}"]
    lines = _get_varint("end") + [
        "end += pos",
        "if end > n:",
        "    raise CodecError('truncated length-delimited field')",
    ]
    if kind == "string":
        lines += [
            "try:",
            "    v = data[pos:end].decode('utf-8')",
            "except UnicodeDecodeError as exc:",
            f"    raise CodecError('bad utf-8 in %s: %s' % ({field.name!r}, exc))"
            " from None",
        ]
    elif kind == "bytes":
        lines.append("v = data[pos:end]")
    else:  # a slice: a truncated child is judged against the child's end
        lines.append(f"v = _dec{field.number}(data[pos:end])")
    return lines + ["pos = end"]


def _emit_decoder(schema: PbMessage) -> list[str]:
    """``_dec(data)``: one loop over tags with an arm per field's own key,
    in schema order, each arm reading the next tag itself - so fields that
    arrive in schema order (ours do) cost one compare apiece, and a run of
    one repeated field stays in its arm.  A key no arm took on the way
    down either belongs to an earlier arm (the loop goes round again) or
    is not some field's own tag: :meth:`PbMessage._decode_rare`."""
    next_key = ["if pos >= n:", "    return values", *_get_varint("key")]
    arms, lists = [], []
    for field in schema.fields:
        if field.repeated:
            items = f"l{field.number}"
            lists.append(f"{items} = None")
            store = [f"if {items} is None:",
                     f"    {items} = values.setdefault({field.name!r}, [])",
                     f"{items}.append(v)"]
        else:
            store = [f"values[{field.name!r}] = v"]  # last one wins, per proto3
        arms += [f"{'while' if field.repeated else 'if'} key == {field.key}:",
                 *_indent(_emit_get(field) + store + next_key)]
    arms += ["if key not in _keys:",
             *_indent(["pos = _rare(values, data, pos, key)"] + next_key)]
    return [
        "def _dec(data):",
        "    values = {}",
        "    n = len(data)",
        "    pos = 0",
        *_indent(lists),
        "    try:",
        *_indent(next_key, 2),
        "        while True:",
        *_indent(arms, 3),
        "    except IndexError:",
        "        raise CodecError('truncated varint') from None",
    ]


def _lower(schema: PbMessage) -> tuple[Any, Any]:
    """Generate, compile and memoize ``schema``'s encoder and decoder
    (nested schemas first)."""
    ns = dict(_HELPERS, _rare=schema._decode_rare,
              _keys=frozenset(field.key for field in schema.fields))
    for field in schema.fields:
        if field.kind == "message":
            child = field.message._lowered or _lower(field.message)
            ns[f"_enc{field.number}"], ns[f"_dec{field.number}"] = child
    source = "\n".join(_emit_encoder(schema) + _emit_decoder(schema))
    exec(compile(source, f"<pbwire:{schema.name}>", "exec"), ns)
    schema._lowered = ns["_enc"], ns["_dec"]
    return schema._lowered


class PbWireCodec(Codec):
    """A :class:`Codec` over one top-level :class:`PbMessage` schema."""

    name = "pbwire"

    def __init__(self, schema: PbMessage):
        self.schema = schema

    def encode(self, message: dict[str, Any]) -> bytes:
        return self.schema.encode(message)

    def decode(self, payload: bytes) -> dict[str, Any]:
        return self.schema.decode(payload)
