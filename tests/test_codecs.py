"""Tests for the serialization codecs and bit-width adaptation."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import (
    Asn1Field,
    Asn1LiteCodec,
    Asn1Schema,
    CodecError,
    JsonCodec,
    PbField,
    PbMessage,
    PbWireCodec,
)
from repro.codecs.bitadapt import FieldSpec, adapt_message, narrow, widen
from repro.codecs.pbwire import (
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)
from repro.e2 import messages
from repro.e2.vendors import E2_PB_SCHEMA, VENDOR_B


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [(0, b"\x00"), (1, b"\x01"), (127, b"\x7f"), (128, b"\x80\x01"), (300, b"\xac\x02")],
    )
    def test_known_values(self, value, encoded):
        assert write_varint(value) == encoded
        assert read_varint(encoded, 0) == (value, len(encoded))

    def test_negative_int64_is_ten_bytes(self):
        assert len(write_varint(-1)) == 10

    def test_truncated(self):
        with pytest.raises(CodecError):
            read_varint(b"\x80", 0)

    @pytest.mark.parametrize(
        "value",
        [
            -(1 << 64) - 1,  # used to append 0xFF forever
            -(1 << 63) - 1,  # used to alias a positive value
            1 << 64,  # used to write 11 bytes read_varint rejects
        ],
    )
    def test_out_of_range_rejected(self, value):
        with pytest.raises(CodecError, match="out of range"):
            write_varint(value)

    def test_range_ends_accepted(self):
        assert read_varint(write_varint(-(1 << 63)), 0)[0] == 1 << 63
        assert read_varint(write_varint((1 << 64) - 1), 0)[0] == (1 << 64) - 1

    @given(st.integers(0, (1 << 64) - 1))
    def test_roundtrip(self, value):
        assert read_varint(write_varint(value), 0)[0] == value

    @given(st.integers(-(1 << 63), (1 << 63) - 1))
    def test_zigzag_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_zigzag_small_negatives_are_small(self):
        assert zigzag_encode(-1) == 1
        assert zigzag_encode(1) == 2
        assert zigzag_encode(-2) == 3


KPI = PbMessage(
    "Kpi",
    [
        PbField(1, "ue_id", "int64"),
        PbField(2, "cqi", "int64"),
        PbField(3, "throughput", "double"),
        PbField(4, "delta", "sint64"),
        PbField(5, "connected", "bool"),
        PbField(6, "tag", "string"),
        PbField(7, "raw", "bytes"),
        PbField(8, "samples", "double", repeated=True),
    ],
)

REPORT = PbMessage(
    "Report",
    [
        PbField(1, "cell_id", "int64"),
        PbField(2, "kpis", "message", repeated=True, message=KPI),
    ],
)


class TestPbWire:
    def test_roundtrip_all_kinds(self):
        msg = {
            "ue_id": 42,
            "cqi": 15,
            "throughput": 12.5,
            "delta": -3,
            "connected": True,
            "tag": "embb",
            "raw": b"\x00\x01\xff",
            "samples": [1.0, 2.5, -3.25],
        }
        codec = PbWireCodec(KPI)
        assert codec.decode(codec.encode(msg)) == msg

    def test_nested_messages(self):
        msg = {
            "cell_id": 7,
            "kpis": [{"ue_id": 1, "cqi": 9}, {"ue_id": 2, "cqi": 12}],
        }
        codec = PbWireCodec(REPORT)
        assert codec.decode(codec.encode(msg)) == msg

    def test_missing_fields_omitted(self):
        codec = PbWireCodec(KPI)
        assert codec.decode(codec.encode({"ue_id": 5})) == {"ue_id": 5}

    def test_unknown_fields_skipped(self):
        # encode with a schema that has an extra field; decode with KPI
        extended = PbMessage(
            "KpiV2", KPI.fields + [PbField(99, "extra", "string")]
        )
        payload = extended.encode({"ue_id": 1, "extra": "future-feature"})
        assert PbWireCodec(KPI).decode(payload) == {"ue_id": 1}

    def test_negative_int64(self):
        codec = PbWireCodec(KPI)
        assert codec.decode(codec.encode({"ue_id": -12}))["ue_id"] == -12

    def test_packed_repeated_scalars(self):
        codec = PbWireCodec(KPI)
        payload = codec.encode({"samples": [1.0, 2.0]})
        # packed: one tag + length + 16 payload bytes
        assert len(payload) == 1 + 1 + 16

    def test_wire_type_mismatch_rejected(self):
        # field 1 declared varint, give it a length-delimited payload
        bad = write_varint((1 << 3) | 2) + write_varint(3) + b"abc"
        with pytest.raises(CodecError, match="wire type"):
            PbWireCodec(KPI).decode(bad)

    @pytest.mark.parametrize(
        "tail",
        [
            "{len}e8070102",  # length 1000, two bytes there
            "{fixed64}010203",  # three bytes of eight
            "{fixed32}01",  # one byte of four
        ],
    )
    def test_truncated_unknown_field_rejected(self, tail):
        schema = PbMessage("A", [PbField(1, "a", "int64")])
        field9 = bytes.fromhex("0805" + tail.format(len="4a", fixed64="49", fixed32="4d"))
        for decode in (schema.decode, schema.walk_decode):
            with pytest.raises(CodecError, match="truncated unknown field"):
                decode(field9)
        field99 = VENDOR_B.encode(messages.control_request(1, "handover", 2, 3)) + (
            bytes.fromhex(tail.format(len="9a06", fixed64="9906", fixed32="9d06"))
        )
        with pytest.raises(CodecError, match="truncated unknown field"):
            VENDOR_B.decode(field99)

    def test_whole_unknown_field_still_skipped(self):
        schema = PbMessage("A", [PbField(1, "a", "int64")])
        for payload in ("08054a03010203", "0805490102030405060708", "08054d01020304"):
            data = bytes.fromhex(payload)
            assert schema.decode(data) == schema.walk_decode(data) == {"a": 5}

    @pytest.mark.parametrize("path", ["encode", "walk_encode"])
    @pytest.mark.parametrize("value", [-(1 << 64) - 1, -(1 << 63) - 1, 1 << 64])
    @pytest.mark.parametrize(
        "field,wrap",
        [
            (PbField(1, "x", "int64"), lambda v: v),
            (PbField(1, "x", "sint64"), lambda v: v),
            (PbField(1, "x", "int64", repeated=True), lambda v: [1, v]),
        ],
        ids=["int64", "sint64", "packed"],
    )
    def test_out_of_range_integer_rejected(self, field, wrap, value, path):
        encode = getattr(PbMessage("M", [field]), path)
        with pytest.raises(CodecError, match="out of range"):
            encode({"x": wrap(value)})

    def test_duplicate_field_numbers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PbMessage("Bad", [PbField(1, "a", "int64"), PbField(1, "b", "bool")])

    def test_bad_utf8_rejected(self):
        bad = write_varint((6 << 3) | 2) + write_varint(2) + b"\xff\xfe"
        with pytest.raises(CodecError, match="utf-8"):
            PbWireCodec(KPI).decode(bad)

    @given(
        st.integers(-(1 << 62), 1 << 62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.binary(max_size=64),
    )
    def test_roundtrip_property(self, ue_id, tput, raw):
        codec = PbWireCodec(KPI)
        msg = {"ue_id": ue_id, "throughput": tput, "raw": raw}
        assert codec.decode(codec.encode(msg)) == msg


def _items(value):
    """A decoded message with its key order: dict equality ignores order.
    A NaN (a hostile payload can carry one) compares by its bits, since
    ``nan != nan``."""
    if isinstance(value, dict):
        return [(k, _items(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_items(v) for v in value]
    if isinstance(value, float) and value != value:
        return ("nan", struct.pack("<d", value))
    return value


class TestE2GoldenBytes:
    """Wire bytes of the E2 dialect, pinned before the codec was lowered."""

    def test_48_ue_indication(self):
        ues = [
            {
                "ue_id": i + 1, "slice_id": i % 3 + 1, "cqi": i % 15 + 1,
                "neighbor_cell": i % 4 + 2, "neighbor_cqi": (i * 7) % 16,
                "avg_tput_bps": 125000.5 * i, "buffer_bytes": i * i * 37,
            }
            for i in range(48)
        ]
        slices = [
            {"slice_id": s, "measured_bps": 1e6 * s + 0.25, "target_bps": 5e6}
            for s in (1, 2, 3)
        ]
        message = messages.indication(3, 123456, ues, slices)
        payload = VENDOR_B.encode(message)
        assert len(payload) == 1264
        assert payload.hex().startswith(
            "0a0e7269635f696e6469636174696f6e280348c0c4075215"
        )
        assert hashlib.sha256(payload).hexdigest() == (
            "0849834899c959b717cec9d185301cfbd3be3c967dd3f59d56a9e789b3b56c29"
        )
        assert _items(VENDOR_B.decode(payload)) == _items(message)

    @pytest.mark.parametrize(
        "args,encoded",
        [
            (
                (17, "set_slice_quota", 2, 5000000),
                "0a137269635f636f6e74726f6c5f7265717565737460116a0f7365745f"
                "736c6963655f71756f7461700278c096b102",
            ),
            (  # a negative int64 is the ten-byte varint
                (18, "set_tx_power", 0, -7),
                "0a137269635f636f6e74726f6c5f7265717565737460126a0c7365745f"
                "74785f706f776572700078f9ffffffffffffffff01",
            ),
        ],
    )
    def test_control_request(self, args, encoded):
        message = messages.control_request(*args)
        assert VENDOR_B.encode(message).hex() == encoded
        assert _items(VENDOR_B.decode(bytes.fromhex(encoded))) == _items(message)


_KINDS = ["int64", "sint64", "bool", "double", "float", "string", "bytes"]
_NUMBERS = [*range(1, 17), 2047, 2048, 536_870_911]
_INT64 = st.one_of(
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.sampled_from([0, 127, 128, 300, -1, -(1 << 63), (1 << 63) - 1]),
)
_VALUES = {
    "int64": _INT64,
    "sint64": _INT64,
    "bool": st.booleans(),
    "double": st.floats(allow_nan=False),
    "float": st.floats(allow_nan=False, width=32),
    "string": st.one_of(st.text(max_size=12), st.text(min_size=130, max_size=200)),
    "bytes": st.one_of(st.binary(max_size=12), st.binary(min_size=130, max_size=200)),
}


@st.composite
def _schemas(draw, depth=3):
    """A schema: 1-12 fields of every kind, single or repeated, sparse
    field numbers, messages nested up to ``depth``."""
    numbers = draw(st.lists(st.sampled_from(_NUMBERS), min_size=1, max_size=12,
                            unique=True))
    fields = []
    for number in numbers:
        kind = draw(st.sampled_from(_KINDS + ["message"] if depth > 1 else _KINDS))
        fields.append(PbField(
            number, f"f{number}", kind, repeated=draw(st.booleans()),
            message=draw(_schemas(depth - 1)) if kind == "message" else None,
        ))
    return PbMessage(f"M{depth}", fields)


@st.composite
def _values(draw, schema):
    """A dict ``schema`` can encode, each key there or not."""
    values = {}
    for field in draw(st.permutations(schema.fields)):
        if draw(st.booleans()):
            continue
        one = _values(field.message) if field.kind == "message" else _VALUES[field.kind]
        values[field.name] = draw(st.lists(one, max_size=4) if field.repeated else one)
    return values


@st.composite
def _mutated(draw, payload):
    """``payload`` with a byte overwritten or inserted, cut short or grown."""
    at = draw(st.integers(0, len(payload)))
    junk = draw(st.binary(min_size=1, max_size=3))
    return draw(st.sampled_from([
        payload[:at] + junk + payload[at + len(junk):],
        payload[:at] + junk + payload[at:],
        payload[:at],
        payload + junk,
    ]))


def _outcome(decode, data):
    try:
        return _items(decode(data))
    except CodecError as exc:
        return f"CodecError: {exc}"


class TestLoweredAgainstWalker:
    """``PbMessage.encode`` / ``.decode`` run generated code; the generic
    walker is what that code has to agree with - bytes, dicts with their key
    order, and the text of every rejection."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_same_dicts_same_errors(self, data):
        schema = data.draw(_schemas())
        values = data.draw(_values(schema))
        payload = schema.encode(values)
        assert payload == schema.walk_encode(values)
        decoded = schema.decode(payload)
        assert _items(decoded) == _items(schema.walk_decode(payload))
        assert schema.encode(decoded) == schema.walk_encode(decoded)
        hostile = data.draw(st.lists(st.one_of(_mutated(payload), st.binary(max_size=40)),
                                     max_size=6))
        for bad in hostile:
            assert _outcome(schema.decode, bad) == _outcome(schema.walk_decode, bad)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_e2_schema_on_mutated_messages(self, data):
        message = data.draw(st.sampled_from([
            messages.setup_request("gnb-1", [1, 2, 3]),
            messages.indication(
                3, 77,
                [{"ue_id": 1, "cqi": 9, "avg_tput_bps": 1.5, "buffer_bytes": 300}] * 2,
                [{"slice_id": 1, "measured_bps": 2e6, "target_bps": 5e6}],
            ),
            messages.control_request(18, "set_tx_power", 0, -7),
        ]))
        payload = E2_PB_SCHEMA.encode(message)
        assert payload == E2_PB_SCHEMA.walk_encode(message)
        bad = data.draw(_mutated(payload))
        assert _outcome(E2_PB_SCHEMA.decode, bad) == _outcome(
            E2_PB_SCHEMA.walk_decode, bad
        )

    def test_length_prefixes_around_their_width_boundaries(self):
        """A nested message and a packed run are written behind a one-byte
        length that is patched afterwards - and widened from 128 up."""
        inner = PbMessage("Inner", [PbField(1, "raw", "bytes")])
        schema = PbMessage(
            "Outer",
            [
                PbField(1, "inner", "message", message=inner),
                PbField(2, "flags", "bool", repeated=True),
                PbField(3, "tag", "string"),
            ],
        )
        for size in [*range(120, 136), *range(16376, 16390)]:
            values = {"inner": {"raw": bytes(size)}, "flags": [True] * size,
                      "tag": "x" * size}
            payload = schema.encode(values)
            assert payload == schema.walk_encode(values), size
            assert schema.decode(payload) == schema.walk_decode(payload) == values

    def test_lowered_once_per_schema_object(self):
        schema = PbMessage("Outer", [PbField(1, "kpi", "message", message=KPI)])
        assert schema._lowered is None
        schema.encode({"kpi": {"ue_id": 1}})
        lowered = schema._lowered
        assert KPI._lowered is not None  # nested schemas first
        schema.decode(b"")
        assert schema._lowered is lowered


E2_CONTROL = Asn1Schema(
    "E2Control",
    [
        Asn1Field("msg_type", "int", 0, 15),
        Asn1Field("power", "int", 0, 255),  # vendor A: 8-bit power
        Asn1Field("prb_quota", "int", 0, 275),
        Asn1Field("urgent", "bool"),
        Asn1Field("payload", "bytes", optional=True),
    ],
)


class TestAsn1Lite:
    def test_field_widths_are_per_style(self):
        fields = {f.name: f for f in E2_CONTROL.fields}
        assert fields["msg_type"].width == 4
        assert fields["power"].width == 8
        assert fields["prb_quota"].width == 9  # 276 values -> 9 bits
        assert fields["urgent"].width == 1

    def test_roundtrip(self):
        msg = {"msg_type": 3, "power": 200, "prb_quota": 52, "urgent": True}
        codec = Asn1LiteCodec(E2_CONTROL)
        assert codec.decode(codec.encode(msg)) == msg

    def test_optional_bytes(self):
        msg = {
            "msg_type": 1, "power": 0, "prb_quota": 275, "urgent": False,
            "payload": b"hi",
        }
        codec = Asn1LiteCodec(E2_CONTROL)
        assert codec.decode(codec.encode(msg)) == msg

    def test_bit_size_exact(self):
        msg = {"msg_type": 1, "power": 2, "prb_quota": 3, "urgent": True}
        # presence bit for payload + 4 + 8 + 9 + 1
        assert E2_CONTROL.bit_size(msg) == 1 + 4 + 8 + 9 + 1

    def test_out_of_range_rejected(self):
        codec = Asn1LiteCodec(E2_CONTROL)
        with pytest.raises(CodecError, match="outside"):
            codec.encode({"msg_type": 1, "power": 256, "prb_quota": 0, "urgent": False})

    def test_missing_required_rejected(self):
        codec = Asn1LiteCodec(E2_CONTROL)
        with pytest.raises(CodecError, match="missing"):
            codec.encode({"msg_type": 1})

    def test_truncated_stream_rejected(self):
        codec = Asn1LiteCodec(E2_CONTROL)
        payload = codec.encode(
            {"msg_type": 1, "power": 9, "prb_quota": 0, "urgent": False,
             "payload": b"abcdef"}
        )
        with pytest.raises(CodecError, match="exhausted"):
            codec.decode(payload[:2])

    def test_incompatible_schemas_really_are_incompatible(self):
        """The paper's motivating bug: 8-bit vs 12-bit power fields."""
        vendor_b = Asn1Schema(
            "E2ControlB",
            [
                Asn1Field("msg_type", "int", 0, 15),
                Asn1Field("power", "int", 0, 4095),  # vendor B: 12-bit
                Asn1Field("prb_quota", "int", 0, 275),
                Asn1Field("urgent", "bool"),
            ],
        )
        msg = {"msg_type": 3, "power": 200, "prb_quota": 52, "urgent": True}
        wire_a = Asn1Schema(
            "E2ControlA",
            [f for f in E2_CONTROL.fields if not f.optional],
        ).encode(msg)
        decoded_by_b = vendor_b.decode(wire_a + b"\x00")
        assert decoded_by_b["power"] != msg["power"]  # silent corruption

    @given(
        st.integers(0, 15), st.integers(0, 255), st.integers(0, 275), st.booleans()
    )
    def test_roundtrip_property(self, mt, power, quota, urgent):
        codec = Asn1LiteCodec(E2_CONTROL)
        msg = {"msg_type": mt, "power": power, "prb_quota": quota, "urgent": urgent}
        assert codec.decode(codec.encode(msg)) == msg


class TestJsonCodec:
    def test_roundtrip_with_bytes(self):
        codec = JsonCodec()
        msg = {"a": 1, "b": [1.5, "x"], "raw": b"\x00\xff", "nested": {"c": True}}
        assert codec.decode(codec.encode(msg)) == msg

    def test_deterministic(self):
        codec = JsonCodec()
        assert codec.encode({"b": 1, "a": 2}) == codec.encode({"a": 2, "b": 1})

    def test_bad_payload(self):
        with pytest.raises(CodecError):
            JsonCodec().decode(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(CodecError, match="object"):
            JsonCodec().decode(b"[1,2]")


class TestBitAdapt:
    def test_full_scale_maps_to_full_scale(self):
        assert widen(255, 8, 12) == 4095
        assert widen(0, 8, 12) == 0

    def test_half_scale(self):
        assert widen(128, 8, 12) == pytest.approx(128 * 4095 / 255, abs=1)

    def test_identity(self):
        assert widen(77, 8, 8) == 77

    def test_narrow_roundtrip_within_one_lsb(self):
        for v in range(0, 256, 7):
            wide = widen(v, 8, 12)
            back = narrow(wide, 12, 8)
            assert abs(back - v) <= 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            widen(256, 8, 12)

    def test_adapt_message(self):
        src = {"power": FieldSpec("power", 8)}
        dst = {"power": FieldSpec("power", 12)}
        msg = {"power": 255, "other": 5}
        adapted = adapt_message(msg, src, dst)
        assert adapted == {"power": 4095, "other": 5}

    @given(st.integers(0, 255))
    def test_widen_monotone(self, v):
        if v < 255:
            assert widen(v, 8, 12) <= widen(v + 1, 8, 12)
