"""Vendor profiles: each vendor's wire-level dialect.

A profile fixes three things the O-RAN spec leaves open (and which
therefore break multivendor deployments): the payload codec, optional
payload encryption, and the bit width of quantized control fields such as
transmit power.  ``VENDOR_A`` and ``VENDOR_B`` are deliberately
incompatible in all three, reproducing the paper's integration problem;
the system integrator's Wasm adapter (:mod:`repro.e2.comm`) bridges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.codecs import Codec, JsonCodec, PbField, PbMessage, PbWireCodec
from repro.codecs.base import CodecError
from repro.cryptolite import AesCtr

_UE_REPORT = PbMessage(
    "UeReport",
    [
        PbField(1, "ue_id", "int64"),
        PbField(2, "slice_id", "int64"),
        PbField(3, "cqi", "int64"),
        PbField(4, "neighbor_cell", "int64"),
        PbField(5, "neighbor_cqi", "int64"),
        PbField(6, "avg_tput_bps", "double"),
        PbField(7, "buffer_bytes", "int64"),
    ],
)

_SLICE_REPORT = PbMessage(
    "SliceReport",
    [
        PbField(1, "slice_id", "int64"),
        PbField(2, "measured_bps", "double"),
        PbField(3, "target_bps", "double"),
    ],
)

#: one flat schema covering every E2-lite message type (proto3 style:
#: absent fields are simply omitted on the wire)
E2_PB_SCHEMA = PbMessage(
    "E2Message",
    [
        PbField(1, "msg", "string"),
        PbField(2, "node_id", "string"),
        PbField(3, "served_slices", "int64", repeated=True),
        PbField(4, "service_models", "string", repeated=True),
        PbField(5, "subscription_id", "int64"),
        PbField(6, "service_model", "string"),
        PbField(7, "period_slots", "int64"),
        PbField(8, "accepted", "bool"),
        PbField(9, "slot", "int64"),
        PbField(10, "ue_reports", "message", repeated=True, message=_UE_REPORT),
        PbField(11, "slice_reports", "message", repeated=True, message=_SLICE_REPORT),
        PbField(12, "request_id", "int64"),
        PbField(13, "action", "string"),
        PbField(14, "target", "int64"),
        PbField(15, "value", "int64"),
        PbField(16, "success", "bool"),
        PbField(17, "detail", "string"),
    ],
)


@dataclass
class VendorProfile:
    """One vendor's E2 dialect: codec + encryption + field widths."""

    name: str
    codec: Codec
    power_bits: int = 8
    aes_key: bytes | None = None
    _nonce_counter: int = field(default=0, repr=False)

    def encode(self, message: dict[str, Any]) -> bytes:
        payload = self.codec.encode(message)
        if self.aes_key is not None:
            self._nonce_counter += 1
            nonce = self._nonce_counter.to_bytes(8, "big")
            payload = nonce + AesCtr(self.aes_key, nonce).encrypt(payload)
        return payload

    def decode(self, payload: bytes) -> dict[str, Any]:
        if self.aes_key is not None:
            if len(payload) < 8:
                raise CodecError("ciphertext too short for nonce")
            nonce, body = payload[:8], payload[8:]
            payload = AesCtr(self.aes_key, nonce).decrypt(body)
        return self.codec.decode(payload)


def vendor_a() -> VendorProfile:
    """Vendor A: plaintext JSON, 8-bit power fields."""
    return VendorProfile("vendorA", JsonCodec(), power_bits=8)


def vendor_b(aes_key: bytes | None = None) -> VendorProfile:
    """Vendor B: protobuf wire format, 12-bit power fields, optional AES."""
    return VendorProfile(
        "vendorB", PbWireCodec(E2_PB_SCHEMA), power_bits=12, aes_key=aes_key
    )


#: module-level convenience instances (stateless unless encrypted)
VENDOR_A = vendor_a()
VENDOR_B = vendor_b()
