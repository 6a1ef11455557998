"""Batched E2 uplink: many indications, one frame.

A cluster worker hosts several cells, each with its own
:class:`~repro.e2.node.E2NodeAgent`.  Instead of one transport frame per
KPM indication, every cell's agent writes into one shared
:class:`~repro.netio.batching.BatchSender`; the worker flushes it every
few slots, so the coordinator receives a handful of coalesced frames per
flush interval regardless of how many cells the worker runs.

Each batch entry carries its originating node so the coordinator can
demultiplex the frame back into per-node messages for the RIC::

    u16 node_len | node (utf-8) | vendor-encoded payload

The payload is opaque (vendor payloads may be encrypted bytes), so the
entry has no flags and nothing is ever sniffed out of it; trace context
rides the frame header (:mod:`repro.netio.batching`), not the entries.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.e2 import messages
from repro.e2.vendors import VendorProfile
from repro.netio.batching import BatchSender, unpack_batch
from repro.obs import OBS

_NODE_LEN = struct.Struct("<H")


class E2BatchError(ValueError):
    """Malformed batched-uplink entry."""


def encode_batch_entry(node: str, payload: bytes) -> bytes:
    """Prefix a vendor-encoded message with its originating node id."""
    raw = node.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise E2BatchError("node id too long")
    return _NODE_LEN.pack(len(raw)) + raw + payload


def decode_batch_entry(entry: bytes) -> tuple[str, bytes]:
    """Split one batch entry back into ``(node, payload)``."""
    if len(entry) < _NODE_LEN.size:
        raise E2BatchError("short batch entry")
    (node_len,) = _NODE_LEN.unpack_from(entry, 0)
    end = _NODE_LEN.size + node_len
    if end > len(entry):
        raise E2BatchError("node id overruns entry")
    try:
        node = entry[_NODE_LEN.size : end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise E2BatchError(f"node id is not utf-8: {exc}") from exc
    return node, entry[end:]


def iter_batch_frame(frame: bytes) -> Iterator[tuple[str, bytes]]:
    """Yield every ``(node, payload)`` in one received batch frame."""
    for entry in unpack_batch(frame):
        yield decode_batch_entry(entry)


class BatchedUplinkChannel:
    """The worker-side channel an :class:`E2NodeAgent` sends through.

    Implements the ``send``/``poll`` surface of
    :class:`~repro.e2.comm.CommChannel`, but ``send`` *enqueues* the
    vendor-encoded message into the shared :class:`BatchSender` instead of
    hitting the transport - the worker decides when to flush.  Refused
    enqueues (backpressure) are counted per channel, so the operator can
    see exactly which cell's telemetry was shed.

    When tracing is live, the vendor encode is timed as an ``e2.encode``
    span.

    The uplink is one-directional by design (shared-nothing workers);
    ``poll`` always returns nothing.
    """

    def __init__(self, source: str, profile: VendorProfile, sender: BatchSender):
        self.source = source
        self.profile = profile
        self.sender = sender
        self.sent = 0
        self.dropped = 0
        self.decode_failures = 0  # CommChannel surface; nothing inbound

    @property
    def name(self) -> str:
        return self.source

    def send(self, dest: str, message: dict[str, Any]) -> None:
        messages.validate_message(message)
        tracer = OBS.tracer
        if tracer.enabled:
            with tracer.span("e2.encode", node=self.source):
                payload = self.profile.encode(message)
        else:
            payload = self.profile.encode(message)
        if self.sender.offer(encode_batch_entry(self.source, payload)):
            self.sent += 1
        else:
            self.dropped += 1

    def poll(self, timeout: float | None = 0.0) -> list[tuple[str, dict[str, Any]]]:
        return []
