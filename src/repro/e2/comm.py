"""Communication channels and the system-integrator adapter plugin.

:class:`CommChannel` binds a vendor profile to a transport endpoint: every
outgoing message is encoded (and optionally encrypted) in the vendor's
dialect, every incoming payload decoded.  Feeding vendor A's bytes to
vendor B's channel fails exactly the way mismatched O-RAN gear fails.

:class:`WasmFieldAdapter` is the paper's fix: a sandboxed plugin the SI
deploys between dialects that re-scales quantized fields (8-bit power ->
12-bit power) without either vendor changing a line of device code.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.abi.host import PluginHost
from repro.codecs.base import CodecError
from repro.e2 import messages
from repro.e2.vendors import VendorProfile
from repro.netio.bus import Endpoint
from repro.obs import OBS


class CommChannel:
    """A vendor-dialect channel over one transport endpoint."""

    def __init__(self, endpoint: Endpoint, profile: VendorProfile):
        self.endpoint = endpoint
        self.profile = profile
        self.sent = 0
        self.received = 0
        #: payloads the host decoder could not parse (dialect mismatch,
        #: corruption); guard verdicts are counted separately - see
        #: :attr:`guard_rejections`
        self.decode_failures = 0
        #: payloads the sandboxed guard rejected before decoding (hostile
        #: or structurally unsafe bytes) - a different operational signal
        #: than a codec failure, so never folded into ``decode_failures``
        self.guard_rejections = 0

    @property
    def name(self) -> str:
        return self.endpoint.name

    def send(self, dest: str, message: dict[str, Any]) -> None:
        messages.validate_message(message)
        self.endpoint.send(dest, self.profile.encode(message))
        self.sent += 1

    def poll(self, timeout: float | None = 0.0) -> list[tuple[str, dict[str, Any]]]:
        """Decode all queued messages; counts (and skips) undecodable ones."""
        out = []
        while True:
            item = self.endpoint.recv(timeout=timeout if not out else 0.0)
            if item is None:
                return out
            source, payload = item
            try:
                message = self._decode(payload)
            except (CodecError, messages.E2MessageError):
                self.decode_failures += 1
                continue
            if message is not None:
                self.received += 1
                out.append((source, message))

    def _decode(self, payload: bytes) -> dict[str, Any] | None:
        """The message one received payload carries; None drops it (the
        hook has counted why), a codec or message error is a decode
        failure."""
        message = self.profile.decode(payload)
        messages.validate_message(message)
        return message


_ADAPT_MAGIC = 0x5741524E


class WasmFieldAdapter:
    """The SI's field-width adapter, hosted as a sandboxed Wasm plugin."""

    def __init__(self):
        from repro.plugins import plugin_wasm

        self.host = PluginHost(
            plugin_wasm("adapt_fields"),
            name="adapt_fields",
            output_record_bytes=8,
            allowed_imports=frozenset({"log"}),
        )

    def adapt_values(self, records: list[tuple[int, int, int]]) -> list[int]:
        """Re-scale ``(value, from_bits, to_bits)`` records in the sandbox."""
        payload = bytearray(struct.pack("<IIII", _ADAPT_MAGIC, 1, 0, len(records)))
        for value, from_bits, to_bits in records:
            payload += struct.pack("<III", value, from_bits, to_bits)
        result = self.host.call(bytes(payload))
        (count,) = struct.unpack_from("<I", result.output, 0)
        values = []
        for i in range(count):
            _index, adapted = struct.unpack_from("<II", result.output, 4 + i * 8)
            values.append(adapted)
        return values

    def adapt_control(
        self,
        message: dict[str, Any],
        source: VendorProfile,
        target: VendorProfile,
    ) -> dict[str, Any]:
        """Convert a control request between vendor power scales."""
        if (
            message.get("msg") == messages.MSG_CONTROL_REQUEST
            and message.get("action") == messages.ACTION_SET_TX_POWER
            and source.power_bits != target.power_bits
        ):
            (adapted,) = self.adapt_values(
                [(message["value"], source.power_bits, target.power_bits)]
            )
            return {**message, "value": adapted}
        return message


class MessageGuard:
    """A sandboxed structural validator for incoming wire payloads (§3B).

    Runs the ``guard_pbwire`` Wasm plugin over every received payload
    before the host decoder parses it; malformed or hostile bytes are
    rejected (or trap) inside the sandbox, so decoder exploits never reach
    the host process.
    """

    def __init__(self, engine: str | None = None):
        from repro.plugins import plugin_wasm

        self.host = PluginHost(
            plugin_wasm("guard_pbwire"),
            name="guard",
            output_record_bytes=8,
            allowed_imports=frozenset({"log"}),
            engine=engine,
        )
        self.accepted = 0
        self.rejected = 0
        self.last_fail_code = 0

    def check(self, payload: bytes) -> bool:
        """True iff the payload is structurally safe to decode."""
        from repro.abi.host import PluginError

        header = struct.pack("<IIII", _ADAPT_MAGIC, 1, 0, len(payload))
        try:
            result = self.host.call(header + payload)
            _count, verdict, fail_code = struct.unpack_from(
                "<III", result.output, 0
            )
        except PluginError:
            self.rejected += 1
            self.last_fail_code = -1
            return False
        if verdict == 1:
            self.accepted += 1
            return True
        self.rejected += 1
        self.last_fail_code = fail_code
        return False


class GuardedChannel(CommChannel):
    """A channel whose inbound path is screened by a :class:`MessageGuard`."""

    def __init__(
        self, endpoint: Endpoint, profile: VendorProfile, engine: str | None = None
    ):
        super().__init__(endpoint, profile)
        self.guard = MessageGuard(engine=engine)

    def _decode(self, payload: bytes) -> dict[str, Any] | None:
        if not self.guard.check(payload):
            self.guard_rejections += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "waran_e2_guard_rejections_total",
                    "inbound payloads rejected by the sandboxed guard",
                ).inc(channel=self.name)
            return None
        return super()._decode(payload)


class AdaptedChannel(CommChannel):
    """A channel that transparently re-encodes into the peer's dialect.

    This is the SI deployment of §3B: the local side speaks ``profile``,
    the remote side speaks ``peer_profile``; control messages pass through
    the Wasm adapter and are *encoded with the peer's codec* so the remote
    device needs no changes at all.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        profile: VendorProfile,
        peer_profile: VendorProfile,
        adapter: WasmFieldAdapter | None = None,
    ):
        super().__init__(endpoint, profile)
        self.peer_profile = peer_profile
        self.adapter = adapter or WasmFieldAdapter()

    def send(self, dest: str, message: dict[str, Any]) -> None:
        messages.validate_message(message)
        adapted = self.adapter.adapt_control(message, self.profile, self.peer_profile)
        self.endpoint.send(dest, self.peer_profile.encode(adapted))
        self.sent += 1

    def _decode(self, payload: bytes) -> dict[str, Any] | None:
        message = self.peer_profile.decode(payload)
        messages.validate_message(message)
        return self.adapter.adapt_control(message, self.peer_profile, self.profile)
