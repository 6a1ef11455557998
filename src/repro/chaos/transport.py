"""Transport-layer chaos: a fault-injecting :class:`Endpoint` decorator.

:class:`ChaosEndpoint` wraps any :class:`repro.netio.bus.Endpoint` and
applies a seeded schedule of delivery faults on the *send* side - the
faults a real E2 link suffers between a RIC and its nodes:

- **drop**: the message is silently lost;
- **dup**: the message is delivered twice;
- **corrupt**: one payload bit is flipped (exercising vendor decoders and
  the sandboxed message guard);
- **delay**: the message is held and released after 1-3 later sends,
  producing genuine reordering;
- **fail**: the send raises :class:`NetworkError` - the one fault the
  sender can *see*, which is what the supervisor's retry/backoff path
  exists for.

Delays are measured in subsequent sends, not wall-clock time, so a run is
deterministic; call :meth:`flush` to force out anything still held.
"""

from __future__ import annotations

from repro.chaos.schedule import ChaosInjection, FaultSchedule
from repro.netio.bus import Endpoint, NetworkError
from repro.obs import OBS


class ChaosEndpoint(Endpoint):
    """Seeded fault injection on the send path of a wrapped endpoint."""

    def __init__(self, inner: Endpoint, schedule: FaultSchedule):
        super().__init__(inner.name)
        self.inner = inner
        self.schedule = schedule
        #: messages held back by a delay fault: (release_at_send_index, dest, payload)
        self._held: list[tuple[int, str, bytes]] = []
        self._sends = 0
        self.stats: dict[str, int] = {}

    # ----- send-side injection ---------------------------------------------

    def send(self, dest: str, payload: bytes) -> None:
        self._sends += 1
        self._release(self._sends)
        injection = self.schedule.draw_transport(self.name)
        if injection is None:
            self.inner.send(dest, payload)
            return
        self._count(injection)
        kind = injection.kind
        if kind == "drop":
            return
        if kind == "dup":
            self.inner.send(dest, payload)
            self.inner.send(dest, payload)
            return
        if kind == "corrupt":
            mutated = bytearray(payload)
            if mutated:
                mutated[injection.a % len(mutated)] ^= 1 << (injection.b % 8)
            self.inner.send(dest, bytes(mutated))
            return
        if kind == "delay":
            due = self._sends + 1 + injection.a % 3
            self._held.append((due, dest, bytes(payload)))
            return
        # kind == "fail": the only injected fault a sender can observe;
        # supervised senders retry, unsupervised ones must tolerate the raise
        raise NetworkError(f"chaos: injected send failure toward {dest!r}")

    def _release(self, upto: int) -> None:
        if not self._held:
            return
        still_held = []
        for due, dest, payload in self._held:
            if due <= upto:
                self.inner.send(dest, payload)
            else:
                still_held.append((due, dest, payload))
        self._held = still_held

    def flush(self) -> None:
        """Deliver every delayed message still held (end of a run/slot)."""
        held, self._held = self._held, []
        for _due, dest, payload in held:
            self.inner.send(dest, payload)

    def _count(self, injection: ChaosInjection) -> None:
        self.stats[injection.kind] = self.stats.get(injection.kind, 0) + 1
        if OBS.enabled:
            OBS.registry.counter(
                "waran_chaos_transport_total",
                "transport faults injected by endpoint and kind",
            ).inc(endpoint=self.name, kind=injection.kind)
            OBS.events.emit(
                "chaos.transport",
                source=self.name,
                fault_kind=injection.kind,
                index=injection.index,
            )

    # ----- receive side: plain passthrough ---------------------------------

    def recv(self, timeout: float | None = 0.0) -> tuple[str, bytes] | None:
        return self.inner.recv(timeout=timeout)

    def drain(self) -> list[tuple[str, bytes]]:
        return self.inner.drain()
