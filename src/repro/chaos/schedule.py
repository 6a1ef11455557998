"""Deterministic, seeded fault schedules.

Everything the chaos layer injects is drawn from a :class:`FaultSchedule`:
a pure function of ``(seed, site, per-site event index)``.  Each *site*
(one plugin host, one transport endpoint) owns an independent RNG stream
derived from ``sha256(seed || site)``, so

- adding or removing chaos at one site never perturbs the schedule drawn
  at another site, and
- an entire run is reproducible from its seed alone - the property the
  soak harness asserts by running twice and comparing fault logs
  byte-for-byte (in the spirit of Wasm-R3's deterministic replay).

The schedule also keeps an ordered record of every injection it handed
out (:attr:`FaultSchedule.injected`); together with the fault-policy
event list this *is* the chaos run's fault log.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields
from typing import Any

#: fault kinds injected around one plugin call (runtime + ABI layers)
PLUGIN_KINDS = ("trap", "fuel_cut", "bitflip", "abi", "oversize", "deadline")

#: fault kinds injected on one transport send
TRANSPORT_KINDS = ("drop", "dup", "corrupt", "delay", "fail")


@dataclass(frozen=True)
class ChaosInjection:
    """One scheduled fault: what to inject, where, and at which event index.

    ``a`` and ``b`` are kind-specific parameters (fuel ceiling, byte
    offset, bit index, delay distance...) drawn from the same site stream,
    so an injection is fully described by this record - which is what lets
    :meth:`repro.abi.host.PluginHost.replay` re-apply it deterministically.
    """

    kind: str
    site: str
    index: int
    a: int = 0
    b: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "site": self.site,
            "index": self.index,
            "a": self.a,
            "b": self.b,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ChaosInjection":
        return cls(doc["kind"], doc["site"], doc["index"], doc["a"], doc["b"])

    def describe(self) -> str:
        return f"{self.site}#{self.index}:{self.kind}(a={self.a},b={self.b})"


@dataclass(frozen=True)
class ChaosConfig:
    """Per-kind injection probabilities (per call / per send)."""

    seed: int = 0
    # --- plugin layer (runtime + ABI), per PluginHost.call -----------------
    trap: float = 0.0  # synthetic trap before the call runs
    fuel_cut: float = 0.0  # slash the call's fuel budget
    bitflip: float = 0.0  # flip one bit of plugin linear memory
    abi: float = 0.0  # synthetic ABI violation (bad pointer)
    oversize: float = 0.0  # synthetic oversized-output violation
    deadline: float = 0.0  # synthetic soft-deadline blowout
    # --- transport layer, per Endpoint.send --------------------------------
    drop: float = 0.0  # message silently lost
    dup: float = 0.0  # message delivered twice
    corrupt: float = 0.0  # one payload bit flipped
    delay: float = 0.0  # message held and released late (reorders)
    fail: float = 0.0  # send raises NetworkError (retryable)

    def plugin_rates(self) -> tuple[tuple[str, float], ...]:
        return tuple((k, getattr(self, k)) for k in PLUGIN_KINDS)

    def transport_rates(self) -> tuple[tuple[str, float], ...]:
        return tuple((k, getattr(self, k)) for k in TRANSPORT_KINDS)

    @classmethod
    def soak(cls, seed: int = 0) -> "ChaosConfig":
        """The default soak mix: every fault kind enabled at modest rates."""
        return cls(
            seed=seed,
            trap=0.010,
            fuel_cut=0.006,
            bitflip=0.003,
            abi=0.004,
            oversize=0.002,
            deadline=0.004,
            drop=0.010,
            dup=0.006,
            corrupt=0.008,
            delay=0.008,
            fail=0.015,
        )


def _derive(seed: int, site: str) -> int:
    """A stable 64-bit stream seed (``hash()`` is salted per process)."""
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _SiteStream:
    """One site's private RNG stream plus its monotonically growing index."""

    __slots__ = ("site", "rates", "rng", "index")

    def __init__(self, seed: int, site: str, rates: tuple[tuple[str, float], ...]):
        self.site = site
        self.rates = rates
        self.rng = random.Random(_derive(seed, site))
        self.index = 0

    def draw(self) -> ChaosInjection | None:
        index = self.index
        self.index += 1
        u = self.rng.random()
        acc = 0.0
        for kind, rate in self.rates:
            acc += rate
            if u < acc:
                a = self.rng.randrange(1 << 30)
                b = self.rng.randrange(1 << 30)
                return ChaosInjection(kind, self.site, index, a, b)
        return None


class FaultSchedule:
    """The seeded oracle every injector consults.

    Plugin hosts call :meth:`draw_plugin` once per call; chaos endpoints
    call :meth:`draw_transport` once per send.  Both return ``None`` (no
    fault this event) or a fully parameterised :class:`ChaosInjection`.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._plugin_streams: dict[str, _SiteStream] = {}
        self._transport_streams: dict[str, _SiteStream] = {}
        #: every injection handed out, in draw order (the fault log core)
        self.injected: list[ChaosInjection] = []

    @property
    def seed(self) -> int:
        return self.config.seed

    def draw_plugin(self, site: str) -> ChaosInjection | None:
        stream = self._plugin_streams.get(site)
        if stream is None:
            stream = self._plugin_streams[site] = _SiteStream(
                self.config.seed, f"plugin:{site}", self.config.plugin_rates()
            )
        injection = stream.draw()
        if injection is not None:
            self.injected.append(injection)
        return injection

    def draw_transport(self, site: str) -> ChaosInjection | None:
        stream = self._transport_streams.get(site)
        if stream is None:
            stream = self._transport_streams[site] = _SiteStream(
                self.config.seed, f"net:{site}", self.config.transport_rates()
            )
        injection = stream.draw()
        if injection is not None:
            self.injected.append(injection)
        return injection

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for injection in self.injected:
            out[injection.kind] = out.get(injection.kind, 0) + 1
        return out


class OneShotChaos:
    """Replays exactly one recorded injection (or none), then goes quiet.

    Used by :meth:`repro.abi.host.PluginHost.reissue` to re-provoke a
    chaos-injected fault captured in the flight recorder - and, with
    ``injection=None``, to pin a re-issued call to *no* chaos even on a
    host built with a fault schedule of its own.
    """

    def __init__(self, injection: ChaosInjection | None):
        self._injection: ChaosInjection | None = injection

    def draw_plugin(self, site: str) -> ChaosInjection | None:
        injection, self._injection = self._injection, None
        return injection


def schedule_from_spec(spec: str) -> FaultSchedule:
    """Parse a chaos spec: ``"seed=42,trap=0.01,drop=0.02,..."``.

    A bare seed with no rates enables the default soak mix; naming any
    rate switches to an explicit config where unnamed rates are zero.
    """
    seed = 0
    rates: dict[str, float] = {}
    valid = {f.name for f in fields(ChaosConfig)}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "seed":
            seed = int(value)
        elif key in valid:
            rates[key] = float(value)
        else:
            raise ValueError(
                f"chaos spec: unknown key {key!r} "
                f"(expected seed or one of {', '.join(sorted(valid - {'seed'}))})"
            )
    if rates:
        return FaultSchedule(ChaosConfig(seed=seed, **rates))
    return FaultSchedule(ChaosConfig.soak(seed))
