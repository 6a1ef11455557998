"""The cluster run specification, shared by coordinator and workers.

A :class:`ClusterSpec` fully determines a scale-out run: every worker
process receives the same spec (plus its worker index) and derives its
shard - which cells it hosts, each cell's UE population, channel seeds
and chaos streams - from the spec alone.  Nothing about a cell depends
on *which* worker hosts it, which is what makes aggregate results
invariant under the worker count (see ``docs/SCALING.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

#: the coordinator's well-known endpoint name
COORD = "coord"


def cell_name(cell_id: int) -> str:
    return f"cell{cell_id}"


def stable_seed(*parts: object) -> int:
    """A process-independent 64-bit seed from arbitrary parts.

    ``hash()`` is salted per process, so every cross-process seed in the
    cluster derives through sha256 instead - the same trick the chaos
    layer uses for its per-site RNG streams.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ClusterSpec:
    """Everything a scale-out run needs, in one picklable record."""

    workers: int = 2
    cells: int = 4
    ues: int = 32  # total, distributed across cells
    slots: int = 400
    seed: int = 0
    engine: str | None = None  # Wasm engine (None = REPRO_WASM_ENGINE)
    chaos: str | None = None  # chaos spec, e.g. "seed=1,trap=0.01"
    kpm_period: int = 10
    #: worker flush cadence in slots - indications queue in the bounded
    #: uplink between flushes
    flush_every: int = 4
    #: bounded uplink queue; overflow is dropped and counted, never buffered
    queue_limit: int = 4096
    max_batch: int = 512
    fuel: int = 2_000_000
    #: slots a quarantined slice waits before the worker's operator loop
    #: releases it (chaos runs only)
    release_after: ClassVar[int] = 20
    checkpoint_every: int = 25
    #: "proc" = worker processes over TCP loopback, "inline" = same process
    mode: str = "proc"
    timeout_s: float = 600.0
    #: distributed tracing: workers ship their span collections home and
    #: the report carries a stitched cross-process trace + attribution
    trace: bool = False
    #: per-slot latency budget (us); overruns emit ``trace.deadline_miss``
    #: events naming the guilty segment (0 = no budget tracking)
    budget_us: float = 0.0
    #: rt dispatch policy (an :meth:`repro.rt.RtPolicy.to_string` string,
    #: or ``"on"``/``"default"``); ``None`` keeps unconditional dispatch.
    #: The budget is defined *per cell and slot* - never divided by the
    #: worker count - so oversubscribed shards shed load per cell instead
    #: of ballooning p99, and digests stay worker-count invariant.
    rt: str | None = None
    #: rt stress scenario (``flash_crowd``/``handover``/``mixed_sla``);
    #: replaces the default CBR cell build with the scenario's cells
    scenario: str | None = None
    #: seconds without any frame or heartbeat from a pending worker before
    #: the coordinator raises :class:`WorkerFailed` (0 = only the overall
    #: ``timeout_s`` applies).  Workers heartbeat at the flush cadence.
    liveness_timeout_s: float = 0.0
    #: corpus capture: each worker swaps in a capture-mode flight
    #: recorder and ships its full call stream home in the result frame
    #: (``repro record`` merges them per worker into one replay corpus)
    capture: bool = False

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.cells < 1:
            raise ValueError("need at least one cell")
        if self.slots < 1:
            raise ValueError("need at least one slot")
        if self.kpm_period < 1 or self.flush_every < 1:
            raise ValueError("kpm_period and flush_every must be positive")
        if self.mode not in ("proc", "inline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.budget_us < 0:
            raise ValueError("budget_us must be non-negative")
        if self.liveness_timeout_s < 0:
            raise ValueError("liveness_timeout_s must be non-negative")
        if self.rt is not None:
            from repro.rt.dispatcher import RtPolicy

            RtPolicy.from_string(self.rt)  # raises on a malformed policy
        if self.scenario is not None:
            from repro.rt.scenarios import SCENARIOS

            if self.scenario not in SCENARIOS:
                raise ValueError(
                    f"unknown scenario {self.scenario!r} "
                    f"(expected one of {SCENARIOS})"
                )

    # ----- sharding ---------------------------------------------------------

    def cells_for_worker(self, worker_id: int) -> list[int]:
        """Round-robin shard: cell ``g`` lives on worker ``g % workers``."""
        return [g for g in range(self.cells) if g % self.workers == worker_id]

    def ues_for_cell(self, cell_id: int) -> int:
        """Distribute the total UE population as evenly as cells allow."""
        base, extra = divmod(self.ues, self.cells)
        return base + (1 if cell_id < extra else 0)

    # ----- (de)serialisation for worker processes ---------------------------

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})
