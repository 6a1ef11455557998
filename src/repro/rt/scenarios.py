"""Real-time stress scenarios: flash crowds, handover churn, mixed SLAs.

Three workloads designed to stress the rt dispatch path the way a live
O-RAN deployment would:

- ``flash_crowd`` - a hostile fuel-hog plugin (cost proportional to its
  queued bytes) rides a best-effort lane while a deterministic traffic
  burst makes it arbitrarily expensive.  With rt enforcement off, every
  burst slot blows the slot budget; with enforcement on, the hog is
  fuel-cut at its lane budget, degrades to the native fallback,
  quarantines via its admission breaker, and re-admits through half-open
  probation once the crowd disperses.
- ``handover`` - mobile UEs hop between cells on deterministic dwell
  windows (fresh RLC state per attach, no cross-cell transfer), churning
  the scheduler inputs every epoch.
- ``mixed_sla`` - tens of plugin slices across all three lanes on one
  host, with too little slot budget to dispatch them all: the lane
  planner must shed best-effort work while the SLA lane always runs.

Every cell is a pure function of ``(scenario, seed, cell_id)`` - traffic
bursts and mobility windows are spec'd, never drawn - so the report
digest is byte-identical across runs, engines, and cluster worker
counts.  The cluster shard builder delegates here when a spec names a
scenario.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.abi.host import HostLimits, SchedulerPlugin
from repro.channel.models import MarkovCqiChannel
from repro.cluster.spec import stable_seed
from repro.gnb.fault import FaultPolicy, OperatorLadder
from repro.gnb.host import GnbHost, SliceRuntime, UeContext
from repro.rt.dispatcher import RtPolicy
from repro.sched.inter import TargetRateInterSlice
from repro.traffic.sources import BurstSource, CbrSource, DownlinkBuffer
from repro.wasm.threaded import resolve_engine

SCENARIOS = ("flash_crowd", "handover", "mixed_sla")

#: per-slice downlink SLA target (bps), matching the cluster shard's
SLICE_TARGET_BPS = 5e6

#: flash-crowd burst window in slots (1 ms slots)
BURST_START_SLOT = 40
BURST_END_SLOT = 100

#: RLC cap for the hog's UE: bounds its worst-case fuel so the scenario
#: explores overload, not an unbounded queue
HOG_BUFFER_BYTES = 32768

#: handover dwell: a mobile UE stays this many slots before hopping
HANDOVER_DWELL_SLOTS = 40

#: slots a quarantined slice waits before the operator releases it
RELEASE_AFTER = 60

_MIXED_PLUGINS = ("rr", "pf", "mt")
_MIXED_LANES = ("sla", "normal", "be")


def scenario_policy(name: str) -> RtPolicy:
    """The scenario's default rt policy (pin it in specs for clusters)."""
    if name == "flash_crowd":
        # probation must outlast the burst so the half-open probe lands
        # after the crowd disperses and the hog's queue has drained
        return RtPolicy(budget_us=400.0, quarantine_after=2, probation_slots=120)
    if name in ("handover", "mixed_sla"):
        return RtPolicy(budget_us=400.0)
    raise ValueError(f"unknown scenario {name!r} (expected one of {SCENARIOS})")


def scenario_slots(name: str) -> int:
    """Default run length: long enough for the full degrade/re-admit arc."""
    return {"flash_crowd": 300, "handover": 240, "mixed_sla": 160}[name]


def scenario_cells(name: str) -> int:
    """How many cells the standalone runner builds (handover needs two)."""
    return 2 if name == "handover" else 1


@dataclass(frozen=True)
class MobilePlan:
    """One mobile UE's deterministic itinerary."""

    ue_id: int
    home: int  # cell occupied during epoch 0
    dwell_slots: int
    rate_bps: float
    slice_id: int

    def cell_at(self, slot: int, n_cells: int) -> int:
        return (self.home + slot // self.dwell_slots) % n_cells


class MobilityStepper:
    """Per-cell handover driver: attach/detach on deterministic windows.

    Each cell computes every mobile UE's presence from ``(plan, slot)``
    alone - no cross-cell state transfer (the RLC buffer is flushed on
    handover, modelled as a fresh :class:`UeContext` per attach) - so
    cells stay independent and shardable.
    """

    def __init__(self, gnb: GnbHost, cell_id: int, n_cells: int, seed: int,
                 plans: tuple[MobilePlan, ...]):
        self.gnb = gnb
        self.cell_id = cell_id
        self.n_cells = n_cells
        self.seed = seed
        self.plans = plans
        self._attached: set[int] = set()
        self.events: list[str] = []
        self.handovers = 0

    def step(self, slot: int) -> None:
        """Apply this slot's attach/detach churn (call before gnb.step)."""
        for plan in self.plans:
            here = plan.cell_at(slot, self.n_cells) == self.cell_id
            if here and plan.ue_id not in self._attached:
                epoch = slot // plan.dwell_slots
                self.gnb.attach_ue(
                    UeContext(
                        ue_id=plan.ue_id,
                        slice_id=plan.slice_id,
                        channel=MarkovCqiChannel(
                            initial_cqi=7 + (plan.ue_id % 6),
                            p_step=0.2,
                            seed=stable_seed(self.seed, "ho", plan.ue_id, epoch),
                        ),
                        traffic=CbrSource(rate_bps=plan.rate_bps),
                    )
                )
                self._attached.add(plan.ue_id)
                self.handovers += 1
                self.events.append(
                    f"slot={slot} ho attach ue={plan.ue_id} epoch={epoch}"
                )
            elif not here and plan.ue_id in self._attached:
                self.gnb.detach_ue(plan.ue_id)
                self._attached.discard(plan.ue_id)
                self.events.append(f"slot={slot} ho detach ue={plan.ue_id}")


def _load_plugin(plugin: str, label: str, engine, chaos, fuel: int) -> SchedulerPlugin:
    from repro.plugins import plugin_wasm

    return SchedulerPlugin.load(
        plugin_wasm(plugin),
        name=label,
        limits=HostLimits(fuel=fuel),
        engine=engine,
        chaos=chaos,
    )


def build_scenario_gnb(
    scenario: str,
    seed: int,
    cell_id: int = 0,
    n_cells: int = 1,
    policy: RtPolicy | None = None,
    engine: str | None = None,
    chaos=None,
    fuel: int = 2_000_000,
    checkpoint_every: int = 0,
    name_prefix: str = "",
) -> tuple[GnbHost, MobilityStepper | None]:
    """Build one scenario cell: a pure function of (scenario, seed, cell).

    ``name_prefix`` namespaces plugin names (admission identity, metric
    label, chaos site) per cell; the cluster shard passes its cell name.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} (expected one of {SCENARIOS})")
    policy = policy or scenario_policy(scenario)

    if scenario == "flash_crowd":
        fault_policy = FaultPolicy(quarantine_after=6, disconnect_after=24)
    else:
        fault_policy = FaultPolicy(quarantine_after=3, disconnect_after=12)
    gnb = GnbHost(
        fault_policy=fault_policy,
        checkpoint_every=checkpoint_every,
        rt=policy,
    )

    # (plugin, lane, n_ues, rate_bps per UE) per slice
    if scenario == "flash_crowd":
        slices = [
            ("rr", "sla", 2, 2e6),
            ("pf", "normal", 2, 3e6),
            ("mt", "be", 2, 1.5e6),
            ("hog", "be", 1, None),  # burst traffic, capped RLC buffer
        ]
    elif scenario == "handover":
        slices = [("rr", "sla", 2, 2e6), ("pf", "normal", 2, 3e6)]
    else:  # mixed_sla: 18 plugin slices across all three lanes
        slices = [
            (
                _MIXED_PLUGINS[i % 3],
                _MIXED_LANES[(i // 3) % 3],
                1,
                (1 + i % 5) * 1e6,
            )
            for i in range(18)
        ]

    targets: dict[int, float] = {}
    ue_index = 0
    for sid, (plugin, lane, n_ues, rate_bps) in enumerate(slices, start=1):
        if scenario == "mixed_sla":
            label = f"{name_prefix}s{sid:02d}.{plugin}"
        else:
            label = f"{name_prefix}{plugin}"
        runtime = gnb.add_slice(SliceRuntime(sid, label, lane=lane))
        runtime.use_plugin(_load_plugin(plugin, label, engine, chaos, fuel))
        targets[sid] = SLICE_TARGET_BPS
        slot_s = gnb.carrier.slot_duration_s
        for _ in range(n_ues):
            if rate_bps is None:  # the hog's flash-crowd UE
                traffic = BurstSource(
                    base_bps=0.2e6,
                    burst_bps=30e6,
                    start_s=BURST_START_SLOT * slot_s,
                    end_s=BURST_END_SLOT * slot_s,
                )
                buffer = DownlinkBuffer(capacity_bytes=HOG_BUFFER_BYTES)
            else:
                traffic = CbrSource(rate_bps=rate_bps)
                buffer = DownlinkBuffer()
            gnb.attach_ue(
                UeContext(
                    ue_id=cell_id * 1000 + ue_index + 1,
                    slice_id=sid,
                    channel=MarkovCqiChannel(
                        initial_cqi=7 + (ue_index % 6),
                        p_step=0.2,
                        seed=stable_seed(seed, "ch", cell_id, ue_index),
                    ),
                    traffic=traffic,
                    buffer=buffer,
                )
            )
            ue_index += 1
    gnb.inter_slice = TargetRateInterSlice(targets)

    stepper = None
    if scenario == "handover":
        plans = tuple(
            MobilePlan(
                ue_id=9000 + u,
                home=u % n_cells,
                dwell_slots=HANDOVER_DWELL_SLOTS,
                rate_bps=(1 + u % 3) * 1e6,
                slice_id=(u % len(slices)) + 1,
            )
            for u in range(4)
        )
        stepper = MobilityStepper(gnb, cell_id, n_cells, seed, plans)
    return gnb, stepper


@dataclass
class _CellRun:
    """One standalone cell plus its operator-loop bookkeeping."""

    cell_id: int
    gnb: GnbHost
    stepper: MobilityStepper | None
    ops: OperatorLadder = field(default_factory=OperatorLadder)


@dataclass
class ScenarioReport:
    """Everything a scenario run produced, deterministically rendered.

    The log (and hence the digest) deliberately excludes the engine and
    any wall-clock value: fuel metering is engine-identical, so the same
    (scenario, seed, slots, policy) must digest identically under the
    interpreter, the threaded engine, and the AOT tier - CI compares
    exactly that.
    """

    name: str
    seed: int
    slots: int
    engine: str
    policy: str
    counters: dict
    quarantines: int
    readmissions: int
    handovers: int
    delivered_bytes: int
    plugins: dict[str, dict]
    log: str
    digest: str
    suggested_fuel_per_us: float | None

    @property
    def miss_rate(self) -> float:
        """Deadline misses per cell-slot (the regression-gated metric)."""
        return self.counters["misses"] / max(self.counters["slots"], 1)

    def to_json(self) -> dict:
        return {
            "scenario": self.name,
            "seed": self.seed,
            "slots": self.slots,
            "engine": self.engine,
            "policy": self.policy,
            "counters": self.counters,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "handovers": self.handovers,
            "delivered_bytes": self.delivered_bytes,
            "miss_rate": round(self.miss_rate, 6),
            "plugins": self.plugins,
            "digest": self.digest,
            "suggested_fuel_per_us": self.suggested_fuel_per_us,
        }


def run_scenario(
    name: str,
    seed: int = 0,
    slots: int | None = None,
    policy: RtPolicy | None = None,
    engine: str | None = None,
) -> ScenarioReport:
    """Run one scenario standalone and return its deterministic report."""
    policy = policy or scenario_policy(name)
    slots = slots if slots is not None else scenario_slots(name)
    n_cells = scenario_cells(name)

    cells: list[_CellRun] = []
    for cell_id in range(n_cells):
        prefix = f"cell{cell_id}/" if n_cells > 1 else ""
        gnb, stepper = build_scenario_gnb(
            name, seed, cell_id, n_cells, policy=policy, engine=engine,
            name_prefix=prefix,
        )
        cells.append(_CellRun(cell_id, gnb, stepper))

    for slot in range(slots):
        for cell in cells:
            if cell.stepper is not None:
                cell.stepper.step(slot)
            cell.gnb.step()
            cell.ops.step(cell.gnb, slot, RELEASE_AFTER)
    for cell in cells:
        cell.gnb.finish_meters()

    return build_report(
        name, seed, slots, policy, engine,
        [(c.gnb, c.stepper, c.ops.events) for c in cells],
    )


def build_report(
    name: str,
    seed: int,
    slots: int,
    policy: RtPolicy,
    engine: str | None,
    cells: list,
) -> ScenarioReport:
    """Aggregate (gnb, stepper, ops_events) cells into one report."""
    counters = {
        "slots": 0, "dispatched": 0, "degraded": 0,
        "overruns": 0, "misses": 0, "shed_by_lane": {},
    }
    quarantines = readmissions = handovers = delivered = 0
    plugins: dict[str, dict] = {}
    suggested = None
    lines = [
        f"[scenario] name={name} seed={seed} slots={slots} cells={len(cells)}",
        f"[policy] {policy.to_string()}",
    ]
    for i, (gnb, stepper, ops_events) in enumerate(cells):
        rt = gnb.rt
        c = rt.counters.to_json()
        for key in ("slots", "dispatched", "degraded", "overruns", "misses"):
            counters[key] += c[key]
        for lane, n in c["shed_by_lane"].items():
            counters["shed_by_lane"][lane] = (
                counters["shed_by_lane"].get(lane, 0) + n
            )
        delivered += gnb.total_delivered_bytes
        lane_of = {
            r.plugin.name: r.lane
            for r in gnb.slices.values()
            if r.plugin is not None
        }
        for key, st in sorted(rt.admission.states().items()):
            quarantines += st.quarantines
            readmissions += st.readmissions
            plugins[key] = {
                "lane": lane_of.get(key, "?"),
                "overruns": st.overruns,
                "rejects": st.rejects,
                "quarantines": st.quarantines,
                "readmissions": st.readmissions,
                "fuel_p99": st.fuel_p99(),
                "last_verdict": st.last_verdict,
            }
        if suggested is None:
            suggested = rt.calibrator.suggest_rate()
        lines.append(f"[admission cell{i}]")
        lines.extend(rt.events)
        lines.append(f"[faults cell{i}]")
        lines.extend(e.describe() for e in gnb.fault_policy.events)
        lines.extend(ops_events)
        if stepper is not None:
            handovers += stepper.handovers
            lines.append(f"[mobility cell{i}]")
            lines.extend(stepper.events)
    counters["shed_by_lane"] = dict(sorted(counters["shed_by_lane"].items()))
    lines.append(f"[counters] {json.dumps(counters, sort_keys=True)}")
    for key in sorted(plugins):
        stats = {k: v for k, v in plugins[key].items() if k != "lane"}
        lines.append(
            f"[plugin] {key} lane={plugins[key]['lane']} "
            f"{json.dumps(stats, sort_keys=True)}"
        )
    lines.append(f"delivered_bytes={delivered}")
    log = "\n".join(lines)
    return ScenarioReport(
        name=name,
        seed=seed,
        slots=slots,
        engine=resolve_engine(engine),
        policy=policy.to_string(),
        counters=counters,
        quarantines=quarantines,
        readmissions=readmissions,
        handovers=handovers,
        delivered_bytes=delivered,
        plugins=plugins,
        log=log,
        digest=hashlib.sha256(log.encode()).hexdigest(),
        suggested_fuel_per_us=suggested,
    )


def baseline_comparison(
    seed: int = 0,
    slots: int | None = None,
    engine: str | None = None,
) -> dict:
    """The acceptance experiment: flash crowd with rt off vs rt on.

    Returns both reports plus the deadline-miss-rate reduction factor
    (misses are fuel-defined, so the factor is exactly reproducible).
    """
    policy = scenario_policy("flash_crowd")
    off = run_scenario(
        "flash_crowd", seed, slots,
        policy=replace(policy, enforce=False), engine=engine,
    )
    on = run_scenario("flash_crowd", seed, slots, policy=policy, engine=engine)
    reduction = off.counters["misses"] / max(on.counters["misses"], 1)
    return {
        "baseline": off.to_json(),
        "enforced": on.to_json(),
        "miss_reduction": round(reduction, 2),
    }
