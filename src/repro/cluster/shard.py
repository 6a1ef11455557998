"""Building one gNB cell shard from the cluster spec.

Every cell is an independent slot-synchronous system: a
:class:`~repro.gnb.host.GnbHost` with three plugin-scheduled slices (one
per shipped scheduler plugin), a UE population whose channels and traffic
derive from ``(seed, cell, ue)`` alone, and an
:class:`~repro.e2.node.E2NodeAgent` that is pre-subscribed toward the
coordinator and streams its KPM indications through the worker's shared
batched uplink.

Cell construction is a pure function of the spec and the cell id - never
of the worker hosting it - so per-cell scheduled bytes and fault logs are
byte-identical no matter how the cells are sharded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abi.host import HostLimits, SchedulerPlugin
from repro.channel.models import MarkovCqiChannel
from repro.cluster.spec import COORD, ClusterSpec, cell_name, stable_seed
from repro.e2.batch import BatchedUplinkChannel
from repro.e2.node import E2NodeAgent
from repro.e2.vendors import VendorProfile
from repro.gnb.fault import FaultPolicy, OperatorLadder
from repro.gnb.host import GnbHost, SliceRuntime, UeContext
from repro.netio.batching import BatchSender
from repro.sched.inter import TargetRateInterSlice
from repro.traffic.sources import CbrSource

#: per-slice downlink SLA target used by every cell (bps)
SLICE_TARGET_BPS = 5e6


@dataclass
class CellShard:
    """One cell plus the operator-loop state the worker tracks for it."""

    cell_id: int
    name: str
    gnb: GnbHost
    node: E2NodeAgent
    #: scenario mobility driver (handover cells only); stepped every slot
    stepper: object | None = None
    ops: OperatorLadder = field(default_factory=OperatorLadder)


def _rt_policy(spec: ClusterSpec):
    """The spec's rt policy (scenario default when only a scenario is set)."""
    from repro.rt.dispatcher import RtPolicy
    from repro.rt.scenarios import scenario_policy

    if spec.rt is not None:
        return RtPolicy.from_string(spec.rt)
    if spec.scenario is not None:
        return scenario_policy(spec.scenario)
    return None


def build_cell(
    spec: ClusterSpec,
    cell_id: int,
    sender: BatchSender,
    profile: VendorProfile,
    schedule=None,
) -> CellShard:
    """Construct cell ``cell_id`` exactly as any worker would."""
    from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm

    name = cell_name(cell_id)
    if spec.scenario is not None:
        return _build_scenario_cell(spec, cell_id, sender, profile, schedule)
    if schedule is not None:
        fault_policy = FaultPolicy(quarantine_after=2, disconnect_after=10)
        checkpoint_every = spec.checkpoint_every
    else:
        fault_policy = FaultPolicy()
        checkpoint_every = 0
    gnb = GnbHost(
        fault_policy=fault_policy,
        checkpoint_every=checkpoint_every,
        rt=_rt_policy(spec),
    )

    targets: dict[int, float] = {}
    for sid, plugin in enumerate(SCHEDULER_PLUGINS, start=1):
        runtime = gnb.add_slice(SliceRuntime(sid, f"{name}/{plugin}"))
        runtime.use_plugin(
            SchedulerPlugin.load(
                plugin_wasm(plugin),
                name=f"{name}/{plugin}",  # chaos site + metric label, per cell
                limits=HostLimits(fuel=spec.fuel),
                engine=spec.engine,
                chaos=schedule,
            )
        )
        targets[sid] = SLICE_TARGET_BPS
    gnb.inter_slice = TargetRateInterSlice(targets)

    n_slices = len(targets)
    for i in range(spec.ues_for_cell(cell_id)):
        gnb.attach_ue(
            UeContext(
                ue_id=cell_id * 1000 + i + 1,
                slice_id=(i % n_slices) + 1,
                channel=MarkovCqiChannel(
                    initial_cqi=7 + (i % 6),
                    p_step=0.2,
                    seed=stable_seed(spec.seed, "ch", cell_id, i),
                ),
                traffic=CbrSource(rate_bps=(2 + (cell_id + i) % 6) * 1e6),
            )
        )

    node = E2NodeAgent(
        gnb, BatchedUplinkChannel(name, profile, sender), node_id=name
    )
    node.local_subscribe(cell_id + 1, COORD, spec.kpm_period)
    return CellShard(cell_id, name, gnb, node)


def _build_scenario_cell(
    spec: ClusterSpec,
    cell_id: int,
    sender: BatchSender,
    profile: VendorProfile,
    schedule=None,
) -> CellShard:
    """A scenario cell: same pure-function-of-(spec, cell) contract.

    Delegates to :func:`repro.rt.scenarios.build_scenario_gnb`; plugin
    names (admission identity, metric label, chaos site) are namespaced
    per cell, and the handover stepper - when the scenario has one -
    derives every itinerary from the spec alone.
    """
    from repro.rt.scenarios import build_scenario_gnb

    name = cell_name(cell_id)
    gnb, stepper = build_scenario_gnb(
        spec.scenario,
        spec.seed,
        cell_id,
        n_cells=spec.cells,
        policy=_rt_policy(spec),
        engine=spec.engine,
        chaos=schedule,
        fuel=spec.fuel,
        checkpoint_every=spec.checkpoint_every if schedule is not None else 0,
        name_prefix=f"{name}/",
    )
    node = E2NodeAgent(
        gnb, BatchedUplinkChannel(name, profile, sender), node_id=name
    )
    node.local_subscribe(cell_id + 1, COORD, spec.kpm_period)
    return CellShard(cell_id, name, gnb, node, stepper=stepper)


def step_operator_loop(cell: CellShard, slot: int, release_after: int) -> None:
    """One slot of the cell's quarantine/release ladder (the chaos soak's
    operator); its actions are recorded as fault-log events."""
    cell.ops.step(cell.gnb, slot, release_after)


def render_cell_log(cell: CellShard, spec: ClusterSpec, engine: str, schedule) -> str:
    """The cell's deterministic fault log: a pure function of (seed, cell).

    No timestamps, no worker ids, no process-dependent values - the
    coordinator concatenates these in cell order and digests the result,
    which must match across runs, across worker counts *and* across
    engines: ``engine`` is accepted for the callers that pass it but is
    deliberately not part of the text (faults, fuel and rt decisions are
    engine-identical, so naming it made the digest differ for no reason).
    """
    lines = [f"[{cell.name}] seed={spec.seed} slots={spec.slots}"]
    if schedule is not None:
        prefix = f"plugin:{cell.name}/"
        lines.extend(
            i.describe()
            for i in schedule.injected
            if i.site.startswith(prefix)
        )
    lines.extend(e.describe() for e in cell.gnb.fault_policy.events)
    lines.extend(cell.ops.events)
    if cell.gnb.rt is not None:
        # rt decisions are pure functions of (spec, seed, slot), so the
        # admission log and counters belong in the digested cell log
        lines.extend(cell.gnb.rt.log_lines())
    if cell.stepper is not None:
        lines.append("[mobility]")
        lines.extend(cell.stepper.events)
    # NB: no uplink counters here - backpressure drops depend on which
    # cells share a worker's queue, and this log must not
    lines.append(f"disconnected={sorted(cell.gnb.fault_policy.disconnected)}")
    return "\n".join(lines)
