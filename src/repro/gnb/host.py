"""The slot-synchronous gNB MAC with plugin-backed slice scheduling.

The PHY under it is HARQ-less (DESIGN.md): every granted transport block
delivers its bytes in the slot it was granted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abi.host import PluginError, SchedulerPlugin
from repro.channel.models import ChannelModel
from repro.gnb.fault import FaultAction, FaultPolicy
from repro.metrics import LogHistogram, RateMeter
from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.phy.numerology import CarrierConfig
from repro.phy.tbs import transport_block_size_bits
from repro.rt.dispatcher import DeadlineDispatcher, RtDecision, RtPolicy, RtRequest
from repro.sched.intra import IntraSliceScheduler, make_intra_scheduler
from repro.sched.inter import InterSliceScheduler
from repro.sched.types import (
    GrantValidationError,
    UeGrant,
    UeSchedInfo,
    validate_grants,
)
from repro.traffic.sources import DownlinkBuffer, TrafficSource


@dataclass
class UeContext:
    """Everything the gNB tracks per connected UE."""

    ue_id: int
    slice_id: int
    channel: ChannelModel
    traffic: TrafficSource
    buffer: DownlinkBuffer = field(default_factory=DownlinkBuffer)
    avg_tput_bps: float = 0.0
    meter: RateMeter = field(default_factory=RateMeter)
    current_mcs: int = 0
    current_cqi: int = 0
    #: measurement of the strongest neighbour cell (0 = none reported);
    #: feeds the E2 KPM reports the traffic-steering xApp consumes
    neighbor_cell: int = 0
    neighbor_channel: ChannelModel | None = None
    #: bytes the current slot's grant delivered; the slot's PF pass folds
    #: it into ``avg_tput_bps`` and clears it
    slot_delivered_bytes: int = field(default=0, init=False)

    def neighbor_cqi(self, slot: int) -> int:
        return self.neighbor_channel.step(slot) if self.neighbor_channel else 0


def _bind_slice_exec(reg: MetricsRegistry, slice_name: str):
    return reg.histogram(
        "waran_gnb_slice_exec_us",
        "per-slot plugin scheduling time by slice (us)",
    ).labels(slice=slice_name)


def _bind_slice_delivered(reg: MetricsRegistry, slice_name: str):
    return reg.counter(
        "waran_gnb_delivered_bytes_total", "bytes delivered to UEs by slice"
    ).labels(slice=slice_name)


def _bind_slice_deadline_miss(reg: MetricsRegistry, slice_name: str):
    return reg.counter(
        "waran_gnb_deadline_miss_total",
        "plugin calls that overran the slot duration",
    ).labels(slice=slice_name)


def _bind_slots_total(reg: MetricsRegistry):
    return reg.counter("waran_gnb_slots_total", "slots scheduled").labels()


class SliceRuntime:
    """One slice (MVNO) attached to the gNB.

    The intra-slice scheduler is either a native policy or a
    :class:`SchedulerPlugin`; :meth:`use_plugin` / :meth:`use_native` and
    :meth:`swap_plugin` switch between them at any slot boundary - the
    gNB never stops (§5C).
    """

    def __init__(
        self,
        slice_id: int,
        name: str,
        default_scheduler: str = "rr",
        lane: str = "normal",
    ):
        self.slice_id = slice_id
        self.name = name
        #: rt priority lane (``sla`` dispatches first and is never shed)
        self.lane = lane
        self.default: IntraSliceScheduler = make_intra_scheduler(default_scheduler)
        self.plugin: SchedulerPlugin | None = None
        self.native: IntraSliceScheduler | None = None
        self.meter = RateMeter()
        #: plugin scheduling time per slot (us), telemetry on or off
        self.exec_us = LogHistogram()
        # the registry series bind separately: a native slice never opens
        # an exec series, an idle one never opens a delivered one, one
        # that never overruns the slot never opens a deadline-miss one
        self._exec_series = BoundMetrics(_bind_slice_exec)
        self._delivered_series = BoundMetrics(_bind_slice_delivered)
        self._deadline_miss_series = BoundMetrics(_bind_slice_deadline_miss)
        #: last known-good plugin state (taken on the success path when the
        #: gNB's ``checkpoint_every`` cadence is enabled)
        self.last_checkpoint = None
        self.successes = 0
        self.checkpoints_taken = 0
        self.restores = 0

    def use_plugin(self, plugin: SchedulerPlugin) -> None:
        self.plugin = plugin
        self.native = None

    def use_native(self, scheduler: IntraSliceScheduler) -> None:
        self.native = scheduler
        self.plugin = None

    def swap_plugin(self, wasm_bytes: bytes) -> int:
        """Hot-swap the plugin binary; returns the new generation."""
        if self.plugin is None:
            raise RuntimeError(f"slice {self.name} has no plugin to swap")
        return self.plugin.swap(wasm_bytes)

    @property
    def scheduler_kind(self) -> str:
        if self.plugin is not None:
            return f"plugin:{self.plugin.name}"
        if self.native is not None:
            return f"native:{self.native.name}"
        return f"default:{self.default.name}"


class GnbHost:
    """The gNB: carrier + slices + UEs + the per-slot scheduling loop."""

    def __init__(
        self,
        carrier: CarrierConfig | None = None,
        inter_slice: InterSliceScheduler | None = None,
        fault_policy: FaultPolicy | None = None,
        pf_time_constant_slots: int = 100,
        checkpoint_every: int = 0,
        rt: DeadlineDispatcher | RtPolicy | None = None,
    ):
        self.carrier = carrier or CarrierConfig()
        self.inter_slice = inter_slice
        self.fault_policy = fault_policy or FaultPolicy()
        #: the real-time dispatcher: per-call fuel budgets derived from the
        #: slot-time budget, priority lanes, admission control.  ``None``
        #: keeps the legacy unconditional dispatch.
        if isinstance(rt, RtPolicy):
            rt = DeadlineDispatcher(
                rt, slot_us=self.carrier.slot_duration_s * 1e6
            )
        self.rt = rt
        if pf_time_constant_slots < 1:
            raise ValueError(
                f"pf_time_constant_slots must be >= 1, got {pf_time_constant_slots}"
            )
        self.pf_time_constant_slots = pf_time_constant_slots
        #: take a plugin checkpoint every N successful scheduling calls
        #: (0 disables; the chaos runner turns this on so a quarantined
        #: slice can recover by restoring known-good state)
        self.checkpoint_every = checkpoint_every
        self.slices: dict[int, SliceRuntime] = {}
        self.ues: dict[int, UeContext] = {}
        self.slot = 0
        self.total_delivered_bytes = 0
        self._slots_total = BoundMetrics(_bind_slots_total)

    # ----- topology -------------------------------------------------------------

    def add_slice(self, runtime: SliceRuntime) -> SliceRuntime:
        if runtime.slice_id in self.slices:
            raise ValueError(f"slice {runtime.slice_id} already attached")
        self.slices[runtime.slice_id] = runtime
        return runtime

    def attach_ue(self, ue: UeContext) -> UeContext:
        if ue.ue_id in self.ues:
            raise ValueError(f"UE {ue.ue_id} already attached")
        if ue.slice_id not in self.slices:
            raise ValueError(f"UE {ue.ue_id} names unknown slice {ue.slice_id}")
        self.ues[ue.ue_id] = ue
        return ue

    def detach_ue(self, ue_id: int) -> None:
        self.ues.pop(ue_id, None)

    # ----- the slot loop -----------------------------------------------------------

    @property
    def now_s(self) -> float:
        return self.slot * self.carrier.slot_duration_s

    def run(self, n_slots: int) -> None:
        for _ in range(n_slots):
            self.step()

    def step(self) -> dict[int, list[UeGrant]]:
        """Advance one slot; returns the executed grants per slice."""
        with OBS.tracer.span("gnb.step", slot=self.slot):
            executed = self._step_slot()
        if OBS.enabled:
            self._slots_total.get(OBS.registry).inc()
        return executed

    def _step_slot(self) -> dict[int, list[UeGrant]]:
        slot = self.slot
        slot_dt = self.carrier.slot_duration_s
        now = self.now_s
        ues = self.ues

        # 1. one pass over the UE table, in attach order: traffic arrives
        # into the DL buffer, the channel reports, and every UE of a
        # connected slice gets its scheduler row
        slice_ues: dict[int, list[UeSchedInfo]] = {
            sid: [] for sid in self.slices
            if not self.fault_policy.is_disconnected(sid)
        }
        rows_of = slice_ues.get
        for ue in ues.values():
            buffer = ue.buffer
            buffer.enqueue(ue.traffic.arrivals(now, slot_dt))
            cqi, mcs = ue.channel.report(slot)
            ue.current_cqi = cqi
            ue.current_mcs = mcs
            rows = rows_of(ue.slice_id)
            if rows is not None:
                rows.append(
                    UeSchedInfo(
                        ue.ue_id, mcs, cqi, buffer.occupancy_bytes, ue.avg_tput_bps
                    )
                )

        # 2. inter-slice allocation
        if self.inter_slice is not None:
            allocation = self.inter_slice.allocate(
                self.carrier.n_prb, slice_ues, slot
            )
        else:
            # single-slice (or equal-split) fallback
            n = max(len(slice_ues), 1)
            allocation = {sid: self.carrier.n_prb // n for sid in slice_ues}

        # 3. intra-slice scheduling (rt: lanes planned, budgets assigned,
        # SLA-priority dispatch order), 4. grant execution
        rt_decisions: dict[int, RtDecision] = {}
        order = list(slice_ues.keys())
        if self.rt is not None:
            requests = []
            for sid in order:
                runtime = self.slices[sid]
                if (
                    runtime.plugin is not None
                    and not self.fault_policy.is_quarantined(sid)
                    and allocation.get(sid, 0) > 0
                    and slice_ues[sid]
                ):
                    requests.append(
                        RtRequest(sid, runtime.plugin.name, runtime.lane)
                    )
            decisions = self.rt.plan_slot(slot, requests)
            rt_decisions = {d.sid: d for d in decisions}
            rank = {d.sid: i for i, d in enumerate(decisions)}
            order.sort(
                key=lambda sid: (0, rank[sid]) if sid in rank else (1, sid)
            )
        notify = (
            self.inter_slice.notify_delivery
            if self.inter_slice is not None
            else None
        )
        executed: dict[int, list[UeGrant]] = {}
        for sid in order:
            grants = self._schedule_slice(
                sid, allocation.get(sid, 0), slice_ues[sid], rt_decisions.get(sid)
            )
            executed[sid] = grants
            if not grants:
                continue
            slice_bytes = 0
            for grant in grants:
                ue = ues[grant.ue_id]
                delivered = ue.buffer.drain(
                    transport_block_size_bits(grant.prbs, ue.current_mcs) // 8
                )
                slice_bytes += delivered
                ue.meter.add(now, delivered)
                if notify is not None:
                    # per grant: the debt floor clamps per call
                    notify(sid, delivered)
                ue.slot_delivered_bytes = delivered
            runtime = self.slices[sid]
            runtime.meter.add(now, slice_bytes)
            self.total_delivered_bytes += slice_bytes
            if OBS.enabled and slice_bytes:
                runtime._delivered_series.get(OBS.registry, runtime.name).inc(
                    slice_bytes
                )

        # 5. PF long-term average: served UEs move toward this slot's rate,
        # the rest decay toward zero
        alpha = 1.0 / self.pf_time_constant_slots
        keep = 1 - alpha
        for ue in ues.values():
            ue.avg_tput_bps = keep * ue.avg_tput_bps + alpha * (
                ue.slot_delivered_bytes * 8 / slot_dt
            )
            ue.slot_delivered_bytes = 0

        if self.rt is not None:
            self.rt.settle(slot)
        self.slot += 1
        return executed

    def _schedule_slice(
        self,
        sid: int,
        prbs: int,
        ues: list[UeSchedInfo],
        decision: RtDecision | None = None,
    ) -> list[UeGrant]:
        runtime = self.slices[sid]
        if prbs <= 0 or not ues:
            return []

        use_plugin = (
            runtime.plugin is not None
            and not self.fault_policy.is_quarantined(sid)
        )
        if use_plugin and decision is not None and not decision.dispatches:
            # rt degradation: rejected / quarantined / shed this slot - the
            # native fallback serves the slice, the plugin is not called
            use_plugin = False
        if use_plugin:
            fuel = None
            rt_attrs = None
            if decision is not None and decision.fuel_budget is not None:
                fuel = decision.fuel_budget
                rt_attrs = decision.to_attrs()
            try:
                call = runtime.plugin.schedule(
                    prbs, ues, self.slot, fuel=fuel, rt=rt_attrs
                )
                validate_grants(call.grants, prbs, ues)
            except (PluginError, GrantValidationError) as exc:
                kind = exc.kind if isinstance(exc, PluginError) else "grants"
                if self.rt is not None and decision is not None:
                    self.rt.observe_call(
                        decision,
                        self.slot,
                        fuel_used=None,
                        elapsed_us=0.0,
                        overrun=kind == "deadline",
                    )
                action = self.fault_policy.record_fault(
                    self.slot, sid, kind, str(exc)
                )
                if action == FaultAction.DISCONNECT:
                    return []
                return runtime.default.schedule(prbs, ues, self.slot)
            self.fault_policy.record_success(sid)
            if self.rt is not None and decision is not None:
                self.rt.observe_call(
                    decision,
                    self.slot,
                    fuel_used=call.fuel_used,
                    elapsed_us=call.elapsed_us,
                    overrun=False,
                )
            if self.checkpoint_every:
                runtime.successes += 1
                if runtime.successes % self.checkpoint_every == 0:
                    runtime.last_checkpoint = runtime.plugin.host.checkpoint()
                    runtime.checkpoints_taken += 1
            runtime.exec_us.add(call.elapsed_us)
            if OBS.enabled:
                runtime._exec_series.get(OBS.registry, runtime.name).observe(
                    call.elapsed_us
                )
                slot_us = self.carrier.slot_duration_s * 1e6
                if call.elapsed_us > slot_us:
                    OBS.events.emit(
                        "gnb.deadline_miss",
                        source=runtime.name,
                        slot=self.slot,
                        elapsed_us=call.elapsed_us,
                        slot_us=slot_us,
                    )
                    runtime._deadline_miss_series.get(
                        OBS.registry, runtime.name
                    ).inc()
            return call.grants

        scheduler = runtime.native or runtime.default
        grants = scheduler.schedule(prbs, ues, self.slot)
        validate_grants(grants, prbs, ues)  # natives must obey the same contract
        return grants

    # ----- recovery --------------------------------------------------------------

    def release_slice(self, slice_id: int, wasm_bytes: bytes | None = None) -> bool:
        """Recover a quarantined slice; returns True if state was restored.

        Three recovery paths, strongest first: swap in a fixed binary if
        one is provided; otherwise restore the slice's last known-good
        checkpoint into a fresh instance (keeping the plugin's accumulated
        state while shedding whatever corruption got it quarantined);
        otherwise just release and let the existing instance try again.
        """
        runtime = self.slices[slice_id]
        restored = False
        if runtime.plugin is not None:
            if wasm_bytes is not None:
                runtime.plugin.swap(wasm_bytes)
                runtime.last_checkpoint = None
            elif runtime.last_checkpoint is not None:
                runtime.plugin.host.restore(runtime.last_checkpoint)
                runtime.restores += 1
                restored = True
        self.fault_policy.release(slice_id)
        return restored

    # ----- reporting -------------------------------------------------------------

    def finish_meters(self) -> None:
        now = self.now_s
        for ue in self.ues.values():
            ue.meter.finish(now)
        for runtime in self.slices.values():
            runtime.meter.finish(now)
