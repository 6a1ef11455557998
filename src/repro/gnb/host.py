"""The slot-synchronous gNB MAC with plugin-backed slice scheduling.

The PHY under it is HARQ-less (DESIGN.md): every granted transport block
delivers its bytes in the slot it was granted.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.abi.host import PluginError, SchedulerPlugin
from repro.channel.models import ChannelModel
from repro.gnb.fault import FaultAction, FaultPolicy
from repro.metrics import LogHistogram, RateMeter
from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.obs.registry import HandlesBy
from repro.obs.tracing import SpanMark
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
        """The neighbour's CQI at ``slot``; the gNB walks the neighbour
        channel every slot, as it walks the serving one."""
        return self.neighbor_channel.step(slot) if self.neighbor_channel else 0


def _bind_slice_deadline_miss(reg: MetricsRegistry, slice_name: str):
    return reg.counter(
        "waran_gnb_deadline_miss_total",
        "plugin calls that overran the slot duration",
    ).labels(slice=slice_name)


#: samples one slice series takes in before the sample that fills it
#: folds the batch (every registry read folds it too); also the samples a
#: slice's ``exec_us`` keeps pending.  The slot count folds it every
#: ``16 * _SLOT_BATCH`` slots, so a fold applies about this many samples
#: per series however many gNBs share the registry.
_SLOT_BATCH = 256


def _bind_slot_metrics(reg: MetricsRegistry) -> "_SlotMetrics":
    return reg.batch(_SlotMetrics, lambda: _SlotMetrics(reg))


class _SlotMetrics:
    """The per-slot series of every gNB in one registry - slots stepped,
    plugin scheduling time and bytes delivered per slice - and the
    samples recorded for them but not folded in yet.

    One batch per registry, not per gNB: two gNBs may report under the
    same slice label, and a float series must take its samples in the
    order they were made.  Recording is one ``append`` onto a list:
    ``exec_us[slice]`` (us), ``delivered[slice]`` (bytes), ``slots``
    (one ``None`` per slot); :meth:`fold` runs when one slice series has
    :data:`_SLOT_BATCH` samples pending, every ``16 * _SLOT_BATCH``
    slots and on every registry read.  A series opens on the
    fold of its first sample - a native slice never opens an exec series,
    an idle one never a delivered one - and reads as if every sample had
    been applied on arrival: time samples in arrival order through the
    exact :meth:`LogHistogram.extend`, byte and slot counts (integers)
    summed.
    """

    __slots__ = ("exec_us", "delivered", "slots", "_series", "_lock")

    def __init__(self, reg: MetricsRegistry):
        self.exec_us: dict[str, list] = _PerSlice()
        self.delivered: dict[str, list] = _PerSlice()
        self.slots: list = []
        self._series = (
            HandlesBy(
                lambda name: reg.histogram(
                    "waran_gnb_slice_exec_us",
                    "per-slot plugin scheduling time by slice (us)",
                ).labels(slice=name)
            ),
            HandlesBy(
                lambda name: reg.counter(
                    "waran_gnb_delivered_bytes_total",
                    "bytes delivered to UEs by slice",
                ).labels(slice=name)
            ),
            HandlesBy(
                lambda _: reg.counter(
                    "waran_gnb_slots_total", "slots scheduled"
                ).labels()
            ),
        )
        self._lock = threading.Lock()

    def fold(self) -> None:
        """Apply the pending samples to the series (thread-safe)."""
        with self._lock:
            exec_series, delivered_series, slots_series = self._series
            for name, pending in list(self.exec_us.items()):
                samples = _take(pending)
                if samples:
                    exec_series[name].extend(samples)
            for name, pending in list(self.delivered.items()):
                samples = _take(pending)
                if samples:
                    delivered_series[name].inc(sum(samples))
            slots = len(_take(self.slots))
            if slots:
                slots_series[None].inc(slots)


class _PerSlice(dict):
    """Pending samples by slice name, a list made on a name's first use."""

    __slots__ = ()

    def __missing__(self, name: str) -> list:
        pending = self[name] = []
        return pending


def _take(pending: list) -> list:
    """Everything ``pending`` holds, taken off it: a sample appended
    meanwhile (one ``append``; a recording thread takes no lock) stays
    behind for the next fold."""
    n = len(pending)
    taken = pending[:n]
    del pending[:n]
    return taken


def _step_span(slot: int, children_us) -> tuple:
    """The ``gnb.step`` span's attrs, status and children, built on read."""
    return {"slot": slot}, "ok", children_us


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
        # plugin scheduling time per slot, telemetry on or off: one append
        # per call, folded into the histogram when read (or when full)
        self._exec_us = LogHistogram()
        self._exec_pending: list[float] = []
        # a slice that never overruns the slot never opens a deadline-miss
        # series (its exec and delivered samples go through the gNB's
        # slot batch)
        self._deadline_miss_series = BoundMetrics(_bind_slice_deadline_miss)
        #: last known-good plugin state (taken on the success path when the
        #: gNB's ``checkpoint_every`` cadence is enabled)
        self.last_checkpoint = None
        self.successes = 0
        self.checkpoints_taken = 0
        self.restores = 0

    @property
    def exec_us(self) -> LogHistogram:
        """Plugin scheduling time per slot (us), telemetry on or off."""
        self._fold_exec()
        return self._exec_us

    def _fold_exec(self) -> None:
        pending = self._exec_pending
        if pending:
            self._exec_us.extend(pending)
            pending.clear()

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
        #: a plugin call longer than this overran the slot
        self._slot_us = self.carrier.slot_duration_s * 1e6
        # what telemetry needs per slot, allocated once: the slot batch
        # and the gnb.step span's ids
        self._slot_metrics = BoundMetrics(_bind_slot_metrics)
        self._span = SpanMark()

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
        """Advance one slot; returns the executed grants per slice.

        With telemetry on, the slot leaves one ``gnb.step`` span (a
        :class:`SpanMark` timed by the slot's own clock reads, its
        ``Span`` built on read) and its samples in the registry's slot
        batch.
        """
        batch = self._slot_metrics.get(OBS.registry) if OBS.enabled else None
        tracer = OBS.tracer
        if not tracer.enabled:
            executed = self._step_slot(batch)
        else:
            slot = self.slot
            mark = self._span
            tracer.begin(mark)
            start = time.perf_counter_ns()
            try:
                executed = self._step_slot(batch)
            except BaseException as exc:
                tracer.record_error(mark, "gnb.step", start, {"slot": slot}, exc)
                raise
            tracer.record(
                mark, "gnb.step", start, time.perf_counter_ns(), _step_span, slot
            )
        if batch is not None:
            slots = batch.slots
            slots.append(None)
            if len(slots) >= 16 * _SLOT_BATCH:
                batch.fold()
        return executed

    def _step_slot(self, batch: _SlotMetrics | None) -> dict[int, list[UeGrant]]:
        slot = self.slot
        slot_dt = self.carrier.slot_duration_s
        now = self.now_s
        ues = self.ues

        # 1. one pass over the UE table, in attach order: traffic arrives
        # into the DL buffer, the serving and the neighbour channel walk
        # (both once per slot, so a handover swaps like for like), and
        # every UE of a connected slice gets its scheduler row
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
            if ue.neighbor_channel is not None:
                ue.neighbor_channel.report(slot)
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
                self.carrier.n_prb, slice_ues, slot_dt
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
            # planned slices in dispatch order, then the rest by slice id
            rt_decisions = {d.sid: d for d in self.rt.plan_slot(slot, requests)}
            order = [
                *rt_decisions,
                *sorted(sid for sid in order if sid not in rt_decisions),
            ]
        notify = (
            self.inter_slice.notify_delivery
            if self.inter_slice is not None
            else None
        )
        executed: dict[int, list[UeGrant]] = {}
        for sid in order:
            grants = self._schedule_slice(
                sid, allocation.get(sid, 0), slice_ues[sid], rt_decisions.get(sid),
                batch,
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
                    notify(sid, delivered, slot_dt)
                ue.slot_delivered_bytes = delivered
            runtime = self.slices[sid]
            runtime.meter.add(now, slice_bytes)
            self.total_delivered_bytes += slice_bytes
            if batch is not None and slice_bytes:
                pending = batch.delivered[runtime.name]
                pending.append(slice_bytes)
                if len(pending) >= _SLOT_BATCH:
                    batch.fold()

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
        decision: RtDecision | None,
        batch: _SlotMetrics | None,
    ) -> list[UeGrant]:
        runtime = self.slices[sid]
        if prbs <= 0 or not ues:
            return []

        # a decision exists only under an rt dispatcher, and one that does
        # not dispatch sends the slice to its native fallback this slot
        slot = self.slot
        policy = self.fault_policy
        if (
            runtime.plugin is not None
            and not policy.is_quarantined(sid)
            and (decision is None or decision.verdict.dispatches)
        ):
            fuel = rt_attrs = None
            if decision is not None and decision.fuel_budget is not None:
                fuel = decision.fuel_budget
                rt_attrs = decision.to_attrs()
            try:
                call = runtime.plugin.schedule(prbs, ues, slot, fuel=fuel, rt=rt_attrs)
                validate_grants(call.grants, prbs, ues)
            except (PluginError, GrantValidationError) as exc:
                kind = exc.kind if isinstance(exc, PluginError) else "grants"
                if decision is not None:
                    self.rt.observe_call(
                        decision,
                        slot,
                        fuel_used=None,
                        elapsed_us=0.0,
                        overrun=kind == "deadline",
                    )
                action = policy.record_fault(slot, sid, kind, str(exc))
                if action == FaultAction.DISCONNECT:
                    return []
                return runtime.default.schedule(prbs, ues, slot)
            policy.record_success(sid)
            elapsed_us = call.elapsed_us
            if decision is not None:
                self.rt.observe_call(
                    decision,
                    slot,
                    fuel_used=call.fuel_used,
                    elapsed_us=elapsed_us,
                    overrun=False,
                )
            if self.checkpoint_every:
                runtime.successes += 1
                if runtime.successes % self.checkpoint_every == 0:
                    runtime.last_checkpoint = runtime.plugin.host.checkpoint()
                    runtime.checkpoints_taken += 1
            pending = runtime._exec_pending
            pending.append(elapsed_us)
            if len(pending) >= _SLOT_BATCH:
                runtime._fold_exec()
            if batch is not None:
                pending = batch.exec_us[runtime.name]
                pending.append(elapsed_us)
                if len(pending) >= _SLOT_BATCH:
                    batch.fold()
                if elapsed_us > self._slot_us:
                    OBS.events.emit(
                        "gnb.deadline_miss",
                        source=runtime.name,
                        slot=slot,
                        elapsed_us=elapsed_us,
                        slot_us=self._slot_us,
                    )
                    runtime._deadline_miss_series.get(
                        OBS.registry, runtime.name
                    ).inc()
            return call.grants

        scheduler = runtime.native or runtime.default
        grants = scheduler.schedule(prbs, ues, slot)
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
