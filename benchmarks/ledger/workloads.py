"""The six workloads and the three timed loops they are built from.

Every loop drives the library through public entry points only
(``build_cell``, ``GnbHost.step``, ``E2NodeAgent.step``,
``BatchSender.flush``, ``iter_batch_frame``, ``NearRtRic.step``,
``SliceRuntime.swap_plugin``/``use_native``) and does a block of fixed
*work* per call, so :class:`~benchmarks.ledger.hostclock.HostClock` can
bracket it.  The program only ever sees generated ``ClusterSpec`` /
``UeContext`` inputs - never a workload name.

A workload has one *main* loop kind, which gets most of the run, and runs
the other kinds as short *companion* phases on its own cell shape: the
benchmark contract wants every end-to-end metric from every workload, so
e.g. ``dense_cell`` also reports what a hot swap and an uplink range cost
on a 48-UE cell.  README.md says which rows are main and which companion.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.cluster.shard import build_cell, render_cell_log, step_operator_loop
from repro.cluster.spec import COORD, ClusterSpec, cell_name, stable_seed
from repro.e2 import vendors
from repro.e2.batch import iter_batch_frame
from repro.e2.comm import CommChannel
from repro.netio.batching import BatchSender
from repro.netio.bus import InProcNetwork
from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm
from repro.ric.host import NearRtRic
from repro.ric.wire import MSG_SLICE_KPI
from repro.sched.intra import make_intra_scheduler
from repro.wasm.leb128 import encode_u

_now = time.perf_counter_ns

STEADY, UPLINK, SWAP = "steady", "uplink", "swap"

#: slots stepped after each swap event; the first is the post-swap slot
SLOTS_PER_SWAP_EVENT = 5
#: the differential oracle re-runs this many slots under ``legacy``
ORACLE_SLOTS = 40
#: scheduler inputs/outputs, E2 messages and frames kept for the probes
CAPTURE_LIMIT = 200


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.  ``block`` gives the fixed work of
    one block per loop kind: slots for steady/uplink, events for swap.
    ``prefix`` is the number of main-loop blocks every run does whatever
    its time budget; digests and exact counts are taken there."""

    name: str
    why: str
    main: str
    cells: int
    ues: int  # total across cells, as ClusterSpec counts them
    block: dict
    prefix: int = 3
    kpm_period: int = 10
    flush_every: int = 4
    native: bool = False
    obs: bool = True
    scenario: str | None = None
    #: scenario arc: cells are rebuilt (next round's seed) every arc slots
    arc_slots: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_cell",
            "1 cell x 48 UEs on rr/pf/mt plugins: Wasm execute is ~80% of the "
            "slot, so inner-loop engine work shows here and almost nowhere else",
            STEADY, cells=1, ues=48,
            block={STEADY: 200, UPLINK: 40, SWAP: 12},
        ),
        Workload(
            "sparse_metro",
            "16 cells x 3 UEs, one UE per plugin call: per-call fixed cost "
            "(telemetry, ABI pack/copy, call prologue) dominates, not execute",
            STEADY, cells=16, ues=48,
            block={STEADY: 30, UPLINK: 12, SWAP: 16},
        ),
        Workload(
            "native_floor",
            "4 cells x 24 UEs on native rr/pf/mt with obs off: the Fig. 5d "
            "floor; engine and telemetry changes must not move it, MAC finds do",
            STEADY, cells=4, ues=96, native=True, obs=False,
            block={STEADY: 300, UPLINK: 60, SWAP: 16},
        ),
        Workload(
            "ric_uplink",
            "8 native cells reporting KPM every slot: E2 encode, range frames, "
            "demux, RIC decode and xApp dispatch carry the loop",
            UPLINK, cells=8, ues=24, native=True, kpm_period=1, flush_every=2,
            block={STEADY: 120, UPLINK: 72, SWAP: 16},
        ),
        Workload(
            "hot_swap",
            "1 cell x 12 UEs swapping all three plugins every 5 slots, warm "
            "and cold alternating: Wasm compile+instantiate instead of execute",
            SWAP, cells=1, ues=12,
            block={STEADY: 200, UPLINK: 80, SWAP: 32},
        ),
        Workload(
            "flash_crowd",
            "8 flash-crowd scenario cells under the rt policy: the only one "
            "with lanes, admission, fuel-cut traps, quarantine and re-admission",
            STEADY, cells=8, ues=56, scenario="flash_crowd", arc_slots=300,
            block={STEADY: 30, UPLINK: 40, SWAP: 16}, prefix=10,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The ``--selftest`` size: about a quarter of the work per block, and
    just enough prefix to reach the oracle's slot mark."""
    block = {
        STEADY: max(ORACLE_SLOTS // 2, workload.block[STEADY] // 4),
        UPLINK: max(ORACLE_SLOTS // 2, workload.block[UPLINK] // 4),
        SWAP: ORACLE_SLOTS // 2 // SLOTS_PER_SWAP_EVENT,
    }
    prefix = 2
    return replace(workload, block=block, prefix=prefix)


def make_spec(
    workload: Workload, seed: int, kind: str, engine: str | None, round_: int = 0
) -> ClusterSpec:
    """The generated input of one phase: a pure function of its arguments."""
    uplink = kind == UPLINK
    return ClusterSpec(
        workers=1,
        cells=1 if kind == SWAP else workload.cells,
        ues=(
            workload.ues // workload.cells if kind == SWAP else workload.ues
        ),
        seed=stable_seed(seed, "ledger", kind, round_) % (1 << 31),
        engine=engine,
        kpm_period=1 if uplink else workload.kpm_period,
        flush_every=2 if uplink else workload.flush_every,
        scenario=workload.scenario,
        mode="inline",
    )


def cold_variant(wasm: bytes, salt, index) -> bytes:
    """``wasm`` plus a custom section ``bench.<salt>.<index>``: same code,
    new content hash, so the load pays sanitize/decode/validate/compile."""
    name = f"bench.{salt}.{index}".encode()
    body = encode_u(len(name)) + name
    return wasm + b"\x00" + encode_u(len(body)) + body


def plugin_kind(runtime) -> str | None:
    """Which shipped scheduler a slice's plugin is, from its label."""
    if runtime.plugin is None:
        return None
    base = runtime.plugin.name.rsplit("/", 1)[-1]
    return base if base in SCHEDULER_PLUGINS else None


def ops_of(counts: dict) -> tuple[int, int]:
    """``(attempted, failed)`` operations from a phase's final counts."""
    attempted = counts["cell_slots"] + counts["indications"] + counts["swaps"]
    failed = (
        counts["faults"] + counts["rt.misses"] + counts["undelivered"]
        + counts["swap_failures"]
    )
    return attempted, failed


class RicSide:
    """The coordinator's half of the uplink, rebuilt from the public
    pieces ``ClusterCoordinator._build_ric``/``_ingest_frame`` use."""

    def __init__(self, spec: ClusterSpec):
        net = InProcNetwork()
        self.ingress = {
            cell_name(g): net.endpoint(cell_name(g)) for g in range(spec.cells)
        }
        self.ric = NearRtRic(
            CommChannel(net.endpoint("ric"), vendors.vendor_b()), name="ric"
        )
        self.xapp = self.ric.load_xapp(
            "sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,), engine=spec.engine
        )
        for g in range(spec.cells):
            self.ric.register_node(cell_name(g), subscription_id=g + 1)
        self.controls = 0
        self.misrouted = 0

    def demux(self, frames: list[tuple[str, bytes]]) -> None:
        for _source, data in frames:
            for node, payload in iter_batch_frame(data):
                ingress = self.ingress.get(node)
                if ingress is None:
                    self.misrouted += 1
                    continue
                ingress.send("ric", payload)

    def quiesce(self) -> None:
        ric = self.ric
        while True:
            before = ric.indications_seen
            ric.step()
            if ric.indications_seen == before:
                break
        # controls are captured (the uplink is one-directional), as the
        # coordinator does; draining per range keeps the queues bounded
        for ingress in self.ingress.values():
            self.controls += len(ingress.drain())


@dataclass
class Block:
    """What one block of fixed work produced (raw nanoseconds)."""

    wall_ns: int
    units: dict
    samples: dict
    spans: tuple[int, int] = (0, 0)


@dataclass
class Captures:
    """Inputs seen at the layer boundaries during the traced pass.

    Inputs are kept only while ``open`` (each loop's fixed prefix), so what
    the probes replay is a function of the seed, not of how many blocks
    the time budget allowed."""

    open: bool = False
    schedule: dict = field(default_factory=dict)  # plugin -> [(prbs, ues, slot, grants)]
    payloads: dict = field(default_factory=dict)  # plugin -> [(input, output, fuel)]
    frames: list = field(default_factory=list)
    calls: int = 0
    fault_calls: int = 0
    input_bytes: int = 0
    #: measured plugin us per (gnb, slot), for rt.budget_wall_x
    plugin_us_by_slot: dict = field(default_factory=dict)


_COUNT_KEYS = (
    "faults", "indications", "undelivered", "controls", "xapp_calls",
    "rt.dispatched", "rt.degraded", "rt.overruns", "rt.misses",
    "rt.quarantines", "rt.readmissions",
)


class Phase:
    """Cells of one generated spec plus the worker-side uplink, and the
    bookkeeping shared by the slot loop and the swap loop."""

    def __init__(self, workload: Workload, seed: int, kind: str,
                 engine: str | None, rec=None, captures: Captures | None = None):
        self.workload = workload
        self.seed = seed
        self.kind = kind
        self.engine = engine
        self.rec = rec
        self.captures = captures
        self.round = 0
        self.round_start = 0
        self.slot = 0
        self.cell_slots = 0
        self.swaps = 0
        self.swap_failures = 0
        self.mark: dict | None = None  # bytes per cell at ORACLE_SLOTS
        self._retired = dict.fromkeys(_COUNT_KEYS, 0)
        self._build()

    # ----- construction ------------------------------------------------------

    def _build(self) -> None:
        workload = self.workload
        self.spec = spec = make_spec(
            workload, self.seed, self.kind, self.engine, self.round
        )
        net = InProcNetwork()
        self.coord = net.endpoint(COORD)
        self.sender = BatchSender(
            net.endpoint("worker0"), COORD,
            max_queue=spec.queue_limit, max_batch=spec.max_batch,
        )
        profile = vendors.vendor_b()
        self.cells = [
            build_cell(spec, g, self.sender, profile) for g in range(spec.cells)
        ]
        if workload.native and self.kind != SWAP:
            for cell in self.cells:
                for sid, runtime in cell.gnb.slices.items():
                    runtime.use_native(
                        make_intra_scheduler(SCHEDULER_PLUGINS[sid - 1])
                    )
        self.ric = RicSide(spec) if self.kind == UPLINK else None
        self.range_lo = self.slot
        self._ops = spec.scenario is not None
        if self.rec is not None:
            self._install_wrappers()

    def _install_wrappers(self) -> None:
        """Instance-attribute wrappers on public callables of objects this
        harness built; nothing in the library is patched."""
        rec, cap = self.rec, self.captures
        for cell in self.cells:
            gnb = cell.gnb
            if gnb.rt is not None:
                gnb.rt.plan_slot = rec.wrap("rt.plan_slot", gnb.rt.plan_slot)
            for runtime in gnb.slices.values():
                plugin = runtime.plugin
                if plugin is None:
                    continue
                # the swap loop's plugins rotate under one label, so only
                # the slot loops keep inputs (by plugin) for the probes
                kind = plugin_kind(runtime) if self.kind != SWAP else None
                plugin.schedule = rec.wrap(
                    "abi.schedule", plugin.schedule,
                    _schedule_capture(
                        cap, kind, gnb, self.kind == self.workload.main
                    ),
                )
                plugin.host.call = rec.wrap(
                    "abi.call", plugin.host.call, _call_capture(cap, kind)
                )
        if self.ric is not None:
            host = self.ric.xapp.host
            host.call = rec.wrap("ric.xapp_call", host.call)

    # ----- stepping ----------------------------------------------------------

    def _cell_slot(self, cell, slot: int) -> int:
        """One cell, one slot, exactly as ``run_worker`` steps it; returns
        its duration in ns."""
        rec = self.rec
        t0 = _now()
        if rec is None:
            if cell.stepper is not None:
                cell.stepper.step(slot)
            cell.gnb.step()
            cell.node.step()
            if self._ops:
                step_operator_loop(cell, slot, self.spec.release_after)
        else:
            rec.trace = f"{self.kind}/{cell.name}/{self.slot}"
            with rec.span("cell_slot"):
                if cell.stepper is not None:
                    cell.stepper.step(slot)
                with rec.span("gnb.step"):
                    cell.gnb.step()
                with rec.span("e2.node_step"):
                    cell.node.step()
                if self._ops:
                    step_operator_loop(cell, slot, self.spec.release_after)
        return _now() - t0

    def _slot_done(self) -> None:
        self.slot += 1
        if self.slot == ORACLE_SLOTS and self.round == 0:
            self.mark = {c.name: c.gnb.total_delivered_bytes for c in self.cells}

    # ----- accounting --------------------------------------------------------

    def _expected_fault(self, kind: str) -> bool:
        # fuel-cut preemption is the flash crowd's designed behaviour
        return self.workload.scenario is not None and kind == "deadline"

    def _live_counts(self) -> dict:
        live = dict.fromkeys(_COUNT_KEYS, 0)
        for cell in self.cells:
            live["faults"] += sum(
                1 for e in cell.gnb.fault_policy.events
                if not self._expected_fault(e.kind)
            )
            rt = cell.gnb.rt
            if rt is not None:
                for key in ("dispatched", "degraded", "overruns", "misses"):
                    live[f"rt.{key}"] += getattr(rt.counters, key)
                for state in rt.admission.states().values():
                    live["rt.quarantines"] += state.quarantines
                    live["rt.readmissions"] += state.readmissions
            channel = cell.node.channel
            live["indications"] += channel.sent + channel.dropped
            live["undelivered"] += channel.dropped
        if self.ric is not None:
            sent = sum(cell.node.channel.sent for cell in self.cells)
            # only meaningful once the last range was flushed and drained
            live["undelivered"] += (
                sent - self.ric.ric.indications_seen + self.ric.misrouted
            )
            live["controls"] = self.ric.controls
            live["xapp_calls"] = self.ric.xapp.calls
        return live

    def counts(self) -> dict:
        """Cumulative exact counts: retired rounds plus the live cells."""
        live = self._live_counts()
        total = {key: self._retired[key] + live[key] for key in _COUNT_KEYS}
        total["cell_slots"] = self.cell_slots
        total["swaps"] = self.swaps
        total["swap_failures"] = self.swap_failures
        return total

    def digest(self) -> str:
        """Bytes and fault logs of the live cells, in cell order."""
        engine = self.engine or ""
        text = "\n".join(
            f"{cell.name}={cell.gnb.total_delivered_bytes}\n"
            + render_cell_log(cell, self.spec, engine, None)
            for cell in self.cells
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def _flush(self) -> None:
        """Ship the open slot range to the sink (no RIC on this path)."""
        self.sender.flush(slot_range=(self.range_lo, self.slot - 1), worker=0)
        self.range_lo = self.slot
        self.coord.drain()

    def finish(self) -> None:
        if self.range_lo < self.slot:
            self._flush()


class SlotLoop(Phase):
    """The worker's slot loop (steady), or worker plus coordinator and RIC
    (uplink).  One block = ``n`` slots of every cell."""

    def block(self, n_slots: int) -> Block:
        arc = self.workload.arc_slots
        rec = self.rec
        span_lo = len(rec.spans) if rec is not None else 0
        samples: list[int] = []
        self.range_ns: list[int] = []
        seen_before = self._seen()
        flush_every = self.spec.flush_every
        cell_slot = self._cell_slot
        rebuilding = 0
        start = _now()
        for _ in range(n_slots):
            if arc and self.slot - self.round_start == arc:
                t0 = _now()
                self._next_round()
                rebuilding += _now() - t0
            slot = self.slot - self.round_start
            for cell in self.cells:
                samples.append(cell_slot(cell, slot))
            self._slot_done()
            if self.slot % flush_every == 0:
                self._flush()
        wall = _now() - start - rebuilding  # cell builds are set-up, not slots
        cell_slots = n_slots * len(self.cells)
        self.cell_slots += cell_slots
        return Block(
            wall,
            {"cell_slots": cell_slots, "indications": self._seen() - seen_before},
            {"slot": samples, "range": self.range_ns},
            (span_lo, len(rec.spans) if rec is not None else 0),
        )

    def _seen(self) -> int:
        return self.ric.ric.indications_seen if self.ric is not None else 0

    def _next_round(self) -> None:
        """The scenario arc ended: retire its cells, build the next round's."""
        self.finish()
        live = self._live_counts()
        for key in _COUNT_KEYS:
            self._retired[key] += live[key]
        self.round += 1
        self.round_start = self.slot
        self._build()

    def _flush(self) -> None:
        """One slot range: flush, drain, demux, RIC until quiescent."""
        ric = self.ric
        if ric is None:
            super()._flush()
            return
        rec = self.rec
        slot_range = (self.range_lo, self.slot - 1)
        self.range_lo = self.slot
        t0 = _now()
        if rec is None:
            self.sender.flush(slot_range=slot_range, worker=0)
            ric.demux(self.coord.drain())
            ric.quiesce()
        else:
            rec.trace = f"{self.kind}/range/{slot_range[0]}"
            with rec.span("uplink_range"):
                with rec.span("netio.flush"):
                    self.sender.flush(slot_range=slot_range, worker=0)
                frames = self.coord.drain()
                cap = self.captures
                if cap.open and len(cap.frames) < CAPTURE_LIMIT:
                    cap.frames.extend(data for _src, data in frames)
                with rec.span("cluster.demux"):
                    ric.demux(frames)
                with rec.span("ric.step"):
                    ric.quiesce()
        self.range_ns.append(_now() - t0)


class SwapLoop(Phase):
    """Fig. 5b under churn: every event swaps each rr/pf/mt slice of the
    cell to the next plugin, then steps ``SLOTS_PER_SWAP_EVENT`` slots.
    Even events are warm (binary in the codecache), odd ones cold."""

    #: swap loops built so far in this process: salts the cold variants, so
    #: a second loop of the same seed (the traced pass after the untraced
    #: reference, the legacy oracle) does not find the first one's binaries
    #: already compiled in the process-wide codecache
    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        SwapLoop.built += 1
        self.salt = f"{self.seed}.{SwapLoop.built}"
        self.event = 0
        self.variants = 0
        self.variant_shas: set[str] = set()
        self.rotating = [
            [runtime, SCHEDULER_PLUGINS.index(kind)]
            for runtime in self.cells[0].gnb.slices.values()
            if (kind := plugin_kind(runtime)) is not None
        ]

    def block(self, n_events: int) -> Block:
        rec = self.rec
        span_lo = len(rec.spans) if rec is not None else 0
        cell = self.cells[0]
        fault_events = cell.gnb.fault_policy.events
        series = {"slot": [], "post_swap": [], "swap_warm": [], "swap_cold": []}
        start = _now()
        for _ in range(n_events):
            cold = self.event % 2 == 1
            swaps = series["swap_cold" if cold else "swap_warm"]
            if rec is not None:
                rec.trace = f"{self.kind}/event/{self.event}"
            for entry in self.rotating:
                runtime = entry[0]
                entry[1] = (entry[1] + 1) % len(SCHEDULER_PLUGINS)
                wasm = plugin_wasm(SCHEDULER_PLUGINS[entry[1]])
                if cold:
                    wasm = cold_variant(wasm, self.salt, self.event)
                    self.variants += 1
                    self.variant_shas.add(hashlib.sha256(wasm).hexdigest())
                self.swaps += 1
                t0 = _now()
                try:
                    if rec is None:
                        runtime.swap_plugin(wasm)
                    else:
                        with rec.span("swap_plugin"):
                            runtime.swap_plugin(wasm)
                except Exception:  # whatever it raises, the swap failed
                    self.swap_failures += 1
                swaps.append(_now() - t0)
            faults_before = len(fault_events)
            series["post_swap"].append(self._cell_slot(cell, self.slot))
            if any(
                not self._expected_fault(e.kind)
                for e in fault_events[faults_before:]
            ):
                self.swap_failures += 1
            self._slot_done()
            for _ in range(SLOTS_PER_SWAP_EVENT - 1):
                series["slot"].append(self._cell_slot(cell, self.slot))
                self._slot_done()
            self._flush()
            self.event += 1
        wall = _now() - start
        cell_slots = n_events * SLOTS_PER_SWAP_EVENT
        self.cell_slots += cell_slots
        return Block(
            wall,
            {"cell_slots": cell_slots},
            series,
            (span_lo, len(rec.spans) if rec is not None else 0),
        )


def make_phase(workload: Workload, seed: int, kind: str, engine: str | None,
               rec=None, captures: Captures | None = None) -> Phase:
    cls = SwapLoop if kind == SWAP else SlotLoop
    return cls(workload, seed, kind, engine, rec, captures)


def set_obs(workload: Workload) -> None:
    """Telemetry as the workload ships it: ``run_worker`` always enables
    it; the library default (and the native floor) is off."""
    if workload.obs:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


def _schedule_capture(cap: Captures, kind: str | None, gnb, per_slot: bool):
    def capture(args, kwargs, result, error):
        if error is not None:
            return
        if per_slot:
            key = (id(gnb), gnb.slot)
            cap.plugin_us_by_slot[key] = (
                cap.plugin_us_by_slot.get(key, 0.0) + result.elapsed_us
            )
        if kind is None or not cap.open:
            return
        kept = cap.schedule.setdefault(kind, [])
        if len(kept) < CAPTURE_LIMIT:
            prbs, ues, slot = args[:3]
            kept.append((prbs, list(ues), slot, list(result.grants)))

    return capture


def _call_capture(cap: Captures, kind: str | None):
    def capture(args, kwargs, result, error):
        if not cap.open:
            return
        cap.calls += 1
        cap.input_bytes += len(args[0])
        if error is not None:
            cap.fault_calls += 1
            return
        if kind is None:
            return
        kept = cap.payloads.setdefault(kind, [])
        if len(kept) < CAPTURE_LIMIT:
            kept.append((bytes(args[0]), result.output, result.fuel_used))

    return capture
