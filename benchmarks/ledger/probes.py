"""Layer probes: inputs captured at the ABI/E2/transport boundaries during
the traced pass, replayed on standalone shadow instances and networks
(the record/replay discipline of Wasm-R3), so probing never perturbs
simulated state.  Each probe returns raw mean microseconds; the caller
brackets it with the reference kernel and normalises.
"""

from __future__ import annotations

import time

from repro import obs
from repro.abi.host import HostLimits, PluginHost, SchedulerPlugin
from repro.channel.models import MarkovCqiChannel
from repro.e2 import vendors
from repro.e2.batch import iter_batch_frame
from repro.netio.bus import InProcNetwork, TcpNetwork
from repro.phy.mcs import cqi_to_mcs
from repro.plugins import SCHEDULER_PLUGINS, plugin_source, plugin_wasm
from repro.sched.intra import make_intra_scheduler
from repro.wacc import compile_source
from repro.wasm import decode_module
from repro.wasm.threaded import ENGINES
from repro.wasm.validator import validate_module

from benchmarks.ledger.workloads import Captures, cold_variant

_now = time.perf_counter_ns

#: captured calls replayed per plugin and engine
PROBE_CALLS = 60
#: loads timed per engine for the warm/cold columns
PROBE_LOADS = 6
FUEL = 2_000_000


def _mean_us(total_ns: int, n: int) -> float:
    return total_ns / n / 1e3 if n else 0.0


def _payloads(cap: Captures) -> list[tuple[str, bytes]]:
    return [
        (kind, payload)
        for kind in SCHEDULER_PLUGINS
        for payload, _out, _fuel in cap.payloads.get(kind, [])[:PROBE_CALLS]
    ]


def wasm_exec(cap: Captures, engine: str) -> tuple[float, float]:
    """Captured inputs through ``Instance.call`` on fresh instances of
    ``engine``: ``(mean us per call, mean fuel per call)``."""
    calls = _payloads(cap)
    if not calls:
        return 0.0, 0.0
    instances = {}
    for kind in {k for k, _ in calls}:
        instance = PluginHost(plugin_wasm(kind), engine=engine).instance
        size = max(len(p) for k, p in calls if k == kind)
        instances[kind] = (instance, instance.call("alloc", size, fuel=None))
    total_ns = fuel = 0
    for kind, payload in calls:
        instance, ptr = instances[kind]
        instance.memory.write(ptr, payload)
        t0 = _now()
        instance.call("run", ptr, len(payload), fuel=FUEL)
        total_ns += _now() - t0
        fuel += FUEL - instance.store.fuel
    return _mean_us(total_ns, len(calls)), fuel / len(calls)


def host_call(cap: Captures, engine: str) -> dict[str, float]:
    """The same inputs through ``PluginHost.call`` on shadow hosts, with
    the process-wide telemetry off and on, beside the bare ``Instance.call``
    - call about, so a drifting host hits all three alike.

    ``abi.host_self_us`` is the obs-off call minus the bare execute;
    ``obs.call_overhead_us`` the obs-on call minus the obs-off one."""
    calls = _payloads(cap)
    if not calls:
        return {"abi.host_self_us": 0.0, "obs.call_overhead_us": 0.0}
    kinds = {k for k, _ in calls}
    was_enabled = obs.OBS.enabled

    def hosts(tag: str) -> dict:
        return {
            kind: PluginHost(
                plugin_wasm(kind), name=f"probe.{tag}/{kind}",
                limits=HostLimits(fuel=FUEL), engine=engine,
            )
            for kind in kinds
        }

    off, on, bare = hosts("off"), hosts("on"), hosts("bare")
    pointers = {}
    for kind in kinds:
        size = max(len(p) for k, p in calls if k == kind)
        first = next(p for k, p in calls if k == kind)
        instance = bare[kind].instance
        pointers[kind] = instance.call("alloc", size, fuel=None)
        obs.disable()
        # one untimed call each: the scratch alloc happens once, and all
        # three instances start the timed calls in the same state
        off[kind].call(first)
        on[kind].call(first)
        instance.memory.write(pointers[kind], first)
        instance.call("run", pointers[kind], len(first), fuel=FUEL)
    def run_bare(kind, payload):
        instance, ptr = bare[kind].instance, pointers[kind]
        instance.memory.write(ptr, payload)
        t0 = _now()
        instance.call("run", ptr, len(payload), fuel=FUEL)
        return _now() - t0

    def run_off(kind, payload):
        t0 = _now()
        off[kind].call(payload)
        return _now() - t0

    def run_on(kind, payload):
        obs.enable()
        t0 = _now()
        on[kind].call(payload)
        elapsed = _now() - t0
        obs.disable()
        return elapsed

    # the three share one compiled module, so whichever runs first pays
    # the cold caches: rotate the order call by call
    order = [run_bare, run_off, run_on]
    total = dict.fromkeys(order, 0)
    try:
        for index, (kind, payload) in enumerate(calls):
            for shift in range(3):
                fn = order[(index + shift) % 3]
                total[fn] += fn(kind, payload)
    finally:
        (obs.enable if was_enabled else obs.disable)()
    n = len(calls)
    return {
        "abi.host_self_us": _mean_us(total[run_off] - total[run_bare], n),
        "obs.call_overhead_us": _mean_us(total[run_on] - total[run_off], n),
    }


def native_schedule(cap: Captures) -> float:
    """The native scheduler of the same policy on the captured inputs:
    the Fig. 5d floor beside ``abi.schedule_us``."""
    total_ns = n = 0
    for kind in SCHEDULER_PLUGINS:
        scheduler = make_intra_scheduler(kind)
        for prbs, ues, slot, _grants in cap.schedule.get(kind, [])[:PROBE_CALLS]:
            t0 = _now()
            scheduler.schedule(prbs, ues, slot)
            total_ns += _now() - t0
            n += 1
    return _mean_us(total_ns, n)


def load_warm(engine: str) -> float:
    """``SchedulerPlugin.load`` of binaries already in the codecache."""
    for kind in SCHEDULER_PLUGINS:
        SchedulerPlugin.load(plugin_wasm(kind), engine=engine)
    t0 = _now()
    for i in range(PROBE_LOADS):
        SchedulerPlugin.load(
            plugin_wasm(SCHEDULER_PLUGINS[i % len(SCHEDULER_PLUGINS)]), engine=engine
        )
    return _mean_us(_now() - t0, PROBE_LOADS)


def load_cold(engine: str, seed: int) -> float:
    """``SchedulerPlugin.load`` of never-seen binaries: sanitize, decode,
    validate and compile under ``engine``."""
    variants = [
        cold_variant(
            plugin_wasm(SCHEDULER_PLUGINS[i % len(SCHEDULER_PLUGINS)]),
            seed, f"probe.{engine}.{i}",
        )
        for i in range(PROBE_LOADS)
    ]
    t0 = _now()
    for wasm in variants:
        SchedulerPlugin.load(wasm, engine=engine)
    return _mean_us(_now() - t0, PROBE_LOADS)


def decode_validate() -> float:
    binaries = [plugin_wasm(kind) for kind in SCHEDULER_PLUGINS]
    t0 = _now()
    for wasm in binaries:
        validate_module(decode_module(wasm))
    return _mean_us(_now() - t0, len(binaries))


def wacc_compile() -> float:
    """WACC compile of the shipped plugins the workloads load."""
    sources = [plugin_source(n) for n in (*SCHEDULER_PLUGINS, "xapp_sla")]
    t0 = _now()
    for source in sources:
        compile_source(source)
    return _mean_us(_now() - t0, len(sources))


def channel_step(seed: int, ues: int = 48, slots: int = 200) -> float:
    """Per-UE channel evolution as ``gnb.step`` does it (step + mcs)."""
    channels = [
        MarkovCqiChannel(initial_cqi=7 + i % 6, p_step=0.2, seed=seed + i)
        for i in range(ues)
    ]
    t0 = _now()
    for slot in range(slots):
        for channel in channels:
            channel.step(slot)
            channel.mcs(slot)
    return _mean_us(_now() - t0, ues * slots)


def cqi_lookup(rounds: int = 400) -> float:
    t0 = _now()
    for _ in range(rounds):
        for cqi in range(1, 16):
            cqi_to_mcs(cqi)
    return _mean_us(_now() - t0, rounds * 15)


def obs_micro(n: int = 5000) -> dict[str, float]:
    """Registry and span micro-costs, on a private bundle so the probe
    leaves the process-wide telemetry alone."""
    bundle = obs.Observability(enabled=True)
    hist = bundle.registry.histogram
    t0 = _now()
    for i in range(n):
        hist("ledger_probe_us", "probe").observe(float(i), plugin="probe")
    observe = _mean_us(_now() - t0, n)
    span = bundle.tracer.span
    t0 = _now()
    for _ in range(n):
        with span("probe"):
            pass
    enabled = _mean_us(_now() - t0, n)
    bundle.disable()
    t0 = _now()
    for _ in range(n):
        with span("probe"):
            pass
    disabled = _mean_us(_now() - t0, n)
    return {
        "obs.registry_observe_us": observe,
        "obs.span_us": enabled,
        "obs.span_disabled_us": disabled,
    }


def _e2_payloads(cap: Captures) -> list[bytes]:
    return [
        payload for frame in cap.frames for _node, payload in iter_batch_frame(frame)
    ]


def e2_codec(cap: Captures) -> dict[str, float]:
    """Vendor decode and re-encode of the captured E2 indications."""
    payloads = _e2_payloads(cap)[: 4 * PROBE_CALLS]
    if not payloads:
        return {"e2.decode_us": 0.0, "e2.encode_us": 0.0}
    profile = vendors.vendor_b()
    t0 = _now()
    messages = [profile.decode(payload) for payload in payloads]
    decode = _mean_us(_now() - t0, len(payloads))
    t0 = _now()
    for message in messages:
        profile.encode(message)
    return {"e2.decode_us": decode, "e2.encode_us": _mean_us(_now() - t0, len(messages))}


def indication_bytes(cap: Captures) -> float:
    payloads = _e2_payloads(cap)
    return sum(map(len, payloads)) / len(payloads) if payloads else 0.0


def transport(cap: Captures, network) -> float:
    """Captured range frames, send to recv, inside this process."""
    frames = cap.frames
    if not frames:
        return 0.0
    with network:
        source, sink = network.endpoint("probe.src"), network.endpoint("probe.dst")
        source.send("probe.dst", frames[0])
        if sink.recv(timeout=5.0) is None:  # connection set-up, untimed
            raise RuntimeError("transport probe: first frame never arrived")
        t0 = _now()
        for frame in frames:
            source.send("probe.dst", frame)
            if sink.recv(timeout=5.0) is None:
                raise RuntimeError("transport probe: frame never arrived")
        return _mean_us(_now() - t0, len(frames))


def all_probes(cap: Captures, engine: str, seed: int) -> list:
    """Callables returning ``{metric: raw us}``, each bracketed by the
    caller.  The ``fuel.<engine>`` rows are counts: the caller compares
    them across engines and folds them into ``wasm.fuel_per_call``."""

    def exec_probe(e: str) -> dict:
        us, fuel = wasm_exec(cap, e)
        return {f"wasm.exec_us.{e}": us, f"fuel.{e}": fuel}

    return [
        *(lambda e=e: exec_probe(e) for e in ENGINES),
        *(
            lambda e=e: {f"wasm.load_cold_us.{e}": load_cold(e, seed)}
            for e in ENGINES
        ),
        lambda: {"wasm.load_warm_us": load_warm(engine)},
        lambda: {"wasm.decode_validate_us": decode_validate()},
        lambda: {"wacc.compile_us": wacc_compile()},
        lambda: host_call(cap, engine),
        lambda: {"sched.native_us": native_schedule(cap)},
        lambda: {"channel.ue_step_us": channel_step(seed)},
        lambda: {"phy.cqi_to_mcs_us": cqi_lookup()},
        obs_micro,
        lambda: e2_codec(cap),
        lambda: {"netio.inline.frame_us": transport(cap, InProcNetwork())},
        lambda: {"netio.tcp.frame_us": transport(cap, TcpNetwork())},
    ]
