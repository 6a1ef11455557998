"""The traced pass: per-layer metrics from the harness's own spans, exact
counts over the fixed prefix, and the layer probes.

The end-to-end numbers come from the untraced pass (``run.py``); this
pass rebuilds every loop from the same seed with a
:class:`~benchmarks.ledger.spans.SpanRecorder` attached, so the two can
be checked against each other (digests) and the cost of the harness's own
tracing is itself a reported row.
"""

from __future__ import annotations

import statistics

from benchmarks.ledger import probes, spans
from benchmarks.ledger.hostclock import HostClock, percentile
from benchmarks.ledger.run import (
    OUT,
    Measured,
    host_metrics,
    load_contract,
    measure,
    phase_kinds,
    resolve,
    sourced_metrics,
    summarise,
    warn_if_unsteady,
)
from benchmarks.ledger.workloads import (
    UPLINK,
    Captures,
    make_phase,
    ops_of,
    set_obs,
)

#: share of ``--seconds`` the traced loops get; the probes take the rest
TRACED_SHARE = 0.5


def _prefix_wall_norm(measured: Measured, n: int) -> float:
    """Normalised wall time of the first ``n`` blocks (ns)."""
    return sum(measured.blocks[j].wall_ns * measured.factor(j) for j in range(n))


class SpanStats:
    """Durations and self times per span name, normalised block by block."""

    def __init__(self, rec: spans.SpanRecorder, measured: Measured):
        self.dur: dict[str, list[float]] = {}
        self.own: dict[str, list[float]] = {}
        durations = spans.durations_ns(rec.spans)
        own = spans.self_times_ns(rec.spans)
        for j in measured.kept():
            factor = measured.factor(j) / 1e3  # ns -> normalised us
            lo, hi = measured.blocks[j].spans
            for index in range(lo, hi):
                name = rec.spans[index][spans.NAME]
                self.dur.setdefault(name, []).append(durations[index] * factor)
                self.own.setdefault(name, []).append(own[index] * factor)

    def mean(self, name: str) -> float:
        values = self.dur.get(name)
        return statistics.fmean(values) if values else 0.0

    def total(self, name: str) -> float:
        return sum(self.dur.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.dur.get(name, ()))

    def mean_self(self, name: str) -> float:
        values = self.own.get(name)
        return statistics.fmean(values) if values else 0.0

    def quantile(self, name: str, q: float) -> float:
        return percentile(sorted(self.dur.get(name, ())), q)


def run_traced(args) -> dict:
    import time

    workload, engine = resolve(args)
    problems: list[str] = []
    values: dict[str, float] = {}
    cpu0, wall0 = time.process_time(), time.perf_counter()

    # the untraced prefix: the reference for the digest check and for the
    # cost of the harness's own tracing
    set_obs(workload)
    main_kind = workload.main
    reference = measure(
        {main_kind: make_phase(workload, args.seed, main_kind, engine)}, 0.0
    )[main_kind]

    set_obs(workload)
    rec = spans.SpanRecorder()
    cap = Captures()
    measured = measure(
        {
            kind: make_phase(workload, args.seed, kind, engine, rec, cap)
            for kind in phase_kinds(workload)
        },
        args.seconds * TRACED_SHARE,
        prefix_hooks=(lambda kind: _open(cap), lambda kind: _close(cap)),
    )
    stats = {kind: SpanStats(rec, m) for kind, m in measured.items()}
    attempted = failed = 0
    for kind, m in measured.items():
        done, bad = ops_of(m.phase.counts())
        attempted += done
        failed += bad
        if bad:
            problems.append(f"{kind}: {bad} failed operations {m.phase.counts()}")

    main = measured[main_kind]
    prefix = workload.prefix
    if main.prefix_state["digest"] != reference.prefix_state["digest"]:
        problems.append(
            "bytes/fault digest of the traced pass differs from the untraced "
            f"pass at block {prefix}: {main.prefix_state['digest'][:12]} vs "
            f"{reference.prefix_state['digest'][:12]}"
        )
    values["obs.bench_trace_overhead_ratio"] = _prefix_wall_norm(
        main, prefix
    ) / _prefix_wall_norm(reference, prefix)

    tails = sourced_metrics(workload, {k: summarise(m) for k, m in measured.items()})
    declared = {m["name"] for m in load_contract()["per_layer"]}
    values.update({k: v for k, v in tails.items() if k.removeprefix("raw.") in declared})
    values.update(_span_metrics(workload, stats, measured, cap))
    values.update(_count_metrics(workload, measured, cap))
    values["wasm.codecache_hit_ratio"] = _codecache_hit_ratio()
    values["obs.slot_overhead_ratio"] = _slot_overhead_ratio(workload, args.seed, engine)
    probe_clock = _run_probes(cap, engine, args.seed, values, problems)
    values["abi.wasm_over_native_x"] = (
        values["abi.schedule_us"] / values["sched.native_us"]
        if values["sched.native_us"] else 0.0
    )

    values.update(
        host_metrics(
            [reference.clock, main.clock, probe_clock],
            time.process_time() - cpu0, time.perf_counter() - wall0,
        )
    )
    warn_if_unsteady(values)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"{workload.name}.trace.json")
    return {
        "workload": workload.name, "seed": args.seed, "engine": engine,
        "trace": 1, "seconds": args.seconds,
        "attempted": attempted, "failed": failed + len(problems),
        "problems": problems, "values": values,
        "spans": len(rec.spans),
        "prefix": {k: m.prefix_state for k, m in measured.items()},
    }


def _open(cap: Captures) -> None:
    """A loop's prefix begins: keep its inputs, count its ABI calls."""
    cap.open = True
    cap.calls = cap.input_bytes = cap.fault_calls = 0


def _close(cap: Captures) -> dict:
    """The loop's prefix ended: stop keeping inputs, report the exact
    ABI counts so far."""
    cap.open = False
    return {"abi": (cap.calls, cap.input_bytes, cap.fault_calls)}


def _slot_overhead_ratio(workload, seed: int, engine: str, pairs: int = 3) -> float:
    """The main loop with the program's telemetry on against the same loop
    with it off, block about: the median of the per-pair time ratios, each
    block normalised by its own bracketing kernels."""
    from repro import obs

    phase = make_phase(workload, seed, workload.main, engine)
    work = workload.block[workload.main]
    phase.block(work)  # warm both paths' caches
    clock = HostClock()
    clock.tick()
    walls = []
    for index in range(2 * pairs):
        (obs.enable if index % 2 == 0 else obs.disable)()
        walls.append(phase.block(work).wall_ns * clock.factor_after_tick())
    set_obs(workload)
    return statistics.median(
        walls[i] / walls[i + 1] for i in range(0, len(walls), 2)
    )


def _codecache_hit_ratio() -> float:
    """Hit share by the program's own counters, which only count while
    telemetry is enabled (so 0 on a workload that ships with it off)."""
    from repro.wasm.codecache import stats

    snapshot = stats()
    looked_up = snapshot["hits"] + snapshot["misses"]
    return snapshot["hits"] / looked_up if looked_up else 0.0


def _span_metrics(workload, stats, measured, cap: Captures) -> dict[str, float]:
    main = stats[workload.main]
    uplink = stats[UPLINK]
    step = main.mean("gnb.step")
    steps = main.count("gnb.step")
    mac_self = (
        (main.total("gnb.step") - main.total("abi.schedule")) / steps if steps else 0.0
    )
    out = {
        "gnb.step_us": step,
        "gnb.mac_self_us": mac_self,
        "gnb.mac_share": mac_self / step if step else 0.0,
        "abi.schedule_us": main.mean("abi.schedule"),
        "abi.schedule_p50_us": main.quantile("abi.schedule", 0.50),
        "abi.schedule_p99_us": main.quantile("abi.schedule", 0.99),
        "abi.call_us": main.mean("abi.call"),
        "abi.wire_self_us": main.mean_self("abi.schedule"),
        "rt.plan_slot_us": main.mean("rt.plan_slot"),
        "e2.node_step_us": uplink.mean("e2.node_step"),
        "netio.flush_us": uplink.mean("netio.flush"),
        "cluster.demux_us": uplink.mean("cluster.demux"),
        "ric.step_us": uplink.mean("ric.step"),
        # one xApp subscribed to one record kind: one host call per indication
        "ric.dispatch_us_per_indication": uplink.mean("ric.xapp_call"),
    }
    budget_us = _rt_budget_us(measured[workload.main].phase)
    per_slot = sorted(cap.plugin_us_by_slot.values())
    out["rt.budget_wall_x"] = (
        percentile(per_slot, 0.99) / budget_us if budget_us and per_slot else 0.0
    )
    return out


def _rt_budget_us(phase) -> float:
    rt = phase.cells[0].gnb.rt
    return rt.policy.budget_us if rt is not None else 0.0


def _count_metrics(workload, measured, cap: Captures) -> dict[str, float]:
    """Exact counts over the fixed prefix: they must repeat bit for bit."""
    main = measured[workload.main].prefix_state
    uplink = measured[UPLINK].prefix_state
    calls, input_bytes, fault_calls = main["abi"]
    counts = main["counts"]
    prefix_cell_slots = sum(
        b.units["cell_slots"] for b in measured[workload.main].blocks[: workload.prefix]
    )
    out = {
        "abi.calls_per_cell_slot": calls / prefix_cell_slots,
        "abi.input_bytes_per_call": input_bytes / calls if calls else 0.0,
        "abi.fault_calls": float(fault_calls),
        "ric.xapp_calls": float(uplink["counts"]["xapp_calls"]),
        "ric.controls_per_indication": (
            uplink["counts"]["controls"] / uplink["counts"]["xapp_calls"]
            if uplink["counts"]["xapp_calls"] else 0.0
        ),
        "netio.dropped": float(measured[UPLINK].phase.sender.dropped),
        "netio.frame_bytes": (
            sum(map(len, cap.frames)) / len(cap.frames) if cap.frames else 0.0
        ),
        "e2.indication_bytes": probes.indication_bytes(cap),
    }
    for key in ("dispatched", "degraded", "overruns", "misses",
                "quarantines", "readmissions"):
        out[f"rt.{key}"] = float(counts[f"rt.{key}"])
    return out


def _run_probes(cap, engine, seed, values, problems) -> HostClock:
    """Run every probe between two kernel ticks and normalise its timings."""
    clock = HostClock()
    clock.tick()
    fuels: dict[str, float] = {}
    for index, probe in enumerate(probes.all_probes(cap, engine, seed)):
        result = probe()
        clock.tick()
        for key, value in result.items():
            if key.startswith("fuel."):
                fuels[key[5:]] = value  # a count: never scaled
            else:
                values[f"raw.{key}"] = value
                values[key] = value * clock.factor(index)
    if len(set(fuels.values())) != 1:
        problems.append(f"wasm.fuel_per_call differs across engines: {fuels}")
    fuel = fuels[engine]
    values["wasm.fuel_per_call"] = fuel
    for e in probes.ENGINES:
        exec_us = values[f"wasm.exec_us.{e}"]
        values[f"wasm.fuel_per_us.{e}"] = fuel / exec_us if exec_us else 0.0
    return clock
