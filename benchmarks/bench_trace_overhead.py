"""Telemetry overhead - off must mean off, and on must stay on a budget.

Three contracts.  Each is a ratio, or a sub-microsecond budget, whose two
sides are timed in this same process, so they hold on shared runners
with the fixed x2 headroom of :data:`TOLERANCE`:

1. **Disabled-site cost**: ``tracer.span()`` on a disabled tracer is one
   branch returning the shared null span.  Per instrumented site that
   must cost well under a microsecond, or sprinkling spans through the
   hot path (gnb.step, net.send, uplink.flush, ...) would tax every
   *untraced* run - the observability layer's core promise is that off
   means off.
2. **Trace-feature cost**: a ``trace=True`` cluster run (span shipping,
   stitching, attribution) must stay within the tolerance of the
   identical untraced run - tracing is a diagnostic you can afford to
   leave on.
3. **Plugin-call telemetry budget**: the compiled ``PluginHost.call``
   with the whole bundle on (span, registry series, flight record, frame
   counters) over the same call with it off.  ``run_worker`` always
   enables telemetry, so this overhead is inside every slot the paper's
   Fig. 5d claim is judged on; the bound keeps it from silently growing
   back.

The absolute cost of each is a slot-cost ledger row (``obs.span_disabled_us``,
``obs.slot_overhead_ratio``, ``obs.call_overhead_us``).
"""

import statistics
import time
from dataclasses import replace

import pytest

from repro import obs
from repro.obs.tracing import Tracer

#: headroom on every bound below for a shared 2-core runner, where
#: identical code drifts by tens of percent between back-to-back runs
TOLERANCE = 2.0

#: disabled span() call budget per site, before :data:`TOLERANCE`
DISABLED_SITE_BUDGET_US = 1.0

#: obs-on ``PluginHost.call`` may cost this much more than obs-off, as a
#: share of the obs-off call, on a cheap real scheduling call: rr, three
#: UEs, promoted to compiled code (~28 us obs-off; the larger the call,
#: the smaller the share).  Measured on a 2-core host, CPython 3.11:
#: 0.30-0.35 (+9-10 us) with one record per call handed to the tracer,
#: the flight recorder and a batch of registry samples; 0.64-0.65
#: (+18-19 us) when each call built its span, flight record and six
#: histogram observations on the spot
CALL_OVERHEAD_BUDGET = 0.20


@pytest.mark.benchmark(group="trace-overhead")
def test_disabled_span_site_cost(benchmark):
    tracer = Tracer(enabled=False)
    n = 10_000

    def hot_loop() -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("site"):
                pass
        return time.perf_counter() - t0

    elapsed = benchmark.pedantic(hot_loop, rounds=5, iterations=1)
    per_site_us = elapsed / n * 1e6
    print(f"\ndisabled span site: {per_site_us:.3f}us/site")
    assert not tracer.finished(), "disabled tracer must record nothing"
    budget = DISABLED_SITE_BUDGET_US * TOLERANCE
    assert per_site_us <= budget, (
        f"disabled tracer.span() costs {per_site_us:.3f}us/site "
        f"(> {budget:.2f}us): the off-path is no longer one branch"
    )


@pytest.mark.benchmark(group="trace-overhead")
def test_traced_cluster_within_gate_tolerance(benchmark):
    from repro.cluster import ClusterSpec, run_cluster

    spec = ClusterSpec(
        workers=2, cells=4, ues=8, slots=60, seed=7, mode="inline"
    )

    def pair():
        t0 = time.perf_counter()
        plain = run_cluster(spec)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        traced = run_cluster(replace(spec, trace=True))
        t_traced = time.perf_counter() - t0
        return plain, traced, t_plain, t_traced

    plain, traced, t_plain, t_traced = benchmark.pedantic(
        pair, rounds=1, iterations=1
    )
    # tracing must not change results, only explain them
    assert traced.bytes_digest == plain.bytes_digest
    assert traced.fault_digest == plain.fault_digest
    assert traced.attribution["dominant"]
    ratio = t_traced / t_plain if t_plain else 1.0
    print(
        f"\ncluster run: plain {t_plain:.2f}s, traced {t_traced:.2f}s "
        f"(x{ratio:.2f})"
    )
    assert ratio <= TOLERANCE, (
        f"trace=True costs x{ratio:.2f} over the untraced run "
        f"(bound x{TOLERANCE:.2f})"
    )


@pytest.mark.benchmark(group="trace-overhead")
def test_plugin_call_telemetry_overhead(benchmark):
    from repro.abi import wire
    from repro.abi.host import PluginHost
    from repro.plugins import plugin_wasm
    from repro.sched import UeSchedInfo

    payload = wire.pack_sched_input(
        0, 52, [UeSchedInfo(i + 1, 20, 12, 50_000, 1e6) for i in range(3)]
    )
    raw = plugin_wasm("rr")
    hosts = {
        False: PluginHost(raw, name="overhead-off"),
        True: PluginHost(raw, name="overhead-on"),
    }
    for host in hosts.values():
        host.promote()  # time the compiled call every slot makes
    calls, rounds = 200, 9

    def timed(enabled: bool) -> float:
        host = hosts[enabled]
        (obs.enable if enabled else obs.disable)()
        t0 = time.perf_counter()
        for _ in range(calls):
            host.call(payload)
        return time.perf_counter() - t0

    def measure() -> tuple[float, float]:
        was_enabled = obs.OBS.enabled
        try:
            for enabled in hosts:  # scratch alloc + handle binding, untimed
                timed(enabled)
            ratios, off_us = [], []
            for r in range(rounds):
                # alternate who goes first so a drifting host hits both alike
                first = bool(r % 2)
                t = {first: timed(first)}
                t[not first] = timed(not first)
                ratios.append(t[True] / t[False])
                off_us.append(t[False] / calls * 1e6)
            return statistics.median(ratios), statistics.median(off_us)
        finally:
            (obs.enable if was_enabled else obs.disable)()

    ratio, off_us = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = ratio - 1.0
    print(
        f"\nplugin call: obs off {off_us:.1f}us, obs on x{ratio:.3f} "
        f"(+{overhead * off_us:.1f}us)"
    )
    reg = obs.OBS.registry
    assert reg.histogram("waran_plugin_call_us").count(plugin="overhead-off") == 0
    assert reg.histogram("waran_plugin_call_us").count(plugin="overhead-on") >= (
        calls * rounds
    )
    budget = CALL_OVERHEAD_BUDGET * TOLERANCE
    assert overhead <= budget, (
        f"telemetry adds {overhead:.0%} to PluginHost.call "
        f"(budget {budget:.0%} of the obs-off call): the per-call "
        "telemetry path has grown"
    )
