"""Fig. 5b - live swap of the MVNO scheduler (MT -> PF -> RR).

Regenerates the figure's per-phase, per-UE rates and asserts the paper's
qualitative claims.  The timed kernel is the hot-swap operation itself,
which is what bounds how "live" a swap can be: between binaries the
process has already seen it is hash + policy check + instantiate (their
decoded, validated module and lowered bodies are kept per content hash);
a never-seen binary also pays decode, validation and lowering.
"""

import statistics
import time

import pytest

from benchmarks.conftest import print_table
from benchmarks.ledger.workloads import cold_variant
from repro.abi import SchedulerPlugin
from repro.experiments.fig5b import UE_MCS, run_fig5b
from repro.obs import OBS
from repro.plugins import plugin_wasm
from repro.wasm.threaded import resolve_engine

SLOT_US = 1000.0
TIMED_SWAPS = 90


@pytest.mark.benchmark(group="fig5b")
def test_fig5b_swap_latency(benchmark):
    plugin = SchedulerPlugin.load(plugin_wasm("mt"), name="mvno")
    binaries = [plugin_wasm("pf"), plugin_wasm("rr"), plugin_wasm("mt")]
    state = {"i": 0}

    engine = resolve_engine()
    # Fig. 5b swaps between binaries that have been running: under the
    # default (tiering) engine that means promoted ones, whose swaps start
    # compiled; a no-op for the pure threaded/legacy engines
    for wasm in binaries:
        SchedulerPlugin.load(wasm, name="warm").host.promote()
    hits = OBS.registry.counter("waran_wasm_codecache_hits_total")
    misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
    module_misses = OBS.registry.counter("waran_wasm_module_cache_misses_total")
    h0, m0 = hits.value(engine=engine), misses.value(engine=engine)
    decoded0 = module_misses.value()
    warm_us = []

    def hot_swap():
        state["i"] += 1
        wasm = binaries[state["i"] % 3]
        t0 = time.perf_counter_ns()
        plugin.swap(wasm)
        warm_us.append((time.perf_counter_ns() - t0) / 1000.0)

    benchmark(hot_swap)
    # --benchmark-disable runs the body once: time a fixed loop regardless
    for _ in range(TIMED_SWAPS):
        hot_swap()
    assert plugin.host.generation > 0
    assert plugin.host.tier == engine

    # the three binaries were loaded above, so the timed swaps decode and
    # validate nothing and the code cache absorbs the re-lowering
    # (ISSUE 2 acceptance: >= 90%)
    decoded = module_misses.value() - decoded0
    assert decoded == 0, f"{decoded:.0f} timed swaps decoded their binary again"
    dh = hits.value(engine=engine) - h0
    dm = misses.value(engine=engine) - m0
    assert dh + dm > 0, "swaps did not touch the code cache"
    hit_rate = dh / (dh + dm)
    print(f"\ncode cache during hot swap: {dh:.0f} hits / {dm:.0f} misses "
          f"({hit_rate:.1%}); modules decoded: {decoded:.0f}")
    assert hit_rate >= 0.90, f"cache hit rate {hit_rate:.1%} below 90%"

    cold_us = []
    for index in range(TIMED_SWAPS // 3):
        # same code, new content hash: a binary this process has never seen
        wasm = cold_variant(binaries[index % 3], "fig5b", index)
        t0 = time.perf_counter_ns()
        plugin.swap(wasm)
        cold_us.append((time.perf_counter_ns() - t0) / 1000.0)
    assert module_misses.value() - decoded0 == len(cold_us)
    warm, cold = statistics.median(warm_us), statistics.median(cold_us)
    print_table(
        f"Fig. 5b: swap latency (us), slot = {SLOT_US:.0f} us",
        ["swap", "n", "p50", "max", "p50 / slot"],
        [
            ("warm (seen binary)", len(warm_us), warm, max(warm_us), warm / SLOT_US),
            ("cold (never seen)", len(cold_us), cold, max(cold_us), cold / SLOT_US),
        ],
    )
    # a *live* swap: between running schedulers it must leave at least
    # half the slot to the scheduling pass that follows it (~45 us here)
    assert warm < SLOT_US / 2, (
        f"median warm swap {warm:.0f} us does not leave half the "
        f"{SLOT_US:.0f} us slot free"
    )


@pytest.mark.benchmark(group="fig5b")
def test_fig5b_shape(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig5b(phase_duration_s=4.0), rounds=1, iterations=1
    )

    rows = []
    for phase in ("mt", "pf", "rr"):
        means = result.phase_means[phase]
        rows.append(
            (phase.upper(),) + tuple(round(means[ue], 2) for ue in sorted(UE_MCS))
        )
    print_table(
        "Fig. 5b: per-phase mean rate (Mb/s) for UEs at MCS 20/24/28",
        ["phase", "MCS20", "MCS24", "MCS28"],
        rows,
    )
    print_table(
        "Fig. 5b: PF-phase dynamics (Mb/s)",
        ["half", "MCS20", "MCS24", "MCS28"],
        [
            ("first",) + tuple(round(result.pf_first_half[u], 2) for u in sorted(UE_MCS)),
            ("second",) + tuple(round(result.pf_second_half[u], 2) for u in sorted(UE_MCS)),
        ],
    )
    checks = result.shape_holds()
    print("shape checks:", checks)
    assert all(checks.values()), checks
