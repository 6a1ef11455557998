"""Fig. 5b - live swap of the MVNO scheduler (MT -> PF -> RR).

Regenerates the figure's per-phase, per-UE rates and asserts the paper's
qualitative claims.  The timed kernel is the hot-swap operation itself
(decode + sanitize + instantiate), which is what bounds how "live" a swap
can be.
"""

import pytest

from benchmarks.conftest import print_table
from repro.abi import SchedulerPlugin
from repro.experiments.fig5b import UE_MCS, run_fig5b
from repro.obs import OBS
from repro.plugins import plugin_wasm
from repro.wasm.threaded import resolve_engine


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
    h0, m0 = hits.value(engine=engine), misses.value(engine=engine)

    def hot_swap():
        state["i"] += 1
        plugin.swap(binaries[state["i"] % 3])

    benchmark(hot_swap)
    assert plugin.host.generation > 0
    assert plugin.host.tier == engine

    # every swap decodes a fresh Module from the same bytes: the code
    # cache must absorb the re-lowering (ISSUE 2 acceptance: >= 90%)
    dh = hits.value(engine=engine) - h0
    dm = misses.value(engine=engine) - m0
    assert dh + dm > 0, "swaps did not touch the code cache"
    hit_rate = dh / (dh + dm)
    print(f"\ncode cache during hot swap: {dh:.0f} hits / {dm:.0f} misses "
          f"({hit_rate:.1%})")
    assert hit_rate >= 0.90, f"cache hit rate {hit_rate:.1%} below 90%"


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
