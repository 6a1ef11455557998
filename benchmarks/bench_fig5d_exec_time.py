"""Fig. 5d - plugin execution time (p50/p99, incl. serialization).

Regenerates the figure's bars: MT/RR/PF plugins at 1/10/20 connected UEs,
50th and 99th percentile execution time against the 1000 us slot.

Measurement path: the benchmark session runs with :mod:`repro.obs`
enabled (see ``conftest.py``), so every ``plugin.schedule()`` call already
reports its wall time, fuel and retired instructions into the process-wide
registry (``waran_plugin_call_us{plugin=...}`` etc.).  The table below is
read *back from the registry snapshot* - no bench-private quantile
estimators.

Honesty note: the paper measures wasmtime-JIT'd plugins on an i7; we
measure Wasm compiled to Python source (the default ``aot`` engine, which
a plugin host reaches by tier-up after a few threaded calls).  On that
engine the paper's claim holds outright - every p99 bar sits inside the
slot on an idle host - but p99 moves +/-50% with host load, so the bench
*asserts* the load-robust half (time grows with UE count; every p50
inside the slot; p50 at 20 UEs under half of it) and *reports* the p99
verdict.  The slot-cost ledger rows ``abi.schedule_p50_us``/``_p99_us``
are the host-speed-normalised record of the same call.
"""

import pytest

from benchmarks.conftest import print_table
from repro.abi import SchedulerPlugin
from repro.experiments.fig5d import PLUGINS, UE_COUNTS, Cell, Fig5dResult, make_ues
from repro.obs import OBS
from repro.plugins import plugin_wasm


def _load(plugin_name: str, label: str) -> SchedulerPlugin:
    plugin = SchedulerPlugin.load(plugin_wasm(plugin_name), name=label)
    plugin.host.limits.fuel = 10_000_000
    return plugin


def _cell_from_registry(plugin_name: str, n_ues: int, label: str) -> Cell:
    snap = OBS.registry.histogram("waran_plugin_call_us").snapshot(plugin=label)
    assert snap["count"] > 0, "telemetry must be enabled under benchmarks/"
    return Cell(
        plugin_name, n_ues, snap["p50"], snap["p99"], snap["mean"], int(snap["count"])
    )


@pytest.mark.benchmark(group="fig5d")
@pytest.mark.parametrize("plugin_name", ["mt", "rr", "pf"])
@pytest.mark.parametrize("n_ues", [1, 10, 20])
def test_fig5d_plugin_call(benchmark, plugin_name, n_ues):
    """pytest-benchmark timing of one plugin scheduling call."""
    label = f"{plugin_name}-{n_ues}ue"
    plugin = _load(plugin_name, label)
    ues = make_ues(n_ues)
    slot = [0]

    def call():
        slot[0] += 1
        return plugin.schedule(52, ues, slot[0])

    result = benchmark(call)
    assert result.grants or all(u.buffer_bytes == 0 for u in ues)

    # every timed round also landed in the registry, with its fuel bill
    call_us = OBS.registry.histogram("waran_plugin_call_us")
    fuel = OBS.registry.histogram("waran_plugin_fuel_used")
    assert call_us.count(plugin=label) == fuel.count(plugin=label) > 0


@pytest.mark.benchmark(group="fig5d")
def test_fig5d_quantile_table(benchmark):
    """The figure itself: p50/p99 per plugin per UE count, from the registry."""

    def measure() -> Fig5dResult:
        cells = []
        for plugin_name in PLUGINS:
            for n_ues in UE_COUNTS:
                label = f"{plugin_name}:{n_ues}ue"
                plugin = _load(plugin_name, label)
                ues = make_ues(n_ues)
                for slot in range(400):
                    plugin.schedule(52, ues, slot)
                cells.append(_cell_from_registry(plugin_name, n_ues, label))
        return Fig5dResult(cells)

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Fig. 5d: plugin execution time (us), slot = 1000 us",
        ["plugin", "UEs", "p50", "p99", "mean"],
        [
            (p, n, round(p50, 1), round(p99, 1), round(mean, 1))
            for p, n, p50, p99, mean in result.rows()
        ],
    )
    # the paper's Fig. 5d statement, reported: on a loaded CI box OS
    # preemption injects multi-millisecond outliers into p99 regardless of
    # the workload, so the asserts below use p50
    print(
        f"every p99 inside the {result.slot_duration_us:.0f} us slot: "
        f"{result.all_within_deadline()}"
    )
    assert result.grows_with_ues()
    slot_us = result.slot_duration_us
    over = [c for c in result.cells if c.p50_us >= slot_us]
    assert not over, f"p50 outside the slot: {over}"
    busiest = [c for c in result.cells if c.n_ues == max(UE_COUNTS)]
    slow = [c for c in busiest if c.p50_us >= slot_us / 2]
    assert not slow, (
        f"p50 at {max(UE_COUNTS)} UEs must leave half the slot free on the "
        f"default engine: {slow}"
    )
