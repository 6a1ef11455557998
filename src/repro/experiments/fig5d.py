"""Fig. 5d - plugin execution time.

Paper setup: measure the execution time of the MT/RR/PF scheduler plugins
with 1, 10 and 20 connected UEs, *including* the host-side serialization
and deserialization overhead, and report the 50th and 99th percentiles
against the 1000 us slot duration.

Expected shape: p99 under the slot duration for every plugin and UE
count (:meth:`Fig5dResult.all_within_deadline`); time grows with the
number of UEs.  Absolute numbers here are those of Wasm compiled to Python
source (the default ``aot`` engine, reached by tier-up), not a native
JIT's: the claim holds with less slack than the paper's, and only for
the plugin call - EXPERIMENTS.md has the table and what a whole slot
costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.abi import SchedulerPlugin
from repro.plugins import plugin_wasm
from repro.sched import UeSchedInfo

SLOT_DURATION_US = 1000.0
UE_COUNTS = (1, 10, 20)
PLUGINS = ("mt", "rr", "pf")


@dataclass
class Cell:
    plugin: str
    n_ues: int
    p50_us: float
    p99_us: float
    mean_us: float
    calls: int


@dataclass
class Fig5dResult:
    cells: list[Cell]
    slot_duration_us: float = SLOT_DURATION_US

    def all_within_deadline(self) -> bool:
        return all(c.p99_us < self.slot_duration_us for c in self.cells)

    def grows_with_ues(self) -> bool:
        by_plugin: dict[str, list[Cell]] = {}
        for cell in self.cells:
            by_plugin.setdefault(cell.plugin, []).append(cell)
        for cells in by_plugin.values():
            cells.sort(key=lambda c: c.n_ues)
            if not cells[0].p50_us <= cells[-1].p50_us:
                return False
        return True

    def rows(self) -> list[tuple[str, int, float, float, float]]:
        return [
            (c.plugin, c.n_ues, c.p50_us, c.p99_us, c.mean_us) for c in self.cells
        ]


def make_ues(n: int, seed: int = 0) -> list[UeSchedInfo]:
    rng = random.Random(seed)
    return [
        UeSchedInfo(
            ue_id=i + 1,
            mcs=rng.randint(5, 28),
            cqi=rng.randint(3, 15),
            buffer_bytes=rng.randint(10_000, 2_000_000),
            avg_tput_bps=rng.uniform(1e5, 2e7),
        )
        for i in range(n)
    ]


def measure_plugin(
    plugin_name: str, n_ues: int, calls: int = 2000, fuel: int | None = 10_000_000
) -> Cell:
    """Time one plugin configuration over ``calls`` invocations."""
    plugin = SchedulerPlugin.load(plugin_wasm(plugin_name), name=plugin_name)
    plugin.host.limits.fuel = fuel
    ues = make_ues(n_ues)
    samples = sorted(
        plugin.schedule(52, ues, slot).elapsed_us for slot in range(calls)
    )
    return Cell(
        plugin_name,
        n_ues,
        _quantile(samples, 0.5),
        _quantile(samples, 0.99),
        sum(samples) / calls,
        calls,
    )


def _quantile(ordered: list[float], q: float) -> float:
    """Exact quantile of a sorted sample (linear interpolation)."""
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_fig5d(
    calls: int = 2000,
    ue_counts: tuple[int, ...] = UE_COUNTS,
    plugins: tuple[str, ...] = PLUGINS,
) -> Fig5dResult:
    cells = [
        measure_plugin(name, n, calls=calls)
        for name in plugins
        for n in ue_counts
    ]
    return Fig5dResult(cells)
