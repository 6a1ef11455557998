"""Fig. 5d - plugin execution time.

Paper setup: measure the execution time of the MT/RR/PF scheduler plugins
with 1, 10 and 20 connected UEs, *including* the host-side serialization
and deserialization overhead, and report the 50th and 99th percentiles
against the 1000 us slot duration.

Expected shape: p99 under the slot duration for every plugin and UE
count (:meth:`Fig5dResult.all_within_deadline`); time grows with the
number of UEs (:meth:`Fig5dResult.shape_holds`).  Absolute numbers here
are those of Wasm compiled to Python source (the default ``aot`` engine,
reached by tier-up), not a native
JIT's: the claim holds with less slack than the paper's, and only for
the plugin call - EXPERIMENTS.md has the table and what a whole slot
costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from repro.abi import SchedulerPlugin
from repro.metrics import sample_quantile
from repro.plugins import plugin_wasm
from repro.sched import UeSchedInfo

SLOT_DURATION_US = 1000.0
UE_COUNTS = (1, 10, 20)
PLUGINS = ("mt", "rr", "pf")
#: per-call fuel budget: far above any configuration's need, so no call
#: is cut and the timing is the plugin's own
PLUGIN_FUEL = 10_000_000


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
    slot_duration_us: ClassVar[float] = SLOT_DURATION_US

    def all_within_deadline(self) -> bool:
        return all(c.p99_us < self.slot_duration_us for c in self.cells)

    def shape_holds(self) -> dict[str, bool]:
        """The load-robust half of Fig. 5d: OS preemption on a loaded host
        puts outliers into p99, so p99 is reported, not checked."""
        by_plugin: dict[str, list[Cell]] = {}
        for cell in sorted(self.cells, key=lambda c: c.n_ues):
            by_plugin.setdefault(cell.plugin, []).append(cell)
        slot, busiest = self.slot_duration_us, max(c.n_ues for c in self.cells)
        return {
            "grows_with_ues": all(c[0].p50_us <= c[-1].p50_us for c in by_plugin.values()),
            "p50_inside_slot": all(c.p50_us < slot for c in self.cells),
            # the default engine leaves half the slot free at the most UEs
            "p50_at_most_ues_under_half_slot": all(
                c.p50_us < slot / 2 for c in self.cells if c.n_ues == busiest
            ),
        }

    def rows(self) -> list[tuple[str, int, float, float, float]]:
        return [
            (c.plugin, c.n_ues, c.p50_us, c.p99_us, c.mean_us) for c in self.cells
        ]


def make_ues(n: int) -> list[UeSchedInfo]:
    rng = random.Random(0)
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
    plugin_name: str, n_ues: int, calls: int = 2000
) -> Cell:
    """Time one plugin configuration over ``calls`` invocations."""
    plugin = SchedulerPlugin.load(plugin_wasm(plugin_name), name=plugin_name)
    plugin.host.limits.fuel = PLUGIN_FUEL
    # time the tier a running scheduler is on: heat is per binary, so a
    # binary's first configuration would sample threaded calls unpromoted
    plugin.host.promote()
    ues = make_ues(n_ues)
    samples = sorted(
        plugin.schedule(52, ues, slot).elapsed_us for slot in range(calls)
    )
    return Cell(
        plugin_name,
        n_ues,
        sample_quantile(samples, 0.5),
        sample_quantile(samples, 0.99),
        sum(samples) / calls,
        calls,
    )


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
