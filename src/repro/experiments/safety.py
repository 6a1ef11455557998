"""§5D - the memory-safety comparison table.

Three classic C memory bugs - null-pointer dereference, out-of-bounds
access, double free - each executed two ways:

- inside a WA-RAN Wasm plugin: the sandbox traps, the gNB host catches the
  trap and keeps scheduling;
- natively on the gNB host (via the C-heap simulator): the process
  crashes or its heap is corrupted, and it stays dead.

The result is the qualitative table the paper reports in prose.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abi import SchedulerPlugin
from repro.abi.host import PluginError
from repro.hostsim import HostProcess, SegmentationFault
from repro.plugins import plugin_wasm
from repro.sched import UeSchedInfo

FAULTS = ("null_deref", "oob_access", "double_free")

_FAULT_PLUGIN = {
    "null_deref": "fault_null",
    "oob_access": "fault_oob",
    "double_free": "fault_dblfree",
}


@dataclass
class Row:
    fault: str
    plugin_outcome: str  # e.g. 'trap caught: oob'
    plugin_host_alive: bool
    native_outcome: str  # e.g. 'SIGSEGV'
    native_process_alive: bool


@dataclass
class SafetyResult:
    rows: list[Row]

    def shape_holds(self) -> dict[str, bool]:
        """The claims of the §5D table, as checkable booleans."""
        return {
            "sandbox_always_survives": all(r.plugin_host_alive for r in self.rows),
            "native_always_dies": all(not r.native_process_alive for r in self.rows),
        }


def _run_in_plugin(fault: str) -> tuple[str, bool]:
    """Execute the fault inside the sandbox; report (outcome, host alive)."""
    plugin = SchedulerPlugin.load(plugin_wasm(_FAULT_PLUGIN[fault]), name=fault)
    ues = [UeSchedInfo(1, 10, 7, 1000, 0.0)]
    try:
        plugin.schedule(52, ues, 0)
        return "no fault raised", True
    except PluginError as exc:
        # prove the host is still functional: run a healthy plugin after
        healthy = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        grants = healthy.schedule(52, ues, 1).grants
        alive = bool(grants)
        return f"trap caught ({exc.kind})", alive


def _run_natively(fault: str) -> tuple[str, bool]:
    proc = HostProcess(name=f"gnb-{fault}")

    def workload(heap):
        if fault == "null_deref":
            heap.null_dereference()
        elif fault == "oob_access":
            p = heap.malloc(64)
            heap.out_of_bounds_write(p, 10_000_000)
        else:
            heap.double_free_then_use()

    try:
        proc.run(workload)
        return "no fault raised", not proc.crashed
    except SegmentationFault as exc:
        kind = type(exc).__name__
        return f"{kind}: process crashed", not proc.crashed


def run_safety_table() -> SafetyResult:
    rows = []
    for fault in FAULTS:
        plugin_outcome, plugin_alive = _run_in_plugin(fault)
        native_outcome, native_alive = _run_natively(fault)
        rows.append(Row(fault, plugin_outcome, plugin_alive, native_outcome, native_alive))
    return SafetyResult(rows)
