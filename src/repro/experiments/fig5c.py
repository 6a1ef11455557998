"""Fig. 5c - memory increase under a continuous leak.

Paper setup: the scheduler allocates memory on every execution and never
frees it.  Run inside a Wasm plugin, the gNB host's memory stays stable
(the leak is confined to the sandbox's bounded linear memory); run
natively on the host, resident memory grows linearly - a leak that would
eventually take the gNB down.

The host RSS model counts a fixed baseline + native heap high-water mark +
all plugin linear memories (see :class:`repro.hostsim.HostMemoryModel`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.hostsim import HostMemoryModel, UnsafeHeap
from repro.plugins import plugin_wasm
from repro.sched import TargetRateInterSlice, make_intra_scheduler
from repro.sched.intra import IntraSliceScheduler
from repro.traffic import FullBufferSource

#: bytes leaked per call, as ``leaky.wc`` leaks them
LEAK_BYTES = 4096


class NativeLeakyScheduler(IntraSliceScheduler):
    """The same leak, compiled into the host: mallocs every call, never frees."""

    name = "native-leaky"

    def __init__(self, heap: UnsafeHeap):
        self._inner = make_intra_scheduler("rr")
        self.heap = heap

    def schedule(self, allocated_prbs, ues, slot):
        self.heap.malloc(LEAK_BYTES)  # the bug
        return self._inner.schedule(allocated_prbs, ues, slot)


@dataclass
class Fig5cResult:
    duration_s: float
    #: (t, MiB above baseline) for each variant
    plugin_series: list[tuple[float, float]]
    native_series: list[tuple[float, float]]

    def shape_holds(self) -> dict[str, bool]:
        """The claims of Fig. 5c, as checkable booleans."""
        # second-half native growth comparable to the first half: no plateau
        mid = len(self.native_series) // 2
        first = self.native_series[mid - 1][1] - self.native_series[0][1]
        second = self.native_series[-1][1] - self.native_series[mid][1]
        return {
            # the sandbox's declared maximum bounds the plugin's leak
            "plugin_bounded": max(m for _t, m in self.plugin_series) <= 8.0,
            "native_grows_linearly": second > 0.5 * first > 0,
            "native_over_4x_plugin": self.final_native_mib() > 4 * self.final_plugin_mib(),
        }

    def final_native_mib(self) -> float:
        return self.native_series[-1][1]

    def final_plugin_mib(self) -> float:
        return self.plugin_series[-1][1]


def _build_gnb() -> GnbHost:
    gnb = GnbHost(
        inter_slice=TargetRateInterSlice({1: 5e6})
    )
    gnb.add_slice(SliceRuntime(1, "mvno"))
    gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
    return gnb


def run_fig5c(duration_s: float = 20.0, sample_dt_s: float = 0.5) -> Fig5cResult:
    # --- variant 1: the leak lives inside a Wasm plugin ----------------------
    gnb_p = _build_gnb()
    slot_dt = gnb_p.carrier.slot_duration_s
    n_slots = int(duration_s / slot_dt)
    sample_every = int(sample_dt_s / slot_dt)
    plugin = SchedulerPlugin.load(plugin_wasm("leaky"), name="leaky")
    gnb_p.slices[1].use_plugin(plugin)
    model_p = HostMemoryModel(baseline_bytes=256 << 20)
    model_p.attach_plugin_memory(plugin.host.instance.memory)
    base_p = model_p.rss_bytes
    plugin_series = []
    for slot in range(n_slots):
        gnb_p.step()
        if slot % sample_every == 0:
            plugin_series.append(
                (slot * slot_dt, model_p.rss_increase_mib(base_p))
            )

    # --- variant 2: the same leak natively in the host -----------------------
    gnb_n = _build_gnb()
    heap = UnsafeHeap(size=64 + n_slots * (LEAK_BYTES + 64))  # room for every leak
    gnb_n.slices[1].use_native(NativeLeakyScheduler(heap))
    model_n = HostMemoryModel(baseline_bytes=256 << 20)
    model_n.attach_native_heap(heap)
    base_n = model_n.rss_bytes
    native_series = []
    for slot in range(n_slots):
        gnb_n.step()
        if slot % sample_every == 0:
            native_series.append(
                (slot * slot_dt, model_n.rss_increase_mib(base_n))
            )

    return Fig5cResult(duration_s, plugin_series, native_series)
