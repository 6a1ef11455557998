"""Process-level wrappers for the native baseline."""

from __future__ import annotations

from typing import Callable

from repro.hostsim.heap import SegmentationFault, UnsafeHeap


class HostProcess:
    """A native gNB process: one segfault and it is gone.

    ``run(fn)`` executes a workload step.  If the workload segfaults, the
    process transitions to ``crashed`` and every later call fails - the
    behaviour the paper contrasts against the sandbox's trap-and-continue.
    """

    def __init__(self, name: str = "gnb-native"):
        self.name = name
        self.heap = UnsafeHeap()
        self.crashed = False
        self.crash_reason: str | None = None
        self.steps_completed = 0

    def run(self, fn: Callable[[UnsafeHeap], object]):
        if self.crashed:
            raise ProcessLookupError(
                f"{self.name} is dead (crashed: {self.crash_reason})"
            )
        try:
            result = fn(self.heap)
        except SegmentationFault as exc:
            self.crashed = True
            self.crash_reason = str(exc)
            raise
        self.steps_completed += 1
        return result


class HostMemoryModel:
    """RSS model for the Fig. 5c leak experiment.

    Host resident memory = a fixed baseline (the gNB stack) + native heap
    high-water mark + the linear memory of every hosted plugin.  A leak in
    native code grows the heap without bound; a leak inside a plugin grows
    that plugin's linear memory only up to its declared maximum.
    """

    def __init__(self, baseline_bytes: int = 256 << 20):
        self.baseline_bytes = baseline_bytes
        self._native_heaps: list[UnsafeHeap] = []
        self._plugin_memories: list = []  # objects with .size_bytes

    def attach_native_heap(self, heap: UnsafeHeap) -> None:
        self._native_heaps.append(heap)

    def attach_plugin_memory(self, memory) -> None:
        self._plugin_memories.append(memory)

    @property
    def rss_bytes(self) -> int:
        return (
            self.baseline_bytes
            + sum(h.brk_bytes for h in self._native_heaps)
            + sum(m.size_bytes for m in self._plugin_memories)
        )

    def rss_increase_mib(self, baseline_rss: int) -> float:
        return (self.rss_bytes - baseline_rss) / (1 << 20)
