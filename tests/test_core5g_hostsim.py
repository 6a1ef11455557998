"""Tests for the AMF-lite core and the native-crash simulator."""

import pytest

from repro.core5g import AdmissionError, Amf, Snssai
from repro.hostsim import (
    HeapCorruption,
    HostMemoryModel,
    HostProcess,
    SegmentationFault,
    UnsafeHeap,
)


class TestAmf:
    def make(self):
        amf = Amf()
        amf.configure_slice(Snssai(1, 100), max_ues=2)
        amf.configure_slice(Snssai(1, 200), max_ues=64)
        return amf

    def test_register_and_session(self):
        amf = self.make()
        ue = amf.register("00101-001", Snssai(1, 100))
        assert ue.ue_id == 1
        session = amf.establish_session(ue.ue_id)
        assert session.snssai == Snssai(1, 100)

    def test_admission_unknown_slice(self):
        amf = self.make()
        with pytest.raises(AdmissionError, match="not configured"):
            amf.register("x", Snssai(9, 9))

    def test_admission_slice_full(self):
        amf = self.make()
        amf.register("a", Snssai(1, 100))
        amf.register("b", Snssai(1, 100))
        with pytest.raises(AdmissionError, match="full"):
            amf.register("c", Snssai(1, 100))

    def test_duplicate_imsi(self):
        amf = self.make()
        amf.register("a", Snssai(1, 100))
        with pytest.raises(AdmissionError, match="already registered"):
            amf.register("a", Snssai(1, 200))

    def test_snssai_validation(self):
        with pytest.raises(ValueError):
            Snssai(256)
        with pytest.raises(ValueError):
            Snssai(1, 1 << 24)


class TestUnsafeHeap:
    def test_malloc_free_reuse(self):
        heap = UnsafeHeap()
        p = heap.malloc(100)
        heap.free(p)
        q = heap.malloc(100)
        assert q == p  # free list reuse

    def test_null_dereference_segfaults(self):
        with pytest.raises(SegmentationFault, match="null"):
            UnsafeHeap().null_dereference()

    def test_oob_write_segfaults(self):
        heap = UnsafeHeap(size=1 << 16)
        p = heap.malloc(64)
        with pytest.raises(SegmentationFault):
            heap.out_of_bounds_write(p, 100_000)

    def test_double_free_corrupts_heap(self):
        heap = UnsafeHeap()
        with pytest.raises(HeapCorruption):
            heap.double_free_then_use()

    def test_free_null_is_noop(self):
        UnsafeHeap().free(0)

    def test_leak_grows_brk(self):
        heap = UnsafeHeap(size=1 << 22)
        start = heap.brk_bytes
        for _ in range(100):
            heap.malloc(1024)  # never freed
        assert heap.brk_bytes - start >= 100 * 1024

    def test_heap_exhaustion(self):
        heap = UnsafeHeap(size=4096)
        with pytest.raises(MemoryError):
            for _ in range(100):
                heap.malloc(1024)


class TestHostProcess:
    def test_crash_is_permanent(self):
        proc = HostProcess()
        with pytest.raises(SegmentationFault):
            proc.run(lambda heap: heap.null_dereference())
        assert proc.crashed
        with pytest.raises(ProcessLookupError):
            proc.run(lambda heap: 1)

    def test_healthy_steps_counted(self):
        proc = HostProcess()
        for _ in range(5):
            proc.run(lambda heap: heap.malloc(8))
        assert proc.steps_completed == 5


class TestHostMemoryModel:
    def test_native_leak_grows_rss(self):
        model = HostMemoryModel(baseline_bytes=0)
        heap = UnsafeHeap(size=1 << 24)
        model.attach_native_heap(heap)
        baseline = model.rss_bytes
        for _ in range(1000):
            heap.malloc(4096)
        assert model.rss_increase_mib(baseline) > 3.5

    def test_plugin_memory_counted_but_capped(self):
        from repro.wasm.memory import Memory
        from repro.wasm.wtypes import Limits

        model = HostMemoryModel(baseline_bytes=0)
        mem = Memory(Limits(2, 8))
        model.attach_plugin_memory(mem)
        baseline = model.rss_bytes
        while mem.grow(1) >= 0:
            pass
        assert model.rss_bytes - baseline == 6 * 65536  # grew to cap, no further
