"""Unit tests for the plugin ABI layer: wire format, sanitizer, host."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abi import (
    SCHED_INPUT_HEADER,
    SCHED_UE_STRIDE,
    pack_grants,
    pack_sched_input,
    sanitize_plugin,
    unpack_grants,
    unpack_sched_input,
)
from repro.abi.sanitizer import SanitizerError
from repro.abi.wire import WireError
from repro.sched.types import UeGrant, UeSchedInfo
from repro.wacc import compile_source

ue_strategy = st.builds(
    UeSchedInfo,
    ue_id=st.integers(0, 10_000),
    mcs=st.integers(0, 28),
    cqi=st.integers(0, 15),
    buffer_bytes=st.integers(0, (1 << 31) - 1),
    avg_tput_bps=st.floats(0, 1e12, allow_nan=False),
)


class TestSchedWire:
    def test_header_layout(self):
        payload = pack_sched_input(7, 52, [])
        magic, version, slot, prbs, n = struct.unpack_from("<IIIII", payload, 0)
        assert magic == 0x5741524E
        assert version == 1
        assert (slot, prbs, n) == (7, 52, 0)
        assert len(payload) == SCHED_INPUT_HEADER

    def test_records_sorted_by_ue_id(self):
        ues = [
            UeSchedInfo(9, 1, 1, 10, 0.0),
            UeSchedInfo(2, 2, 2, 20, 0.0),
            UeSchedInfo(5, 3, 3, 30, 0.0),
        ]
        _slot, _prbs, decoded = unpack_sched_input(pack_sched_input(0, 52, ues))
        assert [u.ue_id for u in decoded] == [2, 5, 9]

    def test_stride(self):
        payload = pack_sched_input(0, 52, [UeSchedInfo(1, 1, 1, 1, 0.0)])
        assert len(payload) == SCHED_INPUT_HEADER + SCHED_UE_STRIDE

    @given(st.lists(ue_strategy, max_size=30), st.integers(0, 1 << 20))
    @settings(max_examples=40)
    def test_input_roundtrip(self, ues, slot):
        unique = list({u.ue_id: u for u in ues}.values())
        got_slot, got_prbs, got = unpack_sched_input(
            pack_sched_input(slot, 52, unique)
        )
        assert got_slot == slot
        assert got_prbs == 52
        assert {u.ue_id for u in got} == {u.ue_id for u in unique}
        by_id = {u.ue_id: u for u in unique}
        for u in got:
            ref = by_id[u.ue_id]
            assert (u.mcs, u.cqi, u.buffer_bytes) == (ref.mcs, ref.cqi, ref.buffer_bytes)
            assert u.avg_tput_bps == pytest.approx(ref.avg_tput_bps)

    def test_bad_magic_rejected(self):
        payload = bytearray(pack_sched_input(0, 52, []))
        payload[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            unpack_sched_input(bytes(payload))

    def test_bad_version_rejected(self):
        payload = bytearray(pack_sched_input(0, 52, []))
        payload[4] = 99
        with pytest.raises(WireError, match="version"):
            unpack_sched_input(bytes(payload))

    def test_truncated_rejected(self):
        payload = pack_sched_input(0, 52, [UeSchedInfo(1, 1, 1, 1, 0.0)])
        with pytest.raises(WireError, match="truncated"):
            unpack_sched_input(payload[:-4])

    @given(st.lists(st.builds(UeGrant, st.integers(0, 1000), st.integers(0, 275)),
                    max_size=50))
    def test_grants_roundtrip(self, grants):
        assert unpack_grants(pack_grants(grants)) == grants

    def test_implausible_count_rejected(self):
        with pytest.raises(WireError, match="implausible"):
            unpack_grants(struct.pack("<I", 1_000_000))


U32_MAX = (1 << 32) - 1


def _reference_sched_input(slot, prbs, ues):
    """The per-record packing the one-struct packer must reproduce."""
    ordered = sorted(ues, key=lambda ue: ue.ue_id)
    out = bytearray(struct.pack("<IIIII", 0x5741524E, 1, slot, prbs, len(ordered)))
    for ue in ordered:
        out += struct.pack(
            "<IIIId", ue.ue_id, ue.mcs, ue.cqi, ue.buffer_bytes, ue.avg_tput_bps
        )
    return bytes(out)


def _reference_grants(data):
    (count,) = struct.unpack_from("<I", data, 0)
    return [
        UeGrant(*struct.unpack_from("<II", data, 4 + i * 8)) for i in range(count)
    ]


class TestWireAgainstPerRecordReference:
    @pytest.mark.parametrize(
        "slot, prbs, ues",
        [
            (0, 0, []),
            (
                U32_MAX, U32_MAX,
                [UeSchedInfo(U32_MAX, 28, 15, U32_MAX, 1e300),
                 UeSchedInfo(0, 0, 0, 0, 0.0)],
            ),
            (
                7, 52,
                [UeSchedInfo(3, 9, 7, 10, math.nan),
                 UeSchedInfo(1, 9, 7, 10, math.inf),
                 UeSchedInfo(2, 9, 7, 10, -math.inf)],
            ),
        ],
    )
    def test_edge_inputs_pack_to_the_same_bytes(self, slot, prbs, ues):
        assert pack_sched_input(slot, prbs, ues) == _reference_sched_input(
            slot, prbs, ues
        )

    @given(st.lists(ue_strategy, max_size=60), st.integers(0, U32_MAX))
    @settings(max_examples=60)
    def test_inputs_pack_to_the_same_bytes(self, ues, slot):
        assert pack_sched_input(slot, 52, ues) == _reference_sched_input(slot, 52, ues)

    def test_out_of_range_fields_are_refused_alike(self):
        for ues, slot in (([], U32_MAX + 1), ([UeSchedInfo(U32_MAX + 1, 0, 0, 0, 0.0)], 0)):
            with pytest.raises(struct.error):
                _reference_sched_input(slot, 52, ues)
            with pytest.raises(struct.error):
                pack_sched_input(slot, 52, ues)

    @given(
        st.lists(st.tuples(st.integers(0, U32_MAX), st.integers(0, U32_MAX)),
                 max_size=40),
        st.binary(max_size=11),
    )
    @settings(max_examples=60)
    def test_grants_unpack_like_the_per_record_reader(self, pairs, trailing):
        data = struct.pack("<I", len(pairs)) + b"".join(
            struct.pack("<II", *pair) for pair in pairs
        ) + trailing
        assert unpack_grants(data) == _reference_grants(data)


class TestSanitizer:
    def _compile(self, source: str) -> bytes:
        return compile_source(source)

    def test_accepts_conforming_plugin(self):
        from repro.plugins import plugin_wasm

        report = sanitize_plugin(plugin_wasm("mt"))
        assert report.n_exports >= 3

    def test_missing_run_rejected(self):
        raw = self._compile(
            "memory 2 8;\nexport fn alloc(size: i32) -> i32 { return 1024; }"
        )
        with pytest.raises(SanitizerError, match="missing required export 'run'"):
            sanitize_plugin(raw)

    def test_wrong_signature_rejected(self):
        raw = self._compile("""
            memory 2 8;
            export fn alloc(size: i32) -> i32 { return 1024; }
            export fn run(p: i32) -> i32 { return p; }
        """)
        with pytest.raises(SanitizerError, match="signature"):
            sanitize_plugin(raw)

    def test_unbounded_memory_rejected(self):
        raw = self._compile("""
            memory 2;
            export fn alloc(size: i32) -> i32 { return 1024; }
            export fn run(p: i32, n: i32) -> i32 { return p; }
        """)
        with pytest.raises(SanitizerError, match="no maximum"):
            sanitize_plugin(raw)

    def test_huge_memory_rejected(self):
        raw = self._compile("""
            memory 2 2048;
            export fn alloc(size: i32) -> i32 { return 1024; }
            export fn run(p: i32, n: i32) -> i32 { return p; }
        """)
        with pytest.raises(SanitizerError, match="exceeds"):
            sanitize_plugin(raw)

    def test_forbidden_import_rejected(self):
        raw = self._compile("""
            import fn format_disk(x: i32);
            memory 2 8;
            export fn alloc(size: i32) -> i32 { return 1024; }
            export fn run(p: i32, n: i32) -> i32 { format_disk(0); return p; }
        """)
        with pytest.raises(SanitizerError, match="forbidden host function"):
            sanitize_plugin(raw)

    def test_invalid_wasm_rejected(self):
        with pytest.raises(SanitizerError, match="validation"):
            sanitize_plugin(b"\x00asm\x01\x00\x00\x00\xff")

    def test_non_env_import_rejected(self):
        from repro.wasm.wat import assemble

        raw = assemble("""(module
          (import "wasi_snapshot_preview1" "fd_write"
            (func $w (param i32 i32 i32 i32) (result i32)))
          (memory (export "memory") 2 8)
          (func (export "alloc") (param i32) (result i32) (i32.const 1024))
          (func (export "run") (param i32 i32) (result i32) (i32.const 0)))""")
        with pytest.raises(SanitizerError, match="only 'env'"):
            sanitize_plugin(raw)

    def test_memory_export_required(self):
        from repro.wasm.wat import assemble

        raw = assemble("""(module
          (memory 2 8)
          (func (export "alloc") (param i32) (result i32) (i32.const 1024))
          (func (export "run") (param i32 i32) (result i32) (i32.const 0)))""")
        with pytest.raises(SanitizerError, match="export its linear memory"):
            sanitize_plugin(raw)

    def test_start_function_warned(self):
        from repro.wasm.wat import assemble

        raw = assemble("""(module
          (memory (export "memory") 2 8)
          (func $init nop)
          (func (export "alloc") (param i32) (result i32) (i32.const 1024))
          (func (export "run") (param i32 i32) (result i32) (i32.const 0))
          (start $init))""")
        report = sanitize_plugin(raw)
        assert any("start" in w for w in report.warnings)


class TestHostEdgeCases:
    def test_bad_alloc_pointer(self):
        from repro.abi.host import PluginError, PluginHost

        raw = compile_source("""
            memory 2 8;
            export fn alloc(size: i32) -> i32 { return -1; }
            export fn run(p: i32, n: i32) -> i32 { return 49152; }
        """)
        host = PluginHost(raw, name="bad-alloc")
        with pytest.raises(PluginError, match="alloc returned bad pointer"):
            host.call(b"x")

    def test_output_pointer_out_of_bounds(self):
        from repro.abi.host import PluginError, PluginHost

        raw = compile_source("""
            memory 2 8;
            export fn alloc(size: i32) -> i32 { return 1024; }
            export fn run(p: i32, n: i32) -> i32 { return 131070; }
        """)
        host = PluginHost(raw, name="bad-out")
        with pytest.raises(PluginError, match="out of bounds"):
            host.call(b"x")

    def test_oversized_input_trapped_by_plugin(self):
        from repro.abi.host import PluginError
        from repro.abi import SchedulerPlugin
        from repro.plugins import plugin_wasm

        plugin = SchedulerPlugin.load(plugin_wasm("rr"))
        huge = [UeSchedInfo(i, 1, 1, 1, 0.0) for i in range(2000)]
        with pytest.raises(PluginError):
            plugin.schedule(52, huge, 0)  # input region is 31 KiB

    def test_generation_counts_swaps(self):
        from repro.abi import SchedulerPlugin
        from repro.plugins import plugin_wasm

        plugin = SchedulerPlugin.load(plugin_wasm("rr"))
        assert plugin.host.generation == 0
        plugin.swap(plugin_wasm("pf"))
        plugin.swap(plugin_wasm("mt"))
        assert plugin.host.generation == 2

    def test_swap_to_invalid_binary_fails_loud(self):
        from repro.abi.host import PluginError
        from repro.abi import SchedulerPlugin
        from repro.abi.sanitizer import SanitizerError
        from repro.plugins import plugin_wasm

        plugin = SchedulerPlugin.load(plugin_wasm("rr"))
        with pytest.raises((PluginError, SanitizerError)):
            plugin.swap(b"not wasm at all")


TBS_PROBE = """(module
  (import "env" "tbs_bits" (func $tbs (param i32 i32) (result i32)))
  (func (export "tbs") (param i32 i32) (result i32)
    (call $tbs (local.get 0) (local.get 1))))"""


class TestTbsBitsHostFunction:
    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_negative_and_out_of_range_arguments_get_no_bits(self, engine):
        """Wasm hands ``tbs_bits`` unsigned i32s: a negative PRB count
        arrives as ``2**32 - n`` and must get 0 bits, not the 1024-PRB
        cap's TBS; the same through every engine (under aot an import is
        a direct host call)."""
        from repro.abi.hostfuncs import make_env
        from repro.phy.tbs import transport_block_size_bits
        from repro.wasm import Instance, decode_module
        from repro.wasm.wat import assemble

        inst = Instance(
            decode_module(assemble(TBS_PROBE)),
            imports={"env": make_env()},
            engine=engine,
        )
        capped = transport_block_size_bits(1024, 10)
        assert capped > 0
        assert inst.call("tbs", -1, 10) == 0
        assert inst.call("tbs", -(1 << 31), 10) == 0
        assert inst.call("tbs", 0, 10) == 0
        assert inst.call("tbs", 1024, 10) == capped
        assert inst.call("tbs", 5000, 10) == capped  # large counts still cap
        assert inst.call("tbs", 24, 10) == transport_block_size_bits(24, 10)
        assert inst.call("tbs", 24, -1) == 0
        assert inst.call("tbs", 24, 29) == 0
