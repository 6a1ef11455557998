"""Decoder/encoder tests: round-trips, malformed input, fuzz safety."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wasm import decode_module, encode_module, leb128, validate_module
from repro.wasm.traps import DecodeError, WasmError
from repro.wasm.wat import assemble, parse_module

SAMPLE = """
(module
  (import "env" "host" (func $host (param i32) (result i32)))
  (memory (export "memory") 2 4)
  (global $g (mut i64) (i64.const -7))
  (table 3 funcref)
  (data (i32.const 4) "abc\\00def")
  (func $id (param i32) (result i32) (local.get 0))
  (func $pi (result f64) (f64.const 3.14159))
  (func (export "run") (param i32 i32) (result i32) (local f64 i32)
    (local.set 2 (f64.const 1.5))
    (i32.add (local.get 0) (call $id (local.get 1))))
  (elem (i32.const 0) $id $pi)
)
"""


class TestRoundTrip:
    def test_sample_roundtrips_structurally(self):
        mod1 = parse_module(SAMPLE)
        raw = encode_module(mod1)
        mod2 = decode_module(raw)
        assert mod2.types == mod1.types
        assert mod2.imports == mod1.imports
        assert mod2.funcs == mod1.funcs
        assert mod2.mems == mod1.mems
        assert mod2.globals == mod1.globals
        assert mod2.exports == mod1.exports
        assert mod2.codes == mod1.codes
        assert mod2.datas == mod1.datas
        assert mod2.elems == mod1.elems

    def test_reencode_is_identical(self):
        raw1 = assemble(SAMPLE)
        raw2 = encode_module(decode_module(raw1))
        assert raw1 == raw2

    def test_validates(self):
        validate_module(decode_module(assemble(SAMPLE)))


class TestMalformed:
    def test_empty(self):
        with pytest.raises(DecodeError):
            decode_module(b"")

    def test_bad_magic(self):
        with pytest.raises(DecodeError, match="magic"):
            decode_module(b"\x00ASM\x01\x00\x00\x00")

    def test_bad_version(self):
        with pytest.raises(DecodeError, match="version"):
            decode_module(b"\x00asm\x02\x00\x00\x00")

    def test_truncated_section(self):
        raw = assemble(SAMPLE)
        with pytest.raises(DecodeError):
            decode_module(raw[:-3])

    def test_section_out_of_order(self):
        # type section (1) after function section (3)
        raw = (
            b"\x00asm\x01\x00\x00\x00"
            + b"\x03\x02\x01\x00"  # func section declaring 1 func of type 0
            + b"\x01\x04\x01\x60\x00\x00"  # type section after it
        )
        with pytest.raises(DecodeError, match="out of order"):
            decode_module(raw)

    def test_func_code_count_mismatch(self):
        raw = (
            b"\x00asm\x01\x00\x00\x00"
            + b"\x01\x04\x01\x60\x00\x00"  # one type () -> ()
            + b"\x03\x02\x01\x00"  # one declared function
            # no code section
        )
        with pytest.raises(DecodeError, match="bodies"):
            decode_module(raw)

    def test_unknown_section_id(self):
        raw = b"\x00asm\x01\x00\x00\x00" + b"\x0c\x00"
        with pytest.raises(DecodeError, match="unknown section"):
            decode_module(raw)

    def test_duplicate_export_name(self):
        wat = """(module
          (func $a (export "x") (result i32) (i32.const 1))
          (func $b (export "x") (result i32) (i32.const 2)))"""
        with pytest.raises(DecodeError, match="duplicate export"):
            decode_module(assemble(wat))

    def test_trailing_garbage_in_section(self):
        # valid empty type section plus a stray byte inside its payload
        raw = b"\x00asm\x01\x00\x00\x00" + b"\x01\x02\x00\xff"
        with pytest.raises(DecodeError, match="trailing"):
            decode_module(raw)

    @given(st.binary(max_size=64))
    def test_fuzz_small_inputs_never_crash(self, data):
        """Arbitrary bytes must raise DecodeError (or decode), never crash."""
        try:
            decode_module(data)
        except WasmError:
            pass

    @given(st.binary(min_size=8, max_size=256))
    def test_fuzz_with_valid_header(self, payload):
        data = b"\x00asm\x01\x00\x00\x00" + payload
        try:
            decode_module(data)
        except WasmError:
            pass


class TestLinearDecode:
    """Every LEB read is bounded by its section or body end, not by a copy
    of the module up to it: a copy per read made decoding quadratic in
    module size, on untrusted input."""

    #: one body, ``i32.const 1; drop`` N times, then a data section: the
    #: code section ends before the module does
    @staticmethod
    def module(n: int) -> bytes:
        body = b"\x00" + b"\x41\x01\x1a" * n + b"\x0b"
        code = b"\x01" + leb128.encode_u(len(body)) + body
        data = b"\x01\x00\x41\x00\x0b\x01x"  # one byte at offset 0
        return (
            b"\x00asm\x01\x00\x00\x00"
            + b"\x01\x04\x01\x60\x00\x00"  # type () -> ()
            + b"\x03\x02\x01\x00"  # one function of type 0
            + b"\x05\x03\x01\x00\x01"  # memory 1
            + b"\x0a" + leb128.encode_u(len(code)) + code
            + b"\x0b" + leb128.encode_u(len(data)) + data
        )

    def test_leb_reads_get_the_modules_own_bytes(self, monkeypatch):
        raw = self.module(50)
        seen = []
        for name in ("decode_u", "decode_s"):
            original = getattr(leb128, name)

            def recording(data, *args, _original=original):
                seen.append(data)
                return _original(data, *args)

            monkeypatch.setattr(leb128, name, recording)
        mod = decode_module(raw)
        assert len(mod.codes[0].body) == 101 and mod.datas[0].payload == b"x"
        assert len(seen) > 50 and all(data is raw for data in seen)

    def test_leb_cut_by_body_end_is_refused(self):
        """``i32.const`` whose LEB's last byte is the body's: the next
        byte (the data section's id, a complete LEB byte) is not read."""
        body = b"\x00\x41\x80"
        raw = (
            b"\x00asm\x01\x00\x00\x00"
            + b"\x01\x04\x01\x60\x00\x00"
            + b"\x03\x02\x01\x00"
            + b"\x0a\x05\x01\x03" + body
            + b"\x0b\x01\x00"
        )
        with pytest.raises(DecodeError, match="unexpected end of LEB128"):
            decode_module(raw)


class TestCustomSections:
    def test_custom_section_preserved(self):
        mod = parse_module("(module)")
        mod.customs.append(("name", b"\x01\x02"))
        raw = encode_module(mod)
        mod2 = decode_module(raw)
        assert mod2.customs == [("name", b"\x01\x02")]

    def test_custom_section_anywhere(self):
        # custom section between two ordered sections is legal
        type_sec = b"\x01\x04\x01\x60\x00\x00"
        custom = b"\x00\x03\x01x\xff"
        raw = b"\x00asm\x01\x00\x00\x00" + type_sec + custom
        mod = decode_module(raw)
        assert mod.customs == [("x", b"\xff")]
