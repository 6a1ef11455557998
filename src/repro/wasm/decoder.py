"""Decoder for the standard WebAssembly binary format (MVP).

Follows the grammar of the Wasm 1.0 spec: magic + version header, then a
sequence of sections in non-decreasing id order (custom sections may appear
anywhere).  Section payloads are length-delimited; the decoder enforces that
each section consumes exactly its declared size.
"""

from __future__ import annotations

import hashlib
import struct

from repro.wasm import leb128, opcodes
from repro.wasm.module import (
    Code,
    DataSegment,
    ElemSegment,
    Export,
    Global,
    Import,
    Instr,
    Module,
)
from repro.wasm.traps import DecodeError
from repro.wasm.wtypes import EMPTY_BLOCK, FUNCREF, FuncType, GlobalType, Limits, ValType

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

#: Hard cap on memory limits in pages (spec: 2**16 pages = 4 GiB).
MAX_PAGES = 1 << 16

_EXPORT_KINDS = {0: "func", 1: "table", 2: "mem", 3: "global"}


class _Reader:
    """Cursor over a byte buffer with bounds-checked primitive reads."""

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def eof(self) -> bool:
        return self.pos >= self.end

    def bytes(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise DecodeError("unexpected end of section or function")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        if self.pos >= self.end:
            raise DecodeError("unexpected end of section or function")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def u32(self) -> int:
        value, self.pos = leb128.decode_u(self.data, self.pos, 32, self.end)
        return value

    def s32(self) -> int:
        value, self.pos = leb128.decode_s(self.data, self.pos, 32, self.end)
        return value

    def s64(self) -> int:
        value, self.pos = leb128.decode_s(self.data, self.pos, 64, self.end)
        return value

    def f32(self) -> float:
        return struct.unpack("<f", self.bytes(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.bytes(8))[0]

    def name(self) -> str:
        length = self.u32()
        raw = self.bytes(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"malformed UTF-8 name: {exc}") from None

    def valtype(self) -> ValType:
        return ValType.from_byte(self.byte())

    def limits(self) -> Limits:
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            return Limits(self.u32(), self.u32())
        raise DecodeError(f"invalid limits flag 0x{flag:02x}")

    def blocktype(self) -> ValType | None:
        byte = self.byte()
        if byte == EMPTY_BLOCK:
            return None
        return ValType.from_byte(byte)


def _read_instr(r: _Reader) -> Instr:
    op = r.byte()
    info = opcodes.OP_TABLE.get(op)
    if info is None:
        raise DecodeError(f"unknown opcode 0x{op:02x}")
    imm = info.imm
    if imm == "none":
        return (op, None)
    if imm == "block":
        return (op, r.blocktype())
    if imm in ("label", "func", "local", "global"):
        return (op, r.u32())
    if imm == "br_table":
        count = r.u32()
        targets = tuple(r.u32() for _ in range(count))
        return (op, (targets, r.u32()))
    if imm == "call_ind":
        type_index = r.u32()
        table = r.byte()
        if table != 0x00:
            raise DecodeError("call_indirect reserved byte must be zero")
        return (op, type_index)
    if imm == "mem":
        return (op, (r.u32(), r.u32()))
    if imm == "mem_misc":
        if r.byte() != 0x00:
            raise DecodeError("memory.size/grow reserved byte must be zero")
        return (op, None)
    if imm == "i32":
        return (op, r.s32())
    if imm == "i64":
        return (op, r.s64())
    if imm == "f32":
        return (op, r.f32())
    if imm == "f64":
        return (op, r.f64())
    raise AssertionError(f"unhandled immediate kind {imm!r}")


def _read_expr(r: _Reader) -> tuple[Instr, ...]:
    """Read instructions up to and including the matching outer ``end``.

    Used for full function bodies and for constant initializer expressions;
    tracks block nesting so inner ``end`` opcodes don't terminate early.
    """
    out: list[Instr] = []
    depth = 0
    while True:
        instr = _read_instr(r)
        out.append(instr)
        op = instr[0]
        if op in (opcodes.BLOCK, opcodes.LOOP, opcodes.IF):
            depth += 1
        elif op == opcodes.END:
            if depth == 0:
                return tuple(out)
            depth -= 1


def _decode_type_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        form = r.byte()
        if form != 0x60:
            raise DecodeError(f"invalid functype form 0x{form:02x}")
        params = tuple(r.valtype() for _ in range(r.u32()))
        results = tuple(r.valtype() for _ in range(r.u32()))
        if len(results) > 1:
            raise DecodeError("multi-value results not supported (MVP)")
        mod.types.append(FuncType(params, results))


def _decode_import_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        module = r.name()
        name = r.name()
        kind = r.byte()
        if kind == 0x00:
            mod.imports.append(Import(module, name, "func", r.u32()))
        elif kind == 0x01:
            if r.byte() != FUNCREF:
                raise DecodeError("imported table must be funcref")
            mod.imports.append(Import(module, name, "table", r.limits()))
        elif kind == 0x02:
            limits = r.limits()
            limits.validate(MAX_PAGES, "memory")
            mod.imports.append(Import(module, name, "mem", limits))
        elif kind == 0x03:
            valtype = r.valtype()
            mut = r.byte()
            if mut not in (0, 1):
                raise DecodeError(f"invalid global mutability 0x{mut:02x}")
            mod.imports.append(
                Import(module, name, "global", GlobalType(valtype, bool(mut)))
            )
        else:
            raise DecodeError(f"invalid import kind 0x{kind:02x}")


def _decode_global_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        valtype = r.valtype()
        mut = r.byte()
        if mut not in (0, 1):
            raise DecodeError(f"invalid global mutability 0x{mut:02x}")
        init = _read_expr(r)
        mod.globals.append(Global(GlobalType(valtype, bool(mut)), init))


def _decode_export_section(r: _Reader, mod: Module) -> None:
    seen: set[str] = set()
    for _ in range(r.u32()):
        name = r.name()
        if name in seen:
            raise DecodeError(f"duplicate export name {name!r}")
        seen.add(name)
        kind_byte = r.byte()
        if kind_byte not in _EXPORT_KINDS:
            raise DecodeError(f"invalid export kind 0x{kind_byte:02x}")
        mod.exports.append(Export(name, _EXPORT_KINDS[kind_byte], r.u32()))


def _decode_elem_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        table_index = r.u32()
        if table_index != 0:
            raise DecodeError("only table 0 supported (MVP)")
        offset = _read_expr(r)
        funcs = tuple(r.u32() for _ in range(r.u32()))
        mod.elems.append(ElemSegment(table_index, offset, funcs))


def _decode_code_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        body_size = r.u32()
        body_end = r.pos + body_size
        if body_end > r.end:
            raise DecodeError("function body overruns section")
        sub = _Reader(r.data, r.pos, body_end)
        locals_: list[ValType] = []
        for _ in range(sub.u32()):
            count = sub.u32()
            valtype = sub.valtype()
            if len(locals_) + count > 50_000:
                raise DecodeError("too many locals")
            locals_.extend([valtype] * count)
        body = _read_expr(sub)
        if not sub.eof():
            raise DecodeError("junk after function body end")
        r.pos = body_end
        mod.codes.append(Code(tuple(locals_), body))


def _decode_data_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        mem_index = r.u32()
        if mem_index != 0:
            raise DecodeError("only memory 0 supported (MVP)")
        offset = _read_expr(r)
        payload = r.bytes(r.u32())
        mod.datas.append(DataSegment(mem_index, offset, payload))


def decode_module(data: bytes, content_hash: str | None = None) -> Module:
    """Decode a binary Wasm module.

    Raises :class:`DecodeError` for any malformed input; never raises
    anything else for arbitrary bytes (fuzz-safe by construction, enforced
    by the property tests).  ``content_hash`` is the SHA-256 hex digest of
    ``data`` when the caller has already computed it
    (:func:`repro.wasm.load_module` hashes before it decodes); by default
    it is computed here.
    """
    if len(data) < 8:
        raise DecodeError("module too short for header")
    if data[:4] != MAGIC:
        raise DecodeError("bad magic number")
    if data[4:8] != VERSION:
        raise DecodeError(f"unsupported version {data[4:8]!r}")

    mod = Module()
    r = _Reader(data, 8)
    last_id = 0
    num_funcs_declared = 0
    while not r.eof():
        section_id = r.byte()
        size = r.u32()
        payload_end = r.pos + size
        if payload_end > len(data):
            raise DecodeError("section size overruns module")
        sub = _Reader(data, r.pos, payload_end)
        if section_id == 0:
            mod.customs.append((sub.name(), sub.bytes(payload_end - sub.pos)))
        else:
            if section_id <= last_id:
                raise DecodeError(
                    f"section id {section_id} out of order (after {last_id})"
                )
            if section_id > 11:
                raise DecodeError(f"unknown section id {section_id}")
            last_id = section_id
            if section_id == 1:
                _decode_type_section(sub, mod)
            elif section_id == 2:
                _decode_import_section(sub, mod)
            elif section_id == 3:
                for _ in range(sub.u32()):
                    mod.funcs.append(sub.u32())
                num_funcs_declared = len(mod.funcs)
            elif section_id == 4:
                for _ in range(sub.u32()):
                    if sub.byte() != FUNCREF:
                        raise DecodeError("table must be funcref")
                    mod.tables.append(sub.limits())
            elif section_id == 5:
                for _ in range(sub.u32()):
                    limits = sub.limits()
                    limits.validate(MAX_PAGES, "memory")
                    mod.mems.append(limits)
            elif section_id == 6:
                _decode_global_section(sub, mod)
            elif section_id == 7:
                _decode_export_section(sub, mod)
            elif section_id == 8:
                mod.start = sub.u32()
            elif section_id == 9:
                _decode_elem_section(sub, mod)
            elif section_id == 10:
                _decode_code_section(sub, mod)
            elif section_id == 11:
                _decode_data_section(sub, mod)
            if not sub.eof():
                raise DecodeError(f"section {section_id} has trailing bytes")
        r.pos = payload_end

    if len(mod.codes) != num_funcs_declared:
        raise DecodeError(
            f"function section declares {num_funcs_declared} functions but "
            f"code section has {len(mod.codes)} bodies"
        )
    mod.content_hash = content_hash or hashlib.sha256(data).hexdigest()
    return mod
