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


def _u32(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """An unsigned LEB128 u32 at ``pos``: a one-byte one read in line,
    anything else by :func:`leb128.decode_u` with its bounds and messages."""
    if pos < end and data[pos] < 0x80:
        return data[pos], pos + 1
    return leb128.decode_u(data, pos, 32, end)


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
        value, self.pos = _u32(self.data, self.pos, self.end)
        return value

    def name(self) -> str:
        length = self.u32()
        raw = self.bytes(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"malformed UTF-8 name: {exc}") from None

    def valtype(self) -> ValType:
        return ValType.from_byte(self.byte())

    def valtypes(self) -> tuple[ValType, ...]:
        return tuple([self.valtype() for _ in range(self.u32())])

    def limits(self) -> Limits:
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            return Limits(self.u32(), self.u32())
        raise DecodeError(f"invalid limits flag 0x{flag:02x}")

    def expr(self) -> tuple[Instr, ...]:
        instrs, self.pos = _read_expr(self.data, self.pos, self.end)
        return instrs


# How each opcode's immediate is read (the kinds of ``opcodes``, label /
# func / local / global all a u32): a small int per opcode, 255 for one the
# table does not know.
(_NONE, _U32, _S32, _MEM, _BLOCK, _S64, _F32, _F64, _BR_TABLE, _CALL_IND,
 _MEM_MISC) = range(11)
_KIND_OF = {"none": _NONE, "label": _U32, "func": _U32, "local": _U32,
            "global": _U32, "i32": _S32, "mem": _MEM, "block": _BLOCK,
            "i64": _S64, "f32": _F32, "f64": _F64, "br_table": _BR_TABLE,
            "call_ind": _CALL_IND, "mem_misc": _MEM_MISC}
_IMM_KIND = bytes(_KIND_OF[opcodes.OP_TABLE[code].imm] if code in opcodes.OP_TABLE
                  else 255 for code in range(256))
#: the one ``(opcode, None)`` of each opcode without immediates
_PLAIN = [(code, None) for code in range(256)]
#: the one ``(opcode, value)`` of each one-byte u32 / s32 immediate, per opcode
_ONE_BYTE = [
    tuple((code, b - 0x80 if kind == _S32 and b & 0x40 else b) for b in range(0x80))
    if kind == _U32 or kind == _S32 else None
    for code, kind in enumerate(_IMM_KIND)
]
_UNPACK_F32 = struct.Struct("<f").unpack_from
_UNPACK_F64 = struct.Struct("<d").unpack_from


def _read_expr(data: bytes, pos: int, end: int) -> tuple[tuple[Instr, ...], int]:
    """Read a function body or constant expression: instructions from
    ``pos`` up to and including the matching outer ``end``, reading no byte
    at or past ``end``; returns them and the position after.  Dispatch is
    on each opcode's immediate kind; a one-byte LEB128 is read in line (a
    u32 / s32 one to the shared instruction tuple of ``_ONE_BYTE``), a
    longer one by :mod:`leb128`, which holds the bounds and the messages."""
    out: list[Instr] = []
    append = out.append
    imm_kind, plain, one_byte, end_op = _IMM_KIND, _PLAIN, _ONE_BYTE, opcodes.END
    depth = 0
    while pos < end:
        op = data[pos]
        pos += 1
        kind = imm_kind[op]
        if kind == _NONE:
            append(plain[op])
            if op == end_op:
                if not depth:
                    return tuple(out), pos
                depth -= 1
        elif kind == _U32 or kind == _S32:
            if pos < end and data[pos] < 0x80:
                append(one_byte[op][data[pos]])
                pos += 1
            else:
                decode = leb128.decode_u if kind == _U32 else leb128.decode_s
                imm, pos = decode(data, pos, 32, end)
                append((op, imm))
        elif kind == _MEM:
            if pos + 1 < end and data[pos] < 0x80 and data[pos + 1] < 0x80:
                append((op, (data[pos], data[pos + 1])))
                pos += 2
            else:
                align, pos = _u32(data, pos, end)
                offset, pos = _u32(data, pos, end)
                append((op, (align, offset)))
        elif kind == _BLOCK:
            if pos >= end:
                raise DecodeError("unexpected end of section or function")
            byte = data[pos]
            pos += 1
            append((op, None if byte == EMPTY_BLOCK else ValType.from_byte(byte)))
            depth += 1
        elif kind == _S64:
            imm, pos = leb128.decode_s(data, pos, 64, end)
            append((op, imm))
        elif kind == _F32 or kind == _F64:
            size = 4 if kind == _F32 else 8
            if pos + size > end:
                raise DecodeError("unexpected end of section or function")
            unpack = _UNPACK_F32 if kind == _F32 else _UNPACK_F64
            append((op, unpack(data, pos)[0]))
            pos += size
        elif kind == _BR_TABLE:
            count, pos = _u32(data, pos, end)
            targets = []
            for _ in range(count):
                target, pos = _u32(data, pos, end)
                targets.append(target)
            default, pos = _u32(data, pos, end)
            append((op, (tuple(targets), default)))
        elif kind == _CALL_IND:
            type_index, pos = _u32(data, pos, end)
            if pos >= end:
                raise DecodeError("unexpected end of section or function")
            if data[pos] != 0x00:
                raise DecodeError("call_indirect reserved byte must be zero")
            pos += 1
            append((op, type_index))
        elif kind == _MEM_MISC:
            if pos >= end:
                raise DecodeError("unexpected end of section or function")
            if data[pos] != 0x00:
                raise DecodeError("memory.size/grow reserved byte must be zero")
            pos += 1
            append(plain[op])
        else:
            raise DecodeError(f"unknown opcode 0x{op:02x}")
    raise DecodeError("unexpected end of section or function")


def _decode_type_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        form = r.byte()
        if form != 0x60:
            raise DecodeError(f"invalid functype form 0x{form:02x}")
        params = r.valtypes()
        results = r.valtypes()
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
        init = r.expr()
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
        offset = r.expr()
        funcs = tuple(r.u32() for _ in range(r.u32()))
        mod.elems.append(ElemSegment(table_index, offset, funcs))


def _decode_code_section(r: _Reader, mod: Module) -> None:
    data = r.data
    for _ in range(r.u32()):
        body_size = r.u32()
        pos, body_end = r.pos, r.pos + body_size
        if body_end > r.end:
            raise DecodeError("function body overruns section")
        locals_: list[ValType] = []
        groups, pos = _u32(data, pos, body_end)
        for _ in range(groups):
            count, pos = _u32(data, pos, body_end)
            if pos >= body_end:
                raise DecodeError("unexpected end of section or function")
            valtype = ValType.from_byte(data[pos])
            pos += 1
            if len(locals_) + count > 50_000:
                raise DecodeError("too many locals")
            locals_.extend([valtype] * count)
        body, pos = _read_expr(data, pos, body_end)
        if pos < body_end:
            raise DecodeError("junk after function body end")
        r.pos = body_end
        mod.codes.append(Code(tuple(locals_), body))


def _decode_data_section(r: _Reader, mod: Module) -> None:
    for _ in range(r.u32()):
        mem_index = r.u32()
        if mem_index != 0:
            raise DecodeError("only memory 0 supported (MVP)")
        offset = r.expr()
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
        r.end = payload_end  # until the payload has been read
        if section_id == 0:
            mod.customs.append((r.name(), r.bytes(payload_end - r.pos)))
        else:
            if section_id <= last_id:
                raise DecodeError(
                    f"section id {section_id} out of order (after {last_id})"
                )
            if section_id > 11:
                raise DecodeError(f"unknown section id {section_id}")
            last_id = section_id
            if section_id == 1:
                _decode_type_section(r, mod)
            elif section_id == 2:
                _decode_import_section(r, mod)
            elif section_id == 3:
                for _ in range(r.u32()):
                    mod.funcs.append(r.u32())
                num_funcs_declared = len(mod.funcs)
            elif section_id == 4:
                for _ in range(r.u32()):
                    if r.byte() != FUNCREF:
                        raise DecodeError("table must be funcref")
                    mod.tables.append(r.limits())
            elif section_id == 5:
                for _ in range(r.u32()):
                    limits = r.limits()
                    limits.validate(MAX_PAGES, "memory")
                    mod.mems.append(limits)
            elif section_id == 6:
                _decode_global_section(r, mod)
            elif section_id == 7:
                _decode_export_section(r, mod)
            elif section_id == 8:
                mod.start = r.u32()
            elif section_id == 9:
                _decode_elem_section(r, mod)
            elif section_id == 10:
                _decode_code_section(r, mod)
            elif section_id == 11:
                _decode_data_section(r, mod)
            if not r.eof():
                raise DecodeError(f"section {section_id} has trailing bytes")
        r.pos, r.end = payload_end, len(data)

    if len(mod.codes) != num_funcs_declared:
        raise DecodeError(
            f"function section declares {num_funcs_declared} functions but "
            f"code section has {len(mod.codes)} bodies"
        )
    mod.content_hash = content_hash or hashlib.sha256(data).hexdigest()
    return mod
