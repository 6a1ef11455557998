"""The Wasm execution engine: numeric semantics plus the interpreter loop.

Integer values are represented as unsigned Python ints in ``[0, 2**N)``;
floats as Python floats (f32 results are rounded through a 4-byte pack).
The interpreter assumes a *validated* module: it performs no type checks at
run time, only the dynamic checks the spec requires (memory bounds, table
bounds, signature checks for ``call_indirect``, div-by-zero, trunc range,
stack depth, fuel).
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable

from repro.wasm import opcodes as op
from repro.wasm.module import Code, Instr
from repro.wasm.traps import FuelExhausted, StackExhausted, Trap

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
SIGN32 = 0x80000000
SIGN64 = 0x8000000000000000

# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------


def to_signed(value: int, bits: int) -> int:
    """Reinterpret an unsigned representation as two's-complement signed."""
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def to_unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def f32_round(x: float) -> float:
    """Round a Python float to the nearest f32 value."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _idiv_s(a: int, b: int, bits: int) -> int:
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    if sb == 0:
        raise Trap("integer divide by zero", code="div0")
    if sa == -(1 << (bits - 1)) and sb == -1:
        raise Trap("integer overflow", code="overflow")
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return to_unsigned(q, bits)


def _idiv_u(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero", code="div0")
    return a // b


def _irem_s(a: int, b: int, bits: int) -> int:
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    if sb == 0:
        raise Trap("integer divide by zero", code="div0")
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return to_unsigned(r, bits)


def _irem_u(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero", code="div0")
    return a % b


def _clz(value: int, bits: int) -> int:
    return bits - value.bit_length() if value else bits


def _ctz(value: int, bits: int) -> int:
    return (value & -value).bit_length() - 1 if value else bits


def _rotl(value: int, count: int, bits: int) -> int:
    count %= bits
    mask = (1 << bits) - 1
    return ((value << count) | (value >> (bits - count))) & mask


def _rotr(value: int, count: int, bits: int) -> int:
    return _rotl(value, bits - (count % bits), bits)


def _fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:  # min(-0, +0) must be -0
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def _fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def _fnearest(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    rounded = float(round(x))  # Python round is round-half-to-even
    if rounded == 0.0:
        return math.copysign(0.0, x)
    return rounded


def _ftrunc(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    result = float(math.trunc(x))
    if result == 0.0:
        return math.copysign(0.0, x)
    return result


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


def _trunc_to_int(x: float, lo: int, hi: int, what: str) -> int:
    if math.isnan(x):
        raise Trap(f"invalid conversion to integer ({what} of NaN)", code="trunc")
    if math.isinf(x):
        raise Trap(f"integer overflow ({what} of infinity)", code="trunc")
    t = math.trunc(x)
    if not lo <= t <= hi:
        raise Trap(f"integer overflow ({what} of {x!r})", code="trunc")
    return t


def _reinterpret_f2i(x: float, fmt: str, bits: int) -> int:
    return int.from_bytes(struct.pack(fmt, x), "little")


def _reinterpret_i2f(value: int, bits: int, fmt: str) -> float:
    return struct.unpack(fmt, value.to_bytes(bits // 8, "little"))[0]


# ---------------------------------------------------------------------------
# dispatch tables: opcode -> python function over raw stack values
# ---------------------------------------------------------------------------

BINOPS: dict[int, Callable[[Any, Any], Any]] = {
    op.I32_ADD: lambda a, b: (a + b) & MASK32,
    op.I32_SUB: lambda a, b: (a - b) & MASK32,
    op.I32_MUL: lambda a, b: (a * b) & MASK32,
    op.I32_DIV_S: lambda a, b: _idiv_s(a, b, 32),
    op.I32_DIV_U: _idiv_u,
    op.I32_REM_S: lambda a, b: _irem_s(a, b, 32),
    op.I32_REM_U: _irem_u,
    op.I32_AND: lambda a, b: a & b,
    op.I32_OR: lambda a, b: a | b,
    op.I32_XOR: lambda a, b: a ^ b,
    op.I32_SHL: lambda a, b: (a << (b % 32)) & MASK32,
    op.I32_SHR_U: lambda a, b: a >> (b % 32),
    op.I32_SHR_S: lambda a, b: to_unsigned(to_signed(a, 32) >> (b % 32), 32),
    op.I32_ROTL: lambda a, b: _rotl(a, b, 32),
    op.I32_ROTR: lambda a, b: _rotr(a, b, 32),
    op.I64_ADD: lambda a, b: (a + b) & MASK64,
    op.I64_SUB: lambda a, b: (a - b) & MASK64,
    op.I64_MUL: lambda a, b: (a * b) & MASK64,
    op.I64_DIV_S: lambda a, b: _idiv_s(a, b, 64),
    op.I64_DIV_U: _idiv_u,
    op.I64_REM_S: lambda a, b: _irem_s(a, b, 64),
    op.I64_REM_U: _irem_u,
    op.I64_AND: lambda a, b: a & b,
    op.I64_OR: lambda a, b: a | b,
    op.I64_XOR: lambda a, b: a ^ b,
    op.I64_SHL: lambda a, b: (a << (b % 64)) & MASK64,
    op.I64_SHR_U: lambda a, b: a >> (b % 64),
    op.I64_SHR_S: lambda a, b: to_unsigned(to_signed(a, 64) >> (b % 64), 64),
    op.I64_ROTL: lambda a, b: _rotl(a, b, 64),
    op.I64_ROTR: lambda a, b: _rotr(a, b, 64),
    # comparisons produce i32 0/1
    op.I32_EQ: lambda a, b: int(a == b),
    op.I32_NE: lambda a, b: int(a != b),
    op.I32_LT_S: lambda a, b: int(to_signed(a, 32) < to_signed(b, 32)),
    op.I32_LT_U: lambda a, b: int(a < b),
    op.I32_GT_S: lambda a, b: int(to_signed(a, 32) > to_signed(b, 32)),
    op.I32_GT_U: lambda a, b: int(a > b),
    op.I32_LE_S: lambda a, b: int(to_signed(a, 32) <= to_signed(b, 32)),
    op.I32_LE_U: lambda a, b: int(a <= b),
    op.I32_GE_S: lambda a, b: int(to_signed(a, 32) >= to_signed(b, 32)),
    op.I32_GE_U: lambda a, b: int(a >= b),
    op.I64_EQ: lambda a, b: int(a == b),
    op.I64_NE: lambda a, b: int(a != b),
    op.I64_LT_S: lambda a, b: int(to_signed(a, 64) < to_signed(b, 64)),
    op.I64_LT_U: lambda a, b: int(a < b),
    op.I64_GT_S: lambda a, b: int(to_signed(a, 64) > to_signed(b, 64)),
    op.I64_GT_U: lambda a, b: int(a > b),
    op.I64_LE_S: lambda a, b: int(to_signed(a, 64) <= to_signed(b, 64)),
    op.I64_LE_U: lambda a, b: int(a <= b),
    op.I64_GE_S: lambda a, b: int(to_signed(a, 64) >= to_signed(b, 64)),
    op.I64_GE_U: lambda a, b: int(a >= b),
    op.F32_EQ: lambda a, b: int(a == b),
    op.F32_NE: lambda a, b: int(a != b),
    op.F32_LT: lambda a, b: int(a < b),
    op.F32_GT: lambda a, b: int(a > b),
    op.F32_LE: lambda a, b: int(a <= b),
    op.F32_GE: lambda a, b: int(a >= b),
    op.F64_EQ: lambda a, b: int(a == b),
    op.F64_NE: lambda a, b: int(a != b),
    op.F64_LT: lambda a, b: int(a < b),
    op.F64_GT: lambda a, b: int(a > b),
    op.F64_LE: lambda a, b: int(a <= b),
    op.F64_GE: lambda a, b: int(a >= b),
    op.F32_ADD: lambda a, b: f32_round(a + b),
    op.F32_SUB: lambda a, b: f32_round(a - b),
    op.F32_MUL: lambda a, b: f32_round(a * b),
    op.F32_DIV: lambda a, b: f32_round(_fdiv(a, b)),
    op.F32_MIN: lambda a, b: f32_round(_fmin(a, b)),
    op.F32_MAX: lambda a, b: f32_round(_fmax(a, b)),
    op.F32_COPYSIGN: lambda a, b: math.copysign(a, b) if not math.isnan(a) else a,
    op.F64_ADD: lambda a, b: a + b,
    op.F64_SUB: lambda a, b: a - b,
    op.F64_MUL: lambda a, b: a * b,
    op.F64_DIV: _fdiv,
    op.F64_MIN: _fmin,
    op.F64_MAX: _fmax,
    op.F64_COPYSIGN: lambda a, b: math.copysign(a, b) if not math.isnan(a) else a,
}

UNOPS: dict[int, Callable[[Any], Any]] = {
    op.I32_EQZ: lambda a: int(a == 0),
    op.I64_EQZ: lambda a: int(a == 0),
    op.I32_CLZ: lambda a: _clz(a, 32),
    op.I32_CTZ: lambda a: _ctz(a, 32),
    op.I32_POPCNT: lambda a: bin(a).count("1"),
    op.I64_CLZ: lambda a: _clz(a, 64),
    op.I64_CTZ: lambda a: _ctz(a, 64),
    op.I64_POPCNT: lambda a: bin(a).count("1"),
    op.F32_ABS: lambda a: abs(a),
    op.F32_NEG: lambda a: -a if not math.isnan(a) else math.copysign(math.nan, -math.copysign(1.0, a)),
    op.F32_CEIL: lambda a: f32_round(math.ceil(a)) if math.isfinite(a) and a != 0 else a,
    op.F32_FLOOR: lambda a: f32_round(math.floor(a)) if math.isfinite(a) and a != 0 else a,
    op.F32_TRUNC: lambda a: f32_round(_ftrunc(a)),
    op.F32_NEAREST: lambda a: f32_round(_fnearest(a)),
    op.F32_SQRT: lambda a: f32_round(math.sqrt(a)) if a >= 0 else math.nan,
    op.F64_ABS: lambda a: abs(a),
    op.F64_NEG: lambda a: -a if not math.isnan(a) else math.copysign(math.nan, -math.copysign(1.0, a)),
    op.F64_CEIL: lambda a: float(math.ceil(a)) if math.isfinite(a) and a != 0 else a,
    op.F64_FLOOR: lambda a: float(math.floor(a)) if math.isfinite(a) and a != 0 else a,
    op.F64_TRUNC: _ftrunc,
    op.F64_NEAREST: _fnearest,
    op.F64_SQRT: lambda a: math.sqrt(a) if a >= 0 else math.nan,
    op.I32_WRAP_I64: lambda a: a & MASK32,
    op.I32_TRUNC_F32_S: lambda a: to_unsigned(_trunc_to_int(a, -SIGN32, SIGN32 - 1, "i32.trunc_f32_s"), 32),
    op.I32_TRUNC_F32_U: lambda a: _trunc_to_int(a, 0, MASK32, "i32.trunc_f32_u"),
    op.I32_TRUNC_F64_S: lambda a: to_unsigned(_trunc_to_int(a, -SIGN32, SIGN32 - 1, "i32.trunc_f64_s"), 32),
    op.I32_TRUNC_F64_U: lambda a: _trunc_to_int(a, 0, MASK32, "i32.trunc_f64_u"),
    op.I64_EXTEND_I32_S: lambda a: to_unsigned(to_signed(a, 32), 64),
    op.I64_EXTEND_I32_U: lambda a: a,
    op.I64_TRUNC_F32_S: lambda a: to_unsigned(_trunc_to_int(a, -SIGN64, SIGN64 - 1, "i64.trunc_f32_s"), 64),
    op.I64_TRUNC_F32_U: lambda a: _trunc_to_int(a, 0, MASK64, "i64.trunc_f32_u"),
    op.I64_TRUNC_F64_S: lambda a: to_unsigned(_trunc_to_int(a, -SIGN64, SIGN64 - 1, "i64.trunc_f64_s"), 64),
    op.I64_TRUNC_F64_U: lambda a: _trunc_to_int(a, 0, MASK64, "i64.trunc_f64_u"),
    op.F32_CONVERT_I32_S: lambda a: f32_round(float(to_signed(a, 32))),
    op.F32_CONVERT_I32_U: lambda a: f32_round(float(a)),
    op.F32_CONVERT_I64_S: lambda a: f32_round(float(to_signed(a, 64))),
    op.F32_CONVERT_I64_U: lambda a: f32_round(float(a)),
    op.F32_DEMOTE_F64: f32_round,
    op.F64_CONVERT_I32_S: lambda a: float(to_signed(a, 32)),
    op.F64_CONVERT_I32_U: lambda a: float(a),
    op.F64_CONVERT_I64_S: lambda a: float(to_signed(a, 64)),
    op.F64_CONVERT_I64_U: lambda a: float(a),
    op.F64_PROMOTE_F32: lambda a: a,
    op.I32_REINTERPRET_F32: lambda a: _reinterpret_f2i(a, "<f", 32),
    op.I64_REINTERPRET_F64: lambda a: _reinterpret_f2i(a, "<d", 64),
    op.F32_REINTERPRET_I32: lambda a: _reinterpret_i2f(a, 32, "<f"),
    op.F64_REINTERPRET_I64: lambda a: _reinterpret_i2f(a, 64, "<d"),
    op.I32_EXTEND8_S: lambda a: to_unsigned(to_signed(a & 0xFF, 8), 32),
    op.I32_EXTEND16_S: lambda a: to_unsigned(to_signed(a & 0xFFFF, 16), 32),
    op.I64_EXTEND8_S: lambda a: to_unsigned(to_signed(a & 0xFF, 8), 64),
    op.I64_EXTEND16_S: lambda a: to_unsigned(to_signed(a & 0xFFFF, 16), 64),
    op.I64_EXTEND32_S: lambda a: to_unsigned(to_signed(a & MASK32, 32), 64),
}

#: loads: opcode -> (size, signed, result kind).  The kind names the result
#: type so the unsigned-representation mask is always the *result* width
#: (an i64.load masked at 32 bits would silently truncate the top half).
LOADS: dict[int, tuple[int, bool, str]] = {
    op.I32_LOAD: (4, False, "i32"),
    op.I64_LOAD: (8, False, "i64"),
    op.F32_LOAD: (4, False, "f32"),
    op.F64_LOAD: (8, False, "f64"),
    op.I32_LOAD8_S: (1, True, "i32"),
    op.I32_LOAD8_U: (1, False, "i32"),
    op.I32_LOAD16_S: (2, True, "i32"),
    op.I32_LOAD16_U: (2, False, "i32"),
    op.I64_LOAD8_S: (1, True, "i64"),
    op.I64_LOAD8_U: (1, False, "i64"),
    op.I64_LOAD16_S: (2, True, "i64"),
    op.I64_LOAD16_U: (2, False, "i64"),
    op.I64_LOAD32_S: (4, True, "i64"),
    op.I64_LOAD32_U: (4, False, "i64"),
}

#: stores: opcode -> (size, is_float)
STORES: dict[int, tuple[int, str]] = {
    op.I32_STORE: (4, "i"),
    op.I64_STORE: (8, "i"),
    op.F32_STORE: (4, "f32"),
    op.F64_STORE: (8, "f64"),
    op.I32_STORE8: (1, "i"),
    op.I32_STORE16: (2, "i"),
    op.I64_STORE8: (1, "i"),
    op.I64_STORE16: (2, "i"),
    op.I64_STORE32: (4, "i"),
}


def build_control_map(body: tuple[Instr, ...]) -> dict[int, tuple[int, int | None]]:
    """Map each block/loop/if pc to ``(end_pc, else_pc)``.

    Computed once per function body (see :func:`control_map_for`) so
    branches are O(1) at run time.
    """
    result: dict[int, tuple[int, int | None]] = {}
    stack: list[tuple[int, int | None]] = []  # (start_pc, else_pc)
    for pc, (opcode, _imm) in enumerate(body):
        if opcode in (op.BLOCK, op.LOOP, op.IF):
            stack.append((pc, None))
        elif opcode == op.ELSE:
            start, _ = stack.pop()
            stack.append((start, pc))
        elif opcode == op.END:
            if stack:
                start, else_pc = stack.pop()
                result[start] = (pc, else_pc)
    return result


def control_map_for(code: Code) -> dict[int, tuple[int, int | None]]:
    """Memoized :func:`build_control_map` for a :class:`Code` body.

    Every instantiation of a module used to recompute the map per
    function; caching it on the (immutable) ``Code`` object makes repeat
    instantiation - hot swaps, multi-UE coexistence runs - pay it once.
    """
    cached = getattr(code, "_control_map", None)
    if cached is None:
        cached = build_control_map(code.body)
        object.__setattr__(code, "_control_map", cached)
    return cached


# ---------------------------------------------------------------------------
# precompiled dispatch: each instruction becomes a (tag, ...) tuple so the
# hot loop needs no dict membership tests or control-map lookups
# ---------------------------------------------------------------------------

T_LOCAL_GET = 0
T_CONST = 1
T_BINOP = 2
T_UNOP = 3
T_LOCAL_SET = 4
T_LOCAL_TEE = 5
T_LOAD_I = 6
T_LOAD_F32 = 7
T_LOAD_F64 = 8
T_STORE_I = 9
T_STORE_F32 = 10
T_STORE_F64 = 11
T_BLOCK = 12
T_LOOP = 13
T_IF = 14
T_ELSE = 15
T_END = 16
T_BR = 17
T_BR_IF = 18
T_BR_TABLE = 19
T_RETURN = 20
T_CALL = 21
T_CALL_INDIRECT = 22
T_GLOBAL_GET = 23
T_GLOBAL_SET = 24
T_DROP = 25
T_SELECT = 26
T_MEMSIZE = 27
T_MEMGROW = 28
T_NOP = 29
T_UNREACHABLE = 30


def _compile_ops(
    body: tuple[Instr, ...],
    control: dict[int, tuple[int, int | None]] | None = None,
) -> list[tuple]:
    """Lower decoded instructions into tagged dispatch tuples."""
    if control is None:
        control = build_control_map(body)

    ops: list[tuple] = []
    for pc, (opcode, imm) in enumerate(body):
        if opcode == op.LOCAL_GET:
            ops.append((T_LOCAL_GET, imm))
        elif opcode == op.I32_CONST:
            ops.append((T_CONST, imm & MASK32))
        elif opcode == op.I64_CONST:
            ops.append((T_CONST, imm & MASK64))
        elif opcode == op.F32_CONST:
            ops.append((T_CONST, f32_round(imm)))
        elif opcode == op.F64_CONST:
            ops.append((T_CONST, imm))
        elif opcode in BINOPS:
            ops.append((T_BINOP, BINOPS[opcode]))
        elif opcode in UNOPS:
            ops.append((T_UNOP, UNOPS[opcode]))
        elif opcode == op.LOCAL_SET:
            ops.append((T_LOCAL_SET, imm))
        elif opcode == op.LOCAL_TEE:
            ops.append((T_LOCAL_TEE, imm))
        elif opcode in LOADS:
            size, signed, kind = LOADS[opcode]
            offset = imm[1]
            if kind == "f32":
                ops.append((T_LOAD_F32, offset))
            elif kind == "f64":
                ops.append((T_LOAD_F64, offset))
            else:
                mask = MASK64 if kind == "i64" else MASK32
                ops.append((T_LOAD_I, offset, size, signed, mask))
        elif opcode in STORES:
            size, kind = STORES[opcode]
            offset = imm[1]
            if kind == "f32":
                ops.append((T_STORE_F32, offset))
            elif kind == "f64":
                ops.append((T_STORE_F64, offset))
            else:
                ops.append((T_STORE_I, offset, size))
        elif opcode == op.BLOCK:
            end_pc, _ = control[pc]
            ops.append((T_BLOCK, 0 if imm is None else 1, end_pc + 1))
        elif opcode == op.LOOP:
            ops.append((T_LOOP, pc + 1))
        elif opcode == op.IF:
            end_pc, else_pc = control[pc]
            false_pc = else_pc if else_pc is not None else end_pc - 1
            ops.append((T_IF, 0 if imm is None else 1, end_pc + 1, false_pc))
        elif opcode == op.ELSE:
            # find the matching END by scanning the control map
            ops.append((T_ELSE, _else_end(control, pc) - 1))
        elif opcode == op.END:
            ops.append((T_END,))
        elif opcode == op.BR:
            ops.append((T_BR, imm))
        elif opcode == op.BR_IF:
            ops.append((T_BR_IF, imm))
        elif opcode == op.BR_TABLE:
            ops.append((T_BR_TABLE, imm[0], imm[1]))
        elif opcode == op.RETURN:
            ops.append((T_RETURN,))
        elif opcode == op.CALL:
            ops.append((T_CALL, imm))
        elif opcode == op.CALL_INDIRECT:
            ops.append((T_CALL_INDIRECT, imm))
        elif opcode == op.GLOBAL_GET:
            ops.append((T_GLOBAL_GET, imm))
        elif opcode == op.GLOBAL_SET:
            ops.append((T_GLOBAL_SET, imm))
        elif opcode == op.DROP:
            ops.append((T_DROP,))
        elif opcode == op.SELECT:
            ops.append((T_SELECT,))
        elif opcode == op.MEMORY_SIZE:
            ops.append((T_MEMSIZE,))
        elif opcode == op.MEMORY_GROW:
            ops.append((T_MEMGROW,))
        elif opcode == op.NOP:
            ops.append((T_NOP,))
        elif opcode == op.UNREACHABLE:
            ops.append((T_UNREACHABLE,))
        else:  # pragma: no cover - validation rejects unknown opcodes
            raise Trap(f"cannot compile opcode 0x{opcode:02x}", code="internal")
    return ops


def _else_end(control: dict[int, tuple[int, int | None]], else_pc: int) -> int:
    for _start, (end_pc, epc) in control.items():
        if epc == else_pc:
            return end_pc
    raise AssertionError("else without recorded end")  # pragma: no cover


#: net operand-stack effect per dispatch tag (calls treated as +1: the
#: worst net push once arguments are consumed).  Used only for the static
#: per-function peak estimate feeding :class:`ExecStats`.
_STACK_DELTAS: dict[int, int] = {
    T_LOCAL_GET: 1, T_CONST: 1, T_GLOBAL_GET: 1, T_MEMSIZE: 1,
    T_CALL: 1, T_CALL_INDIRECT: 1,
    T_UNOP: 0, T_LOCAL_TEE: 0, T_MEMGROW: 0, T_LOAD_I: 0,
    T_LOAD_F32: 0, T_LOAD_F64: 0, T_BLOCK: 0, T_LOOP: 0, T_ELSE: 0,
    T_END: 0, T_NOP: 0, T_UNREACHABLE: 0, T_BR: 0, T_RETURN: 0,
    T_BINOP: -1, T_LOCAL_SET: -1, T_GLOBAL_SET: -1, T_DROP: -1,
    T_BR_IF: -1, T_IF: -1, T_BR_TABLE: -1,
    T_STORE_I: -2, T_STORE_F32: -2, T_STORE_F64: -2, T_SELECT: -2,
}


def _static_max_stack(ops: list[tuple]) -> int:
    """Linear-scan upper-bound of a body's peak operand-stack height.

    An estimate, not the validator's exact type-stack: branch targets are
    ignored and the running height is clamped at zero, so the result is a
    monotone upper bound good enough for observability.
    """
    height = 0
    peak = 0
    for ins in ops:
        height += _STACK_DELTAS.get(ins[0], 0)
        if height < 0:
            height = 0
        elif height > peak:
            peak = height
    return peak


class ExecStats:
    """Per-call interpreter counters, collected only when attached.

    A host opts in by setting ``store.stats = ExecStats()`` before a call;
    the interpreter then updates it once per *function frame* (never per
    instruction, so the counters cost nothing measurable):

    - ``frames``: Wasm function frames entered;
    - ``max_call_depth``: deepest call nesting reached;
    - ``max_value_stack``: peak operand-stack height (static per-function
      upper bound, maxed over entered frames).

    Instruction counts come from fuel accounting (fuel is decremented
    exactly once per executed instruction), so hosts derive them from the
    fuel delta rather than a second per-instruction counter.
    """

    __slots__ = ("frames", "max_call_depth", "max_value_stack")

    def __init__(self) -> None:
        self.frames = 0
        self.max_call_depth = 0
        self.max_value_stack = 0


class PreparedCode:
    """A function body lowered to tagged dispatch tuples."""

    __slots__ = ("locals", "body", "ops", "local_defaults", "max_stack")

    def __init__(self, code: Code):
        from repro.wasm.wtypes import ValType

        self.locals = code.locals
        self.body = code.body
        self.ops = _compile_ops(code.body, control_map_for(code))
        self.local_defaults = [
            0 if vt in (ValType.I32, ValType.I64) else 0.0 for vt in code.locals
        ]
        self.max_stack = _static_max_stack(self.ops)


def prepared_for(code: Code) -> PreparedCode:
    """Memoized :class:`PreparedCode` for a ``Code`` body.

    Instances built from the same :class:`~repro.wasm.module.Module`
    object share one lowering instead of re-lowering per instantiation -
    and every load of the same bytes through
    :func:`repro.wasm.load_module` *is* the same object.  (Separate
    ``decode_module`` calls on the same bytes are separate modules and
    share nothing.)
    """
    cached = getattr(code, "_prepared", None)
    if cached is None:
        cached = PreparedCode(code)
        object.__setattr__(code, "_prepared", cached)
    return cached


class _Label:
    """One entry of a frame's label stack."""

    __slots__ = ("arity", "target", "height", "is_loop")

    def __init__(self, arity: int, target: int, height: int, is_loop: bool):
        self.arity = arity
        self.target = target
        self.height = height
        self.is_loop = is_loop


def execute(store, instance, prepared: PreparedCode, args: list, result_arity: int, depth: int):
    """Run one Wasm function body; returns the result list (0 or 1 values).

    ``store`` carries fuel and limits; ``instance`` resolves functions,
    globals, memory and table.  Calls recurse through
    ``instance.invoke_index``; fuel is kept in a local and synced across
    call boundaries.
    """
    if depth > store.max_call_depth:
        raise StackExhausted(depth)

    stats = store.stats
    if stats is not None:
        stats.frames += 1
        if depth > stats.max_call_depth:
            stats.max_call_depth = depth
        if prepared.max_stack > stats.max_value_stack:
            stats.max_value_stack = prepared.max_stack

    ops = prepared.ops
    locals_: list = args + prepared.local_defaults.copy()
    stack: list = []
    mem = instance.memory
    globals_ = instance.globals
    pc = 0
    n = len(ops)
    labels: list[_Label] = [_Label(result_arity, n, 0, False)]

    fuel_on = store.fuel is not None
    fuel = store.fuel if fuel_on else 0

    try:
        while pc < n:
            if fuel_on:
                fuel -= 1
                if fuel < 0:
                    fuel = 0
                    raise FuelExhausted()
            ins = ops[pc]
            tag = ins[0]

            if tag == T_LOCAL_GET:
                stack.append(locals_[ins[1]])
            elif tag == T_BINOP:
                b = stack.pop()
                stack[-1] = ins[1](stack[-1], b)
            elif tag == T_CONST:
                stack.append(ins[1])
            elif tag == T_LOCAL_SET:
                locals_[ins[1]] = stack.pop()
            elif tag == T_UNOP:
                stack[-1] = ins[1](stack[-1])
            elif tag == T_LOAD_I:
                addr = stack[-1] + ins[1]
                stack[-1] = mem.load_int(addr, ins[2], ins[3]) & ins[4]
            elif tag == T_STORE_I:
                value = stack.pop()
                mem.store_int(stack.pop() + ins[1], value, ins[2])
            elif tag == T_CALL:
                store.fuel = fuel if fuel_on else store.fuel
                results = instance.invoke_index(ins[1], stack, depth + 1)
                if fuel_on:
                    fuel = store.fuel
                stack.extend(results)
            elif tag == T_BR_IF:
                if stack.pop():
                    label = labels[-1 - ins[1]]
                    arity = label.arity
                    values = stack[len(stack) - arity :] if arity else []
                    del stack[label.height :]
                    stack.extend(values)
                    keep = len(labels) - ins[1] - 1
                    if label.is_loop:
                        keep += 1
                    del labels[keep:]
                    pc = label.target - 1
            elif tag == T_IF:
                labels.append(_Label(ins[1], ins[2], len(stack) - 1, False))
                if not stack.pop():
                    pc = ins[3]
            elif tag == T_BLOCK:
                labels.append(_Label(ins[1], ins[2], len(stack), False))
            elif tag == T_LOOP:
                labels.append(_Label(0, ins[1], len(stack), True))
            elif tag == T_END:
                if labels:
                    labels.pop()
            elif tag == T_BR:
                label = labels[-1 - ins[1]]
                arity = label.arity
                values = stack[len(stack) - arity :] if arity else []
                del stack[label.height :]
                stack.extend(values)
                keep = len(labels) - ins[1] - 1
                if label.is_loop:
                    keep += 1
                del labels[keep:]
                pc = label.target - 1
            elif tag == T_ELSE:
                pc = ins[1]
            elif tag == T_LOAD_F64:
                stack[-1] = mem.load_f64(stack[-1] + ins[1])
            elif tag == T_STORE_F64:
                value = stack.pop()
                mem.store_f64(stack.pop() + ins[1], value)
            elif tag == T_LOAD_F32:
                stack[-1] = mem.load_f32(stack[-1] + ins[1])
            elif tag == T_STORE_F32:
                value = stack.pop()
                mem.store_f32(stack.pop() + ins[1], value)
            elif tag == T_GLOBAL_GET:
                stack.append(globals_[ins[1]].value)
            elif tag == T_GLOBAL_SET:
                globals_[ins[1]].value = stack.pop()
            elif tag == T_LOCAL_TEE:
                locals_[ins[1]] = stack[-1]
            elif tag == T_RETURN:
                return stack[len(stack) - result_arity :] if result_arity else []
            elif tag == T_BR_TABLE:
                targets, default = ins[1], ins[2]
                index = stack.pop()
                d = targets[index] if index < len(targets) else default
                label = labels[-1 - d]
                arity = label.arity
                values = stack[len(stack) - arity :] if arity else []
                del stack[label.height :]
                stack.extend(values)
                keep = len(labels) - d - 1
                if label.is_loop:
                    keep += 1
                del labels[keep:]
                pc = label.target - 1
            elif tag == T_CALL_INDIRECT:
                elem_index = stack.pop()
                table = instance.table
                if table is None or elem_index >= len(table.elements):
                    raise Trap("undefined element", code="table_oob")
                func_addr = table.elements[elem_index]
                if func_addr is None:
                    raise Trap("uninitialized element", code="table_null")
                expected = instance.module.types[ins[1]]
                actual = store.funcs[func_addr].functype
                if actual != expected:
                    raise Trap(
                        f"indirect call type mismatch: {actual} != {expected}",
                        code="sig",
                    )
                store.fuel = fuel if fuel_on else store.fuel
                results = instance.invoke_addr(func_addr, stack, depth + 1)
                if fuel_on:
                    fuel = store.fuel
                stack.extend(results)
            elif tag == T_DROP:
                stack.pop()
            elif tag == T_SELECT:
                cond = stack.pop()
                b = stack.pop()
                if not cond:
                    stack[-1] = b
            elif tag == T_MEMSIZE:
                stack.append(mem.size_pages)
            elif tag == T_MEMGROW:
                stack.append(mem.grow(stack.pop()) & MASK32)
            elif tag == T_UNREACHABLE:
                raise Trap("unreachable executed", code="unreachable")
            # T_NOP: nothing
            pc += 1
    finally:
        if fuel_on:
            store.fuel = fuel

    return stack[len(stack) - result_arity :] if result_arity else []
