"""WebAssembly MVP instruction table: every static fact about an opcode,
stated once.

:data:`OP_TABLE` maps each opcode to an :class:`OpInfo` row:

- ``name``   the spec mnemonic - the assembler (:data:`NAME_TO_OP`), the
  disassembler and the lowering dumps (:func:`mnemonic`) print it;
- ``imm``    the kind of immediate the binary carries (below) - the
  decoder, the encoder, the assembler and the disassembler read it;
- ``ins`` / ``out``  operand types popped (deepest first) and result
  types pushed, for a *fixed-shape* opcode: the numeric ops, the four
  consts, the loads and stores, ``memory.size`` / ``memory.grow``.
  ``ins`` is None for the control, parametric and variable opcodes,
  whose shape depends on labels, locals, globals or callees.  The
  validator checks a fixed-shape opcode from these alone;
- ``mem``    a load's or store's :class:`MemAccess` (value type, size,
  signedness, load or store, natural-alignment exponent) - the validator
  checks alignment against it, the three engines lower loads and stores
  from it (:data:`LOADS` / :data:`STORES`), the disassembler prints
  alignment by it;
- ``traps``  whether executing the opcode can trap - the threaded engine
  fuses a trapping op only last in a superinstruction, the AOT emitter
  settles fuel before one (:data:`TRAPPING_OPS`);
- ``delta``  its stack effect in the linear scan behind
  :attr:`BodyFacts.max_stack <repro.wasm.validator.BodyFacts>`:
  ``len(out) - len(ins)`` for a fixed-shape row; a call counts +1
  whatever its signature.

Immediate kinds:

- ``none``        no immediates
- ``block``       a block type (0x40 empty or a value type)
- ``label``       one label index (u32)
- ``br_table``    vector of label indices plus default
- ``func``        function index (u32)
- ``call_ind``    type index + reserved table byte
- ``local``       local index (u32)
- ``global``      global index (u32)
- ``mem``         alignment + offset (two u32s)
- ``mem_misc``    single reserved zero byte (memory.size / memory.grow)
- ``i32``/``i64`` signed LEB literal
- ``f32``/``f64`` IEEE-754 little-endian literal
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wasm.wtypes import ValType

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64

# --- control ---------------------------------------------------------------
UNREACHABLE = 0x00
NOP = 0x01
BLOCK = 0x02
LOOP = 0x03
IF = 0x04
ELSE = 0x05
END = 0x0B
BR = 0x0C
BR_IF = 0x0D
BR_TABLE = 0x0E
RETURN = 0x0F
CALL = 0x10
CALL_INDIRECT = 0x11

# --- parametric ------------------------------------------------------------
DROP = 0x1A
SELECT = 0x1B

# --- variable --------------------------------------------------------------
LOCAL_GET = 0x20
LOCAL_SET = 0x21
LOCAL_TEE = 0x22
GLOBAL_GET = 0x23
GLOBAL_SET = 0x24

# --- memory ----------------------------------------------------------------
I32_LOAD = 0x28
I64_LOAD = 0x29
F32_LOAD = 0x2A
F64_LOAD = 0x2B
I32_LOAD8_S = 0x2C
I32_LOAD8_U = 0x2D
I32_LOAD16_S = 0x2E
I32_LOAD16_U = 0x2F
I64_LOAD8_S = 0x30
I64_LOAD8_U = 0x31
I64_LOAD16_S = 0x32
I64_LOAD16_U = 0x33
I64_LOAD32_S = 0x34
I64_LOAD32_U = 0x35
I32_STORE = 0x36
I64_STORE = 0x37
F32_STORE = 0x38
F64_STORE = 0x39
I32_STORE8 = 0x3A
I32_STORE16 = 0x3B
I64_STORE8 = 0x3C
I64_STORE16 = 0x3D
I64_STORE32 = 0x3E
MEMORY_SIZE = 0x3F
MEMORY_GROW = 0x40

# --- numeric constants -----------------------------------------------------
I32_CONST = 0x41
I64_CONST = 0x42
F32_CONST = 0x43
F64_CONST = 0x44

# --- i32 comparisons -------------------------------------------------------
I32_EQZ = 0x45
I32_EQ = 0x46
I32_NE = 0x47
I32_LT_S = 0x48
I32_LT_U = 0x49
I32_GT_S = 0x4A
I32_GT_U = 0x4B
I32_LE_S = 0x4C
I32_LE_U = 0x4D
I32_GE_S = 0x4E
I32_GE_U = 0x4F

# --- i64 comparisons -------------------------------------------------------
I64_EQZ = 0x50
I64_EQ = 0x51
I64_NE = 0x52
I64_LT_S = 0x53
I64_LT_U = 0x54
I64_GT_S = 0x55
I64_GT_U = 0x56
I64_LE_S = 0x57
I64_LE_U = 0x58
I64_GE_S = 0x59
I64_GE_U = 0x5A

# --- float comparisons -----------------------------------------------------
F32_EQ = 0x5B
F32_NE = 0x5C
F32_LT = 0x5D
F32_GT = 0x5E
F32_LE = 0x5F
F32_GE = 0x60
F64_EQ = 0x61
F64_NE = 0x62
F64_LT = 0x63
F64_GT = 0x64
F64_LE = 0x65
F64_GE = 0x66

# --- i32 arithmetic --------------------------------------------------------
I32_CLZ = 0x67
I32_CTZ = 0x68
I32_POPCNT = 0x69
I32_ADD = 0x6A
I32_SUB = 0x6B
I32_MUL = 0x6C
I32_DIV_S = 0x6D
I32_DIV_U = 0x6E
I32_REM_S = 0x6F
I32_REM_U = 0x70
I32_AND = 0x71
I32_OR = 0x72
I32_XOR = 0x73
I32_SHL = 0x74
I32_SHR_S = 0x75
I32_SHR_U = 0x76
I32_ROTL = 0x77
I32_ROTR = 0x78

# --- i64 arithmetic --------------------------------------------------------
I64_CLZ = 0x79
I64_CTZ = 0x7A
I64_POPCNT = 0x7B
I64_ADD = 0x7C
I64_SUB = 0x7D
I64_MUL = 0x7E
I64_DIV_S = 0x7F
I64_DIV_U = 0x80
I64_REM_S = 0x81
I64_REM_U = 0x82
I64_AND = 0x83
I64_OR = 0x84
I64_XOR = 0x85
I64_SHL = 0x86
I64_SHR_S = 0x87
I64_SHR_U = 0x88
I64_ROTL = 0x89
I64_ROTR = 0x8A

# --- f32 arithmetic --------------------------------------------------------
F32_ABS = 0x8B
F32_NEG = 0x8C
F32_CEIL = 0x8D
F32_FLOOR = 0x8E
F32_TRUNC = 0x8F
F32_NEAREST = 0x90
F32_SQRT = 0x91
F32_ADD = 0x92
F32_SUB = 0x93
F32_MUL = 0x94
F32_DIV = 0x95
F32_MIN = 0x96
F32_MAX = 0x97
F32_COPYSIGN = 0x98

# --- f64 arithmetic --------------------------------------------------------
F64_ABS = 0x99
F64_NEG = 0x9A
F64_CEIL = 0x9B
F64_FLOOR = 0x9C
F64_TRUNC = 0x9D
F64_NEAREST = 0x9E
F64_SQRT = 0x9F
F64_ADD = 0xA0
F64_SUB = 0xA1
F64_MUL = 0xA2
F64_DIV = 0xA3
F64_MIN = 0xA4
F64_MAX = 0xA5
F64_COPYSIGN = 0xA6

# --- conversions -----------------------------------------------------------
I32_WRAP_I64 = 0xA7
I32_TRUNC_F32_S = 0xA8
I32_TRUNC_F32_U = 0xA9
I32_TRUNC_F64_S = 0xAA
I32_TRUNC_F64_U = 0xAB
I64_EXTEND_I32_S = 0xAC
I64_EXTEND_I32_U = 0xAD
I64_TRUNC_F32_S = 0xAE
I64_TRUNC_F32_U = 0xAF
I64_TRUNC_F64_S = 0xB0
I64_TRUNC_F64_U = 0xB1
F32_CONVERT_I32_S = 0xB2
F32_CONVERT_I32_U = 0xB3
F32_CONVERT_I64_S = 0xB4
F32_CONVERT_I64_U = 0xB5
F32_DEMOTE_F64 = 0xB6
F64_CONVERT_I32_S = 0xB7
F64_CONVERT_I32_U = 0xB8
F64_CONVERT_I64_S = 0xB9
F64_CONVERT_I64_U = 0xBA
F64_PROMOTE_F32 = 0xBB
I32_REINTERPRET_F32 = 0xBC
I64_REINTERPRET_F64 = 0xBD
F32_REINTERPRET_I32 = 0xBE
F64_REINTERPRET_I64 = 0xBF

# --- sign extension (post-MVP but universally supported) --------------------
I32_EXTEND8_S = 0xC0
I32_EXTEND16_S = 0xC1
I64_EXTEND8_S = 0xC2
I64_EXTEND16_S = 0xC3
I64_EXTEND32_S = 0xC4


@dataclass(frozen=True)
class MemAccess:
    """What one load or store touches."""

    vt: ValType  # the value stored, or loaded: a load is masked at vt's width
    size: int  # bytes accessed
    signed: bool  # a narrow load that sign-extends
    store: bool
    align: int  # natural-alignment exponent: the largest valid one


@dataclass(frozen=True)
class OpInfo:
    """Static facts about one opcode (see the module docstring)."""

    name: str
    imm: str  # immediate kind, see module docstring
    ins: tuple[ValType, ...] | None = None  # None: not fixed-shape
    out: tuple[ValType, ...] = ()
    mem: MemAccess | None = None
    traps: bool = False
    delta: int = 0


def _fixed(name, imm, ins, out, mem=None, traps=False) -> OpInfo:
    outs = () if out is None else (out,)
    return OpInfo(name, imm, ins, outs, mem, traps, len(outs) - len(ins))


def _num(name, ins, out, traps=False) -> OpInfo:
    return _fixed(name, "none", ins, out, traps=traps)


def _load(name, vt, size, signed=False) -> OpInfo:
    access = MemAccess(vt, size, signed, False, size.bit_length() - 1)
    return _fixed(name, "mem", (I32,), vt, access, traps=True)


def _store(name, vt, size) -> OpInfo:
    access = MemAccess(vt, size, False, True, size.bit_length() - 1)
    return _fixed(name, "mem", (I32, vt), None, access, traps=True)


OP_TABLE: dict[int, OpInfo] = {
    UNREACHABLE: OpInfo("unreachable", "none", traps=True),
    NOP: OpInfo("nop", "none"),
    BLOCK: OpInfo("block", "block"),
    LOOP: OpInfo("loop", "block"),
    IF: OpInfo("if", "block", delta=-1),
    ELSE: OpInfo("else", "none"),
    END: OpInfo("end", "none"),
    BR: OpInfo("br", "label"),
    BR_IF: OpInfo("br_if", "label", delta=-1),
    BR_TABLE: OpInfo("br_table", "br_table", delta=-1),
    RETURN: OpInfo("return", "none"),
    CALL: OpInfo("call", "func", traps=True, delta=1),
    CALL_INDIRECT: OpInfo("call_indirect", "call_ind", traps=True, delta=1),
    DROP: OpInfo("drop", "none", delta=-1),
    SELECT: OpInfo("select", "none", delta=-2),
    LOCAL_GET: OpInfo("local.get", "local", delta=1),
    LOCAL_SET: OpInfo("local.set", "local", delta=-1),
    LOCAL_TEE: OpInfo("local.tee", "local"),
    GLOBAL_GET: OpInfo("global.get", "global", delta=1),
    GLOBAL_SET: OpInfo("global.set", "global", delta=-1),
    I32_LOAD: _load("i32.load", I32, 4),
    I64_LOAD: _load("i64.load", I64, 8),
    F32_LOAD: _load("f32.load", F32, 4),
    F64_LOAD: _load("f64.load", F64, 8),
    I32_LOAD8_S: _load("i32.load8_s", I32, 1, signed=True),
    I32_LOAD8_U: _load("i32.load8_u", I32, 1),
    I32_LOAD16_S: _load("i32.load16_s", I32, 2, signed=True),
    I32_LOAD16_U: _load("i32.load16_u", I32, 2),
    I64_LOAD8_S: _load("i64.load8_s", I64, 1, signed=True),
    I64_LOAD8_U: _load("i64.load8_u", I64, 1),
    I64_LOAD16_S: _load("i64.load16_s", I64, 2, signed=True),
    I64_LOAD16_U: _load("i64.load16_u", I64, 2),
    I64_LOAD32_S: _load("i64.load32_s", I64, 4, signed=True),
    I64_LOAD32_U: _load("i64.load32_u", I64, 4),
    I32_STORE: _store("i32.store", I32, 4),
    I64_STORE: _store("i64.store", I64, 8),
    F32_STORE: _store("f32.store", F32, 4),
    F64_STORE: _store("f64.store", F64, 8),
    I32_STORE8: _store("i32.store8", I32, 1),
    I32_STORE16: _store("i32.store16", I32, 2),
    I64_STORE8: _store("i64.store8", I64, 1),
    I64_STORE16: _store("i64.store16", I64, 2),
    I64_STORE32: _store("i64.store32", I64, 4),
    MEMORY_SIZE: _fixed("memory.size", "mem_misc", (), I32),
    MEMORY_GROW: _fixed("memory.grow", "mem_misc", (I32,), I32),
    I32_CONST: _fixed("i32.const", "i32", (), I32),
    I64_CONST: _fixed("i64.const", "i64", (), I64),
    F32_CONST: _fixed("f32.const", "f32", (), F32),
    F64_CONST: _fixed("f64.const", "f64", (), F64),
    I32_EQZ: _num("i32.eqz", (I32,), I32),
    I32_EQ: _num("i32.eq", (I32, I32), I32),
    I32_NE: _num("i32.ne", (I32, I32), I32),
    I32_LT_S: _num("i32.lt_s", (I32, I32), I32),
    I32_LT_U: _num("i32.lt_u", (I32, I32), I32),
    I32_GT_S: _num("i32.gt_s", (I32, I32), I32),
    I32_GT_U: _num("i32.gt_u", (I32, I32), I32),
    I32_LE_S: _num("i32.le_s", (I32, I32), I32),
    I32_LE_U: _num("i32.le_u", (I32, I32), I32),
    I32_GE_S: _num("i32.ge_s", (I32, I32), I32),
    I32_GE_U: _num("i32.ge_u", (I32, I32), I32),
    I64_EQZ: _num("i64.eqz", (I64,), I32),
    I64_EQ: _num("i64.eq", (I64, I64), I32),
    I64_NE: _num("i64.ne", (I64, I64), I32),
    I64_LT_S: _num("i64.lt_s", (I64, I64), I32),
    I64_LT_U: _num("i64.lt_u", (I64, I64), I32),
    I64_GT_S: _num("i64.gt_s", (I64, I64), I32),
    I64_GT_U: _num("i64.gt_u", (I64, I64), I32),
    I64_LE_S: _num("i64.le_s", (I64, I64), I32),
    I64_LE_U: _num("i64.le_u", (I64, I64), I32),
    I64_GE_S: _num("i64.ge_s", (I64, I64), I32),
    I64_GE_U: _num("i64.ge_u", (I64, I64), I32),
    F32_EQ: _num("f32.eq", (F32, F32), I32),
    F32_NE: _num("f32.ne", (F32, F32), I32),
    F32_LT: _num("f32.lt", (F32, F32), I32),
    F32_GT: _num("f32.gt", (F32, F32), I32),
    F32_LE: _num("f32.le", (F32, F32), I32),
    F32_GE: _num("f32.ge", (F32, F32), I32),
    F64_EQ: _num("f64.eq", (F64, F64), I32),
    F64_NE: _num("f64.ne", (F64, F64), I32),
    F64_LT: _num("f64.lt", (F64, F64), I32),
    F64_GT: _num("f64.gt", (F64, F64), I32),
    F64_LE: _num("f64.le", (F64, F64), I32),
    F64_GE: _num("f64.ge", (F64, F64), I32),
    I32_CLZ: _num("i32.clz", (I32,), I32),
    I32_CTZ: _num("i32.ctz", (I32,), I32),
    I32_POPCNT: _num("i32.popcnt", (I32,), I32),
    I32_ADD: _num("i32.add", (I32, I32), I32),
    I32_SUB: _num("i32.sub", (I32, I32), I32),
    I32_MUL: _num("i32.mul", (I32, I32), I32),
    I32_DIV_S: _num("i32.div_s", (I32, I32), I32, traps=True),
    I32_DIV_U: _num("i32.div_u", (I32, I32), I32, traps=True),
    I32_REM_S: _num("i32.rem_s", (I32, I32), I32, traps=True),
    I32_REM_U: _num("i32.rem_u", (I32, I32), I32, traps=True),
    I32_AND: _num("i32.and", (I32, I32), I32),
    I32_OR: _num("i32.or", (I32, I32), I32),
    I32_XOR: _num("i32.xor", (I32, I32), I32),
    I32_SHL: _num("i32.shl", (I32, I32), I32),
    I32_SHR_S: _num("i32.shr_s", (I32, I32), I32),
    I32_SHR_U: _num("i32.shr_u", (I32, I32), I32),
    I32_ROTL: _num("i32.rotl", (I32, I32), I32),
    I32_ROTR: _num("i32.rotr", (I32, I32), I32),
    I64_CLZ: _num("i64.clz", (I64,), I64),
    I64_CTZ: _num("i64.ctz", (I64,), I64),
    I64_POPCNT: _num("i64.popcnt", (I64,), I64),
    I64_ADD: _num("i64.add", (I64, I64), I64),
    I64_SUB: _num("i64.sub", (I64, I64), I64),
    I64_MUL: _num("i64.mul", (I64, I64), I64),
    I64_DIV_S: _num("i64.div_s", (I64, I64), I64, traps=True),
    I64_DIV_U: _num("i64.div_u", (I64, I64), I64, traps=True),
    I64_REM_S: _num("i64.rem_s", (I64, I64), I64, traps=True),
    I64_REM_U: _num("i64.rem_u", (I64, I64), I64, traps=True),
    I64_AND: _num("i64.and", (I64, I64), I64),
    I64_OR: _num("i64.or", (I64, I64), I64),
    I64_XOR: _num("i64.xor", (I64, I64), I64),
    I64_SHL: _num("i64.shl", (I64, I64), I64),
    I64_SHR_S: _num("i64.shr_s", (I64, I64), I64),
    I64_SHR_U: _num("i64.shr_u", (I64, I64), I64),
    I64_ROTL: _num("i64.rotl", (I64, I64), I64),
    I64_ROTR: _num("i64.rotr", (I64, I64), I64),
    F32_ABS: _num("f32.abs", (F32,), F32),
    F32_NEG: _num("f32.neg", (F32,), F32),
    F32_CEIL: _num("f32.ceil", (F32,), F32),
    F32_FLOOR: _num("f32.floor", (F32,), F32),
    F32_TRUNC: _num("f32.trunc", (F32,), F32),
    F32_NEAREST: _num("f32.nearest", (F32,), F32),
    F32_SQRT: _num("f32.sqrt", (F32,), F32),
    F32_ADD: _num("f32.add", (F32, F32), F32),
    F32_SUB: _num("f32.sub", (F32, F32), F32),
    F32_MUL: _num("f32.mul", (F32, F32), F32),
    F32_DIV: _num("f32.div", (F32, F32), F32),
    F32_MIN: _num("f32.min", (F32, F32), F32),
    F32_MAX: _num("f32.max", (F32, F32), F32),
    F32_COPYSIGN: _num("f32.copysign", (F32, F32), F32),
    F64_ABS: _num("f64.abs", (F64,), F64),
    F64_NEG: _num("f64.neg", (F64,), F64),
    F64_CEIL: _num("f64.ceil", (F64,), F64),
    F64_FLOOR: _num("f64.floor", (F64,), F64),
    F64_TRUNC: _num("f64.trunc", (F64,), F64),
    F64_NEAREST: _num("f64.nearest", (F64,), F64),
    F64_SQRT: _num("f64.sqrt", (F64,), F64),
    F64_ADD: _num("f64.add", (F64, F64), F64),
    F64_SUB: _num("f64.sub", (F64, F64), F64),
    F64_MUL: _num("f64.mul", (F64, F64), F64),
    F64_DIV: _num("f64.div", (F64, F64), F64),
    F64_MIN: _num("f64.min", (F64, F64), F64),
    F64_MAX: _num("f64.max", (F64, F64), F64),
    F64_COPYSIGN: _num("f64.copysign", (F64, F64), F64),
    I32_WRAP_I64: _num("i32.wrap_i64", (I64,), I32),
    I32_TRUNC_F32_S: _num("i32.trunc_f32_s", (F32,), I32, traps=True),
    I32_TRUNC_F32_U: _num("i32.trunc_f32_u", (F32,), I32, traps=True),
    I32_TRUNC_F64_S: _num("i32.trunc_f64_s", (F64,), I32, traps=True),
    I32_TRUNC_F64_U: _num("i32.trunc_f64_u", (F64,), I32, traps=True),
    I64_EXTEND_I32_S: _num("i64.extend_i32_s", (I32,), I64),
    I64_EXTEND_I32_U: _num("i64.extend_i32_u", (I32,), I64),
    I64_TRUNC_F32_S: _num("i64.trunc_f32_s", (F32,), I64, traps=True),
    I64_TRUNC_F32_U: _num("i64.trunc_f32_u", (F32,), I64, traps=True),
    I64_TRUNC_F64_S: _num("i64.trunc_f64_s", (F64,), I64, traps=True),
    I64_TRUNC_F64_U: _num("i64.trunc_f64_u", (F64,), I64, traps=True),
    F32_CONVERT_I32_S: _num("f32.convert_i32_s", (I32,), F32),
    F32_CONVERT_I32_U: _num("f32.convert_i32_u", (I32,), F32),
    F32_CONVERT_I64_S: _num("f32.convert_i64_s", (I64,), F32),
    F32_CONVERT_I64_U: _num("f32.convert_i64_u", (I64,), F32),
    F32_DEMOTE_F64: _num("f32.demote_f64", (F64,), F32),
    F64_CONVERT_I32_S: _num("f64.convert_i32_s", (I32,), F64),
    F64_CONVERT_I32_U: _num("f64.convert_i32_u", (I32,), F64),
    F64_CONVERT_I64_S: _num("f64.convert_i64_s", (I64,), F64),
    F64_CONVERT_I64_U: _num("f64.convert_i64_u", (I64,), F64),
    F64_PROMOTE_F32: _num("f64.promote_f32", (F32,), F64),
    I32_REINTERPRET_F32: _num("i32.reinterpret_f32", (F32,), I32),
    I64_REINTERPRET_F64: _num("i64.reinterpret_f64", (F64,), I64),
    F32_REINTERPRET_I32: _num("f32.reinterpret_i32", (I32,), F32),
    F64_REINTERPRET_I64: _num("f64.reinterpret_i64", (I64,), F64),
    I32_EXTEND8_S: _num("i32.extend8_s", (I32,), I32),
    I32_EXTEND16_S: _num("i32.extend16_s", (I32,), I32),
    I64_EXTEND8_S: _num("i64.extend8_s", (I64,), I64),
    I64_EXTEND16_S: _num("i64.extend16_s", (I64,), I64),
    I64_EXTEND32_S: _num("i64.extend32_s", (I64,), I64),
}

#: views of :data:`OP_TABLE` the engines dispatch on
LOADS: dict[int, MemAccess] = {
    opcode: info.mem for opcode, info in OP_TABLE.items()
    if info.mem is not None and not info.mem.store
}
STORES: dict[int, MemAccess] = {
    opcode: info.mem for opcode, info in OP_TABLE.items()
    if info.mem is not None and info.mem.store
}
TRAPPING_OPS = frozenset(opcode for opcode, info in OP_TABLE.items() if info.traps)
CONST_OPS = frozenset((I32_CONST, I64_CONST, F32_CONST, F64_CONST))

#: mnemonic -> opcode, for the assembler.
NAME_TO_OP: dict[str, int] = {info.name: op for op, info in OP_TABLE.items()}


def mnemonic(instr) -> str:
    """Spec mnemonic (+ immediate) of one decoded instruction, as the
    lowering dumps (``repro disasm --threaded`` / ``--aot``) print it."""
    opcode, imm = instr
    info = OP_TABLE[opcode]
    if info.imm == "none" or imm is None:
        return info.name
    if info.imm == "mem":
        _align, offset = imm
        return f"{info.name} offset={offset}" if offset else info.name
    if info.imm == "br_table":
        targets, default = imm
        return info.name + " " + " ".join(str(t) for t in (*targets, default))
    if info.imm == "block":
        return f"{info.name} (result {imm.short})"
    return f"{info.name} {imm}"
