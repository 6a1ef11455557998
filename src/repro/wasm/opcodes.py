"""WebAssembly MVP opcode table.

Each opcode is listed with its canonical spec mnemonic and the kind of
immediate operands it carries in the binary format.  The decoder,
validator, interpreter and assembler all key off this single table so the
instruction set cannot drift between components.

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
class OpInfo:
    """Static metadata about one opcode."""

    name: str
    imm: str  # immediate kind, see module docstring


OP_TABLE: dict[int, OpInfo] = {
    UNREACHABLE: OpInfo("unreachable", "none"),
    NOP: OpInfo("nop", "none"),
    BLOCK: OpInfo("block", "block"),
    LOOP: OpInfo("loop", "block"),
    IF: OpInfo("if", "block"),
    ELSE: OpInfo("else", "none"),
    END: OpInfo("end", "none"),
    BR: OpInfo("br", "label"),
    BR_IF: OpInfo("br_if", "label"),
    BR_TABLE: OpInfo("br_table", "br_table"),
    RETURN: OpInfo("return", "none"),
    CALL: OpInfo("call", "func"),
    CALL_INDIRECT: OpInfo("call_indirect", "call_ind"),
    DROP: OpInfo("drop", "none"),
    SELECT: OpInfo("select", "none"),
    LOCAL_GET: OpInfo("local.get", "local"),
    LOCAL_SET: OpInfo("local.set", "local"),
    LOCAL_TEE: OpInfo("local.tee", "local"),
    GLOBAL_GET: OpInfo("global.get", "global"),
    GLOBAL_SET: OpInfo("global.set", "global"),
    I32_LOAD: OpInfo("i32.load", "mem"),
    I64_LOAD: OpInfo("i64.load", "mem"),
    F32_LOAD: OpInfo("f32.load", "mem"),
    F64_LOAD: OpInfo("f64.load", "mem"),
    I32_LOAD8_S: OpInfo("i32.load8_s", "mem"),
    I32_LOAD8_U: OpInfo("i32.load8_u", "mem"),
    I32_LOAD16_S: OpInfo("i32.load16_s", "mem"),
    I32_LOAD16_U: OpInfo("i32.load16_u", "mem"),
    I64_LOAD8_S: OpInfo("i64.load8_s", "mem"),
    I64_LOAD8_U: OpInfo("i64.load8_u", "mem"),
    I64_LOAD16_S: OpInfo("i64.load16_s", "mem"),
    I64_LOAD16_U: OpInfo("i64.load16_u", "mem"),
    I64_LOAD32_S: OpInfo("i64.load32_s", "mem"),
    I64_LOAD32_U: OpInfo("i64.load32_u", "mem"),
    I32_STORE: OpInfo("i32.store", "mem"),
    I64_STORE: OpInfo("i64.store", "mem"),
    F32_STORE: OpInfo("f32.store", "mem"),
    F64_STORE: OpInfo("f64.store", "mem"),
    I32_STORE8: OpInfo("i32.store8", "mem"),
    I32_STORE16: OpInfo("i32.store16", "mem"),
    I64_STORE8: OpInfo("i64.store8", "mem"),
    I64_STORE16: OpInfo("i64.store16", "mem"),
    I64_STORE32: OpInfo("i64.store32", "mem"),
    MEMORY_SIZE: OpInfo("memory.size", "mem_misc"),
    MEMORY_GROW: OpInfo("memory.grow", "mem_misc"),
    I32_CONST: OpInfo("i32.const", "i32"),
    I64_CONST: OpInfo("i64.const", "i64"),
    F32_CONST: OpInfo("f32.const", "f32"),
    F64_CONST: OpInfo("f64.const", "f64"),
    I32_EQZ: OpInfo("i32.eqz", "none"),
    I32_EQ: OpInfo("i32.eq", "none"),
    I32_NE: OpInfo("i32.ne", "none"),
    I32_LT_S: OpInfo("i32.lt_s", "none"),
    I32_LT_U: OpInfo("i32.lt_u", "none"),
    I32_GT_S: OpInfo("i32.gt_s", "none"),
    I32_GT_U: OpInfo("i32.gt_u", "none"),
    I32_LE_S: OpInfo("i32.le_s", "none"),
    I32_LE_U: OpInfo("i32.le_u", "none"),
    I32_GE_S: OpInfo("i32.ge_s", "none"),
    I32_GE_U: OpInfo("i32.ge_u", "none"),
    I64_EQZ: OpInfo("i64.eqz", "none"),
    I64_EQ: OpInfo("i64.eq", "none"),
    I64_NE: OpInfo("i64.ne", "none"),
    I64_LT_S: OpInfo("i64.lt_s", "none"),
    I64_LT_U: OpInfo("i64.lt_u", "none"),
    I64_GT_S: OpInfo("i64.gt_s", "none"),
    I64_GT_U: OpInfo("i64.gt_u", "none"),
    I64_LE_S: OpInfo("i64.le_s", "none"),
    I64_LE_U: OpInfo("i64.le_u", "none"),
    I64_GE_S: OpInfo("i64.ge_s", "none"),
    I64_GE_U: OpInfo("i64.ge_u", "none"),
    F32_EQ: OpInfo("f32.eq", "none"),
    F32_NE: OpInfo("f32.ne", "none"),
    F32_LT: OpInfo("f32.lt", "none"),
    F32_GT: OpInfo("f32.gt", "none"),
    F32_LE: OpInfo("f32.le", "none"),
    F32_GE: OpInfo("f32.ge", "none"),
    F64_EQ: OpInfo("f64.eq", "none"),
    F64_NE: OpInfo("f64.ne", "none"),
    F64_LT: OpInfo("f64.lt", "none"),
    F64_GT: OpInfo("f64.gt", "none"),
    F64_LE: OpInfo("f64.le", "none"),
    F64_GE: OpInfo("f64.ge", "none"),
    I32_CLZ: OpInfo("i32.clz", "none"),
    I32_CTZ: OpInfo("i32.ctz", "none"),
    I32_POPCNT: OpInfo("i32.popcnt", "none"),
    I32_ADD: OpInfo("i32.add", "none"),
    I32_SUB: OpInfo("i32.sub", "none"),
    I32_MUL: OpInfo("i32.mul", "none"),
    I32_DIV_S: OpInfo("i32.div_s", "none"),
    I32_DIV_U: OpInfo("i32.div_u", "none"),
    I32_REM_S: OpInfo("i32.rem_s", "none"),
    I32_REM_U: OpInfo("i32.rem_u", "none"),
    I32_AND: OpInfo("i32.and", "none"),
    I32_OR: OpInfo("i32.or", "none"),
    I32_XOR: OpInfo("i32.xor", "none"),
    I32_SHL: OpInfo("i32.shl", "none"),
    I32_SHR_S: OpInfo("i32.shr_s", "none"),
    I32_SHR_U: OpInfo("i32.shr_u", "none"),
    I32_ROTL: OpInfo("i32.rotl", "none"),
    I32_ROTR: OpInfo("i32.rotr", "none"),
    I64_CLZ: OpInfo("i64.clz", "none"),
    I64_CTZ: OpInfo("i64.ctz", "none"),
    I64_POPCNT: OpInfo("i64.popcnt", "none"),
    I64_ADD: OpInfo("i64.add", "none"),
    I64_SUB: OpInfo("i64.sub", "none"),
    I64_MUL: OpInfo("i64.mul", "none"),
    I64_DIV_S: OpInfo("i64.div_s", "none"),
    I64_DIV_U: OpInfo("i64.div_u", "none"),
    I64_REM_S: OpInfo("i64.rem_s", "none"),
    I64_REM_U: OpInfo("i64.rem_u", "none"),
    I64_AND: OpInfo("i64.and", "none"),
    I64_OR: OpInfo("i64.or", "none"),
    I64_XOR: OpInfo("i64.xor", "none"),
    I64_SHL: OpInfo("i64.shl", "none"),
    I64_SHR_S: OpInfo("i64.shr_s", "none"),
    I64_SHR_U: OpInfo("i64.shr_u", "none"),
    I64_ROTL: OpInfo("i64.rotl", "none"),
    I64_ROTR: OpInfo("i64.rotr", "none"),
    F32_ABS: OpInfo("f32.abs", "none"),
    F32_NEG: OpInfo("f32.neg", "none"),
    F32_CEIL: OpInfo("f32.ceil", "none"),
    F32_FLOOR: OpInfo("f32.floor", "none"),
    F32_TRUNC: OpInfo("f32.trunc", "none"),
    F32_NEAREST: OpInfo("f32.nearest", "none"),
    F32_SQRT: OpInfo("f32.sqrt", "none"),
    F32_ADD: OpInfo("f32.add", "none"),
    F32_SUB: OpInfo("f32.sub", "none"),
    F32_MUL: OpInfo("f32.mul", "none"),
    F32_DIV: OpInfo("f32.div", "none"),
    F32_MIN: OpInfo("f32.min", "none"),
    F32_MAX: OpInfo("f32.max", "none"),
    F32_COPYSIGN: OpInfo("f32.copysign", "none"),
    F64_ABS: OpInfo("f64.abs", "none"),
    F64_NEG: OpInfo("f64.neg", "none"),
    F64_CEIL: OpInfo("f64.ceil", "none"),
    F64_FLOOR: OpInfo("f64.floor", "none"),
    F64_TRUNC: OpInfo("f64.trunc", "none"),
    F64_NEAREST: OpInfo("f64.nearest", "none"),
    F64_SQRT: OpInfo("f64.sqrt", "none"),
    F64_ADD: OpInfo("f64.add", "none"),
    F64_SUB: OpInfo("f64.sub", "none"),
    F64_MUL: OpInfo("f64.mul", "none"),
    F64_DIV: OpInfo("f64.div", "none"),
    F64_MIN: OpInfo("f64.min", "none"),
    F64_MAX: OpInfo("f64.max", "none"),
    F64_COPYSIGN: OpInfo("f64.copysign", "none"),
    I32_WRAP_I64: OpInfo("i32.wrap_i64", "none"),
    I32_TRUNC_F32_S: OpInfo("i32.trunc_f32_s", "none"),
    I32_TRUNC_F32_U: OpInfo("i32.trunc_f32_u", "none"),
    I32_TRUNC_F64_S: OpInfo("i32.trunc_f64_s", "none"),
    I32_TRUNC_F64_U: OpInfo("i32.trunc_f64_u", "none"),
    I64_EXTEND_I32_S: OpInfo("i64.extend_i32_s", "none"),
    I64_EXTEND_I32_U: OpInfo("i64.extend_i32_u", "none"),
    I64_TRUNC_F32_S: OpInfo("i64.trunc_f32_s", "none"),
    I64_TRUNC_F32_U: OpInfo("i64.trunc_f32_u", "none"),
    I64_TRUNC_F64_S: OpInfo("i64.trunc_f64_s", "none"),
    I64_TRUNC_F64_U: OpInfo("i64.trunc_f64_u", "none"),
    F32_CONVERT_I32_S: OpInfo("f32.convert_i32_s", "none"),
    F32_CONVERT_I32_U: OpInfo("f32.convert_i32_u", "none"),
    F32_CONVERT_I64_S: OpInfo("f32.convert_i64_s", "none"),
    F32_CONVERT_I64_U: OpInfo("f32.convert_i64_u", "none"),
    F32_DEMOTE_F64: OpInfo("f32.demote_f64", "none"),
    F64_CONVERT_I32_S: OpInfo("f64.convert_i32_s", "none"),
    F64_CONVERT_I32_U: OpInfo("f64.convert_i32_u", "none"),
    F64_CONVERT_I64_S: OpInfo("f64.convert_i64_s", "none"),
    F64_CONVERT_I64_U: OpInfo("f64.convert_i64_u", "none"),
    F64_PROMOTE_F32: OpInfo("f64.promote_f32", "none"),
    I32_REINTERPRET_F32: OpInfo("i32.reinterpret_f32", "none"),
    I64_REINTERPRET_F64: OpInfo("i64.reinterpret_f64", "none"),
    F32_REINTERPRET_I32: OpInfo("f32.reinterpret_i32", "none"),
    F64_REINTERPRET_I64: OpInfo("f64.reinterpret_i64", "none"),
    I32_EXTEND8_S: OpInfo("i32.extend8_s", "none"),
    I32_EXTEND16_S: OpInfo("i32.extend16_s", "none"),
    I64_EXTEND8_S: OpInfo("i64.extend8_s", "none"),
    I64_EXTEND16_S: OpInfo("i64.extend16_s", "none"),
    I64_EXTEND32_S: OpInfo("i64.extend32_s", "none"),
}

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
