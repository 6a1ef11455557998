"""The instruction table (``opcodes.OP_TABLE``) is the one statement of
what each opcode carries, consumes, produces and touches.  These tests
pin it against the statements made independently of it: the binary
format round trip, the validator's verdict on modules built from a row,
and the fuzz generator's own signature tables."""

import tracemalloc

import pytest

from repro.fuzz import gen
from repro.wasm import decode_module, validate_module
from repro.wasm import opcodes as op
from repro.wasm.disasm import disassemble
from repro.wasm.encoder import encode_module
from repro.wasm.module import Code, Module
from repro.wasm.traps import ValidationError
from repro.wasm.wtypes import FuncType, Limits, ValType

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64

#: a representative immediate per immediate kind
IMMEDIATES = {
    "none": None,
    "block": I64,
    "label": 3,
    "br_table": ((0, 1, 2), 3),
    "func": 5,
    "call_ind": 2,
    "local": 4,
    "global": 1,
    "mem_misc": None,
    "i32": -7,
    "i64": -(1 << 40),
    "f32": 1.5,
    "f64": -2.25,
}

FIXED = sorted(code for code, info in op.OP_TABLE.items() if info.ins is not None)


def _immediate(info: op.OpInfo):
    if info.imm == "mem":
        return (info.mem.align, 16)
    return IMMEDIATES[info.imm]


def _module(params, results, body) -> Module:
    return Module(
        types=[FuncType(tuple(params), tuple(results))],
        funcs=[0],
        mems=[Limits(1)],
        codes=[Code((), tuple(body) + ((op.END, None),))],
    )


def _row_module(opcode: int, params) -> Module:
    """One function taking ``params``, pushing them and running ``opcode``
    once, returning what the row says it pushes."""
    info = op.OP_TABLE[opcode]
    body = [(op.LOCAL_GET, i) for i in range(len(params))]
    body.append((opcode, _immediate(info)))
    return _module(params, info.out, body)


@pytest.mark.parametrize(
    "opcode", sorted(op.OP_TABLE), ids=lambda c: op.OP_TABLE[c].name
)
def test_every_opcode_round_trips_the_binary_format(opcode):
    instr = (opcode, _immediate(op.OP_TABLE[opcode]))
    if opcode == op.END:
        body = ()
    elif opcode in (op.BLOCK, op.LOOP, op.IF):
        body = (instr, (op.END, None))
    else:
        body = (instr,)
    decoded = decode_module(encode_module(_module((), (), body)))
    assert decoded.codes[0].body[0] == instr


@pytest.mark.parametrize("opcode", FIXED, ids=lambda c: op.OP_TABLE[c].name)
def test_every_fixed_shape_row_validates(opcode):
    validate_module(_row_module(opcode, op.OP_TABLE[opcode].ins))


@pytest.mark.parametrize(
    "opcode",
    [code for code in FIXED if op.OP_TABLE[code].ins],
    ids=lambda c: op.OP_TABLE[c].name,
)
def test_a_wrong_first_operand_is_a_type_mismatch(opcode):
    first, *rest = op.OP_TABLE[opcode].ins
    wrong = I64 if first == I32 else I32
    with pytest.raises(ValidationError, match="type mismatch"):
        validate_module(_row_module(opcode, (wrong, *rest)))


def test_the_fuzz_generator_tables_agree_with_the_rows():
    disagree = []

    def check(opcode, ins, out, store=None):
        info = op.OP_TABLE[opcode]
        if info.ins != ins or info.out != out:
            disagree.append(info.name)
        if store is not None and (info.mem is None or info.mem.store != store):
            disagree.append(info.name)

    covered = set()
    for t, codes in gen.BIN_ARITH.items():
        for opcode in codes:
            check(opcode, (t, t), (t,))
        covered.update(codes)
    for t, codes in gen.CMP_OPS.items():
        for opcode in codes:
            check(opcode, (t, t), (I32,))
        covered.update(codes)
    for t, pairs in gen.UNARY.items():
        for src, opcode in pairs:
            check(opcode, (src,), (t,))
            covered.add(opcode)
    for t, codes in gen.LOAD_OPS.items():
        for opcode in codes:
            check(opcode, (I32,), (t,), store=False)
        covered.update(codes)
    for t, codes in gen.STORE_OPS.items():
        for opcode in codes:
            check(opcode, (I32, t), (), store=True)
        covered.update(codes)

    assert disagree == []
    numeric_and_memory = {
        code for code in FIXED if op.OP_TABLE[code].imm in ("none", "mem")
    }
    uncovered = sorted(op.OP_TABLE[c].name for c in numeric_and_memory - covered)
    assert uncovered == []
    assert covered <= numeric_and_memory


def test_memory_rows_state_their_natural_alignment():
    for opcode in (*op.LOADS, *op.STORES):
        access = op.OP_TABLE[opcode].mem
        assert 1 << access.align == access.size
        assert op.OP_TABLE[opcode].traps


class TestUntrustedAlignment:
    """An alignment immediate is an untrusted u32: checking or printing it
    must not build the integer ``2**align``."""

    WILD = 0xFFFFFFFF

    def _binary(self) -> bytes:
        body = [(op.I32_CONST, 0), (op.I32_LOAD, (self.WILD, 0)), (op.DROP, None)]
        return encode_module(_module((), (), body * 64))

    def test_validation_refuses_it_cheaply(self):
        module = decode_module(self._binary())
        tracemalloc.start()
        try:
            with pytest.raises(
                ValidationError,
                match=rf"alignment 2\*\*{self.WILD} larger than access size 4",
            ):
                validate_module(module)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_disassembly_prints_it(self):
        text = disassemble(self._binary())
        assert f"i32.load align=2**{self.WILD}" in text
