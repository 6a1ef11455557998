"""Seeded typed generator of arbitrary-but-valid Wasm MVP modules.

The generator is a recursive-descent expression/statement builder over the
module's own typing rules: every produced module passes
:func:`repro.wasm.validator.validate_module` by construction (and the
generator asserts it, so a validation failure here is itself a finding).

Determinism: all choices come from a caller-supplied ``random.Random``;
the same seed always yields the same module bytes and call plan.

Termination: direct calls only target strictly lower-indexed functions
(the call graph is a DAG) and generated loops count down a reserved local,
so bodies terminate without fuel — except the deliberate trap/recursion
paths (masked ``call_indirect`` selectors, unmasked memory addresses),
which the oracle bounds with fuel and the call-depth limit.  Those paths
are the point: traps must be identical across engines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.wasm import opcodes as op
from repro.wasm.encoder import encode_module
from repro.wasm.module import (
    Code,
    DataSegment,
    ElemSegment,
    Export,
    Global,
    Instr,
    Module,
)
from repro.wasm.validator import validate_module
from repro.wasm.wtypes import FuncType, GlobalType, Limits, ValType

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64
ALL_TYPES = (I32, I64, F32, F64)

# ---------------------------------------------------------------------------
# opcode signature tables (result-type keyed)
# ---------------------------------------------------------------------------

#: (t, t) -> t arithmetic/bitwise binops
BIN_ARITH: dict[ValType, tuple[int, ...]] = {
    I32: (
        op.I32_ADD, op.I32_SUB, op.I32_MUL, op.I32_DIV_S, op.I32_DIV_U,
        op.I32_REM_S, op.I32_REM_U, op.I32_AND, op.I32_OR, op.I32_XOR,
        op.I32_SHL, op.I32_SHR_S, op.I32_SHR_U, op.I32_ROTL, op.I32_ROTR,
    ),
    I64: (
        op.I64_ADD, op.I64_SUB, op.I64_MUL, op.I64_DIV_S, op.I64_DIV_U,
        op.I64_REM_S, op.I64_REM_U, op.I64_AND, op.I64_OR, op.I64_XOR,
        op.I64_SHL, op.I64_SHR_S, op.I64_SHR_U, op.I64_ROTL, op.I64_ROTR,
    ),
    F32: (
        op.F32_ADD, op.F32_SUB, op.F32_MUL, op.F32_DIV, op.F32_MIN,
        op.F32_MAX, op.F32_COPYSIGN,
    ),
    F64: (
        op.F64_ADD, op.F64_SUB, op.F64_MUL, op.F64_DIV, op.F64_MIN,
        op.F64_MAX, op.F64_COPYSIGN,
    ),
}

#: (u, u) -> i32 comparisons, keyed by operand type
CMP_OPS: dict[ValType, tuple[int, ...]] = {
    I32: (
        op.I32_EQ, op.I32_NE, op.I32_LT_S, op.I32_LT_U, op.I32_GT_S,
        op.I32_GT_U, op.I32_LE_S, op.I32_LE_U, op.I32_GE_S, op.I32_GE_U,
    ),
    I64: (
        op.I64_EQ, op.I64_NE, op.I64_LT_S, op.I64_LT_U, op.I64_GT_S,
        op.I64_GT_U, op.I64_LE_S, op.I64_LE_U, op.I64_GE_S, op.I64_GE_U,
    ),
    F32: (op.F32_EQ, op.F32_NE, op.F32_LT, op.F32_GT, op.F32_LE, op.F32_GE),
    F64: (op.F64_EQ, op.F64_NE, op.F64_LT, op.F64_GT, op.F64_LE, op.F64_GE),
}

#: result type -> [(source type, opcode)] unary/conversion producers
UNARY: dict[ValType, tuple[tuple[ValType, int], ...]] = {
    I32: (
        (I32, op.I32_CLZ), (I32, op.I32_CTZ), (I32, op.I32_POPCNT),
        (I32, op.I32_EQZ), (I64, op.I64_EQZ), (I64, op.I32_WRAP_I64),
        (F32, op.I32_TRUNC_F32_S), (F32, op.I32_TRUNC_F32_U),
        (F64, op.I32_TRUNC_F64_S), (F64, op.I32_TRUNC_F64_U),
        (F32, op.I32_REINTERPRET_F32),
        (I32, op.I32_EXTEND8_S), (I32, op.I32_EXTEND16_S),
    ),
    I64: (
        (I64, op.I64_CLZ), (I64, op.I64_CTZ), (I64, op.I64_POPCNT),
        (I32, op.I64_EXTEND_I32_S), (I32, op.I64_EXTEND_I32_U),
        (F32, op.I64_TRUNC_F32_S), (F32, op.I64_TRUNC_F32_U),
        (F64, op.I64_TRUNC_F64_S), (F64, op.I64_TRUNC_F64_U),
        (F64, op.I64_REINTERPRET_F64),
        (I64, op.I64_EXTEND8_S), (I64, op.I64_EXTEND16_S),
        (I64, op.I64_EXTEND32_S),
    ),
    F32: (
        (F32, op.F32_ABS), (F32, op.F32_NEG), (F32, op.F32_CEIL),
        (F32, op.F32_FLOOR), (F32, op.F32_TRUNC), (F32, op.F32_NEAREST),
        (F32, op.F32_SQRT),
        (I32, op.F32_CONVERT_I32_S), (I32, op.F32_CONVERT_I32_U),
        (I64, op.F32_CONVERT_I64_S), (I64, op.F32_CONVERT_I64_U),
        (F64, op.F32_DEMOTE_F64), (I32, op.F32_REINTERPRET_I32),
    ),
    F64: (
        (F64, op.F64_ABS), (F64, op.F64_NEG), (F64, op.F64_CEIL),
        (F64, op.F64_FLOOR), (F64, op.F64_TRUNC), (F64, op.F64_NEAREST),
        (F64, op.F64_SQRT),
        (I32, op.F64_CONVERT_I32_S), (I32, op.F64_CONVERT_I32_U),
        (I64, op.F64_CONVERT_I64_S), (I64, op.F64_CONVERT_I64_U),
        (F32, op.F64_PROMOTE_F32), (I64, op.F64_REINTERPRET_I64),
    ),
}

LOAD_OPS: dict[ValType, tuple[int, ...]] = {
    I32: (op.I32_LOAD, op.I32_LOAD8_S, op.I32_LOAD8_U, op.I32_LOAD16_S,
          op.I32_LOAD16_U),
    I64: (op.I64_LOAD, op.I64_LOAD8_S, op.I64_LOAD8_U, op.I64_LOAD16_S,
          op.I64_LOAD16_U, op.I64_LOAD32_S, op.I64_LOAD32_U),
    F32: (op.F32_LOAD,),
    F64: (op.F64_LOAD,),
}

STORE_OPS: dict[ValType, tuple[int, ...]] = {
    I32: (op.I32_STORE, op.I32_STORE8, op.I32_STORE16),
    I64: (op.I64_STORE, op.I64_STORE8, op.I64_STORE16, op.I64_STORE32),
    F32: (op.F32_STORE,),
    F64: (op.F64_STORE,),
}

#: safe address mask: page 0 always exists, worst access is mask+offset+8
ADDR_MASK = 0x7FF
MAX_SAFE_OFFSET = 0xFF

_I32_POOL = (0, 1, 2, 3, 7, -1, -2, 0x7FFFFFFF, -0x80000000, 0xFF, 1 << 16)
_I64_POOL = (0, 1, -1, 0x7FFFFFFFFFFFFFFF, -0x8000000000000000,
             0x100000000, -0x80000000)
_F_POOL = (0.0, -0.0, 1.0, -1.5, 2.5, 1e10, -1e-3, math.inf, -math.inf,
           math.nan)


#: shape of every generated module beyond the :class:`GenConfig` knobs
MAX_PARAMS = 3
MAX_LOCALS = 4
MAX_STMTS = 5
MAX_DEPTH = 3
MAX_GLOBALS = 3
MIN_CALLS = 2
#: probability a module has a funcref table / a data segment
TABLE_PROB = 0.5
DATA_PROB = 0.5


class GeneratorError(AssertionError):
    """The generator produced an invalid module — a bug in the fuzzer."""


@dataclass
class GenConfig:
    """Size/shape knobs for one generated module."""

    max_funcs: int = 4
    max_calls: int = 5
    #: probability a memory address expression is left unmasked (may trap)
    p_wild_addr: float = 0.08
    #: probability a call_indirect selector is a masked expression
    p_wild_select: float = 0.3


@dataclass
class GeneratedModule:
    """One fuzz case: the module bytes plus a deterministic call plan."""

    wasm: bytes
    calls: list[tuple[str, tuple]]
    module: Module = field(repr=False, default=None)


class _FuncCtx:
    """Per-function generation state."""

    def __init__(self, params: tuple[ValType, ...], locals_: tuple[ValType, ...]):
        self.types = tuple(params) + tuple(locals_)
        #: label depth of enclosing blocks (for br_if targets)
        self.label_depth = 0
        #: local indices reserved as live loop counters (never overwritten)
        self.reserved: set[int] = set()

    def locals_of(self, t: ValType, writable: bool = False) -> list[int]:
        return [
            i for i, lt in enumerate(self.types)
            if lt == t and not (writable and i in self.reserved)
        ]


class ModuleGen:
    """Generates one valid module (and call plan) per :meth:`generate`."""

    def __init__(self, rng: random.Random, config: GenConfig | None = None):
        self.rng = rng
        self.cfg = config or GenConfig()

    # ----- value helpers ---------------------------------------------------

    def _const(self, t: ValType) -> Instr:
        rng = self.rng
        if t == I32:
            v = rng.choice(_I32_POOL) if rng.random() < 0.6 else rng.randrange(
                -(1 << 31), 1 << 31)
            if v > 0x7FFFFFFF:
                v -= 1 << 32
            return (op.I32_CONST, v)
        if t == I64:
            v = rng.choice(_I64_POOL) if rng.random() < 0.6 else rng.randrange(
                -(1 << 63), 1 << 63)
            return (op.I64_CONST, v)
        v = rng.choice(_F_POOL) if rng.random() < 0.6 else rng.uniform(-1e6, 1e6)
        return (op.F32_CONST if t == F32 else op.F64_CONST, v)

    def arg_for(self, t: ValType):
        """An interesting call argument of type ``t``."""
        return self._const(t)[1]

    # ----- expressions -----------------------------------------------------

    def expr(self, ctx: _FuncCtx, t: ValType, depth: int) -> list[Instr]:
        """Instructions leaving exactly one ``t`` on the stack."""
        rng = self.rng
        if depth <= 0:
            return self._leaf(ctx, t)
        choices = ["leaf", "binop", "unop", "cmp", "load", "select", "if",
                   "block", "binop", "unop"]
        if any(ft.results == (t,) for ft in self._callable):
            choices.append("call")
        if self._table_funcs and any(
            self._funcsigs[i].results == (t,) for i in self._table_funcs
        ):
            choices.append("call_indirect")
        kind = rng.choice(choices)
        if kind == "leaf":
            return self._leaf(ctx, t)
        if kind == "binop":
            a = self.expr(ctx, t, depth - 1)
            b = self.expr(ctx, t, depth - 1)
            return a + b + [(rng.choice(BIN_ARITH[t]), None)]
        if kind == "unop":
            src, opcode = rng.choice(UNARY[t])
            return self.expr(ctx, src, depth - 1) + [(opcode, None)]
        if kind == "cmp":
            if t != I32:
                return self._leaf(ctx, t)
            u = rng.choice(ALL_TYPES)
            a = self.expr(ctx, u, depth - 1)
            b = self.expr(ctx, u, depth - 1)
            return a + b + [(rng.choice(CMP_OPS[u]), None)]
        if kind == "load":
            addr = self._addr(ctx, depth - 1)
            offset = rng.randrange(MAX_SAFE_OFFSET)
            return addr + [(rng.choice(LOAD_OPS[t]), (0, offset))]
        if kind == "select":
            a = self.expr(ctx, t, depth - 1)
            b = self.expr(ctx, t, depth - 1)
            cond = self.expr(ctx, I32, depth - 1)
            return a + b + cond + [(op.SELECT, None)]
        if kind == "if":
            cond = self.expr(ctx, I32, depth - 1)
            ctx.label_depth += 1
            arm_a = self.expr(ctx, t, depth - 1)
            arm_b = self.expr(ctx, t, depth - 1)
            ctx.label_depth -= 1
            return (cond + [(op.IF, t)] + arm_a + [(op.ELSE, None)]
                    + arm_b + [(op.END, None)])
        if kind == "block":
            # block (result t): e1, cond, br_if 0 (carrying e1), else drop+e2
            ctx.label_depth += 1
            e1 = self.expr(ctx, t, depth - 1)
            cond = self.expr(ctx, I32, depth - 1)
            e2 = self.expr(ctx, t, depth - 1)
            ctx.label_depth -= 1
            return ([(op.BLOCK, t)] + e1 + cond + [(op.BR_IF, 0)]
                    + [(op.DROP, None)] + e2 + [(op.END, None)])
        if kind == "call":
            idx, ft = rng.choice(
                [(i, ft) for i, ft in enumerate(self._callable)
                 if ft.results == (t,)]
            )
            out: list[Instr] = []
            for p in ft.params:
                out += self.expr(ctx, p, depth - 1)
            return out + [(op.CALL, idx)]
        # call_indirect
        candidates = [
            i for i in self._table_funcs if self._funcsigs[i].results == (t,)
        ]
        target = rng.choice(candidates)
        ft = self._funcsigs[target]
        out = []
        for p in ft.params:
            out += self.expr(ctx, p, depth - 1)
        if rng.random() < self.cfg.p_wild_select:
            sel = (self.expr(ctx, I32, 0)
                   + [(op.I32_CONST, max(3, len(self._table_funcs))),
                      (op.I32_REM_U, None)])
        else:
            sel = [(op.I32_CONST, target)]
        return out + sel + [(op.CALL_INDIRECT, self._type_index(ft))]

    def _leaf(self, ctx: _FuncCtx, t: ValType) -> list[Instr]:
        rng = self.rng
        opts = ["const"]
        if ctx.locals_of(t):
            opts += ["local", "local"]
        if any(g.gtype.valtype == t for g in self._globals):
            opts.append("global")
        kind = rng.choice(opts)
        if kind == "local":
            return [(op.LOCAL_GET, rng.choice(ctx.locals_of(t)))]
        if kind == "global":
            idx = rng.choice(
                [i for i, g in enumerate(self._globals) if g.gtype.valtype == t]
            )
            return [(op.GLOBAL_GET, idx)]
        return [self._const(t)]

    def _addr(self, ctx: _FuncCtx, depth: int) -> list[Instr]:
        """An i32 address expression, usually masked in-bounds."""
        base = self.expr(ctx, I32, depth)
        if self.rng.random() < self.cfg.p_wild_addr:
            return base  # may trap: both engines must agree on the oob
        return base + [(op.I32_CONST, ADDR_MASK), (op.I32_AND, None)]

    # ----- statements ------------------------------------------------------

    def stmts(self, ctx: _FuncCtx, depth: int, count: int | None = None) -> list[Instr]:
        rng = self.rng
        n = rng.randrange(1, MAX_STMTS + 1) if count is None else count
        out: list[Instr] = []
        for _ in range(n):
            out += self._stmt(ctx, depth)
        return out

    def _stmt(self, ctx: _FuncCtx, depth: int) -> list[Instr]:
        rng = self.rng
        choices = ["set", "store", "drop", "nop", "memgrow", "set", "store"]
        if self._globals_mutable:
            choices.append("gset")
        if depth > 0:
            choices += ["if", "loop", "block", "br_table"]
        if any(not ft.results for ft in self._callable):
            choices.append("callv")
        kind = rng.choice(choices)
        if kind == "set":
            t = rng.choice(ALL_TYPES)
            writable = ctx.locals_of(t, writable=True)
            if not writable:
                return [(op.NOP, None)]
            idx = rng.choice(writable)
            value = self.expr(ctx, t, depth)
            if rng.random() < 0.25:
                return value + [(op.LOCAL_TEE, idx), (op.DROP, None)]
            return value + [(op.LOCAL_SET, idx)]
        if kind == "gset":
            idx = rng.choice(self._globals_mutable)
            t = self._globals[idx].gtype.valtype
            return self.expr(ctx, t, depth) + [(op.GLOBAL_SET, idx)]
        if kind == "store":
            t = rng.choice(ALL_TYPES)
            addr = self._addr(ctx, depth)
            value = self.expr(ctx, t, depth)
            offset = rng.randrange(MAX_SAFE_OFFSET)
            return addr + value + [(rng.choice(STORE_OPS[t]), (0, offset))]
        if kind == "drop":
            t = rng.choice(ALL_TYPES)
            return self.expr(ctx, t, depth) + [(op.DROP, None)]
        if kind == "nop":
            return [(op.NOP, None)]
        if kind == "memgrow":
            return [(op.I32_CONST, rng.randrange(3)), (op.MEMORY_GROW, None),
                    (op.DROP, None)]
        if kind == "if":
            cond = self.expr(ctx, I32, depth - 1)
            ctx.label_depth += 1
            then = self.stmts(ctx, depth - 1)
            els = self.stmts(ctx, depth - 1) if rng.random() < 0.5 else None
            ctx.label_depth -= 1
            out = cond + [(op.IF, None)] + then
            if els is not None:
                out += [(op.ELSE, None)] + els
            return out + [(op.END, None)]
        if kind == "loop":
            return self._bounded_loop(ctx, depth)
        if kind == "block":
            ctx.label_depth += 1
            body = self.stmts(ctx, depth - 1)
            cond = self.expr(ctx, I32, depth - 1)
            tail = self.stmts(ctx, depth - 1)
            ctx.label_depth -= 1
            return ([(op.BLOCK, None)] + body + cond + [(op.BR_IF, 0)]
                    + tail + [(op.END, None)])
        if kind == "br_table":
            sel = self.expr(ctx, I32, depth - 1)
            ctx.label_depth += 3
            a = self.stmts(ctx, depth - 1, count=1)
            b = self.stmts(ctx, depth - 1, count=1)
            ctx.label_depth -= 3
            return (
                [(op.BLOCK, None), (op.BLOCK, None), (op.BLOCK, None)]
                + sel
                + [(op.I32_CONST, 3), (op.I32_REM_U, None),
                   (op.BR_TABLE, ((0, 1), 2)), (op.END, None)]
                + a + [(op.END, None)] + b + [(op.END, None)]
            )
        # callv: call a void function for its side effects
        idx, ft = rng.choice(
            [(i, ft) for i, ft in enumerate(self._callable) if not ft.results]
        )
        out: list[Instr] = []
        for p in ft.params:
            out += self.expr(ctx, p, depth)
        return out + [(op.CALL, idx)]

    def _bounded_loop(self, ctx: _FuncCtx, depth: int) -> list[Instr]:
        rng = self.rng
        counters = ctx.locals_of(I32, writable=True)
        if not counters:
            return [(op.NOP, None)]
        counter = rng.choice(counters)
        ctx.reserved.add(counter)
        iters = rng.randrange(1, 7)
        ctx.label_depth += 1
        body = self.stmts(ctx, depth - 1)
        ctx.label_depth -= 1
        ctx.reserved.discard(counter)
        return (
            [(op.I32_CONST, iters), (op.LOCAL_SET, counter), (op.LOOP, None)]
            + body
            + [(op.LOCAL_GET, counter), (op.I32_CONST, 1), (op.I32_SUB, None),
               (op.LOCAL_TEE, counter), (op.BR_IF, 0), (op.END, None)]
        )

    # ----- module assembly -------------------------------------------------

    def _type_index(self, ft: FuncType) -> int:
        try:
            return self._types.index(ft)
        except ValueError:
            self._types.append(ft)
            return len(self._types) - 1

    def generate(self) -> GeneratedModule:
        rng = self.rng
        cfg = self.cfg
        self._types: list[FuncType] = []
        self._globals: list[Global] = []
        self._callable: list[FuncType] = []  # funcs fully generated so far
        self._funcsigs: list[FuncType] = []  # all planned signatures
        self._table_funcs: list[int] = []

        for _ in range(rng.randrange(MAX_GLOBALS + 1)):
            t = rng.choice(ALL_TYPES)
            mutable = rng.random() < 0.8
            self._globals.append(
                Global(GlobalType(t, mutable), ((self._const(t)), (op.END, None)))
            )
        self._globals_mutable = [
            i for i, g in enumerate(self._globals) if g.gtype.mutable
        ]

        n_funcs = rng.randrange(1, cfg.max_funcs + 1)
        for _ in range(n_funcs):
            params = tuple(
                rng.choice(ALL_TYPES)
                for _ in range(rng.randrange(MAX_PARAMS + 1))
            )
            results = (rng.choice(ALL_TYPES),) if rng.random() < 0.8 else ()
            self._funcsigs.append(FuncType(params, results))

        has_table = rng.random() < TABLE_PROB and n_funcs > 0
        if has_table:
            self._table_funcs = list(range(n_funcs))

        codes: list[Code] = []
        func_type_indices: list[int] = []
        for i, ft in enumerate(self._funcsigs):
            # while generating func i, direct calls may target funcs < i only
            self._callable = self._funcsigs[:i]
            n_locals = rng.randrange(1, MAX_LOCALS + 1)
            locals_ = (I32,) + tuple(
                rng.choice(ALL_TYPES) for _ in range(n_locals - 1)
            )
            ctx = _FuncCtx(ft.params, locals_)
            body = self.stmts(ctx, MAX_DEPTH)
            if ft.results:
                result_t = ft.results[0]
                if rng.random() < 0.2:
                    # occasional early conditional return
                    cond = self.expr(ctx, I32, 1)
                    ctx.label_depth += 1
                    val = self.expr(ctx, result_t, 1)
                    ctx.label_depth -= 1
                    body += (cond + [(op.IF, None)] + val
                             + [(op.RETURN, None), (op.END, None)])
                body += self.expr(ctx, result_t, MAX_DEPTH)
            body.append((op.END, None))
            codes.append(Code(tuple(locals_), tuple(body)))
            func_type_indices.append(self._type_index(ft))
        self._callable = self._funcsigs

        mod = Module()
        mod.types = self._types
        mod.funcs = func_type_indices
        mod.codes = codes
        mod.mems = [Limits(1, 2)]
        mod.globals = self._globals
        mod.exports = [
            Export(f"f{i}", "func", i) for i in range(n_funcs)
        ]
        if has_table:
            # one extra null slot so wild call_indirect selectors can land
            # on an uninitialized element (a trap both engines must match)
            mod.tables = [Limits(n_funcs + 1, n_funcs + 1)]
            mod.elems = [
                ElemSegment(0, ((op.I32_CONST, 0), (op.END, None)),
                            tuple(range(n_funcs)))
            ]
        if rng.random() < DATA_PROB:
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 33)))
            mod.datas = [
                DataSegment(0, ((op.I32_CONST, rng.randrange(64)), (op.END, None)),
                            payload)
            ]

        try:
            validate_module(mod)
        except Exception as exc:  # noqa: BLE001 - reported as generator bug
            raise GeneratorError(f"generated module fails validation: {exc}") from exc
        wasm = encode_module(mod)

        n_calls = rng.randrange(MIN_CALLS, cfg.max_calls + 1)
        calls = []
        for _ in range(n_calls):
            idx = rng.randrange(n_funcs)
            ft = self._funcsigs[idx]
            args = tuple(self.arg_for(p) for p in ft.params)
            calls.append((f"f{idx}", args))
        return GeneratedModule(wasm=wasm, calls=calls, module=mod)
