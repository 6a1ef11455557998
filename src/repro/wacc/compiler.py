"""WACC code generator: typed AST -> Wasm module.

Type checking happens during generation; every expression's type is
computed and mismatches raise :class:`WaccTypeError` with a line number.
The output is a :class:`repro.wasm.module.Module` that always passes the
Wasm validator (the test suite enforces this invariant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.wacc import ast
from repro.wacc.errors import WaccError, WaccTypeError
from repro.wacc.parser import _ForBlock, parse
from repro.wasm import opcodes as op
from repro.wasm.encoder import encode_module
from repro.wasm.module import Code, Export, Global, Import, Instr, Module
from repro.wasm.wtypes import FuncType, GlobalType, Limits, ValType

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64

_TYPE_BY_NAME = {"i32": I32, "i64": I64, "f32": F32, "f64": F64}

# binary op -> per-type opcode
_ARITH = {
    "+": {I32: op.I32_ADD, I64: op.I64_ADD, F32: op.F32_ADD, F64: op.F64_ADD},
    "-": {I32: op.I32_SUB, I64: op.I64_SUB, F32: op.F32_SUB, F64: op.F64_SUB},
    "*": {I32: op.I32_MUL, I64: op.I64_MUL, F32: op.F32_MUL, F64: op.F64_MUL},
    "/": {I32: op.I32_DIV_S, I64: op.I64_DIV_S, F32: op.F32_DIV, F64: op.F64_DIV},
    "%": {I32: op.I32_REM_S, I64: op.I64_REM_S},
    "&": {I32: op.I32_AND, I64: op.I64_AND},
    "|": {I32: op.I32_OR, I64: op.I64_OR},
    "^": {I32: op.I32_XOR, I64: op.I64_XOR},
    "<<": {I32: op.I32_SHL, I64: op.I64_SHL},
    ">>": {I32: op.I32_SHR_S, I64: op.I64_SHR_S},
    ">>>": {I32: op.I32_SHR_U, I64: op.I64_SHR_U},
}

_COMPARE = {
    "==": {I32: op.I32_EQ, I64: op.I64_EQ, F32: op.F32_EQ, F64: op.F64_EQ},
    "!=": {I32: op.I32_NE, I64: op.I64_NE, F32: op.F32_NE, F64: op.F64_NE},
    "<": {I32: op.I32_LT_S, I64: op.I64_LT_S, F32: op.F32_LT, F64: op.F64_LT},
    ">": {I32: op.I32_GT_S, I64: op.I64_GT_S, F32: op.F32_GT, F64: op.F64_GT},
    "<=": {I32: op.I32_LE_S, I64: op.I64_LE_S, F32: op.F32_LE, F64: op.F64_LE},
    ">=": {I32: op.I32_GE_S, I64: op.I64_GE_S, F32: op.F32_GE, F64: op.F64_GE},
}

_CASTS: dict[tuple[ValType, ValType], int | None] = {
    (I32, I64): op.I64_EXTEND_I32_S,
    (I64, I32): op.I32_WRAP_I64,
    (I32, F32): op.F32_CONVERT_I32_S,
    (I32, F64): op.F64_CONVERT_I32_S,
    (I64, F32): op.F32_CONVERT_I64_S,
    (I64, F64): op.F64_CONVERT_I64_S,
    (F32, I32): op.I32_TRUNC_F32_S,
    (F32, I64): op.I64_TRUNC_F32_S,
    (F64, I32): op.I32_TRUNC_F64_S,
    (F64, I64): op.I64_TRUNC_F64_S,
    (F32, F64): op.F64_PROMOTE_F32,
    (F64, F32): op.F32_DEMOTE_F64,
}

# builtin name -> (param types, result or None, instruction)
_BUILTINS: dict[str, tuple[tuple[ValType, ...], ValType | None, Instr]] = {
    "load8u": ((I32,), I32, (op.I32_LOAD8_U, (0, 0))),
    "load8s": ((I32,), I32, (op.I32_LOAD8_S, (0, 0))),
    "load16u": ((I32,), I32, (op.I32_LOAD16_U, (1, 0))),
    "load16s": ((I32,), I32, (op.I32_LOAD16_S, (1, 0))),
    "load32": ((I32,), I32, (op.I32_LOAD, (2, 0))),
    "load64": ((I32,), I64, (op.I64_LOAD, (3, 0))),
    "loadf32": ((I32,), F32, (op.F32_LOAD, (2, 0))),
    "loadf64": ((I32,), F64, (op.F64_LOAD, (3, 0))),
    "store8": ((I32, I32), None, (op.I32_STORE8, (0, 0))),
    "store16": ((I32, I32), None, (op.I32_STORE16, (1, 0))),
    "store32": ((I32, I32), None, (op.I32_STORE, (2, 0))),
    "store64": ((I32, I64), None, (op.I64_STORE, (3, 0))),
    "storef32": ((I32, F32), None, (op.F32_STORE, (2, 0))),
    "storef64": ((I32, F64), None, (op.F64_STORE, (3, 0))),
    "memory_size": ((), I32, (op.MEMORY_SIZE, None)),
    "memory_grow": ((I32,), I32, (op.MEMORY_GROW, None)),
    "sqrt": ((F64,), F64, (op.F64_SQRT, None)),
    "floor": ((F64,), F64, (op.F64_FLOOR, None)),
    "ceil": ((F64,), F64, (op.F64_CEIL, None)),
    "trunc": ((F64,), F64, (op.F64_TRUNC, None)),
    "nearest": ((F64,), F64, (op.F64_NEAREST, None)),
    "fabs": ((F64,), F64, (op.F64_ABS, None)),
    "fmin": ((F64, F64), F64, (op.F64_MIN, None)),
    "fmax": ((F64, F64), F64, (op.F64_MAX, None)),
    "clz": ((I32,), I32, (op.I32_CLZ, None)),
    "ctz": ((I32,), I32, (op.I32_CTZ, None)),
    "popcnt": ((I32,), I32, (op.I32_POPCNT, None)),
    "rotl": ((I32, I32), I32, (op.I32_ROTL, None)),
    "trap": ((), None, (op.UNREACHABLE, None)),
}

#: names usable in expressions that consume the top of stack for a min/max
_DEFAULT_MEMORY = Limits(2, 256)


@dataclass
class _FuncSig:
    index: int
    params: tuple[ValType, ...]
    result: ValType | None


class _FuncGen:
    """Generates one function body."""

    def __init__(self, comp: "Compiler", decl: ast.FuncDecl):
        self.comp = comp
        self.decl = decl
        self.instrs: list[Instr] = []
        self.local_types: list[ValType] = []
        self.env: dict[str, tuple[int, ValType]] = {}
        for i, param in enumerate(decl.params):
            if param.name in self.env:
                raise WaccError(f"duplicate parameter {param.name!r} (line {decl.line})")
            self.env[param.name] = (i, _TYPE_BY_NAME[param.typename])
        self.n_params = len(decl.params)
        self.result = _TYPE_BY_NAME[decl.result] if decl.result else None
        # control nesting: entries are 'if', 'wblock' (while exit), 'wloop'
        self.ctrl: list[str] = []

    def emit(self, opcode: int, imm=None) -> None:
        self.instrs.append((opcode, imm))

    def err(self, message: str, line: int) -> WaccTypeError:
        return WaccTypeError(f"{message} (line {line})")

    # ----- statements ---------------------------------------------------------

    def gen_body(self) -> Code:
        self.gen_stmts(self.decl.body)
        if self.result is not None:
            # if control falls off the end of a value-returning function,
            # that's a bug in the plugin: trap rather than return garbage.
            self.emit(op.UNREACHABLE)
        self.emit(op.END)
        return Code(tuple(self.local_types), tuple(self.instrs))

    def gen_stmts(self, stmts: list) -> None:
        for stmt in stmts:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt) -> None:
        if isinstance(stmt, ast.Let):
            if stmt.name in self.env:
                raise self.err(f"redeclaration of {stmt.name!r}", stmt.line)
            valtype = _TYPE_BY_NAME[stmt.typename]
            index = self.n_params + len(self.local_types)
            self.local_types.append(valtype)
            self.env[stmt.name] = (index, valtype)
            if stmt.init is not None:
                got = self.gen_expr(stmt.init, want=valtype)
                if got != valtype:
                    raise self.err(
                        f"cannot initialise {stmt.name}: {valtype.short} "
                        f"with {got.short}", stmt.line,
                    )
                self.emit(op.LOCAL_SET, index)
        elif isinstance(stmt, ast.Assign):
            self.gen_assign(stmt)
        elif isinstance(stmt, ast.If):
            got = self.gen_expr(stmt.cond)
            if got != I32:
                raise self.err(f"if condition must be i32, got {got.short}", stmt.line)
            self.emit(op.IF, None)
            self.ctrl.append("if")
            self.gen_stmts(stmt.then_body)
            if stmt.else_body is not None:
                self.emit(op.ELSE)
                self.gen_stmts(stmt.else_body)
            self.ctrl.pop()
            self.emit(op.END)
        elif isinstance(stmt, ast.While):
            self.emit(op.BLOCK, None)
            self.ctrl.append("wblock")
            self.emit(op.LOOP, None)
            self.ctrl.append("wloop")
            got = self.gen_expr(stmt.cond)
            if got != I32:
                raise self.err(
                    f"while condition must be i32, got {got.short}", stmt.line
                )
            self.emit(op.I32_EQZ)
            self.emit(op.BR_IF, 1)  # exit the wblock
            self.gen_stmts(stmt.body)
            self.emit(op.BR, 0)  # continue the loop
            self.ctrl.pop()
            self.emit(op.END)
            self.ctrl.pop()
            self.emit(op.END)
        elif isinstance(stmt, ast.Return):
            if self.result is None:
                if stmt.value is not None:
                    raise self.err("void function cannot return a value", stmt.line)
            else:
                if stmt.value is None:
                    raise self.err(
                        f"function must return {self.result.short}", stmt.line
                    )
                got = self.gen_expr(stmt.value, want=self.result)
                if got != self.result:
                    raise self.err(
                        f"return type {got.short}, expected {self.result.short}",
                        stmt.line,
                    )
            self.emit(op.RETURN)
        elif isinstance(stmt, ast.Break):
            self.emit(op.BR, self._loop_depth("wblock", stmt.line))
        elif isinstance(stmt, ast.Continue):
            self.emit(op.BR, self._loop_depth("wloop", stmt.line))
        elif isinstance(stmt, ast.ExprStmt):
            got = self.gen_expr_maybe_void(stmt.expr)
            if got is not None:
                self.emit(op.DROP)
        elif isinstance(stmt, _ForBlock):
            self.gen_stmts(stmt.stmts)
        else:  # pragma: no cover
            raise AssertionError(f"unknown statement {stmt!r}")

    def _loop_depth(self, marker: str, line: int) -> int:
        for depth, kind in enumerate(reversed(self.ctrl)):
            if kind == marker:
                return depth
        raise self.err("break/continue outside a loop", line)

    def gen_assign(self, stmt: ast.Assign) -> None:
        if stmt.name in self.env:
            index, valtype = self.env[stmt.name]
            got = self.gen_expr(stmt.value, want=valtype)
            if got != valtype:
                raise self.err(
                    f"cannot assign {got.short} to {stmt.name}: {valtype.short}",
                    stmt.line,
                )
            self.emit(op.LOCAL_SET, index)
        elif stmt.name in self.comp.global_env:
            index, valtype = self.comp.global_env[stmt.name]
            got = self.gen_expr(stmt.value, want=valtype)
            if got != valtype:
                raise self.err(
                    f"cannot assign {got.short} to global {stmt.name}: "
                    f"{valtype.short}", stmt.line,
                )
            self.emit(op.GLOBAL_SET, index)
        else:
            raise self.err(f"assignment to undefined variable {stmt.name!r}", stmt.line)

    # ----- expressions ----------------------------------------------------------

    def gen_expr_maybe_void(self, expr) -> ValType | None:
        """Like gen_expr but allows void calls (used for expression statements)."""
        if isinstance(expr, ast.Call):
            return self.gen_call(expr, allow_void=True)
        return self.gen_expr(expr)

    def gen_expr(self, expr, want: ValType | None = None) -> ValType:
        if isinstance(expr, ast.IntLit):
            if want == I64:
                self.emit(op.I64_CONST, _wrap_signed(expr.value, 64, expr.line))
                return I64
            if want in (F32, F64) and False:  # literals stay integral; use casts
                pass
            self.emit(op.I32_CONST, _wrap_signed(expr.value, 32, expr.line))
            return I32
        if isinstance(expr, ast.FloatLit):
            if want == F32:
                self.emit(op.F32_CONST, expr.value)
                return F32
            self.emit(op.F64_CONST, expr.value)
            return F64
        if isinstance(expr, ast.Var):
            if expr.name in self.env:
                index, valtype = self.env[expr.name]
                self.emit(op.LOCAL_GET, index)
                return valtype
            if expr.name in self.comp.global_env:
                index, valtype = self.comp.global_env[expr.name]
                self.emit(op.GLOBAL_GET, index)
                return valtype
            raise self.err(f"undefined variable {expr.name!r}", expr.line)
        if isinstance(expr, ast.Unary):
            return self.gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.gen_binary(expr)
        if isinstance(expr, ast.Cast):
            return self.gen_cast(expr)
        if isinstance(expr, ast.Call):
            result = self.gen_call(expr, allow_void=False)
            assert result is not None
            return result
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def gen_unary(self, expr: ast.Unary) -> ValType:
        if expr.op == "-":
            # integer negation is 0 - x; float negation is neg
            if isinstance(expr.operand, ast.IntLit):
                self.emit(op.I32_CONST, _wrap_signed(-expr.operand.value, 32, expr.line))
                return I32
            if isinstance(expr.operand, ast.FloatLit):
                self.emit(op.F64_CONST, -expr.operand.value)
                return F64
            got = self.gen_expr(expr.operand)
            if got == I32:
                self.emit(op.I32_CONST, -1)
                self.emit(op.I32_MUL)
            elif got == I64:
                self.emit(op.I64_CONST, -1)
                self.emit(op.I64_MUL)
            elif got == F32:
                self.emit(op.F32_NEG)
            else:
                self.emit(op.F64_NEG)
            return got
        if expr.op == "!":
            got = self.gen_expr(expr.operand)
            if got != I32:
                raise self.err(f"! requires i32, got {got.short}", expr.line)
            self.emit(op.I32_EQZ)
            return I32
        if expr.op == "~":
            got = self.gen_expr(expr.operand)
            if got == I32:
                self.emit(op.I32_CONST, -1)
                self.emit(op.I32_XOR)
            elif got == I64:
                self.emit(op.I64_CONST, -1)
                self.emit(op.I64_XOR)
            else:
                raise self.err(f"~ requires an integer, got {got.short}", expr.line)
            return got
        raise AssertionError(expr.op)  # pragma: no cover

    def gen_binary(self, expr: ast.Binary) -> ValType:
        if expr.op in ("&&", "||"):
            return self.gen_short_circuit(expr)
        # propagate an i64/float context hint into literal operands
        left_type = self.gen_expr(expr.left)
        right_type = self.gen_expr(expr.right, want=left_type)
        if left_type != right_type:
            raise self.err(
                f"operand type mismatch for {expr.op!r}: "
                f"{left_type.short} vs {right_type.short}", expr.line,
            )
        if expr.op in _COMPARE:
            self.emit(_COMPARE[expr.op][left_type])
            return I32
        table = _ARITH.get(expr.op)
        if table is None or left_type not in table:
            raise self.err(
                f"operator {expr.op!r} not defined for {left_type.short}", expr.line
            )
        self.emit(table[left_type])
        return left_type

    def gen_short_circuit(self, expr: ast.Binary) -> ValType:
        got = self.gen_expr(expr.left)
        if got != I32:
            raise self.err(f"{expr.op} requires i32, got {got.short}", expr.line)
        if expr.op == "&&":
            # left && right  =>  if (left) { right != 0 } else { 0 }
            self.emit(op.IF, I32)
            right = self.gen_expr(expr.right)
            if right != I32:
                raise self.err(f"&& requires i32, got {right.short}", expr.line)
            self.emit(op.I32_CONST, 0)
            self.emit(op.I32_NE)
            self.emit(op.ELSE)
            self.emit(op.I32_CONST, 0)
            self.emit(op.END)
        else:
            self.emit(op.IF, I32)
            self.emit(op.I32_CONST, 1)
            self.emit(op.ELSE)
            right = self.gen_expr(expr.right)
            if right != I32:
                raise self.err(f"|| requires i32, got {right.short}", expr.line)
            self.emit(op.I32_CONST, 0)
            self.emit(op.I32_NE)
            self.emit(op.END)
        return I32

    def gen_cast(self, expr: ast.Cast) -> ValType:
        target = _TYPE_BY_NAME[expr.target]
        # fold literal casts so i64/f32 constants are natural to write
        if isinstance(expr.operand, ast.IntLit):
            value = expr.operand.value
            if target == I64:
                self.emit(op.I64_CONST, _wrap_signed(value, 64, expr.line))
            elif target == I32:
                self.emit(op.I32_CONST, _wrap_signed(value, 32, expr.line))
            elif target == F32:
                self.emit(op.F32_CONST, float(value))
            else:
                self.emit(op.F64_CONST, float(value))
            return target
        if isinstance(expr.operand, ast.FloatLit):
            if target == F32:
                self.emit(op.F32_CONST, expr.operand.value)
                return F32
            if target == F64:
                self.emit(op.F64_CONST, expr.operand.value)
                return F64
            # fall through to runtime conversion for float->int literal casts
        source = self.gen_expr(expr.operand)
        if source == target:
            return target
        self.emit(_CASTS[(source, target)])
        return target

    def gen_call(self, expr: ast.Call, allow_void: bool) -> ValType | None:
        builtin = _BUILTINS.get(expr.name)
        if builtin is not None:
            params, result, instr = builtin
            if len(expr.args) != len(params):
                raise self.err(
                    f"{expr.name} expects {len(params)} args, got {len(expr.args)}",
                    expr.line,
                )
            for arg, expected in zip(expr.args, params):
                got = self.gen_expr(arg, want=expected)
                if got != expected:
                    raise self.err(
                        f"{expr.name}: argument type {got.short}, "
                        f"expected {expected.short}", expr.line,
                    )
            self.instrs.append(instr)
            if result is None and not allow_void:
                raise self.err(
                    f"{expr.name} has no value; use it as a statement", expr.line
                )
            return result
        sig = self.comp.func_env.get(expr.name)
        if sig is None:
            raise self.err(f"call to undefined function {expr.name!r}", expr.line)
        if len(expr.args) != len(sig.params):
            raise self.err(
                f"{expr.name} expects {len(sig.params)} args, got {len(expr.args)}",
                expr.line,
            )
        for arg, expected in zip(expr.args, sig.params):
            got = self.gen_expr(arg, want=expected)
            if got != expected:
                raise self.err(
                    f"{expr.name}: argument type {got.short}, expected "
                    f"{expected.short}", expr.line,
                )
        self.emit(op.CALL, sig.index)
        if sig.result is None and not allow_void:
            raise self.err(f"{expr.name} returns no value", expr.line)
        return sig.result


def _wrap_signed(value: int, bits: int, line: int) -> int:
    """Wrap an integer literal into signed range (0xFFFFFFFF == -1 for i32)."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if lo <= value <= hi:
        return value
    if 0 <= value < (1 << bits):
        return value - (1 << bits)
    raise WaccTypeError(f"integer literal {value} out of i{bits} range (line {line})")


class Compiler:
    def __init__(self, program: ast.Program):
        self.program = program
        self.module = Module()
        self.func_env: dict[str, _FuncSig] = {}
        self.global_env: dict[str, tuple[int, ValType]] = {}
        self.type_cache: dict[FuncType, int] = {}

    def intern_type(self, ft: FuncType) -> int:
        if ft not in self.type_cache:
            self.type_cache[ft] = len(self.module.types)
            self.module.types.append(ft)
        return self.type_cache[ft]

    def compile(self) -> Module:
        program = self.program
        # imports first (they occupy the low function indices)
        for i, imp in enumerate(program.imports):
            params = tuple(_TYPE_BY_NAME[p.typename] for p in imp.params)
            result = _TYPE_BY_NAME[imp.result] if imp.result else None
            ft = FuncType(params, (result,) if result else ())
            self.module.imports.append(
                Import(imp.module, imp.name, "func", self.intern_type(ft))
            )
            if imp.name in self.func_env:
                raise WaccError(f"duplicate function {imp.name!r} (line {imp.line})")
            self.func_env[imp.name] = _FuncSig(i, params, result)

        n_imports = len(program.imports)
        for i, func in enumerate(program.funcs):
            params = tuple(_TYPE_BY_NAME[p.typename] for p in func.params)
            result = _TYPE_BY_NAME[func.result] if func.result else None
            ft = FuncType(params, (result,) if result else ())
            self.module.funcs.append(self.intern_type(ft))
            if func.name in self.func_env:
                raise WaccError(f"duplicate function {func.name!r} (line {func.line})")
            self.func_env[func.name] = _FuncSig(n_imports + i, params, result)
            if func.exported:
                self.module.exports.append(Export(func.name, "func", n_imports + i))

        for i, glob in enumerate(program.globals):
            valtype = _TYPE_BY_NAME[glob.typename]
            init = _const_init(glob, valtype)
            self.module.globals.append(Global(GlobalType(valtype, True), init))
            self.global_env[glob.name] = (i, valtype)

        memory = program.memory
        limits = (
            Limits(memory.minimum, memory.maximum) if memory else _DEFAULT_MEMORY
        )
        self.module.mems.append(limits)
        self.module.exports.append(Export("memory", "mem", 0))

        for func in program.funcs:
            gen = _FuncGen(self, func)
            self.module.codes.append(gen.gen_body())

        return self.module


def _const_init(glob: ast.GlobalDecl, valtype: ValType) -> tuple[Instr, ...]:
    expr = glob.init
    negate = False
    if isinstance(expr, ast.Unary) and expr.op == "-":
        negate = True
        expr = expr.operand
    if isinstance(expr, ast.Cast):
        # allow `global x: i64 = 0 as i64;` style
        expr = expr.operand
    if isinstance(expr, ast.IntLit) and valtype in (I32, I64):
        value = -expr.value if negate else expr.value
        opcode = op.I32_CONST if valtype == I32 else op.I64_CONST
        return ((opcode, value), (op.END, None))
    if isinstance(expr, ast.FloatLit) and valtype in (F32, F64):
        value = -expr.value if negate else expr.value
        opcode = op.F32_CONST if valtype == F32 else op.F64_CONST
        return ((opcode, value), (op.END, None))
    if isinstance(expr, ast.IntLit) and valtype in (F32, F64):
        value = float(-expr.value if negate else expr.value)
        opcode = op.F32_CONST if valtype == F32 else op.F64_CONST
        return ((opcode, value), (op.END, None))
    raise WaccTypeError(
        f"global {glob.name!r} initialiser must be a literal (line {glob.line})"
    )


@dataclass
class CompiledPlugin:
    """The result of compiling WACC source: module + binary bytes."""

    module: Module
    wasm: bytes
    source: str


def compile_module(source: str, optimize: bool = True) -> Module:
    """Compile WACC source to a Wasm :class:`Module`.

    ``optimize`` enables the function-inlining pass (see
    :mod:`repro.wacc.inline`); disable it to inspect unoptimized output or
    to measure the optimization's effect (the §6C ablation bench does).
    """
    program = parse(source)
    if optimize:
        from repro.wacc.constfold import fold_program
        from repro.wacc.inline import inline_program

        program = fold_program(inline_program(program))
    return Compiler(program).compile()


def compile_source(source: str, optimize: bool = True) -> bytes:
    """Compile WACC source to binary Wasm bytes."""
    from repro.obs import OBS

    # timed apart from the span: metrics and tracing switch independently
    start = time.perf_counter_ns()
    with OBS.tracer.span("wacc.compile", source_bytes=len(source)) as span:
        raw = encode_module(compile_module(source, optimize=optimize))
    if OBS.enabled:
        elapsed_us = (time.perf_counter_ns() - start) / 1000.0
        span.set(wasm_bytes=len(raw))
        OBS.registry.counter("waran_wacc_compiles_total", "WACC compilations").inc()
        OBS.registry.histogram(
            "waran_wacc_compile_us", "WACC source -> Wasm compile time (us)"
        ).observe(elapsed_us)
    return raw
