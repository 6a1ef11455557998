"""Module validator: the type checker of the Wasm spec.

Implements the operand/control-stack validation algorithm from the spec
appendix.  Validation is what gives Wasm its control-flow integrity: every
branch target, call signature and stack shape is proven correct before a
single instruction runs, so the interpreter can execute without per-step
type checks.

Validating a body is also the one static analysis of it: what the pass
proves - stack heights, block ends, resolved branches - is kept on the
``Code`` as :class:`BodyFacts`, and every engine lowers from those facts
(:func:`body_facts`) instead of working them out again.  A body the
validator has not accepted has no facts, so no engine lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wasm import opcodes as op
from repro.wasm.module import Code, Instr, Module
from repro.wasm.traps import ValidationError
from repro.wasm.wtypes import FuncType, GlobalType, ValType

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64

#: sentinel for a value of unknown type on a polymorphic (unreachable) stack
_UNKNOWN = None


@dataclass
class _Frame:
    opcode: int  # BLOCK / LOOP / IF / ELSE / or 0 for the function body
    start_types: tuple[ValType, ...]
    end_types: tuple[ValType, ...]
    height: int
    start: int = -1  # pc of the block / loop / if (-1: the function body)
    dead: bool = False  # opened in code no execution reaches
    unreachable: bool = False
    else_pc: int | None = None
    end: int = -1  # pc of its end, once seen

    @property
    def label_types(self) -> tuple[ValType, ...]:
        # A branch to a loop re-enters the top, so it takes the start types.
        return self.start_types if self.opcode == op.LOOP else self.end_types

    @property
    def target(self) -> int:
        """The pc a branch to this frame's label lands on."""
        return self.start + 1 if self.opcode == op.LOOP else self.end + 1


class BodyFacts:
    """What validating one function body proved, for the engines to lower
    from.

    - ``heights[pc]``: operand-stack height before ``pc``; ``None`` in code
      no execution reaches;
    - ``ends[pc]``: ``(end_pc, else_pc)`` of the block / loop / if opened
      at ``pc``, and of the if whose ``else`` is at ``pc``;
    - ``branches[pc]``: for an ``if``, the pc its false path resumes at;
      for an ``else``, its ``end``; for ``br`` / ``br_if``, ``(target,
      arity, dest_height)``; for ``br_table``, ``([per label], default,
      height after the index pop or None)``.  A branch no execution
      reaches keeps its target; its arity and height mean nothing;
    - ``targets``: every pc control reaches other than by falling through
      (loop heads, if / else landings, branch targets - dead ones too);
    - ``max_stack``: the static stack bound :class:`ExecStats
      <repro.wasm.interpreter.ExecStats>` reports - a linear scan of
      per-instruction stack effects (calls count +1, branch targets
      ignored, clamped at zero): an upper bound, not the exact peak.
    """

    __slots__ = ("heights", "ends", "branches", "targets", "max_stack")

    def __init__(self, heights, ends, branches, targets, max_stack):
        self.heights = heights
        self.ends = ends
        self.branches = branches
        self.targets = targets
        self.max_stack = max_stack


def body_facts(code: Code) -> BodyFacts:
    """The facts validation recorded on ``code``; a body never accepted by
    :func:`validate_module` is refused, not lowered."""
    facts = getattr(code, "_facts", None)
    if facts is None:
        raise ValidationError("function body has not been validated")
    return facts


@dataclass
class _Ctx:
    """Validation context for one function body."""

    module: Module
    locals: tuple[ValType, ...]
    result: tuple[ValType, ...]
    stack: list = field(default_factory=list)
    frames: list[_Frame] = field(default_factory=list)

    # ----- operand stack ----------------------------------------------------

    def push(self, vt) -> None:
        self.stack.append(vt)

    def pop(self, expect=_UNKNOWN):
        frame = self.frames[-1]
        if len(self.stack) == frame.height:
            if frame.unreachable:
                return expect
            raise ValidationError("type mismatch: operand stack underflow")
        actual = self.stack.pop()
        if expect is not _UNKNOWN and actual is not _UNKNOWN and actual != expect:
            raise ValidationError(
                f"type mismatch: expected {expect.short}, got {actual.short}"
            )
        return actual if actual is not _UNKNOWN else expect

    # ----- control stack ----------------------------------------------------

    def push_frame(self, opcode: int, start, end, pc: int = -1,
                   dead: bool = False) -> None:
        self.frames.append(_Frame(opcode, start, end, len(self.stack), pc, dead))
        for vt in start:
            self.push(vt)

    def pop_frame(self) -> _Frame:
        frame = self.frames[-1]
        for vt in reversed(frame.end_types):
            self.pop(vt)
        if len(self.stack) != frame.height:
            raise ValidationError("type mismatch: values left on stack at block end")
        self.frames.pop()
        return frame

    def set_unreachable(self) -> None:
        frame = self.frames[-1]
        del self.stack[frame.height :]
        frame.unreachable = True

    def label(self, depth: int) -> _Frame:
        if depth >= len(self.frames):
            raise ValidationError(f"unknown label depth {depth}")
        return self.frames[-1 - depth]


def _block_sig(blocktype) -> tuple[tuple[ValType, ...], tuple[ValType, ...]]:
    if blocktype is None:
        return (), ()
    return (), (blocktype,)


_MEM_OPS: dict[int, tuple[ValType, int, bool]] = {
    # opcode -> (value type, access size, is_store)
    op.I32_LOAD: (I32, 4, False),
    op.I64_LOAD: (I64, 8, False),
    op.F32_LOAD: (F32, 4, False),
    op.F64_LOAD: (F64, 8, False),
    op.I32_LOAD8_S: (I32, 1, False),
    op.I32_LOAD8_U: (I32, 1, False),
    op.I32_LOAD16_S: (I32, 2, False),
    op.I32_LOAD16_U: (I32, 2, False),
    op.I64_LOAD8_S: (I64, 1, False),
    op.I64_LOAD8_U: (I64, 1, False),
    op.I64_LOAD16_S: (I64, 2, False),
    op.I64_LOAD16_U: (I64, 2, False),
    op.I64_LOAD32_S: (I64, 4, False),
    op.I64_LOAD32_U: (I64, 4, False),
    op.I32_STORE: (I32, 4, True),
    op.I64_STORE: (I64, 8, True),
    op.F32_STORE: (F32, 4, True),
    op.F64_STORE: (F64, 8, True),
    op.I32_STORE8: (I32, 1, True),
    op.I32_STORE16: (I32, 2, True),
    op.I64_STORE8: (I64, 1, True),
    op.I64_STORE16: (I64, 2, True),
    op.I64_STORE32: (I64, 4, True),
}

# (in-types, out-type) for all fixed-signature numeric ops
_SIGS: dict[int, tuple[tuple[ValType, ...], ValType]] = {}


def _sig(ops: list[int], ins: tuple[ValType, ...], out: ValType) -> None:
    for opcode in ops:
        _SIGS[opcode] = (ins, out)


_sig([op.I32_EQZ], (I32,), I32)
_sig(
    [op.I32_EQ, op.I32_NE, op.I32_LT_S, op.I32_LT_U, op.I32_GT_S, op.I32_GT_U,
     op.I32_LE_S, op.I32_LE_U, op.I32_GE_S, op.I32_GE_U],
    (I32, I32), I32,
)
_sig([op.I64_EQZ], (I64,), I32)
_sig(
    [op.I64_EQ, op.I64_NE, op.I64_LT_S, op.I64_LT_U, op.I64_GT_S, op.I64_GT_U,
     op.I64_LE_S, op.I64_LE_U, op.I64_GE_S, op.I64_GE_U],
    (I64, I64), I32,
)
_sig([op.F32_EQ, op.F32_NE, op.F32_LT, op.F32_GT, op.F32_LE, op.F32_GE], (F32, F32), I32)
_sig([op.F64_EQ, op.F64_NE, op.F64_LT, op.F64_GT, op.F64_LE, op.F64_GE], (F64, F64), I32)
_sig([op.I32_CLZ, op.I32_CTZ, op.I32_POPCNT, op.I32_EXTEND8_S, op.I32_EXTEND16_S], (I32,), I32)
_sig(
    [op.I32_ADD, op.I32_SUB, op.I32_MUL, op.I32_DIV_S, op.I32_DIV_U, op.I32_REM_S,
     op.I32_REM_U, op.I32_AND, op.I32_OR, op.I32_XOR, op.I32_SHL, op.I32_SHR_S,
     op.I32_SHR_U, op.I32_ROTL, op.I32_ROTR],
    (I32, I32), I32,
)
_sig(
    [op.I64_CLZ, op.I64_CTZ, op.I64_POPCNT, op.I64_EXTEND8_S, op.I64_EXTEND16_S,
     op.I64_EXTEND32_S],
    (I64,), I64,
)
_sig(
    [op.I64_ADD, op.I64_SUB, op.I64_MUL, op.I64_DIV_S, op.I64_DIV_U, op.I64_REM_S,
     op.I64_REM_U, op.I64_AND, op.I64_OR, op.I64_XOR, op.I64_SHL, op.I64_SHR_S,
     op.I64_SHR_U, op.I64_ROTL, op.I64_ROTR],
    (I64, I64), I64,
)
_sig(
    [op.F32_ABS, op.F32_NEG, op.F32_CEIL, op.F32_FLOOR, op.F32_TRUNC,
     op.F32_NEAREST, op.F32_SQRT],
    (F32,), F32,
)
_sig(
    [op.F32_ADD, op.F32_SUB, op.F32_MUL, op.F32_DIV, op.F32_MIN, op.F32_MAX,
     op.F32_COPYSIGN],
    (F32, F32), F32,
)
_sig(
    [op.F64_ABS, op.F64_NEG, op.F64_CEIL, op.F64_FLOOR, op.F64_TRUNC,
     op.F64_NEAREST, op.F64_SQRT],
    (F64,), F64,
)
_sig(
    [op.F64_ADD, op.F64_SUB, op.F64_MUL, op.F64_DIV, op.F64_MIN, op.F64_MAX,
     op.F64_COPYSIGN],
    (F64, F64), F64,
)
_sig([op.I32_WRAP_I64], (I64,), I32)
_sig([op.I32_TRUNC_F32_S, op.I32_TRUNC_F32_U, op.I32_REINTERPRET_F32], (F32,), I32)
_sig([op.I32_TRUNC_F64_S, op.I32_TRUNC_F64_U], (F64,), I32)
_sig([op.I64_EXTEND_I32_S, op.I64_EXTEND_I32_U], (I32,), I64)
_sig([op.I64_TRUNC_F32_S, op.I64_TRUNC_F32_U], (F32,), I64)
_sig([op.I64_TRUNC_F64_S, op.I64_TRUNC_F64_U, op.I64_REINTERPRET_F64], (F64,), I64)
_sig([op.F32_CONVERT_I32_S, op.F32_CONVERT_I32_U, op.F32_REINTERPRET_I32], (I32,), F32)
_sig([op.F32_CONVERT_I64_S, op.F32_CONVERT_I64_U], (I64,), F32)
_sig([op.F32_DEMOTE_F64], (F64,), F32)
_sig([op.F64_CONVERT_I32_S, op.F64_CONVERT_I32_U], (I32,), F64)
_sig([op.F64_CONVERT_I64_S, op.F64_CONVERT_I64_U, op.F64_REINTERPRET_I64], (I64,), F64)
_sig([op.F64_PROMOTE_F32], (F32,), F64)

#: stack effect per opcode in the linear scan behind ``BodyFacts.max_stack``
#: (absent: 0).  A call counts +1 whatever its signature, the net push once
#: its arguments are consumed at worst.
_SCAN_DELTAS: dict[int, int] = {
    opcode: 1 - len(ins) for opcode, (ins, _out) in _SIGS.items()
} | {
    opcode: -2 for opcode, (_vt, _size, is_store) in _MEM_OPS.items() if is_store
} | dict.fromkeys(
    (op.LOCAL_GET, op.GLOBAL_GET, op.MEMORY_SIZE, op.CALL, op.CALL_INDIRECT,
     op.I32_CONST, op.I64_CONST, op.F32_CONST, op.F64_CONST), 1,
) | dict.fromkeys(
    (op.LOCAL_SET, op.GLOBAL_SET, op.DROP, op.BR_IF, op.IF, op.BR_TABLE), -1,
) | {op.SELECT: -2}


def _global_types(mod: Module) -> list[GlobalType]:
    types = [imp.desc for imp in mod.imported("global")]
    types.extend(g.gtype for g in mod.globals)
    return types  # type: ignore[return-value]


def _has_memory(mod: Module) -> bool:
    return bool(mod.mems) or mod.num_imported_mems > 0


def _has_table(mod: Module) -> bool:
    return bool(mod.tables) or mod.num_imported_tables > 0


def _validate_const_expr(
    mod: Module, expr: tuple[Instr, ...], expected: ValType, n_imported_globals: int
) -> None:
    """Constant expressions: a single const/global.get followed by end."""
    if len(expr) != 2 or expr[-1][0] != op.END:
        raise ValidationError("constant expression must be one instruction plus end")
    opcode, imm = expr[0]
    const_types = {op.I32_CONST: I32, op.I64_CONST: I64, op.F32_CONST: F32, op.F64_CONST: F64}
    if opcode in const_types:
        actual = const_types[opcode]
    elif opcode == op.GLOBAL_GET:
        if imm >= n_imported_globals:
            raise ValidationError(
                "constant expression may only reference imported globals"
            )
        gt = _global_types(mod)[imm]
        if gt.mutable:
            raise ValidationError("constant expression global must be immutable")
        actual = gt.valtype
    else:
        raise ValidationError(
            f"non-constant opcode 0x{opcode:02x} in constant expression"
        )
    if actual != expected:
        raise ValidationError(
            f"constant expression type {actual.short}, expected {expected.short}"
        )


def _label(frame: _Frame) -> tuple:
    """A branch to ``frame``'s label, its target pc still unresolved."""
    return frame, len(frame.label_types), frame.height


def _resolve(label: tuple) -> tuple[int, int, int]:
    frame, arity, height = label
    return frame.target, arity, height


def _validate_body(mod: Module, func_type: FuncType, code: Code) -> None:
    """Type-check one body and, if it passes, record its :class:`BodyFacts`."""
    locals_ = tuple(func_type.params) + code.locals
    ctx = _Ctx(mod, locals_, func_type.results)
    ctx.push_frame(0, (), func_type.results)
    global_types = _global_types(mod)
    stack = ctx.stack
    body = code.body

    heights: list[int | None] = []
    ends: dict[int, tuple[int, int | None]] = {}
    #: per control instruction, its frame(s); targets resolve once every
    #: block has seen its end
    refs: dict[int, object] = {}
    loop_heads: list[int] = []
    dead = False  # no execution reaches the current pc
    scan = peak = 0

    for pc, (opcode, imm) in enumerate(body):
        heights.append(None if dead else len(stack))
        scan += _SCAN_DELTAS.get(opcode, 0)
        if scan < 0:
            scan = 0
        elif scan > peak:
            peak = scan

        if opcode == op.UNREACHABLE:
            ctx.set_unreachable()
            dead = True
        elif opcode == op.NOP:
            pass
        elif opcode in (op.BLOCK, op.LOOP):
            start, end = _block_sig(imm)
            ctx.push_frame(opcode, start, end, pc, dead)
            if opcode == op.LOOP:
                loop_heads.append(pc + 1)
        elif opcode == op.IF:
            ctx.pop(I32)
            start, end = _block_sig(imm)
            ctx.push_frame(opcode, start, end, pc, dead)
            refs[pc] = ctx.frames[-1]
        elif opcode == op.ELSE:
            frame = ctx.frames[-1]
            if frame.opcode != op.IF:
                raise ValidationError("else without matching if")
            ctx.pop_frame()
            # re-enter as the else arm; mark it ELSE so a second else fails
            frame.opcode, frame.unreachable, frame.else_pc = op.ELSE, False, pc
            ctx.frames.append(frame)
            refs[pc] = frame
            dead = frame.dead
        elif opcode == op.END:
            frame = ctx.frames[-1]
            if frame.opcode == op.IF and frame.end_types != frame.start_types:
                raise ValidationError("if without else must have matching types")
            ctx.pop_frame()
            for vt in frame.end_types:
                ctx.push(vt)
            frame.end = pc
            dead = frame.dead
            if not ctx.frames:
                if pc != len(body) - 1:
                    raise ValidationError("instructions after the function end")
                break
            ends[frame.start] = (pc, frame.else_pc)
            if frame.else_pc is not None:
                ends[frame.else_pc] = (pc, frame.else_pc)
        elif opcode == op.BR:
            label = ctx.label(imm)
            refs[pc] = _label(label)
            for vt in reversed(label.label_types):
                ctx.pop(vt)
            ctx.set_unreachable()
            dead = True
        elif opcode == op.BR_IF:
            ctx.pop(I32)
            label = ctx.label(imm)
            refs[pc] = _label(label)
            types = label.label_types
            for vt in reversed(types):
                ctx.pop(vt)
            for vt in types:
                ctx.push(vt)
        elif opcode == op.BR_TABLE:
            targets, default = imm
            ctx.pop(I32)
            default_label = ctx.label(default)
            default_types = default_label.label_types
            labels = []
            for t in targets:
                label = ctx.label(t)
                if label.label_types != default_types:
                    raise ValidationError("br_table targets have mismatched types")
                labels.append(_label(label))
            refs[pc] = (labels, _label(default_label), None if dead else len(stack))
            for vt in reversed(default_types):
                ctx.pop(vt)
            ctx.set_unreachable()
            dead = True
        elif opcode == op.RETURN:
            for vt in reversed(ctx.result):
                ctx.pop(vt)
            ctx.set_unreachable()
            dead = True
        elif opcode == op.CALL:
            if imm >= mod.total_funcs:
                raise ValidationError(f"call to unknown function {imm}")
            ft = mod.func_type(imm)
            for vt in reversed(ft.params):
                ctx.pop(vt)
            for vt in ft.results:
                ctx.push(vt)
        elif opcode == op.CALL_INDIRECT:
            if not _has_table(mod):
                raise ValidationError("call_indirect without a table")
            if imm >= len(mod.types):
                raise ValidationError(f"call_indirect unknown type {imm}")
            ctx.pop(I32)
            ft = mod.types[imm]
            for vt in reversed(ft.params):
                ctx.pop(vt)
            for vt in ft.results:
                ctx.push(vt)
        elif opcode == op.DROP:
            ctx.pop()
        elif opcode == op.SELECT:
            ctx.pop(I32)
            a = ctx.pop()
            b = ctx.pop(a)
            ctx.push(b if b is not _UNKNOWN else a)
        elif opcode == op.LOCAL_GET:
            if imm >= len(locals_):
                raise ValidationError(f"unknown local {imm}")
            ctx.push(locals_[imm])
        elif opcode == op.LOCAL_SET:
            if imm >= len(locals_):
                raise ValidationError(f"unknown local {imm}")
            ctx.pop(locals_[imm])
        elif opcode == op.LOCAL_TEE:
            if imm >= len(locals_):
                raise ValidationError(f"unknown local {imm}")
            ctx.pop(locals_[imm])
            ctx.push(locals_[imm])
        elif opcode == op.GLOBAL_GET:
            if imm >= len(global_types):
                raise ValidationError(f"unknown global {imm}")
            ctx.push(global_types[imm].valtype)
        elif opcode == op.GLOBAL_SET:
            if imm >= len(global_types):
                raise ValidationError(f"unknown global {imm}")
            if not global_types[imm].mutable:
                raise ValidationError(f"global {imm} is immutable")
            ctx.pop(global_types[imm].valtype)
        elif opcode in _MEM_OPS:
            if not _has_memory(mod):
                raise ValidationError("memory instruction without a memory")
            vt, size, is_store = _MEM_OPS[opcode]
            align, _offset = imm
            if 1 << align > size:
                raise ValidationError(
                    f"alignment 2**{align} larger than access size {size}"
                )
            if is_store:
                ctx.pop(vt)
                ctx.pop(I32)
            else:
                ctx.pop(I32)
                ctx.push(vt)
        elif opcode == op.MEMORY_SIZE:
            if not _has_memory(mod):
                raise ValidationError("memory.size without a memory")
            ctx.push(I32)
        elif opcode == op.MEMORY_GROW:
            if not _has_memory(mod):
                raise ValidationError("memory.grow without a memory")
            ctx.pop(I32)
            ctx.push(I32)
        elif opcode == op.I32_CONST:
            ctx.push(I32)
        elif opcode == op.I64_CONST:
            ctx.push(I64)
        elif opcode == op.F32_CONST:
            ctx.push(F32)
        elif opcode == op.F64_CONST:
            ctx.push(F64)
        elif opcode in _SIGS:
            ins, out = _SIGS[opcode]
            for vt in reversed(ins):
                ctx.pop(vt)
            ctx.push(out)
        else:
            raise ValidationError(f"unvalidatable opcode 0x{opcode:02x}")

    if ctx.frames:
        raise ValidationError("function body missing end")

    branches: dict[int, object] = {}
    jump_targets = set(loop_heads)
    for pc, ref in refs.items():
        opcode = body[pc][0]
        if opcode == op.IF:
            landing = ref.end if ref.else_pc is None else ref.else_pc + 1
            branches[pc] = landing
            jump_targets.add(landing)
        elif opcode == op.ELSE:
            branches[pc] = ref.end
            jump_targets.add(ref.end)
        elif opcode == op.BR_TABLE:
            labels, default, height = ref
            resolved = [_resolve(label) for label in labels]
            branches[pc] = (resolved, _resolve(default), height)
            jump_targets.update(res[0] for res in resolved)
            jump_targets.add(branches[pc][1][0])
        else:
            branches[pc] = _resolve(ref)
            jump_targets.add(branches[pc][0])
    object.__setattr__(
        code, "_facts", BodyFacts(heights, ends, branches, jump_targets, peak)
    )


def validate_module(mod: Module) -> None:
    """Validate an entire module; raises :class:`ValidationError` on failure."""
    for type_index in mod.funcs:
        if type_index >= len(mod.types):
            raise ValidationError(f"function type index {type_index} out of range")
    for imp in mod.imports:
        if imp.kind == "func" and imp.desc >= len(mod.types):
            raise ValidationError(
                f"import {imp.module}.{imp.name} type index out of range"
            )

    if len(mod.mems) + mod.num_imported_mems > 1:
        raise ValidationError("at most one memory is allowed (MVP)")
    if len(mod.tables) + mod.num_imported_tables > 1:
        raise ValidationError("at most one table is allowed (MVP)")

    n_imported_globals = mod.num_imported_globals
    for i, glob in enumerate(mod.globals):
        _validate_const_expr(mod, glob.init, glob.gtype.valtype, n_imported_globals)

    counts = {
        "func": mod.total_funcs,
        "table": len(mod.tables) + mod.num_imported_tables,
        "mem": len(mod.mems) + mod.num_imported_mems,
        "global": n_imported_globals + len(mod.globals),
    }
    for export in mod.exports:
        if export.index >= counts[export.kind]:
            raise ValidationError(
                f"export {export.name!r}: {export.kind} index {export.index} "
                f"out of range"
            )

    if mod.start is not None:
        if mod.start >= mod.total_funcs:
            raise ValidationError(f"start function {mod.start} out of range")
        ft = mod.func_type(mod.start)
        if ft.params or ft.results:
            raise ValidationError("start function must have type [] -> []")

    for elem in mod.elems:
        if not _has_table(mod):
            raise ValidationError("element segment without a table")
        _validate_const_expr(mod, elem.offset, I32, n_imported_globals)
        for func_index in elem.func_indices:
            if func_index >= mod.total_funcs:
                raise ValidationError(f"element function {func_index} out of range")

    for seg in mod.datas:
        if not _has_memory(mod):
            raise ValidationError("data segment without a memory")
        _validate_const_expr(mod, seg.offset, I32, n_imported_globals)

    n_imported_funcs = mod.num_imported_funcs
    for i, code in enumerate(mod.codes):
        func_type = mod.func_type(n_imported_funcs + i)
        try:
            _validate_body(mod, func_type, code)
        except ValidationError as exc:
            raise ValidationError(f"in function {n_imported_funcs + i}: {exc}") from None
