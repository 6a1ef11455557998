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

I32 = ValType.I32

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
      per-instruction stack effects (each opcode row's ``delta``: calls
      count +1, branch targets ignored, clamped at zero): an upper bound,
      not the exact peak.
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
    if opcode in op.CONST_OPS:
        (actual,) = op.OP_TABLE[opcode].out
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
    has_memory = _has_memory(mod)

    for pc, (opcode, imm) in enumerate(body):
        heights.append(None if dead else len(stack))
        info = op.OP_TABLE.get(opcode)
        if info is None:
            raise ValidationError(f"unvalidatable opcode 0x{opcode:02x}")
        scan += info.delta
        if scan < 0:
            scan = 0
        elif scan > peak:
            peak = scan

        if info.ins is not None:  # fixed shape: the row says it all
            if info.imm in ("mem", "mem_misc") and not has_memory:
                raise ValidationError(
                    f"{info.name} without a memory" if info.mem is None
                    else "memory instruction without a memory"
                )
            access = info.mem
            if access is not None and imm[0] > access.align:
                raise ValidationError(
                    f"alignment 2**{imm[0]} larger than access size {access.size}"
                )
            for vt in reversed(info.ins):
                ctx.pop(vt)
            stack.extend(info.out)
        elif opcode == op.UNREACHABLE:
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
