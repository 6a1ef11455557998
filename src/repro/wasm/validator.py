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

from dataclasses import dataclass

from repro.wasm import opcodes as op
from repro.wasm.opcodes import (
    BLOCK, BR, BR_IF, BR_TABLE, CALL, CALL_INDIRECT, DROP, ELSE, END, GLOBAL_GET,
    GLOBAL_SET, IF, LOCAL_GET, LOCAL_SET, LOCAL_TEE, LOOP, NOP, RETURN, SELECT,
    UNREACHABLE,
)
from repro.wasm.module import Code, Instr, Module
from repro.wasm.traps import ValidationError
from repro.wasm.wtypes import FuncType, GlobalType, ValType

I32 = ValType.I32

#: sentinel for a value of unknown type on a polymorphic (unreachable) stack
_UNKNOWN = None


@dataclass(slots=True)
class _Frame:
    """One control-stack entry: a block, loop or if (its else arm re-enters
    the if's frame) or the function body.  MVP block types take no
    operands, so a frame is entered with nothing on top of ``height``."""

    opcode: int  # BLOCK / LOOP / IF / ELSE / or 0 for the function body
    end_types: tuple[ValType, ...]
    #: what a branch to its label carries: a branch to a loop re-enters the
    #: top, which takes no operands
    label_types: tuple[ValType, ...]
    height: int
    start: int = -1  # pc of the block / loop / if (-1: the function body)
    dead: bool = False  # opened in code no execution reaches
    unreachable: bool = False
    else_pc: int | None = None
    end: int = -1  # pc of its end, once seen

    @property
    def target(self) -> int:
        """The pc a branch to this frame's label lands on."""
        return self.start + 1 if self.opcode == LOOP else self.end + 1


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


class _Ctx:
    """Validation context for one function body: the spec's operand and
    control stacks.  The body pass keeps the operand stack itself where a
    check is certain to pass, and calls :meth:`pop` for the rest."""

    __slots__ = ("stack", "frames")

    def __init__(self, results: tuple[ValType, ...]):
        self.stack: list = []
        self.frames = [_Frame(0, results, results, 0)]

    # ----- operand stack ----------------------------------------------------

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

    def pop_types(self, types: tuple[ValType, ...]) -> None:
        """Pop ``types`` (deepest first): one compare when the live stack's
        top is exactly them, nothing when the stack is polymorphic and
        empty (every pop passes), the spec's pops one by one otherwise."""
        stack, frame = self.stack, self.frames[-1]
        keep = len(stack) - len(types)
        if keep >= frame.height and tuple(stack[keep:]) == types:
            del stack[keep:]
        elif not (frame.unreachable and len(stack) == frame.height):
            for vt in reversed(types):
                self.pop(vt)

    # ----- control stack ----------------------------------------------------

    def pop_results(self) -> None:
        """Pop the innermost frame's results, which must be all it holds."""
        frame = self.frames[-1]
        self.pop_types(frame.end_types)
        if len(self.stack) != frame.height:
            raise ValidationError("type mismatch: values left on stack at block end")

    def set_unreachable(self) -> None:
        frame = self.frames[-1]
        del self.stack[frame.height :]
        frame.unreachable = True

    def label(self, depth: int) -> _Frame:
        if depth >= len(self.frames):
            raise ValidationError(f"unknown label depth {depth}")
        return self.frames[-1 - depth]


def _validate_const_expr(
    expr: tuple[Instr, ...], expected: ValType, imported_globals: list[GlobalType]
) -> None:
    """Constant expressions: a single const/global.get followed by end."""
    if len(expr) != 2 or expr[-1][0] != END:
        raise ValidationError("constant expression must be one instruction plus end")
    opcode, imm = expr[0]
    if opcode in op.CONST_OPS:
        (actual,) = op.OP_TABLE[opcode].out
    elif opcode == GLOBAL_GET:
        if imm >= len(imported_globals):
            raise ValidationError(
                "constant expression may only reference imported globals"
            )
        gt = imported_globals[imm]
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


def _row(info: op.OpInfo) -> tuple:
    """What the body pass reads of one opcode's row: its scan ``delta``;
    for a fixed-shape opcode its ``ins`` as a list (a live stack's top is
    checked with one slice compare) and ``out``; for a memory opcode the
    error when the module has no memory and its :class:`MemAccess`."""
    if info.ins is None:
        return info.delta, None, (), None
    memory = None
    if info.imm in ("mem", "mem_misc"):
        memory = ("memory instruction without a memory" if info.mem
                  else f"{info.name} without a memory"), info.mem
    return info.delta, list(info.ins), info.out, memory


#: by opcode; one the table lacks gets a not-fixed-shape row, which no
#: branch of the body pass takes
_ROWS = [
    _row(op.OP_TABLE.get(code, op.OpInfo("", "none"))) for code in range(256)
]


def _validate_body(env: tuple, func_type: FuncType, code: Code) -> None:
    """Type-check one body and, if it passes, record its :class:`BodyFacts`.

    ``env`` is what a body may refer to, resolved once per module: the
    function and global types by index (imports first), the module's
    types, and whether it has a memory and a table.  A fixed-shape opcode
    and the local ops are checked in line against the live stack; whatever
    that check cannot settle (underflow, a mismatch, an unknown-typed
    value) goes to :meth:`_Ctx.pop`, which raises or accepts exactly as
    the spec's algorithm does."""
    funcs, global_types, functypes, has_memory, has_table = env
    locals_ = tuple(func_type.params) + code.locals
    n_locals = len(locals_)
    results = func_type.results
    ctx = _Ctx(results)
    stack, frames = ctx.stack, ctx.frames
    height = 0  # the innermost frame's
    body = code.body
    rows = _ROWS

    heights: list[int | None] = [None] * len(body)
    ends: dict[int, tuple[int, int | None]] = {}
    #: per control instruction, its frame(s); targets resolve once every
    #: block has seen its end
    refs: dict[int, object] = {}
    loop_heads: list[int] = []
    dead = False  # no execution reaches the current pc
    scan = peak = 0

    for pc, (opcode, imm) in enumerate(body):
        size = len(stack)
        if not dead:
            heights[pc] = size
        try:
            delta, ins, out, memory = rows[opcode]
        except IndexError:
            raise ValidationError(f"unvalidatable opcode 0x{opcode:02x}") from None
        scan += delta
        if scan < 0:
            scan = 0
        elif scan > peak:
            peak = scan

        if ins is not None:  # fixed shape: the row says it all
            if memory is not None:
                no_memory, access = memory
                if not has_memory:
                    raise ValidationError(no_memory)
                if access is not None and imm[0] > access.align:
                    raise ValidationError(
                        f"alignment 2**{imm[0]} larger than access size {access.size}"
                    )
            if ins:
                keep = size - len(ins)
                if keep >= height and stack[keep:] == ins:
                    del stack[keep:]
                else:
                    for vt in reversed(ins):
                        ctx.pop(vt)
            stack += out
        elif opcode == LOCAL_GET:
            if imm >= n_locals:
                raise ValidationError(f"unknown local {imm}")
            stack.append(locals_[imm])
        elif opcode == END:
            frame = frames[-1]
            types = frame.end_types
            if frame.opcode == IF and types:
                raise ValidationError("if without else must have matching types")
            if tuple(stack[height:]) != types:  # not exactly the results
                ctx.pop_results()
                stack += types
            frames.pop()
            frame.end = pc
            dead = frame.dead
            if not frames:
                if pc != len(body) - 1:
                    raise ValidationError("instructions after the function end")
                break
            height = frames[-1].height
            ends[frame.start] = (pc, frame.else_pc)
            if frame.else_pc is not None:
                ends[frame.else_pc] = (pc, frame.else_pc)
        elif opcode == LOCAL_SET or opcode == LOCAL_TEE:
            if imm >= n_locals:
                raise ValidationError(f"unknown local {imm}")
            vt = locals_[imm]
            if len(stack) > height and stack[-1] is vt:
                if opcode == LOCAL_SET:
                    stack.pop()
            else:
                ctx.pop(vt)
                if opcode == LOCAL_TEE:
                    stack.append(vt)
        elif opcode == IF or opcode == BLOCK or opcode == LOOP:
            if opcode == IF:
                if len(stack) > height and stack[-1] is I32:
                    stack.pop()
                else:
                    ctx.pop(I32)
            types = () if imm is None else (imm,)
            height = len(stack)
            frame = _Frame(opcode, types, () if opcode == LOOP else types,
                           height, pc, dead)
            frames.append(frame)
            if opcode == IF:
                refs[pc] = frame
            elif opcode == LOOP:
                loop_heads.append(pc + 1)
        elif opcode == UNREACHABLE:
            ctx.set_unreachable()
            dead = True
        elif opcode == RETURN:
            ctx.pop_types(results)
            ctx.set_unreachable()
            dead = True
        elif opcode == CALL or opcode == CALL_INDIRECT:
            if opcode == CALL:
                if imm >= len(funcs):
                    raise ValidationError(f"call to unknown function {imm}")
                ft = funcs[imm]
            else:
                if not has_table:
                    raise ValidationError("call_indirect without a table")
                if imm >= len(functypes):
                    raise ValidationError(f"call_indirect unknown type {imm}")
                ctx.pop(I32)
                ft = functypes[imm]
            ctx.pop_types(ft.params)
            stack += ft.results
        elif opcode == GLOBAL_GET:
            if imm >= len(global_types):
                raise ValidationError(f"unknown global {imm}")
            stack.append(global_types[imm].valtype)
        elif opcode == BR or opcode == BR_IF:
            if opcode == BR_IF:
                if len(stack) > height and stack[-1] is I32:
                    stack.pop()
                else:
                    ctx.pop(I32)
            label = ctx.label(imm)
            refs[pc] = _label(label)
            types = label.label_types
            ctx.pop_types(types)
            if opcode == BR:
                ctx.set_unreachable()
                dead = True
            else:
                stack += types
        elif opcode == GLOBAL_SET:
            if imm >= len(global_types):
                raise ValidationError(f"unknown global {imm}")
            if not global_types[imm].mutable:
                raise ValidationError(f"global {imm} is immutable")
            ctx.pop(global_types[imm].valtype)
        elif opcode == ELSE:
            frame = frames[-1]
            if frame.opcode != IF:
                raise ValidationError("else without matching if")
            ctx.pop_results()
            # re-enter as the else arm; mark it ELSE so a second else fails
            frame.opcode, frame.unreachable, frame.else_pc = ELSE, False, pc
            refs[pc] = frame
            dead = frame.dead
        elif opcode == DROP:
            if len(stack) > height:
                stack.pop()
            else:
                ctx.pop()
        elif opcode == SELECT:
            ctx.pop(I32)
            a = ctx.pop()
            b = ctx.pop(a)
            stack.append(b if b is not _UNKNOWN else a)
        elif opcode == BR_TABLE:
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
            ctx.pop_types(default_types)
            ctx.set_unreachable()
            dead = True
        elif opcode != NOP:
            raise ValidationError(f"unvalidatable opcode 0x{opcode:02x}")

    if frames:
        raise ValidationError("function body missing end")

    branches: dict[int, object] = {}
    jump_targets = set(loop_heads)
    for pc, ref in refs.items():
        opcode = body[pc][0]
        if opcode == IF:
            landing = ref.end if ref.else_pc is None else ref.else_pc + 1
            branches[pc] = landing
            jump_targets.add(landing)
        elif opcode == ELSE:
            branches[pc] = ref.end
            jump_targets.add(ref.end)
        elif opcode == BR_TABLE:
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

    imported = {kind: mod.imported(kind) for kind in ("func", "table", "mem", "global")}
    n_tables = len(mod.tables) + len(imported["table"])
    n_mems = len(mod.mems) + len(imported["mem"])
    if n_mems > 1:
        raise ValidationError("at most one memory is allowed (MVP)")
    if n_tables > 1:
        raise ValidationError("at most one table is allowed (MVP)")
    func_types = [
        mod.types[index]
        for index in (*(imp.desc for imp in imported["func"]), *mod.funcs)
    ]
    imported_globals = [imp.desc for imp in imported["global"]]
    global_types = imported_globals + [g.gtype for g in mod.globals]

    for glob in mod.globals:
        _validate_const_expr(glob.init, glob.gtype.valtype, imported_globals)

    counts = {"func": len(func_types), "table": n_tables, "mem": n_mems,
              "global": len(global_types)}
    for export in mod.exports:
        if export.index >= counts[export.kind]:
            raise ValidationError(
                f"export {export.name!r}: {export.kind} index {export.index} "
                f"out of range"
            )

    if mod.start is not None:
        if mod.start >= len(func_types):
            raise ValidationError(f"start function {mod.start} out of range")
        ft = func_types[mod.start]
        if ft.params or ft.results:
            raise ValidationError("start function must have type [] -> []")

    for elem in mod.elems:
        if not n_tables:
            raise ValidationError("element segment without a table")
        _validate_const_expr(elem.offset, I32, imported_globals)
        for func_index in elem.func_indices:
            if func_index >= len(func_types):
                raise ValidationError(f"element function {func_index} out of range")

    for seg in mod.datas:
        if not n_mems:
            raise ValidationError("data segment without a memory")
        _validate_const_expr(seg.offset, I32, imported_globals)

    env = (func_types, global_types, mod.types, n_mems > 0, n_tables > 0)
    n_imported_funcs = len(imported["func"])
    for i, code in enumerate(mod.codes):
        try:
            _validate_body(env, func_types[n_imported_funcs + i], code)
        except ValidationError as exc:
            raise ValidationError(f"in function {n_imported_funcs + i}: {exc}") from None
