"""Threaded-code backend: function bodies compiled to pre-bound closures.

The legacy interpreter (:mod:`repro.wasm.interpreter`) dispatches through
a tag ``elif`` ladder and resolves branch label heights at run time.  This
module is the wasm3-style alternative: a one-time per-function translation
pass lowers each body into a flat array of Python closures, one per
original instruction slot, where

- every handler is pre-bound: immediates, numeric handler functions and
  the *next pc* live in closure cells, so the hot loop is just
  ``pc = slots[pc](stack, locals_, frame)`` - no opcode decode, no tag
  compare chain;
- all control flow is resolved at compile time: branch targets, the
  stack height to truncate to and the branch arity come from a static
  stack-height analysis (validated Wasm has a fixed operand-stack height
  at every reachable program point), so there is no label stack at all;
- dominant instruction sequences are fused into **superinstructions**
  (``local.get local.get <binop>``, ``<const> <binop>``,
  ``local.get <const> i32.add <load>`` with a folded effective address,
  ``<cmp> br_if``, ``local.set local.get`` as a tee, and friends), each
  executing several original instructions in one dispatch.

Semantics are bit-identical to the legacy engine by construction: traps,
trap codes, :class:`~repro.wasm.interpreter.ExecStats` and fuel are
preserved exactly - fuel is charged per *original* instruction (a fused
slot carries the cost of every instruction it covers), so
retired-instruction counts stay comparable across engines.  Fusion never
covers a group whose interior is a branch target, and an instruction that
can trap is only fused in the *final* position of its group so the fuel
charged at trap time matches the legacy engine to the unit.

Engine selection: ``REPRO_WASM_ENGINE=legacy|threaded|aot`` (default
:data:`DEFAULT_ENGINE`), overridable per
:class:`~repro.wasm.instance.Instance` via its ``engine=`` argument for
differential testing.  At this layer every engine is pure; the plugin
host (:class:`repro.abi.host.PluginHost`) reads ``aot`` as "threaded
until the binary has earned its compile" - threaded code is the cold
tier of the default engine.
"""

from __future__ import annotations

import os

from repro.wasm import opcodes as op
from repro.wasm.interpreter import (
    BINOPS,
    LOADS,
    MASK32,
    MASK64,
    STORES,
    UNOPS,
    control_map_for,
    f32_round,
    prepared_for,
)
from repro.wasm.loader import load_module
from repro.wasm.module import Code, Module
from repro.wasm.traps import FuelExhausted, StackExhausted, Trap
from repro.wasm.wtypes import FuncType

# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------

ENGINES = ("threaded", "legacy", "aot")
DEFAULT_ENGINE = "aot"


def resolve_engine(engine: str | None = None) -> str:
    """Resolve the engine name: explicit arg > ``REPRO_WASM_ENGINE`` > default."""
    name = engine or os.environ.get("REPRO_WASM_ENGINE") or DEFAULT_ENGINE
    name = name.strip().lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown wasm engine {name!r} (expected one of {', '.join(ENGINES)})"
        )
    return name


# ---------------------------------------------------------------------------
# static analysis: stack heights and fully resolved branches
# ---------------------------------------------------------------------------

_CONST_OPS = {op.I32_CONST, op.I64_CONST, op.F32_CONST, op.F64_CONST}

#: integer ops that can trap mid-stream; only fusable in final position
_TRAPPING_BINOPS = {
    op.I32_DIV_S, op.I32_DIV_U, op.I32_REM_S, op.I32_REM_U,
    op.I64_DIV_S, op.I64_DIV_U, op.I64_REM_S, op.I64_REM_U,
}
_TRAPPING_UNOPS = {
    op.I32_TRUNC_F32_S, op.I32_TRUNC_F32_U, op.I32_TRUNC_F64_S,
    op.I32_TRUNC_F64_U, op.I64_TRUNC_F32_S, op.I64_TRUNC_F32_U,
    op.I64_TRUNC_F64_S, op.I64_TRUNC_F64_U,
}


def _const_value(opcode: int, imm):
    if opcode == op.I32_CONST:
        return imm & MASK32
    if opcode == op.I64_CONST:
        return imm & MASK64
    if opcode == op.F32_CONST:
        return f32_round(imm)
    return imm


class _CtrlFrame:
    """Compile-time control frame: enough to resolve any branch statically."""

    __slots__ = ("kind", "entry", "arity", "target", "label_arity", "dead_entry")

    def __init__(self, kind: int, entry: int, arity: int, target: int,
                 dead_entry: bool = False):
        self.kind = kind  # op.BLOCK / op.LOOP / op.IF / 0 for the function
        self.entry = entry  # operand-stack height at block entry
        self.arity = arity  # block *result* arity (for the height after end)
        self.target = target  # pc a branch to this label jumps to
        # a branch to a loop re-enters the top and carries no values
        self.label_arity = 0 if kind == op.LOOP else arity
        # was the enclosing code already unreachable when this frame opened?
        # (the end of a block you cannot enter is itself unreachable)
        self.dead_entry = dead_entry


def _analyze(module: Module, code: Code, result_arity: int):
    """One linear pass: per-pc static stack heights + resolved branches.

    Returns ``(heights, branches, jump_targets)`` where ``heights[pc]`` is
    the operand-stack height *before* pc (``None`` in validator-unreachable
    code, which can never execute), ``branches[pc]`` holds resolved
    ``(target, arity, dest_height)`` data for control instructions, and
    ``jump_targets`` is the set of pcs control can reach non-sequentially
    (fusion must not swallow one into a group's interior).
    """
    body = code.body
    n = len(body)
    control = control_map_for(code)
    heights: list[int | None] = [None] * n
    branches: dict[int, object] = {}
    jump_targets: set[int] = set()

    frames = [_CtrlFrame(0, 0, result_arity, n)]
    height = 0
    unreachable = False

    def _resolve(depth: int) -> tuple[int, int, int]:
        fr = frames[-1 - depth]
        jump_targets.add(fr.target)
        return (fr.target, fr.label_arity, fr.entry)

    for pc, (opcode, imm) in enumerate(body):
        heights[pc] = None if unreachable else height
        if opcode == op.BLOCK:
            end_pc, _ = control[pc]
            frames.append(_CtrlFrame(
                op.BLOCK, height, 0 if imm is None else 1, end_pc + 1, unreachable
            ))
        elif opcode == op.LOOP:
            frames.append(_CtrlFrame(
                op.LOOP, height, 0 if imm is None else 1, pc + 1, unreachable
            ))
            jump_targets.add(pc + 1)
        elif opcode == op.IF:
            if not unreachable:
                height -= 1
            end_pc, else_pc = control[pc]
            false_target = (else_pc + 1) if else_pc is not None else end_pc
            branches[pc] = false_target
            jump_targets.add(false_target)
            frames.append(_CtrlFrame(
                op.IF, height, 0 if imm is None else 1, end_pc + 1, unreachable
            ))
        elif opcode == op.ELSE:
            fr = frames[-1]
            height = fr.entry
            unreachable = fr.dead_entry
            end_pc = fr.target - 1
            branches[pc] = end_pc
            jump_targets.add(end_pc)
        elif opcode == op.END:
            fr = frames.pop() if len(frames) > 1 else frames[0]
            height = fr.entry + fr.arity
            unreachable = fr.dead_entry
        elif opcode == op.BR:
            branches[pc] = _resolve(imm)
            height = frames[-1].entry
            unreachable = True
        elif opcode == op.BR_IF:
            if not unreachable:
                height -= 1
            branches[pc] = _resolve(imm)
        elif opcode == op.BR_TABLE:
            targets, default = imm
            if not unreachable:
                height -= 1
            branches[pc] = (
                [_resolve(t) for t in targets],
                _resolve(default),
                height if not unreachable else None,
            )
            height = frames[-1].entry
            unreachable = True
        elif opcode == op.RETURN:
            height = frames[-1].entry
            unreachable = True
        elif opcode == op.UNREACHABLE:
            height = frames[-1].entry
            unreachable = True
        elif unreachable:
            continue
        elif opcode == op.CALL:
            ft = module.func_type(imm)
            height += len(ft.results) - len(ft.params)
        elif opcode == op.CALL_INDIRECT:
            ft = module.types[imm]
            height += len(ft.results) - len(ft.params) - 1
        elif opcode in (op.LOCAL_GET, op.GLOBAL_GET, op.MEMORY_SIZE):
            height += 1
        elif opcode in _CONST_OPS:
            height += 1
        elif opcode in BINOPS or opcode in (op.LOCAL_SET, op.GLOBAL_SET, op.DROP):
            height -= 1
        elif opcode in STORES or opcode == op.SELECT:
            height -= 2
        # unops, local.tee, loads, memory.grow, nop: net zero

    return heights, branches, jump_targets


# ---------------------------------------------------------------------------
# closure emitters (one small factory per slot shape)
# ---------------------------------------------------------------------------


def _dead_slot(stack, locals_, frame):  # pragma: no cover - unreachable code
    raise AssertionError("threaded code entered an unreachable slot")


def _e_nop(nxt):
    def run(stack, locals_, frame):
        return nxt
    return run


def _e_local_get(i, nxt):
    def run(stack, locals_, frame):
        stack.append(locals_[i])
        return nxt
    return run


def _e_local_get2(a, b, nxt):
    def run(stack, locals_, frame):
        stack.append(locals_[a])
        stack.append(locals_[b])
        return nxt
    return run


def _e_const(c, nxt):
    def run(stack, locals_, frame):
        stack.append(c)
        return nxt
    return run


def _e_local_set(i, nxt):
    def run(stack, locals_, frame):
        locals_[i] = stack.pop()
        return nxt
    return run


def _e_local_tee(i, nxt):
    def run(stack, locals_, frame):
        locals_[i] = stack[-1]
        return nxt
    return run


def _e_const_set(c, i, nxt):
    def run(stack, locals_, frame):
        locals_[i] = c
        return nxt
    return run


def _e_binop(f, nxt):
    def run(stack, locals_, frame):
        b = stack.pop()
        stack[-1] = f(stack[-1], b)
        return nxt
    return run


def _e_unop(f, nxt):
    def run(stack, locals_, frame):
        stack[-1] = f(stack[-1])
        return nxt
    return run


def _e_ll_binop(a, b, f, nxt):
    def run(stack, locals_, frame):
        stack.append(f(locals_[a], locals_[b]))
        return nxt
    return run


def _e_lc_binop(a, c, f, nxt):
    def run(stack, locals_, frame):
        stack.append(f(locals_[a], c))
        return nxt
    return run


def _e_c_binop(c, f, nxt):
    def run(stack, locals_, frame):
        stack[-1] = f(stack[-1], c)
        return nxt
    return run


def _e_ll_binop_set(a, b, f, d, nxt):
    def run(stack, locals_, frame):
        locals_[d] = f(locals_[a], locals_[b])
        return nxt
    return run


def _e_lc_binop_set(a, c, f, d, nxt):
    def run(stack, locals_, frame):
        locals_[d] = f(locals_[a], c)
        return nxt
    return run


def _e_ll_binop_br_if(a, b, f, t, nxt):
    def run(stack, locals_, frame):
        if f(locals_[a], locals_[b]):
            return t
        return nxt
    return run


def _e_lc_binop_br_if(a, c, f, t, nxt):
    def run(stack, locals_, frame):
        if f(locals_[a], c):
            return t
        return nxt
    return run


def _e_binop_br_if(f, t, nxt):
    def run(stack, locals_, frame):
        b = stack.pop()
        if f(stack.pop(), b):
            return t
        return nxt
    return run


def _e_unop_br_if(f, t, nxt):
    def run(stack, locals_, frame):
        if f(stack.pop()):
            return t
        return nxt
    return run


# ----- memory ---------------------------------------------------------------


def _e_load_i(off, size, signed, mask, nxt):
    def run(stack, locals_, frame):
        stack[-1] = frame.mem.load_int(stack[-1] + off, size, signed) & mask
        return nxt
    return run


def _e_load_i_local(a, off, size, signed, mask, nxt):
    def run(stack, locals_, frame):
        stack.append(frame.mem.load_int(locals_[a] + off, size, signed) & mask)
        return nxt
    return run


def _e_load_i_local_const(a, c, off, size, signed, mask, nxt):
    def run(stack, locals_, frame):
        addr = ((locals_[a] + c) & MASK32) + off
        stack.append(frame.mem.load_int(addr, size, signed) & mask)
        return nxt
    return run


def _e_load_f32(off, nxt):
    def run(stack, locals_, frame):
        stack[-1] = frame.mem.load_f32(stack[-1] + off)
        return nxt
    return run


def _e_load_f32_local(a, off, nxt):
    def run(stack, locals_, frame):
        stack.append(frame.mem.load_f32(locals_[a] + off))
        return nxt
    return run


def _e_load_f64(off, nxt):
    def run(stack, locals_, frame):
        stack[-1] = frame.mem.load_f64(stack[-1] + off)
        return nxt
    return run


def _e_load_f64_local(a, off, nxt):
    def run(stack, locals_, frame):
        stack.append(frame.mem.load_f64(locals_[a] + off))
        return nxt
    return run


def _e_store_i(off, size, nxt):
    def run(stack, locals_, frame):
        value = stack.pop()
        frame.mem.store_int(stack.pop() + off, value, size)
        return nxt
    return run


def _e_store_f32(off, nxt):
    def run(stack, locals_, frame):
        value = stack.pop()
        frame.mem.store_f32(stack.pop() + off, value)
        return nxt
    return run


def _e_store_f64(off, nxt):
    def run(stack, locals_, frame):
        value = stack.pop()
        frame.mem.store_f64(stack.pop() + off, value)
        return nxt
    return run


def _e_memory_size(nxt):
    def run(stack, locals_, frame):
        stack.append(frame.mem.size_pages)
        return nxt
    return run


def _e_memory_grow(nxt):
    def run(stack, locals_, frame):
        stack[-1] = frame.mem.grow(stack[-1]) & MASK32
        return nxt
    return run


# ----- globals / parametric -------------------------------------------------


def _e_global_get(i, nxt):
    def run(stack, locals_, frame):
        stack.append(frame.globals[i].value)
        return nxt
    return run


def _e_global_set(i, nxt):
    def run(stack, locals_, frame):
        frame.globals[i].value = stack.pop()
        return nxt
    return run


def _e_drop(nxt):
    def run(stack, locals_, frame):
        stack.pop()
        return nxt
    return run


def _e_select(nxt):
    def run(stack, locals_, frame):
        cond = stack.pop()
        b = stack.pop()
        if not cond:
            stack[-1] = b
        return nxt
    return run


# ----- control --------------------------------------------------------------


def _e_jump(t):
    def run(stack, locals_, frame):
        return t
    return run


def _e_br_trunc(t, h, arity):
    if arity:
        def run(stack, locals_, frame):
            v = stack[-1]
            del stack[h:]
            stack.append(v)
            return t
    else:
        def run(stack, locals_, frame):
            del stack[h:]
            return t
    return run


def _e_br_if_fast(t, nxt):
    def run(stack, locals_, frame):
        if stack.pop():
            return t
        return nxt
    return run


def _e_br_if_trunc(t, h, arity, nxt):
    if arity:
        def run(stack, locals_, frame):
            if stack.pop():
                v = stack[-1]
                del stack[h:]
                stack.append(v)
                return t
            return nxt
    else:
        def run(stack, locals_, frame):
            if stack.pop():
                del stack[h:]
                return t
            return nxt
    return run


def _e_if(false_target, nxt):
    def run(stack, locals_, frame):
        if stack.pop():
            return nxt
        return false_target
    return run


def _e_br_table(resolved, default):
    n_targets = len(resolved)

    def run(stack, locals_, frame):
        index = stack.pop()
        target, fixup = resolved[index] if index < n_targets else default
        if fixup is None:
            return target
        h, arity = fixup
        if arity:
            v = stack[-1]
            del stack[h:]
            stack.append(v)
        else:
            del stack[h:]
        return target
    return run


def _e_unreachable(stack, locals_, frame):
    raise Trap("unreachable executed", code="unreachable")


def _e_call(func_index, nxt):
    def run(stack, locals_, frame):
        store = frame.store
        fuel = frame.fuel
        if fuel is not None:
            store.fuel = fuel
        # invoke_addr directly (not invoke_index) so a wasm call costs the
        # same number of Python frames as in the legacy engine - deep
        # plugin recursion must hit StackExhausted, not RecursionError
        instance = frame.instance
        results = instance.invoke_addr(
            instance.func_addrs[func_index], stack, frame.depth + 1
        )
        if fuel is not None:
            frame.fuel = store.fuel
        stack.extend(results)
        return nxt
    return run


def _e_call_indirect(expected: FuncType, nxt):
    def run(stack, locals_, frame):
        elem_index = stack.pop()
        instance = frame.instance
        table = instance.table
        if table is None or elem_index >= len(table.elements):
            raise Trap("undefined element", code="table_oob")
        func_addr = table.elements[elem_index]
        if func_addr is None:
            raise Trap("uninitialized element", code="table_null")
        store = frame.store
        actual = store.funcs[func_addr].functype
        if actual != expected:
            raise Trap(
                f"indirect call type mismatch: {actual} != {expected}",
                code="sig",
            )
        fuel = frame.fuel
        if fuel is not None:
            store.fuel = fuel
        results = instance.invoke_addr(func_addr, stack, frame.depth + 1)
        if fuel is not None:
            frame.fuel = store.fuel
        stack.extend(results)
        return nxt
    return run


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class ThreadedCode:
    """One function body lowered to a flat closure array.

    ``slots[pc]`` executes the instruction(s) at ``pc`` and returns the
    next pc; ``costs[pc]`` is the fuel charge (== number of original
    instructions the slot retires); ``descs[pc]`` is a human-readable
    mnemonic for ``repro disasm --threaded``.
    """

    __slots__ = (
        "slots", "costs", "descs", "local_defaults", "max_stack",
        "n_instrs", "n_fused",
    )

    def __init__(self, slots, costs, descs, local_defaults, max_stack):
        self.slots = slots
        self.costs = costs
        self.descs = descs
        self.local_defaults = local_defaults
        self.max_stack = max_stack
        self.n_instrs = len(slots)
        self.n_fused = sum(1 for c in costs if c > 1)

    def listing(self) -> list[str]:
        """Per-slot lowered-code listing (pc, fuel cost, mnemonic)."""
        lines = []
        for pc, desc in enumerate(self.descs):
            cost = self.costs[pc]
            marker = f"x{cost}" if cost > 1 else "  "
            lines.append(f"  {pc:04d} {marker} {desc}")
        return lines


def _mn(body, pc) -> str:
    """Spec mnemonic (+ immediate) of the original instruction at pc."""
    opcode, imm = body[pc]
    info = op.OP_TABLE[opcode]
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


def compile_threaded(module: Module, code: Code, functype: FuncType) -> ThreadedCode:
    """Lower one validated function body to threaded code."""
    body = code.body
    n = len(body)
    result_arity = len(functype.results)
    heights, branches, jump_targets = _analyze(module, code, result_arity)

    # the legacy lowering supplies the per-function static stack bound so
    # ExecStats stays bit-identical across engines (and it is memoized on
    # the Code object, so this costs nothing when both engines are used)
    prep = prepared_for(code)

    slots: list = [None] * n
    costs = [1] * n
    descs = [""] * n

    def _fusable(start: int, length: int) -> bool:
        if start + length > n or heights[start] is None:
            return False
        return all(start + i not in jump_targets for i in range(1, length))

    pc = 0
    while pc < n:
        opcode, imm = body[pc]
        emitted = _try_fuse(
            module, body, pc, heights, branches, jump_targets,
            slots, costs, descs, _fusable,
        )
        if emitted:
            pc += emitted
            continue
        slots[pc] = _emit_plain(module, body, pc, n, heights, branches)
        descs[pc] = _mn(body, pc)
        pc += 1

    return ThreadedCode(slots, costs, descs, prep.local_defaults, prep.max_stack)


def _emit_plain(module, body, pc, n, heights, branches):
    """Emit the single-instruction closure for the slot at pc."""
    opcode, imm = body[pc]
    nxt = pc + 1

    if opcode == op.LOCAL_GET:
        return _e_local_get(imm, nxt)
    if opcode in _CONST_OPS:
        return _e_const(_const_value(opcode, imm), nxt)
    if opcode in BINOPS:
        return _e_binop(BINOPS[opcode], nxt)
    if opcode in UNOPS:
        return _e_unop(UNOPS[opcode], nxt)
    if opcode == op.LOCAL_SET:
        return _e_local_set(imm, nxt)
    if opcode == op.LOCAL_TEE:
        return _e_local_tee(imm, nxt)
    if opcode in LOADS:
        size, signed, kind = LOADS[opcode]
        offset = imm[1]
        if kind == "f32":
            return _e_load_f32(offset, nxt)
        if kind == "f64":
            return _e_load_f64(offset, nxt)
        mask = MASK64 if kind == "i64" else MASK32
        return _e_load_i(offset, size, signed, mask, nxt)
    if opcode in STORES:
        size, kind = STORES[opcode]
        offset = imm[1]
        if kind == "f32":
            return _e_store_f32(offset, nxt)
        if kind == "f64":
            return _e_store_f64(offset, nxt)
        return _e_store_i(offset, size, nxt)
    if opcode in (op.BLOCK, op.LOOP, op.NOP, op.END):
        return _e_nop(nxt)
    if opcode == op.IF:
        return _e_if(branches[pc], nxt)
    if opcode == op.ELSE:
        return _e_jump(branches[pc])
    if opcode == op.BR:
        target, arity, dest_h = branches[pc]
        h = heights[pc]
        if h is None:
            return _dead_slot
        if h == dest_h + arity:
            return _e_jump(target)
        return _e_br_trunc(target, dest_h, arity)
    if opcode == op.BR_IF:
        target, arity, dest_h = branches[pc]
        h = heights[pc]
        if h is None:
            return _dead_slot
        if h - 1 == dest_h + arity:
            return _e_br_if_fast(target, nxt)
        return _e_br_if_trunc(target, dest_h, arity, nxt)
    if opcode == op.BR_TABLE:
        resolved_targets, resolved_default, h = branches[pc]
        if h is None:
            return _dead_slot

        def _fixup(res):
            target, arity, dest_h = res
            if h == dest_h + arity:
                return (target, None)
            return (target, (dest_h, arity))

        return _e_br_table(
            [_fixup(r) for r in resolved_targets], _fixup(resolved_default)
        )
    if opcode == op.RETURN:
        return _e_jump(n)
    if opcode == op.CALL:
        return _e_call(imm, nxt)
    if opcode == op.CALL_INDIRECT:
        return _e_call_indirect(module.types[imm], nxt)
    if opcode == op.GLOBAL_GET:
        return _e_global_get(imm, nxt)
    if opcode == op.GLOBAL_SET:
        return _e_global_set(imm, nxt)
    if opcode == op.DROP:
        return _e_drop(nxt)
    if opcode == op.SELECT:
        return _e_select(nxt)
    if opcode == op.MEMORY_SIZE:
        return _e_memory_size(nxt)
    if opcode == op.MEMORY_GROW:
        return _e_memory_grow(nxt)
    if opcode == op.UNREACHABLE:
        return _e_unreachable
    raise Trap(f"cannot compile opcode 0x{opcode:02x}", code="internal")


def _try_fuse(
    module, body, pc, heights, branches, jump_targets, slots, costs, descs, fusable
) -> int:
    """Try to emit a superinstruction starting at pc.

    On success fills ``slots[pc]`` (interior slots become dead fillers),
    sets the fuel cost to the group length, and returns the group length;
    returns 0 when nothing matched.
    """
    n = len(body)

    def o(i):
        return body[pc + i][0] if pc + i < n else -1

    def im(i):
        return body[pc + i][1]

    def commit(closure, length, parts):
        slots[pc] = closure
        costs[pc] = length
        descs[pc] = "{" + "; ".join(parts) + "}"
        for i in range(1, length):
            slots[pc + i] = _dead_slot
            descs[pc + i] = f"  .. folded into slot {pc}"
        return length

    def br_if_fast(at):
        """Fused-branch target if the br_if at `at` needs no stack fixup."""
        target, arity, dest_h = branches[at]
        h = heights[at]
        if h is not None and h - 1 == dest_h + arity:
            return target
        return None

    op0 = o(0)

    # --- length-4 patterns -------------------------------------------------
    if op0 == op.LOCAL_GET and fusable(pc, 4):
        if (
            o(1) == op.LOCAL_GET
            and o(2) in BINOPS
            and o(2) not in _TRAPPING_BINOPS
        ):
            f = BINOPS[o(2)]
            if o(3) == op.LOCAL_SET:
                return commit(
                    _e_ll_binop_set(im(0), im(1), f, im(3), pc + 4),
                    4, [_mn(body, pc + i) for i in range(4)],
                )
            if o(3) == op.BR_IF:
                target = br_if_fast(pc + 3)
                if target is not None:
                    return commit(
                        _e_ll_binop_br_if(im(0), im(1), f, target, pc + 4),
                        4, [_mn(body, pc + i) for i in range(4)],
                    )
        if o(1) in _CONST_OPS:
            c = _const_value(o(1), im(1))
            if o(2) in BINOPS and o(2) not in _TRAPPING_BINOPS:
                f = BINOPS[o(2)]
                if o(3) == op.LOCAL_SET:
                    return commit(
                        _e_lc_binop_set(im(0), c, f, im(3), pc + 4),
                        4, [_mn(body, pc + i) for i in range(4)],
                    )
                if o(3) == op.BR_IF:
                    target = br_if_fast(pc + 3)
                    if target is not None:
                        return commit(
                            _e_lc_binop_br_if(im(0), c, f, target, pc + 4),
                            4, [_mn(body, pc + i) for i in range(4)],
                        )
            if o(2) == op.I32_ADD and o(3) in LOADS:
                size, signed, kind = LOADS[o(3)]
                if kind not in ("f32", "f64"):
                    mask = MASK64 if kind == "i64" else MASK32
                    offset = im(3)[1]
                    return commit(
                        _e_load_i_local_const(
                            im(0), c, offset, size, signed, mask, pc + 4
                        ),
                        4, [_mn(body, pc + i) for i in range(4)],
                    )

    # --- length-3 patterns -------------------------------------------------
    if op0 == op.LOCAL_GET and fusable(pc, 3):
        if o(1) == op.LOCAL_GET and o(2) in BINOPS:
            return commit(
                _e_ll_binop(im(0), im(1), BINOPS[o(2)], pc + 3),
                3, [_mn(body, pc + i) for i in range(3)],
            )
        if o(1) in _CONST_OPS and o(2) in BINOPS:
            return commit(
                _e_lc_binop(im(0), _const_value(o(1), im(1)), BINOPS[o(2)], pc + 3),
                3, [_mn(body, pc + i) for i in range(3)],
            )

    # --- length-2 patterns -------------------------------------------------
    if fusable(pc, 2):
        two = [_mn(body, pc), _mn(body, pc + 1)]
        if op0 in _CONST_OPS:
            c = _const_value(op0, im(0))
            if o(1) in BINOPS:
                return commit(_e_c_binop(c, BINOPS[o(1)], pc + 2), 2, two)
            if o(1) == op.LOCAL_SET:
                return commit(_e_const_set(c, im(1), pc + 2), 2, two)
        if op0 in BINOPS and op0 not in _TRAPPING_BINOPS and o(1) == op.BR_IF:
            target = br_if_fast(pc + 1)
            if target is not None:
                return commit(
                    _e_binop_br_if(BINOPS[op0], target, pc + 2), 2, two
                )
        if op0 in UNOPS and op0 not in _TRAPPING_UNOPS and o(1) == op.BR_IF:
            target = br_if_fast(pc + 1)
            if target is not None:
                return commit(_e_unop_br_if(UNOPS[op0], target, pc + 2), 2, two)
        if op0 == op.LOCAL_SET and o(1) == op.LOCAL_GET and im(0) == im(1):
            return commit(_e_local_tee(im(0), pc + 2), 2, two)
        if op0 == op.LOCAL_GET:
            if o(1) in LOADS:
                size, signed, kind = LOADS[o(1)]
                offset = im(1)[1]
                if kind == "f32":
                    return commit(_e_load_f32_local(im(0), offset, pc + 2), 2, two)
                if kind == "f64":
                    return commit(_e_load_f64_local(im(0), offset, pc + 2), 2, two)
                mask = MASK64 if kind == "i64" else MASK32
                return commit(
                    _e_load_i_local(im(0), offset, size, signed, mask, pc + 2),
                    2, two,
                )
            if o(1) == op.LOCAL_GET:
                return commit(_e_local_get2(im(0), im(1), pc + 2), 2, two)

    return 0


def threaded_for(module: Module, code: Code, functype: FuncType) -> ThreadedCode:
    """Memoized :func:`compile_threaded` (cached on the ``Code`` object)."""
    cached = getattr(code, "_threaded", None)
    if cached is None:
        cached = compile_threaded(module, code, functype)
        object.__setattr__(code, "_threaded", cached)
    return cached


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class _Frame:
    """Per-call runtime state shared with the slot closures.

    Compiled slots are instance-independent (that is what makes them
    shareable through the cross-instance code cache); everything an
    instruction needs beyond the operand stack and locals arrives here.
    """

    __slots__ = ("instance", "store", "mem", "globals", "depth", "fuel")

    def __init__(self, instance, store, depth):
        self.instance = instance
        self.store = store
        self.mem = instance.memory
        self.globals = instance.globals
        self.depth = depth
        self.fuel = None


def execute_threaded(store, instance, tcode: ThreadedCode, args: list,
                     result_arity: int, depth: int):
    """Run one threaded-compiled function body.

    The contract (arguments, results, traps, fuel, stats) is identical to
    :func:`repro.wasm.interpreter.execute`.
    """
    if depth > store.max_call_depth:
        raise StackExhausted(depth)

    stats = store.stats
    if stats is not None:
        stats.frames += 1
        if depth > stats.max_call_depth:
            stats.max_call_depth = depth
        if tcode.max_stack > stats.max_value_stack:
            stats.max_value_stack = tcode.max_stack

    slots = tcode.slots
    n = tcode.n_instrs
    locals_: list = args + tcode.local_defaults.copy()
    stack: list = []
    frame = _Frame(instance, store, depth)
    pc = 0

    if store.fuel is None:
        while pc < n:
            pc = slots[pc](stack, locals_, frame)
        return stack[len(stack) - result_arity:] if result_arity else []

    frame.fuel = store.fuel
    costs = tcode.costs
    try:
        while pc < n:
            fuel = frame.fuel - costs[pc]
            if fuel < 0:
                frame.fuel = 0
                raise FuelExhausted()
            frame.fuel = fuel
            pc = slots[pc](stack, locals_, frame)
    finally:
        store.fuel = frame.fuel

    return stack[len(stack) - result_arity:] if result_arity else []


# ---------------------------------------------------------------------------
# diagnostics (repro disasm --threaded)
# ---------------------------------------------------------------------------


def dump_threaded(module_or_bytes) -> str:
    """Human-readable lowered code for every function of a module."""
    module = load_module(module_or_bytes)

    exports_by_index = {}
    for export in module.exports:
        if export.kind == "func":
            exports_by_index.setdefault(export.index, []).append(export.name)

    n_imported = module.num_imported_funcs
    lines = []
    for i, code in enumerate(module.codes):
        func_index = n_imported + i
        functype = module.func_type(func_index)
        tcode = threaded_for(module, code, functype)
        names = "".join(f' (export "{n}")' for n in exports_by_index.get(func_index, []))
        fused_instrs = sum(c for c in tcode.costs if c > 1)
        lines.append(
            f"func {func_index}{names}: {tcode.n_instrs} instrs, "
            f"{tcode.n_fused} superinstructions covering {fused_instrs}"
        )
        lines.extend(tcode.listing())
    return "\n".join(lines)
