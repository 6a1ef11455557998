"""Threaded-code backend: function bodies compiled to pre-bound handlers.

The legacy interpreter (:mod:`repro.wasm.interpreter`) dispatches through
a tag ``elif`` ladder and resolves branch label heights at run time.  This
module is the wasm3-style alternative: a one-time per-function translation
pass lowers each body into a flat array of Python functions, one per
original instruction slot, where

- every handler is pre-bound: immediates, numeric handler functions and
  the *next pc* are positional defaults of the handler (``def run(stack,
  locals_, frame, i=i, nxt=nxt)``), so the hot loop is just
  ``pc = slots[pc](stack, locals_, frame)`` - no opcode decode, no tag
  compare chain - and a lowered slot is one function object with no
  closure cells for the cycle collector to track;
- all control flow is resolved at compile time: branch targets, the
  stack height to truncate to and the branch arity are facts the
  validator recorded on the body (:class:`~repro.wasm.validator.BodyFacts`:
  validated Wasm has a fixed operand-stack height at every reachable
  program point), so there is no label stack at all;
- dominant instruction sequences are fused into **superinstructions**
  (``local.get local.get <binop>``, ``<const> <binop>``,
  ``local.get <const> i32.add <load>`` with a folded effective address,
  ``<cmp> br_if``, ``local.set local.get`` as a tee, and friends), each
  executing several original instructions in one dispatch.  Matching is
  one pass: at each reachable pc the compiler works out how many
  instructions a slot may cover (at most 4, none of them past the first
  branch target) and :func:`_try_fuse` reads that group once, trying the
  patterns of its leading pair longest first.

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
    MASK32,
    MASK64,
    UNOPS,
    const_value,
    local_defaults,
)
from repro.wasm.loader import load_module
from repro.wasm.module import Code, Module
from repro.wasm.opcodes import CONST_OPS, LOADS, STORES, TRAPPING_OPS
from repro.wasm.traps import FuelExhausted, StackExhausted, Trap
from repro.wasm.validator import body_facts
from repro.wasm.wtypes import FuncType, ValType

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
# handler emitters (one small factory per slot shape)
# ---------------------------------------------------------------------------


def _dead_slot(stack, locals_, frame):  # pragma: no cover - unreachable code
    raise AssertionError("threaded code entered an unreachable slot")


def _e_nop(nxt):
    def run(stack, locals_, frame, nxt=nxt):
        return nxt
    return run


def _e_local_get(i, nxt):
    def run(stack, locals_, frame, i=i, nxt=nxt):
        stack.append(locals_[i])
        return nxt
    return run


def _e_local_get2(a, b, nxt):
    def run(stack, locals_, frame, a=a, b=b, nxt=nxt):
        stack.append(locals_[a])
        stack.append(locals_[b])
        return nxt
    return run


def _e_const(c, nxt):
    def run(stack, locals_, frame, c=c, nxt=nxt):
        stack.append(c)
        return nxt
    return run


def _e_local_set(i, nxt):
    def run(stack, locals_, frame, i=i, nxt=nxt):
        locals_[i] = stack.pop()
        return nxt
    return run


def _e_local_tee(i, nxt):
    def run(stack, locals_, frame, i=i, nxt=nxt):
        locals_[i] = stack[-1]
        return nxt
    return run


def _e_const_set(c, i, nxt):
    def run(stack, locals_, frame, c=c, i=i, nxt=nxt):
        locals_[i] = c
        return nxt
    return run


def _e_binop(f, nxt):
    def run(stack, locals_, frame, f=f, nxt=nxt):
        b = stack.pop()
        stack[-1] = f(stack[-1], b)
        return nxt
    return run


def _e_unop(f, nxt):
    def run(stack, locals_, frame, f=f, nxt=nxt):
        stack[-1] = f(stack[-1])
        return nxt
    return run


def _e_ll_binop(a, b, f, nxt):
    def run(stack, locals_, frame, a=a, b=b, f=f, nxt=nxt):
        stack.append(f(locals_[a], locals_[b]))
        return nxt
    return run


def _e_lc_binop(a, c, f, nxt):
    def run(stack, locals_, frame, a=a, c=c, f=f, nxt=nxt):
        stack.append(f(locals_[a], c))
        return nxt
    return run


def _e_c_binop(c, f, nxt):
    def run(stack, locals_, frame, c=c, f=f, nxt=nxt):
        stack[-1] = f(stack[-1], c)
        return nxt
    return run


def _e_ll_binop_set(a, b, f, d, nxt):
    def run(stack, locals_, frame, a=a, b=b, f=f, d=d, nxt=nxt):
        locals_[d] = f(locals_[a], locals_[b])
        return nxt
    return run


def _e_lc_binop_set(a, c, f, d, nxt):
    def run(stack, locals_, frame, a=a, c=c, f=f, d=d, nxt=nxt):
        locals_[d] = f(locals_[a], c)
        return nxt
    return run


def _e_ll_binop_br_if(a, b, f, t, nxt):
    def run(stack, locals_, frame, a=a, b=b, f=f, t=t, nxt=nxt):
        if f(locals_[a], locals_[b]):
            return t
        return nxt
    return run


def _e_lc_binop_br_if(a, c, f, t, nxt):
    def run(stack, locals_, frame, a=a, c=c, f=f, t=t, nxt=nxt):
        if f(locals_[a], c):
            return t
        return nxt
    return run


def _e_binop_br_if(f, t, nxt):
    def run(stack, locals_, frame, f=f, t=t, nxt=nxt):
        b = stack.pop()
        if f(stack.pop(), b):
            return t
        return nxt
    return run


def _e_unop_br_if(f, t, nxt):
    def run(stack, locals_, frame, f=f, t=t, nxt=nxt):
        if f(stack.pop()):
            return t
        return nxt
    return run


# ----- memory ---------------------------------------------------------------


def _e_load_i(off, size, signed, mask, nxt):
    def run(stack, locals_, frame, off=off, size=size, signed=signed, mask=mask, nxt=nxt):
        stack[-1] = frame.mem.load_int(stack[-1] + off, size, signed) & mask
        return nxt
    return run


def _e_load_i_local(a, off, size, signed, mask, nxt):
    def run(stack, locals_, frame, a=a, off=off, size=size, signed=signed, mask=mask,
            nxt=nxt):
        stack.append(frame.mem.load_int(locals_[a] + off, size, signed) & mask)
        return nxt
    return run


def _e_load_i_local_const(a, c, off, size, signed, mask, nxt):
    def run(stack, locals_, frame, a=a, c=c, off=off, size=size, signed=signed,
            mask=mask, nxt=nxt):
        addr = ((locals_[a] + c) & MASK32) + off
        stack.append(frame.mem.load_int(addr, size, signed) & mask)
        return nxt
    return run


def _e_load_f32(off, nxt):
    def run(stack, locals_, frame, off=off, nxt=nxt):
        stack[-1] = frame.mem.load_f32(stack[-1] + off)
        return nxt
    return run


def _e_load_f32_local(a, off, nxt):
    def run(stack, locals_, frame, a=a, off=off, nxt=nxt):
        stack.append(frame.mem.load_f32(locals_[a] + off))
        return nxt
    return run


def _e_load_f64(off, nxt):
    def run(stack, locals_, frame, off=off, nxt=nxt):
        stack[-1] = frame.mem.load_f64(stack[-1] + off)
        return nxt
    return run


def _e_load_f64_local(a, off, nxt):
    def run(stack, locals_, frame, a=a, off=off, nxt=nxt):
        stack.append(frame.mem.load_f64(locals_[a] + off))
        return nxt
    return run


def _e_store_i(off, size, nxt):
    def run(stack, locals_, frame, off=off, size=size, nxt=nxt):
        value = stack.pop()
        frame.mem.store_int(stack.pop() + off, value, size)
        return nxt
    return run


def _e_store_f32(off, nxt):
    def run(stack, locals_, frame, off=off, nxt=nxt):
        value = stack.pop()
        frame.mem.store_f32(stack.pop() + off, value)
        return nxt
    return run


def _e_store_f64(off, nxt):
    def run(stack, locals_, frame, off=off, nxt=nxt):
        value = stack.pop()
        frame.mem.store_f64(stack.pop() + off, value)
        return nxt
    return run


def _e_memory_size(nxt):
    def run(stack, locals_, frame, nxt=nxt):
        stack.append(frame.mem.size_pages)
        return nxt
    return run


def _e_memory_grow(nxt):
    def run(stack, locals_, frame, nxt=nxt):
        stack[-1] = frame.mem.grow(stack[-1]) & MASK32
        return nxt
    return run


# ----- globals / parametric -------------------------------------------------


def _e_global_get(i, nxt):
    def run(stack, locals_, frame, i=i, nxt=nxt):
        stack.append(frame.globals[i].value)
        return nxt
    return run


def _e_global_set(i, nxt):
    def run(stack, locals_, frame, i=i, nxt=nxt):
        frame.globals[i].value = stack.pop()
        return nxt
    return run


def _e_drop(nxt):
    def run(stack, locals_, frame, nxt=nxt):
        stack.pop()
        return nxt
    return run


def _e_select(nxt):
    def run(stack, locals_, frame, nxt=nxt):
        cond = stack.pop()
        b = stack.pop()
        if not cond:
            stack[-1] = b
        return nxt
    return run


# ----- control --------------------------------------------------------------


def _e_jump(t):
    def run(stack, locals_, frame, t=t):
        return t
    return run


def _e_br_trunc(t, h, arity):
    if arity:
        def run(stack, locals_, frame, t=t, h=h):
            v = stack[-1]
            del stack[h:]
            stack.append(v)
            return t
    else:
        def run(stack, locals_, frame, t=t, h=h):
            del stack[h:]
            return t
    return run


def _e_br_if_fast(t, nxt):
    def run(stack, locals_, frame, t=t, nxt=nxt):
        if stack.pop():
            return t
        return nxt
    return run


def _e_br_if_trunc(t, h, arity, nxt):
    if arity:
        def run(stack, locals_, frame, t=t, h=h, nxt=nxt):
            if stack.pop():
                v = stack[-1]
                del stack[h:]
                stack.append(v)
                return t
            return nxt
    else:
        def run(stack, locals_, frame, t=t, h=h, nxt=nxt):
            if stack.pop():
                del stack[h:]
                return t
            return nxt
    return run


def _e_if(false_target, nxt):
    def run(stack, locals_, frame, false_target=false_target, nxt=nxt):
        if stack.pop():
            return nxt
        return false_target
    return run


def _e_br_table(resolved, default):
    def run(stack, locals_, frame, resolved=resolved, default=default,
            n_targets=len(resolved)):
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
    def run(stack, locals_, frame, func_index=func_index, nxt=nxt):
        store = frame.store
        store.fuel = frame.fuel
        # a wasm call costs three Python frames here (this slot,
        # invoke_index, execute_threaded), the legacy engine two and
        # compiled code one: PluginHost.call turns a RecursionError from
        # deep plugin recursion into a stack trap
        instance = frame.instance
        results = instance.invoke_index(func_index, stack, frame.depth + 1)
        frame.fuel = store.fuel
        stack.extend(results)
        return nxt
    return run


def _e_call_indirect(expected: FuncType, nxt):
    def run(stack, locals_, frame, expected=expected, nxt=nxt):
        elem_index = stack.pop()
        instance = frame.instance
        table = instance.table
        if table is None or elem_index >= len(table.elements):
            raise Trap("undefined element", code="table_oob")
        func_index = table.elements[elem_index]
        if func_index is None:
            raise Trap("uninitialized element", code="table_null")
        actual = instance.funcs[func_index].functype
        if actual != expected:
            raise Trap(
                f"indirect call type mismatch: {actual} != {expected}",
                code="sig",
            )
        store = frame.store
        store.fuel = frame.fuel
        results = instance.invoke_index(func_index, stack, frame.depth + 1)
        frame.fuel = store.fuel
        stack.extend(results)
        return nxt
    return run


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class ThreadedCode:
    """One function body lowered to a flat handler array.

    ``slots[pc]`` executes the instruction(s) at ``pc`` and returns the
    next pc; ``costs[pc]`` is the fuel charge (== number of original
    instructions the slot retires).  ``body`` is the Wasm it was lowered
    from, what :meth:`listing` names the slots by.
    """

    __slots__ = (
        "slots", "costs", "body", "local_defaults", "max_stack",
        "n_instrs", "n_fused",
    )

    def __init__(self, slots, costs, body, local_defaults, max_stack):
        self.slots = slots
        self.costs = costs
        self.body = body
        self.local_defaults = local_defaults
        self.max_stack = max_stack
        self.n_instrs = len(slots)
        self.n_fused = sum(1 for c in costs if c > 1)

    def listing(self) -> list[str]:
        """Per-slot lowered-code listing (pc, fuel cost, mnemonic): a fused
        slot lists the instructions it covers, each covered slot the one
        it was folded into."""
        lines = []
        pc = 0
        while pc < self.n_instrs:
            cost = self.costs[pc]
            if cost == 1:
                lines.append(f"  {pc:04d}    {op.mnemonic(self.body[pc])}")
                pc += 1
                continue
            group = "; ".join(op.mnemonic(ins) for ins in self.body[pc:pc + cost])
            lines.append(f"  {pc:04d} x{cost} {{{group}}}")
            lines.extend(
                f"  {pc + i:04d}      .. folded into slot {pc}" for i in range(1, cost)
            )
            pc += cost
        return lines


def compile_threaded(module: Module, code: Code, functype: FuncType) -> ThreadedCode:
    """Lower one validated function body to threaded code, from the facts
    its validation recorded (an unvalidated body is refused)."""
    facts = body_facts(code)
    body = code.body
    n = len(body)
    heights, branches, jump_targets = facts.heights, facts.branches, facts.targets

    slots: list = [None] * n
    costs = [1] * n

    pc = 0
    while pc < n:
        # room: how many instructions a slot at pc may cover - a reachable
        # start, at most 4, and no branch target inside the group
        room = 0
        if heights[pc] is not None:
            room = min(4, n - pc)
            for i in range(1, room):
                if pc + i in jump_targets:
                    room = i
                    break
        fused = _try_fuse(body, pc, room, heights, branches) if room > 1 else None
        if fused is None:
            slots[pc] = _emit_plain(module, body, pc, n, heights, branches)
            pc += 1
            continue
        slots[pc], length = fused
        costs[pc] = length
        for i in range(pc + 1, pc + length):
            slots[i] = _dead_slot
        pc += length

    return ThreadedCode(slots, costs, body, local_defaults(code), facts.max_stack)


def _fast_target(branch, h):
    """The target of a ``br_if`` at stack height ``h`` if taking it needs
    no stack fixup, else None."""
    target, arity, dest_h = branch
    if h is not None and h - 1 == dest_h + arity:
        return target
    return None


def _emit_plain(module, body, pc, n, heights, branches):
    """Emit the single-instruction handler for the slot at pc."""
    opcode, imm = body[pc]
    nxt = pc + 1

    if opcode == op.LOCAL_GET:
        return _e_local_get(imm, nxt)
    if opcode in CONST_OPS:
        return _e_const(const_value(opcode, imm), nxt)
    if opcode in BINOPS:
        return _e_binop(BINOPS[opcode], nxt)
    if opcode in UNOPS:
        return _e_unop(UNOPS[opcode], nxt)
    if opcode == op.LOCAL_SET:
        return _e_local_set(imm, nxt)
    if opcode == op.LOCAL_TEE:
        return _e_local_tee(imm, nxt)
    if opcode in LOADS:
        access = LOADS[opcode]
        offset = imm[1]
        if access.vt == ValType.F32:
            return _e_load_f32(offset, nxt)
        if access.vt == ValType.F64:
            return _e_load_f64(offset, nxt)
        mask = MASK64 if access.vt == ValType.I64 else MASK32
        return _e_load_i(offset, access.size, access.signed, mask, nxt)
    if opcode in STORES:
        access = STORES[opcode]
        offset = imm[1]
        if access.vt == ValType.F32:
            return _e_store_f32(offset, nxt)
        if access.vt == ValType.F64:
            return _e_store_f64(offset, nxt)
        return _e_store_i(offset, access.size, nxt)
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
        h = heights[pc]
        if h is None:
            return _dead_slot
        fast = _fast_target(branches[pc], h)
        if fast is not None:
            return _e_br_if_fast(fast, nxt)
        target, arity, dest_h = branches[pc]
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
            tuple(_fixup(r) for r in resolved_targets), _fixup(resolved_default)
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


def _try_fuse(body, pc, room, heights, branches):
    """Match a superinstruction at pc covering 2..``room`` instructions.

    Reads the candidate group once and returns ``(handler, length)``, or
    None when nothing matched.  Patterns are grouped by their leading
    pair; within a group the longest match wins.
    """
    op0, im0 = body[pc]
    op1, im1 = body[pc + 1]
    op2 = body[pc + 2][0] if room > 2 else -1
    op3, im3 = body[pc + 3] if room > 3 else (-1, None)

    if op0 == op.LOCAL_GET:
        if op1 == op.LOCAL_GET:
            if op2 not in BINOPS:
                return _e_local_get2(im0, im1, pc + 2), 2
            f = BINOPS[op2]
            if op2 not in TRAPPING_OPS:
                if op3 == op.LOCAL_SET:
                    return _e_ll_binop_set(im0, im1, f, im3, pc + 4), 4
                if op3 == op.BR_IF:
                    target = _fast_target(branches[pc + 3], heights[pc + 3])
                    if target is not None:
                        return _e_ll_binop_br_if(im0, im1, f, target, pc + 4), 4
            return _e_ll_binop(im0, im1, f, pc + 3), 3
        if op1 in CONST_OPS:
            if op2 not in BINOPS:
                return None
            c = const_value(op1, im1)
            f = BINOPS[op2]
            if op2 not in TRAPPING_OPS:
                if op3 == op.LOCAL_SET:
                    return _e_lc_binop_set(im0, c, f, im3, pc + 4), 4
                if op3 == op.BR_IF:
                    target = _fast_target(branches[pc + 3], heights[pc + 3])
                    if target is not None:
                        return _e_lc_binop_br_if(im0, c, f, target, pc + 4), 4
                if op2 == op.I32_ADD and op3 in LOADS:
                    access = LOADS[op3]
                    if access.vt in (ValType.I32, ValType.I64):
                        mask = MASK64 if access.vt == ValType.I64 else MASK32
                        return _e_load_i_local_const(
                            im0, c, im3[1], access.size, access.signed, mask, pc + 4
                        ), 4
            return _e_lc_binop(im0, c, f, pc + 3), 3
        if op1 in LOADS:
            access = LOADS[op1]
            offset = im1[1]
            if access.vt == ValType.F32:
                return _e_load_f32_local(im0, offset, pc + 2), 2
            if access.vt == ValType.F64:
                return _e_load_f64_local(im0, offset, pc + 2), 2
            mask = MASK64 if access.vt == ValType.I64 else MASK32
            return _e_load_i_local(
                im0, offset, access.size, access.signed, mask, pc + 2
            ), 2
        return None
    if op0 in CONST_OPS:
        if op1 in BINOPS:
            return _e_c_binop(const_value(op0, im0), BINOPS[op1], pc + 2), 2
        if op1 == op.LOCAL_SET:
            return _e_const_set(const_value(op0, im0), im1, pc + 2), 2
        return None
    if op1 == op.BR_IF and op0 not in TRAPPING_OPS:
        if op0 in BINOPS:
            target = _fast_target(branches[pc + 1], heights[pc + 1])
            if target is not None:
                return _e_binop_br_if(BINOPS[op0], target, pc + 2), 2
        elif op0 in UNOPS:
            target = _fast_target(branches[pc + 1], heights[pc + 1])
            if target is not None:
                return _e_unop_br_if(UNOPS[op0], target, pc + 2), 2
        return None
    if op0 == op.LOCAL_SET and op1 == op.LOCAL_GET and im0 == im1:
        return _e_local_tee(im0, pc + 2), 2
    return None


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
    """Per-call runtime state shared with the slot handlers.

    Compiled slots are instance-independent: a handler binds immediates,
    numeric handler functions and pcs only (that is what makes them
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
        self.fuel = store.fuel


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
