"""AOT backend: function bodies compiled to generated Python source.

The threaded engine (:mod:`repro.wasm.threaded`) removed opcode dispatch
by pre-binding one closure per instruction slot; the hot loop still pays
one Python call per slot.  This module climbs the next rung of the
interpreter->AOT ladder: each function body is *translated to Python
source* and ``compile()``d once, so a Wasm function becomes a single
Python function call with no per-instruction dispatch at all.

Lowering rules
--------------

- **Stack slots become local variables.**  Validated Wasm has a fixed
  operand-stack height at every reachable program point (the same static
  analysis the threaded engine uses), so the value at height ``i`` simply
  lives in the Python local ``s{i}``; Wasm locals live in ``l{i}``.
- **Reducible control flow becomes ``while``/``if``.**  Wasm control is
  structurally reducible: ``block``/``loop``/``if`` nest, and ``br`` only
  targets enclosing constructs.  A construct that is a branch target is
  wrapped in ``while True:``; ``br`` to a loop lowers to ``continue``,
  ``br`` to a block lowers to ``break``, and multi-level branches thread
  a ``_br`` label variable through the loop epilogues.
- **Too deep to structure: the function keeps its threaded body.**
  CPython caps statically nested blocks, so a body nested past
  ``_MAX_STRUCTURED_DEPTH`` is not compiled at all: :func:`aot_for`
  hands back its :func:`~repro.wasm.threaded.threaded_for` lowering.  A
  func table may therefore mix tiers; calls cross them through
  ``Instance.invoke_addr``, which dispatches per function on the class
  of ``prepared`` (the property tier-up already relies on).
- **A call inside the module is a Python call.**  A ``call`` whose target
  is a function of the same module that compiled becomes
  ``fuel, s3 = _f7(inst, store, _d1, fuel, s3)``: operands as positional
  arguments, fuel in and out, one Python frame per Wasm frame.  What a
  frame owes on entry - the ``StackExhausted`` depth check and the
  ``ExecStats`` updates - is the generated function's own prologue, so
  it runs exactly where the other engines run it.  Imports,
  ``call_indirect`` and callees that kept a threaded body go through
  ``inst.invoke_addr`` with ``store.fuel`` synced around the call, and
  :func:`execute_aot` is only the adapter for entering compiled code
  from outside (an export, ``call_indirect``, a threaded/legacy caller).
- **Memory access is inlined.**  A load or store is one bounds compare
  against ``len(md)`` - ``md`` is the memory's ``bytearray`` itself, bound
  once per function entry - raising the same ``MemoryOutOfBounds(addr,
  size, limit)``, then a pre-bound ``struct.Struct`` ``unpack_from`` /
  ``pack_into``.  ``Memory.data`` is never rebound and ``len`` is read at
  every access, so ``memory.grow`` (here, in a callee, in a host
  function) needs no invalidation rule.  Not a ``memoryview``: a live
  export makes ``bytearray.extend`` raise ``BufferError``, i.e. it would
  break ``Memory.grow``.
- **Fuel is still charged per original instruction.**  Charges for pure
  instructions (locals, constants, non-trapping arithmetic) are batched
  at compile time and flushed *before* every instruction whose effect is
  observable after a trap (memory/global writes, calls, trapping ops)
  and before every control transfer.  Locals and operand-stack slots die
  with the frame on a trap, so batching them is invisible: trap codes,
  the fuel counter at trap time, and all memory/global state match the
  legacy engine bit for bit.
- **Trap-time fuel: the outermost frame wins.**  In every engine a frame
  unwinding from a trap overwrites ``store.fuel`` with its own counter,
  so the host reads the *outermost* Wasm frame's value - its fuel at its
  call site.  Each metered body is wrapped in ``except BaseException:
  store.fuel = fuel if fuel > 0 else 0; raise`` to reproduce exactly
  that (the clamp is the exhausted frame reporting zero; a flush that
  fails just raises); a ``StackExhausted`` raised by a prologue leaves
  ``store.fuel`` to the callers.

Compiled code is instance-independent (instance, store and depth are
arguments; a direct callee is a function of the same ``Module``, so the
binding is a property of the bytes), so AOT artifacts are shared by every
instance of their ``Module`` exactly like threaded code
(:func:`repro.wasm.instance.compiled_bodies`).  An artifact compiles its
metered and unmetered variants separately, each on first use
(:class:`AotCode`): emitting and ``compile()``-ing is where this tier's
cold cost goes, and a host runs only one of the two.  Engine selection:
``REPRO_WASM_ENGINE=aot`` (the default;
:class:`repro.abi.host.PluginHost` tiers up to it from threaded code,
``Instance(engine="aot")`` binds it directly).
"""

from __future__ import annotations

import struct

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
from repro.wasm.threaded import (
    _CONST_OPS,
    _TRAPPING_BINOPS,
    _TRAPPING_UNOPS,
    _analyze,
    _const_value,
    _mn,
    ThreadedCode,
    threaded_for,
)
from repro.wasm.traps import (
    FuelExhausted,
    MemoryOutOfBounds,
    StackExhausted,
    Trap,
)
from repro.wasm.wtypes import FuncType

#: nesting depth beyond which a function is not compiled and keeps its
#: threaded body.  The emitter nests one Python block per branch-targeted
#: construct plus one ``try`` when fueled, and CPython rejects more than
#: 20 statically nested blocks (measured on 3.11: refused from Wasm depth
#: 21 unfueled / 20 fueled), so depth <= 16 always compiles.
_MAX_STRUCTURED_DEPTH = 16

_M32 = str(MASK32)
_M64 = str(MASK64)


# ---------------------------------------------------------------------------
# shared exec namespace: trap types + numeric helpers the generated source
# falls back to for operators not worth inlining
# ---------------------------------------------------------------------------


#: struct format of a memory access, by (size, signed) for integers and by
#: kind for floats; the generated source names its accessor after the key
_INT_FORMATS = {
    (1, False): "B", (1, True): "b", (2, False): "H", (2, True): "h",
    (4, False): "I", (4, True): "i", (8, False): "Q", (8, True): "q",
}
_FLOAT_FORMATS = {"f32": "f", "f64": "d"}


def _build_helpers() -> dict:
    ns = {
        "Trap": Trap,
        "FuelExhausted": FuelExhausted,
        "MemoryOutOfBounds": MemoryOutOfBounds,
        "StackExhausted": StackExhausted,
        "_f32": f32_round,
    }
    for opcode, fn in BINOPS.items():
        ns[f"_b{opcode:02x}"] = fn
    for opcode, fn in UNOPS.items():
        ns[f"_u{opcode:02x}"] = fn
    for fmt in (*_INT_FORMATS.values(), *_FLOAT_FORMATS.values()):
        packer = struct.Struct("<" + fmt)
        ns[f"_ld_{fmt}"] = packer.unpack_from
        ns[f"_st_{fmt}"] = packer.pack_into
    return ns


_HELPERS = _build_helpers()


def _s32(x: str) -> str:
    """Signed view of a 32-bit unsigned slot variable (inline, no call)."""
    return f"({x} - 4294967296 if {x} >= 2147483648 else {x})"


def _s64(x: str) -> str:
    return f"({x} - 18446744073709551616 if {x} >= 9223372036854775808 else {x})"


def _binop_expr(opcode: int, a: str, b: str) -> str:
    """Inline Python expression for a binop, or a ``_bXX`` helper call.

    Inlined expressions are textually different from but numerically
    identical to the :data:`~repro.wasm.interpreter.BINOPS` lambdas:
    unsigned ints in ``[0, 2**N)``, comparisons producing int 0/1, f32
    arithmetic rounded through ``_f32``.
    """
    if opcode == op.I32_ADD:
        return f"({a} + {b}) & {_M32}"
    if opcode == op.I32_SUB:
        return f"({a} - {b}) & {_M32}"
    if opcode == op.I32_MUL:
        return f"({a} * {b}) & {_M32}"
    if opcode == op.I32_AND or opcode == op.I64_AND:
        return f"{a} & {b}"
    if opcode == op.I32_OR or opcode == op.I64_OR:
        return f"{a} | {b}"
    if opcode == op.I32_XOR or opcode == op.I64_XOR:
        return f"{a} ^ {b}"
    if opcode == op.I32_SHL:
        return f"({a} << ({b} % 32)) & {_M32}"
    if opcode == op.I32_SHR_U:
        return f"{a} >> ({b} % 32)"
    if opcode == op.I32_SHR_S:
        return f"({_s32(a)} >> ({b} % 32)) & {_M32}"
    if opcode == op.I64_ADD:
        return f"({a} + {b}) & {_M64}"
    if opcode == op.I64_SUB:
        return f"({a} - {b}) & {_M64}"
    if opcode == op.I64_MUL:
        return f"({a} * {b}) & {_M64}"
    if opcode == op.I64_SHL:
        return f"({a} << ({b} % 64)) & {_M64}"
    if opcode == op.I64_SHR_U:
        return f"{a} >> ({b} % 64)"
    if opcode == op.I64_SHR_S:
        return f"({_s64(a)} >> ({b} % 64)) & {_M64}"
    if opcode in (op.I32_EQ, op.I64_EQ, op.F32_EQ, op.F64_EQ):
        return f"(1 if {a} == {b} else 0)"
    if opcode in (op.I32_NE, op.I64_NE, op.F32_NE, op.F64_NE):
        return f"(1 if {a} != {b} else 0)"
    if opcode in (op.I32_LT_U, op.I64_LT_U, op.F32_LT, op.F64_LT):
        return f"(1 if {a} < {b} else 0)"
    if opcode in (op.I32_GT_U, op.I64_GT_U, op.F32_GT, op.F64_GT):
        return f"(1 if {a} > {b} else 0)"
    if opcode in (op.I32_LE_U, op.I64_LE_U, op.F32_LE, op.F64_LE):
        return f"(1 if {a} <= {b} else 0)"
    if opcode in (op.I32_GE_U, op.I64_GE_U, op.F32_GE, op.F64_GE):
        return f"(1 if {a} >= {b} else 0)"
    if opcode == op.I32_LT_S:
        return f"(1 if {_s32(a)} < {_s32(b)} else 0)"
    if opcode == op.I32_GT_S:
        return f"(1 if {_s32(a)} > {_s32(b)} else 0)"
    if opcode == op.I32_LE_S:
        return f"(1 if {_s32(a)} <= {_s32(b)} else 0)"
    if opcode == op.I32_GE_S:
        return f"(1 if {_s32(a)} >= {_s32(b)} else 0)"
    if opcode == op.I64_LT_S:
        return f"(1 if {_s64(a)} < {_s64(b)} else 0)"
    if opcode == op.I64_GT_S:
        return f"(1 if {_s64(a)} > {_s64(b)} else 0)"
    if opcode == op.I64_LE_S:
        return f"(1 if {_s64(a)} <= {_s64(b)} else 0)"
    if opcode == op.I64_GE_S:
        return f"(1 if {_s64(a)} >= {_s64(b)} else 0)"
    if opcode in (op.F32_ADD, op.F32_SUB, op.F32_MUL):
        sym = {op.F32_ADD: "+", op.F32_SUB: "-", op.F32_MUL: "*"}[opcode]
        return f"_f32({a} {sym} {b})"
    if opcode == op.F64_ADD:
        return f"{a} + {b}"
    if opcode == op.F64_SUB:
        return f"{a} - {b}"
    if opcode == op.F64_MUL:
        return f"{a} * {b}"
    return f"_b{opcode:02x}({a}, {b})"


#: unops that lower to no statement at all (identity on our value repr)
_IDENTITY_UNOPS = {op.I64_EXTEND_I32_U, op.F64_PROMOTE_F32}


def _unop_expr(opcode: int, a: str) -> str | None:
    """Inline expression for a unop; ``None`` means identity (no code)."""
    if opcode in _IDENTITY_UNOPS:
        return None
    if opcode in (op.I32_EQZ, op.I64_EQZ):
        return f"(1 if {a} == 0 else 0)"
    if opcode == op.I32_WRAP_I64:
        return f"{a} & {_M32}"
    if opcode == op.I64_EXTEND_I32_S:
        return f"({a} + 18446744069414584320 if {a} >= 2147483648 else {a})"
    return f"_u{opcode:02x}({a})"


# ---------------------------------------------------------------------------
# the source emitter
# ---------------------------------------------------------------------------


def _max_nesting(body) -> int:
    """Deepest static ``block``/``loop``/``if`` nesting of a function body."""
    depth = peak = 0
    for opcode, _imm in body:
        if opcode in (op.BLOCK, op.LOOP, op.IF):
            depth += 1
            peak = max(peak, depth)
        elif opcode == op.END:
            depth = max(depth - 1, 0)
    return peak


class _Ctx:
    """Compile-time frame for the structured emitter's construct stack."""

    __slots__ = (
        "kind", "is_loop", "wrapped", "id", "entry", "label_arity",
        "needs_epilogue", "consume",
    )

    def __init__(self, kind, is_loop, wrapped, ctx_id, entry, label_arity):
        self.kind = kind
        self.is_loop = is_loop
        self.wrapped = wrapped
        self.id = ctx_id
        self.entry = entry
        self.label_arity = label_arity
        self.needs_epilogue = False
        self.consume = False


class _Emitter:
    """Emits one function body as Python source (one fuel variant)."""

    def __init__(self, module: Module, code: Code, functype: FuncType,
                 fueled: bool):
        self.module = module
        self.code = code
        self.body = code.body
        self.functype = functype
        self.fueled = fueled
        self.result_arity = len(functype.results)
        self.heights, self.branches, _jump_targets = _analyze(
            module, code, self.result_arity
        )
        self.control = control_map_for(code)
        self.lines: list[str] = []
        self.indent = 0
        self.pending = 0
        self.uses: set[str] = set()
        #: direct callees by function index, and the call sites that stay
        #: on ``invoke_addr`` (the boundary ``dump_aot`` prints)
        self.callees: dict[int, AotCode] = {}
        self.via: list[str] = []
        self.sigs: dict[int, FuncType] = {}
        self.consts: dict[str, float] = {}
        self._next_id = 0
        self.br_targets = self._collect_br_targets()

    # ----- low-level helpers ------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def charge(self) -> None:
        if self.fueled:
            self.pending += 1

    def flush(self, extra: int = 0) -> None:
        """Apply batched fuel charges (plus ``extra`` for the op at hand)."""
        if not self.fueled:
            return
        n = self.pending + extra
        self.pending = 0
        if n == 0:
            return
        self.w(f"fuel -= {n}")
        self.w("if fuel < 0:")
        self.w("    raise FuelExhausted")

    def lit(self, value) -> str:
        """Literal text for a constant; non-finite floats become ns consts."""
        if isinstance(value, float):
            if value == value and value not in (float("inf"), float("-inf")):
                return repr(value)
            name = f"_K{len(self.consts)}"
            for existing, v in self.consts.items():
                if v is value or (v == value and v == v):
                    return existing
            self.consts[name] = value
            return name
        return repr(value)

    def _collect_br_targets(self) -> set[int]:
        targets: set[int] = set()
        for pc, (opcode, _imm) in enumerate(self.body):
            if opcode in (op.BR, op.BR_IF):
                targets.add(self.branches[pc][0])
            elif opcode == op.BR_TABLE:
                per_target, default, _h = self.branches[pc]
                for res in per_target:
                    targets.add(res[0])
                targets.add(default[0])
        return targets

    # ----- straight-line instructions ---------------------------------------

    def emit_simple(self, pc: int) -> bool:
        """Emit a non-control instruction; returns False for control ops."""
        opcode, imm = self.body[pc]
        h = self.heights[pc]

        if opcode == op.LOCAL_GET:
            self.charge()
            self.w(f"s{h} = l{imm}")
        elif opcode == op.LOCAL_SET:
            self.charge()
            self.w(f"l{imm} = s{h - 1}")
        elif opcode == op.LOCAL_TEE:
            self.charge()
            self.w(f"l{imm} = s{h - 1}")
        elif opcode in _CONST_OPS:
            self.charge()
            self.w(f"s{h} = {self.lit(_const_value(opcode, imm))}")
        elif opcode in BINOPS:
            if opcode in _TRAPPING_BINOPS:
                self.flush(1)
            else:
                self.charge()
            a, b = f"s{h - 2}", f"s{h - 1}"
            self.w(f"{a} = {_binop_expr(opcode, a, b)}")
        elif opcode in UNOPS:
            if opcode in _TRAPPING_UNOPS:
                self.flush(1)
            else:
                self.charge()
            a = f"s{h - 1}"
            expr = _unop_expr(opcode, a)
            if expr is not None:
                self.w(f"{a} = {expr}")
        elif opcode in LOADS:
            self.flush(1)
            size, signed, kind = LOADS[opcode]
            fmt = _FLOAT_FORMATS.get(kind) or _INT_FORMATS[size, signed]
            addr = self._emit_bounds_check(f"s{h - 1}", imm[1], size)
            mask = f" & {_M64 if kind == 'i64' else _M32}" if signed else ""
            self.w(f"s{h - 1} = _ld_{fmt}(md, {addr})[0]{mask}")
        elif opcode in STORES:
            self.flush(1)
            size, kind = STORES[opcode]
            addr = self._emit_bounds_check(f"s{h - 2}", imm[1], size)
            if kind == "i":
                fmt = _INT_FORMATS[size, False]
                value = f"s{h - 1} & {(1 << size * 8) - 1}"
            else:
                fmt, value = _FLOAT_FORMATS[kind], f"s{h - 1}"
            self.w(f"_st_{fmt}(md, {addr}, {value})")
        elif opcode == op.GLOBAL_GET:
            self.charge()
            self.uses.add("glb")
            self.w(f"s{h} = glb[{imm}].value")
        elif opcode == op.GLOBAL_SET:
            self.flush(1)
            self.uses.add("glb")
            self.w(f"glb[{imm}].value = s{h - 1}")
        elif opcode == op.DROP:
            self.charge()
        elif opcode == op.SELECT:
            self.charge()
            self.w(f"if not s{h - 1}:")
            self.w(f"    s{h - 3} = s{h - 2}")
        elif opcode == op.NOP:
            self.charge()
        elif opcode == op.MEMORY_SIZE:
            self.charge()
            self.uses.add("mem")
            self.w(f"s{h} = mem.size_pages")
        elif opcode == op.MEMORY_GROW:
            self.flush(1)
            self.uses.add("mem")
            self.w(f"s{h - 1} = mem.grow(s{h - 1}) & {_M32}")
        elif opcode == op.UNREACHABLE:
            self.flush(1)
            self.w('raise Trap("unreachable executed", code="unreachable")')
        elif opcode == op.CALL:
            self._emit_call(pc, h, imm)
        elif opcode == op.CALL_INDIRECT:
            self._emit_call_indirect(pc, h, imm)
        else:
            return False
        return True

    def _emit_bounds_check(self, base: str, offset: int, size: int) -> str:
        """Emit the bounds compare of one access; returns the address text.

        ``md`` is the memory's ``bytearray`` itself and the limit is read
        with ``len(md)`` at every access, so a ``memory.grow`` - here, in
        a callee or in a host function - needs no invalidation rule.
        """
        self.uses.add("md")
        addr = base
        if offset:
            addr = "_a"
            self.w(f"_a = {base} + {offset}")
        self.w(f"if {addr} + {size} > len(md):")
        self.w(f"    raise MemoryOutOfBounds({addr}, {size}, len(md))")
        return addr

    def _emit_call(self, pc: int, h: int, func_index: int) -> None:
        self.flush(1)
        ft = self.module.func_type(func_index)
        np_, nr = len(ft.params), len(ft.results)
        args = [f"s{h - np_ + k}" for k in range(np_)]
        result = f"s{h - np_}" if nr else None
        n_imported = self.module.num_imported_funcs
        if func_index < n_imported:
            self.via.append(f"import {func_index}")
        else:
            callee = aot_for(
                self.module, self.module.codes[func_index - n_imported], ft
            )
            if callee.__class__ is AotCode:
                self._emit_direct_call(func_index, callee, args, result)
                return
            self.via.append(f"threaded f{func_index}")
        self._emit_invoke(f"inst.func_addrs[{func_index}]", args, result)

    def _emit_direct_call(self, func_index: int, callee: AotCode,
                          args: list[str], result: str | None) -> None:
        """A same-module compiled callee: one plain Python call.

        Fuel goes in as an argument and comes back with the result, so a
        trap anywhere below leaves this frame's ``fuel`` at its value at
        the call site (see :meth:`build`).
        """
        self.callees[func_index] = callee
        self.uses.add("_d1")
        lead = "inst, store, _d1, fuel" if self.fueled else "inst, store, _d1"
        call = f"_f{func_index}({', '.join([lead, *args])})"
        targets = (["fuel"] if self.fueled else []) + ([result] if result else [])
        self.w(f"{', '.join(targets)} = {call}" if targets else call)

    def _emit_invoke(self, addr: str, args: list[str],
                     result: str | None) -> None:
        """A call that leaves compiled code: ``Instance.invoke_addr``."""
        self.uses.add("_d1")
        if self.fueled:
            self.w("store.fuel = fuel")
        head = "_r = " if result else ""
        self.w(f"{head}inst.invoke_addr({addr}, [{', '.join(args)}], _d1)")
        if self.fueled:
            self.w("fuel = store.fuel")
        if result:
            self.w(f"{result} = _r[0]")

    def _emit_call_indirect(self, pc: int, h: int, type_index: int) -> None:
        self.flush(1)
        self.via.append(f"call_indirect type {type_index}")
        ft = self.module.types[type_index]
        self.sigs[type_index] = ft
        sig = f"_sig{type_index}"
        np_, nr = len(ft.params), len(ft.results)
        self.w("_tb = inst.table")
        self.w(f"if _tb is None or s{h - 1} >= len(_tb.elements):")
        self.w('    raise Trap("undefined element", code="table_oob")')
        self.w(f"_fa = _tb.elements[s{h - 1}]")
        self.w("if _fa is None:")
        self.w('    raise Trap("uninitialized element", code="table_null")')
        self.w("_ft = store.funcs[_fa].functype")
        self.w(f"if _ft != {sig}:")
        self.w("    raise Trap(")
        self.w(f'        f"indirect call type mismatch: {{_ft}} != {{{sig}}}",')
        self.w('        code="sig",')
        self.w("    )")
        self._emit_invoke(
            "_fa",
            [f"s{h - 1 - np_ + k}" for k in range(np_)],
            f"s{h - 1 - np_}" if nr else None,
        )

    # ----- control flow ------------------------------------------------------

    def emit_structured(self) -> None:
        n = len(self.body)
        self.ctxs: list[_Ctx] = [
            _Ctx(0, False, False, -1, 0, self.result_arity)
        ]
        self.emit_seq(0, n - 1)
        # the function's own terminating END, charged on fall-through
        if self.heights[n - 1] is not None:
            self.flush(1)
            self._emit_return(self.heights[n - 1])

    def _emit_return(self, h: int) -> None:
        values = (["fuel"] if self.fueled else []) + (
            [f"s{h - 1}"] if self.result_arity else []
        )
        self.w(f"return {', '.join(values)}".rstrip())

    def emit_seq(self, start: int, end: int) -> None:
        """Emit pcs in ``[start, end)`` — the interior of one construct."""
        pc = start
        while pc < end:
            opcode, _imm = self.body[pc]
            if opcode in (op.BLOCK, op.LOOP, op.IF):
                end_pc = self.control[pc][0]
                if self.heights[pc] is not None:
                    self.emit_construct(pc)
                pc = end_pc + 1
                continue
            if self.heights[pc] is None:
                pc += 1
                continue
            if not self.emit_simple(pc):
                self._emit_control(pc)
            pc += 1

    def _alloc_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def emit_construct(self, pc: int) -> None:
        opcode, imm = self.body[pc]
        end_pc, else_pc = self.control[pc]
        arity = 0 if imm is None else 1
        entry = self.heights[pc] - (1 if opcode == op.IF else 0)
        target = pc + 1 if opcode == op.LOOP else end_pc + 1
        wrapped = target in self.br_targets
        ctx = _Ctx(
            opcode, opcode == op.LOOP, wrapped,
            self._alloc_id() if wrapped else -1,
            entry, 0 if opcode == op.LOOP else arity,
        )

        self.charge()  # the block/loop/if opcode itself
        if wrapped:
            self.flush(0)
            self.w("while True:")
            self.indent += 1
        body_start = len(self.lines)

        self.ctxs.append(ctx)
        if opcode == op.IF:
            self._emit_if_interior(pc, end_pc, else_pc, wrapped)
        else:
            self.emit_seq(pc + 1, end_pc)
            if self.heights[end_pc] is not None:  # fall-through reaches END
                self.flush(1)
                if wrapped:
                    self.w("break")
            elif not wrapped:
                self.pending = 0
        self.ctxs.pop()

        if wrapped:
            if len(self.lines) == body_start:
                self.w("break")  # degenerate: nothing live inside
            self.indent -= 1
            self.pending = 0
            self._emit_epilogue(ctx)

    def _emit_if_interior(self, pc: int, end_pc: int, else_pc: int | None,
                          wrapped: bool) -> None:
        # the condition read is pure; flush so both arms start at pending 0
        # (the legacy engine has charged everything up to and including the
        # `if` opcode before the branch direction is observable)
        self.flush(0)
        cond = f"s{self.heights[pc] - 1}"
        self.w(f"if {cond}:")
        self.indent += 1
        mark = len(self.lines)
        then_end = else_pc if else_pc is not None else end_pc
        self.emit_seq(pc + 1, then_end)
        then_falls = self.heights[then_end] is not None
        if else_pc is not None:
            if then_falls:
                # fall-through executes the `else` jump and the shared end
                self.flush(2)
                if wrapped:
                    self.w("break")
            else:
                self.pending = 0
            if len(self.lines) == mark:
                self.w("pass")
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            mark = len(self.lines)
            self.emit_seq(else_pc + 1, end_pc)
            if self.heights[end_pc] is not None:
                self.flush(1)
                if wrapped:
                    self.w("break")
            else:
                self.pending = 0
            if len(self.lines) == mark:
                self.w("pass")
            self.indent -= 1
        else:
            # no else-arm: the false path still executes the shared END,
            # so the END charge must hit both paths exactly once
            if then_falls:
                self.flush(1 if wrapped else 0)
                if wrapped:
                    self.w("break")
            else:
                self.pending = 0
            if len(self.lines) == mark:
                self.w("pass")
            self.indent -= 1
            if wrapped:
                self.w("else:")
                self.indent += 1
                self.flush(1)
                self.w("break")
                self.indent -= 1
            else:
                self.charge()  # END, charged once at the join (both paths)

    def _emit_control(self, pc: int) -> None:
        opcode, imm = self.body[pc]
        h = self.heights[pc]
        if opcode == op.BR:
            target, arity, dest_h = self.branches[pc]
            self.flush(1)
            self._emit_branch(imm, arity, dest_h, h)
        elif opcode == op.BR_IF:
            target, arity, dest_h = self.branches[pc]
            self.flush(1)
            self.w(f"if s{h - 1}:")
            self.indent += 1
            self._emit_branch(imm, arity, dest_h, h - 1)
            self.indent -= 1
        elif opcode == op.BR_TABLE:
            depths, default_depth = imm
            per_target, default_res, _hh = self.branches[pc]
            self.flush(1)
            if not depths:
                self._emit_branch(
                    default_depth, default_res[1], default_res[2], h - 1
                )
                return
            for k, (depth, res) in enumerate(zip(depths, per_target)):
                self.w(f"{'if' if k == 0 else 'elif'} s{h - 1} == {k}:")
                self.indent += 1
                self._emit_branch(depth, res[1], res[2], h - 1)
                self.indent -= 1
            self.w("else:")
            self.indent += 1
            self._emit_branch(default_depth, default_res[1], default_res[2], h - 1)
            self.indent -= 1
        elif opcode == op.RETURN:
            self.flush(1)
            self._emit_return(h)
        else:  # pragma: no cover - validation rejects unknown opcodes
            raise Trap(f"cannot compile opcode 0x{opcode:02x}", code="internal")

    def _emit_branch(self, depth: int, arity: int, dest_h: int,
                     src_h: int) -> None:
        """Emit the transfer for a (conditional) branch of label ``depth``."""
        if depth == len(self.ctxs) - 1:
            self._emit_return(src_h)
            return
        idx = len(self.ctxs) - 1 - depth
        ctx = self.ctxs[idx]
        if arity and dest_h != src_h - 1:
            self.w(f"s{dest_h} = s{src_h - 1}")
        nearest = None
        for c in reversed(self.ctxs[idx + 1:]):
            if c.wrapped:
                nearest = c
                break
        if nearest is None:
            self.w("continue" if ctx.is_loop else "break")
            return
        self.uses.add("_br")
        self.w(f"_br = {ctx.id}")
        self.w("break")
        for c in self.ctxs[idx + 1:]:
            if c.wrapped:
                c.needs_epilogue = True
        if not ctx.is_loop:
            ctx.consume = True
            ctx.needs_epilogue = True

    def _emit_epilogue(self, ctx: _Ctx) -> None:
        """Route a pending ``_br`` after leaving a wrapped construct."""
        if not ctx.needs_epilogue:
            return
        enclosing = next((c for c in reversed(self.ctxs) if c.wrapped), None)
        self.w("if _br != -1:")
        self.indent += 1
        clauses = False
        if ctx.consume:
            self.w(f"if _br == {ctx.id}:")
            self.w("    _br = -1")
            clauses = True
        if enclosing is not None and enclosing.is_loop:
            self.w(f"{'elif' if clauses else 'if'} _br == {enclosing.id}:")
            self.w("    _br = -1")
            self.w("    continue")
            clauses = True
        if enclosing is not None:
            if clauses:
                self.w("else:")
                self.w("    break")
            else:
                self.w("break")
        elif not clauses:  # pragma: no cover - br must land somewhere
            self.w("pass")
        self.indent -= 1

    # ----- assembly ---------------------------------------------------------

    def build(self) -> str:
        """Emit the body and assemble the full ``def`` source text.

        The function is ``_wfn(inst, store, depth[, fuel], *params)`` and
        returns ``[fuel][, result]``.  Its prologue is what every engine
        does on entering a frame - the depth limit, then the three
        :class:`~repro.wasm.interpreter.ExecStats` updates - so a direct
        call needs nothing between caller and callee.  On a trap every
        metered frame writes its own ``fuel`` to ``store.fuel`` on the way
        out, so the outermost frame's value (its fuel at its call site)
        is what the host reads: the rule all three engines follow.
        """
        self.emit_structured()
        body = self.lines

        params = ["inst", "store", "depth"] + (["fuel"] if self.fueled else [])
        np_ = len(self.functype.params)
        params += [f"l{i}" for i in range(np_)]
        prep = prepared_for(self.code)
        head: list[str] = [
            f"def _wfn({', '.join(params)}):",
            "    if depth > store.max_call_depth:",
            "        raise StackExhausted(depth)",
            "    stats = store.stats",
            "    if stats is not None:",
            "        stats.frames += 1",
            "        if depth > stats.max_call_depth:",
            "            stats.max_call_depth = depth",
            f"        if {prep.max_stack} > stats.max_value_stack:",
            f"            stats.max_value_stack = {prep.max_stack}",
        ]
        for i, default in enumerate(prep.local_defaults):
            head.append(f"    l{np_ + i} = {default!r}")
        if "md" in self.uses:
            head.append("    md = inst.memory.data")
        if "mem" in self.uses:
            head.append("    mem = inst.memory")
        if "glb" in self.uses:
            head.append("    glb = inst.globals")
        if "_d1" in self.uses:
            head.append("    _d1 = depth + 1")
        if "_br" in self.uses:
            head.append("    _br = -1")

        if self.fueled:
            head.append("    try:")
            head.extend("        " + line for line in body)
            head.append("    except BaseException:")
            head.append("        store.fuel = fuel if fuel > 0 else 0")
            head.append("        raise")
        else:
            head.extend("    " + line for line in body)
        return "\n".join(head) + "\n"


# ---------------------------------------------------------------------------
# compiled artifact + compilation entry points
# ---------------------------------------------------------------------------


class AotCode:
    """One function body lowered to Python source, compiled on first use.

    ``run(inst, store, depth, *args)`` is the unmetered function,
    ``run_fueled(inst, store, depth, fuel, *args)`` the metered one; each
    stays ``None`` until :func:`execute_aot` (which selects on
    ``store.fuel``), a caller's :meth:`compile` or a host's ``promote()``
    first needs it, so a host that always meters never pays ``compile()``
    for the unmetered variant - emitting and compiling one variant is
    about half of what lowering a function costs.  The generated text is
    not retained: ``source`` / ``source_fueled`` re-run the emitter on
    demand (``repro disasm --aot``).  ``local_defaults``/``max_stack``
    mirror the other engines so
    :class:`~repro.wasm.interpreter.ExecStats` stays bit-identical.
    """

    __slots__ = (
        "run", "run_fueled", "local_defaults", "max_stack", "n_instrs",
        "_module", "_code", "_functype", "_name",
    )

    def __init__(self, module: Module, code: Code, functype: FuncType,
                 name: str = "fn"):
        prep = prepared_for(code)
        self.run = None
        self.run_fueled = None
        self.local_defaults = prep.local_defaults
        self.max_stack = prep.max_stack
        self.n_instrs = len(code.body)
        self._module = module
        self._code = code
        self._functype = functype
        self._name = name

    def _emit(self, fueled: bool) -> tuple[str, _Emitter]:
        """Source text of one fuel variant and the emitter that wrote it."""
        emitter = _Emitter(self._module, self._code, self._functype, fueled)
        return emitter.build(), emitter

    def compile(self, fueled: bool):
        """Compile (once) and return the ``fueled`` / unmetered variant.

        A direct call is a global ``_f{index}`` of the caller's namespace,
        so the same variant of every function reachable through direct
        calls is compiled here too (a worklist, not recursion: a call
        chain may be as long as the module).  Callees are the same
        ``Module``'s own ``AotCode``s, so the binding is a property of the
        bytes and the result stays shareable across instances.
        Nothing is published until everything is linked.
        """
        attr = "run_fueled" if fueled else "run"
        fn = getattr(self, attr)
        if fn is not None:
            return fn
        built: dict[AotCode, tuple[dict, dict[int, AotCode]]] = {}
        todo = [self]
        while todo:
            acode = todo.pop()
            if acode in built or getattr(acode, attr) is not None:
                continue
            source, emitter = acode._emit(fueled)
            ns = dict(_HELPERS)
            for type_index, ft in emitter.sigs.items():
                ns[f"_sig{type_index}"] = ft
            ns.update(emitter.consts)
            exec(compile(source, f"<aot:{acode._name}>", "exec"), ns)
            built[acode] = ns, emitter.callees
            todo.extend(emitter.callees.values())
        for ns, callees in built.values():
            for index, callee in callees.items():
                ns[f"_f{index}"] = (
                    getattr(callee, attr) or built[callee][0]["_wfn"]
                )
        for acode, (ns, _callees) in built.items():
            setattr(acode, attr, ns["_wfn"])
        return getattr(self, attr)

    @property
    def source(self) -> str:
        """The generated unmetered Python source (regenerated per access)."""
        return self._emit(False)[0]

    @property
    def source_fueled(self) -> str:
        return self._emit(True)[0]


def compile_aot(module: Module, code: Code, functype: FuncType,
                name: str = "fn") -> AotCode:
    """Lower one validated function body; variants compile on first use."""
    return AotCode(module, code, functype, name)


def aot_for(module: Module, code: Code,
            functype: FuncType) -> AotCode | ThreadedCode:
    """The body engine ``aot`` runs for ``code``, memoized on the ``Code``.

    An :class:`AotCode`, except for a function nested past
    ``_MAX_STRUCTURED_DEPTH``: nested Python cannot express it, so it
    keeps its threaded body.
    """
    cached = getattr(code, "_aot", None)
    if cached is None:
        if _max_nesting(code.body) > _MAX_STRUCTURED_DEPTH:
            cached = threaded_for(module, code, functype)
        else:
            cached = compile_aot(module, code, functype)
        object.__setattr__(code, "_aot", cached)
    return cached


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute_aot(store, instance, acode: AotCode, args: list,
                result_arity: int, depth: int):
    """Enter one AOT-compiled function from outside compiled code.

    The adapter behind ``Instance.invoke_addr`` - an export, a
    ``call_indirect``, a threaded or legacy caller; a compiled caller of
    the same module calls the function directly.  The depth limit, the
    stats and the trap-time ``store.fuel`` are the generated function's
    own business, so the contract (arguments, results, traps, fuel,
    stats) stays identical to :func:`repro.wasm.interpreter.execute` and
    :func:`repro.wasm.threaded.execute_threaded`.
    """
    fuel = store.fuel
    if fuel is None:
        result = (acode.run or acode.compile(False))(
            instance, store, depth, *args
        )
        return [result] if result_arity else []
    run_fueled = acode.run_fueled or acode.compile(True)
    if result_arity:
        store.fuel, result = run_fueled(instance, store, depth, fuel, *args)
        return [result]
    store.fuel = run_fueled(instance, store, depth, fuel, *args)
    return []


# ---------------------------------------------------------------------------
# diagnostics (repro disasm --aot / repro aot --dump)
# ---------------------------------------------------------------------------


def dump_aot(module_or_bytes, fueled: bool = False) -> str:
    """Wasm body and generated Python source for every function.

    Each function prints its original instruction sequence (mnemonics, as
    in ``repro disasm``) followed by the Python the AOT tier generated
    for it, so a lowering bug is diagnosable by eye.  A compiled function
    names the callees it calls directly and every call site that stays on
    ``Instance.invoke_addr`` (imports, ``call_indirect``, a callee that
    kept its threaded body); a function too deep to structure says so and
    prints the threaded code it keeps instead.
    """
    module = load_module(module_or_bytes)

    exports_by_index: dict[int, list[str]] = {}
    for export in module.exports:
        if export.kind == "func":
            exports_by_index.setdefault(export.index, []).append(export.name)

    n_imported = module.num_imported_funcs
    lines: list[str] = []
    for i, code in enumerate(module.codes):
        func_index = n_imported + i
        functype = module.func_type(func_index)
        body = aot_for(module, code, functype)
        compiled = body.__class__ is AotCode
        names = "".join(
            f' (export "{n}")' for n in exports_by_index.get(func_index, [])
        )
        tier = "compiled" if compiled else (
            f"keeps its threaded body (block nesting "
            f"{_max_nesting(code.body)} > {_MAX_STRUCTURED_DEPTH})"
        )
        lines.append(
            f"func {func_index}{names}: {body.n_instrs} wasm instrs, {tier}"
        )
        if compiled:
            source, emitter = body._emit(fueled)
            direct = " ".join(f"f{i}" for i in sorted(emitter.callees))
            lines.append(
                f"  ;; direct: {direct or '-'}; "
                f"via invoke_addr: {', '.join(dict.fromkeys(emitter.via)) or '-'}"
            )
        lines.append("  ;; wasm body")
        for pc in range(len(code.body)):
            lines.append(f"  {pc:04d}  {_mn(code.body, pc)}")
        if compiled:
            lines.append(
                "  ;; generated python (%s)"
                % ("fueled" if fueled else "unfueled")
            )
            lines.extend(f"  {line}" for line in source.splitlines())
        else:
            lines.append("  ;; threaded code")
            lines.extend(body.listing())
    return "\n".join(lines)
