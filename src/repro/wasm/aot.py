"""AOT backend: function bodies compiled to generated Python source.

The threaded engine (:mod:`repro.wasm.threaded`) removed opcode dispatch
by pre-binding one handler per instruction slot; the hot loop still pays
one Python call per slot.  This module climbs the next rung of the
interpreter->AOT ladder: each function body is *translated to Python
source* and ``compile()``d once, so a Wasm function becomes a single
Python function call with no per-instruction dispatch at all.  The one
emitter is an optimising one: besides structuring control flow it folds
the operand stack into expressions, inlines small leaf callees and calls
host imports directly.

Lowering rules
--------------

- **The operand stack folds into expressions.**  Validated Wasm has a
  fixed operand-stack height at every reachable program point (the
  validator records it, with block ends and resolved branches, as the
  body's :class:`~repro.wasm.validator.BodyFacts`: every engine lowers
  from those facts), so the value at height ``i``
  has a home, the Python local ``s{i}``; Wasm locals live in ``l{i}``.  A
  pure producer - a constant, ``local.get``, ``global.get``, or a
  non-trapping unop/binop of such values - is not written to its slot but
  kept as pending text and substituted into its consumer, so
  ``local.get 0; i32.const 4; i32.mul; i32.load`` is one bounds check on
  ``(l0 * 4) & 4294967295``.  A pending value records what it reads
  (slots, locals, globals) and is written to its slot before any of those
  is written (lowest slot first), before a call for globals and the
  call's result slot, and at every construct boundary and branch.  A
  comparison stays a condition: ``if``/``br_if`` test ``a < b`` itself,
  not ``(1 if a < b else 0)``, and ``i32.eqz`` / ``!= 0`` of a comparison
  reuse it.  The signed view of a constant is folded at emit time.
- **Numeric helpers go inline.**  ``i32``/``i64`` ``div``/``rem`` check
  div-by-zero, then overflow, in line (same ``Trap`` text and code; a
  positive constant divisor cannot trap and needs no check);
  ``f64.div`` / ``max`` / ``min`` are expressions that fall back to the
  :data:`~repro.wasm.interpreter.BINOPS` helper only for a zero divisor
  or equal / NaN operands; ``f64.convert_i32_s/u`` are ``float(...)``.
- **Reducible control flow becomes ``while``/``if``.**  ``block``/``loop``/
  ``if`` nest and ``br`` only targets enclosing constructs.  A construct
  that is a branch target is wrapped in ``while True:``; ``br`` to a loop
  lowers to ``continue``, ``br`` to a block to ``break``, and multi-level
  branches thread a ``_br`` label variable through the loop epilogues.
- **Too deep to structure: the function keeps its legacy body.**
  CPython caps statically nested blocks, so a body nested past
  ``_MAX_STRUCTURED_DEPTH`` is not compiled: :func:`aot_for` hands back
  the reference interpreter's
  :func:`~repro.wasm.interpreter.prepared_for` lowering, and calls into
  it go through ``Instance.invoke_index``, which dispatches per function
  on the class of ``prepared`` (the property tier-up relies on).
- **A call inside the module is a Python call, or no call at all.**  A
  *leaf* - straight-line up to its ``return``: no call, branch,
  ``select``, ``memory.grow`` or reachable ``unreachable``, at most
  ``_MAX_INLINE_INSTRS`` instructions - is emitted at its call site
  behind one test for what its frame owes on entry (see the fuel rule
  below); its ``ExecStats`` frame is counted in the local ``_nf`` and
  folded into ``store.stats`` when the caller leaves, by a return or a
  trap.  Any other compiled callee is
  ``fuel, s3 = _f7(inst, store, _d1, fuel, ...)``: operands as arguments,
  fuel in and out, its entry dues in its own prologue.  An import is a
  host function (the only kind an instance links), called as
  ``_hf[i].fn(inst, ...)`` with ``store.fuel`` synced around it (the
  host may read it); a plain ``int`` result is masked in line and
  anything else goes through
  :meth:`~repro.wasm.instance.HostFunc.results`, the normaliser
  ``invoke_index`` uses.  ``call_indirect`` and legacy callees go
  through ``inst.invoke_index``; :func:`execute_aot` is only the adapter
  for entering compiled code from outside.
- **Memory access is inlined.**  A load or store is one bounds compare
  against ``_ml`` - ``md`` is the memory's ``bytearray`` itself, bound
  once per function entry, and ``_ml`` its length, read at entry and
  again after every direct, host or ``invoke_index`` call and every
  ``memory.grow`` (``Memory.data`` is never rebound, so nothing else can
  move it) - raising the same ``MemoryOutOfBounds(addr, size, limit)``,
  then a pre-bound ``struct.Struct`` ``unpack_from`` / ``pack_into``.  An
  address that is an i32 ``add`` / ``mul`` / constant ``shl`` tree is
  first tried without its wrap-around masks: the unmasked value is
  congruent to the masked one mod 2**32 and not negative, so in bounds
  (below 2**32) it *is* the masked one; out of bounds, the masked one is
  taken and checked.  Not a ``memoryview``: a live export makes
  ``bytearray.extend`` raise ``BufferError``.
- **Fuel is charged where running out can be observed.**  Locals, slots
  and pending values die with the frame on a trap, so only effects can
  tell *where* fuel ran out: a trap, a store, a global write, a call, a
  ``return`` - and a loop back-edge, or a loop could spin unmetered.  The
  emitter keeps a count of fuel owed and charges it, with a check, right
  before each of those; everywhere else it carries the debt.  A
  wrapped block's ``while True:`` runs once, so the debt goes inside it
  (only a loop pays before its header); both arms of an ``if`` start
  with it, and at the join the arm owing more pays the difference (an
  ``if`` without ``else`` gets an ``else:`` for it when that arm owes
  more); a ``br_if``'s taken path pays and its fall-through carries it.
  A charge that no effect can follow before the next checked one - the
  payment at a join, a ``break`` out of a block, a loop's entry - is a
  bare subtraction: the next check reports it.  An inlined leaf's call
  charge, depth check (``_deep``, computed once per frame) and whole
  charge share one test; past it nothing in the leaf can run out, and
  its cold path replays the leaf with every charge checked, in the
  legacy order (fuel, then ``StackExhausted``, then fuel).  The counter
  is never ahead of the legacy engine's and equals it at every check, so
  trap codes, the fuel counter at trap time, ``ExecStats`` and all
  memory/global state match it at every budget.
- **Trap-time fuel: the outermost frame wins.**  In every engine a frame
  unwinding from a trap overwrites ``store.fuel`` with its own counter,
  so the host reads the *outermost* Wasm frame's value - its fuel at its
  call site.  Each body is wrapped in ``except BaseException:
  store.fuel = fuel if fuel > 0 else 0; raise``; a ``StackExhausted``
  raised by a prologue leaves ``store.fuel`` to the callers.  An inlined
  leaf charges its own counter, ``_fi = fuel - n``, and commits it with
  ``fuel = _fi`` only on return, so a trap inside it leaves the caller's
  ``fuel`` at the call site, as the leaf's own frame would.

Compiled code is instance-independent (instance, store and depth are
arguments; a direct or inlined callee is a function of the same
``Module``), so AOT artifacts are shared by every instance of their
``Module`` exactly like threaded code
(:func:`repro.wasm.instance.compiled_bodies`).  An artifact compiles on
first use (:class:`AotCode`), and a leaf that is only ever inlined is
never compiled on its own.  Engine selection: ``REPRO_WASM_ENGINE=aot`` (the
default; :class:`repro.abi.host.PluginHost` tiers up to it from threaded
code, ``Instance(engine="aot")`` binds it directly).
"""

from __future__ import annotations

import struct

from repro.wasm import opcodes as op
from repro.wasm.interpreter import (
    BINOPS,
    MASK32,
    MASK64,
    UNOPS,
    const_value,
    f32_round,
    local_defaults,
    prepared_for,
)
from repro.wasm.loader import load_module
from repro.wasm.module import Code, Module
from repro.wasm.opcodes import CONST_OPS, LOADS, STORES, TRAPPING_OPS
from repro.wasm.traps import (
    FuelExhausted,
    MemoryOutOfBounds,
    StackExhausted,
    Trap,
)
from repro.wasm.validator import body_facts
from repro.wasm.wtypes import FuncType, ValType

#: nesting depth beyond which a function is not compiled and keeps its
#: legacy body.  The emitter nests one Python block per branch-targeted
#: construct plus the body's ``try``, and CPython rejects more than 20
#: statically nested blocks (measured on 3.11: refused from Wasm depth
#: 20), so depth <= 16 always compiles.
_MAX_STRUCTURED_DEPTH = 16

#: a leaf callee this short is emitted at its call sites (the largest
#: field accessor in the shipped plugins is 11 instructions)
_MAX_INLINE_INSTRS = 24

#: a folded expression nested deeper than this is written to its slot
#: (bounds the parenthesis depth the CPython parser has to take)
_MAX_FOLD_DEPTH = 12

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


# ---------------------------------------------------------------------------
# expression text: operands are texts, already parenthesised where needed
# ---------------------------------------------------------------------------


def _signed(x: str, bits: int) -> str:
    """Signed view of an unsigned ``bits``-wide value; a constant folds.

    ``x`` is used more than once, so it must be a name or a literal.
    """
    if x.isdigit():
        value = int(x)
        return str(value - (1 << bits) if value >> (bits - 1) else value)
    return f"({x} - {1 << bits} if {x} >= {1 << (bits - 1)} else {x})"


#: comparisons: opcode -> (operator, width of the signed view or 0)
_COMPARES = {
    opcode: (sym, 0)
    for sym, opcodes in (
        ("==", (op.I32_EQ, op.I64_EQ, op.F32_EQ, op.F64_EQ)),
        ("!=", (op.I32_NE, op.I64_NE, op.F32_NE, op.F64_NE)),
        ("<", (op.I32_LT_U, op.I64_LT_U, op.F32_LT, op.F64_LT)),
        (">", (op.I32_GT_U, op.I64_GT_U, op.F32_GT, op.F64_GT)),
        ("<=", (op.I32_LE_U, op.I64_LE_U, op.F32_LE, op.F64_LE)),
        (">=", (op.I32_GE_U, op.I64_GE_U, op.F32_GE, op.F64_GE)),
    )
    for opcode in opcodes
} | {
    opcode: (sym, bits)
    for sym, o32, o64 in (
        ("<", op.I32_LT_S, op.I64_LT_S), (">", op.I32_GT_S, op.I64_GT_S),
        ("<=", op.I32_LE_S, op.I64_LE_S), (">=", op.I32_GE_S, op.I64_GE_S),
    )
    for opcode, bits in ((o32, 32), (o64, 64))
}

#: arithmetic that lowers to a template over ``{a}`` / ``{b}``
_ARITH = {
    op.I32_ADD: "({a} + {b}) & " + _M32,
    op.I32_SUB: "({a} - {b}) & " + _M32,
    op.I32_MUL: "({a} * {b}) & " + _M32,
    op.I64_ADD: "({a} + {b}) & " + _M64,
    op.I64_SUB: "({a} - {b}) & " + _M64,
    op.I64_MUL: "({a} * {b}) & " + _M64,
    op.I32_AND: "{a} & {b}", op.I64_AND: "{a} & {b}",
    op.I32_OR: "{a} | {b}", op.I64_OR: "{a} | {b}",
    op.I32_XOR: "{a} ^ {b}", op.I64_XOR: "{a} ^ {b}",
    op.F32_ADD: "_f32({a} + {b})",
    op.F32_SUB: "_f32({a} - {b})",
    op.F32_MUL: "_f32({a} * {b})",
    op.F64_ADD: "{a} + {b}",
    op.F64_SUB: "{a} - {b}",
    op.F64_MUL: "{a} * {b}",
    op.F64_MAX: "({a} if {a} > {b} else {b} if {b} > {a} else _b%02x({a}, {b}))"
    % op.F64_MAX,
    op.F64_MIN: "({a} if {a} < {b} else {b} if {b} < {a} else _b%02x({a}, {b}))"
    % op.F64_MIN,
}

#: i32 arithmetic that is a ring operation mod 2**32 on non-negative
#: operands: its unmasked value is congruent to the masked one and not
#: below 0, so the two are equal whenever the unmasked one is < 2**32
_RAW_OPS = {op.I32_ADD, op.I32_MUL, op.I32_SHL}


def _raw_text(raw: tuple) -> str:
    terms, constant = raw
    if terms is None:
        return str(constant)
    return f"{terms} + {constant}" if constant else terms


def _raw_arith(opcode: int, a: tuple | None, b: tuple | None) -> tuple | None:
    """The unmasked ``(terms, constant)`` of an i32 ``add`` / ``mul`` /
    constant ``shl`` of two unmasked operands (None if either is not one,
    or the shift count is not a constant); constants are folded."""
    if a is None or b is None:
        return None
    if opcode == op.I32_ADD:
        terms = " + ".join(t for t in (a[0], b[0]) if t is not None) or None
        return terms, a[1] + b[1]
    if opcode == op.I32_SHL:
        if b[0] is not None:
            return None
        b = (None, 1 << (b[1] % 32))
    if a[0] is None:
        a, b = b, a
    if b[0] is None:  # distribute a constant factor
        k = b[1]
        if a[0] is None or k == 0:
            return None, a[1] * k
        terms = a[0] if " + " not in a[0] else f"({a[0]})"
        return (terms if k == 1 else f"{terms} * {k}"), a[1] * k
    return f"({_raw_text(a)}) * ({_raw_text(b)})", 0


#: shifts: opcode -> (width, operator, signed)
_SHIFTS = {
    op.I32_SHL: (32, "<<", False), op.I32_SHR_U: (32, ">>", False),
    op.I32_SHR_S: (32, ">>", True), op.I64_SHL: (64, "<<", False),
    op.I64_SHR_U: (64, ">>", False), op.I64_SHR_S: (64, ">>", True),
}

#: binops and unops whose operand text appears more than once in the
#: lowering: a non-trivial operand is written to its slot first
_MULTI_USE = {
    op.I32_LT_S, op.I32_GT_S, op.I32_LE_S, op.I32_GE_S,
    op.I64_LT_S, op.I64_GT_S, op.I64_LE_S, op.I64_GE_S,
    op.I32_SHR_S, op.I64_SHR_S, op.F64_DIV, op.F64_MAX, op.F64_MIN,
    op.I64_EXTEND_I32_S, op.F64_CONVERT_I32_S,
}

#: division: opcode -> (width, signed, operator)
_DIVREM = {
    op.I32_DIV_S: (32, True, "//"), op.I32_DIV_U: (32, False, "//"),
    op.I32_REM_S: (32, True, "%"), op.I32_REM_U: (32, False, "%"),
    op.I64_DIV_S: (64, True, "//"), op.I64_DIV_U: (64, False, "//"),
    op.I64_REM_S: (64, True, "%"), op.I64_REM_U: (64, False, "%"),
}


def _binop_expr(opcode: int, a: str, b: str) -> tuple[str, str | None]:
    """``(text, condition)`` of a non-trapping binop; ``condition`` is the
    bare test of a comparison (its text is ``(1 if test else 0)``).

    Numerically identical to the :data:`~repro.wasm.interpreter.BINOPS`
    lambdas: unsigned ints in ``[0, 2**N)``, comparisons producing 0/1,
    f32 arithmetic rounded through ``_f32``.
    """
    compare = _COMPARES.get(opcode)
    if compare is not None:
        sym, bits = compare
        if bits:
            a, b = _signed(a, bits), _signed(b, bits)
        cond = f"{a} {sym} {b}"
        return f"(1 if {cond} else 0)", cond
    template = _ARITH.get(opcode)
    if template is not None:
        return template.format(a=a, b=b), None
    shift = _SHIFTS.get(opcode)
    if shift is not None:
        bits, sym, signed = shift
        count = str(int(b) % bits) if b.isdigit() else f"({b} % {bits})"
        value = _signed(a, bits) if signed else a
        mask = f" & {_M32 if bits == 32 else _M64}" if sym == "<<" or signed else ""
        if not mask:
            return f"{value} {sym} {count}", None
        return f"({value} {sym} {count}){mask}", None
    if opcode == op.F64_DIV:
        if b[0].isdigit() and float(b) != 0.0:
            return f"{a} / {b}", None
        return f"({a} / {b} if {b} else _b{opcode:02x}({a}, {b}))", None
    return f"_b{opcode:02x}({a}, {b})", None


#: unops that lower to no code at all (identity on our value repr)
_IDENTITY_UNOPS = {op.I64_EXTEND_I32_U, op.F64_PROMOTE_F32}


def _unop_expr(opcode: int, a: str, cond: str | None) -> tuple[str, str | None]:
    """``(text, condition)`` of a non-trapping, non-identity unop."""
    if opcode in (op.I32_EQZ, op.I64_EQZ):
        test = f"not ({cond})" if cond is not None else f"{a} == 0"
        return f"(1 if {test} else 0)", test
    if opcode == op.I32_WRAP_I64:
        return f"{a} & {_M32}", None
    if opcode == op.I64_EXTEND_I32_S:
        return str(int(_signed(a, 32)) & MASK64) if a.isdigit() else (
            f"({a} + 18446744069414584320 if {a} >= 2147483648 else {a})"
        ), None
    if opcode == op.F64_CONVERT_I32_S:
        return f"float({_signed(a, 32)})", None
    if opcode == op.F64_CONVERT_I32_U:
        return f"float({a})", None
    return f"_u{opcode:02x}({a})", None


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


#: what keeps a body from being a leaf (reachable occurrences only)
_NOT_IN_LEAF = {
    op.CALL, op.CALL_INDIRECT, op.BR, op.BR_IF, op.BR_TABLE, op.BLOCK,
    op.LOOP, op.IF, op.ELSE, op.SELECT, op.MEMORY_GROW, op.UNREACHABLE,
}

_NO_READS: frozenset = frozenset()
#: what ``vals.get`` answers for a slot with nothing pending
_NO_VALUE = ("", _NO_READS, 0, None)


#: A stack value at emit time is a tuple ``(text, reads, depth, cond)``:
#: its Python text, the names it reads (``s3`` / ``l2`` / ``g0`` plus ``g``
#: / an inlined leaf's ``_i4_1``), how deep its expression nests (0: a name or
#: a literal) and, for a comparison, the bare test - tracked, never
#: parsed back out of the text.


def _wrap(value: tuple) -> str:
    """The value's text, parenthesised unless it is a name or literal."""
    return value[0] if value[2] == 0 else f"({value[0]})"


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
    """Emits one function body as Python source."""

    def __init__(self, acode: AotCode):
        self.acode = acode
        self.module = acode._module
        self.code = acode._code
        self.body = self.code.body
        self.functype = acode._functype
        self.result_arity = len(self.functype.results)
        facts = acode.facts
        self.heights, self.branches, self.ends = (
            facts.heights, facts.branches, facts.ends
        )
        self.lines: list[str] = []
        self.indent = 0
        #: fuel owed but not yet charged
        self.charges = 0
        #: inside an inlined leaf's body, where each charge would go: a
        #: ``(line index, amount)`` per flush (see :meth:`_emit_inlined`)
        self.leaf_charges: list[tuple[int, int]] | None = None
        #: unmasked text of an i32 ``add`` / ``mul`` / constant ``shl``
        #: tree, by its masked text (see :meth:`_emit_bounds_check`)
        self.raws: dict[str, tuple] = {}
        #: the frame being emitted: the caller's, or an inlined leaf's
        #: (its slots start at ``base``, its locals are ``lnames``)
        self.base = 0
        self.lnames: list[str] | None = None
        #: pending (folded) stack values by slot
        self.vals: dict[int, tuple] = {}
        self.uses: set[str] = set()
        #: the call boundary ``dump_aot`` prints: callees emitted in line
        #: (``leaves``, see :meth:`_scan`), callees called directly, imports
        #: called directly, and the call sites that stay on ``invoke_index``
        self.callees: dict[int, AotCode] = {}
        self.hosts: set[int] = set()
        self.via: list[str] = []
        self.sigs: dict[int, FuncType] = {}
        self.consts: dict[str, float] = {}
        self._next_id = 0
        self.br_targets = self._collect_br_targets()
        self._scan()

    def _scan(self) -> None:
        """One pass over the body for what the emitter must know ahead:
        the leaves it inlines (and whether one needs ``_nm``: a
        ``max_stack`` above this frame's) and whether it touches memory."""
        self.n_imported = self.module.num_imported_funcs
        self.leaves: dict[int, AotCode] = {}
        memory = False
        for pc, (opcode, imm) in enumerate(self.body):
            if self.heights[pc] is None:
                continue
            if opcode == op.CALL:
                callee = self.callee(imm)
                if callee.__class__ is AotCode and callee.leaf:
                    self.leaves[imm] = callee
            elif opcode in LOADS or opcode in STORES:
                memory = True
        self.memory = memory or any(
            o in LOADS or o in STORES
            for leaf in self.leaves.values() for o, _imm in leaf._code.body
        )
        self.nm = any(
            leaf.max_stack > self.acode.max_stack for leaf in self.leaves.values()
        )

    def callee(self, func_index: int):
        """The body a call of ``func_index`` runs, or None for an import."""
        if func_index < self.n_imported:
            return None
        return aot_for(
            self.module, self.module.codes[func_index - self.n_imported],
            self.module.func_type(func_index),
        )

    # ----- low-level helpers ------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def charge(self) -> None:
        self.charges += 1

    def flush(self, extra: int = 0, check: bool = True) -> None:
        """Charge the fuel owed (plus ``extra`` for the op at hand).

        ``check=False`` where nothing observable follows before the next
        checked charge on every path (a ``break`` out of a block, the
        entry of a loop): running out is then reported there.
        """
        n = self.charges + extra
        self.charges = 0
        if n == 0:
            return
        if self.leaf_charges is not None:
            self.leaf_charges.append((len(self.lines), n))
            return
        self.lines.extend(self._charge_lines(n, self.indent, check))

    @staticmethod
    def _charge_lines(n: int, indent: int, check: bool,
                      counter: str = "fuel") -> list[str]:
        pad = "    " * indent
        lines = [f"{pad}{counter} -= {n}"]
        if check:
            lines += [f"{pad}if {counter} < 0:", f"{pad}    raise FuelExhausted"]
        return lines

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

    def lname(self, index: int) -> str:
        return f"l{index}" if self.lnames is None else self.lnames[index]

    # ----- pending values ---------------------------------------------------

    def put(self, slot: int, value: tuple) -> None:
        """Leave ``value`` pending in ``slot`` (written out if too deep)."""
        if value[2] > _MAX_FOLD_DEPTH:
            self.write(slot, value[0])
        else:
            self.vals[slot] = value

    def take(self, slot: int) -> tuple:
        """Pop the value in ``slot`` for its consumer."""
        value = self.vals.pop(slot, None)
        if value is None:
            name = f"s{slot}"
            return name, frozenset((name,)), 0, None
        return value

    def peek(self, slot: int) -> str:
        value = self.vals.get(slot)
        return f"s{slot}" if value is None else value[0]

    def take_simple(self, slot: int) -> tuple:
        """Pop ``slot`` as a name or literal, writing it to its slot first
        if it is an expression (its consumer uses it more than once)."""
        if self.vals.get(slot, _NO_VALUE)[2]:
            self.spill(slot)
        return self.take(slot)

    def write(self, slot: int, text: str) -> None:
        """A statement that assigns ``s{slot}``."""
        self.clobber(f"s{slot}")
        self.w(f"s{slot} = {text}")

    def spill(self, slot: int) -> None:
        """Write the pending value of ``slot`` out to ``s{slot}``."""
        self.write(slot, self.vals.pop(slot)[0])

    def clobber(self, name: str) -> None:
        """Write out every pending value that reads ``name`` - about to be
        assigned - lowest slot first (a value only ever reads slots at or
        above its own, so a spill never clobbers one already written).
        ``"g"`` is every global: what a callee may write."""
        for slot in sorted(self.vals):
            value = self.vals.get(slot)
            if value is not None and name in value[1]:
                self.spill(slot)

    def spill_all(self) -> None:
        for slot in sorted(self.vals):
            if slot in self.vals:
                self.spill(slot)

    # ----- straight-line instructions ---------------------------------------

    def emit_simple(self, pc: int) -> bool:
        """Emit a non-control instruction; returns False for control ops."""
        opcode, imm = self.body[pc]
        h = self.heights[pc] + self.base

        if opcode == op.LOCAL_GET:
            self.charge()
            name = self.lname(imm)
            reads = frozenset((name,)) if name.isidentifier() else _NO_READS
            self.put(h, (name, reads, 0, None))
        elif opcode == op.LOCAL_SET or opcode == op.LOCAL_TEE:
            self.charge()
            text = self.take(h - 1)[0]
            name = self.lname(imm)
            self.clobber(name)
            if text != name:
                self.w(f"{name} = {text}")
            if opcode == op.LOCAL_TEE:
                self.put(h - 1, (name, frozenset((name,)), 0, None))
        elif opcode in CONST_OPS:
            self.charge()
            self.put(h, (self.lit(const_value(opcode, imm)), _NO_READS, 0, None))
        elif opcode in BINOPS:
            self._emit_binop(opcode, h)
        elif opcode in UNOPS:
            self._emit_unop(opcode, h)
        elif opcode in LOADS:
            self.flush(1)
            access = LOADS[opcode]
            size, signed, kind = access.size, access.signed, access.vt.short
            fmt = _FLOAT_FORMATS.get(kind) or _INT_FORMATS[size, signed]
            addr = self._emit_bounds_check(self.take(h - 1), imm[1], size)
            mask = f" & {_M64 if kind == 'i64' else _M32}" if signed else ""
            self.write(h - 1, f"_ld_{fmt}(md, {addr})[0]{mask}")
        elif opcode in STORES:
            self.flush(1)
            access = STORES[opcode]
            size, kind = access.size, access.vt.short
            value = self.take(h - 1)
            addr = self._emit_bounds_check(self.take(h - 2), imm[1], size)
            fmt = _FLOAT_FORMATS.get(kind) or _INT_FORMATS[size, False]
            text = value[0]
            if kind in ("i32", "i64") and opcode not in (op.I32_STORE, op.I64_STORE):
                mask = (1 << size * 8) - 1  # a narrow store
                text = (str(int(text) & mask) if text.isdigit()
                        else f"{_wrap(value)} & {mask}")
            self.w(f"_st_{fmt}(md, {addr}, {text})")
        elif opcode == op.GLOBAL_GET:
            self.charge()
            self.uses.add("glb")
            self.put(h, (f"glb[{imm}].value", frozenset(("g", f"g{imm}")), 0, None))
        elif opcode == op.GLOBAL_SET:
            self.flush(1)
            self.uses.add("glb")
            text = self.take(h - 1)[0]
            self.clobber(f"g{imm}")
            self.w(f"glb[{imm}].value = {text}")
        elif opcode == op.DROP:
            self.charge()
            self.take(h - 1)
        elif opcode == op.SELECT:
            self.charge()
            cond = self.take(h - 1)
            second, first = self.take(h - 2), self.take(h - 3)
            self.write(
                h - 3,
                f"{_wrap(first)} if {cond[3] or _wrap(cond)} else {_wrap(second)}",
            )
        elif opcode == op.NOP:
            self.charge()
        elif opcode == op.MEMORY_SIZE:
            self.charge()
            self.uses.add("mem")
            self.write(h, "mem.size_pages")
        elif opcode == op.MEMORY_GROW:
            self.flush(1)
            self.uses.add("mem")
            self.write(h - 1, f"mem.grow({self.take(h - 1)[0]}) & {_M32}")
            self.refresh_ml()
        elif opcode == op.UNREACHABLE:
            self.flush(1)
            self.w('raise Trap("unreachable executed", code="unreachable")')
            self.vals.clear()
        elif opcode == op.CALL:
            self._emit_call(h, imm)
        elif opcode == op.CALL_INDIRECT:
            self._emit_call_indirect(h, imm)
        else:
            return False
        return True

    def _emit_binop(self, opcode: int, h: int) -> None:
        if opcode in _DIVREM:
            self._emit_div(opcode, h)
            return
        self.charge()
        if opcode in _MULTI_USE:
            b, a = self.take_simple(h - 1), self.take_simple(h - 2)
        else:
            b, a = self.take(h - 1), self.take(h - 2)
        if b[0] == "0" and opcode in (op.I32_NE, op.I64_NE, op.I32_EQ, op.I64_EQ):
            if opcode in (op.I32_EQ, op.I64_EQ):
                text, cond = _unop_expr(op.I32_EQZ, _wrap(a), a[3])
            elif a[3] is not None:  # `!= 0` of a comparison is the comparison
                text, cond = a[0], a[3]
            else:
                cond = _wrap(a)
                text = f"(1 if {cond} else 0)"
        else:
            text, cond = _binop_expr(opcode, _wrap(a), _wrap(b))
            if opcode in _RAW_OPS:
                raw = _raw_arith(opcode, self.raw(a), self.raw(b))
                if raw is not None:
                    self.raws[text] = raw
        self.put(h - 2, (text, a[1] | b[1], max(a[2], b[2]) + 1, cond))

    def raw(self, value: tuple) -> tuple | None:
        """``value`` without the wrap-around masks of its i32 ``add`` /
        ``mul`` / ``shl`` tree, as ``(terms, constant)``, or None if it is
        some other expression."""
        if value[2] == 0:
            text = value[0]
            return (None, int(text)) if text.isdigit() else (text, 0)
        return self.raws.get(value[0])

    def _emit_unop(self, opcode: int, h: int) -> None:
        if opcode in TRAPPING_OPS:
            self.flush(1)
            self.write(h - 1, f"_u{opcode:02x}({self.take(h - 1)[0]})")
            return
        self.charge()
        if opcode in _IDENTITY_UNOPS:
            return
        a = self.take_simple(h - 1) if opcode in _MULTI_USE else self.take(h - 1)
        text, cond = _unop_expr(opcode, _wrap(a), a[3])
        self.put(h - 1, (text, a[1], a[2] + 1, cond))

    def _emit_div(self, opcode: int, h: int) -> None:
        """``div`` / ``rem``, signed and unsigned, with the traps in line:
        divide-by-zero first, then signed-division overflow."""
        bits, signed, sym = _DIVREM[opcode]
        mask = _M32 if bits == 32 else _M64
        divisor = self.vals.get(h - 1, _NO_VALUE)[0]
        limit = 1 << (bits - 1 if signed else bits)
        if divisor.isdigit() and 0 < int(divisor) < limit:
            # a positive constant divisor cannot trap
            self.charge()
            self.take(h - 1)
            if not signed:
                a = self.take(h - 2)
                self.put(h - 2, (f"{_wrap(a)} {sym} {divisor}", a[1], a[2] + 1, None))
                return
            a = self.take_simple(h - 2)
            x = a[0]
            text = (
                f"{x} {sym} {divisor} if {x} < {1 << (bits - 1)} "
                f"else -(({1 << bits} - {x}) {sym} {divisor}) & {mask}"
            )
            self.put(h - 2, (text, a[1], 1, None))
            return
        self.flush(1)
        b, a = self.take_simple(h - 1), self.take_simple(h - 2)
        self.w(f"if {b[0]} == 0:")
        self.w('    raise Trap("integer divide by zero", code="div0")')
        if not signed:
            self.put(h - 2, (f"{a[0]} {sym} {b[0]}", a[1] | b[1], 1, None))
            return
        self.w(f"_x = {_signed(a[0], bits)}")
        self.w(f"_y = {_signed(b[0], bits)}")
        if sym == "//":
            self.w(f"if _y == -1 and _x == {-(1 << (bits - 1))}:")
            self.w('    raise Trap("integer overflow", code="overflow")')
        self.write(
            h - 2, f"(_x {sym} _y if (_x ^ _y) >= 0 else -(-_x {sym} _y)) & {mask}"
        )

    def _emit_bounds_check(self, base: tuple, offset: int, size: int) -> str:
        """Emit the bounds compare of one access; returns the address text.

        ``md`` is the memory's ``bytearray`` itself and ``_ml`` its length,
        read at entry and again after everything that can grow it (a
        direct, host or ``invoke_index`` call, ``memory.grow``).
        """
        raw = self.raws.get(base[0]) if base[2] else None
        if raw is not None:
            # the unmasked address is tried first: in bounds (so below
            # 2**32) it is the masked one; out of bounds, the masked one
            # (the unmasked one mod 2**32) decides
            self.w(f"_a = {_raw_text((raw[0], raw[1] + offset))}")
            self.w(f"if _a + {size} > _ml:")
            self.w(f"    _a = ((_a - {offset}) & {_M32}) + {offset}" if offset
                   else f"    _a &= {_M32}")
            self.w(f"    if _a + {size} > _ml:")
            self.w(f"        raise MemoryOutOfBounds(_a, {size}, _ml)")
            return "_a"
        addr = base[0]
        if offset:
            addr = "_a"
            self.w(f"_a = {_wrap(base)} + {offset}")
        elif base[2]:
            addr = "_a"
            self.w(f"_a = {base[0]}")
        end = int(addr) + size if addr.isdigit() else f"{addr} + {size}"
        self.w(f"if {end} > _ml:")
        self.w(f"    raise MemoryOutOfBounds({addr}, {size}, _ml)")
        return addr

    # ----- calls -------------------------------------------------------------

    def _emit_call(self, h: int, func_index: int) -> None:
        ft = self.module.func_type(func_index)
        callee = self.callee(func_index)
        np_ = len(ft.params)
        args = [self.take(h - np_ + k) for k in range(np_)]
        result = h - np_ if ft.results else None
        if callee.__class__ is AotCode and callee.leaf:
            self._emit_inlined(func_index, callee, args, h - np_)
            return
        self.flush(1)
        if callee is None:
            self._emit_host_call(func_index, ft, [a[0] for a in args], result)
            return
        self._before_call(result)
        texts = [a[0] for a in args]
        if callee.__class__ is AotCode:
            self._emit_direct_call(func_index, callee, texts, result)
        else:
            self.via.append(f"legacy f{func_index}")
            self._emit_invoke(str(func_index), texts, result)

    def _before_call(self, result: int | None) -> None:
        """A callee may write globals, and the call writes its result."""
        self.clobber("g")
        if result is not None:
            self.clobber(f"s{result}")

    def _emit_direct_call(self, func_index: int, callee: AotCode,
                          args: list[str], result: int | None) -> None:
        """A same-module compiled callee: one plain Python call.

        Fuel goes in as an argument and comes back with the result, so a
        trap anywhere below leaves this frame's ``fuel`` at its value at
        the call site (see :meth:`build`).
        """
        self.callees[func_index] = callee
        self.uses.add("_d1")
        call = f"_f{func_index}({', '.join(['inst, store, _d1, fuel', *args])})"
        targets = "fuel" if result is None else f"fuel, s{result}"
        self.w(f"{targets} = {call}")
        self.refresh_ml()

    def _emit_host_call(self, func_index: int, ft: FuncType, args: list[str],
                        result: int | None) -> None:
        """An import: a direct call of the host function it is bound to.

        An int result (the common case) is masked in line; anything else
        goes through ``HostFunc.results``, exactly what ``invoke_index``
        does with it.
        """
        self.hosts.add(func_index)
        self.uses.add("_hf")
        self._before_call(result)
        self.w("store.fuel = fuel")
        self.w(f"_h = _hf[{func_index}]")
        self.w(f"_r = _h.fn({', '.join(['inst', *args])})")
        if result is None:
            self.w("if _r is not None:")
            self.w("    _h.results(_r)")
        else:
            kind = ft.results[0]
            if kind is ValType.F64:
                fast = "_r if _r.__class__ is float"
            elif kind is ValType.F32:
                fast = None
            else:
                fast = f"_r & {_M32 if kind is ValType.I32 else _M64} if _r.__class__ is int"
            slow = "_h.results(_r)[0]"
            self.w(f"s{result} = {fast} else {slow}" if fast else f"s{result} = {slow}")
        self.w("fuel = store.fuel")
        self.refresh_ml()

    def _emit_invoke(self, index: str, args: list[str], result: int | None) -> None:
        """A call that leaves compiled code: ``Instance.invoke_index``, with
        ``store.fuel`` synced around it."""
        self.uses.add("_d1")
        self.w("store.fuel = fuel")
        head = "_r = " if result is not None else ""
        self.w(f"{head}inst.invoke_index({index}, [{', '.join(args)}], _d1)")
        if result is not None:
            self.w(f"s{result} = _r[0]")
        self.w("fuel = store.fuel")
        self.refresh_ml()

    def _emit_call_indirect(self, h: int, type_index: int) -> None:
        self.flush(1)
        self.via.append(f"call_indirect type {type_index}")
        ft = self.module.types[type_index]
        self.sigs[type_index] = ft
        sig = f"_sig{type_index}"
        np_ = len(ft.params)
        index = self.take_simple(h - 1)[0]
        args = [self.take(h - 1 - np_ + k)[0] for k in range(np_)]
        result = h - 1 - np_ if ft.results else None
        self.w("_tb = inst.table")
        self.w(f"if _tb is None or {index} >= len(_tb.elements):")
        self.w('    raise Trap("undefined element", code="table_oob")')
        self.w(f"_fa = _tb.elements[{index}]")
        self.w("if _fa is None:")
        self.w('    raise Trap("uninitialized element", code="table_null")')
        self.w("_ft = inst.funcs[_fa].functype")
        self.w(f"if _ft != {sig}:")
        self.w("    raise Trap(")
        self.w(f'        f"indirect call type mismatch: {{_ft}} != {{{sig}}}",')
        self.w('        code="sig",')
        self.w("    )")
        self._before_call(result)
        self._emit_invoke("_fa", args, result)

    def _emit_inlined(self, func_index: int, callee: AotCode, args: list,
                      base: int) -> None:
        """A leaf callee, emitted in line: its frame's entry dues, then its
        straight-line body on this frame's slots from ``base`` up.

        The call's charge goes to ``fuel`` unchecked, and one test covers
        it, the leaf's depth check (``_deep``, computed once per frame)
        and the leaf's whole charge to ``_fi``.  When it passes, nothing
        in the leaf can run out, so its body runs with no fuel checks.
        When it fails, a cold copy of the body with every charge checked
        raises what the leaf's own frame would, in order: the caller out
        of fuel, then ``StackExhausted``, then the leaf out of fuel where
        it runs out (its stores before that point done).  The frame counts
        in ``_nf`` (its ``max_stack``, if above the caller's, in ``_nm``),
        folded into ``store.stats`` when this frame leaves.  Its locals are
        ``_i{n}_{j}`` temporaries; an argument stands in for its parameter
        directly when it is a name or literal that reads no slot or global
        and the leaf never writes that parameter.  ``_fi`` is committed to
        ``fuel`` on return, so a trap inside leaves the caller's ``fuel``.
        """
        self.uses.add("_d1")
        self.w(f"fuel -= {self.charges + 1}")
        self.charges = 0
        site = self._alloc_id()
        written = callee.written_locals()
        names = []
        for j, arg in enumerate(args):
            if j not in written and arg[2] == 0 and all(
                r[0] in "l_" for r in arg[1]
            ):
                names.append(arg[0])
            else:
                names.append(f"_i{site}_{j}")
                self.w(f"{names[-1]} = {arg[0]}")
        for j, default in enumerate(callee.local_defaults, len(args)):
            if j in written:
                names.append(f"_i{site}_{j}")
                self.w(f"{names[-1]} = {default!r}")
            else:
                names.append(repr(default))

        entered = ["_nf += 1"]
        if callee.max_stack > self.acode.max_stack:
            entered.append(f"if {callee.max_stack} > _nm:")
            entered.append(f"    _nm = {callee.max_stack}")
        body, charges = self._emit_leaf_body(callee, names, base)
        self.w(f"_fi = fuel - {sum(n for _at, n in charges)}")
        self.w("if _fi < 0 or _deep:")
        self.indent += 1
        self.w("if fuel < 0:")
        self.w("    raise FuelExhausted")
        self.w("if _deep:")
        self.w("    raise StackExhausted(_d1)")
        for line in entered:
            self.w(line)
        if len(charges) > 1:
            # the cold copy: the body up to its return, each charge
            # checked where it falls; the sum runs out by the return (a
            # leaf charged only there has nothing observable before it)
            self.w("_fi = fuel")
            done = 0
            for at, n in charges[:-1]:
                for line in body[done:at]:
                    self.w(line)
                self.lines.extend(self._charge_lines(n, self.indent, True, "_fi"))
                done = at
            for line in body[done:charges[-1][0]]:
                self.w(line)
        self.w("raise FuelExhausted")
        self.indent -= 1
        for line in entered:
            self.w(line)
        for line in body:
            self.w(line)
        self.w("fuel = _fi")

    def _emit_leaf_body(self, callee: AotCode, names: list[str],
                        base: int) -> tuple[list[str], list[tuple[int, int]]]:
        """The leaf's body as lines at indent 0, with no fuel charged, and
        where each of its charges falls (the last one is its return)."""
        saved = (self.body, self.heights, self.base, self.lnames, self.lines,
                 self.indent)
        body = callee._code.body
        heights = callee.facts.heights
        self.body, self.heights, self.base, self.lnames = body, heights, base, names
        self.lines, self.indent, self.leaf_charges = [], 0, []
        for pc, (opcode, _imm) in enumerate(body):
            if heights[pc] is None:
                continue
            if opcode == op.RETURN or opcode == op.END:
                self.flush(1)
                top = base + heights[pc] - 1
                value = self.take(top) if callee.result_arity else None
                for slot in [s for s in self.vals if s >= base]:
                    del self.vals[slot]
                if value is not None:
                    self.put(base, value)
                break
            self.emit_simple(pc)
        lines, charges = self.lines, self.leaf_charges
        (self.body, self.heights, self.base, self.lnames, self.lines,
         self.indent) = saved
        self.leaf_charges = None
        return lines, charges

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
        for line in self.fold_stats():
            self.w(line)
        self.w(f"return fuel, {self.peek(h - 1)}" if self.result_arity
               else "return fuel")

    def fold_stats(self) -> list[str]:
        """What a frame that inlines leaves adds to ``store.stats`` when
        it leaves: their frames, depth and peak stack."""
        if not self.leaves:
            return []
        lines = [
            "if _nf and stats is not None:",
            "    stats.frames += _nf",
            "    if _d1 > stats.max_call_depth:",
            "        stats.max_call_depth = _d1",
        ]
        if self.nm:
            lines += [
                "    if _nm > stats.max_value_stack:",
                "        stats.max_value_stack = _nm",
            ]
        return lines

    def refresh_ml(self) -> None:
        """After anything that may grow memory: the bounds checks' cached
        limit is read again."""
        if self.memory:
            self.w("_ml = len(md)")

    def emit_seq(self, start: int, end: int) -> None:
        """Emit pcs in ``[start, end)`` — the interior of one construct."""
        pc = start
        while pc < end:
            opcode, _imm = self.body[pc]
            if opcode in (op.BLOCK, op.LOOP, op.IF):
                end_pc = self.ends[pc][0]
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
        """One ``block`` / ``loop`` / ``if``.

        The fuel owed on entry goes into the construct: a block's body
        runs once (a branch-targeted one is a ``while True:`` every exit
        of which breaks), and each arm of an ``if`` pays it.  Only a loop
        that is a branch target pays it before its header, so each trip
        round it starts owing nothing.
        """
        opcode, imm = self.body[pc]
        end_pc, else_pc = self.ends[pc]
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
        cond = self.take(entry) if opcode == op.IF else None
        self.spill_all()
        if wrapped:
            if ctx.is_loop:
                self.flush(0, check=False)
            self.w("while True:")
            self.indent += 1
        body_start = len(self.lines)

        self.ctxs.append(ctx)
        if opcode == op.IF:
            self._emit_if_interior(pc, end_pc, else_pc, wrapped, cond)
        else:
            self.emit_seq(pc + 1, end_pc)
            self.charges = self._leave_arm(end_pc, 1, wrapped) or 0
        self.ctxs.pop()

        if wrapped:
            if len(self.lines) == body_start:
                self.w("break")  # degenerate: nothing live inside
            self.indent -= 1
            self.charges = 0
            self._emit_epilogue(ctx)

    def _leave_arm(self, end: int, extra: int, wrapped: bool) -> int | None:
        """Leave a construct's arm at ``end`` (its ``else`` / ``end``,
        ``extra`` more instructions on the way out): ``None`` if the arm
        ended in a transfer, else the fuel it still owes at the join - 0
        for a wrapped construct, whose arm pays everything and breaks."""
        self.charges += extra
        if self.heights[end] is None:
            self.vals.clear()
            self.charges = 0
            return None
        self.spill_all()
        if wrapped:
            self.flush(0, check=False)
            self.w("break")
        owed, self.charges = self.charges, 0
        return owed

    def _emit_if_interior(self, pc: int, end_pc: int, else_pc: int | None,
                          wrapped: bool, cond: tuple) -> None:
        """Both arms start owing what was owed at the ``if``.  Where both
        reach the join, the one owing more pays the difference at its end
        (an ``if`` without ``else`` gets an ``else:`` for it when that is
        the false path), and the join owes the smaller amount."""
        owed = self.charges
        self.w(f"if {cond[3] or cond[0]}:")
        self.indent += 1
        then_start = len(self.lines)
        if else_pc is None:
            self.emit_seq(pc + 1, end_pc)
            then_owes = self._leave_arm(end_pc, 1, wrapped)
        else:
            self.emit_seq(pc + 1, else_pc)
            # fall-through executes the `else` jump and the shared end
            then_owes = self._leave_arm(else_pc, 2, wrapped)
        then_end = len(self.lines)
        self.indent -= 1
        else_start = None
        if else_pc is not None:
            self.w("else:")
            else_start = len(self.lines)
            self.indent += 1
            self.charges = owed
            self.emit_seq(else_pc + 1, end_pc)
            else_owes = self._leave_arm(end_pc, 1, wrapped)
            self.indent -= 1
        elif wrapped:
            # the false path executes the shared end, and breaks
            self.w("else:")
            self.indent += 1
            self.charges = owed + 1
            self.flush(0, check=False)
            self.w("break")
            self.indent -= 1
            else_owes = 0
        else:
            else_owes = owed + 1  # the shared end, owed on at the join
        join = min((n for n in (then_owes, else_owes) if n is not None), default=0)
        if else_owes is not None and else_owes > join:
            if else_start is None:
                self.w("else:")
            self.lines.extend(
                self._charge_lines(else_owes - join, self.indent + 1, False)
            )
        elif len(self.lines) == else_start:
            self.w("    pass")
        if then_owes is not None and then_owes > join:
            tail = self._charge_lines(then_owes - join, self.indent + 1, False)
        else:
            tail = ["    " * (self.indent + 1) + "pass"] if then_end == then_start else []
        self.lines[then_end:then_end] = tail
        self.charges = join

    def _emit_control(self, pc: int) -> None:
        opcode, imm = self.body[pc]
        h = self.heights[pc]
        if opcode == op.BR:
            target, arity, dest_h = self.branches[pc]
            self.flush(1, self._checked(imm))
            self._emit_branch(imm, arity, dest_h, h)
            self.vals.clear()
        elif opcode == op.BR_IF:
            # the taken path pays what is owed; the fall-through owes it on
            target, arity, dest_h = self.branches[pc]
            cond = self.take(h - 1)
            owed = self.charges + 1
            self.w(f"if {cond[3] or cond[0]}:")
            self.indent += 1
            self.flush(1, self._checked(imm))
            self._emit_branch(imm, arity, dest_h, h - 1)
            self.indent -= 1
            self.charges = owed
        elif opcode == op.BR_TABLE:
            depths, default_depth = imm
            per_target, default_res, _hh = self.branches[pc]
            self.flush(1, any(map(self._checked, (*depths, default_depth))))
            index = self.take_simple(h - 1)[0]
            if not depths:
                self._emit_branch(
                    default_depth, default_res[1], default_res[2], h - 1
                )
            else:
                for k, (depth, res) in enumerate(zip(depths, per_target)):
                    self.w(f"{'if' if k == 0 else 'elif'} {index} == {k}:")
                    self.indent += 1
                    self._emit_branch(depth, res[1], res[2], h - 1)
                    self.indent -= 1
                self.w("else:")
                self.indent += 1
                self._emit_branch(
                    default_depth, default_res[1], default_res[2], h - 1
                )
                self.indent -= 1
            self.vals.clear()
        elif opcode == op.RETURN:
            self.flush(1)
            self._emit_return(h)
            self.vals.clear()
        else:  # pragma: no cover - validation rejects unknown opcodes
            raise Trap(f"cannot compile opcode 0x{opcode:02x}", code="internal")

    def _checked(self, depth: int) -> bool:
        """Whether a branch of label ``depth`` checks the fuel it pays: a
        return leaves the frame and a loop's back-edge may run forever;
        code after a block reaches a checked charge before any effect."""
        idx = len(self.ctxs) - 1 - depth
        return idx == 0 or self.ctxs[idx].is_loop

    def _emit_branch(self, depth: int, arity: int, dest_h: int,
                     src_h: int) -> None:
        """Emit the transfer for a (conditional) branch of label ``depth``.

        The carried value is read, not popped: a ``br_if`` not taken
        leaves it on the stack, still pending."""
        if depth == len(self.ctxs) - 1:
            self._emit_return(src_h)
            return
        idx = len(self.ctxs) - 1 - depth
        ctx = self.ctxs[idx]
        if arity:
            value = self.peek(src_h - 1)
            if value != f"s{dest_h}":
                self.w(f"s{dest_h} = {value}")
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

        The function is ``_wfn(inst, store, depth, fuel, *params)`` and
        returns ``fuel[, result]``.  Its prologue is what every engine
        does on entering a frame - the depth limit, then the three
        :class:`~repro.wasm.interpreter.ExecStats` updates - so a direct
        call needs nothing between caller and callee.  A frame that
        inlines leaves counts their frames in locals and folds them into
        ``store.stats`` before each ``return`` and on the way out of a
        trap.  On a trap every frame writes its own ``fuel`` to
        ``store.fuel`` on the way out, so the outermost frame's value (its
        fuel at its call site) is what the host reads: the rule all three
        engines follow.
        """
        self.emit_structured()
        np_ = len(self.functype.params)
        params = ["inst", "store", "depth", "fuel"] + [f"l{i}" for i in range(np_)]
        acode = self.acode
        head: list[str] = [
            f"def _wfn({', '.join(params)}):",
            "    if depth > store.max_call_depth:",
            "        raise StackExhausted(depth)",
            "    stats = store.stats",
            "    if stats is not None:",
            "        stats.frames += 1",
            "        if depth > stats.max_call_depth:",
            "            stats.max_call_depth = depth",
            f"        if {acode.max_stack} > stats.max_value_stack:",
            f"            stats.max_value_stack = {acode.max_stack}",
        ]
        for i, default in enumerate(acode.local_defaults):
            head.append(f"    l{np_ + i} = {default!r}")
        if self.memory:
            head.append("    md = inst.memory.data")
            head.append("    _ml = len(md)")
        if "mem" in self.uses:
            head.append("    mem = inst.memory")
        if "glb" in self.uses:
            head.append("    glb = inst.globals")
        if "_hf" in self.uses:
            head.append("    _hf = inst.funcs")
        if "_d1" in self.uses:
            head.append("    _d1 = depth + 1")
        if "_br" in self.uses:
            head.append("    _br = -1")
        if self.leaves:
            head.append("    _deep = _d1 > store.max_call_depth")
            head.append("    _nf = 0")
            if self.nm:
                head.append("    _nm = 0")
        head.append("    try:")
        head.extend("        " + line for line in self.lines)
        head.append("    except BaseException:")
        head.append("        store.fuel = fuel if fuel > 0 else 0")
        head.extend("        " + line for line in self.fold_stats())
        head.append("        raise")
        return "\n".join(head) + "\n"

# ---------------------------------------------------------------------------
# compiled artifact + compilation entry points
# ---------------------------------------------------------------------------


class AotCode:
    """One function body lowered to Python source, compiled on first use.

    ``run(inst, store, depth, fuel, *args)`` returns ``fuel[, result]``;
    it stays ``None`` until :func:`execute_aot`, a caller's
    :meth:`compile` or a host's ``promote()`` first needs it, so a leaf
    every caller inlines is never compiled at all.  The generated text is
    not retained: :attr:`source` re-runs the emitter on demand (``repro
    disasm --aot``) from :attr:`facts`, what validating the body recorded
    (stack heights, block ends, branches; an unvalidated body is refused
    here).  ``local_defaults``/``max_stack`` mirror the other engines so
    :class:`~repro.wasm.interpreter.ExecStats` stays bit-identical.
    """

    __slots__ = (
        "run", "local_defaults", "max_stack", "result_arity", "facts",
        "_module", "_code", "_functype", "_leaf", "_written",
    )

    def __init__(self, module: Module, code: Code, functype: FuncType):
        self.facts = body_facts(code)
        self.run = None
        self.local_defaults = local_defaults(code)
        self.max_stack = self.facts.max_stack
        self.result_arity = len(functype.results)
        self._module = module
        self._code = code
        self._functype = functype
        self._leaf = None
        self._written = None

    @property
    def leaf(self) -> bool:
        """Straight-line up to its ``return`` and short: emitted in line
        at its call sites instead of being called."""
        if self._leaf is None:
            body = self._code.body
            heights = self.facts.heights
            self._leaf = len(body) <= _MAX_INLINE_INSTRS and not any(
                heights[pc] is not None and opcode in _NOT_IN_LEAF
                for pc, (opcode, _imm) in enumerate(body)
            )
        return self._leaf

    def written_locals(self) -> frozenset:
        """Indices of the locals the body assigns."""
        if self._written is None:
            self._written = frozenset(
                imm for opcode, imm in self._code.body
                if opcode in (op.LOCAL_SET, op.LOCAL_TEE)
            )
        return self._written

    def _emit(self) -> tuple[str, _Emitter]:
        """Source text and the emitter that wrote it."""
        emitter = _Emitter(self)
        return emitter.build(), emitter

    def compile(self):
        """Compile (once) and return :attr:`run`.

        A direct call is a global ``_f{index}`` of the caller's namespace,
        so every function reachable through direct calls is compiled here
        too (a worklist, not recursion: a call chain may be as long as the
        module).  Callees are the same ``Module``'s own ``AotCode``s, so
        the binding is a property of the bytes and the result stays
        shareable across instances.  Nothing is published until
        everything is linked.
        """
        if self.run is not None:
            return self.run
        built: dict[AotCode, tuple[dict, dict[int, AotCode]]] = {}
        todo = [self]
        while todo:
            acode = todo.pop()
            if acode in built or acode.run is not None:
                continue
            source, emitter = acode._emit()
            ns = dict(_HELPERS)
            for type_index, ft in emitter.sigs.items():
                ns[f"_sig{type_index}"] = ft
            ns.update(emitter.consts)
            exec(compile(source, "<aot:fn>", "exec"), ns)
            built[acode] = ns, emitter.callees
            todo.extend(emitter.callees.values())
        for ns, callees in built.values():
            for index, callee in callees.items():
                ns[f"_f{index}"] = callee.run or built[callee][0]["_wfn"]
        for acode, (ns, _callees) in built.items():
            acode.run = ns["_wfn"]
        return self.run

    @property
    def source(self) -> str:
        """The generated Python source (regenerated per access)."""
        return self._emit()[0]


def compile_aot(module: Module, code: Code, functype: FuncType) -> AotCode:
    """Lower one validated function body; it compiles on first use."""
    return AotCode(module, code, functype)


def aot_for(module: Module, code: Code, functype: FuncType):
    """The body engine ``aot`` runs for ``code``, memoized on the ``Code``.

    An :class:`AotCode`, except for a function nested past
    ``_MAX_STRUCTURED_DEPTH``: nested Python cannot express it, so it
    keeps its legacy body (a :class:`~repro.wasm.interpreter.PreparedCode`).
    """
    cached = getattr(code, "_aot", None)
    if cached is None:
        if _max_nesting(code.body) > _MAX_STRUCTURED_DEPTH:
            cached = prepared_for(code)
        else:
            cached = compile_aot(module, code, functype)
        object.__setattr__(code, "_aot", cached)
    return cached


def own_frames(module: Module, bodies: list) -> list[AotCode]:
    """The compiled bodies of ``module`` that can run as their own frame:
    exported, or not a leaf (a leaf reached only through ``call_indirect``
    compiles on first use).  ``bodies`` is parallel to ``module.codes``."""
    n_imported = module.num_imported_funcs
    exported = {e.index for e in module.exports if e.kind == "func"}
    return [
        body for i, body in enumerate(bodies)
        if body.__class__ is AotCode
        and (n_imported + i in exported or not body.leaf)
    ]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute_aot(store, instance, acode: AotCode, args: list,
                result_arity: int, depth: int):
    """Enter one AOT-compiled function from outside compiled code.

    The adapter behind ``Instance.invoke_index`` - a ``call_indirect``,
    a threaded or legacy caller; a compiled caller of the same module
    calls the function directly or inlines it, and a Python caller enters
    an export through its bound ``Instance.entry``.  The
    depth limit, the stats and the trap-time ``store.fuel`` are the
    generated function's own business, so the contract (arguments,
    results, traps, fuel, stats) stays identical to
    :func:`repro.wasm.interpreter.execute` and
    :func:`repro.wasm.threaded.execute_threaded`.
    """
    run = acode.run or acode.compile()
    if result_arity:
        store.fuel, result = run(instance, store, depth, store.fuel, *args)
        return [result]
    store.fuel = run(instance, store, depth, store.fuel, *args)
    return []


# ---------------------------------------------------------------------------
# diagnostics (repro disasm --aot)
# ---------------------------------------------------------------------------


def _boundary(emitter: _Emitter) -> str:
    """``inlined: f4 f5; direct: f9; host: import 0; via invoke_index: -``"""
    inlined = " ".join(f"f{i}" for i in sorted(emitter.leaves)) or "-"
    direct = " ".join(f"f{i}" for i in sorted(emitter.callees)) or "-"
    host = ", ".join(f"import {i}" for i in sorted(emitter.hosts)) or "-"
    via = ", ".join(dict.fromkeys(emitter.via)) or "-"
    return f"inlined: {inlined}; direct: {direct}; host: {host}; via invoke_index: {via}"


def dump_aot(module_or_bytes) -> str:
    """Wasm body and generated Python source for every function.

    Each function prints its original instruction sequence (mnemonics, as
    in ``repro disasm``) followed by the Python the AOT tier generated
    for it - the code hosts run - so a lowering bug is diagnosable by
    eye.  A compiled function names its call boundary: the leaves it
    inlines, the callees it calls directly, the imports it calls as host
    functions and the call sites that stay on ``Instance.invoke_index``
    (``call_indirect``, a callee that kept its legacy body); a function
    too deep to structure says so, and its Wasm body is what the legacy
    interpreter runs.
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
            f"keeps its legacy body (block nesting "
            f"{_max_nesting(code.body)} > {_MAX_STRUCTURED_DEPTH})"
        )
        if compiled and body.leaf:
            tier += ", a leaf (inlined at its call sites)"
        lines.append(
            f"func {func_index}{names}: {len(code.body)} wasm instrs, {tier}"
        )
        if compiled:
            source, emitter = body._emit()
            lines.append(f"  ;; {_boundary(emitter)}")
        lines.append("  ;; wasm body")
        for pc, instr in enumerate(code.body):
            lines.append(f"  {pc:04d}  {op.mnemonic(instr)}")
        if compiled:
            lines.append("  ;; generated python")
            lines.extend(f"  {line}" for line in source.splitlines())
    return "\n".join(lines)
