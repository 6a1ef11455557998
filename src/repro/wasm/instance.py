"""Instantiation, linking and the embedder API.

An :class:`Instance` is one instantiated module: it owns its function
index space (:attr:`Instance.funcs`), memory, table and globals.  A
:class:`Store` carries the fuel budget and limits its calls run under.
Hosts expose capabilities to plugins exclusively through
:class:`HostFunc` imports — the only kind of import an instance links,
and the capability-security model WA-RAN relies on: a plugin can only
ever touch what the host explicitly wires in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.wasm import codecache
from repro.wasm import opcodes as op
from repro.wasm.aot import AotCode, aot_for, execute_aot
from repro.wasm.interpreter import MASK32, MASK64, PreparedCode, execute, f32_round
from repro.wasm.interpreter import prepared_for
from repro.wasm.memory import Memory
from repro.wasm.module import Module
from repro.wasm.threaded import ThreadedCode, execute_threaded, resolve_engine
from repro.wasm.threaded import threaded_for
from repro.wasm.traps import LinkError, Trap
from repro.wasm.validator import validate_module
from repro.wasm.wtypes import FuncType, GlobalType, Limits, ValType

#: the budget a ``Store(fuel=None)`` entry runs on: every engine meters,
#: and at one instruction per nanosecond this lasts ~290 years
UNLIMITED_FUEL = sys.maxsize


class Store:
    """Runtime state an instance's calls run under: fuel and limits.

    ``fuel`` is the instruction budget, decremented once per executed
    instruction in every engine; running out raises
    :class:`FuelExhausted`.  ``None`` means no limit: an entry from
    Python into Wasm then runs on :data:`UNLIMITED_FUEL` and ``fuel``
    reads ``None`` again once that entry returns or raises.  Hosts
    typically set fuel per plugin call via :meth:`Instance.call`.
    """

    def __init__(self, fuel: int | None = None, max_call_depth: int = 300):
        self.fuel = fuel
        self.max_call_depth = max_call_depth
        #: optional :class:`repro.wasm.interpreter.ExecStats`; when set the
        #: interpreter updates it once per function frame (see ExecStats)
        self.stats = None


@dataclass
class HostFunc:
    """A host capability callable from Wasm.

    ``fn`` receives ``(caller, *args)`` where ``caller`` is the calling
    :class:`Instance` (giving access to its sandboxed memory) and args are
    raw stack values.  It returns ``None``, a single value, or a tuple.
    """

    functype: FuncType
    fn: Callable[..., Any]
    name: str = "<host>"

    def results(self, result) -> Sequence:
        """What ``fn`` returned, as the declared result values: masked /
        rounded to their types, or a ``host`` trap for the wrong arity.
        The one normaliser: ``invoke_index`` and compiled code's direct
        host calls both use it."""
        result_types = self.functype.results
        # fast path: single scalar result (the overwhelmingly common case)
        if (
            len(result_types) == 1
            and not isinstance(result, tuple)
            and result is not None
        ):
            rt = result_types[0]
            if rt is ValType.I32:
                return (int(result) & MASK32,)
            if rt is ValType.I64:
                return (int(result) & MASK64,)
            return (_normalize_arg(result, rt),)
        if result is None:
            results: list = []
        elif isinstance(result, tuple):
            results = list(result)
        else:
            results = [result]
        if len(results) != len(result_types):
            raise Trap(
                f"host function {self.name} returned {len(results)} values, "
                f"declared {len(result_types)}",
                code="host",
            )
        return [_normalize_arg(v, vt) for v, vt in zip(results, result_types)]


class ModuleFunc:
    """A Wasm-defined function of an instance: its type and lowered body.

    ``prepared`` is a legacy :class:`PreparedCode`, a
    :class:`~repro.wasm.threaded.ThreadedCode` or an
    :class:`~repro.wasm.aot.AotCode`, depending on the instance's
    engine; :meth:`Instance.invoke_index` dispatches on it.
    """

    __slots__ = ("functype", "prepared")

    def __init__(
        self,
        functype: FuncType,
        prepared: "PreparedCode | ThreadedCode | AotCode",
    ):
        self.functype = functype
        self.prepared = prepared


class GlobalInstance:
    __slots__ = ("gtype", "value")

    def __init__(self, gtype: GlobalType, value):
        self.gtype = gtype
        self.value = value


class Table:
    """A funcref table: elements are function indices of its instance or
    ``None``."""

    def __init__(self, limits: Limits):
        self.limits = limits
        self.elements: list[int | None] = [None] * limits.minimum


def _eval_const(expr) -> Any:
    opcode, imm = expr[0]
    if opcode == op.I32_CONST:
        return imm & MASK32
    if opcode == op.I64_CONST:
        return imm & MASK64
    if opcode == op.F32_CONST:
        return f32_round(imm)
    if opcode == op.F64_CONST:
        return imm
    raise LinkError(f"unsupported constant opcode 0x{opcode:02x}")


def _normalize_arg(value, valtype: ValType):
    if valtype == ValType.I32:
        return int(value) & MASK32
    if valtype == ValType.I64:
        return int(value) & MASK64
    if valtype == ValType.F32:
        return f32_round(float(value))
    return float(value)


def compiled_bodies(module: Module, engine: str) -> list:
    """All lowered function bodies of ``module`` for ``engine``, a list
    parallel to ``module.codes``, lowered once per module object.  Safe to
    share across instances: bodies capture immediates and handler
    functions only, never instance state.  (``aot_for`` keeps the legacy
    body of a function too deep to compile.)"""
    memo = codecache.lowered(module)
    bodies = memo.get(engine)
    codecache.count_lookup(engine, hit=bodies is not None)
    if bodies is None:
        if engine == "legacy":
            bodies = [prepared_for(code) for code in module.codes]
        else:
            lower = aot_for if engine == "aot" else threaded_for
            n_imported = module.num_imported_funcs
            bodies = [
                lower(module, code, module.func_type(n_imported + i))
                for i, code in enumerate(module.codes)
            ]
        # two first instantiations at once both lower; one list wins
        bodies = memo.setdefault(engine, bodies)
    return bodies


@dataclass(frozen=True)
class InstanceState:
    """A restorable snapshot of one instance's mutable Wasm-level state.

    Captures linear memory and mutable globals — everything a deterministic
    module's behaviour depends on between calls.  Host-level bookkeeping
    (e.g. the plugin scratch region) lives one layer up, in
    :class:`repro.abi.host.PluginCheckpoint`, which wraps this.
    """

    memory: bytes
    globals: tuple[tuple[int, Any], ...]  # (index, value), mutable only

    @property
    def memory_pages(self) -> int:
        return len(self.memory) // 65536


class Instance:
    """One instantiated module.

    ``imports`` maps ``module -> name -> HostFunc``: a host function is
    the only thing an instance links.  :attr:`funcs` is the module's
    function index space - the imported :class:`HostFunc` objects, then
    the module's own :class:`ModuleFunc` objects - so a ``call``
    immediate, a table element and an export all name a function by its
    index in it.
    """

    def __init__(
        self,
        module: Module,
        imports: Mapping[str, Mapping[str, HostFunc]] | None = None,
        store: Store | None = None,
        validate: bool = True,
        engine: str | None = None,
    ):
        if validate:
            validate_module(module)
        self.module = module
        #: which engine compiles and runs this instance's functions:
        #: explicit arg > ``REPRO_WASM_ENGINE`` env > ``DEFAULT_ENGINE``
        #: (:meth:`retier` changes it on a live instance)
        self.engine = resolve_engine(engine)
        self.store = store if store is not None else Store()
        imports = imports or {}

        #: the function index space: imported host functions, then the
        #: module's own functions
        self.funcs: list[HostFunc | ModuleFunc] = []

        # --- link imports: host functions only ------------------------------
        for imp in module.imports:
            try:
                provided = imports[imp.module][imp.name]
            except KeyError:
                raise LinkError(
                    f"missing import {imp.module}.{imp.name} ({imp.kind})"
                ) from None
            if imp.kind != "func" or not isinstance(provided, HostFunc):
                raise LinkError(
                    f"import {imp.module}.{imp.name} ({imp.kind}): "
                    f"only host functions may be imported"
                )
            expected = module.types[imp.desc]
            if provided.functype != expected:
                raise LinkError(
                    f"import {imp.module}.{imp.name}: signature "
                    f"{provided.functype} != expected {expected}"
                )
            self.funcs.append(provided)

        # --- allocate module-defined entities -------------------------------
        # instances of the same module share one lowering per engine
        bodies = compiled_bodies(module, self.engine)
        for type_index, body in zip(module.funcs, bodies):
            self.funcs.append(ModuleFunc(module.types[type_index], body))

        self.memory = Memory(module.mems[0]) if module.mems else None
        self.table = Table(module.tables[0]) if module.tables else None
        self.globals = [
            GlobalInstance(glob.gtype, _eval_const(glob.init))
            for glob in module.globals
        ]

        # --- element and data segments (bounds-checked) ---------------------
        for elem in module.elems:
            offset = _eval_const(elem.offset)
            if self.table is None:
                raise LinkError("element segment without table")
            if offset + len(elem.func_indices) > len(self.table.elements):
                raise LinkError("element segment out of table bounds")
            self.table.elements[offset : offset + len(elem.func_indices)] = (
                elem.func_indices
            )

        for seg in module.datas:
            offset = _eval_const(seg.offset)
            if self.memory is None:
                raise LinkError("data segment without memory")
            if offset + len(seg.payload) > self.memory.size_bytes:
                raise LinkError("data segment out of memory bounds")
            self.memory.write(offset, seg.payload)

        self._exports = module.export_map()

        if module.start is not None:
            self._enter(module.start, [])

    def retier(self, engine: str) -> list:
        """Rebind this instance's functions to ``engine``'s bodies in place
        and return those bodies.

        Fuel, traps and :class:`~repro.wasm.interpreter.ExecStats` are
        bit-identical across engines and :meth:`invoke_index` dispatches
        per function on the class of ``prepared``, so switching between
        two calls is semantically invisible: no state moves, nothing on
        a stack needs replacing.
        """
        engine = resolve_engine(engine)
        bodies = compiled_bodies(self.module, engine)
        own = self.funcs[self.module.num_imported_funcs:]
        for func, body in zip(own, bodies):
            func.prepared = body
        self.engine = engine
        return bodies

    # ----- state snapshot (checkpoint/restore) -------------------------

    def capture_state(self) -> InstanceState:
        """Snapshot linear memory and mutable globals."""
        memory = bytes(self.memory.data) if self.memory is not None else b""
        mutable = tuple(
            (index, glob.value)
            for index, glob in enumerate(self.globals)
            if glob.gtype.mutable
        )
        return InstanceState(memory=memory, globals=mutable)

    def restore_state(self, state: InstanceState) -> None:
        """Write a snapshot back into this instance.

        Intended for a *fresh* instance of the same module: memory is grown
        to the snapshot size if needed and overwritten, mutable globals are
        replaced.  Raises :class:`LinkError` if memory cannot reach the
        snapshot size (limits mismatch — snapshot from a different module).
        """
        if state.memory and self.memory is not None:
            deficit = state.memory_pages - self.memory.size_pages
            if deficit > 0 and self.memory.grow(deficit) < 0:
                raise LinkError(
                    f"cannot grow memory to snapshot size "
                    f"({state.memory_pages} pages)"
                )
            self.memory.data[: len(state.memory)] = state.memory
        for index, value in state.globals:
            self.globals[index].value = value

    # ------------------------------------------------------------------

    def get_export(self, name: str):
        """Return the runtime object behind an export (func handle, memory...)."""
        export = self._exports.get(name)
        if export is None:
            raise LinkError(f"no export named {name!r}")
        if export.kind == "func":
            index = export.index
            return ExportedFunc(self.funcs[index].functype, index, self)
        if export.kind == "mem":
            return self.memory
        if export.kind == "table":
            return self.table
        return self.globals[export.index]

    def exports(self) -> dict[str, Any]:
        return {name: self.get_export(name) for name in self._exports}

    def call(self, name: str, *args, fuel: int | None = "unset"):
        """Call an exported function by name.

        ``fuel`` (if given, including ``None`` for no limit) replaces the
        store's fuel budget for this call.  Returns a single value, or
        ``None`` for void functions.  Integer results are returned in
        *signed* interpretation (the natural embedding for Python callers).

        A compiled (aot) body is entered right here, as
        :func:`~repro.wasm.aot.execute_aot` would enter it; anything else
        goes through :meth:`_enter` and :meth:`invoke_index`.
        """
        export = self._exports.get(name)
        if export is None or export.kind != "func":
            raise LinkError(f"no exported function named {name!r}")
        store = self.store
        if fuel != "unset":
            store.fuel = fuel
        func = self.funcs[export.index]
        functype = func.functype
        params = functype.params
        if len(args) != len(params):
            raise TypeError(f"{name} expects {len(params)} args, got {len(args)}")
        args = [_normalize_arg(a, vt) for a, vt in zip(args, params)]
        results = functype.results
        body = getattr(func, "prepared", None)  # an exported import has none
        if body.__class__ is AotCode:
            run = body.run or body.compile()
            unlimited = store.fuel is None  # see _enter
            if unlimited:
                store.fuel = UNLIMITED_FUEL
            try:
                if not results:
                    store.fuel = run(self, store, 0, store.fuel, *args)
                    return None
                store.fuel, value = run(self, store, 0, store.fuel, *args)
            finally:
                if unlimited:
                    store.fuel = None
        else:
            returned = self._enter(export.index, args)
            if not results:
                return None
            value = returned[0]
        rt = results[0]
        if rt == ValType.I32:
            return value - (1 << 32) if value & 0x80000000 else value
        if rt == ValType.I64:
            return value - (1 << 64) if value & (1 << 63) else value
        return value

    def _enter(self, func_index: int, stack: list) -> Sequence:
        """Enter Wasm from Python at depth 0: :meth:`call`, an
        :class:`ExportedFunc` and the start function.

        The one place an absent budget is handled: the engines always
        meter, so a store with ``fuel is None`` runs the entry on
        :data:`UNLIMITED_FUEL` and reads ``None`` again however it ends.
        """
        store = self.store
        if store.fuel is not None:
            return self.invoke_index(func_index, stack, 0)
        store.fuel = UNLIMITED_FUEL
        try:
            return self.invoke_index(func_index, stack, 0)
        finally:
            store.fuel = None

    # ----- internal invocation (the engines' `call` / `call_indirect`) ----

    def invoke_index(self, func_index: int, stack: list, depth: int) -> Sequence:
        """Invoke function ``func_index`` at Wasm call depth ``depth``; pops
        its args from ``stack``.  Dispatches per function: a host function
        is called and its result normalised, a module function runs on
        the engine its ``prepared`` body belongs to."""
        func = self.funcs[func_index]
        n_params = len(func.functype.params)
        if n_params:
            args = stack[len(stack) - n_params :]
            del stack[len(stack) - n_params :]
        else:
            args = []
        if isinstance(func, HostFunc):
            return func.results(func.fn(self, *args))
        prepared = func.prepared
        if prepared.__class__ is ThreadedCode:
            run = execute_threaded
        elif prepared.__class__ is AotCode:
            run = execute_aot
        else:
            run = execute
        return run(
            self.store, self, prepared, args, len(func.functype.results), depth
        )


@dataclass
class ExportedFunc:
    """Python-callable handle to an exported function."""

    functype: FuncType
    index: int
    instance: Instance

    def __call__(self, *args):
        stack = [
            _normalize_arg(a, vt) for a, vt in zip(args, self.functype.params)
        ]
        results = self.instance._enter(self.index, stack)
        return results[0] if self.functype.results else None
