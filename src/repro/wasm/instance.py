"""Instantiation, linking and the embedder API.

A :class:`Store` owns runtime objects (function instances, fuel budget,
limits); an :class:`Instance` is one instantiated module inside a store.
Hosts expose capabilities to plugins exclusively through
:class:`HostFunc` imports — the capability-security model WA-RAN relies on:
a plugin can only ever touch what the host explicitly wires in.
"""

from __future__ import annotations

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


class Store:
    """Shared runtime state: the function address space, fuel and limits.

    ``fuel`` is the instruction budget: ``None`` disables metering; an int
    is decremented once per executed instruction and raises
    :class:`FuelExhausted` at zero.  Hosts typically set fuel per plugin
    call via :meth:`Instance.call`.
    """

    def __init__(self, fuel: int | None = None, max_call_depth: int = 300):
        self.funcs: list[FuncInstance] = []
        self.fuel = fuel
        self.max_call_depth = max_call_depth
        #: optional :class:`repro.wasm.interpreter.ExecStats`; when set the
        #: interpreter updates it once per function frame (see ExecStats)
        self.stats = None

    def alloc_func(self, func: "FuncInstance") -> int:
        self.funcs.append(func)
        return len(self.funcs) - 1


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


class ModuleFunc:
    """A Wasm-defined function: compiled code plus its defining instance.

    ``prepared`` is a legacy :class:`PreparedCode`, a
    :class:`~repro.wasm.threaded.ThreadedCode` or an
    :class:`~repro.wasm.aot.AotCode`, depending on the instance's
    engine; :meth:`Instance.invoke_addr` dispatches on it.
    """

    __slots__ = ("functype", "prepared", "instance")

    def __init__(
        self,
        functype: FuncType,
        prepared: "PreparedCode | ThreadedCode | AotCode",
        instance: "Instance",
    ):
        self.functype = functype
        self.prepared = prepared
        self.instance = instance


FuncInstance = Any  # HostFunc | ModuleFunc


class GlobalInstance:
    __slots__ = ("gtype", "value")

    def __init__(self, gtype: GlobalType, value):
        self.gtype = gtype
        self.value = value


class Table:
    """A funcref table: elements are store function addresses or ``None``."""

    def __init__(self, limits: Limits):
        self.limits = limits
        self.elements: list[int | None] = [None] * limits.minimum


def _eval_const(instance: "Instance", expr) -> Any:
    opcode, imm = expr[0]
    if opcode == op.I32_CONST:
        return imm & MASK32
    if opcode == op.I64_CONST:
        return imm & MASK64
    if opcode == op.F32_CONST:
        return f32_round(imm)
    if opcode == op.F64_CONST:
        return imm
    if opcode == op.GLOBAL_GET:
        return instance.globals[imm].value
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
    functions only, never instance state.  (``aot_for`` keeps the threaded
    closures of a function too deep to compile.)"""
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

    ``imports`` maps ``module -> name -> object`` where the object is a
    :class:`HostFunc`, a :class:`Memory`, a :class:`Table`, a
    :class:`GlobalInstance`, or an exported object from another instance.
    """

    def __init__(
        self,
        module: Module,
        imports: Mapping[str, Mapping[str, Any]] | None = None,
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

        self.func_addrs: list[int] = []
        self.globals: list[GlobalInstance] = []
        self.memory: Memory | None = None
        self.table: Table | None = None

        # --- link imports (in declaration order, per index space) ----------
        for imp in module.imports:
            try:
                provided = imports[imp.module][imp.name]
            except KeyError:
                raise LinkError(
                    f"missing import {imp.module}.{imp.name} ({imp.kind})"
                ) from None
            if imp.kind == "func":
                expected = module.types[imp.desc]
                if isinstance(provided, HostFunc):
                    if provided.functype != expected:
                        raise LinkError(
                            f"import {imp.module}.{imp.name}: signature "
                            f"{provided.functype} != expected {expected}"
                        )
                    self.func_addrs.append(self.store.alloc_func(provided))
                elif isinstance(provided, ExportedFunc):
                    if provided.functype != expected:
                        raise LinkError(
                            f"import {imp.module}.{imp.name}: signature "
                            f"{provided.functype} != expected {expected}"
                        )
                    self.func_addrs.append(provided.addr)
                else:
                    raise LinkError(
                        f"import {imp.module}.{imp.name} is not a function"
                    )
            elif imp.kind == "mem":
                if not isinstance(provided, Memory):
                    raise LinkError(f"import {imp.module}.{imp.name} is not a memory")
                if provided.size_pages < imp.desc.minimum:
                    raise LinkError(
                        f"imported memory too small: {provided.size_pages} "
                        f"< {imp.desc.minimum} pages"
                    )
                self.memory = provided
            elif imp.kind == "table":
                if not isinstance(provided, Table):
                    raise LinkError(f"import {imp.module}.{imp.name} is not a table")
                self.table = provided
            elif imp.kind == "global":
                if not isinstance(provided, GlobalInstance):
                    raise LinkError(f"import {imp.module}.{imp.name} is not a global")
                if provided.gtype != imp.desc:
                    raise LinkError(
                        f"import {imp.module}.{imp.name}: global type mismatch"
                    )
                self.globals.append(provided)

        # --- allocate module-defined entities -------------------------------
        # instances of the same module share one lowering per engine
        bodies = compiled_bodies(module, self.engine)
        for i, type_index in enumerate(module.funcs):
            functype = module.types[type_index]
            self.func_addrs.append(
                self.store.alloc_func(ModuleFunc(functype, bodies[i], self))
            )

        if module.mems:
            self.memory = Memory(module.mems[0])
        if module.tables:
            self.table = Table(module.tables[0])

        for glob in module.globals:
            value = _eval_const(self, glob.init)
            self.globals.append(GlobalInstance(glob.gtype, value))

        # --- element and data segments (bounds-checked) ---------------------
        for elem in module.elems:
            offset = _eval_const(self, elem.offset)
            if self.table is None:
                raise LinkError("element segment without table")
            if offset + len(elem.func_indices) > len(self.table.elements):
                raise LinkError("element segment out of table bounds")
            for j, func_index in enumerate(elem.func_indices):
                self.table.elements[offset + j] = self.func_addrs[func_index]

        for seg in module.datas:
            offset = _eval_const(self, seg.offset)
            if self.memory is None:
                raise LinkError("data segment without memory")
            if offset + len(seg.payload) > self.memory.size_bytes:
                raise LinkError("data segment out of memory bounds")
            self.memory.write(offset, seg.payload)

        self._exports = module.export_map()

        if module.start is not None:
            self.invoke_index(module.start, [], 0)

    def retier(self, engine: str) -> list:
        """Rebind this instance's functions to ``engine``'s bodies in place
        and return those bodies.

        Fuel, traps and :class:`~repro.wasm.interpreter.ExecStats` are
        bit-identical across engines and :meth:`invoke_addr` dispatches
        per function on the class of ``prepared``, so switching between
        two calls is semantically invisible: no state moves, nothing on
        a stack needs replacing.
        """
        engine = resolve_engine(engine)
        bodies = compiled_bodies(self.module, engine)
        funcs = self.store.funcs
        own_addrs = self.func_addrs[self.module.num_imported_funcs:]
        for addr, body in zip(own_addrs, bodies):
            funcs[addr].prepared = body
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

    def export_names(self) -> list[str]:
        return sorted(self._exports)

    def get_export(self, name: str):
        """Return the runtime object behind an export (func handle, memory...)."""
        export = self._exports.get(name)
        if export is None:
            raise LinkError(f"no export named {name!r}")
        if export.kind == "func":
            addr = self.func_addrs[export.index]
            return ExportedFunc(self.store.funcs[addr].functype, addr, self)
        if export.kind == "mem":
            return self.memory
        if export.kind == "table":
            return self.table
        return self.globals[export.index]

    def exports(self) -> dict[str, Any]:
        return {name: self.get_export(name) for name in self._exports}

    def call(self, name: str, *args, fuel: int | None = "unset"):
        """Call an exported function by name.

        ``fuel`` (if given, including ``None``) replaces the store's fuel
        budget for this call.  Returns a single value, or ``None`` for
        void functions.  Integer results are returned in *signed*
        interpretation (the natural embedding for Python callers).
        """
        export = self._exports.get(name)
        if export is None or export.kind != "func":
            raise LinkError(f"no exported function named {name!r}")
        if fuel != "unset":
            self.store.fuel = fuel
        addr = self.func_addrs[export.index]
        functype = self.store.funcs[addr].functype
        if len(args) != len(functype.params):
            raise TypeError(
                f"{name} expects {len(functype.params)} args, got {len(args)}"
            )
        stack = [
            _normalize_arg(a, vt) for a, vt in zip(args, functype.params)
        ]
        results = self.invoke_addr(addr, stack, 0)
        if not functype.results:
            return None
        value = results[0]
        rt = functype.results[0]
        if rt == ValType.I32:
            return value - (1 << 32) if value & 0x80000000 else value
        if rt == ValType.I64:
            return value - (1 << 64) if value & (1 << 63) else value
        return value

    # ----- internal invocation (used by the interpreter for `call`) -------

    def invoke_index(self, func_index: int, stack: list, depth: int) -> Sequence:
        """Invoke by module-level function index; pops args from ``stack``."""
        return self.invoke_addr(self.func_addrs[func_index], stack, depth)

    def invoke_addr(self, addr: int, stack: list, depth: int) -> Sequence:
        func = self.store.funcs[addr]
        n_params = len(func.functype.params)
        if n_params:
            args = stack[len(stack) - n_params :]
            del stack[len(stack) - n_params :]
        else:
            args = []
        if isinstance(func, HostFunc):
            result = func.fn(self, *args)
            result_types = func.functype.results
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
                    f"host function {func.name} returned {len(results)} values, "
                    f"declared {len(result_types)}",
                    code="host",
                )
            return [
                _normalize_arg(v, vt) for v, vt in zip(results, result_types)
            ]
        prepared = func.prepared
        if prepared.__class__ is ThreadedCode:
            return execute_threaded(
                self.store,
                func.instance,
                prepared,
                args,
                len(func.functype.results),
                depth,
            )
        if prepared.__class__ is AotCode:
            return execute_aot(
                self.store,
                func.instance,
                prepared,
                args,
                len(func.functype.results),
                depth,
            )
        return execute(
            self.store,
            func.instance,
            prepared,
            args,
            len(func.functype.results),
            depth,
        )


@dataclass
class ExportedFunc:
    """Handle to an exported function, usable as an import elsewhere."""

    functype: FuncType
    addr: int
    instance: Instance

    def __call__(self, *args):
        stack = [
            _normalize_arg(a, vt) for a, vt in zip(args, self.functype.params)
        ]
        results = self.instance.invoke_addr(self.addr, stack, 0)
        return results[0] if self.functype.results else None
