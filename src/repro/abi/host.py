"""The WA-RAN plugin host.

:class:`PluginHost` owns one loaded plugin instance and provides the
operations the paper's design needs:

- **load** with pre-deployment sanitization (unsanitized loads too must
  declare linear memory: every payload crosses the ABI through it);
- **call** with a fuel budget, catching every trap so a plugin fault can
  never take the host down (§5D);
- **hot swap** - replace the plugin binary between calls without touching
  the host (§5C's live scheduler change);
- **tier-up** - under the default engine a binary starts on threaded code
  (cheap cold load, Fig. 5b) and is rebound to compiled code between two
  calls once it has burnt its compile cost in fuel (Fig. 5d's steady
  state) - see :meth:`PluginHost.promote`;
- **timing** - every call is measured end-to-end *including serialization*,
  matching how §5E measures execution time.

:class:`SchedulerPlugin` layers the scheduler ABI on top: pack the slice
state, run the plugin, unpack and validate the grants.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

from repro.abi import wire
from repro.abi.hostfuncs import ALLOWED_IMPORTS, make_env
from repro.abi.sanitizer import SanitizerError, check_module
from repro.obs import OBS
from repro.obs.flight import CallRecord
from repro.obs.tracing import SpanMark
from repro.sched.types import UeGrant, UeSchedInfo
from repro.wasm import Instance, Module, codecache, load_module
from repro.wasm.aot import own_frames
from repro.wasm.instance import HostFunc, InstanceState, Store
from repro.wasm.interpreter import ExecStats
from repro.wasm.threaded import resolve_engine
from repro.wasm.traps import LinkError, Trap, WasmError

#: Tier-up threshold: a module is compiled to aot bodies once its
#: instances have burnt this much fuel per static instruction.  Derived,
#: not tuned (rr / pf / mt on a 48-UE input, medians of 30, two runs on a
#: 2-core host, CPython 3.11): ``promote()`` - emitting + ``compile()``-ing
#: the bodies that run as their own frame - costs 16-27 us per static
#: instruction (8.1-11.7 ms / 492 for ``rr``); threaded code retires
#: 2.1-4.1 fuel/us and aot 25-63, so compiled code saves 0.22-0.44 us per
#: fuel unit; break-even is 56-73 fuel per static instruction, rounded up
#: to a power of two.  (``rr``: 63 k fuel, about 20 dense calls; a cold
#: variant living 5 calls burns ~5 k and never gets there.)
PROMOTE_FUEL_PER_INSTR = 128


class PluginError(RuntimeError):
    """The plugin misbehaved: trapped, broke the ABI, or overran limits."""

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind  # 'trap' | 'fuel' | 'abi' | 'deadline' | 'load'
        #: the faulted call's :class:`PluginCallResult` (``outcome == kind``,
        #: ``output is None``); ``None`` when no call was made (load errors)
        self.result: PluginCallResult | None = None


@dataclass(frozen=True)
class PluginCheckpoint:
    """A restorable snapshot of one plugin instance's mutable state.

    Captures everything a deterministic plugin's behaviour depends on -
    linear memory, mutable globals, and the host's scratch-region
    bookkeeping - so a quarantined slice can recover by restoring a
    known-good state into a fresh instance instead of losing it (§6A's
    recovery story, completing the escalation ladder with a way back).
    """

    plugin: str
    generation: int
    module_sha256: str
    memory: bytes
    globals: tuple[tuple[int, int | float], ...]  # (index, value), mutable only
    scratch_ptr: int | None
    scratch_cap: int

    @property
    def memory_pages(self) -> int:
        return len(self.memory) // 65536


@dataclass(slots=True)
class PluginCallResult:
    """The one report of a plugin invocation, clean or faulted.

    :meth:`PluginHost.call` returns it for a clean call and raises a
    :class:`PluginError` carrying it as ``.result`` for a faulted one;
    telemetry, the flight recorder and the replay harness all read this
    object.
    """

    output: bytes | None  # None iff the call faulted
    elapsed_us: float
    fuel_used: int | None  # None when no Wasm ran (or the host has no fuel limit)
    outcome: str = "ok"  # 'ok' | 'trap' | 'fuel' | 'abi' | 'deadline'
    trap_code: str | None = None


@dataclass
class HostLimits:
    """Per-call resource policy."""

    fuel: int | None = 2_000_000
    max_output_bytes: int = 1 << 16


#: calls the call log takes before one hands them to the readers
CALL_BATCH = 256


def _call_span(plugin, entry, outcome, start, encoded, invoked, end, children_us):
    """The ``plugin.call`` span of a call that closed: a phase it never
    finished runs to the end of the span (a trap's time is booked under
    the phase it cut short); spans opened inside are not its phases."""
    encoded, invoked = encoded or end, invoked or end
    return (
        {"plugin": plugin, "entry": entry, "outcome": outcome},
        "ok" if outcome == "ok" else "error",
        {
            "plugin.encode": (encoded - start) / 1000.0,
            "plugin.invoke": (invoked - encoded) / 1000.0,
            "plugin.decode": (end - invoked) / 1000.0,
        },
    )


def _escaped_call_span(facts, children_us) -> tuple:
    """The ``plugin.call`` span of a call an exception left unreported
    (what a ``with`` span records): ``(plugin, entry, error)``."""
    plugin, entry, error = facts
    return {"plugin": plugin, "entry": entry, "error": error}, "error", None


class PluginHost:
    """Loads and runs one Wasm plugin with Extism-style byte-buffer calls."""

    def __init__(
        self,
        wasm_bytes: bytes,
        name: str = "plugin",
        limits: HostLimits | None = None,
        sanitize: bool = True,
        extra_hostfuncs: dict[str, HostFunc] | None = None,
        log_sink=None,
        output_record_bytes: int = 8,
        allowed_imports: frozenset[str] | None = None,
        required_exports: dict | None = None,
        engine: str | None = None,
        chaos=None,
    ):
        self.name = name
        self.limits = limits or HostLimits()
        #: True while an ``engine="aot"`` host still runs threaded code
        #: (see :meth:`promote`); explicit threaded/legacy hosts: never
        self._warming = False
        self._sanitize = sanitize
        self._extra_hostfuncs = extra_hostfuncs
        self._log_sink = log_sink
        self.output_record_bytes = output_record_bytes
        self._allowed_imports = (
            ALLOWED_IMPORTS if allowed_imports is None else allowed_imports
        )
        self._required_exports = required_exports
        self._engine = engine
        #: optional fault injector (``draw_plugin(site)``), e.g. a
        #: :class:`~repro.chaos.schedule.FaultSchedule`; ``None`` is off
        self.chaos = chaos
        self.generation = 0
        self.instance: Instance | None = None
        #: number of times the host had to call the plugin's ``alloc``
        #: (first call, scratch growth, or after a swap/load)
        self.scratch_allocs = 0
        # what telemetry needs per call, allocated once: the frame
        # counters (zeroed per call) and the plugin.call span's ids
        self._stats = ExecStats()
        self._span = SpanMark()
        self._load(wasm_bytes)

    # ----- lifecycle ---------------------------------------------------------

    def _load(self, wasm_bytes: bytes) -> bool:
        """First load and swap: *load* the binary, then *instantiate* it.

        Nothing on ``self`` changes unless both halves succeed, and every
        refused binary leaves a ``plugin.load ok=False`` event behind.
        Returns :meth:`_instantiate`'s *warm* flag.
        """
        try:
            module = self._load_module(wasm_bytes)
            warm = self._instantiate(module)
        except (SanitizerError, WasmError) as exc:
            if OBS.enabled:
                OBS.events.emit(
                    "plugin.load", source=self.name, detail=str(exc), ok=False
                )
            if isinstance(exc, SanitizerError):
                raise
            raise PluginError(f"cannot load plugin {self.name}: {exc}", "load") from exc
        self.wasm_bytes = wasm_bytes
        self.module_sha = module.content_hash
        self._static_instrs = sum(len(code.body) for code in module.codes)
        return warm

    def _load_module(self, wasm_bytes: bytes) -> Module:
        """*Load*: one hash and this host's policy check of a binary; the
        decode and validation behind them happen once per binary,
        process-wide (:func:`repro.wasm.load_module`), the policy verdict
        is this host's own and is taken on every load."""
        try:
            module = load_module(wasm_bytes)
        except WasmError as exc:
            if self._sanitize:  # what ``sanitize_plugin`` says of these bytes
                raise SanitizerError(f"plugin failed validation: {exc}") from exc
            raise
        if self._sanitize:
            check_module(
                module,
                self._allowed_imports,
                required_exports=self._required_exports,
            )
        if not module.mems:  # the byte-buffer ABI needs it, sanitized or not
            raise LinkError("plugin declares no linear memory (the ABI needs one)")
        return module

    def _instantiate(self, module: Module) -> bool:
        """*Instantiate*: a fresh live instance of an already-checked module.

        Raises :class:`WasmError` for a link error or a trap in ``start``
        - a ``start`` that recurses past the *host's* stack is a stack trap
        here as it is in :meth:`call` - leaving the live instance serving.
        Returns whether the load was *warm*: the bodies the new instance
        starts on were already lowered for this module, so nothing was
        lowered for it.
        """
        env = make_env(log_sink=self._log_sink, extra=self._extra_hostfuncs)
        # engine "aot" at this layer means "compiled once the binary has
        # earned it": a module already bound to aot bodies (a warm swap, a
        # restore, another cell's copy) starts compiled, anything
        # else starts on threaded code at threaded's cold-load cost and
        # heats up call by call
        engine = resolve_engine(self._engine)
        warming = engine == "aot" and not codecache.is_cached(module, "aot")
        if warming:
            engine = "threaded"
        warm = codecache.is_cached(module, engine)
        try:
            instance = Instance(
                module,
                imports={"env": env},
                # a start function runs inside Instance(), on the per-call budget
                store=Store(fuel=self.limits.fuel),
                validate=False,  # every module reaching here passed _load_module
                engine=engine,
            )
        except RecursionError as exc:
            raise Trap(f"call stack exhausted: {exc}", code="stack") from exc
        self.instance = instance
        self._warming = warming
        # a new instance invalidates any pointer the old one handed out
        self._scratch_ptr: int | None = None
        self._scratch_cap = 0
        return warm

    def _lifecycle(self, event: str, total: str, help: str, **fields) -> None:
        """A lifecycle step's event and its per-plugin counter."""
        OBS.events.emit(event, source=self.name, **fields)
        OBS.registry.counter(total, help).inc(plugin=self.name)

    # ----- tier-up -----------------------------------------------------------

    @property
    def tier(self) -> str:
        """The engine the live instance is running on right now."""
        assert self.instance is not None
        return self.instance.engine

    def promote(self) -> None:
        """Switch the live instance to compiled (aot) code, between calls.

        The one promotion path: :meth:`call` takes it when the binary's
        heat crosses the threshold (or another instance of the same bytes
        already paid for the compile); differential and replay harnesses
        call it up front to pin the compiled tier.  Idempotent, and a
        no-op on hosts whose engine is explicitly threaded or legacy.
        Bodies are compiled once per module - they are shared by every
        instance of it - and only those that run as their own frame: a
        leaf its callers inline is not compiled unless something calls it
        from outside.
        """
        if not self._warming:
            return
        instance = self.instance
        assert instance is not None
        start = time.perf_counter_ns()
        for body in own_frames(instance.module, instance.retier("aot")):
            body.compile()
        self._warming = False
        if OBS.enabled:
            promote_us = (time.perf_counter_ns() - start) / 1000.0
            self._lifecycle(
                "plugin.promote", "waran_plugin_promotions_total",
                "live instances switched from threaded to compiled code",
                module_sha=self.module_sha, heat=codecache.heat(instance.module),
                static_instrs=self._static_instrs, compile_us=promote_us,
            )
            OBS.registry.histogram(
                "waran_wasm_promote_us",
                "time to compile (or fetch) aot bodies and rebind an instance (us)",
            ).observe(promote_us)

    def _heat_up(self, fuel_used: int | None) -> None:
        """Charge one finished call to the binary's heat; promote when due.

        Fuel is the clock: deterministic, engine-identical and proportional
        to the time threaded code burns.  A call with no fuel reading (no
        fuel limit) is charged the module's static instruction count.
        """
        module = self.instance.module
        heat = codecache.add_heat(
            module, self._static_instrs if fuel_used is None else fuel_used
        )
        if (
            heat >= PROMOTE_FUEL_PER_INSTR * self._static_instrs
            or codecache.is_cached(module, "aot")
        ):
            self.promote()

    def swap(self, wasm_bytes: bytes) -> int:
        """Replace the plugin binary (hot swap).  Returns the new generation.

        The old instance - including any state in its linear memory - is
        dropped; the new plugin starts fresh.  The host itself (and every
        other plugin) is untouched, which is what makes the paper's
        on-the-fly scheduler change safe.
        """
        warm = self._load(wasm_bytes)
        self.generation += 1
        if OBS.enabled:
            self._lifecycle(
                "plugin.swap", "waran_plugin_swaps_total", "hot swaps performed",
                generation=self.generation, size_bytes=len(wasm_bytes), warm=warm,
            )
        return self.generation

    # ----- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> PluginCheckpoint:
        """Snapshot linear memory + mutable globals into a restorable record."""
        instance = self.instance
        assert instance is not None
        state = instance.capture_state()
        snapshot = PluginCheckpoint(
            plugin=self.name,
            generation=self.generation,
            module_sha256=self.module_sha,
            memory=state.memory,
            globals=state.globals,
            scratch_ptr=self._scratch_ptr,
            scratch_cap=self._scratch_cap,
        )
        if OBS.enabled:
            self._lifecycle(
                "plugin.checkpoint", "waran_plugin_checkpoints_total",
                "checkpoints taken", generation=self.generation,
                memory_pages=snapshot.memory_pages,
            )
        return snapshot

    def restore(self, snapshot: PluginCheckpoint) -> None:
        """Build a fresh instance, then restore a checkpoint's state into it.

        The new instance starts pristine (dropping whatever corruption the
        live one accumulated) from the module the host is already running -
        nothing is decoded, validated or policy-checked again - after which
        the checkpoint's linear memory and mutable globals are written
        back: a restored plugin continues exactly where the snapshot left it.
        """
        if snapshot.module_sha256 != self.module_sha:
            raise PluginError(
                f"{self.name}: checkpoint was taken from a different binary",
                "load",
            )
        assert self.instance is not None
        try:
            # the live module already passed decode, validation and policy
            self._instantiate(self.instance.module)
            self.instance.restore_state(
                InstanceState(memory=snapshot.memory, globals=snapshot.globals)
            )
        except WasmError as exc:
            raise PluginError(f"{self.name}: {exc}", "load") from exc
        self._scratch_ptr = snapshot.scratch_ptr
        self._scratch_cap = snapshot.scratch_cap
        if OBS.enabled:
            self._lifecycle(
                "plugin.restore", "waran_plugin_restores_total",
                "checkpoint restores", generation=self.generation,
                memory_pages=snapshot.memory_pages,
            )

    # ----- invocation -----------------------------------------------------------

    def call(
        self,
        input_bytes: bytes,
        entry: str = "run",
        fuel: int | None = None,
        rt: dict | None = None,
    ) -> PluginCallResult:
        """One byte-buffer call: alloc, copy in, run, copy out.

        Raises :class:`PluginError` for traps, fuel exhaustion and ABI
        violations; the error's ``.result`` is the faulted call's report
        (real ``elapsed_us`` / ``fuel_used``, ``output`` ``None``).  The
        elapsed time covers the full round trip (serialization overhead
        included), mirroring §5E's methodology.

        ``fuel`` is the rt layer's per-call budget: when it undercuts the
        host's own ``limits.fuel`` the call is *budgeted* - running out of
        fuel then raises kind ``"deadline"`` (a deterministic fuel-cut
        preemption at the slot budget) instead of ``"fuel"`` (the plugin's
        own resource exhaustion).  ``rt`` is an opaque decision document
        (budget, lane, verdict) attached to the flight record so
        :meth:`replay` reproduces degraded slots bit-exactly.

        With telemetry on (:func:`repro.obs.enable`) a call writes one
        record of what it has to the call log (:mod:`repro.obs.flight`),
        its series and ``CallRecord`` built from it when read, and a fault
        also logs an event.  With the tracer on, the call writes one tuple
        to the tracer's ring when it closes: its ``plugin.call`` span
        (``children_us``: ``plugin.encode`` / ``plugin.invoke`` /
        ``plugin.decode``), built when read.  While Wasm runs, a span a
        host function opens parents under the call's.
        """
        instance = self.instance
        assert instance is not None
        obs = OBS
        enabled = obs.enabled
        # corpus-capture mode: snapshot the pre-call state a standalone
        # replay must reconstruct (mutable globals drive stateful plugins
        # like rr's rotation pointer; the alloc flag decides whether this
        # call's fuel includes the plugin's `alloc` run)
        pre = None
        if enabled and obs.flight.capture:
            pre = self._capture_precall(len(input_bytes))
        limit = self.limits.fuel
        budgeted = fuel is not None and (limit is None or fuel < limit)
        fuel = int(fuel) if budgeted else limit
        injection = None
        if self.chaos is not None:
            injection = self.chaos.draw_plugin(self.name)
            if injection is not None:
                fuel = self._apply_chaos_pre(injection, fuel)
        # off means off: a call made with telemetry disabled detaches the
        # frame accounting an earlier telemetry-on call attached
        stats = mark = None
        if enabled:
            stats = self._stats
            stats.frames = stats.max_call_depth = stats.max_value_stack = 0
            tracer = obs.tracer
            if tracer.enabled:
                # Tracer.begin and, below, the close of Tracer.record
                # written out: a call per plugin call costs more than these
                try:
                    stack = tracer._tls.stack
                except AttributeError:
                    stack = tracer._stack()
                mark = self._span
                mark.span_id = span_id = next(tracer._ids)
                if stack:
                    parent = stack[-1]
                    mark.trace_id = trace_id = parent.trace_id
                    mark.parent_id = parent_id = parent.span_id
                else:
                    mark.trace_id = trace_id = next(tracer._ids)
                    mark.parent_id = parent_id = None
                mark.children_us = None
                mark._stack = stack
                stack.append(mark)
        instance.store.stats = stats
        error: PluginError | None = None
        trap_code: str | None = None
        output: bytes | None = None
        # an injected trap/abi/oversize replaces the call: no Wasm runs,
        # so there is no fuel reading and nothing to charge to heat
        ran_wasm = False
        encoded_ns = invoked_ns = 0
        start = time.perf_counter_ns()
        try:
            if injection is not None:
                self._raise_injected(injection)
            ran_wasm = True
            # one budget for the whole call: `alloc` (when it runs)
            # and the entry function draw on the same store fuel
            instance.store.fuel = fuel
            # the input staging region is persistent: the plugin's
            # `alloc` is only consulted on the first call and when
            # the input outgrows the scratch capacity - it never
            # shrinks, so back-to-back calls reuse one region
            in_len = len(input_bytes)
            if self._scratch_ptr is not None and in_len <= self._scratch_cap:
                in_ptr = self._scratch_ptr
            else:
                in_ptr = instance.entry("alloc")(instance, in_len)
                if in_ptr is None or in_ptr < 0:
                    raise PluginError(
                        f"{self.name}: alloc returned bad pointer {in_ptr}",
                        "abi",
                    )
                self._scratch_ptr = in_ptr
                self._scratch_cap = max(self._scratch_cap, in_len)
                self.scratch_allocs += 1
            instance.memory.write(in_ptr, input_bytes)
            encoded_ns = time.perf_counter_ns()
            # the live instance's bound entry: both arguments are i32 already
            out_ptr = instance.entry(entry)(instance, in_ptr, in_len)
            invoked_ns = time.perf_counter_ns()
            output = self._read_output(out_ptr)
        except PluginError as exc:
            error = exc
        except (Trap, RecursionError) as exc:
            # a plugin that recurses until the *host's* stack runs out
            # before the Wasm depth limit does (the threaded cold tier
            # spends three Python frames per Wasm frame and the legacy
            # interpreter two, an embedder may already be deep) is a
            # stack trap like any other: it never reaches the caller as
            # RecursionError
            trap_code = exc.code if isinstance(exc, Trap) else "stack"
            kind = "fuel" if trap_code == "fuel" else "trap"
            if (
                kind == "fuel"
                and budgeted
                and (injection is None or injection.kind != "fuel_cut")
            ):
                # the rt budget, not the plugin's own limit, was the
                # binding constraint: this is a deadline preemption
                # (message kept time-free so logs stay reproducible)
                kind = "deadline"
                error = PluginError(
                    f"{self.name}: preempted at rt budget "
                    f"(fuel budget {fuel})", kind,
                )
            else:
                error = PluginError(
                    f"{self.name}: plugin trapped: {exc} (code={trap_code})",
                    kind,
                )
            error.__cause__ = exc
        except BaseException as exc:
            if mark is not None:  # the span a `with` block records for what it lets by
                tracer.record(
                    mark, "plugin.call", start, time.perf_counter_ns(),
                    _escaped_call_span,
                    (self.name, entry, f"{type(exc).__name__}: {exc}"),
                )
            raise
        end_ns = time.perf_counter_ns()
        fuel_used = None
        if ran_wasm and fuel is not None:
            fuel_used = fuel - instance.store.fuel
        if injection is not None and injection.kind == "deadline" and error is None:
            # message kept time-free so chaos fault logs stay reproducible
            error = PluginError(
                f"{self.name}: chaos: injected deadline blowout", "deadline"
            )
            output = None
        outcome = "ok" if error is None else error.kind
        elapsed_us = (end_ns - start) / 1000.0
        result = PluginCallResult(output, elapsed_us, fuel_used, outcome, trap_code)
        if enabled:
            name = self.name
            if type(input_bytes) is not bytes:
                input_bytes = bytes(input_bytes)
            detail = "" if error is None else str(error)
            if mark is not None:
                if stack and stack[-1] is mark:
                    stack.pop()
                if stack and stack[-1].span_id == parent_id:
                    parent = stack[-1]
                    children = parent.children_us
                    if children is None:
                        parent.children_us = {"plugin.call": elapsed_us}
                    else:
                        children["plugin.call"] = (
                            children.get("plugin.call", 0.0) + elapsed_us
                        )
                # the span, in Tracer.record's format
                tracer._finished.append((
                    "plugin.call", trace_id, span_id, parent_id, start, end_ns,
                    stack.thread_id, None, _call_span,
                    name, entry, outcome, start, encoded_ns, invoked_ns, end_ns,
                ))
            # the call's one record, at repro.obs.flight's field positions
            calls = obs.calls
            calls.append((
                result, entry, self.generation, self.module_sha, input_bytes,
                detail, injection, rt,
                # the *effective* enforced budget, so replay reproduces
                # the fuel-cut preemption bit-exactly
                fuel if budgeted else None,
                pre, name, outcome, elapsed_us, fuel_used,
                stats.frames, stats.max_call_depth, stats.max_value_stack,
                len(instance.memory.data) >> 16,
            ))
            if len(calls) >= CALL_BATCH:
                obs.fold_calls()
            if injection is not None:
                obs.registry.counter(
                    "waran_chaos_injections_total", "chaos faults injected into plugin calls"
                ).inc(plugin=name, kind=injection.kind)
                obs.events.emit(
                    "chaos.inject", source=name, fault_kind=injection.kind,
                    index=injection.index, outcome=outcome,
                )
            if error is not None:
                fields = {"entry": entry, "detail": detail}
                if trap_code is not None:
                    fields["trap_code"] = trap_code
                obs.events.emit(f"plugin.{error.kind}", source=name, **fields)
        if self._warming and ran_wasm:
            # after the timing and the telemetry of the call: a compile
            # never shows up in a plugin latency series
            self._heat_up(fuel_used)
        if error is not None:
            error.result = result
            raise error
        return result

    # ----- chaos injection (runtime + ABI layers) ----------------------------

    def _apply_chaos_pre(self, injection, fuel: int | None) -> int | None:
        """Faults applied before the call runs: fuel cuts and bit flips."""
        kind = injection.kind
        if kind == "fuel_cut":
            # a budget too small for any real scheduling pass -> FuelExhausted
            cut = 1 + injection.a % 500
            return cut if fuel is None else min(fuel, cut)
        if kind == "bitflip":
            memory = self.instance.memory
            if len(memory.data):
                offset = injection.a % len(memory.data)
                memory.data[offset] ^= 1 << (injection.b % 8)
        return fuel

    def _raise_injected(self, injection) -> None:
        """Faults that replace the call entirely: traps and ABI violations."""
        kind = injection.kind
        if kind == "trap":
            raise Trap(f"chaos: injected trap at call #{injection.index}", "chaos")
        if kind == "abi":
            raise PluginError(
                f"{self.name}: chaos: injected ABI violation "
                f"(bad pointer {injection.a})", "abi",
            )
        if kind == "oversize":
            raise PluginError(
                f"{self.name}: chaos: injected oversized output "
                f"({self.limits.max_output_bytes + 1 + injection.a % 4096} bytes "
                f"exceeds limit)", "abi",
            )

    # ----- corpus capture / standalone replay support ------------------------

    def _capture_precall(self, in_len: int) -> dict:
        """The pre-call state document attached to corpus-capture records
        (the module binary goes to the flight recorder's corpus table)."""
        instance = self.instance
        assert instance is not None
        OBS.flight.register_module(self.module_sha, self.wasm_bytes)
        return {
            "globals": [
                [index, glob.value]
                for index, glob in enumerate(instance.globals)
                if glob.gtype.mutable
            ],
            "alloc": self._scratch_ptr is None or in_len > self._scratch_cap,
            "fuel_limit": self.limits.fuel,
            "orb": self.output_record_bytes,
            "max_out": self.limits.max_output_bytes,
        }

    def prime_scratch(self, length: int) -> None:
        """Run the plugin's ``alloc`` *outside* any fuel accounting.

        A recorded call that reused the persistent scratch region carries
        no ``alloc`` cost in its fuel count; a standalone replay must
        therefore pre-establish an equivalent scratch region before the
        fueled call so the fuel delta reproduces bit-exactly.  No-op when
        the scratch region already covers ``length``.
        """
        if self._scratch_ptr is not None and length <= self._scratch_cap:
            return
        instance = self.instance
        assert instance is not None
        saved_fuel = instance.store.fuel
        try:
            ptr = instance.call("alloc", length, fuel=None)
        finally:
            instance.store.fuel = saved_fuel
        if ptr is None or ptr < 0:
            raise PluginError(
                f"{self.name}: alloc returned bad pointer {ptr}", "abi"
            )
        self._scratch_ptr = ptr
        self._scratch_cap = max(self._scratch_cap, length)
        self.scratch_allocs += 1

    def reset_scratch(self) -> None:
        """Forget the scratch region so the next call re-runs ``alloc``.

        The replay harness uses this to reproduce first-of-generation (or
        growth) calls whose recorded fuel *includes* the alloc run.
        """
        self._scratch_ptr = None
        self._scratch_cap = 0

    def reissue(
        self,
        input_bytes: bytes,
        entry: str,
        chaos_doc: dict | None,
        rt_doc: dict | None,
    ) -> PluginCallResult:
        """Call again as recorded: the one re-issue step of every replay.

        The recorded chaos injection (if any) fires exactly once and the
        host's own ``chaos`` schedule never does; the recorded rt
        decision re-applies its effective per-call fuel budget.  Raises
        like :meth:`call`.
        """
        from repro.chaos.schedule import ChaosInjection, OneShotChaos

        self.chaos = OneShotChaos(
            ChaosInjection.from_json(chaos_doc) if chaos_doc is not None else None
        )
        return self.call(
            input_bytes,
            entry=entry,
            fuel=rt_doc.get("fuel") if rt_doc else None,
            rt=rt_doc,
        )

    def replay(self, record: CallRecord) -> PluginCallResult:
        """Re-execute a flight-recorder capture for deterministic debugging.

        The call runs against a brand-new instance built from this host's
        current binary, so a deterministic plugin reproduces the captured
        output byte-for-byte regardless of any linear-memory state the live
        instance has accumulated since.  (To probe state-dependent
        behaviour on the live instance, just :meth:`call` it again with
        ``record.input_bytes``.)

        A captured chaos injection (``attrs["chaos"]``) and rt decision
        (``attrs["rt"]``) are re-applied by :meth:`reissue`, so a
        chaos-provoked trap or fuel cut reproduces its trap code and fuel
        count, and a slot degraded by fuel-cut preemption replays
        bit-exactly - including under chaos deadline faults, where both
        attachments compose.
        """
        if record.generation != self.generation:
            if OBS.enabled:
                OBS.events.emit(
                    "plugin.replay_generation_mismatch",
                    source=self.name,
                    recorded=record.generation,
                    current=self.generation,
                )
        clone = PluginHost(
            self.wasm_bytes,
            name=f"{self.name}@replay",
            limits=self.limits,
            sanitize=False,  # the deployed binary already passed sanitization
            extra_hostfuncs=self._extra_hostfuncs,
            log_sink=self._log_sink,
            output_record_bytes=self.output_record_bytes,
            engine=self._engine,
        )
        return clone.reissue(
            record.input_bytes,
            record.entry,
            record.attrs.get("chaos"),
            record.attrs.get("rt"),
        )

    def _read_output(self, out_ptr) -> bytes:
        memory = self.instance.memory
        if out_ptr is None or out_ptr < 0:
            raise PluginError(f"{self.name}: run returned bad pointer {out_ptr}", "abi")
        if out_ptr + 4 > len(memory.data):
            raise PluginError(f"{self.name}: output pointer out of bounds", "abi")
        (count,) = struct.unpack_from("<I", memory.data, out_ptr)
        if count > 10_000:
            raise PluginError(f"{self.name}: implausible record count {count}", "abi")
        length = 4 + count * self.output_record_bytes
        if length > self.limits.max_output_bytes:
            raise PluginError(
                f"{self.name}: output {length} bytes exceeds limit", "abi"
            )
        try:
            return memory.read(out_ptr, length)
        except Trap as exc:
            raise PluginError(f"{self.name}: output out of bounds: {exc}", "abi") from exc

    # ----- diagnostics -----------------------------------------------------------

    @property
    def memory_pages(self) -> int:
        assert self.instance is not None
        return self.instance.memory.size_pages


@dataclass
class SchedulerCall:
    """Outcome of one intra-slice scheduling call through a plugin."""

    grants: list[UeGrant]
    elapsed_us: float
    fuel_used: int | None


class SchedulerPlugin:
    """A :class:`PluginHost` speaking the scheduler ABI of §4A."""

    def __init__(self, host: PluginHost):
        self.host = host

    @classmethod
    def load(cls, wasm_bytes: bytes, name: str = "sched", **kwargs) -> "SchedulerPlugin":
        return cls(PluginHost(wasm_bytes, name=name, **kwargs))

    @property
    def name(self) -> str:
        return self.host.name

    def swap(self, wasm_bytes: bytes) -> int:
        return self.host.swap(wasm_bytes)

    def schedule(
        self,
        allocated_prbs: int,
        ues: list[UeSchedInfo],
        slot: int,
        fuel: int | None = None,
        rt: dict | None = None,
    ) -> SchedulerCall:
        """Run the plugin's intra-slice scheduler for one slot.

        Serialization, the Wasm call, deserialization and timing are all
        included.  Grant *validation* is the caller's job (the gNB's fault
        policy decides what to do with bad output).  ``fuel``/``rt`` carry
        the rt dispatcher's per-call budget and decision document through
        to :meth:`PluginHost.call`.
        """
        payload = wire.pack_sched_input(slot, allocated_prbs, ues)
        result = self.host.call(payload, fuel=fuel, rt=rt)
        try:
            grants = wire.unpack_grants(result.output)
        except wire.WireError as exc:
            raise PluginError(f"{self.name}: bad grant buffer: {exc}", "abi") from exc
        return SchedulerCall(grants, result.elapsed_us, result.fuel_used)
