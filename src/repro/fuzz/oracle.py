"""The differential conformance oracle.

Every fuzz case runs through a three-way engine differential whose legs
must agree observation-for-observation:

1. the **legacy** engine, full call plan;
2. the **threaded** engine, full call plan;
3. the **aot** engine (generated-Python tier), full call plan;
4. **checkpoint/restore**: the threaded and aot runs capture
   :class:`~repro.wasm.instance.InstanceState` mid-plan; fresh instances
   restore it and re-run the tail — the tail outcomes must match the
   uninterrupted run;
5. **cross-engine restore**: snapshots cross the engine boundary in both
   directions along the ladder (legacy→threaded, threaded→legacy,
   aot→threaded, legacy→aot) and the tail is re-run;
6. **tier-up**: a threaded instance runs to the split, is rebound to aot
   bodies in place (:meth:`~repro.wasm.instance.Instance.retier`, what
   :meth:`repro.abi.host.PluginHost.promote` does between two calls)
   and runs the tail - the whole trace must match legacy.

Compared per call: result value (bit-exact for floats), trap code, fuel
consumed, and :class:`~repro.wasm.interpreter.ExecStats`.  Compared at the
checkpoint and at the end: a canonical hash of linear memory plus every
mutable global.  Anything short of equality is a :class:`DiffResult` with
``ok=False``; any non-:class:`~repro.wasm.traps.WasmError` exception is a
host crash and propagates to the campaign runner as a finding.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.wasm.decoder import decode_module
from repro.wasm.instance import Instance, InstanceState, Store
from repro.wasm.interpreter import ExecStats
from repro.wasm.module import Module
from repro.wasm.traps import Trap, WasmError

#: a call plan: ``(export_name, args)`` pairs executed in order
CallPlan = list[tuple[str, tuple]]

#: default per-call instruction budget — enough for every generated body,
#: small enough that runaway call_indirect recursion traps quickly
DEFAULT_FUEL = 25_000


def canon_value(value) -> object:
    """Hashable canonical form of one call result.

    Floats are canonicalized to their IEEE-754 double bit pattern so that
    NaN payloads and signed zeros compare deterministically; ints stay
    ints (``Instance.call`` already returns the signed interpretation).
    """
    if value is None:
        return "void"
    if isinstance(value, float):
        return ("f", struct.pack("<d", value).hex())
    return ("i", value)


def canon_state(state: InstanceState) -> tuple:
    """Canonical form of a snapshot: memory digest + mutable global values."""
    mem = hashlib.sha256(state.memory).hexdigest()
    return (mem, tuple((i, canon_value(v)) for i, v in state.globals))


def _call_outcome(instance: Instance, name: str, args: tuple, fuel: int) -> tuple:
    """One canonical outcome tuple: kind, payload, fuel used, exec stats."""
    stats = ExecStats()
    instance.store.stats = stats
    try:
        value = instance.call(name, *args, fuel=fuel)
        kind, payload = "ok", canon_value(value)
    except Trap as trap:
        kind, payload = "trap", trap.code
    finally:
        instance.store.stats = None
    return (
        kind,
        payload,
        fuel - instance.store.fuel,
        stats.frames,
        stats.max_call_depth,
        stats.max_value_stack,
    )


@dataclass
class Trace:
    """One leg's observations: per-call outcomes plus state snapshots."""

    engine: str
    outcomes: list[tuple] = field(default_factory=list)
    checkpoint: InstanceState | None = None
    final: tuple | None = None  # canon_state at end of plan
    #: set instead of outcomes when instantiation itself failed
    instantiate_error: str | None = None


def run_trace(
    module: Module,
    calls: CallPlan,
    engine: str,
    fuel: int = DEFAULT_FUEL,
    capture_at: int | None = None,
    restore_from: InstanceState | None = None,
    retier_at: int | None = None,
) -> Trace:
    """Instantiate a decoded module and run a call plan under one engine.
    Legs handed the same :class:`Module` share its lowered bodies.

    ``capture_at=k`` snapshots state just before call ``k``;
    ``restore_from`` writes a snapshot into the fresh instance before any
    calls (the restore-and-replay leg); ``retier_at=k`` rebinds the live
    instance to aot bodies just before call ``k`` (the tier-up leg).
    Instantiation failures are recorded, not raised — every engine must
    fail identically.
    """
    trace = Trace(engine=engine)
    try:
        instance = Instance(module, store=Store(), engine=engine)
    except WasmError as exc:
        trace.instantiate_error = f"{type(exc).__name__}: {exc}"
        return trace
    if restore_from is not None:
        instance.restore_state(restore_from)
    for i, (name, args) in enumerate(calls):
        if capture_at is not None and i == capture_at:
            trace.checkpoint = instance.capture_state()
        if retier_at is not None and i == retier_at:
            instance.retier("aot")
        trace.outcomes.append(_call_outcome(instance, name, args, fuel))
    trace.final = canon_state(instance.capture_state())
    return trace


@dataclass
class DiffResult:
    """Verdict of one differential run."""

    ok: bool
    reason: str | None
    legs: dict[str, Trace]
    calls: CallPlan
    fuel: int

    @property
    def digest_material(self) -> str:
        """Deterministic text folded into the campaign digest."""
        ref = self.legs.get("legacy")
        if ref is None:
            return "no-legs"
        if ref.instantiate_error is not None:
            return f"instantiate:{ref.instantiate_error}"
        return repr(ref.outcomes) + repr(ref.final)


def differential(wasm: bytes, calls: CallPlan, fuel: int = DEFAULT_FUEL) -> DiffResult:
    """Run every oracle leg; return the first divergence found (if any).
    The module is decoded once and every leg instantiates (and validates)
    that one object, so an engine lowers it once however many legs run."""
    split = len(calls) // 2
    legs: dict[str, Trace] = {}
    module = decode_module(wasm)

    def fail(reason: str) -> DiffResult:
        return DiffResult(False, reason, legs, calls, fuel)

    legacy = run_trace(module, calls, "legacy", fuel, capture_at=split)
    threaded = run_trace(module, calls, "threaded", fuel, capture_at=split)
    aot = run_trace(module, calls, "aot", fuel, capture_at=split)
    legs["legacy"] = legacy
    legs["threaded"] = threaded
    legs["aot"] = aot

    # -- full-plan agreement (legacy is the reference) -----------------------
    if legacy.instantiate_error or threaded.instantiate_error or aot.instantiate_error:
        if (
            legacy.instantiate_error != threaded.instantiate_error
            or legacy.instantiate_error != aot.instantiate_error
        ):
            return fail(
                "instantiation divergence: legacy="
                f"{legacy.instantiate_error!r} threaded="
                f"{threaded.instantiate_error!r} aot="
                f"{aot.instantiate_error!r}"
            )
        return DiffResult(True, None, legs, calls, fuel)
    legs["tier-up"] = run_trace(
        module, calls, "threaded", fuel, capture_at=split, retier_at=split
    )
    for leg_name in ("threaded", "aot", "tier-up"):
        other = legs[leg_name]
        for i, (a, b) in enumerate(zip(legacy.outcomes, other.outcomes)):
            if a != b:
                return fail(
                    f"call {i} ({calls[i][0]}): legacy={a} {leg_name}={b}"
                )
        if legacy.final != other.final:
            return fail(
                f"final state divergence: legacy={legacy.final} "
                f"{leg_name}={other.final}"
            )
        if (legacy.checkpoint is None) != (other.checkpoint is None):
            return fail("checkpoint taken in one engine only")
        if legacy.checkpoint is not None and canon_state(
            legacy.checkpoint
        ) != canon_state(other.checkpoint):
            return fail(
                f"checkpoint state divergence at call {split}: "
                f"legacy={canon_state(legacy.checkpoint)} "
                f"{leg_name}={canon_state(other.checkpoint)}"
            )

    # -- restore-and-replay the tail, incl. cross-engine hops ----------------
    if legacy.checkpoint is not None:
        tail = calls[split:]
        expected = threaded.outcomes[split:]
        for leg_name, engine, snapshot in (
            ("restore-threaded", "threaded", threaded.checkpoint),
            ("restore-cross", "threaded", legacy.checkpoint),
            ("restore-legacy", "legacy", threaded.checkpoint),
            ("restore-aot", "aot", aot.checkpoint),
            ("restore-aot-to-threaded", "threaded", aot.checkpoint),
            ("restore-legacy-to-aot", "aot", legacy.checkpoint),
        ):
            replay = run_trace(module, tail, engine, fuel, restore_from=snapshot)
            legs[leg_name] = replay
            if replay.instantiate_error is not None:
                return fail(f"{leg_name}: {replay.instantiate_error}")
            for i, (a, b) in enumerate(zip(expected, replay.outcomes)):
                if a != b:
                    return fail(
                        f"{leg_name} call {split + i} ({tail[i][0]}): "
                        f"continuous={a} replayed={b}"
                    )
            if replay.final != threaded.final:
                return fail(
                    f"{leg_name} final state: continuous={threaded.final} "
                    f"replayed={replay.final}"
                )

    return DiffResult(True, None, legs, calls, fuel)
