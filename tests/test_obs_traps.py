"""Every trap kind raised through PluginHost.call lands in the event log.

One tiny WAT module per spec trap code; each is loaded into a bare
:class:`PluginHost` (sanitizer bypassed - these modules deliberately
misbehave) and invoked through the normal byte-buffer path.  The host must
classify the fault, raise :class:`PluginError`, and emit a structured
event carrying the machine-readable trap code.
"""

import pytest

from repro import obs
from repro.abi.host import PluginError, PluginHost
from repro.chaos.schedule import ChaosInjection, OneShotChaos
from repro.obs import OBS
from repro.wasm.wat import assemble

HEADER = '(func (export "alloc") (param i32) (result i32) (i32.const 1024))'

#: trap code -> (module body, expected PluginError.kind, fuel limit)
TRAP_MODULES = {
    "oob": (
        f"""(module (memory 1) {HEADER}
          (func (export "run") (param i32 i32) (result i32)
            (i32.load (i32.const 0x7fffffff))))""",
        "trap",
        None,
    ),
    "div0": (
        f"""(module (memory 1) {HEADER}
          (func (export "run") (param i32 i32) (result i32)
            (i32.div_s (i32.const 1) (i32.const 0))))""",
        "trap",
        None,
    ),
    "overflow": (
        f"""(module (memory 1) {HEADER}
          (func (export "run") (param i32 i32) (result i32)
            (i32.div_s (i32.const -2147483648) (i32.const -1))))""",
        "trap",
        None,
    ),
    "trunc": (
        f"""(module (memory 1) {HEADER}
          (func (export "run") (param i32 i32) (result i32)
            (i32.trunc_f64_s (f64.const 4e10))))""",
        "trap",
        None,
    ),
    "unreachable": (
        f"""(module (memory 1) {HEADER}
          (func (export "run") (param i32 i32) (result i32)
            (unreachable)))""",
        "trap",
        None,
    ),
    "stack": (
        f"""(module (memory 1) {HEADER}
          (func $r (export "run") (param i32 i32) (result i32)
            (call $r (local.get 0) (local.get 1))))""",
        "trap",
        None,
    ),
    "fuel": (
        f"""(module (memory 1) {HEADER}
          (func (export "run") (param i32 i32) (result i32)
            (loop $top (br $top)) (i32.const 0)))""",
        "fuel",
        10_000,
    ),
}


@pytest.fixture
def telemetry():
    obs.enable()
    obs.reset()
    yield OBS
    obs.reset()
    obs.disable()


@pytest.mark.parametrize("trap_code", sorted(TRAP_MODULES))
def test_trap_kind_produces_structured_event(telemetry, trap_code):
    source, expected_kind, fuel = TRAP_MODULES[trap_code]
    host = PluginHost(assemble(source), name=f"bad-{trap_code}", sanitize=False)
    if fuel is not None:
        host.limits.fuel = fuel

    with pytest.raises(PluginError) as info:
        host.call(b"\x00" * 8)
    assert info.value.kind == expected_kind

    (event,) = telemetry.events.events(kind=f"plugin.{expected_kind}")
    assert event.source == f"bad-{trap_code}"
    assert event.fields["trap_code"] == trap_code
    assert event.fields["entry"] == "run"

    # the failed call is also in the flight recorder with the same outcome
    (rec,) = telemetry.flight.last(1)
    assert rec.outcome == expected_kind
    assert rec.output_bytes is None

    # ... and counted in the registry under its outcome label
    calls = telemetry.registry.counter("waran_plugin_calls_total")
    assert calls.value(plugin=f"bad-{trap_code}", outcome=expected_kind) == 1


def test_abi_violation_produces_event(telemetry):
    """Bad pointers are host-detected faults: kind 'abi', no trap code."""
    source = f"""(module (memory 1) {HEADER}
      (func (export "run") (param i32 i32) (result i32) (i32.const -1)))"""
    host = PluginHost(assemble(source), name="bad-abi", sanitize=False)
    with pytest.raises(PluginError) as info:
        host.call(b"\x00" * 8)
    assert info.value.kind == "abi"
    (event,) = telemetry.events.events(kind="plugin.abi")
    assert event.source == "bad-abi"
    assert "trap_code" not in event.fields


# ---------------------------------------------------------------------------
# the faulted call's report rides the error
# ---------------------------------------------------------------------------

ABI_MODULE = f"""(module (memory 1) {HEADER}
  (func (export "run") (param i32 i32) (result i32) (i32.const -1)))"""


def _injected(kind):
    return OneShotChaos(ChaosInjection(kind, "plugin:x", 0, a=137))


#: case -> (module source, host fuel limit, chaos, per-call rt budget,
#:          expected kind, Wasm ran)
FAULT_CASES = {
    "trap": (TRAP_MODULES["div0"][0], None, None, None, "trap", True),
    "fuel": (TRAP_MODULES["fuel"][0], 10_000, None, None, "fuel", True),
    "abi": (ABI_MODULE, None, None, None, "abi", True),
    "rt-deadline": (TRAP_MODULES["fuel"][0], None, None, 500, "deadline", True),
    "injected-fuel-cut": (
        TRAP_MODULES["fuel"][0], None, "fuel_cut", None, "fuel", True,
    ),
    "injected-trap": (ABI_MODULE, None, "trap", None, "trap", False),
    "injected-abi": (ABI_MODULE, None, "abi", None, "abi", False),
}


@pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_error_carries_the_call_result(telemetry, engine, case):
    source, limit, chaos, budget, kind, ran_wasm = FAULT_CASES[case]
    host = PluginHost(
        assemble(source), name=f"bad-{case}", sanitize=False, engine=engine,
        chaos=_injected(chaos) if chaos else None,
    )
    if limit is not None:
        host.limits.fuel = limit
    with pytest.raises(PluginError) as info:
        host.call(b"\x00" * 8, fuel=budget)
    result = info.value.result
    assert result.outcome == info.value.kind == kind
    assert result.output is None and result.elapsed_us > 0
    # the flight record is a copy of the same report
    (rec,) = telemetry.flight.last(1)
    assert (rec.outcome, rec.output_bytes, rec.fuel_used, rec.elapsed_us) == (
        result.outcome, result.output, result.fuel_used, result.elapsed_us
    )
    if ran_wasm:
        assert result.fuel_used is not None and result.fuel_used > 0
    else:
        assert result.fuel_used is None  # no Wasm ran: nothing to meter


def test_error_carries_the_call_result_with_telemetry_off():
    assert not OBS.enabled
    source, _kind, limit = TRAP_MODULES["fuel"]
    host = PluginHost(assemble(source), name="bad-fuel", sanitize=False)
    host.limits.fuel = limit
    with pytest.raises(PluginError) as info:
        host.call(b"\x00" * 8)
    result = info.value.result
    assert (result.outcome, result.trap_code) == ("fuel", "fuel")
    assert result.fuel_used == limit
    assert len(OBS.flight) == 0


# ---------------------------------------------------------------------------
# unbounded plugin recursion never reaches the host as RecursionError
# ---------------------------------------------------------------------------

RECURSE = f"""(module (memory 1) {HEADER}
  (func $f (param i32) (result i32) (call $f (local.get 0)))
  (func (export "run") (param i32 i32) (result i32) (call $f (local.get 0)))
  (func (export "ok") (param i32 i32) (result i32)
    (i32.store (i32.const 2048) (i32.const 0)) (i32.const 2048)))"""

RECURSE_IN_START = """(module (memory 1)
  (func $f (param i32) (result i32) (call $f (local.get 0)))
  (func $start (drop (call $f (i32.const 0))))
  (start $start))"""


def _from_deep_in_the_host(frames, fn):
    """Call ``fn`` with ``frames`` extra Python frames already on the stack
    (an embedder; pytest itself adds a few dozen more)."""
    return fn() if frames == 0 else _from_deep_in_the_host(frames - 1, fn)


def _recursion_outcome(engine, promote):
    host = PluginHost(
        assemble(RECURSE), name=f"recurse-{engine}", sanitize=False, engine=engine
    )
    if promote:
        host.promote()

    def call():
        with pytest.raises(PluginError) as info:
            host.call(b"\x00" * 8)
        return info.value

    error = _from_deep_in_the_host(150, call)
    assert error.kind == "trap"
    result = error.result
    assert (result.outcome, result.trap_code, result.output) == ("trap", "stack", None)
    assert result.elapsed_us > 0
    # the host is usable for the next call
    assert host.call(b"\x00" * 8, entry="ok").outcome == "ok"
    return result.fuel_used


def test_unbounded_recursion_from_a_deep_host_is_a_stack_trap():
    """The Store default is 300 Wasm frames and the interpreters spend three
    Python frames on each, so from a host 150 frames deep CPython's
    recursion limit is hit before the Wasm one: same ``stack`` trap, same
    fuel (the outermost frame's, at its call site) under every engine,
    cold tier and compiled."""
    from repro.wasm import codecache

    codecache.clear()  # engine "aot" starts on threaded code
    fuel_used = {
        (engine, promote): _recursion_outcome(engine, promote)
        for engine in ("legacy", "threaded", "aot")
        for promote in (False, True)
    }
    assert len(set(fuel_used.values())) == 1, fuel_used
    # `alloc` (const, end) + `run` up to its call site (local.get, call)
    assert fuel_used["aot", True] == 4


def test_unbounded_recursion_in_start_is_a_load_error():
    def load():
        with pytest.raises(PluginError) as info:
            PluginHost(assemble(RECURSE_IN_START), name="bad-start", sanitize=False)
        return info.value

    assert _from_deep_in_the_host(150, load).kind == "load"


DEEP_START = f"""(module (memory 1) {HEADER}
  (func $down (param i32)
    (if (local.get 0)
      (then (call $down (i32.sub (local.get 0) (i32.const 1))))))
  (func $start (call $down (i32.const 200)))
  (func (export "run") (param i32 i32) (result i32)
    (i32.store (i32.const 2048) (i32.const 0)) (i32.const 2048))
  (start $start))"""


def test_restore_from_a_deep_host_is_a_load_error_not_a_recursion_error():
    """``restore`` re-runs ``start``: 200 Wasm frames at three Python frames
    each fit under a shallow embedder and not under a deep one, which is a
    refused load (as ``PluginHost(...)`` / ``swap`` report it) that leaves
    the live instance serving."""
    host = PluginHost(
        assemble(DEEP_START), name="deep-start", sanitize=False, engine="threaded"
    )
    snapshot = host.checkpoint()
    for frames in (0, 300):
        _from_deep_in_the_host(frames, lambda: host.restore(snapshot))
    live = host.instance

    def restore():
        with pytest.raises(PluginError) as info:
            host.restore(snapshot)
        return info.value

    error = _from_deep_in_the_host(500, restore)
    assert error.kind == "load"
    assert host.instance is live
    assert host.call(b"\x00" * 8).outcome == "ok"
