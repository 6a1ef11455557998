"""Microbenchmarks of the Wasm substrate itself.

Not tied to a paper figure; these pin the interpreter's basic costs so
regressions in the runtime show up independently of the scheduler stack.
Results are reported through the :mod:`repro.obs` registry (the session
conftest folds every bench's stats into ``waran_bench_*`` gauges and
writes ``BENCH_obs.json``); the telemetry on/off pair below bounds the
observability tax on the full host call path.
"""

import pytest

from repro import obs
from repro.abi import SchedulerPlugin
from repro.experiments.fig5d import make_ues
from repro.obs import OBS
from repro.plugins import plugin_wasm
from repro.wasm import Instance, decode_module
from repro.wasm.wat import assemble

LOOP_SUM = """
(module (func (export "sum") (param $n i32) (result i32)
  (local $i i32) (local $acc i32)
  (block $exit (loop $top
    (br_if $exit (i32.ge_s (local.get $i) (local.get $n)))
    (local.set $acc (i32.add (local.get $acc) (local.get $i)))
    (local.set $i (i32.add (local.get $i) (i32.const 1)))
    (br $top)))
  (local.get $acc)))
"""

FIB = """
(module (func $fib (export "fib") (param i32) (result i32)
  (if (result i32) (i32.lt_s (local.get 0) (i32.const 2))
    (then (local.get 0))
    (else (i32.add (call $fib (i32.sub (local.get 0) (i32.const 1)))
                   (call $fib (i32.sub (local.get 0) (i32.const 2))))))))
"""

MEMCPY = """
(module (memory 2)
  (func (export "copy") (param $n i32)
    (local $i i32)
    (block $exit (loop $top
      (br_if $exit (i32.ge_u (local.get $i) (local.get $n)))
      (i32.store8 offset=65536 (local.get $i)
        (i32.load8_u (local.get $i)))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $top)))))
"""


ENGINES = ["legacy", "threaded", "aot"]


@pytest.mark.benchmark(group="micro-wasm")
@pytest.mark.parametrize("engine", ENGINES)
def test_interpreter_arith_loop(benchmark, engine):
    inst = Instance(decode_module(assemble(LOOP_SUM)), engine=engine)
    assert benchmark(inst.call, "sum", 1000) == 499500


@pytest.mark.benchmark(group="micro-wasm")
@pytest.mark.parametrize("engine", ENGINES)
def test_interpreter_call_heavy(benchmark, engine):
    inst = Instance(decode_module(assemble(FIB)), engine=engine)
    assert benchmark(inst.call, "fib", 12) == 144


@pytest.mark.benchmark(group="micro-wasm")
@pytest.mark.parametrize("engine", ENGINES)
def test_interpreter_memory_loop(benchmark, engine):
    inst = Instance(decode_module(assemble(MEMCPY)), engine=engine)
    benchmark(inst.call, "copy", 512)


@pytest.mark.benchmark(group="micro-wasm")
@pytest.mark.parametrize("engine", ENGINES)
def test_interpreter_fuel_overhead(benchmark, engine):
    """Same loop with metering on: the per-instruction fuel tax."""
    inst = Instance(decode_module(assemble(LOOP_SUM)), engine=engine)
    assert benchmark(inst.call, "sum", 1000, fuel=10_000_000) == 499500


@pytest.mark.benchmark(group="micro-wasm")
def test_plugin_call_telemetry_off(benchmark):
    """Full host call path with observability disabled - the baseline.

    Acceptance bound: this must stay within ~5% of the seed's host-call
    time; the disabled path costs one ``OBS.enabled`` check plus no-op
    null-span calls per *call*, never per instruction.
    """
    obs.disable()
    try:
        plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf-obs-off")
        plugin.host.limits.fuel = 10_000_000
        ues = make_ues(5)
        result = benchmark(plugin.schedule, 52, ues, 1)
        assert result.grants
        # nothing leaked into the registry while disabled
        calls = OBS.registry.histogram("waran_plugin_call_us")
        assert calls.count(plugin="pf-obs-off") == 0
    finally:
        obs.enable()


@pytest.mark.benchmark(group="micro-wasm")
def test_plugin_call_telemetry_on(benchmark):
    """Same call with spans, registry, flight recorder and exec stats on."""
    plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf-obs-on")
    plugin.host.limits.fuel = 10_000_000
    ues = make_ues(5)
    result = benchmark(plugin.schedule, 52, ues, 1)
    assert result.grants
    fuel = OBS.registry.histogram("waran_plugin_fuel_used").snapshot(plugin="pf-obs-on")
    assert fuel["count"] > 0
    # fuel burns 1 per retired instruction: the series is both counts
    assert fuel["mean"] == result.fuel_used


@pytest.mark.benchmark(group="micro-wasm")
def test_decode_validate_instantiate(benchmark):
    """The load path a hot swap pays."""
    raw = plugin_wasm("pf")

    def load():
        return Instance(decode_module(raw), imports=_env())

    def _env():
        from repro.abi.hostfuncs import make_env

        return {"env": make_env()}

    inst = benchmark(load)
    assert "run" in inst.export_names()


@pytest.mark.benchmark(group="micro-wasm")
def test_wacc_compile(benchmark):
    from repro.plugins import plugin_source
    from repro.wacc import compile_source

    source = plugin_source("pf")
    raw = benchmark(compile_source, source)
    assert raw[:4] == b"\x00asm"
