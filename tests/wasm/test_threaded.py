"""Unit tests for the threaded-code engine (repro.wasm.threaded).

The differential suite in ``tests/test_engine_differential.py`` checks
whole plugins through the host; these tests pin the compiler itself:
fusion semantics, compile-time branch resolution, fuel identity at every
possible exhaustion point, the engine switch, and the code cache.
"""

import os

import pytest

from repro import obs
from repro.obs import OBS
from repro.wasm import Instance, decode_module, load_module
from repro.wasm.codecache import clear as cache_clear
from repro.wasm.instance import compiled_bodies
from repro.wasm.interpreter import ExecStats
from repro.wasm.threaded import (
    DEFAULT_ENGINE,
    ThreadedCode,
    dump_threaded,
    resolve_engine,
)
from repro.wasm.traps import Trap
from repro.wasm.wat import assemble


def both(source):
    raw = assemble(source)
    return (
        Instance(decode_module(raw), engine="legacy"),
        Instance(decode_module(raw), engine="threaded"),
    )


def call_outcome(inst, name, *args, fuel="unset"):
    """(kind, value-or-trap-code, fuel-left) for one call, any outcome."""
    try:
        value = inst.call(name, *args, fuel=fuel)
        return ("ok", value, inst.store.fuel)
    except Trap as exc:
        return ("trap", exc.code, inst.store.fuel)


def assert_identical(source, name, *args, fuel="unset"):
    legacy, threaded = both(source)
    expect = call_outcome(legacy, name, *args, fuel=fuel)
    got = call_outcome(threaded, name, *args, fuel=fuel)
    assert got == expect, f"{name}{args}: threaded {got} != legacy {expect}"
    return expect


# ---------------------------------------------------------------------------
# fusion patterns: every superinstruction shape, checked against legacy
# ---------------------------------------------------------------------------

FUSION_CASES = [
    # local.get local.get <binop> (+ local.set)
    (
        """(module (func (export "f") (param i32 i32) (result i32)
            (local i32)
            (local.set 2 (i32.add (local.get 0) (local.get 1)))
            (local.get 2)))""",
        [(7, 35), (-1, 1), (0x7FFFFFFF, 1)],
    ),
    # local.get <const> <binop> (+ local.set), const folding incl. masking
    (
        """(module (func (export "f") (param i32) (result i32)
            (i32.mul (local.get 0) (i32.const -3))))""",
        [(5,), (0,), (-7,)],
    ),
    # <const> <binop>
    (
        """(module (func (export "f") (param i32) (result i32)
            (local.get 0) (i32.const 13) (i32.xor)))""",
        [(0,), (255,)],
    ),
    # <cmp> br_if
    (
        """(module (func (export "f") (param i32) (result i32)
            (block (br_if 0 (i32.lt_s (local.get 0) (i32.const 10)))
              (return (i32.const 99)))
            (i32.const 1)))""",
        [(5,), (10,), (-1,)],
    ),
    # unop br_if (i32.eqz)
    (
        """(module (func (export "f") (param i32) (result i32)
            (block (br_if 0 (i32.eqz (local.get 0)))
              (return (i32.const 7)))
            (i32.const 42)))""",
        [(0,), (3,)],
    ),
    # local.set local.get -> tee
    (
        """(module (func (export "f") (param i32) (result i32)
            (local i32)
            (local.set 1 (local.get 0))
            (i32.add (local.get 1) (local.get 1))))""",
        [(21,)],
    ),
    # local.get <const> i32.add <load>: folded effective address
    (
        """(module (memory 1)
            (data (i32.const 100) "\\01\\02\\03\\04\\05\\06\\07\\08")
            (func (export "f") (param i32) (result i32)
              (i32.load offset=2 (i32.add (local.get 0) (i32.const 98)))))""",
        [(0,), (4,)],
    ),
    # local.get <load> (f64 flavour exercises the float emitters)
    (
        """(module (memory 1)
            (func (export "f") (param i32) (result f64)
              (f64.store (i32.const 8) (f64.const 2.5))
              (f64.load (local.get 0))))""",
        [(8,)],
    ),
    # <const> local.set
    (
        """(module (func (export "f") (result i32) (local i32)
            (local.set 0 (i32.const 77)) (local.get 0)))""",
        [()],
    ),
]


@pytest.mark.parametrize("source,argsets", FUSION_CASES)
def test_fused_patterns_match_legacy(source, argsets):
    for args in argsets:
        assert_identical(source, "f", *args)
        assert_identical(source, "f", *args, fuel=1_000_000)


def test_fusion_actually_happens():
    raw = assemble(
        """(module (func (export "f") (param i32 i32) (result i32)
            (i32.add (local.get 0) (local.get 1))))"""
    )
    module = decode_module(raw)
    (tcode,) = compiled_bodies(module, "threaded")
    assert isinstance(tcode, ThreadedCode)
    assert tcode.n_fused >= 1
    assert max(tcode.costs) >= 3  # local.get local.get i32.add in one slot


def test_fusion_skips_jump_targets():
    # the loop header's first instruction is a branch target: a fused
    # group must never swallow it into an interior position
    source = """(module (func (export "f") (param i32) (result i32)
        (local $i i32) (local $acc i32)
        (block $exit (loop $top
          (br_if $exit (i32.ge_s (local.get $i) (local.get 0)))
          (local.set $acc (i32.add (local.get $acc) (local.get $i)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $top)))
        (local.get $acc)))"""
    assert assert_identical(source, "f", 100) == ("ok", 4950, None)
    assert_identical(source, "f", 100, fuel=100_000)


# ---------------------------------------------------------------------------
# fuel identity at every exhaustion point
# ---------------------------------------------------------------------------

FUEL_SWEEP_MODULES = [
    """(module (func (export "f") (param i32) (result i32)
        (local $i i32) (local $acc i32)
        (block $exit (loop $top
          (br_if $exit (i32.ge_s (local.get $i) (local.get 0)))
          (local.set $acc (i32.add (local.get $acc) (local.get $i)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $top)))
        (local.get $acc)))""",
    """(module (func (export "f") (param i32) (result i32)
        (if (result i32) (i32.lt_s (local.get 0) (i32.const 3))
          (then (i32.mul (local.get 0) (i32.const 10)))
          (else (i32.sub (local.get 0) (i32.const 3))))))""",
    """(module (func $g (param i32) (result i32)
          (i32.add (local.get 0) (i32.const 1)))
        (func (export "f") (param i32) (result i32)
          (call $g (call $g (local.get 0)))))""",
]


@pytest.mark.parametrize("source", FUEL_SWEEP_MODULES)
@pytest.mark.parametrize("arg", [0, 2, 5])
def test_fuel_identity_at_every_budget(source, arg):
    """For every fuel budget from 0 up: identical outcome and fuel left.

    This is the strongest fuel-accounting check there is: a fused slot
    that charged at the wrong boundary would diverge at some budget.
    """
    legacy, threaded = both(source)
    full = call_outcome(legacy, "f", arg, fuel=10_000)
    assert full[0] == "ok"
    needed = 10_000 - full[2]
    for budget in range(0, needed + 2):
        expect = call_outcome(legacy, "f", arg, fuel=budget)
        got = call_outcome(threaded, "f", arg, fuel=budget)
        assert got == expect, f"budget={budget}: {got} != {expect}"


# ---------------------------------------------------------------------------
# traps and control flow
# ---------------------------------------------------------------------------

TRAP_SOURCES = [
    ('(module (func (export "f") (result i32) '
     "(i32.div_s (i32.const 1) (i32.const 0))))", "div0"),
    ('(module (func (export "f") (result i32) '
     "(i32.div_s (i32.const -2147483648) (i32.const -1))))", "overflow"),
    ('(module (func (export "f") (result i32) '
     "(i32.trunc_f64_s (f64.const 1e300))))", "trunc"),
    ('(module (memory 1) (func (export "f") (result i32) '
     "(i32.load (i32.const 0x7fffffff))))", "oob"),
    ('(module (func (export "f") (unreachable)))', "unreachable"),
]


@pytest.mark.parametrize("source,code", TRAP_SOURCES)
def test_trap_codes_match(source, code):
    for fuel in ("unset", 1_000):
        outcome = assert_identical(source, "f", fuel=fuel)
        assert outcome[0] == "trap" and outcome[1] == code


def test_br_table_and_block_results():
    source = """(module (func (export "f") (param i32) (result i32)
        (block $a
          (block $b
            (block $c
              (br_table $c $b $a (local.get 0)))
            (return (i32.const 100)))
          (return (i32.const 200)))
        (i32.const 300)))"""
    for arg in (0, 1, 2, 7):
        assert_identical(source, "f", arg)
        assert_identical(source, "f", arg, fuel=1_000)


def test_dead_code_after_br_compiles_and_runs():
    source = """(module (func (export "f") (result i32)
        (block (result i32)
          (br 0 (i32.const 5))
          (block (i32.const 9) (drop))
          (i32.const 6))))"""
    assert assert_identical(source, "f") == ("ok", 5, None)


def test_loop_with_result_and_nested_if():
    source = """(module (func (export "f") (param i32) (result i32)
        (local $n i32)
        (local.set $n (local.get 0))
        (block $exit (result i32)
          (loop $top (result i32)
            (if (i32.eqz (local.get $n)) (then (br $exit (i32.const -7))))
            (local.set $n (i32.sub (local.get $n) (i32.const 1)))
            (br $top)))))"""
    for arg in (0, 1, 4):
        assert_identical(source, "f", arg)
        assert_identical(source, "f", arg, fuel=1_000)


def test_i64_load_roundtrips_full_width():
    # regression: the lowering table used to mask 8-byte loads to 32 bits
    source = """(module (memory 1)
        (func (export "put") (param i64) (i64.store (i32.const 0) (local.get 0)))
        (func (export "get") (result i64) (i64.load (i32.const 0))))"""
    for engine in ("legacy", "threaded", "aot"):
        inst = Instance(decode_module(assemble(source)), engine=engine)
        inst.call("put", 0x1122334455667788)
        assert inst.call("get") == 0x1122334455667788, engine
        inst.call("put", -1)
        assert inst.call("get") == -1, engine


def test_exec_stats_identical_across_engines():
    source = FUEL_SWEEP_MODULES[2]
    results = {}
    for engine in ("legacy", "threaded", "aot"):
        inst = Instance(decode_module(assemble(source)), engine=engine)
        inst.store.stats = ExecStats()
        inst.call("f", 4)
        stats = inst.store.stats
        results[engine] = (stats.frames, stats.max_call_depth, stats.max_value_stack)
    assert results["legacy"] == results["threaded"] == results["aot"]


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------


def test_resolve_engine_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WASM_ENGINE", raising=False)
    assert DEFAULT_ENGINE == "aot"
    assert resolve_engine() == DEFAULT_ENGINE
    monkeypatch.setenv("REPRO_WASM_ENGINE", "legacy")
    assert resolve_engine() == "legacy"
    assert resolve_engine("threaded") == "threaded"  # explicit arg wins
    with pytest.raises(ValueError):
        resolve_engine("jit")


def test_instance_uses_selected_engine():
    raw = assemble('(module (func (export "f") (result i32) (i32.const 3)))')
    inst = Instance(decode_module(raw), engine="threaded")
    assert inst.engine == "threaded"
    addr = inst.func_addrs[0]
    assert isinstance(inst.store.funcs[addr].prepared, ThreadedCode)
    inst = Instance(decode_module(raw), engine="legacy")
    assert not isinstance(inst.store.funcs[inst.func_addrs[0]].prepared, ThreadedCode)


# ---------------------------------------------------------------------------
# lowered bodies are shared by sharing the module
# ---------------------------------------------------------------------------


def test_codecache_shares_across_loads_not_decodes():
    raw = assemble('(module (func (export "f") (result i32) (i32.const 3)))')
    cache_clear()
    obs.enable()
    try:
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
        m0 = misses.value(engine="threaded")
        m1, m2 = load_module(raw), load_module(raw)
        assert m1 is m2
        b1 = compiled_bodies(m1, "threaded")
        assert compiled_bodies(m2, "threaded") is b1  # the very same bodies
        assert misses.value(engine="threaded") == m0 + 1
        # two bare decodes of the same bytes are two modules: each lowers
        d1, d2 = decode_module(raw), decode_module(raw)
        assert d1.content_hash == d2.content_hash == m1.content_hash
        t1, t2 = compiled_bodies(d1, "threaded"), compiled_bodies(d2, "threaded")
        assert t1[0] is not t2[0] and t1[0] is not b1[0]
        assert misses.value(engine="threaded") == m0 + 3
        # engines are lowered independently
        assert compiled_bodies(m1, "legacy")[0] is not b1[0]
    finally:
        obs.disable()
        cache_clear()


def test_codecache_counters_via_obs():
    """A hit is an instantiate / retier that lowered nothing, a miss one
    that lowered."""
    raw = assemble('(module (func (export "f") (result i32) (i32.const 4)))')
    cache_clear()
    obs.enable()
    try:
        obs.reset()
        hits = OBS.registry.counter("waran_wasm_codecache_hits_total")
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")

        def counted(engine):
            return hits.value(engine=engine), misses.value(engine=engine)

        first = Instance(load_module(raw), engine="threaded")
        assert counted("threaded") == (0, 1)
        second = Instance(load_module(raw), engine="threaded")
        assert counted("threaded") == (1, 1)
        first.retier("aot")
        assert counted("aot") == (0, 1)
        second.retier("aot")
        assert counted("aot") == (1, 1)
        # a bare decode is another module: nothing of it is lowered yet
        Instance(decode_module(raw), engine="threaded")
        assert counted("threaded") == (1, 2)
    finally:
        obs.disable()
        cache_clear()


def test_handbuilt_module_without_hash_still_runs():
    raw = assemble('(module (func (export "f") (result i32) (i32.const 9)))')
    module = decode_module(raw)
    module.content_hash = None  # as if built by hand
    inst = Instance(module, engine="threaded")
    assert inst.call("f") == 9
    # bodies hang off the Module object, hash or no hash
    assert compiled_bodies(module, "threaded") is compiled_bodies(module, "threaded")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_dump_threaded_lists_fusions():
    raw = assemble(
        """(module (func (export "f") (param i32 i32) (result i32)
            (i32.add (local.get 0) (local.get 1))))"""
    )
    text = dump_threaded(raw)
    assert 'func 0 (export "f")' in text
    assert "superinstruction" in text
    assert "{local.get 0; local.get 1; i32.add}" in text
