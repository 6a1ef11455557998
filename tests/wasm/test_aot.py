"""Unit tests for the AOT engine tier (repro.wasm.aot).

The three-way differential suite in ``tests/test_engine_differential.py``
and the fuzz oracle cover whole plugins and generated modules; these
tests pin the compiler itself: structured lowering, the per-function
legacy fallback for bodies too deep to structure, fuel identity at every possible exhaustion point, trap codes, the engine
switch, checkpoint/restore on AOT instances, the dump listing, and the
bounded LRU code cache.
"""

import os
from pathlib import Path

import pytest

from repro import obs
from repro.obs import OBS
from repro.wasm import (
    HostFunc,
    Instance,
    Store,
    codecache,
    decode_module,
    load_module,
    opcodes,
    validate_module,
)
from repro.fuzz.corpus import load_case
from repro.fuzz.oracle import differential
from repro.wasm.aot import (
    _MAX_STRUCTURED_DEPTH,
    AotCode,
    _max_nesting,
    aot_for,
    compile_aot,
    dump_aot,
)
from repro.wasm.codecache import clear as cache_clear
from repro.wasm.codecache import stats as cache_stats
from repro.wasm.instance import compiled_bodies
from repro.wasm.interpreter import ExecStats, PreparedCode
from repro.wasm.threaded import ENGINES, resolve_engine
from repro.wasm.traps import MemoryOutOfBounds, Trap
from repro.wasm.wtypes import FuncType, ValType
from repro.wasm.wat import assemble


def three(source, imports=None, max_call_depth=300):
    raw = assemble(source)
    return tuple(
        Instance(
            decode_module(raw), imports=imports, engine=e,
            store=Store(max_call_depth=max_call_depth),
        )
        for e in ("legacy", "threaded", "aot")
    )


def call_outcome(inst, name, *args, fuel="unset"):
    """(kind, value-or-trap-code, fuel-left, stats) for one call."""
    stats = ExecStats()
    inst.store.stats = stats
    try:
        value = inst.call(name, *args, fuel=fuel)
        out = ("ok", value, inst.store.fuel)
    except Trap as exc:
        out = ("trap", exc.code, inst.store.fuel)
    finally:
        inst.store.stats = None
    return out + (stats.frames, stats.max_call_depth, stats.max_value_stack)


def assert_identical(source, name, *args, fuel="unset", **three_kwargs):
    legacy, threaded, aot = three(source, **three_kwargs)
    expect = call_outcome(legacy, name, *args, fuel=fuel)
    for inst, engine in ((threaded, "threaded"), (aot, "aot")):
        got = call_outcome(inst, name, *args, fuel=fuel)
        assert got == expect, f"{name}{args}: {engine} {got} != legacy {expect}"
    return expect


LOOP_SUM = """(module (func (export "sum") (param $n i32) (result i32)
  (local $i i32) (local $acc i32)
  (block $exit (loop $top
    (br_if $exit (i32.ge_s (local.get $i) (local.get $n)))
    (local.set $acc (i32.add (local.get $acc) (local.get $i)))
    (local.set $i (i32.add (local.get $i) (i32.const 1)))
    (br $top)))
  (local.get $acc)))"""

FIB = """(module (func $fib (export "fib") (param i32) (result i32)
  (if (result i32) (i32.lt_s (local.get 0) (i32.const 2))
    (then (local.get 0))
    (else (i32.add (call $fib (i32.sub (local.get 0) (i32.const 1)))
                   (call $fib (i32.sub (local.get 0) (i32.const 2))))))))"""

COUNTER = """(module
  (memory 1)
  (global $calls (mut i32) (i32.const 0))
  (func (export "bump") (param i32) (result i32)
    (global.set $calls (i32.add (global.get $calls) (i32.const 1)))
    (i32.store (i32.const 0)
      (i32.add (i32.load (i32.const 0)) (local.get 0)))
    (i32.load (i32.const 0))))"""


# ---------------------------------------------------------------------------
# value / trap / fuel parity on representative shapes
# ---------------------------------------------------------------------------


def test_arith_loop_matches():
    assert_identical(LOOP_SUM, "sum", 1000)
    assert_identical(LOOP_SUM, "sum", 0)
    assert_identical(LOOP_SUM, "sum", -5)


def test_recursion_matches():
    out = assert_identical(FIB, "fib", 12)
    assert out[:2] == ("ok", 144)


def test_trap_codes_match():
    src = """(module
      (memory 1)
      (func (export "div") (param i32 i32) (result i32)
        (i32.div_s (local.get 0) (local.get 1)))
      (func (export "load") (param i32) (result i32)
        (i32.load (local.get 0)))
      (func (export "boom") (unreachable))
      (func (export "trunc") (param f64) (result i32)
        (i32.trunc_f64_s (local.get 0))))"""
    assert assert_identical(src, "div", 7, 0)[:2] == ("trap", "div0")
    assert assert_identical(src, "div", -(2**31), -1)[:2] == ("trap", "overflow")
    assert assert_identical(src, "load", 70000)[:2] == ("trap", "oob")
    assert assert_identical(src, "boom")[:2] == ("trap", "unreachable")
    assert assert_identical(src, "trunc", 1e300)[:2] == ("trap", "trunc")
    assert assert_identical(src, "trunc", float("nan"))[:2] == ("trap", "trunc")


def test_call_indirect_trap_codes_match():
    src = """(module
      (table 4 funcref)
      (func $a (param i32) (result i32) (i32.add (local.get 0) (i32.const 1)))
      (func $b (param i64) (result i64) (local.get 0))
      (elem (i32.const 0) $a $b)
      (func (export "run") (param i32 i32) (result i32)
        (call_indirect (type 0) (local.get 0) (local.get 1))))"""
    assert assert_identical(src, "run", 5, 0)[:2] == ("ok", 6)
    assert assert_identical(src, "run", 5, 1)[:2] == ("trap", "sig")
    assert assert_identical(src, "run", 5, 2)[:2] == ("trap", "table_null")
    assert assert_identical(src, "run", 5, 9)[:2] == ("trap", "table_oob")


def test_fuel_identity_at_every_budget():
    """Exhaustive sweep: all three engines cut off at the same instruction."""
    # find the full cost first, then try every budget below it
    full = assert_identical(LOOP_SUM, "sum", 10, fuel=10_000)
    assert full[0] == "ok"
    cost = 10_000 - full[2]
    for budget in range(cost + 2):
        assert_identical(LOOP_SUM, "sum", 10, fuel=budget)


def test_fuel_identity_across_calls():
    """Nested-call exhaustion: the caller's stale fuel sync must match."""
    for budget in range(0, 400, 7):
        assert_identical(FIB, "fib", 8, fuel=budget)


def test_float_bit_patterns_match():
    src = """(module
      (func (export "canon") (param f32) (result f32)
        (f32.add (local.get 0) (f32.const 0.1)))
      (func (export "div") (param f64 f64) (result f64)
        (f64.div (local.get 0) (local.get 1))))"""
    import struct

    legacy, threaded, aot = three(src)
    for name, args in (
        ("canon", (3.7,)),
        ("div", (0.0, 0.0)),   # nan
        ("div", (1.0, 0.0)),   # inf
        ("div", (-1.0, 0.0)),  # -inf
        ("div", (1.0, -0.0)),
    ):
        vals = [inst.call(name, *args) for inst in (legacy, threaded, aot)]
        bits = {struct.pack("<d", v) for v in vals}
        assert len(bits) == 1, f"{name}{args}: {vals}"


# ---------------------------------------------------------------------------
# one emitter; a function too deep to structure keeps its legacy body
# ---------------------------------------------------------------------------


def test_structured_mode_is_default_for_reducible_code():
    module = load_module(assemble(LOOP_SUM))
    acode = compile_aot(module, module.codes[0], module.func_type(0))
    assert "while True:" in acode.source
    assert "_pc" not in acode.source


#: 18 nested branch-targeted blocks ($deep) between shallow siblings that
#: call it ($run) and are called by it ($leaf); also a tests/wasm/corpus
#: case, so the every-engine replay covers the mixed table too
CORPUS = Path(__file__).parent / "corpus"
DEEP_CASE = load_case(CORPUS / "deep-nesting-mixed-tiers.json")


def test_deep_function_keeps_legacy_body_between_compiled_siblings():
    module = decode_module(DEEP_CASE.wasm)
    assert [_max_nesting(code.body) for code in module.codes] == [1, 19, 0, 0]
    assert _max_nesting(module.codes[1].body) > _MAX_STRUCTURED_DEPTH
    inst = Instance(module, engine="aot")
    classes = [func.prepared.__class__ for func in inst.funcs]
    assert classes == [AotCode, PreparedCode, AotCode, AotCode]
    # the same lowering whichever way the body is reached
    assert aot_for(module, module.codes[1], module.func_type(1)) is (
        inst.funcs[1].prepared
    )


def sweep_budgets(case):
    """Replay a corpus case under all three engines at every fuel budget
    from 0 to the clean cost of each call: outcome, trap code, fuel left
    at the trap and ExecStats must equal legacy's; then every oracle leg."""
    engines = ("legacy", "threaded", "aot")
    instances = [Instance(decode_module(case.wasm), engine=e) for e in engines]

    def run_all(name, args, fuel, snaps=None):
        """(kind, value | trap code, fuel left, ExecStats) once per engine."""
        got = []
        for k, inst in enumerate(instances):
            if snaps is not None:
                if len(inst.memory.data) != len(snaps[k].memory):
                    # restore_state never shrinks: a call that grew memory
                    # is rewound onto a fresh instance
                    inst = instances[k] = Instance(
                        decode_module(case.wasm), engine=engines[k]
                    )
                inst.restore_state(snaps[k])
            got.append(call_outcome(inst, name, *args, fuel=fuel))
        assert got[1] == got[0] and got[2] == got[0], (name, args, fuel, got)
        return got[0]

    for name, args in case.calls:
        snaps = [inst.capture_state() for inst in instances]
        full = run_all(name, args, case.fuel)
        # every budget from 0 until the call gets as far as it does with
        # a full one (strided past 500: two calls recurse ~150 frames deep)
        budget = 0
        while run_all(name, args, budget, snaps)[:2] != full[:2]:
            budget += 1 if budget < 500 else 197
        assert 0 < budget <= case.fuel
        run_all(name, args, case.fuel, snaps)
    # every oracle leg (checkpoint/restore, cross-engine, tier-up) as well
    result = differential(case.wasm, case.calls, case.fuel)
    assert result.ok, result


def test_mixed_tier_table_matches_legacy_at_every_budget():
    sweep_budgets(DEEP_CASE)


@pytest.mark.parametrize(
    "name",
    [
        "memory-grow-in-callee", "call-boundary-direct-indirect",
        "inline-leaf-boundaries", "fold-pending-slots", "inline-numeric-edges",
    ],
)
def test_boundary_corpus_matches_legacy_at_every_budget(name):
    """A callee's ``memory.grow`` under its caller's bounds checks; direct
    (void and valued) and ``call_indirect`` calls out of one caller with
    div0 / oob / unreachable three direct frames down; inlined leaves that
    trap, write their own parameter or a global a pending value reads;
    slot reuse under folded expressions; inlined div / rem / f64 edges."""
    sweep_budgets(load_case(CORPUS / f"{name}.json"))


def test_plugin_host_promotes_a_mixed_tier_binary():
    from repro.abi.host import PluginHost

    cache_clear()  # cold: the host starts on threaded code
    host = PluginHost(DEEP_CASE.wasm, name="deep", sanitize=False, engine="aot")
    assert host.tier == "threaded"
    host.promote()
    assert host.tier == "aot"
    deep, run = (host.instance.funcs[i].prepared for i in (1, 2))
    assert deep.__class__ is PreparedCode
    assert run.__class__ is AotCode and run.run is not None
    assert host.instance.call("run", 3, fuel=DEEP_CASE.fuel) == 377


def test_every_shipped_plugin_function_is_compiled():
    from repro.plugins import available_plugins, plugin_wasm

    names = available_plugins()
    assert {"rr", "pf", "mt", "xapp_sla", "fault_spin"} <= set(names)
    for name in names:
        module = load_module(plugin_wasm(name))
        bodies = compiled_bodies(module, "aot")
        assert bodies and all(b.__class__ is AotCode for b in bodies), name


def test_disasm_aot_names_the_function_that_stayed_legacy(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "deep.wasm"
    path.write_bytes(DEEP_CASE.wasm)
    assert main(["disasm", "--aot", str(path)]) == 0
    out = capsys.readouterr().out
    assert 'func 1 (export "deep"): 136 wasm instrs, keeps its legacy body' in out
    assert "(block nesting 19 > 16)" in out
    assert 'func 2 (export "run")' in out and ", compiled" in out


def test_identical_exec_stats_vs_both_engines():
    out = assert_identical(FIB, "fib", 10, fuel=100_000)
    # frames, max depth, max value stack all compared inside; sanity:
    assert out[3] > 100  # frames: fib(10) makes 177 calls


# ---------------------------------------------------------------------------
# the boundaries of compiled code: direct calls, invoke_index, inlined memory
# ---------------------------------------------------------------------------


def test_oob_trap_fields_match_legacy_and_grow_in_callee_moves_the_limit():
    case = load_case(CORPUS / "memory-grow-in-callee.json")
    traps = []
    for engine in ("legacy", "aot"):
        inst = Instance(decode_module(case.wasm), engine=engine)
        with pytest.raises(MemoryOutOfBounds) as info:
            inst.call("f0", 65533)  # straddles the limit
        exc = info.value
        traps.append((str(exc), exc.code, exc.addr, exc.size, exc.limit))
        assert inst.call("f1") == 0x11223344 + 0xAB  # callee grew one page
        assert inst.call("f0", 131068) == 7  # the new page's last i32
        with pytest.raises(MemoryOutOfBounds) as info:
            inst.call("f0", 131069)
        traps.append((str(info.value), info.value.limit))
    assert traps[:2] == traps[2:]
    assert traps[0][2:] == (65533, 4, 65536) and traps[1][1] == 131072


GROW_IN_HOST = """(module
  (import "env" "grow" (func $grow (param i32) (result i32)))
  (memory 1 2)
  (func (export "run") (param i32) (result i32)
    (i32.store8 (i32.const 65535) (i32.const 1))
    (drop (call $grow (i32.const 1)))
    (i32.store (local.get 0) (i32.const 77))
    (i32.add (i32.load (local.get 0)) (i32.load8_u offset=1 (i32.const 131070)))))"""


def test_grow_inside_a_host_function_moves_the_limit():
    """The bounds checks' limit is read again after every call, so memory
    grown by an import between two accesses of one compiled frame is
    addressable at once."""
    grow = HostFunc(
        FuncType((ValType.I32,), (ValType.I32,)),
        lambda caller, pages: caller.memory.grow(pages),
    )
    imports = {"env": {"grow": grow}}
    # before the grow 65536 is one past the end; after it, in bounds
    expect = assert_identical(GROW_IN_HOST, "run", 65536, imports=imports)
    assert expect[:2] == ("ok", 77)
    assert assert_identical(
        GROW_IN_HOST, "run", 131069, imports=imports
    )[:2] == ("trap", "oob")


IMPORT_BOUNDARY = """(module
  (import "env" "twice" (func $twice (param i32) (result i32)))
  (func $inner (param i32) (result i32)
    (i32.add (call $twice (local.get 0)) (i32.const 1)))
  (func (export "run") (param i32) (result i32)
    (i32.add (call $inner (local.get 0)) (call $twice (i32.const 4)))))"""


def test_import_reached_from_a_direct_callee_at_every_budget():
    """An import is a direct host call (fuel synced through the store
    around it), also one direct frame down; a trap raised by the host
    function leaves the same ``store.fuel`` as under legacy."""
    seen = []

    def twice(caller, x):
        seen.append(caller.store.fuel)  # the host reads a current counter
        if x == 13:
            raise Trap("host says no", code="host")
        return 2 * x

    imports = {"env": {"twice": HostFunc(
        FuncType((ValType.I32,), (ValType.I32,)), twice
    )}}
    for arg, outcome in ((5, ("ok", 19)), (13, ("trap", "host"))):
        full = assert_identical(
            IMPORT_BOUNDARY, "run", arg, fuel=1000, imports=imports
        )
        assert full[:2] == outcome
        for budget in range(1000 - full[2] + 2):
            seen.clear()
            assert_identical(
                IMPORT_BOUNDARY, "run", arg, fuel=budget, imports=imports
            )
            per_engine = len(seen) // 3
            assert seen == seen[:per_engine] * 3  # same fuel seen by the host
    source = dump_aot(assemble(IMPORT_BOUNDARY))
    assert ";; inlined: -; direct: f1; host: import 0; via invoke_index: -" in source


def _access_module():
    """One exported function per load/store opcode x {no offset, offset}."""
    funcs, loads, stores = [], [], []
    for ty, suffixes in (
        ("i32", ("", "8_s", "8_u", "16_s", "16_u")),
        ("i64", ("", "8_s", "8_u", "16_s", "16_u", "32_s", "32_u")),
        ("f32", ("",)), ("f64", ("",)),
    ):
        for suffix in suffixes:
            bits = suffix.split("_")[0] or ty[1:]
            signed = suffix.endswith("_s")
            for offset in (0, 24):
                name = f"ld_{ty}{suffix}_{offset}"
                funcs.append(
                    f'(func (export "{name}") (param i32) (result {ty}) '
                    f"({ty}.load{suffix} offset={offset} (local.get 0)))"
                )
                loads.append((name, int(bits) // 8, signed, ty, offset))
        for width in {"i32": ("", "8", "16"), "i64": ("", "8", "16", "32")}.get(
            ty, ("",)
        ):
            for offset in (0, 24):
                name = f"st_{ty}{width}_{offset}"
                funcs.append(
                    f'(func (export "{name}") (param i32 {ty}) '
                    f"({ty}.store{width} offset={offset} "
                    "(local.get 0) (local.get 1)))"
                )
                stores.append((name, int(width or ty[1:]) // 8, ty, offset))
    return "(module (memory 1) " + " ".join(funcs) + ")", loads, stores


def test_every_access_width_at_the_last_valid_byte_and_one_past():
    source, loads, stores = _access_module()
    legacy, _threaded, aot = three(source)
    limit = 65536
    pattern = bytes((37 * i + 0x81) & 0xFF for i in range(64))
    for inst in (legacy, aot):
        inst.memory.write(limit - 64, pattern)
    for name, size, signed, ty, offset in loads:
        last = limit - size - offset
        got = [inst.call(name, last) for inst in (legacy, aot)]
        if ty[0] == "i":
            # Instance.call reports integers signed; compare as the bits
            width = 1 << int(ty[1:])
            reference = legacy.memory.load_int(last + offset, size, signed)
            assert got[1] % width == reference % width, name
        assert repr(got[0]) == repr(got[1]), name
        for inst in (legacy, aot):
            with pytest.raises(MemoryOutOfBounds) as info:
                inst.call(name, last + 1)
            exc = info.value
            assert (exc.addr, exc.size, exc.limit) == (
                last + 1 + offset, size, limit,
            ), name
    for name, size, ty, offset in stores:
        last = limit - size - offset
        value = -0x0123456789ABCDEF if ty[0] == "i" else -1.5
        if ty == "i32":
            value = -0x1234567
        for inst in (legacy, aot):
            inst.memory.write(limit - 64, pattern)
            inst.call(name, last, value)
        assert aot.memory.data == legacy.memory.data, name
        assert bytes(aot.memory.data[limit - size:]) != pattern[-size:], name
        for inst in (legacy, aot):
            inst.memory.write(limit - 64, pattern)
            with pytest.raises(MemoryOutOfBounds) as info:
                inst.call(name, last + 1, value)
            assert info.value.addr == last + 1 + offset, name
        assert aot.memory.data == legacy.memory.data, name  # nothing written


COUNTDOWN = """(module (func $down (export "down") (param i32) (result i32)
  (if (result i32) (i32.eqz (local.get 0))
    (then (i32.const 0))
    (else (i32.add (i32.const 1)
                   (call $down (i32.sub (local.get 0) (i32.const 1))))))))"""


def test_recursion_to_exactly_the_depth_limit_then_one_deeper():
    """The entry frame is depth 0, so ``down(n)`` peaks at depth ``n``."""
    at = assert_identical(COUNTDOWN, "down", 40, fuel=10_000, max_call_depth=40)
    assert at[:2] == ("ok", 40) and at[4] == 40
    over = assert_identical(COUNTDOWN, "down", 41, fuel=10_000, max_call_depth=40)
    assert over[:2] == ("trap", "stack") and over[4] == 40
    # the outermost frame wins: fuel as of the entry frame's call site
    assert over[2] == 10_000 - 8


DOWN_TO_LEAF = """(module
  (memory 1)
  (func $leaf (param i32) (result i32)
    (i32.load8_u (local.get 0)))
  (func $down (export "down") (param i32) (result i32)
    (if (result i32) (i32.eqz (local.get 0))
      (then (call $leaf (i32.const 3)))
      (else (i32.add (i32.const 1)
                     (call $down (i32.sub (local.get 0) (i32.const 1))))))))"""


def test_inlined_leaf_at_exactly_the_depth_limit_then_one_deeper():
    """An inlined leaf's prologue is its frame's: it counts as a frame at
    ``_d1`` and raises ``StackExhausted`` one past the limit."""
    limit = 40
    at = assert_identical(
        DOWN_TO_LEAF, "down", limit - 1, fuel=10_000, max_call_depth=limit
    )
    assert at[:2] == ("ok", limit - 1) and at[3:5] == (limit + 1, limit)
    over = assert_identical(
        DOWN_TO_LEAF, "down", limit, fuel=10_000, max_call_depth=limit
    )
    assert over[:2] == ("trap", "stack") and over[4] == limit
    cost = 10_000 - at[2]
    for budget in range(0, cost + 2, 3):
        assert_identical(
            DOWN_TO_LEAF, "down", limit, fuel=budget, max_call_depth=limit
        )
    source = dump_aot(assemble(DOWN_TO_LEAF))
    assert ";; inlined: f0; direct: f1; host: -; via invoke_index: -" in source


def _host_outcomes(result_type, returned):
    """(kind, value | trap code, message) of one call of an import that
    returns ``returned``, once per engine."""
    results = () if result_type is None else (result_type,)
    sig = "" if result_type is None else f" (result {result_type.short})"
    source = f"""(module
      (import "env" "h" (func $h (param i32){sig}))
      (func (export "run") (param i32){sig} (call $h (local.get 0))))"""
    host = HostFunc(
        FuncType((ValType.I32,), results), lambda caller, x: returned, "h"
    )
    outcomes = []
    for inst in three(source, imports={"env": {"h": host}}):
        try:
            value = inst.call("run", 1, fuel=100)
            outcomes.append(("ok", repr(value), inst.store.fuel))
        except Trap as exc:
            outcomes.append(("trap", exc.code, str(exc), inst.store.fuel))
    return outcomes


@pytest.mark.parametrize(
    "result_type, returned",
    [
        (ValType.I32, True), (ValType.I32, 3.7), (ValType.I32, None),
        (ValType.I32, (5,)), (ValType.I32, (1, 2)), (ValType.I32, (1 << 40) + 3),
        (ValType.I32, -1), (ValType.I64, True), (ValType.I64, -1),
        (ValType.I64, 2.5), (ValType.F64, 1), (ValType.F64, True),
        (ValType.F64, 2.5), (ValType.F64, (1.5,)), (ValType.F64, None),
        (ValType.F32, 0.1), (ValType.F32, 3), (None, None), (None, ()),
        (None, 5), (None, (1,)),
    ],
)
def test_direct_host_call_normalises_results_like_invoke_addr(result_type, returned):
    """Whatever a host function returns - bool, float, ``None``, a tuple,
    the wrong arity - the direct call's result (or trap, message and
    trap-time fuel) is what ``invoke_index`` makes of it."""
    legacy, threaded, aot = _host_outcomes(result_type, returned)
    assert threaded == legacy and aot == legacy, (legacy, threaded, aot)


def test_compile_links_a_call_chain_longer_than_the_recursion_limit():
    """``AotCode.compile`` follows direct calls with a worklist, so a chain
    of 1200 functions (CPython's recursion limit is 1000) compiles and
    links in one go; run, it hits the Wasm depth limit like anywhere.  The
    last function is a leaf: its caller inlines it, so it is never
    compiled on its own."""
    n = 1200
    funcs = [
        f"(func $f{i} (param i32) (result i32) "
        f"(call $f{i + 1} (i32.add (local.get 0) (i32.const 1))))"
        for i in range(n - 1)
    ]
    funcs.append(f"(func $f{n - 1} (param i32) (result i32) (local.get 0))")
    raw = assemble(
        "(module " + " ".join(funcs) + ' (export "run" (func $f0)))'
    )
    inst = Instance(decode_module(raw), engine="aot")
    with pytest.raises(Trap) as info:
        inst.call("run", 0, fuel=1_000_000)
    assert info.value.code == "stack"
    bodies = [func.prepared for func in inst.funcs]
    assert [b.leaf for b in bodies] == [False] * (n - 1) + [True]
    assert all(b.run is not None for b in bodies[:-1])
    assert bodies[-1].run is None


#: numeric helpers the emitter inlines: integer div/rem and the i32 -> f64
#: conversions never leave generated code
_INLINED_HELPERS = tuple(
    f"_b{o:02x}(" for o in (
        opcodes.I32_DIV_S, opcodes.I32_DIV_U, opcodes.I32_REM_S,
        opcodes.I32_REM_U, opcodes.I64_DIV_S, opcodes.I64_DIV_U,
        opcodes.I64_REM_S, opcodes.I64_REM_U,
    )
) + (f"_u{opcodes.F64_CONVERT_I32_S:02x}(", f"_u{opcodes.F64_CONVERT_I32_U:02x}(")


def test_shipped_plugins_stay_on_the_fast_path():
    """No ``Memory`` method call per access and no call per division; a
    leaf callee in line, an import one direct host call with no fallback,
    and ``invoke_index`` only where a call really leaves compiled code:
    ``call_indirect``."""
    from repro.plugins import available_plugins, plugin_wasm

    for name in available_plugins():
        module = load_module(plugin_wasm(name))
        n_imported = module.num_imported_funcs
        for i, code in enumerate(module.codes):
            acode = aot_for(module, code, module.func_type(n_imported + i))
            source, emitter = acode._emit()
            for banned in (
                "mem.load_", "mem.store_", "memoryview", "_Frame", *_INLINED_HELPERS
            ):
                assert banned not in source, (name, i, banned)
            calls = [imm for op_, imm in code.body if op_ == opcodes.CALL]
            imported = sum(1 for index in calls if index < n_imported)
            leaves = sum(
                1 for index in calls if index >= n_imported
                and aot_for(module, module.codes[index - n_imported],
                            module.func_type(index)).leaf
            )
            indirect = sum(
                1 for op_, _imm in code.body if op_ == opcodes.CALL_INDIRECT
            )
            assert source.count("_h.fn(inst") == imported, (name, i)
            assert "_h is None" not in source, (name, i)
            assert source.count("invoke_index(") == indirect, (name, i)
            assert source.count("raise StackExhausted(_d1)") == leaves, (name, i)
            assert source.count("(inst, store, _d1, fuel") == (
                len(calls) - imported - leaves
            ), (name, i)
            assert [site.split()[0] for site in emitter.via] == (
                ["call_indirect"] * indirect
            ), (name, i, emitter.via)
            assert emitter.hosts == {c for c in calls if c < n_imported}


#: Python function calls one promoted call of each plugin on the 48-UE
#: input below may make, all told (host functions included).  The
#: optimising emitter needs 104 / 58 / 10; the one-frame-per-Wasm-frame
#: baseline it replaced needed 648 / 448 / 158.
CALL_PATH_BOUNDS = {"rr": 150, "pf": 90, "mt": 20}


@pytest.mark.parametrize("name", sorted(CALL_PATH_BOUNDS))
def test_promoted_call_path_is_short_and_exact(name):
    """A deterministic guard on the compiled call path, counted with
    ``sys.setprofile`` (no timing): the same Wasm frames and fuel as the
    legacy engine, ``Instance.invoke_index`` never entered (``Instance.call``
    enters a compiled body itself), and few Python calls: leaves are
    inlined, imports are direct host calls, division is in line."""
    import sys

    from repro.abi import wire
    from repro.abi.host import PluginHost
    from repro.experiments.fig5d import make_ues
    from repro.plugins import plugin_wasm

    payload = wire.pack_sched_input(3, 52, make_ues(48))
    invoke_code = Instance.invoke_index.__code__

    def one_call(engine):
        host = PluginHost(plugin_wasm(name), name=f"path-{name}", engine=engine)
        host.promote()
        host.call(payload)  # same history on both sides; compiles on use
        inst = host.instance
        ptr = inst.call("alloc", len(payload))
        inst.memory.write(ptr, payload)
        stats = inst.store.stats = ExecStats()
        counts = {"calls": 0, "invoke_index": 0}

        def profile(frame, event, arg):
            if event == "call":
                counts["calls"] += 1
                counts["invoke_index"] += frame.f_code is invoke_code

        sys.setprofile(profile)
        try:
            inst.call("run", ptr, len(payload), fuel=2_000_000)
        finally:
            sys.setprofile(None)
        return stats.frames, 2_000_000 - inst.store.fuel, counts

    legacy_frames, legacy_fuel, _counts = one_call("legacy")
    frames, fuel, counts = one_call("aot")
    assert (frames, fuel) == (legacy_frames, legacy_fuel)
    assert counts["invoke_index"] == 0
    assert counts["calls"] < CALL_PATH_BOUNDS[name], counts


# ---------------------------------------------------------------------------
# checks only where effects are: fuel charged where it can be observed,
# the memory limit and inlined frames kept in locals
# ---------------------------------------------------------------------------


def full_outcome(inst, name, *args, fuel):
    """Everything a call leaves observable: result or trap code, the fuel
    left, ExecStats, linear memory and the globals."""
    stats = inst.store.stats = ExecStats()
    try:
        out = ("ok", inst.call(name, *args, fuel=fuel))
    except Trap as exc:
        out = ("trap", exc.code)
    finally:
        inst.store.stats = None
    memory = bytes(inst.memory.data) if inst.memory is not None else b""
    return out + (
        inst.store.fuel, stats.frames, stats.max_call_depth,
        stats.max_value_stack, memory, tuple(g.value for g in inst.globals),
    )


def sweep_every_budget(instances, name, *args, fuel=1_000_000):
    """Run ``name`` at every fuel budget from 0 until it gets as far as
    with ``fuel``, each instance from the same snapshot; every outcome
    must equal the first instance's.  Returns the budget that got there
    and its outcome."""
    snaps = [inst.capture_state() for inst in instances]

    def run_all(budget):
        got = []
        for inst, snap in zip(instances, snaps):
            inst.restore_state(snap)
            got.append(full_outcome(inst, name, *args, fuel=budget))
        for other in got[1:]:
            assert other == got[0], (name, args, budget, other[:6], got[0][:6])
        return got[0]

    full = run_all(fuel)
    budget = 0
    while (done := run_all(budget))[:2] != full[:2]:
        budget += 1
    return budget, done


@pytest.mark.parametrize("name", ["rr", "pf", "mt"])
def test_shipped_plugin_run_matches_legacy_at_every_budget(name):
    """A 4-UE ``run`` of each shipped plugin, promoted aot against legacy,
    cut off at every fuel budget: trap code, fuel, ExecStats, memory and
    globals stay the legacy engine's."""
    from repro.abi import wire
    from repro.abi.host import PluginHost
    from repro.experiments.fig5d import make_ues
    from repro.plugins import plugin_wasm

    payload = wire.pack_sched_input(3, 52, make_ues(4))
    hosts = [
        PluginHost(plugin_wasm(name), name=f"sweep-{name}-{e}", engine=e)
        for e in ("legacy", "aot")
    ]
    hosts[1].promote()
    assert hosts[1].tier == "aot"
    instances = [host.instance for host in hosts]
    ptrs = {inst.call("alloc", len(payload)) for inst in instances}
    assert len(ptrs) == 1
    ptr = ptrs.pop()
    for inst in instances:
        inst.memory.write(ptr, payload)
    budget, done = sweep_every_budget(instances, "run", ptr, len(payload))
    assert done[0] == "ok" and budget > 400, (budget, done[:2])


#: shapes where compiled code checks late or less: fuel owed and paid
#: where an effect follows, an address tried unmasked first.  (source,
#: export, argument tuples, max_call_depth)
CHECK_SHAPES = {
    # an inlined leaf entered at the depth limit, then one past it: its
    # call charge, depth check and whole charge share one test
    "leaf-entry-at-depth-limit": ("""(module
      (memory 1)
      (global $g (mut i32) (i32.const 0))
      (func $leaf (param i32) (result i32)
        (i32.store (i32.const 8) (i32.add (local.get 0) (i32.const 7)))
        (i32.load8_u (local.get 0)))
      (func $down (export "down") (param i32) (result i32)
        (global.set $g (i32.add (global.get $g) (i32.const 1)))
        (if (result i32) (i32.eqz (local.get 0))
          (then (call $leaf (i32.const 3)))
          (else (i32.add (i32.const 1)
                         (call $down (i32.sub (local.get 0) (i32.const 1))))))))""",
        "down", [(5,), (6,)], 6),
    # fuel owed on entry to a branch-targeted block is paid at the bounds
    # check of its first load, which traps for the second argument
    "load-in-sunk-region": ("""(module
      (memory 1)
      (global $g (mut i32) (i32.const 0))
      (func (export "f") (param i32) (result i32)
        (local i32)
        (local.set 1 (i32.mul (local.get 0) (i32.const 3)))
        (block $b (result i32)
          (drop (i32.add (local.get 1) (i32.const 1)))
          (i32.load offset=4 (local.get 0))
          (br_if $b (i32.eqz (local.get 0)))
          (global.set $g (i32.const 9))
          (i32.add (i32.const 2)))))""",
        "f", [(0,), (16,), (65534,)], 300),
    # a br_if's taken path pays what is owed; the fall-through carries it
    # to the next store
    "br-if-taken-path": ("""(module
      (memory 1)
      (func (export "count") (param i32) (result i32)
        (local i32)
        (block $out
          (loop $top
            (local.set 1 (i32.add (local.get 1) (i32.const 1)))
            (br_if $out (i32.ge_u (local.get 1) (local.get 0)))
            (i32.store (i32.const 0) (local.get 1))
            (br $top)))
        (i32.add (local.get 1) (i32.load (i32.const 0)))))""",
        "count", [(1,), (4,)], 300),
    # an address past 2**32 before its i32 wrap-around: the unmasked sum
    # is out of bounds, the wrapped one is not
    "address-wraps-around": ("""(module
      (memory 1)
      (data (i32.const 0) "\\01\\02\\03\\04\\05\\06\\07\\08\\09")
      (func (export "f") (param i32) (result i32)
        (i32.store8 (i32.add (local.get 0) (i32.const 12)) (i32.const 7))
        (i32.add
          (i32.load8_u (i32.add (local.get 0) (i32.const 8)))
          (i32.load8_u (i32.mul (i32.add (local.get 0) (i32.const 4))
                                (i32.const 4))))))""",
        "f", [(1,), (4294967292,), (1073741824,), (65530,)], 300),
    # an if without else whose arms owe different amounts at the join
    "if-without-else": ("""(module
      (memory 1)
      (global $g (mut i32) (i32.const 0))
      (func (export "f") (param i32) (result i32)
        (local i32)
        (local.set 1 (i32.add (local.get 0) (i32.const 1)))
        (if (i32.and (local.get 0) (i32.const 1))
          (then
            (i32.store (i32.const 4) (local.get 1))
            (local.set 1 (i32.mul (local.get 1) (i32.const 5)))))
        (if (i32.and (local.get 0) (i32.const 2))
          (then (local.set 1 (i32.add (local.get 1) (i32.const 2)))))
        (global.set $g (local.get 1))
        (i32.add (local.get 1) (i32.load (i32.const 4)))))""",
        "f", [(0,), (1,), (2,), (3,)], 300),
}


@pytest.mark.parametrize("shape", sorted(CHECK_SHAPES))
def test_check_shapes_match_legacy_at_every_budget(shape):
    source, name, calls, depth = CHECK_SHAPES[shape]
    instances = three(source, max_call_depth=depth)
    for args in calls:
        sweep_every_budget(instances, name, *args)


def test_inlined_leaf_at_the_depth_limit_merges_its_entry_checks():
    """One test per inlined call site covers the call's charge, the depth
    check and the leaf's whole charge, and its cold path raises in the
    legacy engine's order: fuel, then ``StackExhausted``, then fuel."""
    source, name, calls, depth = CHECK_SHAPES["leaf-entry-at-depth-limit"]
    at = full_outcome(three(source, max_call_depth=depth)[0], name, 5, fuel=10_000)
    assert at[:2] == ("ok", 5) and at[3:5] == (7, 6)
    over = full_outcome(three(source, max_call_depth=depth)[0], name, 6, fuel=10_000)
    assert over[:2] == ("trap", "stack")
    module = load_module(assemble(source))
    body = aot_for(module, module.codes[1], module.func_type(1)).source
    assert body.count("if _fi < 0 or _deep:") == 1
    assert body.count("raise StackExhausted(_d1)") == 1
    assert "_deep = _d1 > store.max_call_depth" in body


#: per shipped plugin, the most of each check the generated source of the
#: whole module may hold (``repro disasm --aot`` text).  Before checks
#: moved to where effects are: fuel 138 / 119 / 117, ``len(md)`` 66 / 54 /
#: 54, ``stats.frames`` 18 / 20 / 20, ``glb[`` 33 / 22 / 22.  Each inlined
#: call site now also carries its cold copy (two to three of its fuel
#: raises, each of its global accesses once more).
CHECK_CAPS = {
    "rr": {"raise FuelExhausted": 86, "len(md)": 11, "stats.frames": 15, "glb[": 39},
    "pf": {"raise FuelExhausted": 77, "len(md)": 12, "stats.frames": 14, "glb[": 28},
    "mt": {"raise FuelExhausted": 76, "len(md)": 11, "stats.frames": 14, "glb[": 28},
}


@pytest.mark.parametrize("name", sorted(CHECK_CAPS))
def test_generated_source_checks_only_where_effects_are(name):
    from repro.plugins import plugin_wasm

    source = dump_aot(plugin_wasm(name))
    counts = {needle: source.count(needle) for needle in CHECK_CAPS[name]}
    assert all(counts[k] <= cap for k, cap in CHECK_CAPS[name].items()), counts


# ---------------------------------------------------------------------------
# engine selection + instance plumbing
# ---------------------------------------------------------------------------


def test_engines_tuple_contains_aot():
    assert ENGINES == ("threaded", "legacy", "aot")


def test_resolve_engine_aot_env(monkeypatch):
    monkeypatch.setenv("REPRO_WASM_ENGINE", "aot")
    assert resolve_engine() == "aot"
    assert resolve_engine("legacy") == "legacy"  # explicit arg wins


def test_instance_prepares_aot_code():
    raw = assemble(LOOP_SUM)
    inst = Instance(decode_module(raw), engine="aot")
    assert inst.engine == "aot"
    func = inst.funcs[0]
    assert isinstance(func.prepared, AotCode)
    assert inst.call("sum", 10) == 45


def test_capture_restore_roundtrip_on_aot():
    legacy, threaded, aot = three(COUNTER)
    for inst in (legacy, threaded, aot):
        inst.call("bump", 7)
        inst.call("bump", 35)
    snap = aot.capture_state()

    # aot -> aot
    raw = assemble(COUNTER)
    fresh = Instance(decode_module(raw), engine="aot")
    fresh.restore_state(snap)
    assert fresh.call("bump", 0) == 42
    # aot -> threaded and legacy -> aot cross-engine hops
    cross = Instance(decode_module(raw), engine="threaded")
    cross.restore_state(snap)
    assert cross.call("bump", 8) == 50
    back = Instance(decode_module(raw), engine="aot")
    back.restore_state(legacy.capture_state())
    assert back.call("bump", 8) == 50


def test_plugin_host_checkpoint_restore_under_aot(monkeypatch):
    monkeypatch.setenv("REPRO_WASM_ENGINE", "aot")
    from repro.abi import SchedulerPlugin
    from repro.experiments.fig5d import make_ues
    from repro.plugins import plugin_wasm

    plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf-aot-ckpt")
    plugin.host.limits.fuel = 10_000_000
    ues = make_ues(4)
    plugin.schedule(52, ues, 0)
    snap = plugin.host.checkpoint()
    before = plugin.schedule(52, ues, 1).grants
    plugin.schedule(52, ues, 2)
    plugin.host.restore(snap)
    after = plugin.schedule(52, ues, 1).grants
    assert after == before


# ---------------------------------------------------------------------------
# dump / disasm listing
# ---------------------------------------------------------------------------


def test_dump_aot_shows_wasm_and_python():
    raw = assemble(LOOP_SUM)
    text = dump_aot(raw)
    assert 'func 0 (export "sum"): ' in text
    assert ";; wasm body" in text
    assert ";; generated python\n" in text
    # the one body every host runs, metered
    assert "def _wfn(inst, store, depth, fuel, l0):" in text
    assert "FuelExhausted" in text
    assert "i32.add" in text


def test_body_compiles_lazily_on_first_use():
    raw = assemble(LOOP_SUM)
    cache_clear()
    inst = Instance(decode_module(raw), engine="aot")
    acode = inst.funcs[0].prepared
    # instantiation lowers nothing: no source retained, no function built
    assert acode.run is None
    assert inst.call("sum", 10, fuel=10_000) == 45
    run = acode.run
    assert run is not None
    # no budget runs the same function
    assert inst.call("sum", 10, fuel=None) == 45
    assert acode.run is run and acode.compile() is run  # idempotent


def test_generated_source_takes_fuel_in_and_out():
    module = load_module(assemble(FIB))
    acode = aot_for(module, module.codes[0], module.func_type(0))
    source = acode.source
    assert source.startswith("def _wfn(inst, store, depth, fuel, l0):")
    assert "fuel, s1 = _f0(inst, store, _d1, fuel, " in source
    assert "return fuel, " in source
    assert "store.fuel = fuel if fuel > 0 else 0" in source
    assert "is None" not in source
    # memoized per Code object
    assert aot_for(module, module.codes[0], module.func_type(0)) is acode


# ---------------------------------------------------------------------------
# the table of kept modules: aot bodies on the record, LRU bound, counters
# ---------------------------------------------------------------------------


def test_codecache_shares_aot_across_loads_not_decodes():
    raw = assemble('(module (func (export "f") (result i32) (i32.const 3)))')
    cache_clear()
    obs.enable()
    try:
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
        m0 = misses.value(engine="aot")
        a1 = compiled_bodies(load_module(raw), "aot")
        assert compiled_bodies(load_module(raw), "aot") is a1
        assert misses.value(engine="aot") == m0 + 1
        # two bare decodes of the same bytes are two modules: each lowers
        d1, d2 = decode_module(raw), decode_module(raw)
        validate_module(d1)
        validate_module(d2)
        b1, b2 = compiled_bodies(d1, "aot"), compiled_bodies(d2, "aot")
        assert b1[0] is not b2[0] and b1[0] is not a1[0]
        assert misses.value(engine="aot") == m0 + 3
        # aot artifacts never collide with the other engines' bodies
        assert compiled_bodies(d1, "threaded")[0] is not b1[0]
        assert compiled_bodies(d1, "legacy")[0] is not b1[0]
    finally:
        obs.disable()
        cache_clear()


def test_codecache_lru_eviction_and_counters(monkeypatch):
    """Cap 2: the least-recently-*loaded* binary goes whole - module,
    bodies and heat together - and its next load starts from the bytes."""
    from repro.wasm import loader

    monkeypatch.setattr(codecache, "CAPACITY", 2)
    assert cache_stats()["capacity"] == 2.0
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("decode_module", "validate_module"):
        monkeypatch.setattr(loader, name, counting(name, getattr(loader, name)))
    cache_clear()
    obs.enable()
    try:
        evictions = OBS.registry.counter("waran_wasm_module_cache_evictions_total")
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
        e0 = evictions.value()
        raws = [
            assemble(f'(module (func (export "f") (result i32) (i32.const {k})))')
            for k in range(3)
        ]
        first, second = load_module(raws[0]), load_module(raws[1])
        for module in (first, second):
            compiled_bodies(module, "aot")
            codecache.add_heat(module, 7)
        # load 0 again so it is most-recently-loaded, then load 2: 1 must go
        assert load_module(raws[0]) is first
        load_module(raws[2])
        assert evictions.value() == e0 + 1
        assert cache_stats()["entries"] == cache_stats()["modules"] == 2.0
        assert cache_stats()["evictions"] == evictions.value()
        # 0 survived the eviction with everything that hangs off it
        assert load_module(raws[0]) is first
        assert codecache.is_cached(first, "aot") and codecache.heat(first) == 7
        # 1 went whole: decode 1 / validate 1 / miss 1, heat 0
        del calls[:]
        m0 = misses.value(engine="aot")
        again = load_module(raws[1])
        assert calls == ["decode_module", "validate_module"]
        assert again is not second
        assert not codecache.is_cached(again, "aot") and codecache.heat(again) == 0
        assert compiled_bodies(again, "aot")[0] is not compiled_bodies(second, "aot")[0]
        assert misses.value(engine="aot") == m0 + 1
    finally:
        obs.disable()
        cache_clear()


@pytest.mark.parametrize("engine", ["threaded", "aot"])
def test_fig5b_hot_swap_keeps_hit_rate(engine):
    """Satellite 3: Fig-5b-style hot swaps stay >=90% cache hits per tier."""
    from repro.abi import SchedulerPlugin
    from repro.plugins import plugin_wasm

    os.environ["REPRO_WASM_ENGINE"] = engine
    cache_clear()
    obs.enable()
    try:
        hits = OBS.registry.counter("waran_wasm_codecache_hits_total")
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
        h0, m0 = hits.value(engine=engine), misses.value(engine=engine)
        binaries = [plugin_wasm("pf"), plugin_wasm("rr"), plugin_wasm("mt")]
        if engine == "aot":
            # at the host layer compiled bodies are earned, not loaded:
            # promote each binary once (the three aot misses) so the swaps
            # below are the warm swaps of a hot binary
            for wasm in binaries:
                SchedulerPlugin.load(wasm, name="warm-aot").host.promote()
        plugin = SchedulerPlugin.load(plugin_wasm("mt"), name=f"swap-{engine}")
        for i in range(30):  # ten full MT -> PF -> RR swap cycles
            plugin.swap(binaries[i % 3])
            assert plugin.host.tier == engine
        dh = hits.value(engine=engine) - h0
        dm = misses.value(engine=engine) - m0
        assert dh + dm > 0
        hit_rate = dh / (dh + dm)
        assert hit_rate >= 0.90, f"{engine}: hit rate {hit_rate:.1%} < 90%"
    finally:
        os.environ.pop("REPRO_WASM_ENGINE", None)
        obs.disable()


# ---------------------------------------------------------------------------
# fuzz oracle integration: the three-way differential runs aot legs
# ---------------------------------------------------------------------------


def test_oracle_runs_aot_legs():
    from repro.fuzz.oracle import differential

    raw = assemble(COUNTER)
    result = differential(raw, [("bump", (5,)), ("bump", (6,)), ("bump", (7,))])
    assert result.ok, result.reason
    assert "aot" in result.legs
    assert "restore-aot" in result.legs
    assert "restore-aot-to-threaded" in result.legs
    assert "restore-legacy-to-aot" in result.legs
    assert "tier-up" in result.legs
