"""``fuel=None`` means "no limit", and nothing else, in every engine.

The engines always meter; an absent budget is handled once, at the
depth-0 entries from Python into Wasm (``Instance.call``,
``ExportedFunc.__call__`` and the start function), which run on
``UNLIMITED_FUEL`` and put ``None`` back however the entry ends.  These
tests hold a call without a budget to the same call with a large one -
value or trap code, ``ExecStats``, memory and globals - on every shipped
scheduler plugin and every ``tests/wasm/corpus`` case, and check that
``store.fuel`` reads ``None`` after a return, a trap and a host callback.
"""

from pathlib import Path

import pytest

from repro.abi import wire
from repro.abi.hostfuncs import make_env
from repro.experiments.fig5d import make_ues
from repro.fuzz.corpus import load_case
from repro.fuzz.oracle import canon_state, canon_value
from repro.plugins import FAULT_PLUGINS, SCHEDULER_PLUGINS, plugin_wasm
from repro.wasm import HostFunc, Instance, Store, decode_module
from repro.wasm.instance import UNLIMITED_FUEL
from repro.wasm.interpreter import ExecStats
from repro.wasm.threaded import ENGINES
from repro.wasm.traps import Trap
from repro.wasm.wat import assemble
from repro.wasm.wtypes import FuncType, ValType

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))

#: fault_spin never returns without a budget
PLUGINS = SCHEDULER_PLUGINS + tuple(p for p in FAULT_PLUGINS if p != "fault_spin")
TRAPPING = {"fault_oob", "fault_null", "fault_dblfree"}

LARGE = 10_000_000


def observe(inst: Instance, name: str, args, fuel) -> tuple:
    """(kind, value | trap code, ExecStats, memory hash + globals)."""
    stats = inst.store.stats = ExecStats()
    try:
        out = ("ok", canon_value(inst.call(name, *args, fuel=fuel)))
    except Trap as exc:
        out = ("trap", exc.code)
    finally:
        inst.store.stats = None
    return out + (
        (stats.frames, stats.max_call_depth, stats.max_value_stack),
        canon_state(inst.capture_state()),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("plugin", PLUGINS)
def test_plugin_call_without_budget_matches_a_large_budget(plugin, engine):
    wasm = plugin_wasm(plugin)
    unlimited, budgeted = (
        Instance(decode_module(wasm), imports={"env": make_env()}, engine=engine)
        for _ in range(2)
    )
    for slot in range(3):
        payload = wire.pack_sched_input(slot, 52, make_ues(24))
        for inst in (unlimited, budgeted):
            ptr = inst.call("alloc", len(payload), fuel=LARGE)
            inst.memory.write(ptr, payload)
        args = (ptr, len(payload))
        expect = observe(budgeted, "run", args, LARGE)
        assert observe(unlimited, "run", args, None) == expect, (plugin, slot)
        assert unlimited.store.fuel is None
    assert expect[0] == ("trap" if plugin in TRAPPING else "ok")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_call_without_budget_matches_a_large_budget(path, engine):
    case = load_case(path)
    unlimited, budgeted = (
        Instance(decode_module(case.wasm), engine=engine) for _ in range(2)
    )
    assert unlimited.store.fuel is None  # after a start function too
    for name, args in case.calls:
        expect = observe(budgeted, name, args, 100 * case.fuel)
        if expect[:2] == ("trap", "fuel"):
            # a runaway loop: without a budget it would never return, so
            # both sides take the same one to stay in step
            assert observe(unlimited, name, args, 100 * case.fuel) == expect
            continue
        assert observe(unlimited, name, args, None) == expect, (name, args)
        assert unlimited.store.fuel is None


CALLBACK = """(module
  (import "env" "peek" (func $peek (param i32) (result i32)))
  (global $g (mut i32) (i32.const 0))
  (func $start (global.set $g (call $peek (i32.const 1))))
  (start $start)
  (func (export "run") (param i32) (result i32)
    (i32.add (call $peek (local.get 0)) (i32.const 1))))"""


@pytest.mark.parametrize("engine", ENGINES)
def test_no_budget_reads_none_after_return_trap_and_host_callback(engine):
    seen = []

    def peek(caller, x):
        seen.append(caller.store.fuel)
        if x == 13:
            raise Trap("host says no", code="host")
        return x

    imports = {"env": {"peek": HostFunc(
        FuncType((ValType.I32,), (ValType.I32,)), peek
    )}}
    store = Store()
    inst = Instance(decode_module(assemble(CALLBACK)), imports=imports,
                    store=store, engine=engine)
    assert store.fuel is None and inst.globals[0].value == 1  # start ran
    assert inst.call("run", 4) == 5
    assert store.fuel is None
    with pytest.raises(Trap):
        inst.call("run", 13)
    assert store.fuel is None
    assert inst.get_export("run")(6) == 7  # ExportedFunc entry
    assert store.fuel is None
    with pytest.raises(Trap):
        inst.get_export("run")(13)
    assert store.fuel is None
    # inside the entry the host sees a counter, never None
    assert seen and all(
        isinstance(f, int) and UNLIMITED_FUEL - 5 < f < UNLIMITED_FUEL
        for f in seen
    )
    # a budget given by the caller is what the host reads, and what is left
    assert inst.call("run", 4, fuel=100) == 5
    assert (store.fuel, seen[-1]) == (95, 98)
