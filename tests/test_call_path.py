"""One way into compiled code: a host's call against a call made by hand.

A plugin call enters Wasm through its export's bound entry
(``Instance.entry``), bound on first use and dropped by ``retier`` and
with the instance.  The oracle here is the call spelled out by hand on a
fresh legacy instance of the same module, entered by export index
through ``Instance._enter`` with no bound entry and no compiled code:
``alloc``, ``Memory.write``, the entry, ``Memory.read``, the i32 result
read as signed here.  Fuel, traps and ``ExecStats`` are engine-identical,
so one oracle serves every tier.  For every bundled plugin on a promoted
aot host, an aot host still warming on threaded code and a legacy host,
the two agree on the output bytes,
``fuel_used``, the trap code, the trap-time ``store.fuel`` and
``ExecStats`` - under an rt fuel budget, without a fuel limit, with
memory growing mid-call, and across ``swap``, ``promote`` and ``restore``
between calls, each of which rebinds the entries.
"""

from itertools import count

import pytest

from repro import obs
from repro.abi import SchedulerPlugin, wire
from repro.abi.host import HostLimits, PluginError, PluginHost
from repro.abi.hostfuncs import make_env
from repro.plugins import XAPP_PLUGINS, available_plugins, plugin_wasm
from repro.ric.wire import XAPP_ACTION_BYTES
from repro.sched import UeSchedInfo
from repro.wasm import Instance, Store, load_module
from repro.wasm.instance import HostFunc
from repro.wasm.interpreter import ExecStats
from repro.wasm.traps import Trap

PLUGINS = available_plugins()
TIERS = ("promoted", "warming", "legacy")
UES = [UeSchedInfo(i + 1, 10 + i, 9, 40_000 * (i + 1), 2e6) for i in range(4)]
PAYLOAD = wire.pack_sched_input(3, 52, UES)
_salt = count()


@pytest.fixture(autouse=True)
def telemetry():
    # on, so the host collects ExecStats for every call
    obs.enable()
    yield
    obs.reset()
    obs.disable()


def entry_of(plugin: str) -> str:
    return "on_indication" if plugin in XAPP_PLUGINS else "run"


def record_bytes(plugin: str) -> int:
    return XAPP_ACTION_BYTES if plugin in XAPP_PLUGINS else wire.GRANT_STRIDE


def env(module) -> dict[str, HostFunc]:
    """The standard ``env``, plus a stub returning 0 for any other import
    (the xApps' RIC functions)."""
    base = make_env()
    for imp in module.imports:
        if imp.name not in base:
            base[imp.name] = HostFunc(module.types[imp.desc], lambda caller, *a: 0, imp.name)
    return base


def binary(plugin: str) -> bytes:
    """The plugin with a custom section of its own: a module no other
    test has heated or compiled, so an aot host starts warming on it."""
    name = f"call-path.{next(_salt)}".encode()
    return plugin_wasm(plugin) + b"\x00" + bytes([len(name) + 1, len(name)]) + name


def make_host(plugin: str, tier: str, wasm: bytes | None = None, **kwargs) -> PluginHost:
    wasm = wasm or binary(plugin)
    host = PluginHost(
        wasm, name=f"{plugin}-{tier}", sanitize=False,
        extra_hostfuncs=env(load_module(wasm)),
        output_record_bytes=record_bytes(plugin),
        engine="legacy" if tier == "legacy" else "aot", **kwargs,
    )
    if tier == "promoted":
        host.promote()
    assert host.tier == {"promoted": "aot", "warming": "threaded", "legacy": "legacy"}[tier]
    return host


def observe(host: PluginHost, plugin: str, fuel=None) -> tuple:
    """``(output, fuel_used, trap_code, store.fuel, ExecStats)`` of one call."""
    try:
        result = host.call(PAYLOAD, entry=entry_of(plugin), fuel=fuel)
    except PluginError as exc:
        result = exc.result
    stats = host._stats
    return (
        result.output, result.fuel_used, result.trap_code, host.instance.store.fuel,
        (stats.frames, stats.max_call_depth, stats.max_value_stack),
    )


def legacy(module) -> Instance:
    return Instance(module, {"env": env(module)}, store=Store(), validate=False,
                    engine="legacy")


class Oracle:
    """The host's call spelled out on a fresh legacy instance of the same
    module, entered through ``Instance._enter``, not a bound entry."""

    def __init__(self, host: PluginHost, plugin: str):
        self.plugin = plugin
        self.limits = host.limits
        self.inst = legacy(host.instance.module)
        self.ptr, self.cap = None, 0

    def invoke(self, name: str, *args) -> int:
        (value,) = self.inst._enter(self.inst.module.export_map()[name].index, list(args))
        return value - (1 << 32) if value >> 31 else value

    def observe(self, fuel=None) -> tuple:
        inst, store = self.inst, self.inst.store
        limit = self.limits.fuel
        budget = fuel if fuel is not None and (limit is None or fuel < limit) else limit
        store.fuel = budget
        store.stats = stats = ExecStats()
        output = code = None
        try:
            if self.ptr is None or len(PAYLOAD) > self.cap:
                self.ptr, self.cap = self.invoke("alloc", len(PAYLOAD)), max(self.cap, len(PAYLOAD))
            inst.memory.write(self.ptr, PAYLOAD)
            out = self.invoke(entry_of(self.plugin), self.ptr, len(PAYLOAD))
            output = self._read(out)
        except Trap as exc:
            code = exc.code
        used = None if budget is None else budget - store.fuel
        return (
            output, used, code, store.fuel,
            (stats.frames, stats.max_call_depth, stats.max_value_stack),
        )

    def _read(self, out: int) -> bytes | None:
        """What the host accepts as output; ``None`` for an ABI fault."""
        memory = self.inst.memory
        if out < 0 or out + 4 > memory.size_bytes:
            return None
        n = int.from_bytes(memory.read(out, 4), "little")
        length = 4 + n * record_bytes(self.plugin)
        if n > 10_000 or length > self.limits.max_output_bytes:
            return None
        try:
            return memory.read(out, length)
        except Trap:
            return None


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("plugin", PLUGINS)
def test_host_call_matches_the_oracle(plugin, tier):
    host = make_host(plugin, tier, limits=HostLimits(fuel=300_000))
    oracle = Oracle(host, plugin)
    for _ in range(3):  # the first call allocates scratch, the rest reuse it
        assert observe(host, plugin) == oracle.observe()


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("plugin", ["rr", "pf", "fault_spin"])
def test_an_rt_budget_cuts_at_the_same_fuel(plugin, tier):
    host = make_host(plugin, tier)
    oracle = Oracle(host, plugin)
    for budget in (5_000, 900, 40):
        got = observe(host, plugin, fuel=budget)
        assert got == oracle.observe(fuel=budget)
    assert got[2] == "fuel"  # the last budget is cut short


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("plugin", ["rr", "mt", "fault_oob"])
def test_no_fuel_limit(plugin, tier):
    host = make_host(plugin, tier, limits=HostLimits(fuel=None))
    oracle = Oracle(host, plugin)
    for _ in range(2):
        got = observe(host, plugin)
        assert got == oracle.observe()
        assert got[1] is None and got[3] is None


@pytest.mark.parametrize("tier", TIERS)
def test_memory_grown_mid_call(tier):
    host = make_host("leaky", tier)
    oracle = Oracle(host, "leaky")
    pages = host.memory_pages
    for _ in range(4):
        assert observe(host, "leaky") == oracle.observe()
    assert host.memory_pages > pages
    assert host.instance.memory.data == oracle.inst.memory.data


@pytest.mark.parametrize("tier", TIERS)
def test_swap_rebinds(tier):
    host = make_host("rr", tier)
    observe(host, "rr")
    wasm = binary("pf")
    host.swap(wasm)
    assert observe(host, "pf") == Oracle(make_host("pf", tier, wasm), "pf").observe()


@pytest.mark.parametrize("plugin", ["rr", "leaky"])
def test_promote_between_calls_rebinds(plugin):
    host = make_host(plugin, "warming")
    oracle = Oracle(host, plugin)
    assert observe(host, plugin) == oracle.observe()
    run_entry = host.instance.entry(entry_of(plugin))
    host.promote()
    assert host.tier == "aot" and entry_of(plugin) not in host.instance.entries
    assert observe(host, plugin) == oracle.observe()
    assert host.instance.entry(entry_of(plugin)) is not run_entry


@pytest.mark.parametrize("tier", TIERS)
def test_restore_rebinds(tier):
    host = make_host("rr", tier)
    oracle = Oracle(host, "rr")
    assert observe(host, "rr") == oracle.observe()
    snapshot, state = host.checkpoint(), oracle.inst.capture_state()
    for _ in range(2):
        assert observe(host, "rr") == oracle.observe()
    host.restore(snapshot)
    oracle.inst = legacy(oracle.inst.module)
    oracle.inst.restore_state(state)
    for _ in range(2):
        assert observe(host, "rr") == oracle.observe()


def test_a_wrapper_on_host_call_sees_every_schedule_call():
    """The ledger's contract: an instance-attribute wrapper on
    ``plugin.host.call`` sees each ``schedule`` call, packed input first."""
    plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
    inner, seen = plugin.host.call, []

    def call(*args, **kwargs):
        seen.append((args[0], kwargs))
        return inner(*args, **kwargs)

    plugin.host.call = call
    for slot in range(4):
        plugin.schedule(52, UES[: slot + 1], slot, fuel=None if slot % 2 else 50_000)
    assert [payload for payload, _ in seen] == [
        wire.pack_sched_input(slot, 52, UES[: slot + 1]) for slot in range(4)
    ]
    assert [kwargs["fuel"] for _, kwargs in seen] == [50_000, None, 50_000, None]
