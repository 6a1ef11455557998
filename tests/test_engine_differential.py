"""Differential testing: every bundled plugin under every Wasm engine.

Each ``.wc`` plugin in ``src/repro/plugins/`` is loaded once per engine
(``legacy``, ``threaded``, ``aot``) and driven through the full
:class:`PluginHost` byte-buffer path with identical inputs.  The engines
must agree on *everything* observable: output bytes, error kind, spec
trap code, fuel consumed, and :class:`ExecStats` counters.

This is the acceptance gate for the compiled tiers being bit-identical
in semantics, not just "close enough".  At the host layer ``aot`` is a
tier a binary earns by burning fuel, so the aot leg pins it with
``host.promote()`` up front, and a second sweep promotes after every
possible call index: a promotion between two calls must be invisible.
"""

import pytest

from repro import obs
from repro.abi import wire
from repro.abi.host import PluginError, PluginHost
from repro.experiments.fig5d import make_ues
from repro.plugins import available_plugins, plugin_wasm
from repro.sched.types import UeSchedInfo
from repro.wasm.codecache import clear as cache_clear
from repro.wasm.instance import HostFunc
from repro.wasm.wtypes import FuncType, ValType

FUEL = 2_000_000  # default host budget; bounds fault_spin deterministically
#: budget of the promote-after-every-call sweep: still far above any
#: well-behaved call, keeps the 6 x fault_spin runs short
SWEEP_FUEL = 100_000

I32, I64 = ValType.I32, ValType.I64


def xapp_stubs() -> dict[str, HostFunc]:
    """Deterministic stand-ins for the RIC host functions xApps import."""
    topics: dict[int, list[int]] = {}

    def publish(caller, topic, value):
        topics.setdefault(topic, []).append(value)

    def poll_msg(caller, topic):
        queue = topics.get(topic)
        return queue.pop(0) if queue else -1

    def get_param(caller, param_id):
        return -1

    return {
        "publish": HostFunc(FuncType((I32, I64), ()), publish, "publish"),
        "poll_msg": HostFunc(FuncType((I32,), (I64,)), poll_msg, "poll_msg"),
        "get_param": HostFunc(FuncType((I32,), (I64,)), get_param, "get_param"),
    }


@pytest.fixture(autouse=True)
def telemetry():
    # enabled so the host collects ExecStats for every call
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    obs.disable()


def observe(
    name: str,
    engine: str,
    payloads: list[bytes],
    promote_after: int = 0,
    fuel: int = FUEL,
):
    """Run one plugin over payloads; return everything observable.

    An ``aot`` host is promoted once ``promote_after`` calls have run
    (0 = up front: the pure compiled leg); other engines never promote.
    """
    host = PluginHost(
        plugin_wasm(name),
        name=f"{name}-{engine}",
        sanitize=False,  # fault_* plugins deliberately misbehave
        extra_hostfuncs=xapp_stubs(),  # xApps import publish/poll/get_param
        engine=engine,
    )
    host.limits.fuel = fuel
    entry = "on_indication" if name.startswith("xapp") else "run"
    trace = []
    for i, payload in enumerate(payloads):
        if engine == "aot" and i == promote_after:
            host.promote()
            # the leg must not silently degrade to threaded code
            assert host.tier == "aot"
        try:
            result = host.call(payload, entry=entry)
            outcome = ("ok", result.output, result.fuel_used)
        except PluginError as exc:
            cause = exc.__cause__
            trap_code = getattr(cause, "code", None)
            outcome = (exc.kind, trap_code, host.instance.store.fuel)
        stats = host.instance.store.stats
        trace.append(
            outcome + (stats.frames, stats.max_call_depth, stats.max_value_stack)
        )
    return trace


def payloads_for() -> list[bytes]:
    """A few realistic scheduler inputs (xApps parse the same framing)."""
    return [
        wire.pack_sched_input(1, 52, make_ues(4)),
        wire.pack_sched_input(2, 6, make_ues(1)),
        wire.pack_sched_input(3, 100, make_ues(12)),
        wire.pack_sched_input(
            4, 52,
            [UeSchedInfo(ue_id=17, mcs=0, cqi=1, buffer_bytes=0, avg_tput_bps=0.0)],
        ),
        b"",  # degenerate input: both engines must fault identically too
    ]


@pytest.mark.parametrize("name", sorted(available_plugins()))
def test_plugin_identical_across_engines(name):
    payloads = payloads_for()
    legacy = observe(name, "legacy", payloads)
    for engine in ("threaded", "aot"):
        trace = observe(name, engine, payloads)
        for i, (expect, got) in enumerate(zip(legacy, trace)):
            assert got == expect, (
                f"{name} payload#{i}: {engine} {got} != legacy {expect}"
            )
    # sanity: the suite saw at least one successful call or a real fault,
    # never silent no-ops
    assert any(t[0] in ("ok", "trap", "fuel", "abi") for t in legacy)


@pytest.mark.parametrize("name", sorted(available_plugins()))
def test_promotion_is_invisible(name):
    """Promote after call k, for every k: same bytes, error kind, trap
    code, fuel and ExecStats as the legacy trace."""
    payloads = payloads_for()
    legacy = observe(name, "legacy", payloads, fuel=SWEEP_FUEL)
    for k in range(len(payloads) + 1):
        # a cold codecache, so the host really starts on threaded code and
        # the switch happens where the test puts it (or earlier, when the
        # plugin burns its way over the threshold by itself: fault_spin)
        cache_clear()
        trace = observe(name, "aot", payloads, promote_after=k, fuel=SWEEP_FUEL)
        assert trace == legacy, f"{name}: promotion after call {k} is visible"


def test_scratch_region_reused_across_calls():
    """Back-to-back calls reuse one staging buffer: no per-call alloc,
    no linear-memory growth."""
    host = PluginHost(plugin_wasm("pf"), name="pf-scratch", sanitize=False)
    host.limits.fuel = FUEL
    payload = wire.pack_sched_input(1, 52, make_ues(6))

    host.call(payload)
    allocs_after_first = host.scratch_allocs
    pages_after_first = host.memory_pages
    ptr = host._scratch_ptr
    assert allocs_after_first == 1

    for slot in range(2, 30):
        host.call(wire.pack_sched_input(slot, 52, make_ues(6)))

    assert host.scratch_allocs == allocs_after_first  # alloc never re-ran
    assert host._scratch_ptr == ptr
    assert host.memory_pages == pages_after_first  # no memory regression


def test_scratch_region_grows_monotonically():
    host = PluginHost(plugin_wasm("pf"), name="pf-grow", sanitize=False)
    host.limits.fuel = FUEL
    host.call(wire.pack_sched_input(1, 52, make_ues(1)))
    assert host.scratch_allocs == 1
    cap_small = host._scratch_cap
    # a bigger input forces one (and only one) re-alloc...
    host.call(wire.pack_sched_input(2, 52, make_ues(20)))
    assert host.scratch_allocs == 2
    assert host._scratch_cap > cap_small
    # ...after which the small input rides the grown region
    host.call(wire.pack_sched_input(3, 52, make_ues(1)))
    host.call(wire.pack_sched_input(4, 52, make_ues(20)))
    assert host.scratch_allocs == 2


def test_scratch_region_reset_on_swap():
    host = PluginHost(plugin_wasm("pf"), name="pf-swap-scratch", sanitize=False)
    host.limits.fuel = FUEL
    host.call(wire.pack_sched_input(1, 52, make_ues(4)))
    assert host.scratch_allocs == 1
    host.swap(plugin_wasm("rr"))
    assert host._scratch_ptr is None  # stale pointer dropped with the instance
    host.call(wire.pack_sched_input(2, 52, make_ues(4)))
    assert host.scratch_allocs == 2
