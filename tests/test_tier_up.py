"""Fuel-heat tier-up at the plugin host.

``engine="aot"`` (the default) means, at :class:`PluginHost`, "compiled
once the binary has earned it": a load with no cached aot bodies starts
on threaded code, every call charges its fuel to a per-content-hash heat
counter in :mod:`repro.wasm.codecache`, and the call that takes the heat
over ``PROMOTE_FUEL_PER_INSTR x static instructions`` rebinds the live
instance to aot bodies.  Two families of tests:

- **heat policy**: *when* a host promotes is a pure function of the call
  history of its bytes - nothing else (no clock, no option);
- **invisibility**: *that* it promoted changes nothing observable -
  output, error kind, trap code, fuel, ExecStats, checkpoints.

The per-plugin promote-after-every-call sweep lives with the rest of the
differential suite in ``tests/test_engine_differential.py``.
"""

import sys
import threading

import pytest

from repro import obs
from repro.abi import wire
from repro.abi.host import (
    PROMOTE_FUEL_PER_INSTR,
    HostLimits,
    PluginError,
    PluginHost,
)
from repro.abi.sanitizer import SanitizerError
from repro.chaos.schedule import ChaosInjection, OneShotChaos
from repro.experiments.fig5d import make_ues
from repro.obs import OBS
from repro.plugins import plugin_wasm
from repro.wasm import Instance, codecache, decode_module, load_module
from repro.wasm.aot import AotCode
from repro.wasm.instance import compiled_bodies
from repro.wasm.leb128 import encode_u
from repro.wasm.threaded import ThreadedCode
from repro.wasm.wat import assemble

DENSE = [wire.pack_sched_input(slot, 52, make_ues(24)) for slot in range(40)]
SMALL = wire.pack_sched_input(1, 52, make_ues(1))


@pytest.fixture(autouse=True)
def cold_cache_and_telemetry(monkeypatch):
    # the subject is the default engine, whatever CI leg this runs in;
    # every test starts with no bodies and no heat; telemetry on so the
    # promotion counter/event and ExecStats are there to compare
    monkeypatch.delenv("REPRO_WASM_ENGINE", raising=False)
    codecache.clear()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    obs.disable()
    codecache.clear()


def variant(wasm: bytes, tag: str) -> bytes:
    """Same code, new content hash: ``wasm`` plus a custom section."""
    name = f"tierup.{tag}".encode()
    body = encode_u(len(name)) + name
    return wasm + b"\x00" + encode_u(len(body)) + body


def promotions(plugin: str) -> float:
    return OBS.registry.counter("waran_plugin_promotions_total").value(
        plugin=plugin
    )


def bodies(host: PluginHost) -> list:
    instance = host.instance
    own = instance.func_addrs[instance.module.num_imported_funcs:]
    return [instance.store.funcs[addr].prepared for addr in own]


def own_frames_and_leaves(host: PluginHost) -> tuple[list, list]:
    """The live bodies split into those that run as their own frame
    (exported or not a leaf) and the leaves only ever inlined."""
    exported = {
        e.index for e in host.instance.module.exports if e.kind == "func"
    }
    n_imported = host.instance.module.num_imported_funcs
    frames, leaves = [], []
    for i, body in enumerate(bodies(host)):
        inlined_only = body.leaf and n_imported + i not in exported
        (leaves if inlined_only else frames).append(body)
    return frames, leaves


def static_instrs(host: PluginHost) -> int:
    return sum(len(code.body) for code in host.instance.module.codes)


def threshold(host: PluginHost) -> int:
    return PROMOTE_FUEL_PER_INSTR * static_instrs(host)


def promotion_call(wasm: bytes, name: str) -> tuple[int, int]:
    """Drive a fresh host until it promotes: ``(call index, heat)``."""
    host = PluginHost(wasm, name=name)
    assert host.tier == "threaded"
    burnt = 0
    for i, payload in enumerate(DENSE):
        burnt += host.call(payload).fuel_used
        if burnt >= threshold(host):
            assert host.tier == "aot", f"call {i} crossed but did not promote"
            return i, burnt
        assert host.tier == "threaded", f"promoted early at call {i}"
    raise AssertionError("never crossed the threshold")


# ---------------------------------------------------------------------------
# heat policy
# ---------------------------------------------------------------------------


class TestHeatPolicy:
    @pytest.mark.parametrize("kind", ["rr", "pf", "mt"])
    def test_promotes_at_exactly_the_crossing_call(self, kind):
        first = promotion_call(plugin_wasm(kind), f"{kind}-a")
        assert promotions(f"{kind}-a") == 1
        # a pure function of the call history: same bytes, same calls,
        # cold cache again -> same call index, same heat
        codecache.clear()
        assert promotion_call(plugin_wasm(kind), f"{kind}-b") == first

    def test_promote_event_and_series(self, monkeypatch):
        # the compile lands after the call was timed and recorded, so no
        # plugin latency sample ever contains one
        order = []
        for owner, method in ((OBS.flight, "record"), (PluginHost, "promote")):
            original = getattr(owner, method)

            def spy(*args, _original=original, _name=method, **kwargs):
                order.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, method, spy)
        wasm = plugin_wasm("rr")
        index, burnt = promotion_call(wasm, "rr-ev")
        assert order == ["record"] * (index + 1) + ["promote"]
        (event,) = [e for e in OBS.events.events() if e.kind == "plugin.promote"]
        assert event.source == "rr-ev"
        assert event.fields["heat"] == burnt
        assert event.fields["static_instrs"] * PROMOTE_FUEL_PER_INSTR <= burnt
        assert event.fields["compile_us"] > 0
        assert OBS.registry.histogram("waran_wasm_promote_us").labels().count == 1

    @pytest.mark.parametrize("kind", ["trap", "abi", "oversize"])
    def test_injected_fault_that_ran_no_wasm_reads_no_fuel(self, kind):
        # these injections replace the call; the fuel the previous call
        # left in the store must not be read as this call's consumption
        host = PluginHost(plugin_wasm("rr"), name="rr-inj")
        assert host.call(SMALL).fuel_used > 0
        module = host.instance.module
        heat = codecache.heat(module)
        fuel_series = OBS.registry.histogram("waran_plugin_fuel_used")
        assert fuel_series.count(plugin="rr-inj") == 1
        host.chaos = OneShotChaos(ChaosInjection(kind, "rr-inj", 2))
        with pytest.raises(PluginError):
            host.call(SMALL)
        (record,) = OBS.flight.last(1)
        assert record.outcome != "ok" and record.fuel_used is None
        assert fuel_series.count(plugin="rr-inj") == 1
        assert codecache.heat(module) == heat

    def test_hosts_of_the_same_bytes_share_heat(self):
        wasm = plugin_wasm("pf")
        a = PluginHost(wasm, name="pf-a")
        b = PluginHost(wasm, name="pf-b")
        limit = threshold(a)
        burnt = 0
        for i, payload in enumerate(DENSE):
            host = (a, b)[i % 2]
            burnt += host.call(payload).fuel_used
            if burnt >= limit:
                break
            assert (a.tier, b.tier) == ("threaded", "threaded")
        # the host whose call crossed compiled; neither burnt the threshold
        # alone, and the other one follows at the end of its next call
        # without compiling anything
        assert host.tier == "aot"
        other = b if host is a else a
        assert other.tier == "threaded"
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
        aot_misses = misses.value(engine="aot")
        assert aot_misses == 1
        other.call(DENSE[0])
        assert other.tier == "aot"
        assert misses.value(engine="aot") == aot_misses
        assert all(x is y for x, y in zip(bodies(a), bodies(b)))

    def test_cold_variant_inherits_nothing_and_never_promotes(self):
        wasm = plugin_wasm("rr")
        hot = PluginHost(wasm, name="hot")
        hot.promote()
        assert hot.tier == "aot" and promotions("hot") == 1
        # a warm swap / a new load of the promoted bytes starts compiled,
        # before its first call
        warm = PluginHost(wasm, name="warm")
        assert warm.tier == "aot" and promotions("warm") == 0
        swapped = PluginHost(plugin_wasm("mt"), name="swapped")
        assert swapped.tier == "threaded"
        swapped.swap(wasm)
        assert swapped.tier == "aot"
        # same code under a new hash: threaded again, and a 5-call
        # lifetime (the hot_swap workload's cold variants) stays there
        misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
        aot_misses = misses.value(engine="aot")
        for n in range(3):
            cold = PluginHost(variant(wasm, f"cold{n}"), name="cold")
            for payload in DENSE[:5]:
                cold.call(payload)
                assert cold.tier == "threaded"
            assert all(isinstance(b, ThreadedCode) for b in bodies(cold))
        assert promotions("cold") == 0
        assert misses.value(engine="aot") == aot_misses  # nothing compiled

    def test_peek_does_not_count_as_hit_or_miss(self):
        module = decode_module(plugin_wasm("mt"))
        before = codecache.stats()
        assert not codecache.is_cached(module, "aot")
        compiled_bodies(module, "aot")
        mid = codecache.stats()
        assert codecache.is_cached(module, "aot")
        after = codecache.stats()
        assert (before["hits"], before["misses"]) == (0, 0)
        assert (mid["hits"], mid["misses"]) == (0, 1)
        assert after == mid

    def test_clear_and_lru_eviction_drop_heat(self, monkeypatch):
        # heat is on the Module object: a running host keeps charging the
        # module it runs after its binary aged out of the table, and the
        # next load of those bytes - after eviction or clear() - starts at 0
        wasm = plugin_wasm("mt")
        binaries = [variant(wasm, f"lru{n}") for n in range(3)]
        monkeypatch.setattr(codecache, "CAPACITY", 2)
        hosts = [PluginHost(b, name=f"lru{n}") for n, b in enumerate(binaries)]
        for host in hosts:
            host.call(SMALL)
        charged = [codecache.heat(host.instance.module) for host in hosts]
        assert all(heat > 0 for heat in charged)
        # cap 2: loading the third binary evicted the first one's record
        assert codecache.stats()["modules"] == 2.0
        hosts[0].call(SMALL)
        assert codecache.heat(hosts[0].instance.module) > charged[0]
        assert load_module(binaries[1]) is hosts[1].instance.module
        fresh = load_module(binaries[0])
        assert fresh is not hosts[0].instance.module
        assert codecache.heat(fresh) == 0
        codecache.clear()
        assert [codecache.heat(load_module(b)) for b in binaries] == [0, 0, 0]
        assert [codecache.heat(h.instance.module) for h in hosts][1:] == charged[1:]

    def test_heat_loses_no_update_under_threads(self):
        # heat is process-wide and inline cluster workers are threads:
        # more chargers than cores, a short switch interval, exact total
        module = decode_module(plugin_wasm("mt"))
        threads = [
            threading.Thread(
                target=lambda: [codecache.add_heat(module, 3) for _ in range(2000)]
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert codecache.heat(module) == 8 * 2000 * 3

    def test_unmetered_host_uses_the_call_count_clock(self):
        host = PluginHost(
            plugin_wasm("mt"), name="mt-unmetered", limits=HostLimits(fuel=None)
        )
        for n in range(1, PROMOTE_FUEL_PER_INSTR + 1):
            assert host.tier == "threaded"
            assert host.call(SMALL).fuel_used is None
            assert codecache.heat(host.instance.module) == n * static_instrs(host)
        assert host.tier == "aot"
        # it compiled the variant it runs - the unmetered one - and only
        # that, for every body that runs as its own frame; the leaves its
        # callers inline are compiled by nobody
        frames, leaves = own_frames_and_leaves(host)
        assert frames and leaves
        assert all(b.run is not None and b.run_fueled is None for b in frames)
        assert all(b.run is None and b.run_fueled is None for b in leaves)

    def test_metered_host_never_compiles_the_unfueled_variant(self):
        host = PluginHost(plugin_wasm("pf"), name="pf-metered")
        host.promote()
        for payload in DENSE[:3]:
            host.call(payload)
        assert all(isinstance(b, AotCode) for b in bodies(host))
        frames, leaves = own_frames_and_leaves(host)
        assert frames and leaves
        assert all(b.run is None and b.run_fueled is not None for b in frames)
        assert all(b.run is None and b.run_fueled is None for b in leaves)

    @pytest.mark.parametrize("engine", ["threaded", "legacy"])
    def test_explicit_baseline_engines_never_promote(self, engine):
        host = PluginHost(plugin_wasm("rr"), name=f"rr-{engine}", engine=engine)
        for payload in DENSE:
            host.call(payload)
        assert codecache.heat(host.instance.module) == 0  # not even charged
        host.promote()  # idempotent no-op
        assert host.tier == engine
        assert promotions(f"rr-{engine}") == 0
        assert not codecache.is_cached(host.instance.module, "aot")

    def test_promote_is_idempotent(self):
        host = PluginHost(plugin_wasm("rr"), name="rr-idem")
        host.promote()
        compiled = bodies(host)
        host.promote()
        assert promotions("rr-idem") == 1
        assert all(x is y for x, y in zip(compiled, bodies(host)))

    #: one binary per stage of a load that can refuse it (with
    #: ``sanitize=False`` and, where the policy is what refuses, with it on)
    BAD_SWAPS = {
        "undecodable": (b"not wasm at all", False),
        "invalid-body": (assemble("(module (func (result i32)))"), False),
        "policy": (  # valid, links, but exports neither alloc nor run
            assemble('(module (memory (export "memory") 1 2))'), True,
        ),
        "link": (  # decodes, but instantiation fails at link time
            assemble('(module (import "env" "no_such_capability" (func)))'), False,
        ),
        "trapping-start": (
            assemble("(module (func $boom (unreachable)) (start $boom))"), False,
        ),
    }

    @staticmethod
    def _swap_state(host: PluginHost) -> tuple:
        """Everything a swap replaces."""
        return (
            host.instance, host.generation, host.module_sha, host.wasm_bytes,
            host._scratch_ptr, host._scratch_cap, host._warming,
        )

    def test_failed_swap_leaves_the_tier_state_alone(self):
        for stage, (bad, sanitize) in self.BAD_SWAPS.items():
            codecache.clear()  # every stage starts cold, like every test
            cold = PluginHost(
                plugin_wasm("rr"), name=f"rr-cold-{stage}", sanitize=sanitize
            )
            hot = PluginHost(
                plugin_wasm("pf"), name=f"pf-hot-{stage}", sanitize=sanitize
            )
            hot.promote()
            for host in (cold, hot):
                # a twin that is never swapped says what the old plugin answers
                twin = PluginHost(host.wasm_bytes, name="twin")
                # the first call establishes the scratch region
                assert host.call(DENSE[0]).output == twin.call(DENSE[0]).output
                before = self._swap_state(host)
                with pytest.raises((PluginError, SanitizerError)):
                    host.swap(bad)
                assert self._swap_state(host) == before, stage
                assert host._scratch_ptr is not None
                assert host.call(DENSE[1]).output == twin.call(DENSE[1]).output
            assert (cold.tier, hot.tier) == ("threaded", "aot"), stage
            # no second, spurious promotion
            assert promotions(f"pf-hot-{stage}") == 1, stage
            cold.promote()  # still warming: the failed load did not cancel it
            assert cold.tier == "aot", stage

    def test_env_engine_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WASM_ENGINE", "threaded")
        host = PluginHost(plugin_wasm("rr"), name="rr-env")
        host.promote()
        assert host.tier == "threaded"

    def test_wasm_layer_aot_is_still_eager(self):
        raw = assemble(
            '(module (func (export "f") (param i32) (result i32)'
            " (i32.add (local.get 0) (i32.const 1))))"
        )
        instance = Instance(decode_module(raw), engine="aot")
        assert instance.engine == "aot" and instance.call("f", 41) == 42
        own = instance.func_addrs[instance.module.num_imported_funcs:]
        assert all(
            isinstance(instance.store.funcs[a].prepared, AotCode) for a in own
        )
        assert codecache.heat(instance.module) == 0


# ---------------------------------------------------------------------------
# invisibility
# ---------------------------------------------------------------------------


class ScriptedChaos:
    """Injects a ``fuel_cut`` on the given call indices, nothing else."""

    def __init__(self, cut_calls: set[int]):
        self.cut_calls = cut_calls
        self.index = -1

    def draw_plugin(self, site: str):
        self.index += 1
        if self.index in self.cut_calls:
            return ChaosInjection("fuel_cut", site, self.index, a=137)
        return None


#: (payload, rt fuel budget) - the 600-fuel budgets preempt a dense call
RT_PLAN = [
    (DENSE[0], None), (DENSE[1], 600), (DENSE[2], None),
    (DENSE[3], 600), (DENSE[4], 1_000_000), (SMALL, 600),
]


def drive(kind, engine, plan, promote_after, chaos=None):
    """Everything observable from one host run over ``plan``."""
    host = PluginHost(plugin_wasm(kind), name="drive", engine=engine, chaos=chaos)
    trace = []
    for i, (payload, budget) in enumerate(plan):
        if i == promote_after:
            host.promote()
        try:
            result = host.call(payload, fuel=budget)
            outcome = ("ok", result.output, result.fuel_used)
        except PluginError as exc:
            outcome = (
                exc.kind, getattr(exc.__cause__, "code", None),
                host.instance.store.fuel, str(exc),
            )
        stats = host.instance.store.stats
        trace.append(
            outcome + (stats.frames, stats.max_call_depth, stats.max_value_stack)
        )
    return trace


class TestPromotionIsInvisible:
    @pytest.mark.parametrize("kind", ["rr", "pf", "mt"])
    def test_under_rt_budgets_that_preempt(self, kind):
        legacy = drive(kind, "legacy", RT_PLAN, None)
        assert [t[0] for t in legacy] == [
            "ok", "deadline", "ok", "deadline", "ok", "ok"
        ]
        for k in range(len(RT_PLAN) + 1):
            codecache.clear()
            assert drive(kind, "aot", RT_PLAN, k) == legacy, f"promote@{k}"

    @pytest.mark.parametrize("kind", ["rr", "pf", "mt"])
    def test_under_chaos_fuel_cuts(self, kind):
        plan = [(payload, None) for payload in DENSE[:6]]
        legacy = drive(kind, "legacy", plan, None, ScriptedChaos({1, 4}))
        assert [t[0] for t in legacy] == ["ok", "fuel", "ok", "ok", "fuel", "ok"]
        for k in range(len(plan) + 1):
            codecache.clear()
            trace = drive(kind, "aot", plan, k, ScriptedChaos({1, 4}))
            assert trace == legacy, f"promote@{k}"

    @pytest.mark.parametrize("kind", ["rr", "pf"])
    def test_checkpoint_before_restore_after(self, kind):
        def run(engine, promote):
            host = PluginHost(plugin_wasm(kind), name="ckpt", engine=engine)
            outputs = [host.call(p).output for p in DENSE[:2]]
            snap = host.checkpoint()
            outputs += [host.call(p).output for p in DENSE[2:5]]
            if promote:
                assert host.tier == "threaded"
                host.promote()
            host.restore(snap)
            if promote:
                # the restored instance is a fresh load of hot bytes
                assert host.tier == "aot"
            outputs += [host.call(p).output for p in DENSE[2:5]]
            return outputs, host.checkpoint()

        legacy_out, legacy_snap = run("legacy", promote=False)
        out, snap = run("aot", promote=True)
        assert out == legacy_out
        assert out[2:5] == out[5:8]  # the restore really rewound the state
        assert (snap.memory, snap.globals) == (legacy_snap.memory, legacy_snap.globals)

    def test_replay_clone_of_a_hot_binary_starts_compiled(self):
        host = PluginHost(plugin_wasm("pf"), name="pf-replay")
        live = host.call(DENSE[0])
        record = OBS.flight.records()[-1]
        assert host.tier == "threaded"
        cold_replay = host.replay(record)
        host.promote()
        hot_replay = host.replay(record)
        assert cold_replay.output == hot_replay.output == live.output
        assert cold_replay.fuel_used == hot_replay.fuel_used == live.fuel_used
