"""One load path: a plugin binary is decoded and validated once per process.

``PluginHost`` turns bytes into a checked module in exactly one place
(:func:`repro.wasm.load_module`, then the sanitizer's policy checks on
that module), instantiates it without re-validating, and ``restore``
re-instantiates the module the host already holds.  ``load_module`` keeps
the checked module of every binary it has seen, so only the first sight
of some bytes decodes and validates; later loads hash and look up.

- **counting**: how many decodes / validates / SHA-256s a load, a swap
  and a restore cost - wrapped wherever ``src/repro`` references them, so
  a private preamble growing back anywhere is counted too;
- **what is kept**: only bytes that passed decode and validation, never
  a policy verdict, least-recently-loaded out first, safe under a race;
- **replaced instances die at once**: by refcount, with the cycle
  collector off;
- **start under fuel**: a plugin's ``start`` function runs on the host's
  per-call budget and a trap in it is a refused load;
- **refusals are events**: every rejected binary leaves
  ``plugin.load ok=False`` in the event log, whichever stage refused it;
- **the table is observable**: hit / miss / eviction counters,
  ``codecache.stats()`` and the ``warm`` flag on ``plugin.swap``.
"""

import gc
import hashlib
import sys
import threading
import weakref

import pytest

from repro import obs
from repro.abi import wire
from repro.abi.host import HostLimits, PluginError, PluginHost
from repro.abi.hostfuncs import make_env
from repro.abi.sanitizer import SanitizerError, sanitize_plugin
from repro.e2 import CommChannel, WasmFieldAdapter, vendors
from repro.e2.comm import MessageGuard
from repro.experiments.fig5d import make_ues
from repro.netio import InProcNetwork
from repro.obs import OBS
from repro.plugins import plugin_wasm
from repro.ric import MSG_UE_MEAS, NearRtRic
from repro.wasm import (
    HostFunc,
    Instance,
    Store,
    codecache,
    decode_module,
    load_module,
    validate_module,
)
from repro.wasm.instance import compiled_bodies
from repro.wasm.memory import Memory
from repro.wasm.wat import assemble
from repro.wasm.wtypes import FuncType, ValType

SMALL = wire.pack_sched_input(1, 52, make_ues(2))

#: a conforming scheduler plugin whose ``start`` logs once per iteration
#: of a long but *bounded* loop - unmetered it finishes (so a host that
#: forgets the budget fails an assertion instead of hanging the suite)
START_ITERATIONS = 200_000
SPINNING_START = assemble(f"""(module
  (import "env" "log" (func $log (param i32 i32)))
  (memory (export "memory") 2 8)
  (func $spin (local $i i32)
    (loop $l
      (call $log (i32.const 7) (local.get $i))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br_if $l (i32.lt_u (local.get $i) (i32.const {START_ITERATIONS})))))
  (func (export "alloc") (param i32) (result i32) (i32.const 1024))
  (func (export "run") (param i32 i32) (result i32) (i32.const 0))
  (start $spin))""")

TRAPPING_START = assemble("""(module
  (memory (export "memory") 2 8)
  (func $boom (unreachable))
  (func (export "alloc") (param i32) (result i32) (i32.const 1024))
  (func (export "run") (param i32 i32) (result i32) (i32.const 0))
  (start $boom))""")

#: valid, and refused by the scheduler policy only
FORBIDDEN_IMPORT = assemble("""(module
  (import "env" "format_disk" (func (param i32)))
  (memory (export "memory") 2 8)
  (func (export "alloc") (param i32) (result i32) (i32.const 8))
  (func (export "run") (param i32 i32) (result i32) (i32.const 0)))""")


@pytest.fixture
def cold_cache():
    codecache.clear()
    yield
    codecache.clear()


@pytest.fixture
def counts(monkeypatch):
    """Live ``{"decode", "validate", "sha256"}`` call counters."""
    tally = {"decode": 0, "validate": 0, "sha256": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for key, name, original in (
        ("decode", "decode_module", decode_module),
        ("validate", "validate_module", validate_module),
    ):
        wrapper = counting(key, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(hashlib, "sha256", counting("sha256", hashlib.sha256))
    return tally


def _since(tally: dict, before: dict) -> tuple[int, int, int]:
    return tuple(tally[k] - before[k] for k in ("decode", "validate", "sha256"))


@pytest.mark.usefixtures("cold_cache")
class TestCounting:
    """decode / validate / sha256 per operation: ``(1, 1, 1)`` the first
    time a process sees some bytes, ``(0, 0, 1)`` for any later load or
    swap of them, ``(0, 0, 0)`` for a restore."""

    @pytest.mark.parametrize("sanitize", [True, False])
    def test_load_swap_restore(self, counts, sanitize):
        before = dict(counts)
        host = PluginHost(plugin_wasm("rr"), name="rr-count", sanitize=sanitize)
        assert _since(counts, before) == (1, 1, 1)
        assert host.module_sha == hashlib.sha256(plugin_wasm("rr")).hexdigest()
        rr_module = host.instance.module

        before = dict(counts)
        host.swap(plugin_wasm("pf"))  # first sight of pf
        assert _since(counts, before) == (1, 1, 1)

        before = dict(counts)
        host.swap(plugin_wasm("rr"))  # seen: one hash, the kept module
        assert _since(counts, before) == (0, 0, 1)
        assert host.instance.module is rr_module

        before = dict(counts)
        other = PluginHost(plugin_wasm("pf"), name="pf-count", sanitize=sanitize)
        host.swap(plugin_wasm("pf"))
        assert _since(counts, before) == (0, 0, 2)
        assert other.instance.module is host.instance.module

        expected = host.call(SMALL).output
        snapshot = host.checkpoint()
        live = host.instance
        before = dict(counts)
        host.restore(snapshot)
        assert _since(counts, before) == (0, 0, 0)
        # a fresh instance of the very module the host was already running
        assert host.instance is not live
        assert host.instance.module is live.module
        assert host.call(SMALL).output == expected

        codecache.clear()
        before = dict(counts)
        host.swap(plugin_wasm("rr"))
        assert _since(counts, before) == (1, 1, 1)
        assert host.instance.module is not rr_module
        assert host.instance.module == rr_module

    def test_ric_and_e2_hosts_load_once(self, counts):
        """Every kind of host goes through the one load path, so each
        shares its binary's module with a scheduler-policy host (which
        refuses or accepts the bytes on its own policy)."""
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        for kind, load in (
            ("xapp_ts", lambda: ric.load_xapp(
                "ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,)).host),
            ("adapt_fields", lambda: WasmFieldAdapter().host),
            ("guard_pbwire", lambda: MessageGuard().host),
        ):
            before = dict(counts)
            first = load()
            assert _since(counts, before) == (1, 1, 1), kind
            before = dict(counts)
            try:
                sched = PluginHost(plugin_wasm(kind), name="sched")
            except SanitizerError:
                assert kind == "xapp_ts"  # imports the RIC's capabilities
            else:
                assert sched.instance.module is first.instance.module
            assert _since(counts, before) == (0, 0, 1), kind
            assert load_module(plugin_wasm(kind)) is first.instance.module


@pytest.mark.usefixtures("cold_cache")
class TestWhatIsKept:
    """Only bytes that decoded *and* validated are kept; no verdict is."""

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(b"not wasm at all", id="undecodable"),
            pytest.param(assemble("(module (func (result i32)))"), id="invalid"),
        ],
    )
    @pytest.mark.parametrize("sanitize", [True, False])
    def test_refused_bytes_are_never_kept(self, counts, bad, sanitize):
        error = SanitizerError if sanitize else PluginError
        messages = []
        for _attempt in range(2):
            before = dict(counts)
            with pytest.raises(error) as info:
                PluginHost(bad, name="bad", sanitize=sanitize)
            # decoded again every time; validation only runs on what decoded
            assert _since(counts, before)[0] == 1
            messages.append(str(info.value))
            assert codecache.stats()["modules"] == 0.0
        assert messages[0] == messages[1]
        if not sanitize:
            assert info.value.kind == "load"
        with pytest.raises(SanitizerError):
            sanitize_plugin(bad)
        assert codecache.stats()["modules"] == 0.0

    @pytest.mark.parametrize("strict_first", [True, False])
    def test_a_verdict_is_per_host(self, counts, strict_first):
        """Bytes one policy refuses and another accepts load in either
        order, each host on its own verdict, off one decode."""
        wasm = FORBIDDEN_IMPORT
        permissive = frozenset({"format_disk"})
        extra = {"format_disk": HostFunc(FuncType((ValType.I32,), ()), lambda c, x: None)}

        def strict():
            with pytest.raises(SanitizerError, match="forbidden host function"):
                PluginHost(wasm, name="strict")
            with pytest.raises(SanitizerError, match="forbidden host function"):
                sanitize_plugin(wasm)

        def lenient():
            host = PluginHost(
                wasm, name="lenient", allowed_imports=permissive, extra_hostfuncs=extra
            )
            assert host.call(SMALL, entry="run").output is not None
            sanitize_plugin(wasm, allowed_imports=permissive)

        before = dict(counts)
        for attempt in (strict, lenient) if strict_first else (lenient, strict):
            attempt()
        strict()  # still refused after the lenient host ran it
        assert _since(counts, before)[:2] == (1, 1)

    def test_a_trapping_start_is_refused_every_time(self, counts):
        """The binary is valid, so its module is kept - the refusal is the
        instantiation's, and it happens again on every attempt."""
        for attempt in range(3):
            before = dict(counts)
            with pytest.raises(PluginError, match="unreachable") as info:
                PluginHost(TRAPPING_START, name="boom")
            assert info.value.kind == "load"
            assert _since(counts, before) == ((1, 1, 1) if attempt == 0 else (0, 0, 1))

    def test_module_and_unvalidated_loads_bypass_the_table(self, counts):
        wasm = plugin_wasm("rr")
        invalid = assemble("(module (func (result i32)))")
        for raw in (wasm, invalid):
            first = load_module(raw, validate=False)
            assert load_module(raw, validate=False) is not first
        assert codecache.stats()["modules"] == 0.0
        own = decode_module(wasm)
        assert load_module(own) is own  # validated, returned, not kept
        assert codecache.stats()["modules"] == 0.0
        kept = load_module(wasm)
        assert kept is not own and kept == own
        # ... and a kept module is not handed to a validate=False caller
        assert load_module(wasm, validate=False) is not kept
        assert load_module(wasm) is kept

    def test_eviction_is_least_recently_loaded(self, counts, monkeypatch):
        monkeypatch.setattr(codecache, "CAPACITY", 2)
        rr, pf, mt = (plugin_wasm(kind) for kind in ("rr", "pf", "mt"))
        load_module(rr)
        load_module(pf)
        load_module(rr)  # rr is now the most recently loaded
        load_module(mt)  # evicts pf
        assert codecache.stats()["modules"] == 2.0
        before = dict(counts)
        load_module(rr)
        assert _since(counts, before) == (0, 0, 1)
        before = dict(counts)
        load_module(pf)  # evicted: first sight again (and evicts mt)
        assert _since(counts, before) == (1, 1, 1)
        before = dict(counts)
        load_module(mt)
        assert _since(counts, before) == (1, 1, 1)

    def test_two_threads_missing_on_the_same_bytes(self):
        wasm = plugin_wasm("pf")
        reference = decode_module(wasm)
        barrier = threading.Barrier(4)
        got, errors = [], []

        def load():
            try:
                barrier.wait(timeout=10)
                got.append(load_module(wasm))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=load) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(got) == 4 and all(module == reference for module in got)
        # whoever lost the race was handed the winner's module
        assert all(module is got[0] for module in got)
        assert load_module(wasm) is got[0]
        assert codecache.stats()["modules"] == 1.0
        assert PluginHost(wasm, name="raced").call(SMALL).output


class TestReplacedInstancesDieAtOnce:
    """A replaced or dropped instance is freed by refcount, not by the
    cycle collector: 128 KiB of linear memory per swap otherwise waits
    for the next full collection."""

    @pytest.fixture(autouse=True)
    def no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def _refs(host):
        return weakref.ref(host.instance), weakref.ref(host.instance.memory)

    def test_swap_and_restore(self):
        host = PluginHost(plugin_wasm("rr"), name="rr-gc")
        host.call(SMALL)
        instance, memory = self._refs(host)
        host.swap(plugin_wasm("pf"))
        assert instance() is None and memory() is None

        host.call(SMALL)
        snapshot = host.checkpoint()
        instance, memory = self._refs(host)
        host.restore(snapshot)
        assert instance() is None and memory() is None
        assert host.call(SMALL).output

    def test_replay_clone(self, monkeypatch):
        obs.enable()
        obs.reset()
        try:
            host = PluginHost(plugin_wasm("rr"), name="rr-gc")
            host.call(SMALL)
            (record,) = OBS.flight.last(1)
            clones = []
            original = PluginHost.reissue

            def spying(clone, *args, **kwargs):
                clones.append(self._refs(clone))
                return original(clone, *args, **kwargs)

            monkeypatch.setattr(PluginHost, "reissue", spying)
            assert host.replay(record).output == record.output_bytes
        finally:
            obs.reset()
            obs.disable()
        ((instance, memory),) = clones
        assert instance() is None and memory() is None

    def test_a_failed_swap_frees_the_refused_instance_and_keeps_the_old(self):
        host = PluginHost(plugin_wasm("rr"), name="rr-gc")
        expected = host.call(SMALL).output
        live = host.instance
        memories = sum(isinstance(o, Memory) for o in gc.get_objects())
        for _ in range(3):
            with pytest.raises(PluginError):
                host.swap(TRAPPING_START)
        assert host.instance is live
        assert sum(isinstance(o, Memory) for o in gc.get_objects()) == memories
        assert PluginHost(plugin_wasm("rr")).call(SMALL).output == expected


@pytest.mark.usefixtures("cold_cache")
class TestStartRunsUnderFuel:
    LIMITS = HostLimits(fuel=10_000)

    @staticmethod
    def _pin_tier(engine: str, wasm: bytes) -> None:
        if engine == "aot":
            # its module bound to aot bodies: the host starts it compiled
            compiled_bodies(load_module(wasm), "aot")

    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_spinning_start_is_refused_within_budget(self, engine):
        self._pin_tier(engine, SPINNING_START)
        logged = []
        with pytest.raises(PluginError, match="cannot load plugin spin") as info:
            PluginHost(
                SPINNING_START,
                name="spin",
                limits=self.LIMITS,
                engine=engine,
                log_sink=lambda code, value: logged.append(value),
            )
        assert info.value.kind == "load"
        assert "fuel" in str(info.value)
        # every iteration burns fuel, so it got nowhere near the loop bound
        assert 0 < len(logged) < self.LIMITS.fuel

    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(SPINNING_START, id="spinning"),
            pytest.param(TRAPPING_START, id="trapping"),
        ],
    )
    def test_swap_to_a_bad_start_keeps_the_old_plugin(self, engine, bad):
        self._pin_tier(engine, bad)
        host = PluginHost(
            plugin_wasm("rr"), name="rr-live", limits=self.LIMITS, engine=engine
        )
        expected = PluginHost(plugin_wasm("rr"), limits=self.LIMITS).call(SMALL)
        with pytest.raises(PluginError) as info:
            host.swap(bad)
        assert info.value.kind == "load"
        assert host.generation == 0
        assert host.call(SMALL).output == expected.output

    @pytest.mark.parametrize("kind", ["rr", "pf", "mt"])
    def test_first_call_fuel_is_what_the_wasm_burns(self, kind):
        """The store now starts on ``limits.fuel`` instead of unmetered;
        per-call accounting still resets it on every call."""
        limit = HostLimits().fuel
        bare = Instance(
            decode_module(plugin_wasm(kind)),
            imports={"env": make_env()},
            store=Store(),
        )
        ptr = bare.call("alloc", len(SMALL), fuel=limit)
        bare.memory.write(ptr, SMALL)
        bare.call("run", ptr, len(SMALL))
        host = PluginHost(plugin_wasm(kind), name=f"{kind}-fuel")
        assert host.call(SMALL).fuel_used == limit - bare.store.fuel
        second = host.call(SMALL).fuel_used  # scratch reused: no alloc run
        assert 0 < second < limit - bare.store.fuel


class TestRefusalsAreEvents:
    @pytest.fixture(autouse=True)
    def telemetry(self):
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        obs.disable()

    @staticmethod
    def _refusals(source: str) -> list[dict]:
        return [
            event
            for event in OBS.events.to_json()
            if event["kind"] == "plugin.load" and event["source"] == source
        ]

    STAGES = {
        "undecodable": (b"not wasm at all", SanitizerError, "bad magic"),
        "invalid": (
            assemble("(module (func (result i32)))"),
            SanitizerError,
            "plugin failed validation",
        ),
        "forbidden-import": (
            FORBIDDEN_IMPORT,
            SanitizerError,
            "forbidden host function 'format_disk'",
        ),
        "missing-export": (
            assemble("""(module
              (memory (export "memory") 2 8)
              (func (export "alloc") (param i32) (result i32) (i32.const 8)))"""),
            SanitizerError,
            "missing required export 'run'",
        ),
        "trapping-start": (TRAPPING_START, PluginError, "unreachable"),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_every_rejected_load_and_swap_is_logged(self, stage):
        bad, error, reason = self.STAGES[stage]
        with pytest.raises(error, match=reason):
            PluginHost(bad, name="fresh")
        host = PluginHost(plugin_wasm("rr"), name="live")
        with pytest.raises(error, match=reason):
            host.swap(bad)
        for source in ("fresh", "live"):
            (event,) = self._refusals(source)
            assert event["ok"] is False and reason in event["detail"]
        assert not OBS.events.events("plugin.swap")

    def test_host_and_sanitizer_say_the_same_of_the_same_bytes(self):
        for bad, error, _reason in self.STAGES.values():
            if error is not SanitizerError:
                continue
            with pytest.raises(SanitizerError) as direct:
                sanitize_plugin(bad)
            with pytest.raises(SanitizerError) as hosted:
                PluginHost(bad, name="same")
            assert str(hosted.value) == str(direct.value)


class TestTheTableIsObservable:
    @pytest.fixture(autouse=True)
    def telemetry(self):
        codecache.clear()
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        obs.disable()
        codecache.clear()

    @staticmethod
    def _counter(what: str) -> float:
        return OBS.registry.counter(f"waran_wasm_module_cache_{what}_total").value()

    def test_counters_stats_and_the_warm_flag(self, monkeypatch):
        old_keys = {"entries", "capacity", "hits", "misses", "evictions", "hit_rate"}
        host = PluginHost(plugin_wasm("rr"), name="seen")  # miss
        host.swap(plugin_wasm("pf"))  # miss: nothing of pf is cached
        host.swap(plugin_wasm("rr"))  # hit
        host.restore(host.checkpoint())  # no lookup at all
        stats = codecache.stats()
        assert old_keys < set(stats)
        assert (stats["modules"], stats["module_hits"], stats["module_misses"]) == (
            2.0, 1.0, 2.0,
        )
        assert (self._counter("hits"), self._counter("misses")) == (1.0, 2.0)
        # bodies: two lowerings, then the swap back and the restore hit
        assert (stats["hits"], stats["misses"]) == (2.0, 2.0)
        swaps = OBS.events.events("plugin.swap")
        assert [event.fields["warm"] for event in swaps] == [False, True]

        monkeypatch.setattr(codecache, "CAPACITY", 1)
        assert self._counter("evictions") == 0.0
        load_module(plugin_wasm("mt"))  # evicts both rr and pf
        assert self._counter("evictions") == 2.0
        assert codecache.stats()["modules"] == 1.0

    def test_off_means_uncounted_but_still_kept(self):
        obs.disable()
        load_module(plugin_wasm("rr"))
        assert load_module(plugin_wasm("rr")) is load_module(plugin_wasm("rr"))
        stats = codecache.stats()
        assert (stats["modules"], stats["module_hits"], stats["module_misses"]) == (
            1.0, 0.0, 0.0,
        )
