"""One load path: a plugin binary is decoded, validated and hashed once.

``PluginHost`` turns bytes into a checked module in exactly one place
(:func:`repro.wasm.load_module`, then the sanitizer's policy checks on
that module), instantiates it without re-validating, and ``restore``
re-instantiates the module the host already holds.  Three families:

- **counting**: how many decodes / validates / SHA-256s a load, a swap
  and a restore cost - wrapped wherever ``src/repro`` references them, so
  a private preamble growing back anywhere is counted too;
- **start under fuel**: a plugin's ``start`` function runs on the host's
  per-call budget and a trap in it is a refused load;
- **refusals are events**: every rejected binary leaves
  ``plugin.load ok=False`` in the event log, whichever stage refused it.
"""

import hashlib
import sys

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
from repro.wasm import Instance, Store, codecache, decode_module, validate_module
from repro.wasm.wat import assemble

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


class TestCounting:
    @pytest.mark.parametrize("sanitize", [True, False])
    def test_load_swap_restore(self, counts, sanitize):
        before = dict(counts)
        host = PluginHost(plugin_wasm("rr"), name="rr-count", sanitize=sanitize)
        assert _since(counts, before) == (1, 1, 1)
        assert host.module_sha == hashlib.sha256(plugin_wasm("rr")).hexdigest()

        before = dict(counts)
        host.swap(plugin_wasm("pf"))
        assert _since(counts, before) == (1, 1, 1)

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

    def test_ric_and_e2_hosts_load_once(self, counts):
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        for load in (
            lambda: ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,)),
            WasmFieldAdapter,
            MessageGuard,
        ):
            before = dict(counts)
            load()
            assert _since(counts, before)[:2] == (1, 1), load


class TestStartRunsUnderFuel:
    LIMITS = HostLimits(fuel=10_000)

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        codecache.clear()
        yield
        codecache.clear()

    @staticmethod
    def _pin_tier(engine: str, wasm: bytes) -> None:
        if engine == "aot":
            # cached aot bodies: the host starts this binary compiled
            codecache.compiled_bodies(decode_module(wasm), "aot")

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
            assemble("""(module
              (import "env" "format_disk" (func (param i32)))
              (memory (export "memory") 2 8)
              (func (export "alloc") (param i32) (result i32) (i32.const 8))
              (func (export "run") (param i32 i32) (result i32) (i32.const 0)))"""),
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
