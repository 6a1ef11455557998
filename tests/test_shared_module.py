"""One ``Module`` per binary, shared by every instance of it.

:func:`repro.wasm.load_module` hands every host loading the same bytes
the same decoded + validated :class:`~repro.wasm.module.Module`.  That is
only sound while nothing writes to it, and while everything a plugin can
change lives in its instance.  Two families:

- **independent state**: two hosts on one module share nothing a call,
  a promotion, a swap, a checkpoint or a restore can touch;
- **the module is read-only**: after every shipped plugin has been
  loaded, run, promoted, dumped and swapped, each kept module still
  equals a fresh decode of its bytes, field for field;
- **the module is the whole record**: lowered bodies and heat hang off
  it and go when it goes; a dump lowers code but binds no instance, so it
  never makes a binary look compiled;
- **a live swap reuses it**: Fig. 5b's swaps between binaries the process
  has loaded decode nothing; a never-seen binary is one module miss.  (Their timing is a gate row: ``hot_swap``
  ``swap_warm_p50_us`` in ``benchmarks/gates.py``.)
"""

import dataclasses
import gc
import struct
import weakref

import pytest

from repro import obs
from repro.abi import wire
from repro.abi.host import PluginHost
from repro.abi.sanitizer import sanitize_plugin
from repro.experiments.fig5d import make_ues
from repro.obs import OBS
from repro.plugins import available_plugins, plugin_wasm
from repro.wasm import codecache, decode_module, load_module
from repro.wasm.leb128 import encode_u
from repro.wasm.aot import dump_aot
from repro.wasm.disasm import disassemble
from repro.wasm.threaded import dump_threaded
from repro.wasm.wat import assemble

SMALL = wire.pack_sched_input(1, 52, make_ues(2))
#: more UEs than PRBs: who is served depends on rr's rotation pointer
CROWDED = wire.pack_sched_input(1, 4, make_ues(8))

#: every piece of per-instance state in one plugin: a mutable global, a
#: table it calls through, and linear memory it both reads and writes.
#: ``run`` returns one 8-byte record: (calls so far, running sum).
#: (``$one`` is the first function, so its signature is type 0.)
STATEFUL = assemble("""(module
  (memory (export "memory") 2 8)
  (table 2 funcref)
  (global $calls (mut i32) (i32.const 0))
  (func $one (result i32) (i32.const 1))
  (func $ten (result i32) (i32.const 10))
  (elem (i32.const 0) $one $ten)
  (func (export "alloc") (param i32) (result i32) (i32.const 1024))
  (func (export "run") (param i32 i32) (result i32)
    (i32.store (i32.const 4108)
      (i32.add
        (i32.load (i32.const 4108))
        (call_indirect (type 0)
          (i32.and (global.get $calls) (i32.const 1)))))
    (global.set $calls (i32.add (global.get $calls) (i32.const 1)))
    (i32.store (i32.const 4096) (i32.const 1))
    (i32.store (i32.const 4100) (global.get $calls))
    (i32.store (i32.const 4104) (i32.load (i32.const 4108)))
    (i32.const 4096)))""")


@pytest.fixture(autouse=True)
def cold_cache():
    codecache.clear()
    yield
    codecache.clear()


def _record(host: PluginHost) -> tuple[int, int]:
    output = host.call(b"\0" * 16).output
    assert struct.unpack_from("<I", output, 0) == (1,)
    return struct.unpack_from("<II", output, 4)


class TestIndependentState:
    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_two_hosts_one_module(self, engine):
        a = PluginHost(STATEFUL, name="a", engine=engine)
        b = PluginHost(STATEFUL, name="b", engine=engine)
        assert a.instance.module is b.instance.module
        assert a.instance.memory is not b.instance.memory
        assert a.instance.table is not b.instance.table
        assert a.instance.table.elements is not b.instance.table.elements
        assert a.instance.store is not b.instance.store
        assert all(
            x is not y for x, y in zip(a.instance.globals, b.instance.globals)
        )

        # calls: a's counter, sum and scratch pointer move, b's do not
        assert [_record(a) for _ in range(3)] == [(1, 1), (2, 11), (3, 12)]
        assert a._scratch_ptr == 1024 and b._scratch_ptr is None
        assert b.instance.globals[0].value == 0
        assert bytes(b.instance.memory.data[4096:4112]) == b"\0" * 16
        assert _record(b) == (1, 1)

        # promote: a tier is a host's own
        if engine == "aot":
            assert (a.tier, b.tier) == ("threaded", "threaded")
            a.promote()
            assert (a.tier, b.tier) == ("aot", "threaded")
        assert _record(a) == (4, 22)
        assert _record(b) == (2, 11)

        # checkpoint a, corrupt a, restore a: b sees none of it
        snapshot = a.checkpoint()
        a.instance.memory.data[4108:4112] = b"\xff" * 4
        a.instance.globals[0].value = 77
        a.instance.table.elements[0] = a.instance.table.elements[1]
        module = a.instance.module
        a.restore(snapshot)
        assert a.instance.module is module is b.instance.module
        assert _record(a) == (5, 23)
        assert _record(b) == (3, 12)

        # swap a away and back: fresh state for a, generation is a's own
        a.swap(plugin_wasm("rr"))
        assert (a.generation, b.generation) == (1, 0)
        assert a.instance.module is not b.instance.module
        assert _record(b) == (4, 22)
        a.swap(STATEFUL)
        assert a.instance.module is b.instance.module
        assert _record(a) == (1, 1)
        assert _record(b) == (5, 23)

    def test_a_scheduler_pair_diverges_and_replays_alike(self):
        """The same on a shipped stateful plugin: ``rr`` keeps its
        rotation pointer in a mutable global."""
        a = PluginHost(plugin_wasm("rr"), name="a")
        b = PluginHost(plugin_wasm("rr"), name="b")
        assert a.instance.module is b.instance.module
        first = a.call(CROWDED).output
        later = [a.call(CROWDED).output for _ in range(3)]
        assert len({first, *later}) == 4  # a's pointer moves every call
        assert b.call(CROWDED).output == first  # b's did not
        assert [b.call(CROWDED).output for _ in range(3)] == later


def _fields(module) -> dict:
    return {f.name: getattr(module, f.name) for f in dataclasses.fields(module)}


class TestTheKeptModuleIsNeverWrittenTo:
    def test_after_every_shipped_plugin_ran(self):
        plugins = available_plugins()
        assert len(plugins) >= 14
        hosts = []
        for name in plugins:
            wasm = plugin_wasm(name)
            kept = load_module(wasm)
            # every consumer of bytes: the sanitizer (whatever its verdict),
            # the three dumps, and a host run hot enough to promote
            try:
                sanitize_plugin(wasm)
            except Exception:  # noqa: BLE001 - xApps, fault plugins: refused
                pass
            disassemble(wasm)
            dump_threaded(wasm)
            dump_aot(wasm)
            try:
                host = PluginHost(wasm, name=name, sanitize=False)
            except Exception:  # noqa: BLE001 - xApps need the RIC's imports
                continue
            assert host.instance.module is kept
            hosts.append(host)
            for _ in range(3):
                try:
                    host.call(SMALL)
                except Exception:  # noqa: BLE001 - the fault plugins trap
                    break
            host.promote()
            snapshot = host.checkpoint()
            host.restore(snapshot)
            try:
                host.call(SMALL)
            except Exception:  # noqa: BLE001
                pass
        # swap every host through every binary it can link
        for host in hosts:
            for other in hosts:
                host.swap(other.wasm_bytes)
        assert len(hosts) >= 10
        for name in plugins:
            wasm = plugin_wasm(name)
            kept, fresh = load_module(wasm), decode_module(wasm)
            assert kept is not fresh
            assert _fields(kept) == _fields(fresh), name


class TestTheModuleIsTheWholeRecord:
    def test_a_promoted_binary_that_aged_out_dies_with_its_last_host(
        self, monkeypatch
    ):
        monkeypatch.setattr(codecache, "CAPACITY", 2)
        a = PluginHost(plugin_wasm("rr"), name="a")
        PluginHost(plugin_wasm("pf"), name="b")
        a.promote()
        a.restore(a.checkpoint())
        assert a.tier == "aot"
        PluginHost(plugin_wasm("mt"), name="c")  # third binary: rr ages out
        module = weakref.ref(a.instance.module)
        assert load_module(plugin_wasm("pf")) is not module()
        assert codecache.stats()["modules"] == 2.0
        del a
        # Module -> Code._aot -> AotCode.module is a cycle
        gc.collect()
        assert module() is None

    @pytest.mark.parametrize("dump", ["dump_aot", "dump_threaded", "disasm --aot"])
    def test_a_dump_does_not_make_a_binary_look_compiled(self, dump, tmp_path):
        wasm = plugin_wasm("rr")
        if dump == "disasm --aot":
            from repro.cli import main

            path = tmp_path / "rr.wasm"
            path.write_bytes(wasm)
            assert main(["disasm", "--aot", str(path)]) == 0
        else:
            {"dump_aot": dump_aot, "dump_threaded": dump_threaded}[dump](wasm)
        module = load_module(wasm)
        assert codecache.stats()["modules"] == 1.0  # the dump loaded it
        assert not codecache.is_cached(module, "aot")
        assert not codecache.is_cached(module, "threaded")
        host = PluginHost(wasm, name="after-dump")
        assert host.instance.module is module
        assert host._warming and host.tier == "threaded"
        assert codecache.is_cached(module, "threaded")
        assert not codecache.is_cached(module, "aot")

    def test_stats_keys_and_one_lookup_per_instantiate(self):
        obs.enable()
        try:
            obs.reset()
            keys = {
                "entries", "capacity", "hits", "misses", "evictions",
                "hit_rate", "modules", "module_hits", "module_misses",
            }
            assert set(codecache.stats()) == keys

            def lookups():
                stats = codecache.stats()
                return stats["hits"], stats["misses"]

            host = PluginHost(plugin_wasm("rr"), name="counted")
            assert lookups() == (0, 1)  # the load lowered threaded bodies
            host.swap(plugin_wasm("rr"))
            assert lookups() == (1, 1)
            host.restore(host.checkpoint())
            assert lookups() == (2, 1)
            host.promote()  # a retier that lowers
            assert lookups() == (2, 2)
            host.swap(plugin_wasm("rr"))  # starts compiled
            assert lookups() == (3, 2)
            stats = codecache.stats()
            assert stats["hit_rate"] == 3 / 5
            assert stats["entries"] == stats["modules"] == 1.0
            by_engine = OBS.registry.counter("waran_wasm_codecache_hits_total")
            assert by_engine.value(engine="threaded") == 2.0
            assert by_engine.value(engine="aot") == 1.0
        finally:
            obs.reset()
            obs.disable()


class TestFig5bSwaps:
    @pytest.fixture(autouse=True)
    def telemetry(self):
        obs.enable()  # the table counts its lookups into the registry
        obs.reset()
        yield
        obs.reset()
        obs.disable()

    def test_warm_swaps_decode_nothing_and_cold_ones_miss_once(self):
        """(Their code-cache hit rate per tier is
        ``tests/wasm/test_aot.py::test_fig5b_hot_swap_keeps_hit_rate``.)"""
        binaries = [plugin_wasm(kind) for kind in ("pf", "rr", "mt")]
        host = PluginHost(binaries[2], name="mvno")
        for wasm in binaries[:2]:
            host.swap(wasm)  # every binary seen once
        seen = codecache.stats()["module_misses"]
        for index in range(90):
            host.swap(binaries[index % 3])
        assert codecache.stats()["module_misses"] == seen
        for index in range(30):
            # same code plus a custom section: a content hash never seen
            name = f"fig5b.{index}".encode()
            section = encode_u(len(name)) + name
            host.swap(binaries[index % 3] + b"\x00" + encode_u(len(section)) + section)
        assert codecache.stats()["module_misses"] == seen + 30
