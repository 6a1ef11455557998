"""One record per plugin call: telemetry recorded for later reads exactly
as if it had been observed on arrival.

A telemetry-on ``PluginHost.call`` hands one record of references to the
tracer (the ``Span`` is built when read), the flight recorder (the
``CallRecord`` is built when read) and its plugin's batch of registry
samples (folded when full and on every registry read).  These tests pin
that no reader can tell: the JSON at any read point is the JSON an eager
recorder would have produced, reads may race calls, a reset or registry
swap keeps or drops pending samples as it does applied ones, and a span
opened inside a call still parents under its ``plugin.call``.
"""

import json
import random
import sys
import threading
import time

import pytest

from repro import obs
from repro.abi import SchedulerPlugin, wire
from repro.abi.host import CALL_BATCH, PluginHost
from repro.chaos.schedule import ChaosConfig, FaultSchedule
from repro.channel import FixedMcsChannel
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.metrics import LogHistogram
from repro.obs import OBS, EventLog, FlightRecorder, MetricsRegistry, Tracer
from repro.plugins import plugin_wasm
from repro.rt.dispatcher import RtPolicy
from repro.sched import UeSchedInfo
from repro.traffic import FullBufferSource
from repro.wasm import codecache
from repro.wasm.instance import HostFunc
from repro.wasm.wat import assemble
from repro.wasm.wtypes import FuncType

PER_CALL_HISTOGRAMS = (
    "waran_plugin_call_us",
    "waran_plugin_fuel_used",
    "waran_wasm_frames",
    "waran_wasm_call_depth_peak",
    "waran_wasm_value_stack_peak",
)


@pytest.fixture
def telemetry():
    obs.enable()
    obs.reset()
    registry = OBS.registry
    yield OBS
    OBS.registry = registry
    obs.reset()
    obs.disable()


def _payload(n=3):
    return wire.pack_sched_input(
        0, 52, [UeSchedInfo(i + 1, 20, 12, 50_000, 1e6) for i in range(n)]
    )


def _calls(reg, plugin, outcome="ok"):
    return reg.counter("waran_plugin_calls_total").value(
        plugin=plugin, outcome=outcome
    )


# ---------------------------------------------------------------------------
# differential: reading after every call vs at random points
# ---------------------------------------------------------------------------


class _Clock:
    """A deterministic stand-in for ``time.perf_counter_ns``: two runs
    that read it in the same order see the same times, so every timing -
    float sums in call order included - must come out bit-identical."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.now = 10**9

    def __call__(self) -> int:
        self.now += self._rng.randrange(1, 50_000)
        return self.now


def _cell() -> GnbHost:
    """Four plugin slices - two share a plugin name, so their calls share
    one batch - under the rt policy and a seeded fault schedule."""
    gnb = GnbHost(rt=RtPolicy())
    chaos = FaultSchedule(
        ChaosConfig(
            seed=5, trap=0.02, fuel_cut=0.02, bitflip=0.01, abi=0.02,
            oversize=0.01, deadline=0.02,
        )
    )
    for sid, (kind, name) in enumerate(
        (("rr", "rr"), ("pf", "pf"), ("mt", "shared"), ("mt", "shared")), start=1
    ):
        runtime = gnb.add_slice(SliceRuntime(sid, f"s{sid}"))
        runtime.use_plugin(
            SchedulerPlugin.load(plugin_wasm(kind), name=name, chaos=chaos)
        )
        for u in range(3):
            gnb.attach_ue(
                UeContext(sid * 10 + u, sid, FixedMcsChannel(8 + 6 * u),
                          FullBufferSource())
            )
    return gnb


def _masked(doc: dict) -> str:
    """The telemetry document with span identities renumbered in order of
    appearance (a tracer's ids carry a random per-process prefix)."""
    ids: dict[int, int] = {}

    def renumber(value):
        return None if value is None else ids.setdefault(value, len(ids))

    for span in doc["spans"]:
        span["trace_id"] = renumber(span["trace_id"])
        span["span_id"] = renumber(span["span_id"])
        span["parent_id"] = renumber(span["parent_id"])
    return json.dumps(doc, sort_keys=True)


def _run_cell(monkeypatch, read_now) -> dict[int, str]:
    """Run the cell on fresh telemetry and a fresh clock; after call ``i``
    read everything when ``read_now(i)``.  Returns ``{i: document}``."""
    for kind in ("rr", "pf", "mt"):
        plugin_wasm(kind)  # compiled (and traced) once per process
    codecache.clear()  # promotion at the same call on every run
    monkeypatch.setattr(OBS, "registry", MetricsRegistry())
    monkeypatch.setattr(OBS, "tracer", Tracer(capacity=64, enabled=True))
    monkeypatch.setattr(OBS, "flight", FlightRecorder(capacity=32))
    monkeypatch.setattr(OBS, "events", EventLog(capacity=64))
    monkeypatch.setattr(time, "perf_counter_ns", _Clock(seed=17))
    gnb = _cell()
    reads: dict[int, str] = {}
    calls = 0

    def reading(call):
        def wrapper(*args, **kwargs):
            nonlocal calls
            try:
                return call(*args, **kwargs)
            finally:
                calls += 1
                if read_now(calls):
                    reads[calls] = _masked(OBS.to_json())

        return wrapper

    for runtime in gnb.slices.values():
        host = runtime.plugin.host
        host.call = reading(host.call)
    gnb.run(520)
    reads[calls + 1] = _masked(OBS.to_json())
    return reads


def test_reads_at_random_points_see_what_reading_every_call_sees(
    telemetry, monkeypatch
):
    eager = _run_cell(monkeypatch, lambda i: True)
    rng = random.Random(3)
    # a few reads early, then a gap long enough for full batches to fold
    # on the recording side before anything reads them
    late = 200 + 3 * CALL_BATCH
    points = set(rng.sample(range(1, 200), 4)) | {late}
    sparse = _run_cell(monkeypatch, points.__contains__)
    assert max(eager) > late + 1 and len(sparse) == 6
    for point, doc in sparse.items():
        assert doc == eager[point], f"read after call {point} differs"
    final = json.loads(sparse[max(sparse)])
    outcomes = {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in final["metrics"]["waran_plugin_calls_total"]["series"]
    }
    # the schedule really did fault, so every outcome path was recorded
    assert {dict(k)["outcome"] for k in outcomes} > {"ok"}


# ---------------------------------------------------------------------------
# reads racing calls
# ---------------------------------------------------------------------------


def test_a_reader_thread_never_loses_a_call(telemetry):
    """Three threads record into one shared batch (three hosts, one plugin
    name) while a fourth reads the registry in a loop: every fold races
    appends, and the final counts must still be exact."""
    payload = _payload()
    hosts = [PluginHost(plugin_wasm("rr"), name="raced") for _ in range(3)]
    for host in hosts:  # bind the series before the threads race
        host.call(payload)
    n = 2 * CALL_BATCH + 17
    stop = threading.Event()
    reads = []

    def reader():
        while not stop.is_set():
            reads.append(OBS.registry.to_json())

    def caller(host):
        for _ in range(n):
            host.call(payload)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    callers = [threading.Thread(target=caller, args=(h,)) for h in hosts]
    threads = [threading.Thread(target=reader), *callers]
    try:
        for thread in threads:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(reads) > 1
    reg = OBS.registry
    total = len(hosts) * (n + 1)
    assert _calls(reg, "raced") == total
    for name in PER_CALL_HISTOGRAMS:
        assert reg.histogram(name).count(plugin="raced") == total, name


# ---------------------------------------------------------------------------
# resets and registry swaps with samples pending
# ---------------------------------------------------------------------------


def test_reset_drops_pending_calls_like_applied_ones(telemetry):
    host = PluginHost(plugin_wasm("pf"), name="pf")
    for _ in range(CALL_BATCH + 5):  # one full batch folded, five pending
        host.call(_payload())
    obs.reset()
    assert OBS.registry.to_json() == {}
    host.call(_payload())
    reg = OBS.registry
    assert _calls(reg, "pf") == 1
    for name in PER_CALL_HISTOGRAMS:
        assert reg.histogram(name).count(plugin="pf") == 1, name


def test_a_swapped_out_registry_keeps_its_pending_calls(telemetry):
    host = PluginHost(plugin_wasm("mt"), name="mt")
    for _ in range(7):
        host.call(_payload())
    orphan = OBS.registry
    OBS.registry = MetricsRegistry()
    host.call(_payload())
    assert _calls(OBS.registry, "mt") == 1
    assert _calls(orphan, "mt") == 7  # folded on this read, not lost
    assert orphan.histogram("waran_plugin_fuel_used").count(plugin="mt") == 7


def test_lookups_and_binds_do_not_fold(telemetry):
    host = PluginHost(plugin_wasm("rr"), name="lazy")
    host.call(_payload())
    reg = OBS.registry
    child = reg.histogram("waran_plugin_fuel_used").labels(plugin="lazy")
    assert child.count == 0  # pending: a lookup and a bind are not reads
    assert reg.histogram("waran_plugin_fuel_used").count(plugin="lazy") == 1
    assert child.count == 1


# ---------------------------------------------------------------------------
# the grouped fold is exact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "values",
    [
        [(0, 3)],
        [(1, 1), (7, 40), (18710, 255)],
        [(-5, 2), (2**20 + 3, 9), (3, 1000), (0, 1)],
    ],
)
def test_add_n_equals_n_adds_for_integers(values):
    grouped, one_by_one = LogHistogram(), LogHistogram()
    for value, n in values:
        grouped.add_n(value, n)
        for _ in range(n):
            one_by_one.add(value)
    for field in ("count", "total", "sumsq", "minimum", "maximum", "buckets"):
        assert getattr(grouped, field) == getattr(one_by_one, field), field
    assert grouped.snapshot() == one_by_one.snapshot()


# ---------------------------------------------------------------------------
# spans opened inside a call
# ---------------------------------------------------------------------------

EMBEDDING = assemble(
    """(module
  (import "env" "embedder_op" (func $op))
  (memory (export "memory") 1)
  (func (export "alloc") (param i32) (result i32) (i32.const 64))
  (func (export "run") (param i32 i32) (result i32) (call $op) (i32.const 0)))"""
)


def _embedding_host(fn) -> PluginHost:
    return PluginHost(
        EMBEDDING, name="embed", sanitize=False,
        extra_hostfuncs={"embedder_op": HostFunc(FuncType((), ()), fn)},
    )


def test_a_span_a_host_function_opens_parents_under_plugin_call(telemetry):
    seen = []

    def op(caller):
        seen.append(OBS.tracer.current())
        with OBS.tracer.span("embedder.op"):
            pass

    host = _embedding_host(op)
    with OBS.tracer.span("outer") as outer:
        host.call(b"abcd")
    inner, call, root = OBS.tracer.finished()
    assert (inner.name, call.name, root.name) == (
        "embedder.op", "plugin.call", "outer"
    )
    assert inner.parent_id == call.span_id and inner.trace_id == call.trace_id
    assert call.parent_id == root.span_id and call.trace_id == root.trace_id
    assert seen == [call.context]  # what the host function saw as current
    assert call.span_id < inner.span_id  # ids in call order
    assert outer.children_us == {"plugin.call": call.elapsed_us}
    assert set(call.children_us) == {
        "plugin.encode", "plugin.invoke", "plugin.decode"
    }
    assert OBS.tracer.current() is None


def test_an_exception_a_call_lets_through_closes_its_span(telemetry):
    def op(caller):
        raise KeyError("embedder bug")

    host = _embedding_host(op)
    with pytest.raises(KeyError):
        host.call(b"abcd")
    (span,) = OBS.tracer.finished()
    assert span.name == "plugin.call" and span.status == "error"
    assert span.attrs == {
        "plugin": "embed", "entry": "run", "error": "KeyError: 'embedder bug'"
    }
    assert OBS.tracer.current() is None
    assert len(OBS.flight) == 0  # as before: the call has no report
