"""One record per plugin call: telemetry recorded for later reads exactly
as if it had been observed on arrival.

A telemetry-on ``PluginHost.call`` hands one record of references to the
flight recorder (the ``CallRecord`` is built when read) and its plugin's
batch of registry samples (folded when full and on every registry read),
and, traced, writes its span to the tracer's ring when it closes (the
``Span`` is built when read).  These tests pin that no reader can tell:
the JSON at any read point is the JSON an eager recorder would have
produced, reads may race calls, a reset or a registry or tracer swap
keeps or drops pending samples as it does applied ones, and a span
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


def _run(monkeypatch, after_call, tracer: Tracer, flight: FlightRecorder, slots: int):
    """Run the cell for ``slots`` slots on fresh telemetry and a fresh
    clock, calling ``after_call(i)`` after call ``i``; returns the number
    of calls made."""
    for kind in ("rr", "pf", "mt"):
        plugin_wasm(kind)  # compiled (and traced) once per process
    codecache.clear()  # promotion at the same call on every run
    monkeypatch.setattr(OBS, "registry", MetricsRegistry())
    monkeypatch.setattr(OBS, "tracer", tracer)
    monkeypatch.setattr(OBS, "flight", flight)
    monkeypatch.setattr(OBS, "events", EventLog(capacity=64))
    monkeypatch.setattr(time, "perf_counter_ns", _Clock(seed=17))
    gnb = _cell()
    calls = 0

    def reading(call):
        def wrapper(*args, **kwargs):
            nonlocal calls
            try:
                return call(*args, **kwargs)
            finally:
                calls += 1
                after_call(calls)

        return wrapper

    for runtime in gnb.slices.values():
        host = runtime.plugin.host
        host.call = reading(host.call)
    gnb.run(slots)
    return calls


def _run_cell(monkeypatch, read_now) -> dict[int, str]:
    """Run the cell on small rings; after call ``i`` read everything when
    ``read_now(i)``.  Returns ``{i: document}``."""
    reads: dict[int, str] = {}

    def read(i):
        if read_now(i):
            reads[i] = _masked(OBS.to_json())

    calls = _run(
        monkeypatch, read, Tracer(capacity=64, enabled=True),
        FlightRecorder(capacity=32), 520,
    )
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


def test_reads_after_both_rings_overflowed_see_what_an_eager_recorder_left(
    telemetry, monkeypatch
):
    """The default rings, 4096 spans and 256 calls, overflowed several
    times over between two reads: the tracer and the flight recorder still
    hold what recording every span and call on arrival would have left,
    and the series count every call.  The eager side drains every span and
    reads every series after each call, so nothing it records waits."""
    drained: list[dict] = []

    def eager(i):
        drained.extend(OBS.tracer.drain_finished())
        OBS.registry.to_json()

    calls = _run(monkeypatch, eager, Tracer(enabled=True), FlightRecorder(), 1600)
    drained.extend(OBS.tracer.drain_finished())
    assert len(drained) > OBS.tracer.capacity and calls > OBS.flight.capacity
    expected = _masked({
        "metrics": OBS.registry.to_json(),
        "spans": drained[-OBS.tracer.capacity:],
        "events": OBS.events.to_json(),
        "flight": OBS.flight.to_json(),
    })
    assert _run(monkeypatch, lambda i: None, Tracer(enabled=True), FlightRecorder(), 1600) == calls
    assert len(OBS.calls) == calls % CALL_BATCH  # the last ones wait in the log
    doc = OBS.to_json()
    assert len(doc["spans"]) == OBS.tracer.capacity
    assert len(doc["flight"]) == OBS.flight.capacity
    assert doc["flight"][-1]["seq"] == calls
    assert sum(
        series["value"]
        for series in doc["metrics"]["waran_plugin_calls_total"]["series"]
    ) == calls
    assert _masked(doc) == expected


def test_a_registry_read_needs_no_tracer(telemetry):
    OBS.tracer.enabled = False
    host = PluginHost(plugin_wasm("rr"), name="untraced")
    for _ in range(3):
        host.call(_payload())
    reg = OBS.registry
    assert _calls(reg, "untraced") == 3
    for name in PER_CALL_HISTOGRAMS:
        assert reg.histogram(name).count(plugin="untraced") == 3, name
    assert OBS.tracer.finished() == []
    assert [record.plugin for record in OBS.flight.records()] == ["untraced"] * 3


def test_a_trace_read_with_flight_capture_on(telemetry, monkeypatch):
    monkeypatch.setattr(OBS.flight, "capture", True)
    host = PluginHost(plugin_wasm("pf"), name="captured")
    with OBS.tracer.span("outer") as outer:
        for _ in range(3):
            host.call(_payload())
    # the first read of anything is the tracer's: the calls wrote its ring
    *calls, root = OBS.tracer.finished()
    assert root is outer
    assert [span.name for span in calls] == ["plugin.call"] * 3
    assert {span.parent_id for span in calls} == {outer.span_id}
    assert outer.children_us == {
        "plugin.call": sum(span.elapsed_us for span in calls)
    }
    assert all("pre" in record.attrs for record in OBS.flight.records())
    assert host.module_sha in OBS.flight.modules


def test_a_drain_mid_run_keeps_each_call_among_its_neighbours(telemetry):
    gnb = GnbHost()
    for sid, kind in enumerate(("rr", "mt"), start=1):
        gnb.add_slice(SliceRuntime(sid, kind)).use_plugin(
            SchedulerPlugin.load(plugin_wasm(kind), name=kind)
        )
        gnb.attach_ue(UeContext(sid, sid, FixedMcsChannel(12), FullBufferSource()))
    tracer = OBS.tracer
    with tracer.span("before"):
        pass
    gnb.step()
    with tracer.span("between"):
        pass
    first = tracer.drain_finished()
    gnb.step()
    second = tracer.drain_finished()
    assert [doc["name"] for doc in first] == [
        "before", "plugin.call", "plugin.call", "gnb.step", "between"
    ]
    assert [doc["name"] for doc in second] == [
        "plugin.call", "plugin.call", "gnb.step"
    ]
    for docs in (first, second):
        step = next(doc for doc in docs if doc["name"] == "gnb.step")
        calls = [doc for doc in docs if doc["name"] == "plugin.call"]
        assert {doc["parent_id"] for doc in calls} == {step["span_id"]}
        assert [doc["attrs"]["plugin"] for doc in calls] == ["rr", "mt"]
    assert tracer.drain_finished() == []


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


def test_a_swapped_out_tracer_keeps_the_calls_that_closed_under_it(
    telemetry, monkeypatch
):
    """Each tracer holds the ``plugin.call`` spans of exactly the calls that
    closed while it was installed - logged calls not yet folded included -
    in finish order among its ``gnb.step`` spans."""
    gnb = GnbHost()
    for sid, kind in enumerate(("rr", "mt"), start=1):
        gnb.add_slice(SliceRuntime(sid, kind)).use_plugin(
            SchedulerPlugin.load(plugin_wasm(kind), name=kind)
        )
        gnb.attach_ue(UeContext(sid, sid, FixedMcsChannel(12), FullBufferSource()))
    first, second = Tracer(enabled=True), Tracer(enabled=True)
    monkeypatch.setattr(OBS, "tracer", first)
    gnb.step()
    gnb.step()
    OBS.tracer = second
    gnb.step()
    OBS.tracer = first
    gnb.step()
    assert len(OBS.calls) == 8  # a tracer swap folds nothing
    for tracer, slots in ((first, [0, 1, 3]), (second, [2])):
        spans = tracer.finished()
        assert [span.name for span in spans] == [
            "plugin.call", "plugin.call", "gnb.step"
        ] * len(slots)
        steps = spans[2::3]
        assert [step.attrs["slot"] for step in steps] == slots
        for i, step in enumerate(steps):
            calls = spans[3 * i:3 * i + 2]
            assert [call.attrs["plugin"] for call in calls] == ["rr", "mt"]
            assert {call.parent_id for call in calls} == {step.span_id}
            assert all(
                step.start_ns <= call.start_ns <= call.end_ns <= step.end_ns
                for call in calls
            )


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


# ---------------------------------------------------------------------------
# the E2 uplink's per-message spans: marks that export what `with` spans did
# ---------------------------------------------------------------------------

#: sha256 of the masked trace :func:`_uplink_trace` leaves, taken when
#: ``e2.encode``, ``ric.xapp.dispatch`` and ``uplink.flush`` were ``with``
#: spans, each building a ``Span`` per message
UPLINK_TRACE_SHA = "e16c8e4267cc6f0e7f49bc4d3b3d222cde8027d6de3a0de3065cc3cc22e8a1e8"
UPLINK_SPANS_SHA = "584b108c3003944b6c83441266021e2d854b6d87acb8aa9d8017b3f47b16c2ff"


class _Broken:
    """A vendor profile whose encoder has a bug."""

    def encode(self, message):
        raise ValueError("vendor bug")


def _ranked(docs: list[dict]) -> list[dict]:
    """Span docs with every id replaced by its rank among all the ids (so
    the order ids were drawn in is kept, the per-process prefix is not)
    and the thread left out."""
    ids = sorted({
        value for doc in docs
        for value in (int(doc["trace_id"], 16), doc["span_id"], doc["parent_id"])
        if value is not None
    })
    rank = {value: i for i, value in enumerate(ids)}
    out = []
    for doc in docs:
        doc = dict(doc, thread_id=0, span_id=rank[doc["span_id"]])
        doc["trace_id"] = rank[int(doc["trace_id"], 16)]
        if doc["parent_id"] is not None:
            doc["parent_id"] = rank[doc["parent_id"]]
        out.append(doc)
    return out


def _uplink_trace(monkeypatch) -> list[dict]:
    """Two native cells reporting KPM every slot through one batched
    uplink, demultiplexed into a supervised RIC whose SLA xApp traps now
    and then (so some dispatches retry and some give up), under a stepped
    clock; then an encode, a flush and a dispatch that an exception
    leaves.  Returns the exported trace, ids ranked."""
    from repro.chaos.supervisor import Supervisor
    from repro.channel import MarkovCqiChannel
    from repro.e2 import messages, vendors
    from repro.e2.batch import BatchedUplinkChannel, iter_batch_frame
    from repro.e2.comm import CommChannel
    from repro.e2.node import E2NodeAgent
    from repro.netio import BatchSender, InProcNetwork, NetworkError
    from repro.ric import wire as ric_wire
    from repro.ric.host import NearRtRic
    from repro.sched import make_intra_scheduler
    from repro.sched.inter import TargetRateInterSlice
    from repro.traffic import CbrSource

    plugin_wasm("xapp_sla")
    monkeypatch.setattr(OBS, "registry", MetricsRegistry())
    monkeypatch.setattr(OBS, "tracer", Tracer(enabled=True))
    monkeypatch.setattr(OBS, "flight", FlightRecorder())
    monkeypatch.setattr(OBS, "events", EventLog(capacity=64))
    monkeypatch.setattr(time, "perf_counter_ns", _Clock(seed=29))
    tracer = OBS.tracer
    net = InProcNetwork()
    coord = net.endpoint("coord")
    sender = BatchSender(net.endpoint("worker0"), "coord")
    profile = vendors.vendor_b()
    cells = []
    for g in range(2):
        gnb = GnbHost()
        for sid, kind in enumerate(("rr", "pf"), start=1):
            gnb.add_slice(SliceRuntime(sid, kind)).use_native(
                make_intra_scheduler(kind)
            )
        gnb.inter_slice = TargetRateInterSlice({1: 8e6, 2: 8e6})
        for i in range(4):
            gnb.attach_ue(UeContext(
                10 * g + i + 1, i % 2 + 1,
                MarkovCqiChannel(initial_cqi=6 + i, p_step=0.3, seed=g * 7 + i),
                CbrSource(rate_bps=(3 + i) * 1e6),
            ))
        name = f"cell{g}"
        node = E2NodeAgent(gnb, BatchedUplinkChannel(name, profile, sender), name)
        node.local_subscribe(g + 1, "coord", 1)
        cells.append((name, gnb, node))
    ingress = {name: net.endpoint(name) for name, _, _ in cells}
    supervisor = Supervisor(seed=3)
    ric = NearRtRic(
        CommChannel(net.endpoint("ric"), profile), supervisor=supervisor
    )
    ric.load_xapp(
        "sla", plugin_wasm("xapp_sla"), (ric_wire.MSG_SLICE_KPI,),
        chaos=FaultSchedule(ChaosConfig(seed=11, trap=0.35)),
    )
    for g, (name, _, _) in enumerate(cells):
        ric.register_node(name, subscription_id=g + 1)

    def uplink(lo: int, hi: int) -> None:
        with tracer.span("range", lo=lo):
            sender.flush(slot_range=(lo, hi))
        for _source, data in coord.drain():
            for node, payload in iter_batch_frame(data):
                ingress[node].send("ric", payload)
        with tracer.span("ric"):
            ric.step()
        for endpoint in ingress.values():
            endpoint.drain()

    def cell_slots() -> None:
        for name, gnb, node in cells:
            with tracer.span("cell_slot", cell=name):
                gnb.step()
                node.step()

    for slot in range(24):
        cell_slots()
        if slot % 3 == 2:
            uplink(slot - 2, slot)
    assert supervisor.retries and ric.xapps["sla"].faults
    # an exception leaves each of the three spans
    broken = BatchedUplinkChannel("cell9", _Broken(), sender)
    with tracer.span("outer"), pytest.raises(ValueError):
        broken.send("coord", messages.control_ack(1, True))
    stray = BatchSender(net.endpoint("worker1"), "nowhere")
    stray.offer(b"entry")
    with tracer.span("outer"), pytest.raises(NetworkError):
        stray.flush(slot_range=(24, 24))
    cell_slots()

    def buggy(raw):
        raise RuntimeError("wire bug")

    monkeypatch.setattr(ric_wire, "unpack_xapp_actions", buggy)
    with pytest.raises(RuntimeError):
        uplink(24, 24)
    return _ranked(OBS.tracer.to_json())


def _sha(docs) -> str:
    import hashlib

    text = json.dumps(docs, separators=(",", ":"))  # key order counts
    return hashlib.sha256(text.encode()).hexdigest()


def test_uplink_span_marks_export_what_with_spans_did(telemetry, monkeypatch):
    """Names, attrs (in order), ids in draw order, parents, times under the
    stepped clock, ``children_us`` and ring order: the whole exported trace
    is the one the ``with`` spans left, and so are the three spans' own
    docs."""
    docs = _uplink_trace(monkeypatch)
    marked = ("e2.encode", "ric.xapp.dispatch", "uplink.flush")
    by_id = {doc["span_id"]: doc for doc in docs}
    errors = [
        doc for doc in docs
        if doc["status"] == "error" and doc["name"] != "plugin.call"
    ]
    assert [(doc["name"], doc["attrs"]) for doc in errors] == [
        ("e2.encode", {"node": "cell9", "error": "ValueError: vendor bug"}),
        ("uplink.flush", {
            "dest": "nowhere", "error": "NetworkError: no endpoint named 'nowhere'"
        }),
        ("ric.xapp.dispatch", {
            "xapp": "sla", "msg_type": 2, "error": "RuntimeError: wire bug"
        }),
        ("ric", {"error": "RuntimeError: wire bug"}),
    ]
    for doc in docs:
        parent = by_id.get(doc["parent_id"])
        if doc["name"] == "e2.encode" and doc["status"] == "ok":
            assert parent["name"] == "cell_slot"
            assert "e2.encode" in parent["children_us"]
        elif doc["name"] == "uplink.flush":
            assert parent["name"] in ("range", "outer")
            assert set(parent["children_us"]) == {"uplink.flush"}
        elif doc["name"] == "ric.xapp.dispatch":
            assert parent["name"] == "ric"
            assert set(doc["children_us"]) == {"plugin.call"}
    calls_under = {}
    for doc in docs:
        if doc["name"] == "plugin.call":
            calls_under[doc["parent_id"]] = calls_under.get(doc["parent_id"], 0) + 1
    assert {by_id[parent]["name"] for parent in calls_under} == {
        "ric.xapp.dispatch"
    }
    assert max(calls_under.values()) > 1  # a retried dispatch
    assert _sha([doc for doc in docs if doc["name"] in marked]) == UPLINK_SPANS_SHA
    assert _sha(docs) == UPLINK_TRACE_SHA
