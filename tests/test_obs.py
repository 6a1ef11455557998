"""Unified telemetry: registry, spans, flight recorder, events, CLI."""

import json

import pytest

from repro import obs
from repro.abi import SchedulerPlugin
from repro.abi.host import HostLimits, PluginCallResult, PluginError, PluginHost
from repro.obs import OBS, Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer, traced
from repro.plugins import plugin_wasm
from repro.sched import UeSchedInfo
from repro.wasm import Instance, decode_module
from repro.wasm.interpreter import ExecStats
from repro.wasm.wat import assemble


@pytest.fixture
def telemetry():
    """Enable the process-wide telemetry for one test, clean before/after."""
    obs.enable()
    obs.reset()
    yield OBS
    obs.reset()
    obs.disable()


def _ues(n=3):
    return [
        UeSchedInfo(i + 1, 20, 12, 50_000, 1e6) for i in range(n)
    ]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_labels(self):
        reg = MetricsRegistry()
        calls = reg.counter("calls_total", "calls")
        calls.inc(plugin="pf")
        calls.inc(2, plugin="pf")
        calls.inc(plugin="rr")
        assert calls.value(plugin="pf") == 3
        assert calls.value(plugin="rr") == 1
        assert calls.value(plugin="mt") == 0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("pages")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value() == 3

    def test_histogram_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_us")
        for v in range(1, 101):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050)
        assert snap["min"] == 1 and snap["max"] == 100
        assert snap["p50"] == pytest.approx(50, abs=5)
        assert snap["p99"] == pytest.approx(99, abs=5)

    def test_idempotent_registration_and_type_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_json_exposition(self):
        reg = MetricsRegistry()
        reg.counter("c", "a counter").inc(5, k="v")
        reg.histogram("h").observe(1.0)
        doc = reg.to_json()
        assert doc["c"]["type"] == "counter"
        assert doc["c"]["series"] == [{"labels": {"k": "v"}, "value": 5.0}]
        assert doc["h"]["series"][0]["count"] == 1
        json.dumps(doc)  # must be serialisable as-is

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("calls_total", "total calls").inc(3, plugin="pf")
        reg.gauge("pages").set(2)
        h = reg.histogram("lat_us")
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            h.observe(v, plugin="pf")
        text = reg.to_prometheus()
        assert "# HELP calls_total total calls" in text
        assert "# TYPE calls_total counter" in text
        assert 'calls_total{plugin="pf"} 3' in text
        assert "pages 2" in text
        assert "# TYPE lat_us summary" in text
        assert 'lat_us{plugin="pf",quantile="0.5"}' in text
        assert 'lat_us_count{plugin="pf"} 6' in text
        assert 'lat_us_sum{plugin="pf"} 21' in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(name='we"ird\\x')
        text = reg.to_prometheus()
        assert 'name="we\\"ird\\\\x"' in text

    def test_one_prometheus_renderer(self):
        """The registry method *is* ``snapshot_to_prometheus`` of its own
        snapshot; the bytes are pinned over every family kind and every
        escape (quote, backslash, newline) a label value can need."""
        from repro.obs import snapshot_to_prometheus

        reg = MetricsRegistry()
        weird = 'a"b\\c\nd'
        reg.counter("calls_total", "total calls").inc(3, plugin=weird)
        reg.gauge("pages", "memory pages").set(2, plugin=weird)
        h = reg.histogram("lat_us", "latency")
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            h.observe(v, plugin=weird, zone="z")
        reg.histogram("idle_us").labels(plugin="p")  # bound, never observed
        esc = r'plugin="a\"b\\c\nd"'
        assert reg.to_prometheus() == (
            "# HELP calls_total total calls\n"
            "# TYPE calls_total counter\n"
            f"calls_total{{{esc}}} 3\n"
            "# TYPE idle_us summary\n"
            'idle_us_sum{plugin="p"} 0\n'
            'idle_us_count{plugin="p"} 0\n'
            "# HELP lat_us latency\n"
            "# TYPE lat_us summary\n"
            f'lat_us{{{esc},quantile="0.5",zone="z"}} 3.59375\n'
            f'lat_us{{{esc},quantile="0.99",zone="z"}} 5.95625\n'
            f'lat_us_sum{{{esc},zone="z"}} 21\n'
            f'lat_us_count{{{esc},zone="z"}} 6\n'
            "# HELP pages memory pages\n"
            "# TYPE pages gauge\n"
            f"pages{{{esc}}} 2\n"
        )
        assert reg.to_prometheus() == snapshot_to_prometheus(reg.to_json())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("x", a=1)
        assert span is NULL_SPAN
        with span as s:
            s.set(b=2)  # must be a no-op, not an error
        assert tracer.finished() == []

    def test_nesting_records_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            with tracer.span("child"):
                pass
        spans = {s.name: s for s in tracer.finished()}
        assert spans["child"].parent_id == parent.span_id
        assert spans["parent"].parent_id is None
        assert spans["child"].elapsed_us >= 0
        # child finished first
        assert tracer.finished()[0].name == "child"

    def test_exception_marks_error_status(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert "RuntimeError" in span.attrs["error"]

    def test_ring_buffer_caps_history(self):
        tracer = Tracer(capacity=4, enabled=True)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.finished()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_render_tree_indents_children(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")

    def test_traced_decorator(self, telemetry):
        @traced("my.op")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert any(s.name == "my.op" for s in telemetry.tracer.finished())


# ---------------------------------------------------------------------------
# observability bundle
# ---------------------------------------------------------------------------


class TestBundle:
    def test_enable_disable_propagates_to_tracer(self):
        bundle = Observability()
        assert not bundle.enabled and not bundle.tracer.enabled
        bundle.enable()
        assert bundle.enabled and bundle.tracer.enabled
        bundle.disable()
        assert not bundle.enabled and not bundle.tracer.enabled

    def test_reset_clears_all_but_keeps_enabled(self):
        bundle = Observability(enabled=True)
        bundle.registry.counter("c").inc()
        with bundle.tracer.span("s"):
            pass
        bundle.events.emit("e")
        bundle.flight.record("p", "run", 0, b"", PluginCallResult(b"", 1.0, None))
        bundle.reset()
        assert bundle.enabled
        assert bundle.registry.to_json() == {}
        assert bundle.tracer.finished() == []
        assert len(bundle.events) == 0
        assert len(bundle.flight) == 0

    def test_to_json_sections(self):
        bundle = Observability(enabled=True)
        bundle.registry.counter("c").inc()
        doc = bundle.to_json()
        assert set(doc) == {"metrics", "spans", "events", "flight"}
        json.dumps(doc)


# ---------------------------------------------------------------------------
# interpreter exec stats
# ---------------------------------------------------------------------------

FIB = """
(module (func $fib (export "fib") (param i32) (result i32)
  (if (result i32) (i32.lt_s (local.get 0) (i32.const 2))
    (then (local.get 0))
    (else (i32.add (call $fib (i32.sub (local.get 0) (i32.const 1)))
                   (call $fib (i32.sub (local.get 0) (i32.const 2))))))))
"""


class TestExecStats:
    def test_frames_and_depth_counted(self):
        inst = Instance(decode_module(assemble(FIB)))
        stats = inst.store.stats = ExecStats()
        assert inst.call("fib", 8) == 21
        # fib(8) enters fib(n) for every node of the call tree: 67 frames
        assert stats.frames == 67
        assert stats.max_call_depth >= 7
        assert stats.max_value_stack >= 2

    def test_stats_off_by_default(self):
        inst = Instance(decode_module(assemble(FIB)))
        assert inst.store.stats is None
        assert inst.call("fib", 5) == 5


# ---------------------------------------------------------------------------
# plugin host integration
# ---------------------------------------------------------------------------


class TestPluginHostTelemetry:
    PHASES = {"plugin.encode", "plugin.invoke", "plugin.decode"}

    def test_call_emits_span_tree(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        for slot in range(3):
            plugin.schedule(52, _ues(), slot=slot)
        spans = [
            s for s in telemetry.tracer.finished() if s.name.startswith("plugin.")
        ]
        # one span per call: the phases are timestamps on it, not children
        assert [s.name for s in spans] == ["plugin.call"] * 3
        for root in spans:
            assert root.attrs["plugin"] == "rr"
            assert root.attrs["outcome"] == "ok" and root.status == "ok"
            assert set(root.children_us) == self.PHASES
            assert all(us >= 0 for us in root.children_us.values())
            # the phases partition the span: no self-time is left over
            assert root.child_total_us() == pytest.approx(root.elapsed_us)
            assert set(root.to_json()["children_us"]) == self.PHASES

    def test_trapped_call_marks_the_root_span(self, telemetry):
        plugin = SchedulerPlugin.load(
            plugin_wasm("rr"), name="rr", limits=HostLimits(fuel=2_000)
        )
        plugin.schedule(52, _ues(1), slot=0)  # the alloc call fits the budget
        with pytest.raises(PluginError) as info:
            plugin.schedule(52, _ues(40), slot=1)
        assert info.value.kind == "fuel"
        root = telemetry.tracer.finished()[-1]
        assert root.status == "error" and root.attrs["outcome"] == "fuel"
        # the time up to the trap is booked under the phase it cut short
        assert set(root.children_us) == self.PHASES
        assert root.children_us["plugin.invoke"] > 0
        assert root.children_us["plugin.decode"] == 0
        assert root.child_total_us() == pytest.approx(root.elapsed_us)

    def test_guilty_segment_of_a_dense_call_is_invoke(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
        plugin.schedule(52, _ues(48), slot=0)
        root = telemetry.tracer.finished()[-1]
        assert root.name == "plugin.call"
        assert root.guilty_segment()[0] == "plugin.invoke"

    def test_fuel_and_instruction_counts_in_registry(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
        plugin.schedule(52, _ues(), slot=0)
        reg = telemetry.registry
        fuel = reg.histogram("waran_plugin_fuel_used").snapshot(plugin="pf")
        assert fuel["count"] == 1 and fuel["sum"] > 0
        # fuel burns 1 per retired instruction: one series carries both
        (rec,) = telemetry.flight.last(1)
        assert rec.fuel_used == fuel["sum"]
        assert reg.get("waran_plugin_instructions") is None
        frames = reg.histogram("waran_wasm_frames").snapshot(plugin="pf")
        assert frames["count"] == 1 and frames["sum"] >= 1
        stack = reg.histogram("waran_wasm_value_stack_peak").snapshot(plugin="pf")
        assert stack["sum"] >= 1
        assert reg.gauge("waran_plugin_memory_pages").value(plugin="pf") >= 1
        assert (
            reg.counter("waran_plugin_calls_total").value(plugin="pf", outcome="ok")
            == 1
        )

    def test_disabled_means_no_telemetry(self):
        obs.disable()
        obs.reset()
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        plugin.schedule(52, _ues(), slot=0)
        assert OBS.tracer.finished() == []
        assert OBS.registry.to_json() == {}
        assert len(OBS.flight) == 0

    def test_disabled_detaches_exec_stats(self, telemetry):
        """Off means off: the frame accounting a telemetry-on call
        attached must not outlive ``obs.disable()``."""
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        store = plugin.host.instance.store
        plugin.schedule(52, _ues(8), slot=0)
        stats = store.stats
        frames = stats.frames
        assert frames > 0
        obs.disable()
        plugin.schedule(52, _ues(8), slot=1)
        assert store.stats is None
        assert stats.frames == frames  # nothing kept counting into it
        obs.enable()
        plugin.schedule(52, _ues(8), slot=2)
        assert store.stats.frames <= frames  # a per-call count, not a total

    def test_flight_record_captures_call(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("mt"), name="mt")
        call = plugin.schedule(52, _ues(), slot=7)
        (rec,) = telemetry.flight.last(1)
        assert rec.plugin == "mt" and rec.entry == "run"
        assert rec.outcome == "ok" and rec.generation == 0
        assert rec.output_bytes is not None
        assert rec.fuel_used == call.fuel_used
        doc = rec.to_json(max_bytes=8)
        assert doc["input_len"] == len(rec.input_bytes)
        assert "...(+" in doc["input_hex"]
        json.dumps(doc)

    def test_replay_roundtrips_byte_identical(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
        for slot in range(5):
            plugin.schedule(52, _ues(5), slot=slot)
        for rec in telemetry.flight.records():
            result = plugin.host.replay(rec)
            assert result.output == rec.output_bytes

    def test_replay_on_live_instance(self, telemetry):
        # mt is stateless, so even the live instance reproduces the output;
        # stateful plugins (e.g. rr's rotating pointer) need replay()'s
        # fresh instance
        plugin = SchedulerPlugin.load(plugin_wasm("mt"), name="mt")
        plugin.schedule(52, _ues(), slot=0)
        (rec,) = telemetry.flight.last(1)
        result = plugin.host.call(rec.input_bytes, entry=rec.entry)
        assert result.output == rec.output_bytes

    def test_replay_of_stateful_plugin_needs_fresh_instance(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        plugin.schedule(52, _ues(), slot=0)
        (rec,) = telemetry.flight.last(1)
        plugin.schedule(52, _ues(), slot=1)  # advances rr's internal state
        assert plugin.host.replay(rec).output == rec.output_bytes

    def test_swap_emits_event_and_counter(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        plugin.swap(plugin_wasm("pf"))
        (event,) = telemetry.events.events(kind="plugin.swap")
        assert event.source == "rr" and event.fields["generation"] == 1
        assert (
            telemetry.registry.counter("waran_plugin_swaps_total").value(plugin="rr")
            == 1
        )

    def test_deadline_miss_emits_event(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
        with pytest.raises(PluginError) as info:
            plugin.schedule(52, _ues(), slot=0, fuel=1)  # impossible budget
        assert info.value.kind == "deadline"
        (event,) = telemetry.events.events(kind="plugin.deadline")
        assert event.source == "pf"
        assert (
            telemetry.registry.counter("waran_plugin_calls_total").value(
                plugin="pf", outcome="deadline"
            )
            == 1
        )
        (rec,) = telemetry.flight.last(1)
        assert rec.outcome == "deadline"


# ---------------------------------------------------------------------------
# gNB fault events
# ---------------------------------------------------------------------------


class TestGnbFaultEvents:
    def test_record_fault_emits_structured_event(self, telemetry):
        from repro.gnb.fault import FaultAction, FaultPolicy

        policy = FaultPolicy(quarantine_after=2)
        assert policy.record_fault(5, 1, "trap", "boom") == FaultAction.FALLBACK
        assert policy.record_fault(6, 1, "trap", "boom") == FaultAction.QUARANTINE
        events = telemetry.events.events(kind="gnb.fault")
        assert [e.fields["action"] for e in events] == ["fallback", "quarantine"]
        assert events[0].fields["slot"] == 5
        assert events[0].source == "slice:1"
        policy.release(1)
        assert telemetry.events.events(kind="gnb.release")

    def test_gnb_step_span_and_slot_counter(self, telemetry):
        from repro.channel.models import FixedMcsChannel
        from repro.gnb.host import GnbHost, SliceRuntime, UeContext
        from repro.traffic.sources import CbrSource

        gnb = GnbHost()
        gnb.add_slice(SliceRuntime(1, "emb"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(20), CbrSource(1e6)))
        gnb.run(3)
        assert telemetry.registry.counter("waran_gnb_slots_total").value() == 3
        steps = [s for s in telemetry.tracer.finished() if s.name == "gnb.step"]
        assert len(steps) == 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestObsCli:
    @pytest.fixture(autouse=True)
    def _clean_global_obs(self):
        yield
        obs.reset()
        obs.disable()

    def test_json_dump(self, capsys):
        from repro.cli import main

        assert main(["obs", "--calls", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metrics", "spans", "events", "flight"}
        assert "waran_plugin_calls_total" in doc["metrics"]
        assert any(s["name"] == "plugin.call" for s in doc["spans"])
        assert any(e["kind"] == "plugin.swap" for e in doc["events"])
        assert doc["flight"]  # calls were recorded

    def test_json_single_section(self, capsys):
        from repro.cli import main

        assert main(["obs", "--calls", "2", "--section", "metrics"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metrics"}

    def test_prometheus_dump(self, capsys):
        from repro.cli import main

        assert main(["obs", "--calls", "2", "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE waran_plugin_calls_total counter" in text
        assert "# TYPE waran_plugin_call_us summary" in text
        assert 'plugin="pf"' in text

    def test_unknown_plugin_rejected(self, capsys):
        from repro.cli import main

        assert main(["obs", "--plugin", "nope"]) == 1
