"""Bound metric handles: binding, rebinding after resets and registry
swaps, and the hot sites that hold them (PluginHost, GnbHost, wacc)."""

from dataclasses import replace

import pytest

from repro import obs
from repro.abi import SchedulerPlugin
from repro.abi.host import PluginError, PluginHost
from repro.chaos.schedule import ChaosInjection, OneShotChaos
from repro.channel import FixedMcsChannel
from repro.cluster import ClusterSpec, run_cluster
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.obs import OBS
from repro.obs.registry import BoundMetrics, MetricsRegistry
from repro.plugins import plugin_wasm
from repro.sched import TargetRateInterSlice, UeSchedInfo
from repro.traffic import FullBufferSource
from repro.wacc import compile_source


@pytest.fixture
def telemetry():
    obs.enable()
    obs.reset()
    registry = OBS.registry
    yield OBS
    OBS.registry = registry
    obs.reset()
    obs.disable()


def _ues(n=3):
    return [UeSchedInfo(i + 1, 20, 12, 50_000, 1e6) for i in range(n)]


def _calls(reg, plugin, outcome="ok"):
    return reg.counter("waran_plugin_calls_total").value(
        plugin=plugin, outcome=outcome
    )


PER_CALL_HISTOGRAMS = (
    "waran_plugin_call_us",
    "waran_plugin_fuel_used",
    "waran_wasm_frames",
    "waran_wasm_call_depth_peak",
    "waran_wasm_value_stack_peak",
)


def _assert_one_call_landed(reg, plugin):
    assert _calls(reg, plugin) == 1
    for name in PER_CALL_HISTOGRAMS:
        assert reg.histogram(name).count(plugin=plugin) == 1, name
    assert reg.gauge("waran_plugin_memory_pages").value(plugin=plugin) >= 1


class TestLabelsAndEpoch:
    def test_labels_returns_the_series_the_unbound_api_feeds(self):
        reg = MetricsRegistry()
        handle = reg.counter("c", "help").labels(plugin="pf", outcome="ok")
        handle.inc()
        reg.counter("c").inc(2, outcome="ok", plugin="pf")  # any kwarg order
        assert handle.value == 3
        assert reg.counter("c").labels(outcome="ok", plugin="pf") is handle

    def test_label_values_are_stringified_once(self):
        reg = MetricsRegistry()
        reg.gauge("g").labels(worker=3).set(7)
        assert reg.gauge("g").value(worker="3") == 7
        assert reg.to_json()["g"]["series"][0]["labels"] == {"worker": "3"}

    def test_histogram_handle_observes(self):
        reg = MetricsRegistry()
        handle = reg.histogram("h").labels(plugin="pf")
        for v in (1.0, 2.0, 3.0):
            handle.observe(v)
        assert reg.histogram("h").snapshot(plugin="pf")["count"] == 3

    def test_labels_by_indexes_children_by_the_varying_label(self):
        reg = MetricsRegistry()
        calls = reg.counter("calls").labels_by("outcome", plugin="pf")
        calls["ok"].inc()
        calls["ok"].inc()
        calls["trap"].inc()
        assert reg.counter("calls").value(plugin="pf", outcome="ok") == 2
        assert reg.counter("calls").value(outcome="trap", plugin="pf") == 1
        assert calls["ok"] is reg.counter("calls").labels(plugin="pf", outcome="ok")
        pairs = reg.counter("degraded").labels_by("plugin", "verdict")
        pairs["hog", "reject"].inc(3)
        assert reg.counter("degraded").value(plugin="hog", verdict="reject") == 3
        assert len(reg.to_json()["calls"]["series"]) == 2  # bound on use only

    def test_counter_handle_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").labels().inc(-1)

    def test_reset_bumps_epoch_and_orphans_handles(self):
        reg = MetricsRegistry()
        stale = reg.counter("c").labels()
        epoch = reg.epoch
        reg.reset()
        assert reg.epoch == epoch + 1
        stale.inc()  # lands nowhere visible
        assert reg.to_json() == {}

    def test_bound_metrics_binds_lazily_and_rebinds(self):
        binds = []

        def bind(reg, who):
            binds.append((reg, who))
            return reg.counter("c").labels(who=who)

        bound = BoundMetrics(bind)
        assert binds == []  # nothing resolved until first use
        a, b = MetricsRegistry(), MetricsRegistry()
        bound.get(a, "x").inc()
        bound.get(a, "x").inc()
        assert len(binds) == 1 and a.counter("c").value(who="x") == 2
        a.reset()
        bound.get(a, "x").inc()
        assert len(binds) == 2 and a.counter("c").value(who="x") == 1
        bound.get(b, "x").inc()  # a different registry at the same epoch...
        b.reset()
        a.reset()  # ...and one that happens to share an epoch number
        bound.get(a, "x").inc()
        assert a.counter("c").value(who="x") == 1
        assert b.to_json() == {}


class TestPluginHostHandles:
    def test_series_follow_obs_reset(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
        plugin.schedule(52, _ues(), slot=0)
        obs.reset()
        assert telemetry.registry.to_json() == {}
        plugin.schedule(52, _ues(), slot=1)
        _assert_one_call_landed(telemetry.registry, "pf")

    def test_series_follow_a_registry_swap(self, telemetry):
        plugin = SchedulerPlugin.load(plugin_wasm("rr"), name="rr")
        plugin.schedule(52, _ues(), slot=0)
        orphan = telemetry.registry
        before = orphan.to_json()
        telemetry.registry = MetricsRegistry()
        plugin.schedule(52, _ues(), slot=1)
        _assert_one_call_landed(telemetry.registry, "rr")
        assert orphan.to_json() == before  # nothing leaked into the old one

    def test_series_survive_swap_and_restore(self, telemetry):
        host = PluginHost(plugin_wasm("rr"), name="rr")
        payload = _sched_payload()
        host.call(payload)
        snapshot = host.checkpoint()
        host.swap(plugin_wasm("rr"))
        host.call(payload)
        host.restore(snapshot)
        host.call(payload)
        reg = telemetry.registry
        assert _calls(reg, "rr") == 3
        assert reg.histogram("waran_plugin_fuel_used").count(plugin="rr") == 3
        assert reg.counter("waran_plugin_swaps_total").value(plugin="rr") == 1
        assert reg.counter("waran_plugin_restores_total").value(plugin="rr") == 1

    def test_two_hosts_with_one_name_share_a_series(self, telemetry):
        a = SchedulerPlugin.load(plugin_wasm("mt"), name="shared")
        b = SchedulerPlugin.load(plugin_wasm("mt"), name="shared")
        a.schedule(52, _ues(), slot=0)
        b.schedule(52, _ues(), slot=0)
        reg = telemetry.registry
        assert _calls(reg, "shared") == 2
        series = reg.to_json()["waran_plugin_call_us"]["series"]
        assert [(e["labels"], e["count"]) for e in series] == [
            ({"plugin": "shared"}, 2)
        ]

    def test_binding_waits_for_the_first_call(self, telemetry):
        PluginHost(plugin_wasm("rr"), name="idle")
        assert not [
            name for name in telemetry.registry.names()
            if name.startswith("waran_plugin_")
        ]

    def test_chaos_injected_call_counts_as_before(self, telemetry):
        injection = ChaosInjection("trap", "chaotic", 0)
        host = PluginHost(
            plugin_wasm("rr"), name="chaotic", chaos=OneShotChaos(injection)
        )
        with pytest.raises(PluginError) as excinfo:
            host.call(_sched_payload())
        assert excinfo.value.kind == "trap"
        host.call(_sched_payload())  # the one shot is spent
        reg = telemetry.registry
        assert _calls(reg, "chaotic", "trap") == 1
        assert _calls(reg, "chaotic", "ok") == 1
        assert reg.counter("waran_chaos_injections_total").value(
            plugin="chaotic", kind="trap"
        ) == 1

    def test_rt_budgeted_deadline_call_counts_as_before(self, telemetry):
        host = PluginHost(plugin_wasm("pf"), name="tight")
        host.call(_sched_payload())  # scratch alloc out of the way
        with pytest.raises(PluginError) as excinfo:
            host.call(_sched_payload(), fuel=25, rt={"lane": "be"})
        assert excinfo.value.kind == "deadline"
        reg = telemetry.registry
        assert _calls(reg, "tight", "deadline") == 1
        assert _calls(reg, "tight", "ok") == 1
        assert reg.histogram("waran_plugin_fuel_used").count(plugin="tight") == 2
        rec = telemetry.flight.records()[-1]
        assert rec.outcome == "deadline" and rec.attrs["rt"]["fuel"] == 25


def _sched_payload():
    from repro.abi import wire

    return wire.pack_sched_input(0, 52, _ues())


def _gnb():
    gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 5e6}))
    runtime = gnb.add_slice(SliceRuntime(1, "mvno1"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
    gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
    return gnb


class TestGnbHandles:
    def _assert_slots(self, reg, n):
        assert reg.counter("waran_gnb_slots_total").value() == n
        assert reg.histogram("waran_gnb_slice_exec_us").count(slice="mvno1") == n
        assert reg.counter("waran_gnb_delivered_bytes_total").value(
            slice="mvno1"
        ) > 0
        assert _calls(reg, "rr") == n

    def test_step_follows_reset_and_registry_swap(self, telemetry):
        gnb = _gnb()
        gnb.run(3)
        self._assert_slots(telemetry.registry, 3)
        obs.reset()
        gnb.run(2)
        self._assert_slots(telemetry.registry, 2)
        orphan = telemetry.registry
        before = orphan.to_json()
        telemetry.registry = MetricsRegistry()
        gnb.run(4)
        self._assert_slots(telemetry.registry, 4)
        assert orphan.to_json() == before

    def test_exec_histogram_runs_with_telemetry_off(self):
        assert not OBS.enabled
        gnb = _gnb()
        gnb.run(5)
        exec_us = gnb.slices[1].exec_us
        assert exec_us.count == 5
        assert exec_us.minimum <= exec_us.quantile(0.5) <= exec_us.maximum

    def test_native_slice_opens_no_exec_series(self, telemetry):
        gnb = GnbHost()
        gnb.add_slice(SliceRuntime(1, "native"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
        gnb.run(2)
        assert telemetry.registry.get("waran_gnb_slice_exec_us") is None


class TestWaccCompileTelemetry:
    SOURCE = "export fn run(a: i32, b: i32) -> i32 { return a + b; }"

    def test_metrics_on_tracing_off(self, telemetry):
        """Both switches are public and independent; this used to raise
        AttributeError on the null span's missing ``elapsed_us``."""
        telemetry.tracer.enabled = False
        raw = compile_source(self.SOURCE)
        assert raw[:4] == b"\0asm"
        reg = telemetry.registry
        assert reg.counter("waran_wacc_compiles_total").value() == 1
        snap = reg.histogram("waran_wacc_compile_us").snapshot()
        assert snap["count"] == 1 and snap["min"] > 0
        assert telemetry.tracer.finished() == []

    def test_metrics_and_tracing_on(self, telemetry):
        compile_source(self.SOURCE)
        (span,) = telemetry.tracer.finished()
        assert span.name == "wacc.compile" and span.attrs["wasm_bytes"] > 0
        assert telemetry.registry.histogram("waran_wacc_compile_us").count() == 1


class TestCrossWorkerPercentilesExact:
    def test_fuel_histograms_invariant_under_worker_count(self):
        """Fuel is deterministic per call, so the merged cluster-wide fuel
        distribution - buckets and percentiles - cannot depend on how the
        cells were sharded.  Count-weighted merging could not promise it."""
        spec = ClusterSpec(workers=1, cells=4, ues=8, slots=60, mode="inline")
        try:
            fuel = [
                run_cluster(replace(spec, workers=w)).metrics[
                    "waran_plugin_fuel_used"
                ]["series"]
                for w in (1, 2, 4)
            ]
        finally:
            obs.reset()
            obs.disable()
        assert fuel[0] and all(e["count"] for e in fuel[0])
        for other in fuel[1:]:
            assert [
                (e["labels"], e["count"], e["buckets"], e["p50"], e["p99"])
                for e in other
            ] == [
                (e["labels"], e["count"], e["buckets"], e["p50"], e["p99"])
                for e in fuel[0]
            ]
