"""Plugin pipeline tests: WACC source -> Wasm -> sandbox -> grants.

The central property is *differential equivalence*: for any slice state,
the Wasm plugin must produce exactly the grants the native reference
scheduler produces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abi import SchedulerPlugin, sanitize_plugin
from repro.abi.host import HostLimits, PluginError, PluginHost
from repro.plugins import (
    FAULT_PLUGINS,
    SCHEDULER_PLUGINS,
    available_plugins,
    plugin_wasm,
)
from repro.sched import (
    MaximumThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    UeSchedInfo,
    validate_grants,
)

_NATIVE = {
    "rr": RoundRobinScheduler,
    "pf": ProportionalFairScheduler,
    "mt": MaximumThroughputScheduler,
}


def make_plugin(name: str, **kwargs) -> SchedulerPlugin:
    return SchedulerPlugin.load(plugin_wasm(name), name=name, **kwargs)


def grants_dict(grants):
    return {g.ue_id: g.prbs for g in grants}


ue_strategy = st.builds(
    UeSchedInfo,
    ue_id=st.integers(0, 200),
    mcs=st.integers(0, 28),
    cqi=st.integers(0, 15),
    buffer_bytes=st.integers(0, 2_000_000),
    avg_tput_bps=st.floats(0, 1e8, allow_nan=False),
)


def unique_ues(ues):
    seen = {}
    for ue in ues:
        seen[ue.ue_id] = ue
    return list(seen.values())


class TestCompilation:
    @pytest.mark.parametrize("name", available_plugins())
    def test_all_plugins_compile(self, name):
        assert plugin_wasm(name)[:4] == b"\x00asm"

    @pytest.mark.parametrize("name", SCHEDULER_PLUGINS + FAULT_PLUGINS + ("leaky",))
    def test_scheduler_plugins_pass_sanitizer(self, name):
        report = sanitize_plugin(plugin_wasm(name))
        assert report.memory_max_pages is not None
        assert set(report.imports_used) <= {"tbs_bits", "log", "now_slot"}


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("name", SCHEDULER_PLUGINS)
    def test_simple_case(self, name):
        ues = [
            UeSchedInfo(1, 28, 15, 100_000, 5e6),
            UeSchedInfo(2, 20, 11, 100_000, 1e6),
            UeSchedInfo(3, 24, 13, 50_000, 3e6),
        ]
        plugin = make_plugin(name)
        native = _NATIVE[name]()
        for slot in range(10):
            got = plugin.schedule(52, ues, slot).grants
            want = native.schedule(52, ues, slot)
            assert grants_dict(got) == grants_dict(want), f"slot {slot}"

    @pytest.mark.parametrize("name", SCHEDULER_PLUGINS)
    def test_empty_buffers_produce_no_grants(self, name):
        ues = [UeSchedInfo(1, 10, 7, 0, 0.0)]
        assert make_plugin(name).schedule(52, ues, 0).grants == []

    @pytest.mark.parametrize("name", SCHEDULER_PLUGINS)
    def test_no_ues(self, name):
        assert make_plugin(name).schedule(52, [], 0).grants == []

    @pytest.mark.parametrize("name", SCHEDULER_PLUGINS)
    def test_zero_prbs(self, name):
        ues = [UeSchedInfo(1, 10, 7, 1000, 0.0)]
        assert make_plugin(name).schedule(0, ues, 0).grants == []

    @pytest.mark.parametrize("name", SCHEDULER_PLUGINS)
    @given(
        ues=st.lists(ue_strategy, min_size=0, max_size=12),
        prbs=st.integers(0, 106),
        slots=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_differential_property(self, name, ues, prbs, slots):
        ues = unique_ues(ues)
        plugin = make_plugin(name)
        native = _NATIVE[name]()
        for slot in range(slots):  # multiple slots exercise RR pointer state
            got = plugin.schedule(prbs, ues, slot).grants
            want = native.schedule(prbs, ues, slot)
            assert grants_dict(got) == grants_dict(want)
            validate_grants(got, prbs, ues)

    def test_rr_pointer_state_survives_calls(self):
        """RR rotation is plugin state; it must persist across slots."""
        ues = [UeSchedInfo(i, 15, 9, 10_000_000, 0.0) for i in range(3)]
        plugin = make_plugin("rr")
        results = [grants_dict(plugin.schedule(52, ues, s).grants) for s in range(3)]
        # 52 = 3*17 + 1: the extra PRB must rotate across UEs
        extra_holder = [max(r, key=r.get) for r in results]
        assert len(set(extra_holder)) == 3

    def test_rr_state_reset_on_swap(self):
        ues = [UeSchedInfo(i, 15, 9, 10_000_000, 0.0) for i in range(3)]
        plugin = make_plugin("rr")
        first = grants_dict(plugin.schedule(52, ues, 0).grants)
        plugin.schedule(52, ues, 1)
        plugin.swap(plugin_wasm("rr"))  # hot swap resets plugin globals
        after = grants_dict(plugin.schedule(52, ues, 2).grants)
        assert after == first


class TestSchedulingBehaviour:
    def test_mt_starves_worst_ue(self):
        ues = [
            UeSchedInfo(1, 20, 11, 10_000_000, 0.0),
            UeSchedInfo(2, 28, 15, 10_000_000, 0.0),
        ]
        grants = grants_dict(make_plugin("mt").schedule(52, ues, 0).grants)
        assert grants.get(2) == 52
        assert 1 not in grants

    def test_pf_prefers_low_average_tput(self):
        ues = [
            UeSchedInfo(1, 20, 11, 10_000_000, 50e6),  # well served
            UeSchedInfo(2, 20, 11, 10_000_000, 1e3),  # starved
        ]
        grants = grants_dict(make_plugin("pf").schedule(52, ues, 0).grants)
        assert grants.get(2) == 52

    def test_rr_equal_shares(self):
        ues = [UeSchedInfo(i, 15, 9, 10_000_000, 0.0) for i in range(4)]
        grants = grants_dict(make_plugin("rr").schedule(52, ues, 0).grants)
        assert sum(grants.values()) == 52
        assert all(13 <= v <= 13 for v in grants.values())

    def test_buffer_limited_ue_releases_prbs(self):
        ues = [
            UeSchedInfo(1, 15, 9, 100, 0.0),  # tiny buffer
            UeSchedInfo(2, 15, 9, 10_000_000, 0.0),
        ]
        grants = grants_dict(make_plugin("rr").schedule(52, ues, 0).grants)
        assert grants[1] <= 3
        assert grants[2] >= 49


class TestFaultPlugins:
    @pytest.mark.parametrize("name", ["fault_null", "fault_oob"])
    def test_memory_faults_trap(self, name):
        plugin = make_plugin(name)
        ues = [UeSchedInfo(1, 10, 7, 1000, 0.0)]
        with pytest.raises(PluginError) as exc:
            plugin.schedule(52, ues, 0)
        assert exc.value.kind == "trap"

    def test_double_free_trapped(self):
        plugin = make_plugin("fault_dblfree")
        with pytest.raises(PluginError) as exc:
            plugin.schedule(52, [UeSchedInfo(1, 10, 7, 1000, 0.0)], 0)
        assert exc.value.kind == "trap"

    def test_spin_exhausts_fuel(self):
        plugin = make_plugin("fault_spin")
        with pytest.raises(PluginError) as exc:
            plugin.schedule(52, [UeSchedInfo(1, 10, 7, 1000, 0.0)], 0)
        assert exc.value.kind == "fuel"

    def test_bad_grants_are_well_formed_but_invalid(self):
        plugin = make_plugin("fault_badgrants")
        ues = [UeSchedInfo(1, 10, 7, 1000, 0.0)]
        call = plugin.schedule(52, ues, 0)  # ABI-valid...
        from repro.sched.types import GrantValidationError

        with pytest.raises(GrantValidationError):  # ...semantically invalid
            validate_grants(call.grants, 52, ues)

    def test_host_survives_faults_and_keeps_scheduling(self):
        """The §5D headline: trap, catch, continue."""
        good = make_plugin("mt")
        bad = make_plugin("fault_oob")
        ues = [UeSchedInfo(1, 28, 15, 100_000, 0.0)]
        for slot in range(3):
            with pytest.raises(PluginError):
                bad.schedule(52, ues, slot)
            grants = good.schedule(52, ues, slot).grants
            assert grants  # the healthy plugin is unaffected


class TestLeakConfinement:
    def test_leak_grows_plugin_memory_up_to_cap_only(self):
        plugin = make_plugin("leaky")
        ues = [UeSchedInfo(1, 15, 9, 100_000, 0.0)]
        start_pages = plugin.host.memory_pages
        for slot in range(40):
            plugin.schedule(52, ues, slot)
        grown = plugin.host.memory_pages
        assert grown > start_pages  # it really leaks
        for slot in range(40, 4000):
            plugin.schedule(52, ues, slot)
        assert plugin.host.memory_pages <= 64  # capped at declared maximum

    def test_leaky_plugin_still_schedules_correctly(self):
        plugin = make_plugin("leaky")
        ues = [UeSchedInfo(i, 15, 9, 10_000_000, 0.0) for i in range(2)]
        grants = grants_dict(plugin.schedule(52, ues, 0).grants)
        assert sum(grants.values()) == 52


class TestHostLimits:
    def test_deadline_enforced(self):
        # the deadline is the rt layer's per-call fuel budget: deterministic,
        # and it binds even on a host with no fuel limit of its own
        limits = HostLimits(fuel=None)
        plugin = SchedulerPlugin.load(plugin_wasm("mt"), limits=limits)
        with pytest.raises(PluginError) as exc:
            plugin.schedule(52, [UeSchedInfo(1, 10, 7, 1000, 0.0)], 0, fuel=1)
        assert exc.value.kind == "deadline"

    def test_fuel_accounting_reported(self):
        plugin = make_plugin("mt")
        call = plugin.schedule(52, [UeSchedInfo(1, 10, 7, 1000, 0.0)], 0)
        assert call.fuel_used is not None and call.fuel_used > 0

    def test_timing_reported(self):
        plugin = make_plugin("mt")
        call = plugin.schedule(52, [UeSchedInfo(1, 10, 7, 1000, 0.0)], 0)
        assert call.elapsed_us > 0

    def test_unsanitized_load_rejected_for_bad_abi(self):
        from repro.wacc import compile_source

        bad = compile_source("export fn nope() -> i32 { return 0; }")
        with pytest.raises(Exception):
            SchedulerPlugin.load(bad, name="bad")
