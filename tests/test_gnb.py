"""gNB host integration tests: the full slot loop with plugins attached."""

import pytest

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel, MarkovCqiChannel
from repro.e2 import vendors
from repro.e2.comm import CommChannel
from repro.e2.node import E2NodeAgent
from repro.gnb import FaultPolicy, GnbHost, SliceRuntime, UeContext
from repro.gnb.fault import FaultAction
from repro.netio.bus import InProcNetwork
from repro.plugins import plugin_wasm
from repro.sched import TargetRateInterSlice, make_intra_scheduler
from repro.traffic import CbrSource, FullBufferSource


def make_gnb(targets=None, **kwargs):
    inter = TargetRateInterSlice(targets or {}, slot_duration_s=1e-3)
    return GnbHost(inter_slice=inter, **kwargs)


def add_slice(gnb, sid, name, plugin_name=None, native=None):
    runtime = gnb.add_slice(SliceRuntime(sid, name))
    if plugin_name:
        runtime.use_plugin(SchedulerPlugin.load(plugin_wasm(plugin_name), name=plugin_name))
    if native:
        runtime.use_native(make_intra_scheduler(native))
    return runtime


def add_ue(gnb, ue_id, sid, mcs=28, rate_bps=None):
    traffic = CbrSource(rate_bps) if rate_bps else FullBufferSource()
    return gnb.attach_ue(
        UeContext(ue_id, sid, FixedMcsChannel(mcs), traffic)
    )


class TestBasicOperation:
    def test_single_slice_plugin_delivers_target_rate(self):
        gnb = make_gnb({1: 5e6})
        add_slice(gnb, 1, "mvno1", plugin_name="rr")
        add_ue(gnb, 1, 1)
        gnb.run(2000)
        gnb.finish_meters()
        rate = gnb.slices[1].meter.average_bps(2.0)
        assert rate == pytest.approx(5e6, rel=0.1)
        assert not gnb.fault_policy.events  # a healthy plugin never falls back

    def test_native_and_plugin_slices_coexist(self):
        gnb = make_gnb({1: 3e6, 2: 3e6})
        add_slice(gnb, 1, "a", plugin_name="mt")
        add_slice(gnb, 2, "b", native="rr")
        add_ue(gnb, 1, 1)
        add_ue(gnb, 2, 2)
        gnb.run(1000)
        gnb.finish_meters()
        assert gnb.slices[1].meter.average_bps(1.0) == pytest.approx(3e6, rel=0.15)
        assert gnb.slices[2].meter.average_bps(1.0) == pytest.approx(3e6, rel=0.15)

    def test_cbr_traffic_limits_rate(self):
        gnb = make_gnb({1: 20e6})
        add_slice(gnb, 1, "a", plugin_name="rr")
        add_ue(gnb, 1, 1, rate_bps=2e6)  # source slower than slice target
        gnb.run(1000)
        gnb.finish_meters()
        assert gnb.slices[1].meter.average_bps(1.0) == pytest.approx(2e6, rel=0.1)

    def test_duplicate_slice_rejected(self):
        gnb = make_gnb()
        add_slice(gnb, 1, "a")
        with pytest.raises(ValueError):
            gnb.add_slice(SliceRuntime(1, "dup"))

    def test_ue_requires_slice(self):
        gnb = make_gnb()
        with pytest.raises(ValueError, match="unknown slice"):
            add_ue(gnb, 1, 99)

    def test_exec_time_metrics_collected(self):
        gnb = make_gnb({1: 5e6})
        add_slice(gnb, 1, "a", plugin_name="pf")
        add_ue(gnb, 1, 1)
        gnb.run(50)
        runtime = gnb.slices[1]
        assert runtime.exec_us.count == 50
        assert runtime.exec_us.quantile(0.99) >= runtime.exec_us.quantile(0.5)


class TestHotSwap:
    def test_swap_without_stopping(self):
        """§5C: swap MT -> PF mid-run; gNB keeps serving every slot."""
        gnb = make_gnb({1: 22e6})
        runtime = add_slice(gnb, 1, "a", plugin_name="mt")
        for ue_id, mcs in ((1, 20), (2, 24), (3, 28)):
            add_ue(gnb, ue_id, 1, mcs=mcs)
        gnb.run(300)
        generation = runtime.swap_plugin(plugin_wasm("pf"))
        assert generation == 1
        gnb.run(300)
        gnb.finish_meters()
        # service never stopped: delivery in every 1 s window
        series = [bps for _, bps in gnb.slices[1].meter.series()]
        assert all(bps > 0 for bps in series)

    def test_swap_changes_policy_visibly(self):
        gnb = make_gnb({1: 50e6})
        runtime = add_slice(gnb, 1, "a", plugin_name="mt")
        add_ue(gnb, 1, 1, mcs=20)
        add_ue(gnb, 2, 1, mcs=28)
        gnb.run(500)
        mt_ue1 = gnb.ues[1].buffer.delivered_bytes
        runtime.swap_plugin(plugin_wasm("rr"))
        before = {uid: gnb.ues[uid].buffer.delivered_bytes for uid in (1, 2)}
        gnb.run(500)
        delta1 = gnb.ues[1].buffer.delivered_bytes - before[1]
        # MT starved UE 1; RR serves it
        assert mt_ue1 == 0
        assert delta1 > 0


class TestFaultTolerance:
    def test_faulty_plugin_falls_back_to_default(self):
        gnb = make_gnb({1: 5e6}, fault_policy=FaultPolicy(quarantine_after=10**9))
        add_slice(gnb, 1, "a", plugin_name="fault_oob")
        add_ue(gnb, 1, 1)
        gnb.run(200)
        gnb.finish_meters()
        # every slot faulted, every slot fell back: service continued
        assert gnb.slices[1].meter.average_bps(0.2) > 1e6
        assert len(gnb.fault_policy.events) == 200
        assert all(
            e.action == FaultAction.FALLBACK for e in gnb.fault_policy.events
        )

    def test_quarantine_after_consecutive_faults(self):
        gnb = make_gnb({1: 5e6}, fault_policy=FaultPolicy(quarantine_after=3))
        add_slice(gnb, 1, "a", plugin_name="fault_null")
        add_ue(gnb, 1, 1)
        gnb.run(50)
        assert gnb.fault_policy.is_quarantined(1)
        # after quarantine the plugin is no longer invoked
        assert len(gnb.fault_policy.events) == 3
        gnb.finish_meters()
        assert gnb.total_delivered_bytes > 0  # default scheduler served

    def test_quarantine_release_after_fixed_swap(self):
        gnb = make_gnb({1: 5e6}, fault_policy=FaultPolicy(quarantine_after=2))
        runtime = add_slice(gnb, 1, "a", plugin_name="fault_dblfree")
        add_ue(gnb, 1, 1)
        gnb.run(10)
        assert gnb.fault_policy.is_quarantined(1)
        runtime.swap_plugin(plugin_wasm("rr"))
        gnb.fault_policy.release(1)
        gnb.run(10)
        assert not gnb.fault_policy.is_quarantined(1)
        assert gnb.slices[1].exec_us.count > 0  # plugin ran again

    def test_disconnect_policy(self):
        gnb = make_gnb(
            {1: 5e6, 2: 5e6},
            fault_policy=FaultPolicy(quarantine_after=2, disconnect_after=5),
        )
        add_slice(gnb, 1, "hostile", plugin_name="fault_badgrants")
        add_slice(gnb, 2, "honest", plugin_name="rr")
        add_ue(gnb, 1, 1)
        add_ue(gnb, 2, 2)
        gnb.run(100)
        # quarantine happens first and stops invocations, so force more:
        # disconnect_after <= quarantine threshold scenario
        assert gnb.fault_policy.is_quarantined(1)
        gnb.finish_meters()
        assert gnb.slices[2].meter.average_bps(0.1) > 0

    def test_invalid_grants_counted_as_fault(self):
        gnb = make_gnb({1: 5e6}, fault_policy=FaultPolicy(quarantine_after=1))
        add_slice(gnb, 1, "a", plugin_name="fault_badgrants")
        add_ue(gnb, 1, 1)
        gnb.run(5)
        assert gnb.fault_policy.events[0].kind == "grants"

    def test_spin_plugin_cut_by_fuel_and_fallback(self):
        gnb = make_gnb({1: 5e6}, fault_policy=FaultPolicy(quarantine_after=2))
        add_slice(gnb, 1, "a", plugin_name="fault_spin")
        add_ue(gnb, 1, 1)
        gnb.run(10)
        assert gnb.fault_policy.events[0].kind == "fuel"
        assert gnb.fault_policy.is_quarantined(1)


class TestPfAveraging:
    def test_avg_tput_tracks_service(self):
        gnb = make_gnb({1: 10e6})
        add_slice(gnb, 1, "a", plugin_name="rr")
        add_ue(gnb, 1, 1)
        gnb.run(500)
        ue = gnb.ues[1]
        assert ue.avg_tput_bps == pytest.approx(10e6, rel=0.3)

    def test_avg_decays_when_unserved(self):
        gnb = make_gnb({1: 10e6})
        add_slice(gnb, 1, "a", plugin_name="rr")
        add_ue(gnb, 1, 1, rate_bps=1.0)  # nearly no traffic
        gnb.run(100)
        peak = gnb.ues[1].avg_tput_bps
        gnb.run(900)
        assert gnb.ues[1].avg_tput_bps <= max(peak, 1e4)


    @pytest.mark.parametrize("slots", [0, -1, -100])
    def test_time_constant_below_one_slot_refused(self, slots):
        # 0 divided by zero inside the first slot; a negative constant gave
        # a negative weight and an average that grew without bound
        with pytest.raises(ValueError, match="pf_time_constant_slots"):
            make_gnb({1: 10e6}, pf_time_constant_slots=slots)

    def test_one_slot_time_constant_is_the_last_slot_rate(self):
        gnb = make_gnb({1: 10e6}, pf_time_constant_slots=1)
        add_slice(gnb, 1, "a", native="rr")
        ue = add_ue(gnb, 1, 1)
        rates = []
        for _ in range(20):
            before = ue.buffer.delivered_bytes
            gnb.step()
            rates.append((ue.buffer.delivered_bytes - before) * 8 / 1e-3)
            assert ue.avg_tput_bps == rates[-1]
        assert max(rates) > 0


class TestOtherNumerologies:
    """The stack is numerology-agnostic: mu=1 halves the slot duration."""

    def test_mu1_carrier_runs_and_hits_target(self):
        from repro.phy import CarrierConfig, Numerology

        carrier = CarrierConfig(bandwidth_mhz=20, numerology=Numerology(1))
        assert carrier.n_prb == 51
        inter = TargetRateInterSlice({1: 5e6}, slot_duration_s=carrier.slot_duration_s)
        gnb = GnbHost(carrier=carrier, inter_slice=inter)
        add_slice(gnb, 1, "a", plugin_name="rr")
        add_ue(gnb, 1, 1)
        gnb.run(2000)  # 1 s of mu=1 time
        gnb.finish_meters()
        assert gnb.slices[1].meter.average_bps(1.0) == pytest.approx(5e6, rel=0.15)

    def test_mu1_slots_are_500us(self):
        from repro.phy import CarrierConfig, Numerology

        carrier = CarrierConfig(bandwidth_mhz=20, numerology=Numerology(1))
        gnb = GnbHost(carrier=carrier, inter_slice=TargetRateInterSlice({}, 5e-4))
        gnb.step()
        assert gnb.now_s == pytest.approx(5e-4)


class _CountedWalk(MarkovCqiChannel):
    """A Markov channel that counts the slots it walked."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.walked = 0

    def report(self, slot):
        self.walked += slot != self._last_slot
        return super().report(slot)


class TestNeighbourChannel:
    def test_the_neighbour_walks_every_slot_like_the_serving_channel(self):
        net = InProcNetwork()
        net.endpoint("ric")
        gnb = make_gnb({1: 10e6})
        add_slice(gnb, 1, "a", native="pf")
        serving = _CountedWalk(initial_cqi=8, p_step=1.0, seed=1)
        neighbour = _CountedWalk(initial_cqi=8, p_step=1.0, seed=2)
        gnb.attach_ue(
            UeContext(1, 1, serving, FullBufferSource(),
                      neighbor_cell=2, neighbor_channel=neighbour)
        )
        node = E2NodeAgent(
            gnb, CommChannel(net.endpoint("gnb"), vendors.vendor_b()), "gnb"
        )
        node.local_subscribe(7, "ric", 10)  # a KPM report every 10 slots
        for _ in range(100):
            gnb.step()
            node.step()
        assert serving.walked == 100
        assert neighbour.walked == 100
