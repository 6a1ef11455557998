"""rApp tests: the slow SMO loop (KPI -> rApp -> A1 -> near-RT RIC)."""

import json

import pytest

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.e2 import CommChannel, E2NodeAgent, vendors
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio import InProcNetwork
from repro.netio.pubsub import Broker, PubSubClient
from repro.plugins import plugin_wasm
from repro.ric import MSG_SLICE_KPI, NearRtRic
from repro.ric.a1 import NonRtRic
from repro.ric.rapps import KPI_TOPIC, SlaPlannerRApp, publish_slice_kpis
from repro.sched import TargetRateInterSlice
from repro.traffic import CbrSource, FullBufferSource


def make_smo():
    """Broker + non-RT RIC + rApp, with a raw publisher for injecting KPIs."""
    net = InProcNetwork()
    broker = Broker(net.endpoint("broker"))
    rapp_sub = PubSubClient(net.endpoint("rapp"), "broker")
    rapp_sub.subscribe(KPI_TOPIC)
    broker.step()
    publisher = PubSubClient(net.endpoint("ric-pub"), "broker")
    nonrt = NonRtRic(net.endpoint("nonrt"))
    a1_sink = net.endpoint("ric-a1")  # stands in for the near-RT RIC
    rapp = SlaPlannerRApp(nonrt, rapp_sub, "ric-a1", min_samples=2)
    return net, broker, publisher, rapp, a1_sink


def inject(publisher, broker, rapp, slice_id, measured):
    publish_slice_kpis(publisher, [{"slice_id": slice_id, "measured_bps": measured}])
    broker.step()
    rapp.step_once()


class TestSlaPlanner:
    def test_initial_policy_pushed(self):
        _net, _broker, _pub, rapp, a1_sink = make_smo()
        rapp.set_initial_sla(1, 5e6)
        msgs = a1_sink.drain()
        assert len(msgs) == 1
        policy = json.loads(msgs[0][1])
        assert policy["payload"]["sla_bps"] == 5e6

    def test_sustained_high_utilization_upscales(self):
        _net, broker, pub, rapp, a1_sink = make_smo()
        rapp.set_initial_sla(1, 5e6)
        a1_sink.drain()
        for _ in range(4):
            inject(pub, broker, rapp, 1, measured=4.9e6)  # 98% of SLA
        slas = [sla for sid, sla in rapp.policies_sent if sid == 1]
        assert slas[-1] > 5e6
        assert a1_sink.drain()  # the new policy went out over A1

    def test_low_utilization_downscales(self):
        _net, broker, pub, rapp, _sink = make_smo()
        rapp.set_initial_sla(1, 10e6)
        for _ in range(4):
            inject(pub, broker, rapp, 1, measured=1e6)  # 10%
        slas = [sla for _sid, sla in rapp.policies_sent]
        assert slas[-1] < 10e6

    def test_healthy_utilization_stays_put(self):
        _net, broker, pub, rapp, _sink = make_smo()
        rapp.set_initial_sla(1, 10e6)
        for _ in range(6):
            inject(pub, broker, rapp, 1, measured=7e6)  # 70%
        assert len(rapp.policies_sent) == 1  # only the initial policy

    def test_sla_bounded(self):
        _net, broker, pub, rapp, _sink = make_smo()
        rapp.max_sla_bps = 8e6
        rapp.set_initial_sla(1, 7e6)
        for _ in range(20):
            inject(pub, broker, rapp, 1, measured=7e6)
        slas = [sla for _sid, sla in rapp.policies_sent]
        assert max(slas) <= 8e6

    def test_unknown_slice_ignored(self):
        _net, broker, pub, rapp, _sink = make_smo()
        rapp.set_initial_sla(1, 5e6)
        inject(pub, broker, rapp, 99, measured=1e9)
        assert all(sid == 1 for sid, _sla in rapp.policies_sent)

    def test_garbage_kpi_ignored(self):
        _net, broker, pub, rapp, _sink = make_smo()
        rapp.set_initial_sla(1, 5e6)
        pub.publish(KPI_TOPIC, b"\xff not json")
        broker.step()
        rapp.step_once()  # must not raise


class TestFullSmoLoop:
    def test_demand_growth_raises_sla_end_to_end(self):
        """gNB measures demand -> KPIs over pub/sub -> rApp raises SLA over
        A1 -> SLA xApp raises the gNB quota.  All three loops running."""
        net = InProcNetwork()
        broker = Broker(net.endpoint("broker"))

        gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 4e6}))
        runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
        runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))

        vendor = vendors.vendor_a()
        node = E2NodeAgent(gnb, CommChannel(net.endpoint("gnb1"), vendor), "gnb1")

        kpi_pub = PubSubClient(net.endpoint("ric-pub"), "broker")
        ric = NearRtRic(
            CommChannel(net.endpoint("ric"), vendor),
            a1_endpoint=net.endpoint("ric-a1"),
            kpi_publisher=kpi_pub,
        )
        ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.connect("gnb1", period_slots=100)

        rapp_sub = PubSubClient(net.endpoint("rapp"), "broker")
        rapp_sub.subscribe(KPI_TOPIC)
        broker.step()
        nonrt = NonRtRic(net.endpoint("nonrt"))
        rapp = SlaPlannerRApp(nonrt, rapp_sub, "ric-a1", min_samples=2)
        rapp.set_initial_sla(1, 4e6)

        for slot in range(3000):
            gnb.step()
            node.step()
            ric.step()
            if slot % 50 == 0:
                broker.step()
                rapp.step_once()
        broker.step()
        rapp.step_once()

        # the full-buffer tenant saturates whatever it gets -> utilization
        # stays high -> the rApp kept raising the SLA -> the xApp kept
        # raising the quota
        final_quota = gnb.inter_slice.targets_bps[1]
        assert final_quota > 4e6
        assert len(rapp.policies_sent) >= 2
        assert ric.controls_sent
