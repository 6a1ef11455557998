"""A1-lite tests: non-RT RIC policies driving the near-RT RIC loop."""

import pytest

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.e2 import CommChannel, E2NodeAgent, vendors
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio import InProcNetwork
from repro.plugins import plugin_wasm
from repro.ric import MSG_SLICE_KPI, NearRtRic
from repro.ric.a1 import (
    A1Error,
    A1PolicyStore,
    NonRtRic,
    POLICY_SLICE_SLA,
    POLICY_STEERING,
)
from repro.sched import TargetRateInterSlice
from repro.traffic import FullBufferSource


class TestPolicyStore:
    def test_create_and_lookup(self):
        store = A1PolicyStore()
        ack = store.handle({
            "msg": "a1_policy_create", "policy_id": 1,
            "policy_type": POLICY_SLICE_SLA,
            "payload": {"slice_id": 3, "sla_bps": 7e6},
        })
        assert ack["accepted"]
        assert store.slice_sla_bps(3) == 7e6
        assert store.slice_sla_bps(4) is None

    def test_newest_policy_wins(self):
        store = A1PolicyStore()
        for pid, sla in ((1, 5e6), (2, 9e6)):
            store.handle({
                "msg": "a1_policy_create", "policy_id": pid,
                "policy_type": POLICY_SLICE_SLA,
                "payload": {"slice_id": 1, "sla_bps": sla},
            })
        assert store.slice_sla_bps(1) == 9e6

    def test_delete(self):
        store = A1PolicyStore()
        store.handle({
            "msg": "a1_policy_create", "policy_id": 1,
            "policy_type": POLICY_SLICE_SLA,
            "payload": {"slice_id": 1, "sla_bps": 5e6},
        })
        ack = store.handle({"msg": "a1_policy_delete", "policy_id": 1})
        assert ack["accepted"]
        assert store.slice_sla_bps(1) is None

    def test_unsupported_type_nacked(self):
        store = A1PolicyStore()
        ack = store.handle({
            "msg": "a1_policy_create", "policy_id": 1,
            "policy_type": "quantum_beamforming", "payload": {},
        })
        assert not ack["accepted"]

    def test_unknown_message_raises(self):
        with pytest.raises(A1Error):
            A1PolicyStore().handle({"msg": "a1_teleport"})

    def test_steering_policy(self):
        store = A1PolicyStore()
        store.handle({
            "msg": "a1_policy_create", "policy_id": 1,
            "policy_type": POLICY_STEERING, "payload": {"hysteresis": 4},
        })
        assert store.steering_hysteresis() == 4


class TestNonRtRic:
    def test_create_rejects_unknown_type(self):
        net = InProcNetwork()
        nonrt = NonRtRic(net.endpoint("nonrt"))
        net.endpoint("ric")
        with pytest.raises(A1Error):
            nonrt.create_policy("ric", "bogus", {})

    def test_policy_roundtrip_with_ack(self):
        net = InProcNetwork()
        nonrt = NonRtRic(net.endpoint("nonrt"))
        ric = NearRtRic(
            CommChannel(net.endpoint("ric-e2"), vendors.vendor_a()),
            a1_endpoint=net.endpoint("ric"),
        )
        policy_id = nonrt.create_policy(
            "ric", POLICY_SLICE_SLA, {"slice_id": 1, "sla_bps": 6e6}
        )
        ric.step()
        nonrt.poll_acks()
        assert nonrt.acks and nonrt.acks[0]["policy_id"] == policy_id
        assert ric.a1_policies.slice_sla_bps(1) == 6e6


class TestA1DrivenSlaLoop:
    def test_full_chain_smo_to_gnb(self):
        """SMO policy -> near-RT RIC -> SLA xApp -> E2 control -> gNB quota.

        No patching of node reports: the SLA comes in over A1, exactly as
        the architecture intends.
        """
        net = InProcNetwork()
        gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 2e6}))
        runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
        runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
        vendor = vendors.vendor_a()
        node = E2NodeAgent(gnb, CommChannel(net.endpoint("gnb1"), vendor), "gnb1")
        ric = NearRtRic(
            CommChannel(net.endpoint("ric"), vendor),
            a1_endpoint=net.endpoint("ric-a1"),
        )
        ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.connect("gnb1", period_slots=200)
        nonrt = NonRtRic(net.endpoint("nonrt"))
        nonrt.create_policy("ric-a1", POLICY_SLICE_SLA, {"slice_id": 1, "sla_bps": 5e6})

        for _ in range(700):
            gnb.step()
            node.step()
            ric.step()

        boosts = [c["value"] for c in ric.controls_sent]
        assert 6_000_000 in boosts  # 1.2 * the A1 SLA
        assert gnb.inter_slice.targets_bps[1] == pytest.approx(5e6)

    def test_policy_update_moves_the_loop(self):
        net = InProcNetwork()
        gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 2e6}))
        runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
        runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
        vendor = vendors.vendor_a()
        node = E2NodeAgent(gnb, CommChannel(net.endpoint("gnb1"), vendor), "gnb1")
        ric = NearRtRic(
            CommChannel(net.endpoint("ric"), vendor),
            a1_endpoint=net.endpoint("ric-a1"),
        )
        ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.connect("gnb1", period_slots=100)
        nonrt = NonRtRic(net.endpoint("nonrt"))
        nonrt.create_policy("ric-a1", POLICY_SLICE_SLA, {"slice_id": 1, "sla_bps": 4e6})

        for _ in range(500):
            gnb.step(); node.step(); ric.step()
        first_quota = gnb.inter_slice.targets_bps[1]
        assert first_quota == pytest.approx(4e6, rel=0.25)

        # operator raises the SLA; the loop follows
        nonrt.create_policy("ric-a1", POLICY_SLICE_SLA, {"slice_id": 1, "sla_bps": 10e6})
        for _ in range(600):
            gnb.step(); node.step(); ric.step()
        assert gnb.inter_slice.targets_bps[1] > first_quota


class TestA1SteeringPolicy:
    def test_hysteresis_param_reaches_xapp(self):
        """A1 steering policy changes the ts xApp's A3 threshold live."""
        from repro.ric import MSG_UE_MEAS, pack_xapp_input, unpack_xapp_actions

        net = InProcNetwork()
        ric = NearRtRic(
            CommChannel(net.endpoint("ric"), vendors.vendor_a()),
            a1_endpoint=net.endpoint("ric-a1"),
        )
        runtime = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        nonrt = NonRtRic(net.endpoint("nonrt"))

        # neighbour is exactly +3: triggers at default hysteresis 2
        records = [(1, 7, 2, 10, 1e6, 0.0)]
        payload = pack_xapp_input(MSG_UE_MEAS, records)
        result = runtime.host.call(payload, entry="on_indication")
        assert len(unpack_xapp_actions(result.output)) == 1

        # operator tightens hysteresis to 5 over A1 -> no more handover
        nonrt.create_policy("ric-a1", POLICY_STEERING, {"hysteresis": 5})
        ric.step()
        result = runtime.host.call(payload, entry="on_indication")
        assert unpack_xapp_actions(result.output) == []
