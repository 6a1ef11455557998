"""E2-lite + near-RT RIC integration tests."""

import time

import pytest

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.codecs.bitadapt import widen
from repro.e2 import (
    CommChannel,
    E2MessageError,
    E2NodeAgent,
    WasmFieldAdapter,
    control_request,
    indication,
    setup_request,
    subscription_request,
    validate_message,
    vendors,
)
from repro.e2.comm import AdaptedChannel
from repro.e2.messages import (
    ACTION_SET_SLICE_QUOTA,
    ACTION_SET_TX_POWER,
    MSG_INDICATION,
)
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio import InProcNetwork, TcpNetwork
from repro.plugins import plugin_wasm
from repro.ric import (
    MSG_SLICE_KPI,
    MSG_UE_MEAS,
    NearRtRic,
    native_sla_assurance,
    native_traffic_steering,
    pack_xapp_input,
    unpack_xapp_actions,
)
from repro.sched import TargetRateInterSlice
from repro.traffic import FullBufferSource


class TestMessages:
    def test_validate_ok(self):
        assert validate_message(setup_request("gnb1", [1, 2])) == "e2_setup_request"
        assert validate_message(subscription_request(1)) is not None
        assert validate_message(indication(1, 100, [], [])) == MSG_INDICATION

    def test_unknown_type(self):
        with pytest.raises(E2MessageError, match="unknown message type"):
            validate_message({"msg": "bogus"})

    def test_missing_fields(self):
        with pytest.raises(E2MessageError, match="missing"):
            validate_message({"msg": MSG_INDICATION, "slot": 1})

    def test_unknown_action(self):
        with pytest.raises(E2MessageError):
            control_request(1, "reboot_the_world", 0, 0)

    def test_bad_period(self):
        with pytest.raises(E2MessageError):
            subscription_request(1, period_slots=0)


class TestVendorProfiles:
    @pytest.mark.parametrize(
        "profile", [vendors.vendor_a(), vendors.vendor_b(), vendors.vendor_b(b"k" * 16)]
    )
    def test_roundtrip_all_message_types(self, profile):
        msgs = [
            setup_request("gnb1", [1, 2]),
            subscription_request(7, period_slots=50),
            indication(
                7,
                123,
                [{"ue_id": 1, "slice_id": 2, "cqi": 12, "neighbor_cell": 3,
                  "neighbor_cqi": 14, "avg_tput_bps": 5e6, "buffer_bytes": 1000}],
                [{"slice_id": 2, "measured_bps": 4.9e6, "target_bps": 5e6}],
            ),
            control_request(9, ACTION_SET_SLICE_QUOTA, 2, 6_000_000),
        ]
        for msg in msgs:
            decoded = profile.decode(profile.encode(msg))
            assert validate_message(decoded) == msg["msg"]
            assert decoded == msg

    def test_encrypted_payload_is_opaque(self):
        secure = vendors.vendor_b(b"0123456789abcdef")
        msg = control_request(1, ACTION_SET_TX_POWER, 0, 200)
        wire = secure.encode(msg)
        assert b"set_tx_power" not in wire

    def test_cross_vendor_decode_fails(self):
        """The motivating incompatibility: A's bytes into B's decoder."""
        from repro.codecs.base import CodecError
        from repro.e2.messages import E2MessageError as MsgErr

        msg = setup_request("gnb1", [1])
        wire_a = vendors.vendor_a().encode(msg)
        with pytest.raises((CodecError, MsgErr, KeyError)):
            decoded = vendors.vendor_b().decode(wire_a)
            validate_message(decoded)

    def test_wrong_key_garbles(self):
        b1 = vendors.vendor_b(b"A" * 16)
        b2 = vendors.vendor_b(b"B" * 16)
        from repro.codecs.base import CodecError

        wire = b1.encode(setup_request("gnb1", [1]))
        with pytest.raises((CodecError, E2MessageError)):
            validate_message(b2.decode(wire))


class TestWasmFieldAdapter:
    def test_matches_reference_widen(self):
        adapter = WasmFieldAdapter()
        records = [(v, 8, 12) for v in (0, 1, 100, 128, 254, 255)]
        got = adapter.adapt_values(records)
        want = [widen(v, 8, 12) for v, _, _ in records]
        assert got == want

    def test_narrowing(self):
        adapter = WasmFieldAdapter()
        assert adapter.adapt_values([(4095, 12, 8)]) == [255]

    def test_identity(self):
        adapter = WasmFieldAdapter()
        assert adapter.adapt_values([(77, 8, 8)]) == [77]

    def test_adapt_control_rescales_power(self):
        adapter = WasmFieldAdapter()
        msg = control_request(1, ACTION_SET_TX_POWER, 0, 255)
        out = adapter.adapt_control(msg, vendors.vendor_a(), vendors.vendor_b())
        assert out["value"] == 4095

    def test_adapt_control_ignores_other_actions(self):
        adapter = WasmFieldAdapter()
        msg = control_request(1, ACTION_SET_SLICE_QUOTA, 1, 5_000_000)
        out = adapter.adapt_control(msg, vendors.vendor_a(), vendors.vendor_b())
        assert out["value"] == 5_000_000

    def test_out_of_range_value_trapped(self):
        from repro.abi.host import PluginError

        adapter = WasmFieldAdapter()
        with pytest.raises(PluginError):
            adapter.adapt_values([(256, 8, 12)])  # 256 does not fit 8 bits

    def test_adapted_channel_bridges_vendors(self):
        """SI scenario: RIC speaks vendor A, gNB speaks vendor B."""
        net = InProcNetwork()
        ric_ep = net.endpoint("ric")
        gnb_ep = net.endpoint("gnb")
        ric_side = AdaptedChannel(ric_ep, vendors.vendor_a(), vendors.vendor_b())
        gnb_side = CommChannel(gnb_ep, vendors.vendor_b())

        ric_side.send("gnb", control_request(1, ACTION_SET_TX_POWER, 0, 255))
        ((_, msg),) = gnb_side.poll()
        assert msg["value"] == 4095  # re-scaled to vendor B's 12-bit range
        assert gnb_side.decode_failures == 0

    def test_adapted_channel_receives_in_the_peer_dialect(self):
        net = InProcNetwork()
        ric_side = AdaptedChannel(
            net.endpoint("ric"), vendors.vendor_a(), vendors.vendor_b()
        )
        gnb_side = CommChannel(net.endpoint("gnb"), vendors.vendor_b())
        gnb_side.send("ric", control_request(1, ACTION_SET_TX_POWER, 0, 4095))
        net.endpoint("junk").send("ric", b"\x80\x80\x80")
        ((source, msg),) = ric_side.poll()
        assert (source, msg["value"]) == ("gnb", 255)  # back to 8 bits
        assert (ric_side.received, ric_side.decode_failures) == (1, 1)
        assert ric_side.guard_rejections == 0


def build_network(period_slots=100, vendor=None, net=None):
    vendor = vendor or vendors.vendor_a()
    net = net or InProcNetwork()
    inter = TargetRateInterSlice({1: 5e6})
    gnb = GnbHost(inter_slice=inter)
    runtime = gnb.add_slice(SliceRuntime(1, "mvno"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
    gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
    node = E2NodeAgent(gnb, CommChannel(net.endpoint("gnb1"), vendor), "gnb1")
    ric = NearRtRic(CommChannel(net.endpoint("ric"), vendor), name="ric")
    return net, gnb, node, ric


def run_loop(gnb, node, ric, slots):
    actions = []
    for _ in range(slots):
        gnb.step()
        node.step()
        actions.extend(ric.step())
    return actions


class TestE2NodeAgent:
    def test_setup_and_subscription_flow(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1", period_slots=50)
        run_loop(gnb, node, ric, 120)
        assert ric.nodes["gnb1"]["ready"]
        assert ric.indications_seen >= 2

    def test_indications_carry_kpis(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1", period_slots=20)
        gnb.step()
        node.step()
        ric.step()
        run_loop(gnb, node, ric, 60)
        assert ric.indications_seen >= 2

    def test_control_set_slice_quota(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1")
        run_loop(gnb, node, ric, 5)
        ric.channel.send(
            "gnb1", control_request(42, ACTION_SET_SLICE_QUOTA, 1, 9_000_000)
        )
        run_loop(gnb, node, ric, 5)
        assert gnb.inter_slice.targets_bps[1] == 9_000_000
        assert any(a["request_id"] == 42 and a["success"] for a in ric.acks)

    def test_control_unknown_slice_nacked(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1")
        run_loop(gnb, node, ric, 5)
        ric.channel.send(
            "gnb1", control_request(43, ACTION_SET_SLICE_QUOTA, 99, 1)
        )
        run_loop(gnb, node, ric, 5)
        nack = [a for a in ric.acks if a["request_id"] == 43]
        assert nack and not nack[0]["success"]

    def test_each_subscription_measures_its_own_period(self):
        """Two subscriptions on one node: a report's ``measured_bps`` is
        the bytes delivered since *that* subscription's last report, over
        its own period - summed, each one accounts for every byte."""
        _, gnb, node, _ric = build_network()
        periods = {1: 10, 2: 25}
        for sub_id, period in periods.items():
            node.local_subscribe(sub_id, "ric", period)
        reports = {sub_id: [] for sub_id in periods}
        node.channel.send = lambda dest, message: reports[
            message["subscription_id"]
        ].append((message, sum(r.meter.total_bytes for r in gnb.slices.values())))
        for _ in range(100):
            gnb.step()
            node.step()
        slot_s = gnb.carrier.slot_duration_s
        for sub_id, period in periods.items():
            assert len(reports[sub_id]) == 100 // period
            measured_bits = sum(
                r["measured_bps"] * period * slot_s
                for message, _ in reports[sub_id]
                for r in message["slice_reports"]
            )
            delivered_bytes = reports[sub_id][-1][1]
            assert delivered_bytes > 0
            assert measured_bits == pytest.approx(delivered_bytes * 8, rel=1e-9)

    def test_handover_detaches_ue(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1")
        run_loop(gnb, node, ric, 5)
        from repro.e2.messages import ACTION_HANDOVER

        ric.channel.send("gnb1", control_request(44, ACTION_HANDOVER, 1, 2))
        run_loop(gnb, node, ric, 5)
        assert 1 not in gnb.ues


class TestXappWire:
    def test_pack_unpack_actions(self):
        import struct

        payload = struct.pack("<I", 2) + struct.pack("<IIq", 1, 5, 3) + struct.pack(
            "<IIq", 2, 1, 10_000_000
        )
        actions = unpack_xapp_actions(payload)
        assert actions[0].kind == 1 and actions[0].target == 5
        assert actions[1].value == 10_000_000

    def test_truncated_rejected(self):
        from repro.ric.wire import XappWireError
        import struct

        with pytest.raises(XappWireError):
            unpack_xapp_actions(struct.pack("<I", 3) + b"\x00" * 8)


class TestOverTcp:
    def test_closed_loop_over_a_socket(self):
        """indication in -> xApp decision -> control out, over TCP."""
        net, gnb, node, ric = build_network(net=TcpNetwork())
        try:
            sla = ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
            ric.connect("gnb1", period_slots=1)  # an indication every slot
            deadline = time.monotonic() + 10.0
            while not ric.indications_seen and time.monotonic() < deadline:
                gnb.step()
                node.step()
                ric.step()
                time.sleep(0.001)  # the handshake crosses the socket first
            assert ric.indications_seen > 0
            assert sla.calls > 0
        finally:
            net.close()


class TestXappPlugins:
    @pytest.mark.parametrize("n_ues", [5, 20, 50])
    def test_traffic_steering_fits_the_near_rt_loop(self, n_ues):
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        runtime = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        records = [(i, 5 + i % 8, 1 + i % 3, 9, 1e6, 0.0) for i in range(n_ues)]
        result = runtime.host.call(pack_xapp_input(MSG_UE_MEAS, records), entry="on_indication")
        assert result.elapsed_us < 10_000  # well under the 10 ms near-RT floor

    def test_traffic_steering_differential(self):
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        runtime = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        records = [
            (1, 8, 2, 12, 1e6, 0.0),   # neighbor much better -> handover
            (2, 12, 3, 13, 1e6, 0.0),  # +1 only -> below hysteresis
            (3, 5, 0, 9, 1e6, 0.0),    # no neighbor cell
            (4, 5, 7, 7, 1e6, 0.0),    # exactly +2 -> handover
        ]
        payload = pack_xapp_input(MSG_UE_MEAS, records)
        result = runtime.host.call(payload, entry="on_indication")
        got = unpack_xapp_actions(result.output)
        want = native_traffic_steering(records)
        assert got == want
        assert {a.target for a in got} == {1, 4}

    def test_sla_assurance_differential(self):
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        runtime = ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        records = [
            (1, 0, 0, 0, 3.0e6, 5.0e6),  # underserved -> boost
            (2, 0, 0, 0, 5.0e6, 5.0e6),  # on target -> nothing
            (3, 0, 0, 0, 6.0e6, 5.0e6),  # over -> trim back
            (4, 0, 0, 0, 1.0e6, 0.0),    # no SLA -> nothing
        ]
        payload = pack_xapp_input(MSG_SLICE_KPI, records)
        result = runtime.host.call(payload, entry="on_indication")
        got = unpack_xapp_actions(result.output)
        assert got == native_sla_assurance(records)
        kinds = {(a.target, a.value) for a in got}
        assert (1, 6_000_000) in kinds
        assert (3, 5_000_000) in kinds

    def test_inter_xapp_messaging(self):
        """xapp_ts publishes handover counts; xapp_sla polls them."""
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        ts = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        sla = ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ts.host.call(
            pack_xapp_input(MSG_UE_MEAS, [(1, 5, 2, 10, 0.0, 0.0)]),
            entry="on_indication",
        )
        sla.host.call(
            pack_xapp_input(MSG_SLICE_KPI, [(1, 0, 0, 0, 1e6, 5e6)]),
            entry="on_indication",
        )
        # the SLA xApp saw the published handover count and logged it
        assert ("sla", 7, 1) in ric.xapp_log

    def test_scheduler_plugin_rejected_as_xapp(self):
        """Sanitizer policy: a scheduler plugin lacks on_indication."""
        from repro.abi.host import PluginError
        from repro.abi.sanitizer import SanitizerError

        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        with pytest.raises((SanitizerError, PluginError)):
            ric.load_xapp("bad", plugin_wasm("rr"), (MSG_UE_MEAS,))


class TestClosedLoop:
    def test_sla_xapp_drives_quota_through_e2(self):
        """Full closed loop: gNB underserves -> indication -> SLA xApp ->
        control -> gNB quota raised."""
        net, gnb, node, ric = build_network()
        # configure a quota below the SLA the xApp wants
        gnb.inter_slice.targets_bps[1] = 2e6
        ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.connect("gnb1", period_slots=200)

        # the node reports target_bps = current quota; to give the xApp an
        # SLA reference, patch the report with a fixed SLA of 5 Mb/s
        original = node._build_indication

        def with_sla(sub, slot):
            msg = original(sub, slot)
            for report in msg["slice_reports"]:
                report["target_bps"] = 5e6
            return msg

        node._build_indication = with_sla
        run_loop(gnb, node, ric, 700)
        # the xApp first boosted the 2 Mb/s quota to 1.2 * SLA, then - once
        # the slice measured above SLA - trimmed it back: converged at SLA
        boosts = [c["value"] for c in ric.controls_sent]
        assert 6_000_000 in boosts  # the initial under-SLA boost happened
        assert gnb.inter_slice.targets_bps[1] == pytest.approx(5e6)

    def test_indication_builds_only_subscribed_records(self, monkeypatch):
        """An indication is turned into the record kinds some hosted xApp
        subscribes to, and no others: an SLA-only RIC never converts the
        per-UE reports."""
        from repro.ric import wire

        converted = []
        real = wire.ue_meas_records

        def spy(ue_reports):
            converted.append(len(ue_reports))
            return real(ue_reports)

        monkeypatch.setattr(wire, "ue_meas_records", spy)
        _, gnb, node, ric = build_network()
        sla = ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.connect("gnb1", period_slots=20)
        run_loop(gnb, node, ric, 100)
        assert ric.indications_seen >= 3 and sla.calls == ric.indications_seen
        assert converted == []
        ts = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        seen = ric.indications_seen
        run_loop(gnb, node, ric, 60)
        assert len(converted) == ts.calls == ric.indications_seen - seen > 0

    def test_hot_swap_xapp(self):
        ric = NearRtRic(
            CommChannel(InProcNetwork().endpoint("ric"), vendors.vendor_a())
        )
        runtime = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        generation = ric.swap_xapp("ts", plugin_wasm("xapp_ts"))
        assert generation == 1
        result = runtime.host.call(
            pack_xapp_input(MSG_UE_MEAS, []), entry="on_indication"
        )
        assert unpack_xapp_actions(result.output) == []


class TestCqiTableControl:
    def test_set_cqi_table_accepted(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1")
        run_loop(gnb, node, ric, 5)
        from repro.e2.messages import ACTION_SET_CQI_TABLE

        ric.channel.send("gnb1", control_request(50, ACTION_SET_CQI_TABLE, 0, 2))
        run_loop(gnb, node, ric, 5)
        assert node.cqi_table == 2
        assert any(a["request_id"] == 50 and a["success"] for a in ric.acks)

    def test_unsupported_table_nacked(self):
        _, gnb, node, ric = build_network()
        ric.connect("gnb1")
        run_loop(gnb, node, ric, 5)
        from repro.e2.messages import ACTION_SET_CQI_TABLE

        ric.channel.send("gnb1", control_request(51, ACTION_SET_CQI_TABLE, 0, 7))
        run_loop(gnb, node, ric, 5)
        assert node.cqi_table == 1
        nack = [a for a in ric.acks if a["request_id"] == 51]
        assert nack and not nack[0]["success"]
