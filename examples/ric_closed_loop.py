#!/usr/bin/env python3
"""Near-RT RIC closed loop over a real TCP transport (§4B).

A gNB with an E2-node agent talks to a near-RT RIC over localhost TCP.
The RIC hosts two xApps as Wasm plugins:

- ``xapp_sla`` (slice SLA assurance) watches the KPM indications and
  raises the slice quota whenever the measured rate falls below the SLA;
- ``xapp_ts`` (traffic steering) watches UE measurements and orders
  handovers when a neighbour cell's CQI is better.

Everything crossing the wire is encoded in the vendor's dialect (vendor B:
protobuf wire format + AES-CTR encryption).  Half-way through, the
operator redeploys the SLA xApp with ``NearRtRic.swap_xapp`` (§5C): the
RIC, the E2 session and the quota the loop reached all stay up.

Run: python examples/ric_closed_loop.py
"""

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.e2 import CommChannel, E2NodeAgent, vendors
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio import TcpNetwork
from repro.plugins import plugin_wasm
from repro.ric import MSG_SLICE_KPI, MSG_UE_MEAS, NearRtRic
from repro.sched import TargetRateInterSlice
from repro.traffic import FullBufferSource

AES_KEY = b"0123456789abcdef"
SLA_BPS = 8e6


def main() -> None:
    net = TcpNetwork()
    try:
        # --- gNB side -------------------------------------------------------
        gnb = GnbHost(
            inter_slice=TargetRateInterSlice({1: 2e6})
        )
        runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
        runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("pf"), name="pf"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
        gnb.attach_ue(UeContext(2, 1, FixedMcsChannel(22), FullBufferSource()))

        node_channel = CommChannel(net.endpoint("gnb1"), vendors.vendor_b(AES_KEY))
        node = E2NodeAgent(gnb, node_channel, "gnb1")

        # The node reports its *SLA* as the target so the xApp has a goal.
        original = node._build_indication

        def with_sla(sub, slot):
            msg = original(sub, slot)
            for report in msg["slice_reports"]:
                report["target_bps"] = SLA_BPS
            return msg

        node._build_indication = with_sla

        # --- RIC side ----------------------------------------------------------
        ric = NearRtRic(
            CommChannel(net.endpoint("ric"), vendors.vendor_b(AES_KEY)), name="ric"
        )
        ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
        ric.connect("gnb1", period_slots=500)

        print(f"tenant slice quota starts at 2 Mb/s; SLA is {SLA_BPS / 1e6:.0f} Mb/s")
        print("running the closed loop over TCP (AES-encrypted pbwire)...\n")

        for second in range(4):
            if second == 2:
                generation = ric.swap_xapp("sla", plugin_wasm("xapp_sla"))
                print(f"  swapped the SLA xApp in place: generation {generation}, "
                      f"no RIC restart, E2 session kept")
            for _ in range(1000):
                gnb.step()
                node.step()
                # TCP delivery is asynchronous; poll with a tiny timeout
                for source, message in ric.channel.poll(timeout=0.001):
                    if message["msg"] == "ric_indication":
                        ric.indications_seen += 1
                        ric._handle_indication(source, message)
                    elif message["msg"] == "ric_control_ack":
                        ric.acks.append(message)
                    elif message["msg"] == "e2_setup_response":
                        ric.nodes[source]["ready"] = True
            quota = gnb.inter_slice.targets_bps[1]
            measured = gnb.slices[1].meter.total_bytes * 8 / ((second + 1) * 1.0)
            print(f"t={second + 1}s: quota={quota / 1e6:5.2f} Mb/s, "
                  f"avg delivered={measured / 1e6:5.2f} Mb/s, "
                  f"indications={ric.indications_seen}, "
                  f"controls={ric.controls_sent.total}, acks={ric.acks.total}")

        print(f"\nxApp stats:")
        for name, xapp in ric.xapps.items():
            print(f"  {name}: calls={xapp.calls}, actions={xapp.actions_emitted}, "
                  f"faults={xapp.faults}")
        final = gnb.inter_slice.targets_bps[1]
        print(f"\nclosed loop drove the quota from 2.0 to {final / 1e6:.1f} Mb/s "
              f"(SLA {SLA_BPS / 1e6:.0f} Mb/s)")
    finally:
        net.close()


if __name__ == "__main__":
    main()
