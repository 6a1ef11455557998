#!/usr/bin/env python3
"""Multi-cell traffic steering with A1 policy control.

Two gNBs, one near-RT RIC, one non-RT RIC (SMO).  A UE sits at the cell
edge: its serving cell 1 is poor (MCS ~4), cell 2 would be excellent.
The traffic-steering xApp - a Wasm plugin in the RIC - watches the E2
measurement reports and orders the handover; the topology executes it.

Then the operator pushes an A1 steering policy that raises the A3
hysteresis so high that a second, marginal UE is *not* moved - showing
the SMO tuning a running Wasm xApp without redeploying anything.

Last, the SMO's slow loop closes over the fast one: the RIC publishes
slice KPIs on a pub/sub broker, an rApp (:class:`SlaPlannerRApp`) reads
them, re-plans the tenant's SLA and pushes it over A1, and the SLA
assurance xApp moves both cells' quotas to it.

Run: python examples/multi_cell_steering.py
"""

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.e2 import vendors
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio.pubsub import Broker, PubSubClient
from repro.plugins import plugin_wasm
from repro.ric import MSG_SLICE_KPI, MSG_UE_MEAS
from repro.ric.a1 import A1Endpoint, NonRtRic, POLICY_STEERING
from repro.ric.rapps import KPI_TOPIC, SlaPlannerRApp
from repro.ric.steering import TwoCellTopology
from repro.sched import TargetRateInterSlice
from repro.traffic import FullBufferSource


def make_cell() -> GnbHost:
    gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 20e6}))
    runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("pf"), name="pf"))
    return gnb


def main() -> None:
    topo = TwoCellTopology(make_cell(), make_cell(), vendors.vendor_a())
    topo.ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
    # attach A1 so the SMO can steer the steering
    topo.ric.a1 = A1Endpoint(topo.network.endpoint("ric-a1"))
    nonrt = NonRtRic(topo.network.endpoint("smo"))
    topo.connect(period_slots=50)

    edge_ue = UeContext(
        1, 1, FixedMcsChannel(4), FullBufferSource(),
        neighbor_cell=2, neighbor_channel=FixedMcsChannel(26),
    )
    topo.attach(edge_ue, 1)
    print("UE 1 attached to cell 1 at MCS 4; cell 2 would give it MCS 26")

    topo.run(200)
    for event in topo.handovers:
        print(f"slot {event.slot}: RIC steered UE {event.ue_id} "
              f"cell {event.source_cell} -> cell {event.target_cell}")
    rate = edge_ue.buffer.delivered_bytes * 8 / (topo.cells[2].now_s or 1) / 1e6
    print(f"UE 1 now served by cell {2 if 1 in topo.cells[2].ues else 1} "
          f"at MCS {edge_ue.current_mcs} (avg {rate:.1f} Mb/s so far)\n")

    # marginal UE: neighbour only +3 CQI better
    marginal = UeContext(
        2, 1, FixedMcsChannel(16), FullBufferSource(),
        neighbor_cell=2, neighbor_channel=FixedMcsChannel(22),
    )
    topo.attach(marginal, 1)
    print("UE 2 attached to cell 1 (marginal: neighbour is only a bit better)")

    print("SMO pushes A1 steering policy: hysteresis = 6 (conservative)")
    nonrt.create_policy("ric-a1", POLICY_STEERING, {"hysteresis": 6})
    before = len(topo.handovers)
    topo.run(300)
    moved = len(topo.handovers) - before
    print(f"handovers after the policy: {moved} "
          f"(UE 2 stays on cell 1: {2 in topo.cells[1].ues})")

    print("\nSMO relaxes the policy: hysteresis = 1 (aggressive)")
    nonrt.create_policy("ric-a1", POLICY_STEERING, {"hysteresis": 1})
    topo.run(300)
    for event in topo.handovers[before:]:
        print(f"slot {event.slot}: RIC steered UE {event.ue_id} "
              f"cell {event.source_cell} -> cell {event.target_cell}")
    print(f"UE 2 served by cell 2 now: {2 in topo.cells[2].ues}")

    print("\nSMO slow loop: RIC slice KPIs -> pub/sub -> SLA-planner rApp -> A1")
    topo.attach(UeContext(3, 1, FixedMcsChannel(20), FullBufferSource()), 1)
    print("UE 3 (full buffer) attached to cell 1: the tenant saturates both cells")
    broker = Broker(topo.network.endpoint("broker"))
    topo.ric.kpi_publisher = PubSubClient(topo.network.endpoint("ric-pub"), "broker")
    topo.ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
    rapp_feed = PubSubClient(topo.network.endpoint("rapp"), "broker")
    rapp_feed.subscribe(KPI_TOPIC)
    broker.step()
    rapp = SlaPlannerRApp(nonrt, rapp_feed, "ric-a1")
    rapp.set_initial_sla(1, 8e6)
    for slot in range(2000):
        topo.step()
        if slot % 50 == 0:
            broker.step()
            rapp.step_once()
    plan = " -> ".join(f"{sla / 1e6:.1f}" for _sid, sla in rapp.policies_sent)
    quotas = ", ".join(
        f"cell {cell_id} {gnb.inter_slice.targets_bps[1] / 1e6:.1f}"
        for cell_id, gnb in topo.cells.items()
    )
    print(f"rApp re-planned the tenant SLA (Mb/s): {plan}")
    print(f"SLA xApp quotas now (Mb/s): {quotas}")


if __name__ == "__main__":
    main()
