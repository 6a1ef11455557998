"""End-to-end traffic steering: the full multi-cell handover loop.

gNB reports UE + neighbour measurements over E2 -> the traffic-steering
xApp (a Wasm plugin in the RIC) detects an A3 event -> the RIC sends a
handover control -> the source node detaches the UE -> the topology
transfers the context to the target cell -> the UE is served there.
"""

import pytest

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.e2 import vendors
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.plugins import plugin_wasm
from repro.ric import MSG_UE_MEAS
from repro.ric.steering import TwoCellTopology
from repro.sched import TargetRateInterSlice
from repro.traffic import FullBufferSource


def make_cell() -> GnbHost:
    gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 10e6}))
    runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
    return gnb


@pytest.fixture
def topology() -> TwoCellTopology:
    topo = TwoCellTopology(make_cell(), make_cell(), vendors.vendor_a())
    topo.ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
    topo.connect(period_slots=50)
    return topo


class TestHandover:
    def test_a3_event_triggers_handover(self, topology):
        # serving cell is poor (CQI->MCS low), neighbour (cell 2) is great
        ue = UeContext(
            1, 1,
            channel=FixedMcsChannel(4),
            traffic=FullBufferSource(),
            neighbor_cell=2,
            neighbor_channel=FixedMcsChannel(26),
        )
        topology.attach(ue, 1)
        topology.run(200)
        assert topology.handovers, "no handover executed"
        event = topology.handovers[0]
        assert (event.ue_id, event.source_cell, event.target_cell) == (1, 1, 2)
        assert 1 in topology.cells[2].ues
        assert 1 not in topology.cells[1].ues

    def test_ue_served_after_handover(self, topology):
        ue = UeContext(
            1, 1, FixedMcsChannel(4), FullBufferSource(),
            neighbor_cell=2, neighbor_channel=FixedMcsChannel(26),
        )
        topology.attach(ue, 1)
        topology.run(200)
        delivered_before = ue.buffer.delivered_bytes
        topology.run(300)
        assert ue.buffer.delivered_bytes > delivered_before
        # served at the *better* MCS now
        assert ue.current_mcs >= 20

    def test_no_handover_without_better_neighbor(self, topology):
        ue = UeContext(
            1, 1, FixedMcsChannel(26), FullBufferSource(),
            neighbor_cell=2, neighbor_channel=FixedMcsChannel(4),
        )
        topology.attach(ue, 1)
        topology.run(200)
        assert not topology.handovers
        assert 1 in topology.cells[1].ues

    def test_neighbor_swaps_after_handover(self, topology):
        """After the move, the old serving cell becomes the neighbour."""
        ue = UeContext(
            1, 1, FixedMcsChannel(4), FullBufferSource(),
            neighbor_cell=2, neighbor_channel=FixedMcsChannel(26),
        )
        topology.attach(ue, 1)
        topology.run(200)
        assert ue.neighbor_cell == 1
        # and no ping-pong: the new neighbour (old cell) is worse, so the
        # xApp must not bounce the UE straight back
        topology.run(300)
        assert len(topology.handovers) == 1

    def test_multiple_ues_steered_independently(self, topology):
        good = UeContext(
            1, 1, FixedMcsChannel(26), FullBufferSource(),
            neighbor_cell=2, neighbor_channel=FixedMcsChannel(4),
        )
        bad = UeContext(
            2, 1, FixedMcsChannel(4), FullBufferSource(),
            neighbor_cell=2, neighbor_channel=FixedMcsChannel(26),
        )
        topology.attach(good, 1)
        topology.attach(bad, 1)
        topology.run(200)
        assert [e.ue_id for e in topology.handovers] == [2]
        assert 1 in topology.cells[1].ues
        assert 2 in topology.cells[2].ues
