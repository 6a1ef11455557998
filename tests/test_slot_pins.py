"""The gNB slot loop pinned by value.

Every constant here was computed on the slot loop that walked the UE
table three times per slot.  A change to ``GnbHost._step_slot`` (or to
the channel, scheduler or E2 code it calls) that moves one delivered
byte, one fault-log line, one scheduler input or one E2 indication byte
fails here, not only in a CI job.

- rt scenarios: ``run_scenario(name, 0, slots=120)`` digests;
- a 4-cell cluster shard with plugin and native slices under chaos:
  per-UE and per-slice delivery state, the fault logs, the executed
  grants and every scheduler input (the ABI bytes a plugin receives);
- E2: the sha256 of every encoded KPM indication from a 48-UE plugin
  cell and a 24-UE native cell over 200 slots (re-taken once, when the
  neighbour channel began to walk every slot instead of once per KPM
  report: only its ``neighbor_cqi`` moved);
- steering: a two-cell run whose handover attaches a UE behind higher
  ``ue_id``s, so the attach order of ``gnb.ues`` is pinned.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.abi import SchedulerPlugin
from repro.abi.wire import pack_sched_input
from repro.channel import FixedMcsChannel, MarkovCqiChannel
from repro.chaos.schedule import schedule_from_spec
from repro.cluster.shard import build_cell, render_cell_log, step_operator_loop
from repro.cluster.spec import ClusterSpec
from repro.e2 import vendors
from repro.e2.comm import CommChannel
from repro.e2.node import E2NodeAgent
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio.batching import BatchSender
from repro.netio.bus import InProcNetwork
from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm
from repro.ric import MSG_UE_MEAS
from repro.ric.steering import TwoCellTopology
from repro.rt.scenarios import run_scenario
from repro.sched import TargetRateInterSlice
from repro.sched.intra import make_intra_scheduler
from repro.traffic import CbrSource, FullBufferSource

SCENARIO_DIGESTS = {
    "flash_crowd": "56a8b7307ffa6ba126babdc0a195b34cda97bec516c135d069c041b6d3b0a187",
    "handover": "7e2a28f9c9e8e02e91d8d6ef8d0349c24212b8cafab2eda3def449a640dba29a",
    "mixed_sla": "cb0407cc5aa7a81c4ca488de34fb1e5ad2beca20956c3a7a1221681a256632cf",
}

CLUSTER_PINS = {
    "bytes": "1619e686b9b03706731a83c3554237f617941f737c7b5196e248cb34a25f10d1",
    "faults": "899d5407561b7cedbeb2b4235be8abffa734d3c0cd1598824ab2e934441ea6e6",
    "grants": "57745421c1677abc8d129dcffeca7d51ec89847dd92fdee5f2891c54bb6b1f79",
    "inputs": "c62342bac25991c0254a33bcff1cfdecc66bd32822a02d52c5cc5f0823c41714",
}

INDICATION_PINS = {
    "plugin48": "8e47c474e4fffedb39699b39ec2af1f671c39bb1ca8aceea8c3df0d157df8a23",
    "native24": "f7fca8d56bd7c9fae94bee3f7f28291de016496c02d3b43832136c08b072356c",
}

STEERING_PIN = "b3b547675dd57d92a747b1ca4fe6b91a2f9c7c3d4c0f7bb62b7567f8f491b725"


def _ue_state(gnb: GnbHost) -> str:
    """Everything a slot leaves behind per UE and per slice, in table order."""
    lines = [f"total={gnb.total_delivered_bytes} slot={gnb.slot}"]
    for ue in gnb.ues.values():
        buf = ue.buffer
        lines.append(
            f"ue {ue.ue_id} s{ue.slice_id} cqi={ue.current_cqi} "
            f"mcs={ue.current_mcs} occ={buf.occupancy_bytes} "
            f"drop={buf.dropped_bytes} dlv={buf.delivered_bytes} "
            f"avg={ue.avg_tput_bps!r} meter={ue.meter.total_bytes} "
            f"{ue.meter.history!r}"
        )
    for sid, runtime in gnb.slices.items():
        lines.append(
            f"slice {sid} {runtime.meter.total_bytes} {runtime.meter.history!r}"
        )
    return "\n".join(lines)


def _record_inputs(scheduler, sink: list) -> None:
    """Instance-level wrapper: every call's input as the ABI packs it."""
    inner = scheduler.schedule

    def schedule(prbs, ues, slot, *args, **kwargs):
        sink.append(pack_sched_input(slot, prbs, ues))
        return inner(prbs, ues, slot, *args, **kwargs)

    scheduler.schedule = schedule


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_rt_scenario_digest(name):
    assert run_scenario(name, 0, slots=120).digest == SCENARIO_DIGESTS[name]


def cluster_digests() -> dict[str, str]:
    spec = ClusterSpec(
        workers=1, cells=4, ues=60, slots=160, seed=3,
        chaos="seed=2,trap=0.03", mode="inline",
    )
    schedule = schedule_from_spec(spec.chaos)
    net = InProcNetwork()
    sender = BatchSender(net.endpoint("worker0"), "coord")
    cells = [
        build_cell(spec, g, sender, vendors.vendor_b(), schedule)
        for g in range(spec.cells)
    ]
    inputs: list[bytes] = []
    for cell in cells:
        for sid, runtime in cell.gnb.slices.items():
            # odd cells run slice 2 natively; the rest stay plugins, whose
            # faults fall back to the native default scheduler
            if cell.cell_id % 2 and sid == 2:
                runtime.use_native(make_intra_scheduler(SCHEDULER_PLUGINS[sid - 1]))
                _record_inputs(runtime.native, inputs)
            else:
                _record_inputs(runtime.plugin, inputs)
    grants = hashlib.sha256()
    for slot in range(spec.slots):
        for cell in cells:
            executed = cell.gnb.step()
            grants.update(repr(sorted(
                (sid, [(g.ue_id, g.prbs) for g in gs])
                for sid, gs in executed.items()
            )).encode())
            cell.node.step()
            step_operator_loop(cell, slot, spec.release_after)
    state = "\n".join(_ue_state(cell.gnb) for cell in cells)
    faults = "\n".join(
        render_cell_log(cell, spec, "-", schedule) for cell in cells
    )
    return {
        "bytes": hashlib.sha256(state.encode()).hexdigest(),
        "faults": hashlib.sha256(faults.encode()).hexdigest(),
        "grants": grants.hexdigest(),
        "inputs": hashlib.sha256(b"".join(inputs)).hexdigest(),
    }


def test_cluster_cells_pinned():
    assert cluster_digests() == CLUSTER_PINS


def _indication_cell(n_ues: int, native: bool) -> GnbHost:
    gnb = GnbHost()
    targets = {}
    for sid, kind in enumerate(SCHEDULER_PLUGINS, start=1):
        runtime = gnb.add_slice(SliceRuntime(sid, kind))
        if native:
            runtime.use_native(make_intra_scheduler(kind))
        else:
            runtime.use_plugin(SchedulerPlugin.load(plugin_wasm(kind), name=kind))
        targets[sid] = 12e6
    gnb.inter_slice = TargetRateInterSlice(targets, slot_duration_s=1e-3)
    for i in range(n_ues):
        gnb.attach_ue(
            UeContext(
                ue_id=i + 1,
                slice_id=i % len(targets) + 1,
                channel=MarkovCqiChannel(
                    initial_cqi=4 + i % 10, p_step=0.3, seed=100 + i
                ),
                traffic=CbrSource(rate_bps=(1 + i % 7) * 1e6),
                neighbor_cell=2 if i % 3 == 0 else 0,
                neighbor_channel=(
                    MarkovCqiChannel(initial_cqi=9, p_step=0.3, seed=500 + i)
                    if i % 3 == 0 else None
                ),
            )
        )
    return gnb


def indication_digest(n_ues: int, native: bool) -> str:
    net = InProcNetwork()
    ric = net.endpoint("ric")
    gnb = _indication_cell(n_ues, native)
    node = E2NodeAgent(
        gnb, CommChannel(net.endpoint("gnb"), vendors.vendor_b()), "gnb"
    )
    node.local_subscribe(7, "ric", 5)
    digest = hashlib.sha256()
    for _ in range(200):
        gnb.step()
        node.step()
        for _source, payload in ric.drain():
            digest.update(hashlib.sha256(payload).digest())
    return digest.hexdigest()


def test_e2_indications_pinned():
    assert {
        "plugin48": indication_digest(48, native=False),
        "native24": indication_digest(24, native=True),
    } == INDICATION_PINS


def steering_digest() -> str:
    def cell() -> GnbHost:
        gnb = GnbHost(
            inter_slice=TargetRateInterSlice({1: 10e6}, slot_duration_s=1e-3)
        )
        runtime = gnb.add_slice(SliceRuntime(1, "tenant"))
        runtime.use_native(make_intra_scheduler("pf"))
        return gnb

    topo = TwoCellTopology(cell(), cell(), vendors.vendor_a())
    topo.ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
    topo.connect(period_slots=50)
    # UE 1 starts on a poor cell 1 with a strong neighbour; cell 2
    # already serves UEs 2..4 at the same MCS, so the handover attaches
    # UE 1 behind them and the token-capped demand splits its budget
    # between equal-MCS rows in table order
    topo.attach(
        UeContext(1, 1, FixedMcsChannel(4), FullBufferSource(),
                  neighbor_cell=2, neighbor_channel=FixedMcsChannel(26)),
        1,
    )
    for ue_id in (2, 3, 4):
        topo.attach(UeContext(ue_id, 1, FixedMcsChannel(26), CbrSource(3e6)), 2)
    topo.run(300)
    assert [(h.ue_id, h.source_cell, h.target_cell) for h in topo.handovers] == [
        (1, 1, 2)
    ]
    assert list(topo.cells[2].ues) == [2, 3, 4, 1]
    state = "\n".join(_ue_state(gnb) for gnb in topo.cells.values())
    return hashlib.sha256(state.encode()).hexdigest()


def test_steering_attach_order_pinned():
    assert steering_digest() == STEERING_PIN
