"""Every digest the repo pins by value, in one table.

``PINS`` maps a row to the engines it runs under (every engine when the
document it digests names none), the function that computes it and its
digest.  Each row runs at the size of the command that prints it: ``repro
rt --scenario NAME [--policy]``, ``repro chaos --seed 42 --slots 500
--log``, ``repro trace --mode inline --slots 100 --digest-only`` in a
fresh process, ``repro scale --workers 2 --cells 4 --slots 60 --mode inline``,
and the ``slow`` row, ``repro fuzz --seed 0 --budget 500``, whose oracle
runs every engine itself.  The values read the same on CPython 3.10,
3.11 and 3.12.  The same-bytes check of a change is this module, run on
the parent and on the change (``-m slow`` for the fuzz row)::

    PYTHONPATH=src python -m pytest -q tests/test_pins.py

Below the table, the gNB slot loop is pinned on state no command prints,
with constants taken on the loop that walked the UE table three times:
a 4-cell chaos shard with plugin and native slices (per-UE and per-slice
delivery state, fault logs, executed grants and every scheduler input as
ABI bytes); the sha256 of every KPM indication from a 48-UE plugin and a
24-UE native cell over 200 slots (re-taken once, when the neighbour
channel began to walk every slot: only its ``neighbor_cqi`` moved); and
a steering handover that attaches a UE behind higher ``ue_id``s.
Re-pinning means editing a digest here, in a change that says so.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

from repro.abi import SchedulerPlugin
from repro.abi.wire import pack_sched_input
from repro.channel import FixedMcsChannel, MarkovCqiChannel
from repro.chaos import ChaosRunner
from repro.chaos.schedule import schedule_from_spec
from repro.cluster import run_cluster
from repro.cluster.shard import build_cell, render_cell_log, step_operator_loop
from repro.cluster.spec import ClusterSpec
from repro.e2 import vendors
from repro.e2.comm import CommChannel
from repro.e2.node import E2NodeAgent
from repro.fuzz import run_campaign
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.netio.batching import BatchSender
from repro.netio.bus import InProcNetwork
from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm
from repro.ric import MSG_UE_MEAS
from repro.ric.steering import TwoCellTopology
from repro.rt.scenarios import run_scenario, scenario_policy
from repro.sched import TargetRateInterSlice
from repro.sched.intra import make_intra_scheduler
from repro.traffic import CbrSource, FullBufferSource
from repro.wasm import codecache, instance
from repro.wasm.threaded import ENGINES


def rt_digest(name: str, engine: str, policy: str = "") -> str:
    policy = scenario_policy(name).override(policy)
    return run_scenario(name, 0, policy=policy, engine=engine).digest


def chaos_digest(engine: str, header: bool = True) -> str:
    log = ChaosRunner(seed=42, slots=500, engine=engine).run().log
    return hashlib.sha256((log if header else log.split("\n", 1)[1]).encode()).hexdigest()


def cold_cluster(engine: str, **shape):
    """An inline cluster run with no compiled body or plugin binary kept
    from earlier runs: it promotes and compiles as a fresh process does."""
    codecache.clear()
    plugin_wasm.cache_clear()
    return run_cluster(ClusterSpec(workers=2, cells=4, engine=engine, mode="inline", **shape))


def scale_digests(engine: str) -> str:
    report = cold_cluster(engine, slots=60)
    # only aot tiers up: its hosts start on threaded code
    promoted = report.metrics.get("waran_plugin_promotions_total", {"series": []})
    assert (sum(s["value"] for s in promoted["series"]) > 0) == (engine == "aot")
    return report.bytes_digest + report.fault_digest


def trace_digest(engine: str) -> str:
    return cold_cluster(engine, slots=100, trace=True).trace_digest


def fuzz_digest(_engine: str) -> str:
    report = run_campaign(0, 500)
    assert report.failures == [], report.failures
    return report.digest


#: row -> (engines, compute(engine), digest)
PINS = {
    "rt_flash_crowd": (ENGINES, partial(rt_digest, "flash_crowd"),
                       "7cefbc23fe6e870084813e33c5686d570a7b7b7961f4c49ab998b0960718c6da"),
    "rt_handover": (ENGINES, partial(rt_digest, "handover"),
                    "e99169af4524c2654b3175bd0ff6f6afec4d0af6fcb8f3c3f7edf1fc4f9e5ea7"),
    "rt_mixed_sla": (ENGINES, partial(rt_digest, "mixed_sla"),
                     "4399cda39749960894fe8dd0a78be2aca6567b4adb0397604401f40bce125b5a"),
    "rt_mixed_sla_lanes": (ENGINES, partial(rt_digest, "mixed_sla", policy="lanes=gold!:60;be:40"),
                           "0be9e8de857f01fc4077a2081b40d14a468b99abac734904e88f17ab594c3573"),
    "chaos_log": (("aot",), chaos_digest,
                  "97ad7369bd5938ba5673ff4fabcd9b94acf5a03de723b17584c025a74810d039"),
    "chaos_log_body": (ENGINES, partial(chaos_digest, header=False),
                       "7091fe6f326be0a428b742cf5b850979c11bd70a9d11f7a1073e4f7d895f6782"),
    "trace_inline": (ENGINES, trace_digest,
                     "f0ef83b3cf7f09f21c2c190c402e0c5f73673cd173ae4570adfd654c83422200"),
    "scale_inline": (ENGINES, scale_digests,
                     "4c2f0b1789c5aba8f0989bff53c0285e13889201b400048955ccee72a0864e8b"  # bytes
                     "57b805729abe1cb6cb2a1884035aedaa27f07246534000d49da3326ce98e5e19"),  # faults
    "fuzz_campaign": (("aot",), fuzz_digest,
                      "61256a69a413413a78cf84527f050a251c0934eeff9d924f2884cf73a95977e2"),
}


@pytest.mark.parametrize("row, engine", [
    pytest.param(row, engine, id=f"{row}-{engine}",
                 marks=[pytest.mark.slow] if row == "fuzz_campaign" else [])
    for row, (engines, _, _) in PINS.items()
    for engine in engines
])
def test_pin(row, engine):
    _, compute, digest = PINS[row]
    assert compute(engine) == digest


def test_a_legacy_fuel_miscount_fails_only_legacy(monkeypatch):
    """One more fuel per legacy frame (a ``call`` that costs 2) moves a
    row that folds fuel under legacy and under no other engine.  Legacy,
    because aot hosts run threaded code until they promote: a threaded
    miscount would move the aot rows too."""
    execute = instance.execute

    def miscounted(store, *args):
        store.fuel -= 1
        return execute(store, *args)

    monkeypatch.setattr(instance, "execute", miscounted)
    _, compute, digest = PINS["rt_flash_crowd"]
    assert compute("legacy") != digest
    assert compute("threaded") == compute("aot") == digest


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
    gnb.inter_slice = TargetRateInterSlice(targets)
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
            inter_slice=TargetRateInterSlice({1: 10e6})
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
