#!/usr/bin/env python3
"""MVNO slicing: the paper's Fig. 5a scenario as an application.

Three MVNOs rent slices on one MNO gNB.  Each brings its own scheduling
policy as a Wasm plugin (Maximum Throughput / Round Robin / Proportional
Fair) and a purchased cumulative downlink rate (3 / 12 / 15 Mb/s).  UEs
register through the AMF; the two-level scheduler enforces the purchased
rates while each MVNO's plugin decides how to split its share among its
own subscribers.

Run: python examples/mvno_slicing.py
"""

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.core5g import Amf, Snssai
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.plugins import plugin_wasm
from repro.sched import TargetRateInterSlice
from repro.traffic import FullBufferSource

MVNOS = [
    # (slice id, name, plugin, purchased rate, [(imsi, mcs), ...])
    (1, "IoT-Co (MT)", "mt", 3e6, [("001-01", 24), ("001-02", 28)]),
    (2, "TalkPlan (RR)", "rr", 12e6, [("002-01", 26), ("002-02", 28), ("002-03", 24)]),
    (3, "StreamNet (PF)", "pf", 15e6, [("003-01", 28), ("003-02", 26), ("003-03", 28)]),
]

DURATION_S = 5.0


def main() -> None:
    # --- core network: slice admission through the AMF -----------------------
    amf = Amf()
    for sid, _name, _plugin, _rate, subscribers in MVNOS:
        amf.configure_slice(Snssai(1, sid), max_ues=16)

    # --- gNB with the two-level scheduler -------------------------------------
    targets = {sid: rate for sid, _n, _p, rate, _s in MVNOS}
    gnb = GnbHost(inter_slice=TargetRateInterSlice(targets))

    for sid, name, plugin_name, rate, subscribers in MVNOS:
        runtime = gnb.add_slice(SliceRuntime(sid, name))
        runtime.use_plugin(
            SchedulerPlugin.load(plugin_wasm(plugin_name), name=plugin_name)
        )
        print(f"slice {sid} ({name}): plugin={plugin_name}, "
              f"purchased {rate / 1e6:.0f} Mb/s")
        for imsi, mcs in subscribers:
            record = amf.register(imsi, Snssai(1, sid))
            amf.establish_session(record.ue_id)
            gnb.attach_ue(
                UeContext(record.ue_id, sid, FixedMcsChannel(mcs), FullBufferSource())
            )
            print(f"  UE {record.ue_id} (IMSI {imsi}) admitted at MCS {mcs}")

    # --- run -------------------------------------------------------------------
    n_slots = int(DURATION_S * 1000)
    print(f"\nsimulating {DURATION_S:.0f} s ({n_slots} slots)...")
    gnb.run(n_slots)
    gnb.finish_meters()

    print(f"\n{'MVNO':16s} {'purchased':>10s} {'achieved':>10s} {'plugin p99':>11s}")
    for sid, name, _plugin, rate, _subs in MVNOS:
        runtime = gnb.slices[sid]
        achieved = runtime.meter.average_bps(DURATION_S)
        p99 = runtime.exec_us.quantile(0.99) if runtime.exec_us.count else float("nan")
        print(f"{name:16s} {rate / 1e6:8.1f} Mb {achieved / 1e6:8.1f} Mb "
              f"{p99:9.0f} us")

    print("\nper-UE delivery:")
    for ue in gnb.ues.values():
        rate = ue.buffer.delivered_bytes * 8 / DURATION_S / 1e6
        print(f"  UE {ue.ue_id} (slice {ue.slice_id}): {rate:5.2f} Mb/s")


if __name__ == "__main__":
    main()
