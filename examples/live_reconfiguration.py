#!/usr/bin/env python3
"""Live reconfiguration and fault tolerance (Fig. 5b + §6A).

Act 1 - hot swap: an MVNO flips its scheduler MT -> PF -> RR while the gNB
keeps serving every slot (no restart, no UE disconnect), reproducing the
paper's live-swap experiment.

Act 2 - fault tolerance: the MVNO then "ships a bad update" (a plugin that
dereferences NULL).  The gNB falls back to its default scheduler, then
quarantines the plugin after repeated faults; service never stops.  The
operator finally swaps a fixed build in and releases the quarantine.

Run: python examples/live_reconfiguration.py
"""

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.gnb import FaultPolicy, GnbHost, SliceRuntime, UeContext
from repro.plugins import plugin_wasm
from repro.traffic import CbrSource

PHASE_S = 2.0


def rates_since(gnb, marks):
    out = {}
    for ue_id, ue in gnb.ues.items():
        out[ue_id] = (ue.buffer.delivered_bytes - marks.get(ue_id, 0)) * 8 / PHASE_S / 1e6
    return out


def snapshot(gnb):
    return {ue_id: ue.buffer.delivered_bytes for ue_id, ue in gnb.ues.items()}


def main() -> None:
    gnb = GnbHost(
        inter_slice=None,  # single MVNO holds the carrier
        pf_time_constant_slots=20_000,
        fault_policy=FaultPolicy(quarantine_after=3),
    )
    runtime = gnb.add_slice(SliceRuntime(1, "mvno", default_scheduler="rr"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("mt"), name="mt"))
    for ue_id, mcs in ((1, 20), (2, 24), (3, 28)):
        gnb.attach_ue(UeContext(ue_id, 1, FixedMcsChannel(mcs), CbrSource(22e6)))

    slots = int(PHASE_S * 1000)

    print("=== Act 1: hot swap MT -> PF -> RR ===")
    for phase in ("mt", "pf", "rr"):
        if phase != "mt":
            generation = runtime.swap_plugin(plugin_wasm(phase))
            print(f"\n[swap] now running '{phase}' (generation {generation}) - "
                  f"gNB never stopped (slot {gnb.slot})")
        marks = snapshot(gnb)
        gnb.run(slots)
        rates = rates_since(gnb, marks)
        print(f"  {phase.upper():3s} phase rates: " + "  ".join(
            f"UE{u}(MCS{m})={rates[u]:5.2f}Mb/s" for u, m in ((1, 20), (2, 24), (3, 28))
        ))

    print("\n=== Act 2: a bad plugin update ===")
    runtime.swap_plugin(plugin_wasm("fault_null"))
    marks = snapshot(gnb)
    gnb.run(slots)
    rates = rates_since(gnb, marks)
    print(f"  faulty build deployed; fault events: {len(gnb.fault_policy.events)}")
    for event in gnb.fault_policy.events[:4]:
        print(f"    slot {event.slot}: {event.kind} -> {event.action.value}")
    print(f"  quarantined: {gnb.fault_policy.is_quarantined(1)}")
    print("  service during the incident (default RR fallback): " + "  ".join(
        f"UE{u}={rates[u]:5.2f}Mb/s" for u in (1, 2, 3)
    ))

    print("\n=== Act 3: operator ships the fix ===")
    runtime.swap_plugin(plugin_wasm("pf"))
    gnb.fault_policy.release(1)
    marks = snapshot(gnb)
    gnb.run(slots)
    rates = rates_since(gnb, marks)
    print(f"  plugin healthy again ({runtime.scheduler_kind}); "
          f"exec calls recorded: {runtime.exec_us.count}")
    print("  rates: " + "  ".join(f"UE{u}={rates[u]:5.2f}Mb/s" for u in (1, 2, 3)))


if __name__ == "__main__":
    main()
