"""Fig. 5a - co-existence of MVNOs.

Paper setup: three MVNOs on one gNB, each with its own Wasm scheduler
plugin and purchased (target) cumulative DL rate:

- MVNO 1: Maximum Throughput scheduler, 3 Mb/s target
- MVNO 2: Round Robin scheduler, 12 Mb/s target
- MVNO 3: Proportional Fair scheduler, 15 Mb/s target

All UEs run saturating DL traffic (iperf3 in the paper; full-buffer
sources here).  Expected shape: every MVNO achieves its target rate
simultaneously - 30 Mb/s of targets fit the 10 MHz carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.plugins import plugin_wasm
from repro.sched import TargetRateInterSlice, UeSchedInfo
from repro.traffic import FullBufferSource

#: (slice_id, name, plugin, target_bps, [(ue_id, mcs), ...])
DEFAULT_MVNOS = [
    (1, "MVNO1-MT", "mt", 3e6, [(11, 24), (12, 28)]),
    (2, "MVNO2-RR", "rr", 12e6, [(21, 26), (22, 28), (23, 24)]),
    (3, "MVNO3-PF", "pf", 15e6, [(31, 28), (32, 26), (33, 28)]),
]


@dataclass
class Fig5aResult:
    duration_s: float
    targets_bps: dict[int, float]
    achieved_bps: dict[int, float]
    series: dict[int, list[tuple[float, float]]]  # slice -> (t, bps)
    names: dict[int, str] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(name, target Mb/s, achieved Mb/s, achieved/target)."""
        out = []
        for sid, target in sorted(self.targets_bps.items()):
            achieved = self.achieved_bps[sid]
            out.append(
                (self.names.get(sid, str(sid)), target / 1e6, achieved / 1e6,
                 achieved / target if target else 0.0)
            )
        return out

    def all_targets_met(self, tolerance: float = 0.15) -> bool:
        return all(abs(ratio - 1.0) <= tolerance for *_x, ratio in self.rows())

    def shape_holds(self) -> dict[str, bool]:
        """The claims of Fig. 5a and the §5B feasibility row."""
        inter = TargetRateInterSlice(self.targets_bps, slot_duration_s=1e-3)
        # one full-buffer MCS-28 UE per slice asks for more than the carrier
        demand = {s: [UeSchedInfo(s * 10, 28, 15, 1_000_000, 0.0)] for s in self.targets_bps}
        return {
            # every MVNO achieves its target, simultaneously
            "all_targets_met": self.all_targets_met(),
            # the targets fit the 52-PRB carrier
            "targets_fit_carrier": sum(inter.allocate(52, demand, 1).values()) <= 52,
        }


def build_gnb(mvnos=None) -> GnbHost:
    mvnos = mvnos or DEFAULT_MVNOS
    targets = {sid: target for sid, _n, _p, target, _u in mvnos}
    gnb = GnbHost(
        inter_slice=TargetRateInterSlice(targets, slot_duration_s=1e-3),
        pf_time_constant_slots=100,
    )
    for sid, name, plugin_name, _target, ues in mvnos:
        runtime = gnb.add_slice(SliceRuntime(sid, name))
        runtime.use_plugin(
            SchedulerPlugin.load(plugin_wasm(plugin_name), name=plugin_name)
        )
        for ue_id, mcs in ues:
            gnb.attach_ue(
                UeContext(ue_id, sid, FixedMcsChannel(mcs), FullBufferSource())
            )
    return gnb


def run_fig5a(duration_s: float = 10.0, mvnos=None) -> Fig5aResult:
    """Run the co-existence scenario and report achieved vs target rates."""
    mvnos = mvnos or DEFAULT_MVNOS
    gnb = build_gnb(mvnos)
    n_slots = int(duration_s / gnb.carrier.slot_duration_s)
    gnb.run(n_slots)
    gnb.finish_meters()

    targets = {sid: target for sid, _n, _p, target, _u in mvnos}
    names = {sid: name for sid, name, _p, _t, _u in mvnos}
    achieved = {
        sid: gnb.slices[sid].meter.average_bps(duration_s) for sid in targets
    }
    series = {sid: gnb.slices[sid].meter.series() for sid in targets}
    return Fig5aResult(duration_s, targets, achieved, series, names)
