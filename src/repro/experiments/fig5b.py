"""Fig. 5b - live swap of the MVNO scheduler.

Paper setup: one MVNO with a 22 Mb/s target and three UEs at fixed MCS
20, 24 and 28.  The MVNO's plugin is hot-swapped MT -> PF -> RR while the
gNB keeps running and no UE disconnects.  The PF phase deliberately uses a
*large* time constant so long-run throughput dominates the metric.

Expected shape (paper):

- MT phase: the MCS-28 UE reaches the target, MCS-24 takes the remainder,
  MCS-20 is mostly starved;
- PF phase start: the starved MCS-20 UE has the lowest long-run
  throughput, so PF serves it first; the MCS-24 UE joins after a while;
- RR phase: all three UEs share resources equally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abi import SchedulerPlugin
from repro.channel import FixedMcsChannel
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.metrics import TimeSeries
from repro.plugins import plugin_wasm
from repro.sched import TargetRateInterSlice
from repro.traffic import CbrSource, FullBufferSource

UE_MCS = {1: 20, 2: 24, 3: 28}
TARGET_BPS = 22e6
PHASES = ("mt", "pf", "rr")
#: time constant of the gNB's long-term (PF) rate average, in slots
PF_TIME_CONSTANT_SLOTS = 20_000


@dataclass
class Fig5bResult:
    phase_duration_s: float
    #: per-UE bitrate series over the whole run
    series: dict[int, list[tuple[float, float]]]
    #: per-phase, per-UE mean rate (Mb/s)
    phase_means: dict[str, dict[int, float]]
    #: PF catch-up: rate of the MCS-20 UE in the first vs second half of PF
    pf_first_half: dict[int, float]
    pf_second_half: dict[int, float]

    def shape_holds(self) -> dict[str, bool]:
        """The qualitative claims of Fig. 5b, as checkable booleans."""
        mt = self.phase_means["mt"]
        rr = self.phase_means["rr"]
        checks = {
            # MT: best channel dominates, worst starved
            "mt_best_dominates": mt[3] > mt[2] >= mt[1],
            "mt_worst_starved": mt[1] < 0.1 * mt[3],
            # PF start: previously-starved UE gets served first
            "pf_starved_first": self.pf_first_half[1] > self.pf_first_half[3],
            # PF: mid-UE joins in the second half
            "pf_mid_joins": self.pf_second_half[2] > self.pf_first_half[2],
            # RR: equal PRB shares -> rates ordered by MCS but all nonzero
            "rr_all_served": min(rr.values()) > 0.5,
        }
        return checks


def run_fig5b(phase_duration_s: float = 8.0) -> Fig5bResult:
    # One MVNO holding the whole carrier; each UE is an iperf3-style CBR
    # stream at the 22 Mb/s target.  The *cell* capacity (not a slice cap)
    # is the contended resource, as in the paper's single-MVNO setup.
    gnb = GnbHost(
        inter_slice=None,
        pf_time_constant_slots=PF_TIME_CONSTANT_SLOTS,
    )
    runtime = gnb.add_slice(SliceRuntime(1, "mvno"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("mt"), name="mt"))
    for ue_id, mcs in UE_MCS.items():
        gnb.attach_ue(
            UeContext(ue_id, 1, FixedMcsChannel(mcs), CbrSource(TARGET_BPS))
        )

    slots_per_phase = int(phase_duration_s / gnb.carrier.slot_duration_s)
    per_ue = {ue_id: TimeSeries(str(ue_id)) for ue_id in UE_MCS}
    last_delivered = {ue_id: 0 for ue_id in UE_MCS}

    def sample(now_s: float) -> None:
        for ue_id, ue in gnb.ues.items():
            delta = ue.buffer.delivered_bytes - last_delivered[ue_id]
            last_delivered[ue_id] = ue.buffer.delivered_bytes
            per_ue[ue_id].record(now_s, delta * 8 / sample_dt)

    sample_dt = 0.1  # seconds per sample
    sample_every = int(sample_dt / gnb.carrier.slot_duration_s)

    for phase_index, phase in enumerate(PHASES):
        if phase_index > 0:
            runtime.swap_plugin(plugin_wasm(phase))
        for i in range(slots_per_phase):
            gnb.step()
            if gnb.slot % sample_every == 0:
                sample(gnb.now_s)

    phase_means: dict[str, dict[int, float]] = {}
    for phase_index, phase in enumerate(PHASES):
        t0 = phase_index * phase_duration_s
        t1 = t0 + phase_duration_s
        phase_means[phase] = {
            ue_id: per_ue[ue_id].mean_between(t0, t1) / 1e6 for ue_id in UE_MCS
        }

    pf_t0 = phase_duration_s
    pf_mid = pf_t0 + phase_duration_s / 2
    pf_t1 = pf_t0 + phase_duration_s
    pf_first = {
        ue_id: per_ue[ue_id].mean_between(pf_t0, pf_mid) / 1e6 for ue_id in UE_MCS
    }
    pf_second = {
        ue_id: per_ue[ue_id].mean_between(pf_mid, pf_t1) / 1e6 for ue_id in UE_MCS
    }

    series = {
        ue_id: list(zip(per_ue[ue_id].times, per_ue[ue_id].values))
        for ue_id in UE_MCS
    }
    return Fig5bResult(phase_duration_s, series, phase_means, pf_first, pf_second)
