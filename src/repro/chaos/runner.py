"""The chaos soak harness: a full gNB+RIC system under seeded fault load.

:class:`ChaosRunner` stands up the complete WA-RAN control loop - a gNB
with three plugin-scheduled slices, an E2 node agent, and a near-RT RIC
hosting an SLA xApp - then runs it for thousands of slots with every
chaos injector enabled: plugin traps, fuel cuts, memory bit flips, ABI
violations, deadline blowouts, and a transport that drops, duplicates,
corrupts, delays and fails E2 messages.  Both ends are supervised
(retry + backoff + circuit breakers) and the gNB checkpoints plugins on
its success path so quarantined slices recover by restore.

The run asserts the system invariants from §6A:

1. the host process never raises - every fault is absorbed by a sandbox
   boundary, the fault policy, or a supervisor;
2. every non-disconnected slice is scheduled every slot (fallback to the
   default native scheduler counts as served);
3. a released slice recovers within a bounded number of slots - either a
   successful plugin call clears its probation or the escalation ladder
   re-quarantines/disconnects it; silence is the only failure;
4. the run is reproducible: an identical seed produces a byte-identical
   fault/event log (:attr:`SoakReport.digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.abi.host import HostLimits, SchedulerPlugin
from repro.channel.models import FixedMcsChannel
from repro.chaos.schedule import ChaosConfig, FaultSchedule
from repro.chaos.supervisor import Supervisor
from repro.chaos.transport import ChaosEndpoint
from repro.e2 import vendors
from repro.e2.comm import CommChannel, GuardedChannel
from repro.e2.node import E2NodeAgent
from repro.gnb.fault import FaultPolicy, OperatorLadder
from repro.gnb.host import GnbHost, SliceRuntime, UeContext
from repro.netio import InProcNetwork
from repro.ric.host import NearRtRic
from repro.ric.wire import MSG_SLICE_KPI
from repro.sched.inter import TargetRateInterSlice
from repro.traffic.sources import FullBufferSource


@dataclass
class SoakReport:
    """Everything one soak run produced, plus its reproducibility digest."""

    seed: int
    slots: int
    engine: str
    violations: list[str] = field(default_factory=list)
    injection_counts: dict[str, int] = field(default_factory=dict)
    faults: int = 0
    releases: int = 0
    recoveries: int = 0
    restores: int = 0
    checkpoints: int = 0
    disconnects: int = 0
    log: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        """sha256 of the fault/event log - equal iff two runs matched."""
        return hashlib.sha256(self.log.encode()).hexdigest()

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        counts = ",".join(
            f"{k}={v}" for k, v in sorted(self.injection_counts.items())
        )
        return (
            f"chaos soak seed={self.seed} slots={self.slots} "
            f"engine={self.engine}: {status}; injected[{counts}] "
            f"faults={self.faults} releases={self.releases} "
            f"recoveries={self.recoveries} restores={self.restores} "
            f"disconnects={self.disconnects} digest={self.digest[:16]}"
        )


class ChaosRunner:
    """Builds the system under test and soaks it under a seeded schedule."""

    def __init__(
        self,
        seed: int = 0,
        slots: int = 10_000,
        engine: str | None = None,
        config: ChaosConfig | None = None,
        ues_per_slice: int = 2,
        checkpoint_every: int = 25,
        release_after: int = 20,
        recovery_bound: int = 30,
        kpm_period: int = 10,
        fuel: int = 2_000_000,
        rt=None,
    ):
        self.seed = seed
        self.slots = slots
        self.engine = engine
        self.config = config or ChaosConfig.soak(seed)
        #: optional rt dispatch policy (:class:`repro.rt.RtPolicy` or its
        #: string form) - composes budget enforcement with chaos faults;
        #: chaos ``deadline``/``fuel_cut`` injections keep their own trap
        #: kinds so the fault log attributes every cut correctly
        from repro.rt.dispatcher import RtPolicy

        if isinstance(rt, str):
            rt = RtPolicy.from_string(rt)
        self.rt = rt
        self.ues_per_slice = ues_per_slice
        self.checkpoint_every = checkpoint_every
        #: slots a slice stays quarantined before the operator releases it
        self.release_after = release_after
        #: slots a released slice may stay silent before it is a violation
        self.recovery_bound = recovery_bound
        self.kpm_period = kpm_period
        self.fuel = fuel

    # ----- system construction ---------------------------------------------

    def _build(self, schedule: FaultSchedule):
        from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm

        # quarantine_after=2 so the escalation ladder actually gets climbed
        # at soak-mix fault rates; disconnect stays far enough up that only
        # a repeatedly re-faulting slice ever reaches it
        fault_policy = FaultPolicy(quarantine_after=2, disconnect_after=10)
        gnb = GnbHost(
            fault_policy=fault_policy,
            checkpoint_every=self.checkpoint_every,
            rt=self.rt,
        )
        targets = {}
        ue_id = 0
        for sid, name in enumerate(SCHEDULER_PLUGINS, start=1):
            runtime = gnb.add_slice(SliceRuntime(sid, name))
            runtime.use_plugin(
                SchedulerPlugin.load(
                    plugin_wasm(name),
                    name=name,
                    limits=HostLimits(fuel=self.fuel),
                    engine=self.engine,
                    chaos=schedule,
                )
            )
            targets[sid] = 5e6
            for _ in range(self.ues_per_slice):
                ue_id += 1
                gnb.attach_ue(
                    UeContext(ue_id, sid, FixedMcsChannel(28), FullBufferSource())
                )
        gnb.inter_slice = TargetRateInterSlice(
            targets, slot_duration_s=gnb.carrier.slot_duration_s
        )

        net = InProcNetwork()
        vendor = vendors.vendor_b()
        ric_endpoint = ChaosEndpoint(net.endpoint("ric"), schedule)
        gnb_endpoint = ChaosEndpoint(net.endpoint("gnb"), schedule)
        ric = NearRtRic(
            CommChannel(ric_endpoint, vendor),
            supervisor=Supervisor(seed=self.seed + 1),
        )
        node = E2NodeAgent(
            gnb,
            GuardedChannel(gnb_endpoint, vendor),
            "gnb",
            supervisor=Supervisor(seed=self.seed + 2),
        )
        ric.load_xapp(
            "sla",
            plugin_wasm("xapp_sla"),
            (MSG_SLICE_KPI,),
            engine=self.engine,
            chaos=schedule,
        )
        ric.connect("gnb", period_slots=self.kpm_period)
        return gnb, node, ric, (ric_endpoint, gnb_endpoint)

    # ----- the soak loop ----------------------------------------------------

    def run(self) -> SoakReport:
        from repro.wasm.threaded import resolve_engine

        schedule = FaultSchedule(self.config)
        gnb, node, ric, endpoints = self._build(schedule)
        fault_policy = gnb.fault_policy
        report = SoakReport(
            self.seed, self.slots, resolve_engine(self.engine)
        )
        ops = OperatorLadder()

        for slot in range(self.slots):
            try:
                executed = gnb.step()
                node.step()
                ric.step()
            except Exception as exc:  # invariant 1: the host never raises
                report.violations.append(
                    f"slot={slot} host raised {type(exc).__name__}: {exc}"
                )
                break

            # invariant 2: every non-disconnected slice was scheduled
            for sid in gnb.slices:
                if not fault_policy.is_disconnected(sid) and sid not in executed:
                    report.violations.append(
                        f"slot={slot} slice={sid} not scheduled"
                    )

            ops.step(gnb, slot, self.release_after)

            # invariant 3: a released slice must respond within the bound -
            # either a success clears its probation counter or the ladder
            # re-escalates it (both handled by the step above); staying
            # silent is the violation
            for sid, at in sorted(ops.released_at.items()):
                if slot - at > self.recovery_bound:
                    report.violations.append(
                        f"slot={slot} slice={sid} silent for "
                        f"{slot - at} slots after release"
                    )
                    del ops.released_at[sid]

        report.releases = ops.releases
        report.recoveries = ops.recoveries
        gnb.finish_meters()
        report.injection_counts = schedule.counts()
        report.faults = len(fault_policy.events)
        report.disconnects = len(fault_policy.disconnected)
        for runtime in gnb.slices.values():
            report.restores += runtime.restores
            report.checkpoints += runtime.checkpoints_taken
        report.log = self._render_log(
            report, schedule, gnb, node, ric, endpoints, ops.events
        )
        return report

    # ----- the deterministic fault/event log --------------------------------

    def _render_log(
        self, report, schedule, gnb, node, ric, endpoints, events
    ) -> str:
        """Every line here must be a pure function of the seed (per engine):
        no timestamps, no elapsed times, no process-dependent values."""
        lines = [
            f"chaos-soak seed={self.seed} slots={self.slots} "
            f"engine={report.engine}"
        ]
        lines.append("[injections]")
        lines.extend(i.describe() for i in schedule.injected)
        lines.append("[faults]")
        lines.extend(e.describe() for e in gnb.fault_policy.events)
        lines.append("[events]")
        lines.extend(events)
        if gnb.rt is not None:
            lines.extend(gnb.rt.log_lines())
        lines.append("[breakers]")
        for supervisor, side in ((ric.supervisor, "ric"), (node.supervisor, "gnb")):
            for peer, breaker in sorted(supervisor.breakers().items()):
                for src, dst in breaker.transitions:
                    lines.append(f"{side} peer={peer} {src}->{dst}")
        lines.append("[counts]")
        for kind, count in sorted(report.injection_counts.items()):
            lines.append(f"injected {kind}={count}")
        for endpoint in endpoints:
            for kind, count in sorted(endpoint.stats.items()):
                lines.append(f"transport {endpoint.name} {kind}={count}")
        lines.append(
            f"supervisor ric retries={ric.supervisor.retries} "
            f"gave_up={ric.supervisor.gave_up} "
            f"rejected={ric.supervisor.rejected} "
            f"abandoned={ric.sends_abandoned} "
            f"xapp_skipped={ric.xapp_dispatches_skipped}"
        )
        lines.append(
            f"supervisor gnb retries={node.supervisor.retries} "
            f"gave_up={node.supervisor.gave_up} "
            f"rejected={node.supervisor.rejected} "
            f"abandoned={node.sends_abandoned}"
        )
        lines.append(
            f"channel ric decode_failures={ric.channel.decode_failures} "
            f"received={ric.channel.received}"
        )
        lines.append(
            f"channel gnb decode_failures={node.channel.decode_failures} "
            f"guard_rejections={node.channel.guard_rejections} "
            f"received={node.channel.received}"
        )
        lines.append(
            f"gnb delivered_bytes={gnb.total_delivered_bytes} "
            f"checkpoints={report.checkpoints} restores={report.restores} "
            f"disconnected={sorted(gnb.fault_policy.disconnected)}"
        )
        lines.append(
            f"ric indications={ric.indications_seen} "
            f"controls={len(ric.controls_sent)} acks={len(ric.acks)}"
        )
        return "\n".join(lines) + "\n"
