"""Latency-driven admission control for plugin dispatch.

The controller watches each plugin's observed fuel consumption (fuel is
metered one unit per executed instruction, so per-call fuel *is* the
deterministic execution-time proxy that also feeds the
``waran_plugin_fuel_used`` histogram in the obs registry) and decides,
per slot, whether the plugin may dispatch:

- **admit** - the plugin's tail fits its per-call budget;
- **demote** - its observed p99 would blow the lane budget, but it may
  still fit in the lowest-priority lane's leftovers;
- **reject** - its p99 would not fit even the whole slot budget; the
  slice degrades to the native fallback scheduler for the slot;
- **quarantine** - repeated overruns (fuel-cut preemptions) or rejects
  opened the plugin's circuit; the existing
  :class:`repro.chaos.supervisor.CircuitBreaker` half-open machinery
  drives probation: after ``probation_slots`` the next dispatch is a
  **probe**, and enough in-budget probes re-admit the plugin.

Every decision is a pure function of the per-plugin fuel history and the
slot number - never of wall-clock time - so admission logs and cluster
digests are byte-identical across runs, engines with identical fuel
metering, and worker counts.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

from repro.chaos.supervisor import BreakerState, CircuitBreaker
from repro.obs import OBS, BoundMetrics, MetricsRegistry


class Verdict(enum.Enum):
    ADMIT = "admit"
    PROBE = "probe"  # half-open probation dispatch
    DEMOTE = "demote"  # dispatched, but in the lowest-priority lane
    REJECT = "reject"  # not dispatched this slot (native fallback)
    QUARANTINE = "quarantine"  # circuit open: not dispatched until probation
    SHED = "shed"  # admitted but the lane planner ran out of budget

    def __init__(self, value: str):
        #: whether the plugin runs this slot (a plain attribute: the slot
        #: loop reads it per slice)
        self.dispatches = value in ("admit", "probe", "demote")


def _bind_verdicts(reg: MetricsRegistry, plugin: str):
    return reg.counter(
        "waran_rt_verdicts_total", "admission verdicts by plugin"
    ).labels_by("verdict", plugin=plugin)


def _bind_fuel_p99(reg: MetricsRegistry, plugin: str):
    return reg.gauge(
        "waran_rt_fuel_p99", "windowed per-call fuel p99 by plugin"
    ).labels(plugin=plugin)


@dataclass
class PluginAdmissionState:
    """Deterministic per-plugin admission bookkeeping."""

    key: str
    breaker: CircuitBreaker
    #: sliding window of *successful* call fuel - overruns are censored
    #: (the cut hides the true cost), the breaker tracks those instead
    window: deque = field(default_factory=lambda: deque(maxlen=64))
    overruns: int = 0
    rejects: int = 0
    quarantines: int = 0
    readmissions: int = 0
    last_verdict: str = ""
    _verdict_series: BoundMetrics = field(
        default_factory=lambda: BoundMetrics(_bind_verdicts),
        repr=False, compare=False,
    )
    # bound apart from the verdicts: the gauge opens on the first sample
    _fuel_p99_series: BoundMetrics = field(
        default_factory=lambda: BoundMetrics(_bind_fuel_p99),
        repr=False, compare=False,
    )
    #: the window's samples in order, kept beside it
    _ordered: list = field(default_factory=list, repr=False, compare=False)

    def fuel_p99(self) -> int | None:
        """p99 over the sample window (an exact order statistic)."""
        ordered = self._ordered
        if not ordered:
            return None
        return ordered[int(0.99 * (len(ordered) - 1))]

    def add_sample(self, fuel: int) -> None:
        """Keep one successful call's fuel in the window and its copy."""
        window, ordered = self.window, self._ordered
        if len(window) == window.maxlen:
            if not window:
                return  # a zero-length window keeps nothing
            del ordered[bisect_left(ordered, window[0])]
        window.append(fuel)
        insort(ordered, fuel)


class AdmissionController:
    """Per-plugin verdicts + the breaker-driven probation/re-admission."""

    def __init__(self, policy):
        self.policy = policy
        self._plugins: dict[str, PluginAdmissionState] = {}
        #: deterministic audit log: one line per verdict *change* per plugin
        self.events: list[str] = []

    def state(self, key: str) -> PluginAdmissionState:
        st = self._plugins.get(key)
        if st is None:
            st = PluginAdmissionState(
                key,
                CircuitBreaker(
                    f"rt:{key}",
                    failure_threshold=self.policy.quarantine_after,
                    reset_after=self.policy.probation_slots,
                    half_open_successes=self.policy.probe_successes,
                ),
                window=deque(maxlen=self.policy.window),
            )
            self._plugins[key] = st
        return st

    def states(self) -> dict[str, PluginAdmissionState]:
        return dict(self._plugins)

    def decide(
        self,
        key: str,
        slot: int,
        call_budget: int,
        slot_budget: int,
        sheddable: bool,
    ) -> Verdict:
        """The verdict for one dispatch request, given its planned budget."""
        st = self.state(key)
        breaker = st.breaker
        if breaker.state is not BreakerState.CLOSED:
            if not breaker.allow(slot):
                return self._verdict(st, slot, Verdict.QUARANTINE, "circuit open")
            # not closed and allowed: half-open, so a probe
            return self._verdict(st, slot, Verdict.PROBE, "half-open probation")
        policy = self.policy
        if not policy.admission:
            return self._verdict(st, slot, Verdict.ADMIT, "admission off")
        p99 = st.fuel_p99()
        if p99 is None or len(st.window) < policy.min_samples:
            return self._verdict(st, slot, Verdict.ADMIT, "warming up")
        needed = int(p99 * policy.headroom)
        if call_budget <= 0 or needed <= call_budget:
            return self._verdict(st, slot, Verdict.ADMIT, "p99={}", p99)
        if not sheddable:
            # SLA lanes are never shed on scarcity; a genuinely misbehaving
            # SLA plugin still fuel-cuts and climbs the fault ladder
            return self._verdict(st, slot, Verdict.ADMIT, "sla p99={}", p99)
        if needed > slot_budget:
            st.rejects += 1
            st.breaker.record_failure(slot)  # rejects climb toward probation
            if st.breaker.state is BreakerState.OPEN:
                st.quarantines += 1
            return self._verdict(
                st, slot, Verdict.REJECT,
                "p99={} exceeds slot budget {}", p99, slot_budget,
            )
        return self._verdict(
            st, slot, Verdict.DEMOTE,
            "p99={} exceeds lane budget {}", p99, call_budget,
        )

    def observe(self, key: str, slot: int, fuel_used: int | None, overrun: bool) -> None:
        """Record one dispatched call's outcome (fuel-cut or in budget)."""
        st = self.state(key)
        if overrun:
            st.overruns += 1
            was = st.breaker.state
            st.breaker.record_failure(slot)
            if st.breaker.state is BreakerState.OPEN and was is not BreakerState.OPEN:
                st.quarantines += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "waran_rt_overruns_total",
                    "plugin calls preempted by fuel-cut at their rt budget",
                ).inc(plugin=key)
            return
        if fuel_used is not None:
            st.add_sample(int(fuel_used))
        was = st.breaker.state
        st.breaker.record_success(slot)
        if st.breaker.state is not was:  # a success moves half-open to closed only
            st.readmissions += 1
            self.events.append(f"slot={slot} plugin={key} readmitted")
            if OBS.enabled:
                OBS.events.emit("rt.readmit", source=key, slot=slot)

    def _verdict(
        self, st: PluginAdmissionState, slot: int, verdict: Verdict,
        reason: str, *args,
    ) -> Verdict:
        """Count ``verdict``; on a change, audit it with ``reason``
        formatted from ``args`` (the only place the text is read)."""
        value = verdict._value_  # the enum's own field: .value is a property
        if value != st.last_verdict:
            st.last_verdict = value
            reason = reason.format(*args)
            self.events.append(
                f"slot={slot} plugin={st.key} verdict={value} reason={reason}"
            )
            if OBS.enabled:
                OBS.events.emit(
                    "rt.verdict",
                    source=st.key,
                    slot=slot,
                    verdict=value,
                    reason=reason,
                )
        if OBS.enabled:
            reg = OBS.registry
            st._verdict_series.get(reg, st.key)[value].inc()
            p99 = st.fuel_p99()
            if p99 is not None:
                st._fuel_p99_series.get(reg, st.key).set(p99)
        return verdict
