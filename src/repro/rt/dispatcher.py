"""The deadline-aware plugin dispatcher.

:class:`DeadlineDispatcher` sits in the gNB's slot loop.  Each slot it
converts the slot-time budget into a fuel budget (via the policy's
``fuel_per_us`` exchange rate), splits it across the slices that want to
dispatch a plugin (priority lanes first, admission verdicts applied),
and hands each admitted call a per-call fuel budget the plugin host
enforces by fuel-cut preemption.  A plugin that blows its budget traps
deterministically at the cut, the slice degrades to its native fallback
scheduler for that slot, and the admission controller's breaker climbs
toward quarantine.

Determinism contract: fuel is metered one unit per executed instruction
and identically across engines, so every budget, verdict, shed and
deadline-miss here is a pure function of (spec, seed, slot).  Wall-clock
time never feeds a decision; the :class:`FuelCalibrator` *observes* the
wall-clock fuel/us rate per run (ExecStats-style) purely for reporting
and rate suggestions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.rt.admission import AdmissionController, Verdict
from repro.rt.lanes import DEFAULT_LANES, LaneSpec, format_lanes, parse_lanes, plan_lanes


@dataclass(frozen=True)
class RtPolicy:
    """Every knob of the rt layer, in one frozen (hence hashable) record.

    ``budget_us`` is the slot time available to plugin work per cell and
    slot (0 = the whole slot).  ``fuel_per_us`` is the deterministic
    fuel<->time exchange rate used to derive fuel budgets; it is policy,
    not measurement - calibrate it offline from the
    :class:`FuelCalibrator`'s suggestion and pin it in the spec so
    decisions stay reproducible.  ``enforce=False`` runs the whole
    pipeline in observe-only mode (budgets planned and misses counted but
    nothing cut or shed) - the baseline side of the rt-on/rt-off
    comparison.
    """

    budget_us: float = 800.0
    fuel_per_us: float = 50.0
    lanes: tuple[LaneSpec, ...] = DEFAULT_LANES
    admission: bool = True
    enforce: bool = True
    min_call_fuel: int = 1500
    headroom: float = 1.2
    min_samples: int = 8
    window: int = 64
    quarantine_after: int = 3
    probation_slots: int = 120
    probe_successes: int = 2

    def slot_budget_fuel(self, slot_us: float = 1000.0) -> int:
        return int((self.budget_us or slot_us) * self.fuel_per_us)

    def to_string(self) -> str:
        return (
            f"budget_us={self.budget_us:g},fuel_per_us={self.fuel_per_us:g},"
            f"lanes={format_lanes(self.lanes)},"
            f"admission={'on' if self.admission else 'off'},"
            f"enforce={'on' if self.enforce else 'off'},"
            f"min_call_fuel={self.min_call_fuel},headroom={self.headroom:g},"
            f"min_samples={self.min_samples},window={self.window},"
            f"quarantine_after={self.quarantine_after},"
            f"probation_slots={self.probation_slots},"
            f"probe_successes={self.probe_successes}"
        )

    @classmethod
    def from_string(cls, text: str) -> "RtPolicy":
        """Parse ``"budget_us=800,lanes=sla:50;be:50,admission=off"``.

        The lane list uses ``;`` between lanes so ``,`` can separate the
        policy fields; unknown keys raise.
        """
        policy = cls()
        if not text or text in ("on", "default"):
            return policy
        updates: dict = {}
        for part in (p for p in text.split(",") if p):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"bad rt policy entry {part!r} (expected k=v)")
            if key in ("budget_us", "fuel_per_us", "headroom"):
                updates[key] = float(value)
            elif key in (
                "min_call_fuel", "min_samples", "window",
                "quarantine_after", "probation_slots", "probe_successes",
            ):
                updates[key] = int(value)
            elif key in ("admission", "enforce"):
                updates[key] = value.strip().lower() in ("on", "1", "true", "yes")
            elif key == "lanes":
                updates[key] = parse_lanes(value)
            else:
                raise ValueError(f"unknown rt policy key {key!r}")
        return replace(policy, **updates)


def _bind_observed_rate(reg: MetricsRegistry):
    return reg.gauge(
        "waran_rt_observed_fuel_per_us",
        "EWMA of observed fuel per wall-clock us (reporting only)",
    ).labels()


def _bind_degraded(reg: MetricsRegistry):
    return reg.counter(
        "waran_rt_degraded_total",
        "dispatches degraded to the native fallback scheduler",
    ).labels_by("plugin", "verdict")


def _bind_slot_miss(reg: MetricsRegistry):
    return reg.counter(
        "waran_rt_slot_miss_total",
        "slots whose plugin fuel exceeded the slot budget",
    ).labels()


class FuelCalibrator:
    """Observes the wall-clock fuel/us rate; reporting only, never policy.

    Each engine executes the same fuel per call but at a different
    instructions-per-second rate; the calibrator's EWMA over
    ``fuel_used / elapsed_us`` is what an operator would pin into
    :attr:`RtPolicy.fuel_per_us` for that engine.  It deliberately never
    feeds live decisions: wall time is not reproducible, fuel is.
    """

    def __init__(self, alpha: float = 0.05):
        self.alpha = alpha
        self.rate: float | None = None
        self.samples = 0
        self._rate_gauge = BoundMetrics(_bind_observed_rate)

    def observe(self, fuel_used: int | None, elapsed_us: float) -> None:
        if not fuel_used or elapsed_us <= 0:
            return
        sample = fuel_used / elapsed_us
        self.rate = (
            sample
            if self.rate is None
            else (1 - self.alpha) * self.rate + self.alpha * sample
        )
        self.samples += 1
        if OBS.enabled:
            self._rate_gauge.get(OBS.registry).set(round(self.rate, 3))

    def suggest_rate(self) -> float | None:
        """The rate an operator would pin as ``fuel_per_us`` (or None)."""
        return round(self.rate, 2) if self.samples >= 8 and self.rate else None


@dataclass(frozen=True)
class RtRequest:
    """One slice that wants to dispatch its plugin this slot."""

    sid: int
    key: str  # plugin name: admission identity + metric/event label
    lane: str


@dataclass
class RtDecision:
    """What the dispatcher decided for one request."""

    sid: int
    key: str
    lane: str
    verdict: Verdict
    fuel_budget: int | None  # None = unbudgeted (observe-only mode)
    reason: str

    @property
    def dispatches(self) -> bool:
        return self.verdict.dispatches

    def to_attrs(self) -> dict:
        """The flight-recorder attachment (budget, lane, verdict)."""
        return {
            "lane": self.lane,
            "verdict": self.verdict.value,
            "fuel": self.fuel_budget,
        }


@dataclass
class RtCounters:
    """Deterministic aggregate counters for reports and digests."""

    slots: int = 0
    dispatched: int = 0
    degraded: int = 0  # reject/quarantine/shed -> native fallback
    overruns: int = 0  # fuel-cut preemptions
    misses: int = 0  # slots whose total plugin fuel exceeded the budget
    shed_by_lane: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "slots": self.slots,
            "dispatched": self.dispatched,
            "degraded": self.degraded,
            "overruns": self.overruns,
            "misses": self.misses,
            "shed_by_lane": dict(sorted(self.shed_by_lane.items())),
        }


class DeadlineDispatcher:
    """Per-slot budget planning + admission + post-call accounting."""

    def __init__(self, policy: RtPolicy, slot_us: float = 1000.0):
        self.policy = policy
        self.slot_us = slot_us
        self.slot_budget_fuel = policy.slot_budget_fuel(slot_us)
        self.admission = AdmissionController(policy)
        self.calibrator = FuelCalibrator()
        self.counters = RtCounters()
        self._slot_fuel = 0
        self._degraded_series = BoundMetrics(_bind_degraded)
        self._slot_miss_series = BoundMetrics(_bind_slot_miss)
        self._lane_of = {lane.name: lane for lane in policy.lanes}
        self._floor_lane = min(
            policy.lanes, key=lambda l: (-l.priority, l.name)
        )

    @property
    def events(self) -> list[str]:
        return self.admission.events

    def log_lines(self) -> list[str]:
        """The ``[rt]`` block of a digested fault log: events, then counters."""
        return [
            "[rt]",
            *self.events,
            f"[rt counters] {json.dumps(self.counters.to_json(), sort_keys=True)}",
        ]

    # ----- planning -----------------------------------------------------------

    def plan_slot(self, slot: int, requests: list[RtRequest]) -> list[RtDecision]:
        """Decide every request: verdict + fuel budget, in dispatch order."""
        self.counters.slots += 1
        self._slot_fuel = 0
        if not requests:
            return []
        if not self.policy.enforce:
            # observe-only: everything admits unbudgeted; misses still count
            self.counters.dispatched += len(requests)
            return [
                RtDecision(r.sid, r.key, r.lane, Verdict.ADMIT, None, "observe-only")
                for r in requests
            ]
        budget = self.slot_budget_fuel
        ordered = sorted(
            requests,
            key=lambda r: (self._lane(r.lane).priority, r.sid),
        )
        # pass 1: provisional equal-split budgets drive admission verdicts
        provisional = plan_lanes(
            budget,
            [(r.key, r.lane) for r in ordered],
            self.policy.lanes,
            self.policy.min_call_fuel,
        )
        verdicts: list[tuple[RtRequest, Verdict, str]] = []
        for assign in provisional:
            req = ordered[assign.index]
            lane = self._lane(req.lane)
            verdict, reason = self.admission.decide(
                req.key,
                slot,
                assign.fuel or 0,
                budget,
                sheddable=lane.sheddable,
            )
            verdicts.append((req, verdict, reason))
        # pass 2: re-plan with survivors only (rejected budget rolls over);
        # demoted requests compete in the lowest-priority lane
        survivors = [
            (req, verdict, reason)
            for req, verdict, reason in verdicts
            if verdict.dispatches
        ]
        final = plan_lanes(
            budget,
            [
                (
                    req.key,
                    self._floor_lane.name if verdict is Verdict.DEMOTE else req.lane,
                )
                for req, verdict, _ in survivors
            ],
            self.policy.lanes,
            self.policy.min_call_fuel,
        )
        decisions: list[RtDecision] = []
        planned: dict[int, RtDecision] = {}
        for assign in final:
            req, verdict, reason = survivors[assign.index]
            if assign.fuel is None:
                verdict, reason = Verdict.SHED, "lane budget exhausted"
                lane = self._lane(req.lane)
                self.counters.shed_by_lane[lane.name] = (
                    self.counters.shed_by_lane.get(lane.name, 0) + 1
                )
                self.events.append(
                    f"slot={slot} plugin={req.key} verdict=shed lane={lane.name}"
                )
                if OBS.enabled:
                    OBS.events.emit(
                        "rt.shed", source=req.key, slot=slot, lane=lane.name
                    )
            planned[req.sid] = RtDecision(
                req.sid, req.key, req.lane, verdict,
                assign.fuel if verdict.dispatches else None, reason,
            )
        for req, verdict, reason in verdicts:
            decision = planned.get(req.sid) or RtDecision(
                req.sid, req.key, req.lane, verdict, None, reason
            )
            decisions.append(decision)
            if decision.dispatches:
                self.counters.dispatched += 1
            else:
                self.counters.degraded += 1
                if OBS.enabled:
                    self._degraded_series.get(OBS.registry)[
                        decision.key, decision.verdict.value
                    ].inc()
        # dispatch order: lane priority first, then slice id
        decisions.sort(key=lambda d: (self._lane(d.lane).priority, d.sid))
        return decisions

    # ----- accounting ----------------------------------------------------------

    def observe_call(
        self,
        decision: RtDecision,
        slot: int,
        fuel_used: int | None,
        elapsed_us: float,
        overrun: bool,
    ) -> None:
        """Post-call accounting for one dispatched decision."""
        if overrun:
            self.counters.overruns += 1
            # a cut call burned its whole budget before the preemption
            self._slot_fuel += decision.fuel_budget or 0
        else:
            self._slot_fuel += fuel_used or 0
        self.calibrator.observe(fuel_used, elapsed_us)
        self.admission.observe(decision.key, slot, fuel_used, overrun)

    def settle(self, slot: int) -> bool:
        """Close the slot's fuel ledger; True if the slot missed its budget.

        The miss metric is fuel-based (total plugin fuel this slot vs the
        slot fuel budget), so the rt-on/rt-off comparison is exactly
        reproducible; wall-clock misses remain a separate, reported-only
        signal (``gnb.deadline_miss``).
        """
        missed = self._slot_fuel > self.slot_budget_fuel
        if missed:
            self.counters.misses += 1
            if OBS.enabled:
                self._slot_miss_series.get(OBS.registry).inc()
        self._slot_fuel = 0
        return missed

    def _lane(self, name: str) -> LaneSpec:
        return self._lane_of.get(name, self._floor_lane)
