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
from operator import itemgetter
from typing import NamedTuple

from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.rt.admission import AdmissionController, Verdict
from repro.rt.lanes import DEFAULT_LANES, LaneSpec, LaneTable, format_lanes, parse_lanes

#: the spellings a boolean policy field accepts; anything else is an error,
#: not a silent ``False``
_FLAGS = {
    "on": True, "true": True, "yes": True, "1": True,
    "off": False, "false": False, "no": False, "0": False,
}


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

    def slot_budget_fuel(self, slot_us: float) -> int:
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
        """Parse ``"budget_us=800,lanes=sla:50;be:50,admission=off"``:
        the defaults with the named fields replaced (:meth:`override`)."""
        return cls().override(text)

    def override(self, text: str) -> "RtPolicy":
        """This policy with the ``k=v`` entries of ``text`` replaced.

        The lane list uses ``;`` between lanes so ``,`` can separate the
        policy fields; unknown keys and unrecognised booleans raise.
        """
        if not text or text in ("on", "default"):
            return self
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
                flag = _FLAGS.get(value.strip().lower())
                if flag is None:
                    raise ValueError(
                        f"bad rt policy value {key}={value!r} "
                        "(expected on/off, true/false, yes/no or 1/0)"
                    )
                updates[key] = flag
            elif key == "lanes":
                updates[key] = parse_lanes(value)
            else:
                raise ValueError(f"unknown rt policy key {key!r}")
        return replace(self, **updates)


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


#: weight of the newest sample in :class:`FuelCalibrator`'s EWMA
CALIBRATOR_ALPHA = 0.05


class FuelCalibrator:
    """Observes the wall-clock fuel/us rate; reporting only, never policy.

    Each engine executes the same fuel per call but at a different
    instructions-per-second rate; the calibrator's EWMA over
    ``fuel_used / elapsed_us`` is what an operator would pin into
    :attr:`RtPolicy.fuel_per_us` for that engine.  It deliberately never
    feeds live decisions: wall time is not reproducible, fuel is.
    """

    def __init__(self):
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
            else (1 - CALIBRATOR_ALPHA) * self.rate + CALIBRATOR_ALPHA * sample
        )
        self.samples += 1
        if OBS.enabled:
            self._rate_gauge.get(OBS.registry).set(round(self.rate, 3))

    def suggest_rate(self) -> float | None:
        """The rate an operator would pin as ``fuel_per_us`` (or None)."""
        return round(self.rate, 2) if self.samples >= 8 and self.rate else None


class RtRequest(NamedTuple):
    """One slice that wants to dispatch its plugin this slot."""

    sid: int
    key: str  # plugin name: admission identity + metric/event label
    lane: str


_sid = itemgetter(0)


@dataclass
class RtDecision:
    """What the dispatcher decided for one request."""

    sid: int
    key: str
    lane: str
    verdict: Verdict
    fuel_budget: int | None  # None = unbudgeted (observe-only mode)

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

    def __init__(self, policy: RtPolicy, slot_us: float):
        self.policy = policy
        self.slot_us = slot_us
        self.slot_budget_fuel = policy.slot_budget_fuel(slot_us)
        self.admission = AdmissionController(policy)
        self.calibrator = FuelCalibrator()
        self.counters = RtCounters()
        self._slot_fuel = 0
        self._degraded_series = BoundMetrics(_bind_degraded)
        self._slot_miss_series = BoundMetrics(_bind_slot_miss)
        self._lanes = LaneTable(
            self.slot_budget_fuel, policy.lanes, policy.min_call_fuel
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
        """Decide every request: verdict + fuel budget, in dispatch order
        (lane priority first, then slice id)."""
        counters = self.counters
        counters.slots += 1
        self._slot_fuel = 0
        if not requests:
            return []
        if not self.policy.enforce:
            # observe-only: everything admits unbudgeted; misses still count
            counters.dispatched += len(requests)
            return [
                RtDecision(sid, key, lane, Verdict.ADMIT, None)
                for sid, key, lane in requests
            ]
        table = self._lanes
        groups: list[list] = [[] for _ in table.lanes]
        for request in sorted(requests, key=_sid):
            groups[table.index(request.lane)].append(request)
        # pass 1: provisional equal-split budgets drive admission verdicts
        decide = self.admission.decide
        budget = table.budget_fuel
        decisions: list[RtDecision] = []
        replan = False
        split = table.split([len(members) for members in groups])
        for lane, (fuel, admitted), members in zip(table.lanes, split, groups):
            for pos, (sid, key, lane_name) in enumerate(members):
                call_fuel = fuel if pos < admitted else None
                verdict = decide(
                    key, slot, call_fuel or 0, budget, lane.sheddable
                )
                if verdict is Verdict.DEMOTE or not verdict.dispatches:
                    replan = True
                decisions.append(
                    RtDecision(sid, key, lane_name, verdict, call_fuel)
                )
        # pass 2, only when a verdict changed the survivors: re-plan with
        # them alone (rejected budget rolls over); demoted requests compete
        # in the floor lane.  Otherwise pass 1's plan is the plan.
        final = decisions
        if replan:
            groups = [[] for _ in table.lanes]
            for decision in decisions:
                verdict = decision.verdict
                if verdict.dispatches:
                    home = (
                        table.floor if verdict is Verdict.DEMOTE
                        else table.index(decision.lane)
                    )
                    groups[home].append(decision)
                else:
                    decision.fuel_budget = None
            split = table.split([len(members) for members in groups])
            final = []
            for (fuel, admitted), members in zip(split, groups):
                for pos, decision in enumerate(members):
                    decision.fuel_budget = fuel if pos < admitted else None
                final += members
        for decision in final:
            if decision.fuel_budget is None:
                self._shed(slot, decision)
        for decision in decisions:
            if decision.verdict.dispatches:
                counters.dispatched += 1
            else:
                counters.degraded += 1
                if OBS.enabled:
                    self._degraded_series.get(OBS.registry)[
                        decision.key, decision.verdict.value
                    ].inc()
        if table.tied:
            decisions.sort(
                key=lambda d: (table.lanes[table.index(d.lane)].priority, d.sid)
            )
        return decisions

    def _shed(self, slot: int, decision: RtDecision) -> None:
        decision.verdict = Verdict.SHED
        lane = self._lanes.lanes[self._lanes.index(decision.lane)].name
        shed = self.counters.shed_by_lane
        shed[lane] = shed.get(lane, 0) + 1
        self.events.append(
            f"slot={slot} plugin={decision.key} verdict=shed lane={lane}"
        )
        if OBS.enabled:
            OBS.events.emit("rt.shed", source=decision.key, slot=slot, lane=lane)

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
