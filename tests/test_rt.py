"""rt layer unit tests: lanes, policy, admission, dispatcher, host budgets.

Covers the pure planners (lane splits, policy string round-trips), the
admission state machine (warm-up, demote, reject, quarantine, half-open
probation, re-admission), the one-table planner against its two-pass
reference, the miss ledger, and the plugin-host end of the contract: a
call whose rt budget undercuts the host's own fuel limit traps with kind
``"deadline"`` at the cut, the decision rides the flight record, and
replay reproduces the degraded call bit-exactly - including when chaos
faults compose.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from repro import obs
from repro.abi import wire
from repro.abi.host import HostLimits, PluginError, PluginHost
from repro.chaos.schedule import ChaosConfig, FaultSchedule
from repro.experiments.fig5d import make_ues
from repro.plugins import plugin_wasm
from repro.rt import (
    DEFAULT_LANES,
    DeadlineDispatcher,
    LaneTable,
    RtDecision,
    RtPolicy,
    RtRequest,
    Verdict,
    format_lanes,
    parse_lanes,
)


def sched_payload(slot: int = 0, prbs: int = 20, n_ues: int = 3) -> bytes:
    return wire.pack_sched_input(slot, prbs, make_ues(n_ues))


class TestLanes:
    def test_parse_format_round_trip(self):
        lanes = parse_lanes("sla:50;normal:30;be:20")
        assert format_lanes(lanes) == "sla:50;normal:30;be:20"
        assert parse_lanes(format_lanes(lanes)) == lanes

    def test_sla_and_pinned_lanes_are_non_sheddable(self):
        lanes = parse_lanes("gold!:60;sla:20;be:20")
        by_name = {lane.name: lane for lane in lanes}
        assert not by_name["gold"].sheddable
        assert not by_name["sla"].sheddable
        assert by_name["be"].sheddable

    def test_priority_follows_listing_order(self):
        lanes = parse_lanes("be:10;sla:90")
        assert [lane.name for lane in lanes] == ["be", "sla"]
        assert lanes[0].priority < lanes[1].priority

    @pytest.mark.parametrize(
        "text", ["", ":50", "a:0", "a:-1", "a:x", "a:50;a:50"]
    )
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_lanes(text)

    def test_unused_higher_lane_budget_rolls_down(self):
        # nothing in sla or normal: be gets the whole budget
        table = LaneTable(10_000, DEFAULT_LANES, min_call_fuel=100)
        assert [lane.name for lane in table.lanes] == ["sla", "normal", "be"]
        assert table.split([0, 0, 2]) == [(0, 0), (0, 0), (5000, 2)]

    def test_sheddable_lane_sheds_below_min_call_fuel(self):
        # 4 be requests into a 2000-fuel be allowance: only 2 get the floor
        table = LaneTable(2000, parse_lanes("be:100"), min_call_fuel=1000)
        assert table.split([4]) == [(1000, 2)]

    def test_non_sheddable_lane_never_sheds(self):
        # the same scarcity on the sla lane dispatches everyone anyway
        table = LaneTable(2000, DEFAULT_LANES, min_call_fuel=1000)
        assert table.split([4, 0, 0])[0] == (250, 4)

    def test_unknown_lane_falls_back_to_lowest_priority(self):
        table = LaneTable(10_000, DEFAULT_LANES, min_call_fuel=100)
        assert table.lanes[table.index("nonsense")].name == "be"
        assert table.index("nonsense") == table.floor == table.index("be")


class TestRtPolicy:
    @pytest.mark.parametrize("text", ["", "on", "default"])
    def test_default_aliases(self, text):
        assert RtPolicy.from_string(text) == RtPolicy()

    def test_string_round_trip(self):
        policy = RtPolicy(
            budget_us=400.0,
            fuel_per_us=25.0,
            lanes=parse_lanes("gold!:60;be:40"),
            admission=False,
            quarantine_after=2,
        )
        assert RtPolicy.from_string(policy.to_string()) == policy

    @pytest.mark.parametrize("text", ["nope=1", "budget_us", "budget_us=x"])
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ValueError):
            RtPolicy.from_string(text)

    @pytest.mark.parametrize("key", ["admission", "enforce"])
    @pytest.mark.parametrize(
        "value, flag",
        [("on", True), ("TRUE", True), (" Yes ", True), ("1", True),
         ("off", False), ("False", False), ("no", False), (" 0", False)],
    )
    def test_boolean_spellings(self, key, value, flag):
        policy = RtPolicy.from_string(f"{key}={value}")
        assert getattr(policy, key) is flag
        assert getattr(RtPolicy(), key) is True  # the default it overrides

    @pytest.mark.parametrize("key", ["admission", "enforce"])
    @pytest.mark.parametrize("value", ["of", "maybe", "", "2", "onn"])
    def test_unrecognised_boolean_raises_naming_the_key(self, key, value):
        # a typo must not quietly switch enforcement or admission off
        with pytest.raises(ValueError, match=key):
            RtPolicy.from_string(f"budget_us=400,{key}={value}")

    def test_slot_budget_fuel(self):
        assert RtPolicy(budget_us=400.0, fuel_per_us=50.0).slot_budget_fuel(1000.0) == 20_000
        # budget_us=0 means the whole slot
        assert RtPolicy(budget_us=0.0, fuel_per_us=50.0).slot_budget_fuel(500.0) == 25_000


def make_dispatcher(**overrides) -> DeadlineDispatcher:
    defaults = dict(
        budget_us=400.0, fuel_per_us=50.0, min_samples=4,
        quarantine_after=2, probation_slots=10, probe_successes=2,
    )
    defaults.update(overrides)
    return DeadlineDispatcher(RtPolicy(**defaults), slot_us=1000.0)


def run_slots(dispatcher, requests, slots, fuel_for, start=0):
    """Drive the dispatcher: each dispatched call reports fuel_for(key, slot)."""
    for slot in range(start, start + slots):
        for decision in dispatcher.plan_slot(slot, requests):
            if not decision.verdict.dispatches:
                continue
            fuel = fuel_for(decision.key, slot)
            overrun = (
                decision.fuel_budget is not None and fuel > decision.fuel_budget
            )
            dispatcher.observe_call(
                decision, slot,
                fuel_used=decision.fuel_budget if overrun else fuel,
                elapsed_us=10.0, overrun=overrun,
            )
        dispatcher.settle(slot)


class TestAdmission:
    def test_warming_up_admits(self):
        dispatcher = make_dispatcher()
        decisions = dispatcher.plan_slot(0, [RtRequest(1, "rr", "normal")])
        assert decisions[0].verdict is Verdict.ADMIT
        assert dispatcher.events == [
            "slot=0 plugin=rr verdict=admit reason=warming up"
        ]

    def test_creeping_p99_demotes_past_the_lane_budget(self):
        # mt rides the be lane (4000-fuel split of the 20000 budget) and
        # creeps from comfortably inside to just over budget/headroom: its
        # windowed p99 crosses, the verdict flips to demote, and - still
        # fitting the slot - it keeps dispatching in the floor lane
        dispatcher = make_dispatcher(quarantine_after=100)
        requests = [RtRequest(2, "pf", "normal"), RtRequest(3, "mt", "be")]
        run_slots(dispatcher, requests, 6, lambda k, s: 3000 if k == "mt" else 500)
        assert dispatcher.admission.state("mt").last_verdict == "admit"
        run_slots(
            dispatcher, requests, 6,
            lambda k, s: 3500 if k == "mt" else 500, start=6,
        )
        st = dispatcher.admission.state("mt")
        assert st.last_verdict == "demote"
        assert st.overruns == 0  # demoted, not cut: 3500 fits the 4000 floor

    def test_runaway_p99_rejects_outright(self):
        # a lone be plugin inherits the whole 20000 budget via rolldown, so
        # its 18000-fuel calls *succeed* and fill the window - but once
        # p99*headroom clears the slot budget nothing can fit it: reject
        dispatcher = make_dispatcher(quarantine_after=100)
        requests = [RtRequest(3, "mt", "be")]
        run_slots(dispatcher, requests, 8, lambda k, s: 18_000)
        st = dispatcher.admission.state("mt")
        assert st.last_verdict == "reject"
        assert st.rejects > 0

    def test_sla_plugin_is_admitted_despite_hot_p99(self):
        dispatcher = make_dispatcher(quarantine_after=100)
        requests = [RtRequest(1, "rr", "sla"), RtRequest(2, "pf", "normal")]
        # rr's p99 sits far above any per-call split, but sla never sheds
        run_slots(dispatcher, requests, 12, lambda k, s: 18_000 if k == "rr" else 300)
        assert dispatcher.admission.state("rr").last_verdict in ("admit", "")
        assert dispatcher.counters.shed_by_lane.get("sla", 0) == 0

    def test_overruns_quarantine_then_probation_readmits(self):
        dispatcher = make_dispatcher()
        requests = [RtRequest(1, "hog", "be")]

        # phase 1: the plugin overruns its budget every slot -> 2 overruns
        # open the breaker -> quarantined
        run_slots(dispatcher, requests, 4, lambda k, s: 10**9)
        st = dispatcher.admission.state("hog")
        assert st.quarantines == 1
        assert st.last_verdict == "quarantine"

        # phase 2: after probation_slots the breaker half-opens, the next
        # dispatches are probes, and in-budget behaviour re-admits
        base = dispatcher.counters.slots
        for slot in range(base, base + 20):
            for decision in dispatcher.plan_slot(slot, requests):
                if decision.verdict.dispatches:
                    dispatcher.observe_call(
                        decision, slot, fuel_used=200, elapsed_us=1.0, overrun=False
                    )
            dispatcher.settle(slot)
        st = dispatcher.admission.state("hog")
        assert st.readmissions == 1
        assert st.last_verdict in ("probe", "admit")
        assert any("readmitted" in line for line in dispatcher.events)

    def test_p99_is_exact_order_statistic_over_window(self):
        dispatcher = make_dispatcher(window=16)
        st = dispatcher.admission.state("rr")
        for fuel in range(100, 116):
            dispatcher.admission.observe("rr", 0, fuel, overrun=False)
        assert st.fuel_p99() == sorted(st.window)[int(0.99 * 15)]
        # the window's sorted copy through eviction at maxlen, duplicates,
        # censored overruns and fuel_used=None, read after every observe;
        # a window over 100 samples puts the p99 below its maximum
        rng = random.Random(47)
        for window in (0, 1, 16, 128):
            admission = make_dispatcher(window=window).admission
            st = admission.state("pf")
            assert st.fuel_p99() is None
            for slot in range(700):
                fuel = rng.choice([rng.randrange(100, 9000), 700, 700, 8999, None])
                admission.observe("pf", slot, fuel, overrun=rng.random() < 0.1)
                samples = list(st.window)
                assert st.fuel_p99() == (
                    sorted(samples)[int(0.99 * (len(samples) - 1))]
                    if samples else None
                )
            assert len(st.window) == window
        # the gauge follows the registry: set again on the first decide
        # after a reset, as before any sample was kept
        obs.enable()
        try:
            for _ in range(2):
                obs.reset()
                admission.decide("pf", 700, 0, 20_000, True)
                gauge = obs.OBS.registry.get("waran_rt_fuel_p99")
                assert gauge.value(plugin="pf") == st.fuel_p99()
        finally:
            obs.reset()
            obs.disable()

    def test_events_log_only_verdict_changes(self):
        dispatcher = make_dispatcher()
        requests = [RtRequest(1, "rr", "normal")]
        run_slots(dispatcher, requests, 6, lambda k, s: 300)
        admits = [e for e in dispatcher.events if "plugin=rr" in e]
        assert len(admits) == 1  # one line for the initial admit, not six


class TestDispatcher:
    def test_observe_only_mode_admits_unbudgeted_and_counts_misses(self):
        dispatcher = make_dispatcher(enforce=False)
        requests = [RtRequest(1, "rr", "sla"), RtRequest(2, "hog", "be")]
        run_slots(dispatcher, requests, 3, lambda k, s: 50_000)
        assert dispatcher.counters.dispatched == 6
        assert dispatcher.counters.degraded == 0
        assert dispatcher.counters.misses == 3  # 100k fuel vs 20k budget
        decisions = dispatcher.plan_slot(99, requests)
        assert all(d.fuel_budget is None for d in decisions)

    def test_plan_is_deterministic(self):
        def run():
            dispatcher = make_dispatcher()
            requests = [
                RtRequest(1, "rr", "sla"),
                RtRequest(2, "pf", "normal"),
                RtRequest(3, "hog", "be"),
            ]
            run_slots(
                dispatcher, requests, 30,
                lambda k, s: 10**9 if k == "hog" and 5 <= s < 15 else 400,
            )
            return list(dispatcher.events), dispatcher.counters.to_json()

        assert run() == run()

    def test_dispatch_order_is_lane_priority_first(self):
        dispatcher = make_dispatcher()
        decisions = dispatcher.plan_slot(
            0,
            [
                RtRequest(1, "mt", "be"),
                RtRequest(2, "pf", "normal"),
                RtRequest(3, "rr", "sla"),
            ],
        )
        assert [d.lane for d in decisions] == ["sla", "normal", "be"]

    def test_scarcity_sheds_best_effort_never_sla(self):
        # 18 plugins across the three lanes with a budget that cannot fit
        # them all: the be lane sheds, the sla lane never does
        dispatcher = make_dispatcher(min_call_fuel=1500)
        lanes = ("sla", "normal", "be")
        requests = [
            RtRequest(sid, f"p{sid}", lanes[sid % 3]) for sid in range(18)
        ]
        run_slots(dispatcher, requests, 4, lambda k, s: 800)
        shed = dispatcher.counters.shed_by_lane
        assert shed.get("be", 0) > 0
        assert shed.get("sla", 0) == 0

    def test_settle_flags_fuel_overrun_slots(self):
        dispatcher = make_dispatcher()
        decisions = dispatcher.plan_slot(0, [RtRequest(1, "rr", "sla")])
        dispatcher.observe_call(
            decisions[0], 0, fuel_used=30_000, elapsed_us=5.0, overrun=False
        )
        assert dispatcher.settle(0) is True
        assert dispatcher.counters.misses == 1
        decisions = dispatcher.plan_slot(1, [RtRequest(1, "rr", "sla")])
        dispatcher.observe_call(
            decisions[0], 1, fuel_used=500, elapsed_us=5.0, overrun=False
        )
        assert dispatcher.settle(1) is False


def reference_plan_lanes(budget_fuel, requests, lanes, min_call_fuel):
    """The lane planner before the lane table: ``(index, fuel)`` per
    ``(key, lane)`` request, lane by lane; fuel None = shed."""
    by_name = {lane.name: lane for lane in lanes}
    fallback = min(lanes, key=lambda l: (-l.priority, l.name))
    groups = {lane.name: [] for lane in lanes}
    for i, (_key, lane_name) in enumerate(requests):
        groups[lane_name if lane_name in by_name else fallback.name].append(i)
    total_share = sum(lane.share for lane in lanes) or 1.0
    assignments = []
    remaining = max(0, budget_fuel)
    unused = 0
    for lane in sorted(lanes, key=lambda l: (l.priority, l.name)):
        quota = int(budget_fuel * lane.share / total_share)
        avail = min(remaining, quota + unused)
        members = groups[lane.name]
        if not members:
            unused = avail
            continue
        used = 0
        per_call = avail // len(members)
        if per_call >= min_call_fuel or not lane.sheddable:
            assignments += [(i, per_call) for i in members]
            used = per_call * len(members)
        else:
            admit = avail // min_call_fuel if min_call_fuel > 0 else len(members)
            for pos, i in enumerate(members):
                assignments.append((i, min_call_fuel if pos < admit else None))
                used += min_call_fuel if pos < admit else 0
        unused = avail - used
        remaining -= used
    return assignments


def reference_plan_slot(dispatcher, slot, requests):
    """``DeadlineDispatcher.plan_slot`` as two full lane passes, each
    verdict and shed applied to the dispatcher's own state: the oracle of
    the one-table planner."""
    policy = dispatcher.policy
    lane_of = {lane.name: lane for lane in policy.lanes}
    floor = min(policy.lanes, key=lambda l: (-l.priority, l.name))

    def lane(name):
        return lane_of.get(name, floor)

    counters = dispatcher.counters
    counters.slots += 1
    dispatcher._slot_fuel = 0
    if not requests:
        return []
    budget = dispatcher.slot_budget_fuel
    ordered = sorted(requests, key=lambda r: (lane(r.lane).priority, r.sid))
    verdicts = []
    for i, fuel in reference_plan_lanes(
        budget, [(r.key, r.lane) for r in ordered], policy.lanes,
        policy.min_call_fuel,
    ):
        req = ordered[i]
        verdict = dispatcher.admission.decide(
            req.key, slot, fuel or 0, budget, lane(req.lane).sheddable
        )
        verdicts.append((req, verdict))
    survivors = [v for v in verdicts if v[1].dispatches]
    planned = {}
    for i, fuel in reference_plan_lanes(
        budget,
        [
            (req.key, floor.name if verdict is Verdict.DEMOTE else req.lane)
            for req, verdict in survivors
        ],
        policy.lanes,
        policy.min_call_fuel,
    ):
        req, verdict = survivors[i]
        if fuel is None:
            verdict = Verdict.SHED
            name = lane(req.lane).name
            counters.shed_by_lane[name] = counters.shed_by_lane.get(name, 0) + 1
            dispatcher.events.append(
                f"slot={slot} plugin={req.key} verdict=shed lane={name}"
            )
        planned[req.sid] = RtDecision(
            req.sid, req.key, req.lane, verdict,
            fuel if verdict.dispatches else None,
        )
    decisions = []
    for req, verdict in verdicts:
        decision = planned.get(req.sid) or RtDecision(
            req.sid, req.key, req.lane, verdict, None
        )
        decisions.append(decision)
        if decision.verdict.dispatches:
            counters.dispatched += 1
        else:
            counters.degraded += 1
    decisions.sort(key=lambda d: (lane(d.lane).priority, d.sid))
    return decisions


def plan_both_ways(policy, requests, fuels, slots):
    """Drive the dispatcher and the two-pass reference through the same
    slots and call outcomes; assert they agree, return the verdicts seen."""
    one = DeadlineDispatcher(policy, slot_us=1000.0)
    two = DeadlineDispatcher(policy, slot_us=1000.0)
    seen = set()
    for slot in range(slots):
        planned = one.plan_slot(slot, requests)
        assert planned == reference_plan_slot(two, slot, requests), slot
        for decision in planned:
            seen.add(decision.verdict)
            if not decision.verdict.dispatches:
                continue
            history = fuels[decision.key]
            fuel = history[slot % len(history)]
            overrun = decision.fuel_budget is not None and fuel > decision.fuel_budget
            for dispatcher in (one, two):
                dispatcher.observe_call(
                    decision, slot, fuel_used=None if overrun else fuel,
                    elapsed_us=10.0, overrun=overrun,
                )
        assert one.settle(slot) == two.settle(slot)
    assert one.counters.to_json() == two.counters.to_json()
    assert one.events == two.events
    return seen


_LANE_NAMES = ("sla", "gold", "normal", "be", "bulk")
_PLUGINS = ("rr", "pf", "mt", "hog", "p5")


@strat.composite
def rt_cases(draw):
    names = draw(strat.lists(
        strat.sampled_from(_LANE_NAMES), min_size=1, max_size=4, unique=True
    ))
    lanes = parse_lanes(";".join(
        f"{name}{'!' if draw(strat.booleans()) else ''}:"
        f"{draw(strat.integers(1, 100))}"
        for name in names
    ))
    if draw(strat.booleans()):
        # lanes sharing a priority, which parse_lanes never makes
        lanes = tuple(replace(lane, priority=lane.priority // 2) for lane in lanes)
    policy = RtPolicy(
        budget_us=draw(strat.integers(5, 300)),
        fuel_per_us=50.0,
        lanes=lanes,
        min_call_fuel=draw(strat.integers(100, 3000)),
        min_samples=draw(strat.integers(1, 4)),
        window=draw(strat.integers(0, 12)),
        quarantine_after=draw(strat.integers(1, 3)),
        probation_slots=draw(strat.integers(1, 8)),
        probe_successes=draw(strat.integers(1, 2)),
    )
    n = draw(strat.integers(1, 12))
    sids = draw(strat.lists(
        strat.integers(1, 60), min_size=n, max_size=n, unique=True
    ))
    requests = [
        RtRequest(
            sid,
            draw(strat.sampled_from(_PLUGINS)),
            draw(strat.sampled_from([*names, "nonsense"])),
        )
        for sid in sids
    ]
    # a call's fuel as a share of the slot: a lone call near the whole
    # slot succeeds and is then rejected, a runaway is cut
    budget = policy.slot_budget_fuel(1000.0)
    fuel = strat.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9, 10**6]).map(
        lambda share: int(budget * share)
    )
    fuels = {
        key: draw(strat.lists(fuel, min_size=1, max_size=6)) for key in _PLUGINS
    }
    return policy, requests, fuels, draw(strat.integers(5, 40))


class TestOnePassPlan:
    """The one-table planner decides exactly as two full lane passes do."""

    @settings(max_examples=300, deadline=None)
    @given(rt_cases())
    def test_one_pass_plan_equals_two_pass_plan(self, case):
        plan_both_ways(*case)

    def test_every_verdict_is_compared(self):
        # a 3000-fuel slot: be's 1200 cannot give three calls the 500
        # floor (shed); p5 overruns its cut (quarantine, then probe) and
        # outgrows the slot (reject); three slices share mt, whose gold
        # calls fit but whose p99 outgrows a be budget (demote)
        policy = RtPolicy(
            budget_us=60.0, fuel_per_us=50.0, lanes=parse_lanes("gold!:60;be:40"),
            min_call_fuel=500, min_samples=2, window=8, quarantine_after=2,
            probation_slots=3, probe_successes=1,
        )
        requests = [
            RtRequest(1, "p5", "be"),
            RtRequest(2, "mt", "gold"),
            RtRequest(3, "mt", "nonsense"),
            RtRequest(4, "mt", "be"),
        ]
        fuels = {"p5": [3000], "mt": [900]}
        assert plan_both_ways(policy, requests, fuels, 40) == set(Verdict)


class TestHostBudgetMapping:
    """The abi end: rt budgets preempt with kind ``deadline``, not ``fuel``."""

    def test_budgeted_exhaustion_is_a_deadline(self):
        host = PluginHost(plugin_wasm("rr"), name="rr")
        with pytest.raises(PluginError) as excinfo:
            host.call(sched_payload(), fuel=300)
        assert excinfo.value.kind == "deadline"
        assert "rt budget" in str(excinfo.value)

    def test_own_limit_exhaustion_is_still_fuel(self):
        host = PluginHost(
            plugin_wasm("rr"), name="rr", limits=HostLimits(fuel=300)
        )
        with pytest.raises(PluginError) as excinfo:
            host.call(sched_payload())
        assert excinfo.value.kind == "fuel"

    def test_budget_wider_than_plugin_cost_runs_clean(self):
        host = PluginHost(plugin_wasm("rr"), name="rr")
        result = host.call(sched_payload(), fuel=500_000)
        assert result.output
        assert result.fuel_used is not None and result.fuel_used < 500_000

    def test_chaos_fuel_cut_keeps_kind_fuel_even_when_budgeted(self):
        # the chaos injection, not the rt budget, was the binding cut: the
        # fault log must attribute it to chaos (kind "fuel"), not rt
        host = PluginHost(
            plugin_wasm("rr"), name="rr",
            chaos=FaultSchedule(ChaosConfig(seed=9, fuel_cut=1.0)),
        )
        with pytest.raises(PluginError) as excinfo:
            host.call(sched_payload(), fuel=100_000)
        assert excinfo.value.kind == "fuel"


class TestFlightRecordReplay:
    """Satellite: rt decisions ride the flight record and replay bit-exactly."""

    @pytest.fixture(autouse=True)
    def telemetry(self):
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        obs.disable()

    def test_rt_attrs_record_effective_budget(self):
        host = PluginHost(plugin_wasm("rr"), name="rr")
        with pytest.raises(PluginError):
            host.call(
                sched_payload(), fuel=300,
                rt={"lane": "be", "verdict": "admit", "fuel": 300},
            )
        record = obs.OBS.flight.records()[-1]
        assert record.outcome == "deadline"
        assert record.attrs["rt"] == {"lane": "be", "verdict": "admit", "fuel": 300}

    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_degraded_call_replays_bit_exactly(self, engine):
        host = PluginHost(plugin_wasm("rr"), name="rr", engine=engine)
        with pytest.raises(PluginError) as original:
            host.call(
                sched_payload(), fuel=300,
                rt={"lane": "be", "verdict": "admit", "fuel": 300},
            )
        record = obs.OBS.flight.records()[-1]

        with pytest.raises(PluginError) as replayed:
            host.replay(record)
        assert replayed.value.kind == original.value.kind == "deadline"
        replay_record = obs.OBS.flight.records()[-1]
        assert replay_record.outcome == record.outcome == "deadline"
        assert replay_record.fuel_used == record.fuel_used
        assert replay_record.attrs["rt"] == record.attrs["rt"]

    def test_replay_composes_rt_budget_with_chaos_injection(self):
        # a chaos deadline blowout on a *budgeted* call: both attachments
        # land on the record and the replay reproduces the same outcome
        host = PluginHost(
            plugin_wasm("rr"), name="rr",
            chaos=FaultSchedule(ChaosConfig(seed=9, deadline=1.0)),
        )
        with pytest.raises(PluginError) as original:
            host.call(
                sched_payload(), fuel=100_000,
                rt={"lane": "normal", "verdict": "admit", "fuel": 100_000},
            )
        record = obs.OBS.flight.records()[-1]
        assert record.attrs["chaos"]["kind"] == "deadline"
        assert record.attrs["rt"]["fuel"] == 100_000

        with pytest.raises(PluginError) as replayed:
            host.replay(record)
        assert replayed.value.kind == original.value.kind == "deadline"
        replay_record = obs.OBS.flight.records()[-1]
        assert replay_record.attrs["chaos"] == record.attrs["chaos"]
        assert replay_record.attrs["rt"] == record.attrs["rt"]

    def test_clean_budgeted_call_replays_same_output(self):
        host = PluginHost(plugin_wasm("rr"), name="rr")
        result = host.call(
            sched_payload(), fuel=500_000,
            rt={"lane": "sla", "verdict": "admit", "fuel": 500_000},
        )
        record = obs.OBS.flight.records()[-1]
        replayed = host.replay(record)
        assert replayed.output == result.output
        assert replayed.fuel_used == result.fuel_used
