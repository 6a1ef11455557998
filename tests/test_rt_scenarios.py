"""rt scenario acceptance tests: the flash-crowd contract, end to end.

The tentpole acceptance criteria for the rt layer, run as regular tests:
a flash crowd with a hostile fuel-hog plugin shows a >=10x deadline-miss
reduction with enforcement on, SLA-lane plugins are never shed, the hog
is quarantined and then re-admitted after probation, and every scenario
is deterministically reproducible (identical digests across runs;
``tests/test_pins.py`` pins each digest by value under every engine).
"""

from dataclasses import replace

import pytest

from repro.rt.scenarios import (
    SCENARIOS,
    baseline_comparison,
    run_scenario,
    scenario_policy,
)


@pytest.fixture(scope="module")
def comparison():
    """One rt-off/rt-on flash-crowd pair shared by the acceptance tests."""
    return baseline_comparison(seed=0)


class TestFlashCrowdAcceptance:
    def test_baseline_melts_during_the_burst(self, comparison):
        off = comparison["baseline"]
        assert off["counters"]["misses"] >= 50
        assert off["miss_rate"] > 0.2

    def test_miss_reduction_at_least_10x(self, comparison):
        assert comparison["miss_reduction"] >= 10.0
        assert comparison["enforced"]["counters"]["misses"] <= 5

    def test_sla_lane_never_shed(self, comparison):
        shed = comparison["enforced"]["counters"]["shed_by_lane"]
        assert shed.get("sla", 0) == 0

    def test_hog_quarantined_then_readmitted(self, comparison):
        plugins = comparison["enforced"]["plugins"]
        hog = next(p for key, p in plugins.items() if key.endswith("hog"))
        assert hog["overruns"] >= 1  # fuel-cut at its lane budget
        assert hog["quarantines"] >= 1
        assert hog["readmissions"] >= 1
        assert hog["last_verdict"] in ("admit", "probe")

    def test_well_behaved_plugins_untouched(self, comparison):
        plugins = comparison["enforced"]["plugins"]
        for key, st in plugins.items():
            if key.endswith("hog"):
                continue
            assert st["quarantines"] == 0, key
            assert st["overruns"] == 0, key

    def test_enforcement_documented_in_log(self, comparison):
        # the standalone run reproduces the comparison's enforced side
        # bit-exactly and its log carries the verdict-change audit trail
        report = run_scenario("flash_crowd", seed=0)
        assert report.digest == comparison["enforced"]["digest"]
        assert "verdict=quarantine" in report.log
        assert "readmitted" in report.log


class TestDeterminism:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_same_seed_same_digest(self, name):
        a = run_scenario(name, seed=3)
        b = run_scenario(name, seed=3)
        assert a.digest == b.digest
        assert a.log == b.log

    def test_different_seeds_diverge(self):
        assert run_scenario("flash_crowd", seed=0).digest != run_scenario(
            "flash_crowd", seed=1
        ).digest

    def test_policy_is_part_of_the_digest(self):
        default = run_scenario("flash_crowd", seed=0)
        wider = run_scenario(
            "flash_crowd", seed=0,
            policy=replace(scenario_policy("flash_crowd"), budget_us=800.0),
        )
        assert default.digest != wider.digest


class TestHandover:
    def test_mobility_churn_stays_within_budget(self):
        report = run_scenario("handover", seed=0)
        assert report.handovers > 0
        assert report.counters["misses"] == 0
        assert report.delivered_bytes > 0

    def test_handovers_are_deterministic(self):
        a = run_scenario("handover", seed=5)
        b = run_scenario("handover", seed=5)
        assert a.handovers == b.handovers
        assert a.digest == b.digest


class TestMixedSla:
    def test_scarcity_sheds_down_the_lane_ladder(self):
        report = run_scenario("mixed_sla", seed=0)
        shed = report.counters["shed_by_lane"]
        assert shed.get("be", 0) > 0  # best-effort pays first
        assert shed.get("sla", 0) == 0  # the SLA lane never does
        assert report.counters["dispatched"] > 0

    def test_admission_off_disables_verdict_pressure(self):
        policy = replace(scenario_policy("mixed_sla"), admission=False)
        report = run_scenario("mixed_sla", seed=0, policy=policy)
        # lanes still plan and shed, but no plugin is ever rejected
        assert all(p["rejects"] == 0 for p in report.plugins.values())


class TestScenarioApi:
    def test_unknown_scenario_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            run_scenario("nope")
        with pytest.raises(ValueError):
            scenario_policy("nope")


class TestRtCli:
    def test_rt_json_report(self, capsys):
        import json

        from repro.cli import main

        code = main(["rt", "--scenario", "mixed_sla", "--slots", "40", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "mixed_sla"
        assert doc["counters"]["slots"] == 40
        assert doc["attribution"]
        assert doc["digest"]

    def test_rt_baseline_prints_reduction(self, capsys):
        from repro.cli import main

        code = main(["rt", "--baseline", "--slots", "150"])
        assert code == 0
        assert "reduction" in capsys.readouterr().out

    def test_rt_verdict_table_and_overrides(self, capsys):
        from repro.cli import main

        code = main(
            ["rt", "--scenario", "flash_crowd", "--slots", "120",
             "--policy", "budget_us=400,lanes=sla:60;be:40",
             "--verify-determinism"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "byte-identical" in out
        # the keys apply on top of the scenario's policy: the same run as
        # the scenario policy with only those two fields changed
        digest = "a7c64aa3eb5ea24532b3e08dd631b5d8f72716db7d54d19d779c3f8ee9fba7c3"
        assert f"digest: {digest}" in out

    @pytest.mark.parametrize("env", [None, "legacy"])
    def test_report_names_the_engine_that_ran(self, monkeypatch, env):
        from repro.wasm.threaded import resolve_engine

        if env is None:
            monkeypatch.delenv("REPRO_WASM_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_WASM_ENGINE", env)
        report = run_scenario("handover", seed=0, slots=5)
        assert report.engine == resolve_engine(None) == (env or "aot")

    def test_rt_rejects_bad_policy(self, capsys):
        from repro.cli import main

        assert main(["rt", "--policy", "bogus=1"]) == 1
        assert "error" in capsys.readouterr().err
