"""Chaos soak: a ChaosRunner run must hold every invariant.

A ~400-slot run on a hotter-than-soak mix is tier-1, so the invariants
are exercised on every commit, under every engine.  The full soak - 10k
slots of the default mix per engine, and a 2k-slot same-seed pair - is
marked ``slow`` (the nightly ``pytest -m slow`` job).
"""

import pytest

from repro.chaos import ChaosConfig, ChaosRunner
from repro.e2.comm import MessageGuard
from repro.wasm.threaded import ENGINES

SEED = 42
SLOTS = 400

#: hotter-than-soak mix so even 400 slots climbs the escalation ladder
HOT = ChaosConfig(
    seed=SEED,
    trap=0.05,
    fuel_cut=0.03,
    bitflip=0.01,
    abi=0.02,
    oversize=0.01,
    deadline=0.02,
    drop=0.03,
    dup=0.02,
    corrupt=0.03,
    delay=0.02,
    fail=0.05,
)


@pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
class TestSoakInvariants:
    def test_invariants_hold(self, engine):
        report = ChaosRunner(
            seed=SEED, slots=SLOTS, engine=engine, config=HOT
        ).run()
        assert report.violations == [], report.violations[:5]
        # the schedule exercised both the plugin and transport layers...
        assert report.faults > 0
        assert any(k in report.injection_counts for k in ("drop", "fail", "corrupt"))
        # ...and the recovery machinery actually ran
        assert report.releases > 0
        assert report.recoveries > 0
        assert report.checkpoints > 0

    def test_same_seed_byte_identical_log(self, engine):
        first = ChaosRunner(seed=SEED, slots=SLOTS, engine=engine, config=HOT).run()
        second = ChaosRunner(seed=SEED, slots=SLOTS, engine=engine, config=HOT).run()
        assert first.log == second.log
        assert first.digest == second.digest

    def test_different_seed_different_schedule(self, engine):
        first = ChaosRunner(seed=1, slots=100, engine=engine).run()
        second = ChaosRunner(seed=2, slots=100, engine=engine).run()
        assert first.log != second.log


def test_the_run_engine_reaches_the_message_guard(monkeypatch):
    """Every plugin host of a soak, the E2 message guard's too, runs the
    runner's engine, not whatever ``REPRO_WASM_ENGINE`` names."""
    guards = []
    init = MessageGuard.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        guards.append(self)

    monkeypatch.setattr(MessageGuard, "__init__", spy)
    monkeypatch.setenv("REPRO_WASM_ENGINE", "bogus")
    report = ChaosRunner(seed=SEED, slots=100, engine="legacy", config=HOT).run()
    assert report.violations == [] and report.engine == "legacy"
    assert [guard.host.tier for guard in guards] == ["legacy"]
    assert guards[0].accepted > 0


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
class TestFullSoak:
    def test_10k_slots_hold_every_invariant(self, engine):
        report = ChaosRunner(seed=SEED, slots=10_000, engine=engine).run()
        assert report.violations == [], report.violations[:5]
        # the schedule exercised every layer
        assert report.faults > 0
        assert report.releases > 0 and report.recoveries > 0
        assert any(k in report.injection_counts for k in ("drop", "fail", "corrupt"))

    def test_same_seed_same_log(self, engine):
        first = ChaosRunner(seed=SEED, slots=2_000, engine=engine).run()
        second = ChaosRunner(seed=SEED, slots=2_000, engine=engine).run()
        assert first.ok and second.ok
        assert first.log == second.log
        assert first.digest == second.digest
