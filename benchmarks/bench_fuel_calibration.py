"""Fuel-calibration report - how good is the pinned fuel/us exchange rate?

The rt dispatcher converts wall-clock budgets into fuel budgets through
``RtPolicy.fuel_per_us`` (pinned, default 50): *budget_us x rate = fuel*.
Fuel is exact but the exchange rate is a guess about the machine, so a
badly pinned rate silently turns "400us budget" into something much
shorter or longer in real time.

This bench measures the actual rate per engine - the same scheduler
plugins the scenarios dispatch (rr/pf/mt across UE loads), timed with
their per-call fuel - and feeds the samples through the dispatcher's own
:class:`~repro.rt.dispatcher.FuelCalibrator` EWMA.  A rate more than
``FUEL_CAL_MISPREDICTION_FACTOR`` (2x) away from the pinned one is
flagged.  **Reporting only**: flags land in ``BENCH_fuel_calibration.json``
for operators to re-pin policies from, they never fail the bench - wall
clock is machine-specific by nature, which is exactly why the live
dispatcher runs on fuel.
"""

import pytest

from benchmarks.conftest import FUEL_CAL_LIVE, FUEL_CAL_MISPREDICTION_FACTOR
from repro.abi import wire
from repro.abi.host import PluginHost
from repro.experiments.fig5d import make_ues
from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm
from repro.rt.dispatcher import FuelCalibrator, RtPolicy
from repro.wasm.threaded import ENGINES

UE_COUNTS = (4, 16, 32)
CALLS_PER_SHAPE = 12
PINNED_RATE = RtPolicy().fuel_per_us


def measure_engine(engine: str) -> dict:
    """Fuel->us rate over the scheduler plugin matrix for one engine."""
    calibrator = FuelCalibrator(alpha=0.05)
    per_plugin: dict[str, dict] = {}
    for name in SCHEDULER_PLUGINS:
        # "@cal" keeps these samples out of the plugin histograms the
        # obs perf gate compares (legacy-engine calls would skew them)
        host = PluginHost(plugin_wasm(name), name=f"{name}@cal", engine=engine)
        host.promote()  # the aot row is the compiled rate, not the warm-up
        fuel_total, us_total = 0, 0.0
        for n_ues in UE_COUNTS:
            payload = wire.pack_sched_input(0, 32, make_ues(n_ues))
            for slot in range(CALLS_PER_SHAPE):
                result = host.call(payload)
                if result.fuel_used and result.elapsed_us > 0:
                    fuel_total += result.fuel_used
                    us_total += result.elapsed_us
                    calibrator.observe(result.fuel_used, result.elapsed_us)
        per_plugin[name] = {
            "fuel": fuel_total,
            "us": round(us_total, 1),
            "fuel_per_us": round(fuel_total / us_total, 2) if us_total else None,
        }
    rate = calibrator.rate or 0.0
    ratio = rate / PINNED_RATE if PINNED_RATE else 0.0
    return {
        "measured_fuel_per_us": round(rate, 2),
        "suggested_fuel_per_us": calibrator.suggest_rate(),
        "pinned_fuel_per_us": PINNED_RATE,
        "ratio_vs_pinned": round(ratio, 2),
        "mispredicted": bool(
            ratio > FUEL_CAL_MISPREDICTION_FACTOR
            or (ratio and ratio < 1 / FUEL_CAL_MISPREDICTION_FACTOR)
        ),
        "samples": calibrator.samples,
        "per_plugin": per_plugin,
    }


@pytest.mark.benchmark(group="fuel-calibration")
# ids avoid the trailing-engine pattern the micro-suite reports key on:
# this bench times calibration sweeps (compiles included), not call paths
@pytest.mark.parametrize("engine", ENGINES, ids=[f"{e}-cal" for e in ENGINES])
def test_fuel_rate_calibration(benchmark, engine):
    """Measure the engine's real fuel/us rate; flag a >2x mispinning."""
    row = benchmark.pedantic(measure_engine, args=(engine,), rounds=1,
                             iterations=1)

    # sanity, not policy: the measurement itself must have seen real calls
    assert row["samples"] >= 8
    assert row["measured_fuel_per_us"] > 0

    FUEL_CAL_LIVE[engine] = row
    flag = " MISPREDICTED" if row["mispredicted"] else ""
    print(
        f"\nfuel calibration [{engine}]: measured "
        f"{row['measured_fuel_per_us']} fuel/us vs pinned "
        f"{row['pinned_fuel_per_us']} (x{row['ratio_vs_pinned']}){flag}"
    )
