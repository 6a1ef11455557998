"""Shared fixtures and report helpers for the benchmark harness.

Every bench prints the rows/series the corresponding paper figure reports,
then asserts the *shape* criteria from DESIGN.md §3.  Absolute numbers are
a pure-Python interpreter's, not the paper's NUC + wasmtime testbed;
EXPERIMENTS.md records the comparison.

Telemetry: the whole benchmark session runs with :mod:`repro.obs` enabled,
so plugin calls, swaps and compiles report into the process-wide metrics
registry instead of private timers.  Each pytest-benchmark result is also
folded into the registry (``waran_bench_*`` gauges), and at session end
the full registry snapshot is written to ``BENCH_obs.json`` at the repo
root - the perf-trajectory baseline future PRs diff against.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import pathlib
import re

import pytest

from repro import obs

BENCH_OBS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"
BENCH_THREADED_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_threaded.json"
)
BENCH_AOT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_aot.json"
BENCH_RT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_rt.json"
BENCH_REPLAY_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_replay.json"
)
BENCH_FUEL_CAL_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_fuel_calibration.json"
)
BENCH_CLUSTER_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
)

_ran_benchmarks = False

#: live rt-dispatch results, filled in by ``bench_rt.py`` during the
#: session and judged by the ``zz`` gate / persisted at session end
RT_LIVE: dict = {}

#: live replay-corpus results (``bench_replay.py``): per committed corpus,
#: per engine, the fidelity verdict and timing stats
REPLAY_LIVE: dict = {}

#: live fuel-calibration rates (``bench_fuel_calibration.py``): per
#: engine, the measured fuel->wall-clock exchange rate vs the pinned one
FUEL_CAL_LIVE: dict = {}

#: live cluster scale-out verdict (``bench_cluster.py``): whether the
#: aggregate digests stayed invariant across the worker-count sweep
CLUSTER_LIVE: dict = {}

#: floor for the rt tier: enforced flash crowd must cut the deadline-miss
#: rate by at least this factor vs the observe-only baseline (fuel-defined
#: misses, so the ratio is exact and machine-independent)
RT_MISS_REDUCTION_FLOOR = 10.0


@pytest.fixture(scope="session", autouse=True)
def telemetry_session():
    """Benchmarks always run instrumented; the registry is the report."""
    obs.enable()
    obs.reset()
    yield obs.OBS


@pytest.fixture(autouse=True)
def _fold_benchmark_stats_into_registry(request):
    """After each bench, mirror its pytest-benchmark stats into the registry."""
    yield
    global _ran_benchmarks
    bench = getattr(request.node, "funcargs", {}).get("benchmark")
    stats = getattr(getattr(bench, "stats", None), "stats", None)
    if stats is None:
        return
    _ran_benchmarks = True
    reg = obs.OBS.registry
    name = request.node.name
    reg.gauge("waran_bench_mean_us", "pytest-benchmark mean round (us)").set(
        stats.mean * 1e6, bench=name
    )
    reg.gauge("waran_bench_min_us", "pytest-benchmark best round (us)").set(
        stats.min * 1e6, bench=name
    )
    reg.gauge("waran_bench_rounds", "pytest-benchmark rounds").set(
        stats.rounds, bench=name
    )


def pytest_sessionfinish(session, exitstatus):
    """Persist the registry snapshot so future PRs have a perf baseline."""
    if not _ran_benchmarks:
        return
    import time

    doc = {
        "schema": "waran-bench-obs/1",
        "written_unix": int(time.time()),
        "exitstatus": int(exitstatus),
        "metrics": obs.OBS.registry.to_json(),
    }
    BENCH_OBS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    threaded_doc = engine_comparison_report()
    if threaded_doc["micro"] or threaded_doc["fig5d"]:
        threaded_doc["written_unix"] = int(time.time())
        BENCH_THREADED_PATH.write_text(
            json.dumps(threaded_doc, indent=2, sort_keys=True) + "\n"
        )
    aot_doc = aot_tier_report()
    if aot_doc["micro"]:
        aot_doc["written_unix"] = int(time.time())
        BENCH_AOT_PATH.write_text(
            json.dumps(aot_doc, indent=2, sort_keys=True) + "\n"
        )
    if RT_LIVE:
        rt_doc = {
            "schema": "waran-bench-rt/1",
            "written_unix": int(time.time()),
            "miss_reduction_floor": RT_MISS_REDUCTION_FLOOR,
            **RT_LIVE,
        }
        BENCH_RT_PATH.write_text(
            json.dumps(rt_doc, indent=2, sort_keys=True) + "\n"
        )
    if REPLAY_LIVE:
        replay_doc = {
            "schema": "waran-bench-replay/1",
            "written_unix": int(time.time()),
            "corpora": REPLAY_LIVE,
        }
        BENCH_REPLAY_PATH.write_text(
            json.dumps(replay_doc, indent=2, sort_keys=True) + "\n"
        )
    if FUEL_CAL_LIVE:
        cal_doc = {
            "schema": "waran-bench-fuelcal/1",
            "written_unix": int(time.time()),
            "misprediction_factor": FUEL_CAL_MISPREDICTION_FACTOR,
            "engines": FUEL_CAL_LIVE,
        }
        BENCH_FUEL_CAL_PATH.write_text(
            json.dumps(cal_doc, indent=2, sort_keys=True) + "\n"
        )


def engine_comparison_report() -> dict:
    """Side-by-side legacy/threaded numbers from the live registry.

    ``micro`` pairs up the engine-parametrized ``bench_micro_wasm``
    results (``test_x[...-legacy]`` vs ``test_x[...-threaded]``) and
    reports the speedup; ``fig5d`` carries the per-plugin call-time
    quantiles of the session's default engine; ``codecache`` the hit/miss
    counters.
    """
    from repro.wasm.codecache import stats as cache_stats
    from repro.wasm.threaded import resolve_engine

    reg = obs.OBS.registry
    per_engine = _micro_means_per_engine()
    micro = {}
    for base, engines in sorted(per_engine.items()):
        row = {f"{e}_mean_us": round(v, 2) for e, v in engines.items()}
        if "legacy" in engines and "threaded" in engines and engines["threaded"]:
            row["speedup"] = round(engines["legacy"] / engines["threaded"], 2)
        micro[base] = row

    fig5d = {}
    call_us = reg.get("waran_plugin_call_us")
    if call_us is not None:
        for key, child in call_us.series():
            snap = child.snapshot()
            if snap["count"]:
                fig5d[dict(key).get("plugin", "?")] = {
                    "p50_us": round(snap["p50"], 2),
                    "p99_us": round(snap["p99"], 2),
                    "count": snap["count"],
                }

    return {
        "schema": "waran-bench-threaded/1",
        "default_engine": resolve_engine(),
        "micro": micro,
        "fig5d": fig5d,
        "codecache": cache_stats(),
    }


def _micro_means_per_engine() -> dict[str, dict[str, float]]:
    """``{bench_base: {engine: mean_us}}`` from the live registry."""
    per_engine: dict[str, dict[str, float]] = {}
    mean_us = obs.OBS.registry.get("waran_bench_mean_us")
    if mean_us is not None:
        for key, child in mean_us.series():
            name = dict(key).get("bench", "")
            m = re.fullmatch(r"(.+)\[(?:(.*)-)?(legacy|threaded|aot)\]", name)
            if not m:
                continue
            base = m.group(1) + (f"[{m.group(2)}]" if m.group(2) else "")
            per_engine.setdefault(base, {})[m.group(3)] = child[0]
    return per_engine


def aot_tier_report() -> dict:
    """Three-engine side-by-side (legacy/threaded/aot) from the registry.

    One row per engine-parametrized microbench with all three means and
    the aot speedups; ``geomean_aot_vs_threaded`` over the rows where
    both compiled tiers ran is the headline the perf gate judges.
    """
    import math

    from repro.wasm.codecache import stats as cache_stats

    micro = {}
    ratios = []
    for base, engines in sorted(_micro_means_per_engine().items()):
        row = {f"{e}_mean_us": round(v, 2) for e, v in engines.items()}
        aot = engines.get("aot")
        if aot:
            if engines.get("legacy"):
                row["speedup_aot_vs_legacy"] = round(engines["legacy"] / aot, 2)
            if engines.get("threaded"):
                ratio = engines["threaded"] / aot
                row["speedup_aot_vs_threaded"] = round(ratio, 2)
                ratios.append(ratio)
        micro[base] = row
    geomean = (
        math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        if ratios
        else None
    )
    return {
        "schema": "waran-bench-aot/1",
        "micro": micro,
        "geomean_aot_vs_threaded": round(geomean, 3) if geomean else None,
        "codecache": cache_stats(),
    }


#: floor for the aot tier: >=2x over threaded, geomean across the micro suite
AOT_SPEEDUP_FLOOR = 2.0


def aot_gate_violations() -> list[str]:
    """Gate the aot tier: live aot-vs-threaded geomean over the micro suite.

    Both sides of every ratio are measured in the *same* session on the
    same machine, so — unlike the absolute-time gate above — this holds on
    noisy shared runners too.  Violations: geomean below the 2x floor, or
    below the committed ``BENCH_aot.json`` baseline, each divided by
    ``WARAN_PERF_GATE_TOLERANCE``.
    """
    if os.environ.get(GATE_ENV, "").lower() in ("off", "0", "false"):
        return []
    tolerance = float(os.environ.get(GATE_TOLERANCE_ENV, "1.25"))
    live = aot_tier_report()
    geomean = live.get("geomean_aot_vs_threaded")
    if geomean is None:
        return []  # aot micro rows not measured this session
    violations = []
    if geomean < AOT_SPEEDUP_FLOOR / tolerance:
        violations.append(
            f"aot tier geomean speedup vs threaded is {geomean:.2f}x, "
            f"below the {AOT_SPEEDUP_FLOOR}x floor (tolerance x{tolerance})"
        )
    if BENCH_AOT_PATH.exists():
        baseline = json.loads(BENCH_AOT_PATH.read_text())
        base_geomean = baseline.get("geomean_aot_vs_threaded")
        if base_geomean and geomean < base_geomean / tolerance:
            violations.append(
                f"aot tier geomean speedup vs threaded regressed: "
                f"{geomean:.2f}x vs baseline {base_geomean:.2f}x "
                f"(> x{tolerance})"
            )
    return violations


#: tier-up acceptance: a heat-promoted default-engine host runs within this
#: factor of a host promoted up front, a never-seen binary loads within it
#: of ``engine="threaded"`` ...
TIER_UP_PARITY_CEIL = 1.15
#: ... and the promoted host is at least this much faster than threaded
TIER_UP_SPEEDUP_FLOOR = 1.8


def tier_up_report(calls: int = 150, loads: int = 24) -> dict:
    """Time the two sides of the tier-up bargain, interleaved in-process.

    *Hot*: ``PluginHost.call`` on ``pf`` for a default-engine host that
    promoted by burning fuel, a host promoted up front, and a pinned
    threaded host.  *Cold*: ``SchedulerPlugin.load`` of never-seen
    variants (same code, new custom section) under the default engine
    and under ``engine="threaded"``.  Medians of interleaved samples.
    """
    import time
    from statistics import median

    from benchmarks.ledger.workloads import cold_variant
    from repro.abi import SchedulerPlugin, wire
    from repro.abi.host import PluginHost
    from repro.experiments.fig5d import make_ues
    from repro.plugins import plugin_wasm
    from repro.wasm import codecache

    def variant(wasm: bytes, tag: str) -> bytes:
        return cold_variant(wasm, "tierup.gate", tag)

    now = time.perf_counter_ns
    payloads = [wire.pack_sched_input(s, 52, make_ues(24)) for s in range(calls)]
    wasm = plugin_wasm("pf")
    codecache.clear()
    earned = PluginHost(wasm, name="gate-earned")
    warmup = 0
    while earned.tier != "aot":
        earned.call(payloads[warmup % calls])
        warmup += 1
    hosts = {
        "earned": earned,
        "upfront": PluginHost(variant(wasm, "upfront"), name="gate-upfront"),
        "threaded": PluginHost(wasm, name="gate-threaded", engine="threaded"),
    }
    hosts["upfront"].promote()
    call_ns: dict[str, list[int]] = {name: [] for name in hosts}
    for payload in payloads:
        for name, host in hosts.items():
            t0 = now()
            host.call(payload)
            call_ns[name].append(now() - t0)
    load_ns: dict[str, list[int]] = {"default": [], "threaded": []}
    for i in range(loads):
        for name, engine in (("default", None), ("threaded", "threaded")):
            cold = variant(wasm, f"{name}.{i}")
            t0 = now()
            SchedulerPlugin.load(cold, engine=engine)
            load_ns[name].append(now() - t0)
    codecache.clear()
    return {
        "warmup_calls": warmup,
        "tiers": {name: host.tier for name, host in hosts.items()},
        "call_us": {n: median(v) / 1000.0 for n, v in call_ns.items()},
        "load_cold_us": {n: median(v) / 1000.0 for n, v in load_ns.items()},
    }


def tier_up_gate_violations() -> list[str]:
    """Gate the tier-up bargain: compiled when hot, threaded's cost when cold.

    Ratio-based (every side measured interleaved in this session), so it
    holds on shared runners; ``WARAN_PERF_GATE[_TOLERANCE]`` apply as usual.
    """
    if os.environ.get(GATE_ENV, "").lower() in ("off", "0", "false"):
        return []
    tolerance = float(os.environ.get(GATE_TOLERANCE_ENV, "1.25"))
    live = tier_up_report()
    violations = []
    if live["tiers"] != {"earned": "aot", "upfront": "aot", "threaded": "threaded"}:
        violations.append(f"hosts ended on the wrong tiers: {live['tiers']}")
    call_us, load_us = live["call_us"], live["load_cold_us"]
    parity = call_us["earned"] / call_us["upfront"]
    if parity > TIER_UP_PARITY_CEIL * tolerance:
        violations.append(
            f"heat-promoted pf call is {parity:.2f}x a host promoted up front "
            f"({call_us['earned']:.0f} vs {call_us['upfront']:.0f} us; "
            f"ceiling {TIER_UP_PARITY_CEIL}x, tolerance x{tolerance})"
        )
    speedup = call_us["threaded"] / call_us["earned"]
    if speedup < TIER_UP_SPEEDUP_FLOOR / tolerance:
        violations.append(
            f"heat-promoted pf call is only {speedup:.2f}x a pinned-threaded "
            f"host ({call_us['earned']:.0f} vs {call_us['threaded']:.0f} us; "
            f"floor {TIER_UP_SPEEDUP_FLOOR}x, tolerance x{tolerance})"
        )
    cold = load_us["default"] / load_us["threaded"]
    if cold > TIER_UP_PARITY_CEIL * tolerance:
        violations.append(
            f"default-engine cold load is {cold:.2f}x engine='threaded' "
            f"({load_us['default']:.0f} vs {load_us['threaded']:.0f} us; "
            f"ceiling {TIER_UP_PARITY_CEIL}x, tolerance x{tolerance})"
        )
    return violations


def rt_gate_violations() -> list[str]:
    """Gate the rt tier: live flash-crowd miss reduction vs floor+baseline.

    The reduction is a ratio of fuel-defined miss counts from two runs of
    the same seed, so it is *exact* - no wall-clock noise - and the gate
    can hold it to the floor without corroboration heuristics.  Tolerance
    still applies so a deliberately retuned scenario doesn't hard-fail
    before its baseline is refreshed.
    """
    if os.environ.get(GATE_ENV, "").lower() in ("off", "0", "false"):
        return []
    live = RT_LIVE.get("flash_crowd")
    if not live:
        return []  # rt bench not run this session
    tolerance = float(os.environ.get(GATE_TOLERANCE_ENV, "1.25"))
    reduction = live["miss_reduction"]
    violations = []
    if reduction < RT_MISS_REDUCTION_FLOOR / tolerance:
        violations.append(
            f"rt flash-crowd miss reduction is {reduction:.1f}x, below the "
            f"{RT_MISS_REDUCTION_FLOOR}x floor (tolerance x{tolerance})"
        )
    if BENCH_RT_PATH.exists():
        baseline = json.loads(BENCH_RT_PATH.read_text())
        base = baseline.get("flash_crowd", {}).get("miss_reduction")
        if base and reduction < base / tolerance:
            violations.append(
                f"rt flash-crowd miss reduction regressed: {reduction:.1f}x "
                f"vs baseline {base:.1f}x (> x{tolerance})"
            )
    if live.get("shed_by_lane", {}).get("sla", 0):
        violations.append(
            "rt flash crowd shed SLA-lane work "
            f"({live['shed_by_lane']['sla']} calls): the sla lane is "
            "non-sheddable by contract"
        )
    return violations


#: a measured fuel->us rate further than this factor from the pinned
#: ``RtPolicy.fuel_per_us`` is flagged as a misprediction (reporting only)
FUEL_CAL_MISPREDICTION_FACTOR = 2.0


def replay_gate_violations() -> list[str]:
    """Gate the replay tier: fidelity is absolute, timing vs baseline.

    A fidelity mismatch (a committed corpus no longer reproduces its
    recorded outputs/traps/fuel bit-exactly) always violates - it is an
    exact, machine-independent property, so no escape hatch applies.
    The wall-clock side compares each corpus's per-engine ``mean_call_us``
    against the committed ``BENCH_replay.json`` and honours
    ``WARAN_PERF_GATE[_TOLERANCE]`` like the other gates.
    """
    violations = []
    for corpus, engines in sorted(REPLAY_LIVE.items()):
        for engine, live in sorted(engines.items()):
            if not live.get("fidelity_ok", True):
                violations.append(
                    f"replay corpus {corpus} under {engine}: "
                    f"{live.get('mismatched', '?')} of {live.get('calls', '?')} "
                    f"calls no longer reproduce the recording bit-exactly"
                )
    if os.environ.get(GATE_ENV, "").lower() in ("off", "0", "false"):
        return violations
    if not REPLAY_LIVE or not BENCH_REPLAY_PATH.exists():
        return violations
    tolerance = float(os.environ.get(GATE_TOLERANCE_ENV, "1.25"))
    baseline = json.loads(BENCH_REPLAY_PATH.read_text()).get("corpora", {})
    for corpus, engines in sorted(REPLAY_LIVE.items()):
        for engine, live in sorted(engines.items()):
            base = baseline.get(corpus, {}).get(engine)
            if not base or not base.get("mean_call_us"):
                continue
            mean = live.get("mean_call_us", 0.0)
            if mean > base["mean_call_us"] * tolerance:
                violations.append(
                    f"replay corpus {corpus} under {engine}: mean call "
                    f"{mean:.1f}us vs baseline {base['mean_call_us']:.1f}us "
                    f"(> x{tolerance})"
                )
    return violations


# ---------------------------------------------------------------------------
# perf regression gate (ISSUE 2 satellite): current session vs BENCH_obs.json
# ---------------------------------------------------------------------------

GATE_ENV = "WARAN_PERF_GATE"  # set to "off" to disable on noisy runners
GATE_TOLERANCE_ENV = "WARAN_PERF_GATE_TOLERANCE"  # regression factor, default 1.25
# a p99 violation only counts when the median moved too: on small/shared
# runners a single scheduler hiccup lands in the top percentile and swings
# p99 2-4x between runs of identical code, while a real regression (e.g.
# forcing engine=legacy) shifts p50 right along with the tail
GATE_P99_CORROBORATION = 1.10


def perf_gate_violations() -> list[str]:
    """Compare live ``waran_plugin_call_us`` p50/p99 against the baseline.

    Returns human-readable violations (empty = gate passes).  Only label
    sets present in both the committed ``BENCH_obs.json`` and the current
    registry are compared, so partial bench runs gate only what they
    measured.
    """
    if os.environ.get(GATE_ENV, "").lower() in ("off", "0", "false"):
        return []
    tolerance = float(os.environ.get(GATE_TOLERANCE_ENV, "1.25"))
    if not BENCH_OBS_PATH.exists():
        return []
    baseline = json.loads(BENCH_OBS_PATH.read_text())
    base_series = (
        baseline.get("metrics", {}).get("waran_plugin_call_us", {}).get("series", [])
    )
    if not base_series:
        return []
    current = obs.OBS.registry.histogram("waran_plugin_call_us")
    violations = []
    for entry in base_series:
        labels = entry.get("labels", {})
        if entry.get("count", 0) < 50:
            continue  # too few baseline samples to gate on
        snap = current.snapshot(**labels)
        if snap.get("count", 0) < 50:
            continue  # not measured (enough) this session
        p50_ratio = None
        if entry.get("p50") and snap.get("p50"):
            p50_ratio = snap["p50"] / entry["p50"]
        for q in ("p50", "p99"):
            if q in entry and q in snap and snap[q] > entry[q] * tolerance:
                if (
                    q == "p99"
                    and p50_ratio is not None
                    and p50_ratio <= GATE_P99_CORROBORATION
                ):
                    continue  # uncorroborated tail spike: scheduler noise
                violations.append(
                    f"waran_plugin_call_us{labels} {q}: {snap[q]:.1f}us vs "
                    f"baseline {entry[q]:.1f}us (> x{tolerance})"
                )
    return violations


def cluster_gate_violations() -> list[str]:
    """Gate the scale-out tier on digest invariance.

    Invariance is machine-independent, so it is judged on every host;
    how fast the sweep went depends on the host's cores and is recorded
    in ``BENCH_cluster.json``, not gated.
    """
    if os.environ.get(GATE_ENV, "").lower() in ("off", "0", "false"):
        return []
    if not CLUSTER_LIVE:
        return []  # cluster bench not run this session
    if not CLUSTER_LIVE.get("digests_invariant"):
        return ["cluster aggregate digests diverged across worker counts"]
    return []


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
