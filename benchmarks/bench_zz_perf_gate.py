"""Perf regression gate - runs last (``zz``) so the registry is full.

Compares this session's ``waran_plugin_call_us`` p50/p99 against the
committed ``BENCH_obs.json`` baseline and fails the bench job when any
plugin regressed by more than the tolerance factor (default 1.25).

Noisy-runner escape hatches::

    WARAN_PERF_GATE=off              # skip the gate entirely
    WARAN_PERF_GATE_TOLERANCE=2.0    # widen the allowed factor

The gate only judges label sets measured both in the baseline and in this
session (with enough samples each), so running a subset of the benchmarks
gates just that subset.  A p99 regression additionally needs the median
to have moved (>10%) before it counts: on small runners a lone scheduler
hiccup owns the top percentile, while a real regression shifts p50 too.
"""

import pytest

from benchmarks.conftest import (
    aot_gate_violations,
    cluster_gate_violations,
    perf_gate_violations,
    replay_gate_violations,
    rt_gate_violations,
    tier_up_gate_violations,
)


@pytest.mark.benchmark(group="perf-gate")
def test_plugin_call_time_did_not_regress(benchmark):
    # wrapped in pedantic so the gate also runs under --benchmark-only
    violations = benchmark.pedantic(perf_gate_violations, rounds=1, iterations=1)
    assert not violations, "perf regression vs BENCH_obs.json:\n" + "\n".join(
        violations
    )


@pytest.mark.benchmark(group="perf-gate")
def test_aot_tier_holds_its_speedup(benchmark):
    """The aot engine must stay >=2x threaded (geomean, micro suite).

    Ratio-based — both engines are timed in this same session — so it
    holds on shared runners; ``WARAN_PERF_GATE[_TOLERANCE]`` applies as
    usual.  Also guards against regressing the committed ``BENCH_aot.json``
    geomean.
    """
    violations = benchmark.pedantic(aot_gate_violations, rounds=1, iterations=1)
    assert not violations, "aot tier perf gate:\n" + "\n".join(violations)


@pytest.mark.benchmark(group="perf-gate")
def test_tier_up_is_compiled_when_hot_and_cheap_when_cold(benchmark):
    """The default engine's bargain, both sides (ratios, same session).

    Hot: a default-engine ``PluginHost.call`` on ``pf`` that promoted by
    burning fuel runs within 15% of a host promoted up front and >=1.8x a
    pinned-threaded host.  Cold: a default-engine ``SchedulerPlugin.load``
    of a never-seen variant costs within 15% of ``engine="threaded"``.
    """
    violations = benchmark.pedantic(
        tier_up_gate_violations, rounds=1, iterations=1
    )
    assert not violations, "tier-up perf gate:\n" + "\n".join(violations)


@pytest.mark.benchmark(group="perf-gate")
def test_rt_dispatch_holds_miss_reduction(benchmark):
    """Enforced rt dispatch must keep its >=10x deadline-miss reduction.

    The reduction is a ratio of fuel-defined miss counts (two seeded runs
    of the flash-crowd scenario), so it is exact on any machine; the gate
    checks the floor, the committed ``BENCH_rt.json`` baseline, and that
    the non-sheddable SLA lane really shed nothing.
    """
    violations = benchmark.pedantic(rt_gate_violations, rounds=1, iterations=1)
    assert not violations, "rt dispatch perf gate:\n" + "\n".join(violations)


@pytest.mark.benchmark(group="perf-gate")
def test_replay_corpora_stay_faithful_and_fast(benchmark):
    """Committed replay corpora must reproduce bit-exactly, and not slow.

    Fidelity is exact (outcomes/outputs/fuel), so a mismatch fails the
    gate regardless of escape hatches; the mean-call-time side diffs
    against ``BENCH_replay.json`` under ``WARAN_PERF_GATE[_TOLERANCE]``.
    """
    violations = benchmark.pedantic(
        replay_gate_violations, rounds=1, iterations=1
    )
    assert not violations, "replay perf gate:\n" + "\n".join(violations)


@pytest.mark.benchmark(group="perf-gate")
def test_cluster_digests_stay_invariant(benchmark):
    """The cluster sweep must compute the same thing at every worker count.

    Digest invariance is machine-independent, so it is judged on every
    host (``WARAN_PERF_GATE=off`` skips it like the other gates).
    """
    violations = benchmark.pedantic(
        cluster_gate_violations, rounds=1, iterations=1
    )
    assert not violations, "cluster scale-out gate:\n" + "\n".join(violations)
