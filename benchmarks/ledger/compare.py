"""Comparing two ledger documents (``out/ledger.json`` of two commits, or
the two halves of one ``--sets N`` run) by the rule every later PR is
held to.

Per (end-to-end metric, workload): both medians, the delta as a share of
A's median (positive = B is worse), the bound ``BENCHMARK.json`` fixes,
and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the medians cannot settle it - unless every run
                of B reads better than every run of A
``ok``          otherwise
"""

from __future__ import annotations

import json
import statistics

from benchmarks.ledger.hostclock import spread

#: per-layer metrics that are exact counts (or ratios of exact counts):
#: two runs of one commit and one seed must agree bit for bit
EXACT_LAYER = (
    "abi.calls_per_cell_slot", "abi.input_bytes_per_call", "abi.fault_calls",
    "wasm.fuel_per_call", "ric.xapp_calls", "ric.controls_per_indication",
    "rt.dispatched", "rt.degraded", "rt.overruns", "rt.misses",
    "rt.quarantines", "rt.readmissions",
)


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """``(median_a, median_b, delta, status)`` for one metric on one workload."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) if better == "lower" else (med_a - med_b)
    delta = worse / med_a if med_a else 0.0
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not b_always_better:
        status = "unresolved"
    elif delta > bound:
        status = "regressed"
    else:
        status = "ok"
    return med_a, med_b, delta, status


def compare_sets(sets_a: list[dict], sets_b: list[dict], contract: dict) -> int:
    """Print the table; return the number of regressed rows."""
    regressed = 0
    print(f"{'workload':14s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [s[workload]["end_to_end"][name] for s in sets_a if workload in s]
            b = [s[workload]["end_to_end"][name] for s in sets_b if workload in s]
            if not a or not b:
                continue
            med_a, med_b, delta, status = verdict(
                a, b, metric["better"], metric["bound"]
            )
            regressed += status == "regressed"
            print(f"{workload:14s} {name:24s} {med_a:12.5g} {med_b:12.5g} "
                  f"{delta:+8.1%} {metric['bound']:6.0%}  {status}")
    return regressed


def exact_mismatches(sets: list[dict]) -> list[str]:
    """Exact-count layer metrics that differ between sets of one seed."""
    out = []
    for workload in sets[0]:
        for name in EXACT_LAYER:
            seen = {s[workload]["per_layer"].get(name) for s in sets if workload in s}
            if len(seen) > 1:
                out.append(f"{workload} {name}: {sorted(seen)}")
    return out


def compare_files(path_a: str, path_b: str) -> int:
    from benchmarks.ledger.run import load_contract

    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    print(f"A: {path_a} (engine {doc_a.get('engine')}, {len(doc_a['sets'])} sets)")
    print(f"B: {path_b} (engine {doc_b.get('engine')}, {len(doc_b['sets'])} sets)")
    return 1 if compare_sets(doc_a["sets"], doc_b["sets"], load_contract()) else 0
