"""Cluster scale-out - slots/sec and slot latency vs worker count.

Runs the :mod:`repro.cluster` coordinator over a worker-count sweep
(worker processes over TCP loopback; same cells, UEs, slots and seed
throughout), measuring the slot rate through the slowest worker and the
bucket-merged p50/p99 per-slot step time, and *asserting* the scale-out
contract: aggregate scheduled-bytes and fault-log digests byte-identical
at every worker count.

Results land in ``BENCH_cluster.json`` at the repo root - the one file a
bench writes, because multi-process scale-out is the one thing the
single-process slot-cost ledger does not measure: one row per worker
count plus the 1->N speedup and p99 ratio.  Absolute speedup depends on
the host's core count, which is recorded next to the numbers; the
invariants hold on any host.
"""

import json
import os
import pathlib
from dataclasses import replace

import pytest

from repro.cluster import ClusterSpec, run_cluster, run_sweep

BENCH_CLUSTER_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
)
WORKER_COUNTS = (1, 2, 4)
SPEC = ClusterSpec(cells=4, ues=32, slots=300, seed=7, mode="proc", timeout_s=300)


@pytest.mark.benchmark(group="cluster")
def test_cluster_scaling_sweep(benchmark):
    # run_sweep raises if digests diverge across worker counts
    reports = benchmark.pedantic(
        run_sweep, args=(SPEC,), kwargs={"workers": WORKER_COUNTS},
        rounds=1, iterations=1,
    )
    assert all(r.indications_dropped == 0 for r in reports)

    rows = []
    for report in reports:
        rows.append(
            {
                "workers": report.spec.workers,
                "slot_rate": round(report.slot_rate, 1),
                "cell_slot_rate": round(report.cell_slot_rate, 1),
                "p50_slot_us": round(report.p50_slot_us, 1),
                "p99_slot_us": round(report.p99_slot_us, 1),
                "delivered_bytes": report.delivered_bytes,
                "indications": report.indications_seen,
                "uplink_batches": report.uplink.get("batches_sent", 0),
            }
        )
        print(f"\n{report.summary()}")
    by_workers = {r["workers"]: r for r in rows}
    max_w = max(WORKER_COUNTS)
    speedup = (
        by_workers[max_w]["slot_rate"] / by_workers[1]["slot_rate"]
        if by_workers[1]["slot_rate"]
        else 0.0
    )
    p99_ratio = (
        by_workers[max_w]["p99_slot_us"] / by_workers[1]["p99_slot_us"]
        if by_workers[1]["p99_slot_us"]
        else 0.0
    )
    print(
        f"1->{max_w} workers speedup: x{speedup:.2f}, "
        f"p99 ratio x{p99_ratio:.2f}"
    )

    # one traced run at max workers: the distributed-tracing layer names
    # the segment responsible for the p99 just measured
    traced = run_cluster(replace(SPEC, workers=max_w, trace=True))
    attribution = traced.attribution
    print(f"\np99 attribution ({max_w} workers): "
          f"dominant={attribution.get('dominant')}")

    doc = {
        "schema": "waran-bench-cluster/4",
        "spec": SPEC.to_json(),
        "worker_counts": list(WORKER_COUNTS),
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "speedup_1_to_max": round(speedup, 2),
        "p99_ratio_max_vs_1": round(p99_ratio, 2),
        "bytes_digest": reports[0].bytes_digest,
        "fault_digest": reports[0].fault_digest,
        "attribution": attribution,
        "trace_digest": traced.trace_digest,
    }
    BENCH_CLUSTER_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"-> {BENCH_CLUSTER_PATH.name} ({os.cpu_count()} cores)")


@pytest.mark.benchmark(group="cluster")
def test_cluster_proc_matches_inline(benchmark):
    """Process workers over TCP agree with inline byte-for-byte."""
    spec = replace(SPEC, workers=2, slots=100)

    def pair():
        return (
            run_cluster(spec),
            run_cluster(replace(spec, mode="inline")),
        )

    proc, inline = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert proc.bytes_digest == inline.bytes_digest
    assert proc.fault_digest == inline.fault_digest
    assert proc.indications_seen == inline.indications_seen
