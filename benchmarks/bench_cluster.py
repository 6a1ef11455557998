"""Cluster scale-out - slots/sec and slot latency vs worker count.

Runs the :mod:`repro.cluster` coordinator over a worker-count sweep for
**both proc-mode transports** (TCP loopback and shared-memory rings),
same cells, UEs, slots and seed throughout, measuring the slot rate
through the slowest worker and the bucket-merged p50/p99 per-slot step
time, and *asserting* the scale-out contract: aggregate scheduled-bytes
and fault-log digests byte-identical at every worker count and on every
transport.

Results land in ``BENCH_cluster.json`` at the repo root (written directly
by this module, like the session-level ``BENCH_obs.json``): one row per
(transport, worker count) plus per-transport 1->N speedups, and the live
numbers feed ``CLUSTER_LIVE`` for the ``zz`` perf gate.  Absolute speedup
depends on the host's core count - the acceptance targets (>=2x at 4
workers over shm, 4-worker p99 <= 1.5x 1-worker p99) assume at least 4
cores; single-core CI still verifies the invariants and records whatever
ratios it saw.
"""

import json
import os
from dataclasses import replace

import pytest

from benchmarks.conftest import BENCH_CLUSTER_PATH, CLUSTER_LIVE
from repro.cluster import ClusterSpec, run_cluster, run_sweep

WORKER_COUNTS = (1, 2, 4)
TRANSPORTS = ("tcp", "shm")
SPEC = ClusterSpec(cells=4, ues=32, slots=300, seed=7, mode="proc", timeout_s=300)


def _sweep_all_transports() -> dict[str, list]:
    return {
        transport: run_sweep(
            replace(SPEC, transport=transport), workers=WORKER_COUNTS
        )
        for transport in TRANSPORTS
    }


@pytest.mark.benchmark(group="cluster")
def test_cluster_scaling_sweep(benchmark):
    by_transport = benchmark.pedantic(
        _sweep_all_transports, rounds=1, iterations=1
    )
    # run_sweep already raised if digests diverged across worker counts;
    # the transports must agree with each other too
    digests = {
        (r.bytes_digest, r.fault_digest)
        for reports in by_transport.values()
        for r in reports
    }
    assert len(digests) == 1, "digests diverged across transports"
    assert all(
        r.indications_dropped == 0
        for reports in by_transport.values()
        for r in reports
    )

    transports_doc = {}
    for transport, reports in by_transport.items():
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
            print(f"\n[{transport}] {report.summary()}")
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
        transports_doc[transport] = {
            "rows": rows,
            "speedup_1_to_max": round(speedup, 2),
            "p99_ratio_max_vs_1": round(p99_ratio, 2),
        }
        print(
            f"[{transport}] 1->{max_w} workers speedup: x{speedup:.2f}, "
            f"p99 ratio x{p99_ratio:.2f}"
        )

    # one traced run at max workers over shm: the distributed-tracing
    # layer names the segment responsible for the p99 just measured
    traced = run_cluster(
        replace(
            SPEC, workers=max(WORKER_COUNTS), transport="shm", trace=True
        )
    )
    attribution = traced.attribution
    print(f"\np99 attribution ({max(WORKER_COUNTS)} workers, shm): "
          f"dominant={attribution.get('dominant')}")

    # stash the committed baseline before overwriting it, so the zz gate
    # compares against what was reviewed, not what this run just wrote
    baseline = None
    if BENCH_CLUSTER_PATH.exists():
        try:
            baseline = json.loads(BENCH_CLUSTER_PATH.read_text())
        except ValueError:
            baseline = None

    any_reports = next(iter(by_transport.values()))
    doc = {
        "schema": "waran-bench-cluster/3",
        "spec": SPEC.to_json(),
        "worker_counts": list(WORKER_COUNTS),
        "cpu_count": os.cpu_count(),
        "transports": transports_doc,
        "bytes_digest": any_reports[0].bytes_digest,
        "fault_digest": any_reports[0].fault_digest,
        "attribution": attribution,
        "trace_digest": traced.trace_digest,
    }
    BENCH_CLUSTER_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"-> {BENCH_CLUSTER_PATH.name} ({os.cpu_count()} cores)")

    CLUSTER_LIVE.update(
        cpu_count=os.cpu_count() or 1,
        transports={
            t: {
                "speedup": d["speedup_1_to_max"],
                "p99_ratio": d["p99_ratio_max_vs_1"],
            }
            for t, d in transports_doc.items()
        },
        digests_invariant=True,
        baseline=baseline,
    )


@pytest.mark.benchmark(group="cluster")
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_cluster_proc_matches_inline(benchmark, transport):
    """Process workers on either wire agree with inline byte-for-byte."""
    spec = replace(SPEC, workers=2, slots=100, transport=transport)

    def pair():
        return (
            run_cluster(spec),
            run_cluster(replace(spec, mode="inline")),
        )

    proc, inline = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert proc.bytes_digest == inline.bytes_digest
    assert proc.fault_digest == inline.fault_digest
    assert proc.indications_seen == inline.indications_seen
