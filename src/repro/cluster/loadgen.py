"""The cluster load generator: sweep cells x workers.

Drives :func:`~repro.cluster.coordinator.run_cluster` over a grid of
configurations derived from one base spec, checking on the way that the
aggregate results (scheduled-bytes and fault-log digests) are invariant
under the worker count - the cluster's core determinism claim - and
returning one flat list of reports for the CLI to table, or to serialise
as one sweep document (:func:`sweep_document`).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Iterator, Sequence

from repro.cluster.coordinator import ClusterError, ClusterReport, run_cluster
from repro.cluster.spec import ClusterSpec


def sweep_specs(
    base: ClusterSpec,
    workers: Sequence[int] = (1, 2, 4),
    cells: Sequence[int] | None = None,
) -> Iterator[ClusterSpec]:
    """Yield the cells x workers grid around ``base``.

    ``None`` for ``cells`` keeps the base value; worker counts larger than
    the cell count are skipped (an idle worker measures nothing).
    """
    for n_cells in cells if cells is not None else (base.cells,):
        for n_workers in workers:
            if n_workers > n_cells:
                continue
            yield replace(base, workers=n_workers, cells=n_cells)


def run_sweep(
    base: ClusterSpec,
    workers: Sequence[int] = (1, 2, 4),
) -> list[ClusterReport]:
    """Run ``base`` at each worker count and verify worker-count invariance.

    Every run must produce the same scheduled-bytes and fault-log digests
    - a mismatch raises :class:`ClusterError`, because it means sharding
    changed the physics.
    """
    reports: list[ClusterReport] = []
    expected = None
    for spec in sweep_specs(base, workers=workers):
        report = run_cluster(spec)
        reports.append(report)
        observed = (report.bytes_digest, report.fault_digest, report.delivered_bytes)
        expected = expected or observed
        if observed != expected:
            raise ClusterError(
                f"aggregate results changed with the worker count at "
                f"cells={spec.cells} ues={spec.ues} "
                f"workers={spec.workers}: bytes digest "
                f"{observed[0][:12]} != {expected[0][:12]} or fault "
                f"digest {observed[1][:12]} != {expected[1][:12]}"
            )
    return reports


def sweep_document(base: ClusterSpec, reports: list[ClusterReport]) -> dict[str, Any]:
    """The ``waran-bench-cluster/4`` document of a :func:`run_sweep`: one
    row per worker count, the smallest -> largest count speedup and p99
    ratio, the host's core count, and one traced run at the largest count
    naming the segment behind its p99 (``repro scale --sweep --json``)."""
    rows = [
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
        for report in reports
    ]
    first, last = rows[0], rows[-1]
    traced = run_cluster(replace(base, workers=last["workers"], trace=True))
    return {
        "schema": "waran-bench-cluster/4",
        "spec": base.to_json(),
        "worker_counts": [row["workers"] for row in rows],
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "speedup_1_to_max": round(last["slot_rate"] / first["slot_rate"], 2)
        if first["slot_rate"] else 0.0,
        "p99_ratio_max_vs_1": round(last["p99_slot_us"] / first["p99_slot_us"], 2)
        if first["p99_slot_us"] else 0.0,
        "bytes_digest": reports[0].bytes_digest,
        "fault_digest": reports[0].fault_digest,
        "attribution": traced.attribution,
        "trace_digest": traced.trace_digest,
    }
